"""Built-in problem instances with independent reference oracles.

Each instance couples blocks through the pattern

    find z:  0 in sum_i G_i* T_i(G_i z) + T_n(z),

and ships a reference solution produced by a solver that shares no code
with the engine (proximal gradient, a closed form, or an exact solution
path in the l1 weight). A reference pair (z*, w*) is certified through
:func:`kkt_residual` before it is returned, so downstream tests can trust
it as an oracle. The four instances cover the regimes of interest:
prox-only blocks, a Lipschitz forward block under composition, two
merely-continuous forward blocks (one non-Lipschitz at its solution), and
a three-block problem with dense compositions and a skew forward block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .errors import ConfigError, ShapeError, checked_integer, checked_real
from .linalg import LinearMap, PrimalDualPoint, Vec, dual_sum
from .operators import (MonotoneOperator, affine_monotone, box_normal_cone, forward_eval,
                        l1_subdifferential, prox_eval, shifted_identity, zero_op)


@dataclass(frozen=True)
class ProblemSpec:
    """A concrete instance: operators T_1..T_n, maps G_1..G_{n-1}, partition.

    The last block always acts on the primal space through the identity.
    ``forward_blocks`` holds the 0-based indices updated by forward steps;
    all remaining blocks are updated through their resolvents; any iterable
    of indices is stored as a frozenset. The spec is validated when built:
    mismatched maps, operators, initial point or partition raise a
    :class:`~projsplit.errors.ConfigError`.
    """

    name: str
    maps: tuple[LinearMap, ...]
    operators: tuple[MonotoneOperator, ...]
    forward_blocks: frozenset[int]
    z_init: Vec
    w_init: tuple[Vec, ...]

    @property
    def n(self) -> int:
        return len(self.operators)

    @property
    def dim(self) -> int:
        """The dimension of the primal space."""
        return len(self.z_init.entries)

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ConfigError("a problem needs at least one operator")
        if len(self.maps) != n - 1:
            raise ConfigError(f"{n} operators require {n - 1} maps, got {len(self.maps)}")
        if self.operators[-1].dim != self.dim:
            raise ConfigError("the last operator must act on the primal space")
        for i, g in enumerate(self.maps):
            if g.domain != self.dim:
                raise ConfigError(f"map {i} domain does not match the primal space")
            if g.codomain != self.operators[i].dim:
                raise ConfigError(f"map {i} codomain does not match operator {i}")
        if len(self.w_init) != n - 1:
            raise ConfigError(f"initial point needs {n - 1} dual blocks, got {len(self.w_init)}")
        for i, wi in enumerate(self.w_init):
            if len(wi.entries) != self.operators[i].dim:
                raise ConfigError(f"initial dual block {i} lives in the wrong space")
        if type(self.forward_blocks) is not frozenset:
            try:
                object.__setattr__(self, "forward_blocks", frozenset(self.forward_blocks))
            except TypeError:
                raise ConfigError(f"forward blocks must be an iterable of block indices, "
                                  f"got {self.forward_blocks!r}") from None
        if not self.forward_blocks <= set(range(n)):
            raise ConfigError(f"forward block indices must lie in 0..{n - 1}")
        for i in range(n):
            op = self.operators[i]
            if i in self.forward_blocks and not op.forward_evaluable:
                raise ConfigError(f"block {i} ('{op.name}') is marked forward "
                                  "but is not forward-evaluable")
            if i not in self.forward_blocks and not op.prox_evaluable:
                raise ConfigError(f"block {i} ('{op.name}') is marked backward "
                                  "but is not prox-evaluable")

    def with_partition(self, forward_blocks) -> "ProblemSpec":
        return replace(self, forward_blocks=forward_blocks)


@dataclass(frozen=True)
class ReferenceSolution:
    """An oracle-produced point of the extended solution set."""

    z: Vec
    w: tuple[Vec, ...]
    accuracy: float

    @property
    def point(self) -> PrimalDualPoint:
        return PrimalDualPoint(self.z, self.w)


def kkt_residual(spec: ProblemSpec, z: Vec, w) -> float:
    """Worst per-block violation of extended-solution-set membership.

    Forward blocks contribute ||T_i(G_i z) - w_i||; prox blocks use the
    fixed-point characterization ||G_i z - resolvent(G_i z + w_i)||, exact
    for maximal monotone operators. The last dual block is derived.
    """
    w = tuple(w)
    n = spec.n
    if len(w) != n - 1:
        raise ShapeError(f"expected {n - 1} dual blocks, got {len(w)}")
    wn = dual_sum(tuple(wi.entries for wi in w), spec.maps, spec.dim)
    worst = 0.0
    ident = LinearMap.identity(spec.dim)
    for i in range(n):
        g = spec.maps[i] if i < n - 1 else ident
        gz = g.apply(z.entries)
        wi = w[i].entries if i < n - 1 else wn
        if i in spec.forward_blocks:
            r = np.linalg.norm(forward_eval(spec.operators[i], gz) - wi)
        else:
            r = np.linalg.norm(gz - prox_eval(spec.operators[i], 1.0, gz + wi).x)
        worst = max(worst, float(r))
    return worst


def _certify(spec: ProblemSpec, ref: ReferenceSolution) -> ReferenceSolution:
    resid = kkt_residual(spec, ref.z, ref.w)
    if resid > ref.accuracy:
        raise ConfigError(f"oracle for '{spec.name}' missed its accuracy target: "
                          f"residual {resid:.3e} > {ref.accuracy:.1e}")
    return ref


# ---------------------------------------------------------------------------
# oracle building blocks (independent of the operators module)
# ---------------------------------------------------------------------------

def _soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


# a sign pattern that has held this many consecutive proximal-gradient
# iterations gets one support-polish attempt
_POLISH_WINDOW = 10
# a support polish corrects its sign pattern at most this many times
_POLISH_CORRECTIONS = 20
# the proximal-gradient oracle gives up when its gradient-map norm has not
# halved within this many iterations of its last halving, which left it >= lam
_STALL_WINDOW = 20_000


def _support_polish(a_mat, b, lam, z):
    """Lasso solution reached from the support and signs of z, or None.

    Each step solves the normal equations on the current support with its
    signs fixed. The result is returned when its signs match on the support
    and every off-support dual satisfies |A^T(A z - b)| <= lam*(1 - 1e-10).
    Otherwise the pattern is corrected: coordinates whose solved sign
    flipped leave the support, and off-support coordinates whose dual
    exceeds that bound enter it with the sign opposite to their dual. The
    polish gives up after ``_POLISH_CORRECTIONS`` corrections, as soon as
    a correction does not reduce the number of violating coordinates, or on
    a support wider than A has rows, where the normal equations are
    singular. A passing result depends on its support and signs alone.
    """
    pattern = np.where(np.abs(z) > 1e-12, np.sign(z), 0.0)
    violations = np.inf
    for _ in range(_POLISH_CORRECTIONS + 1):
        support = pattern != 0.0
        if not 0 < np.count_nonzero(support) <= a_mat.shape[0]:
            return None
        signs = pattern[support]
        a_s = a_mat[:, support]
        try:
            z_s = np.linalg.solve(a_s.T @ a_s, a_s.T @ b - lam * signs)
        except np.linalg.LinAlgError:
            return None
        polished = np.zeros(z.shape[0])
        polished[support] = z_s
        dual = a_mat.T @ (a_mat @ polished - b)
        # written so that a NaN counts as a violation
        leaving = ~(np.sign(z_s) == signs)
        entering = ~support & ~(np.abs(dual) <= lam * (1.0 - 1e-10))
        count = np.count_nonzero(leaving) + np.count_nonzero(entering)
        if count == 0:
            return polished
        if count >= violations:
            return None
        violations = count
        pattern[np.flatnonzero(support)[leaving]] = 0.0
        pattern[entering] = -np.sign(dual[entering])
    return None


def _lasso_oracle(a_mat, b, lam, tol=1e-10, max_iters=500_000):
    """Accelerated proximal gradient with restart and a support polish.

    Whenever the proximal iterate's sign pattern has held for
    ``_POLISH_WINDOW`` consecutive iterations and has not been tried
    before, :func:`_support_polish` refines it by active-set corrections,
    and the first polish that passes is returned. Otherwise the iteration
    runs to a ``tol`` gradient-map norm and polishes once more, returning
    the unpolished iterate if that polish fails. A passing polish is exact
    up to the linear solve and depends only on the pattern it ends on. A
    generic lasso solution is unique, so that pattern is the one a polish
    at ``tol`` would pass on, and stopping early returns the same bits.

    The oracle raises a :class:`~projsplit.errors.ConfigError` after
    ``max_iters`` iterations, or sooner when its gradient-map norm has not
    halved within ``_STALL_WINDOW`` iterations of its last halving and that
    halving left it at or above lam. There each step still moves the
    iterate by about one threshold t*lam or more, as when the prox only
    shrinks coordinates toward zero, and at tiny lam that runs past the
    limit (20x50 at lam_factor 1e-6 plateaus at 3.6 lam); slow instances
    that certify plateau about two orders of magnitude below lam.
    """
    m, d = a_mat.shape
    # ||A||_2^2 is the largest eigenvalue of the smaller Gram matrix
    lip = np.linalg.eigvalsh(a_mat @ a_mat.T if m <= d else a_mat.T @ a_mat)[-1]
    if lip == 0.0:
        return np.zeros(d)
    t = 1.0 / lip
    z = np.zeros(d)
    z_old = z.copy()
    theta = 1.0
    pattern, held, tried = None, 0, set()
    mark, mark_k = np.inf, 0  # the gradient-map norm at its last halving, and when
    for k in range(max_iters):
        grad = a_mat.T @ (a_mat @ z - b)
        z_new = _soft(z - t * grad, t * lam)
        gap = np.linalg.norm((z - z_new) / t)
        if gap <= tol:
            polished = _support_polish(a_mat, b, lam, z_new)
            return z_new if polished is None else polished
        if gap <= 0.5 * mark:
            mark, mark_k = gap, k
        elif k - mark_k >= _STALL_WINDOW and mark >= lam:
            break
        key = np.where(np.abs(z_new) > 1e-12, np.sign(z_new), 0.0).astype(np.int8).tobytes()
        held = held + 1 if key == pattern else 1
        pattern = key
        if held == _POLISH_WINDOW and key not in tried:
            tried.add(key)
            polished = _support_polish(a_mat, b, lam, z_new)
            if polished is not None:
                return polished
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        z_acc = z_new + (theta - 1.0) / theta_new * (z_new - z_old)
        if np.dot(z_acc - z_new, z_new - z_old) > 0.0:  # restart on momentum reversal
            z_acc, theta_new = z_new, 1.0
        z_old, z, theta = z_new, z_acc, theta_new
    raise ConfigError("lasso oracle did not reach its gradient-map tolerance")


class _OracleFailure(Exception):
    pass


# the skew oracle's path gives up after this many events per component of
# G2 z; seeded instances took at most 2.5 (2,400 instances of 2 to 16
# components) and about 1.1 at 200 and 400 components
_PATH_EVENTS_PER_COMPONENT = 10


def _kkt_matrix(lin, g2_ina):
    """[[lin, g2_ina^T], [g2_ina, 0]], filled by slices: np.block's bytes at less cost."""
    d0, size = lin.shape[0], lin.shape[0] + g2_ina.shape[0]
    kkt = np.zeros((size, size))
    kkt[:d0, :d0] = lin
    kkt[:d0, d0:] = g2_ina.T
    kkt[d0:, :d0] = g2_ina
    return kkt


def _skew_oracle(g1, g2, skew, c1, pd_mat, q, lam):
    """Exact solution path in the l1 weight, then an active-set polish.

    With a weight l in place of lam, the active pattern of G2 z (its nonzero
    components and their signs) is piecewise constant in l. On each piece
    the KKT unknowns [z; w_ina] are affine in l, so one linear solve with
    two right-hand sides gives the whole piece, as for the generalized lasso
    (Tibshirani & Taylor 2011). The path starts at l = 0 with every
    component active, at z = -lin^-1 rhs0. At each event an active
    component whose G2 z entry reaches 0 leaves, and an inactive component
    whose multiplier reaches +-l enters with that sign. A component changes
    only where it reaches a boundary while moving toward it, so one that
    just left cannot come back with its old sign at once but may re-enter
    with the opposite one. Once an event l0 leaves as many components
    inactive as z has entries, z = 0 for every l >= l0, and the path ends on
    the all-inactive pattern.

    The pattern at lam fixes a square linear KKT system whose solution is
    exact up to the linear solve and depends on the pattern alone; the
    polish solves it and rejects solutions whose active signs flip, whose
    active components come within 1e-6 of the kink, whose multipliers come
    within 1e-6 of lam, or whose stationarity residual exceeds 1e-10. With
    G2 taller than z the all-inactive system is singular; where its polish
    fails, the same checks pass or reject (0, c1, w2(l0)), whose multipliers
    the last piece gives at l0 with |w2| <= l0 < lam. A rejection, a
    singular system or a path of more than ``_PATH_EVENTS_PER_COMPONENT``
    events per component raises ``_OracleFailure``.
    """
    d0 = pd_mat.shape[0]
    lin = g1.T @ skew @ g1 + pd_mat
    rhs0 = g1.T @ c1 + q

    def polish(active, signs):
        g2_act, g2_ina = g2[active], g2[~active]
        n_ina = g2_ina.shape[0]
        rhs_top = -rhs0 - (lam * (g2_act.T @ signs) if active.any() else 0.0)
        w2 = np.empty(g2.shape[0])
        w2[active] = lam * signs
        try:
            if n_ina == 0:
                z = np.linalg.solve(lin, rhs_top)
            else:
                sol = np.linalg.solve(_kkt_matrix(lin, g2_ina),
                                      np.concatenate([rhs_top, np.zeros(n_ina)]))
                z, w2[~active] = sol[:d0], sol[d0:]
        except np.linalg.LinAlgError:
            raise _OracleFailure("singular active-set system")
        return checked(z, w2, active, signs)

    def checked(z, w2, active, signs):
        w1 = skew @ (g1 @ z) + c1
        s_final = g2 @ z
        if active.any() and not np.all(np.sign(s_final[active]) == signs):
            raise _OracleFailure("sign pattern flipped in polish")
        if active.any() and np.abs(s_final[active]).min() < 1e-6:
            raise _OracleFailure("active components too close to the kink")
        if not active.all() and lam - np.abs(w2[~active]).max() < 1e-6:
            raise _OracleFailure("complementarity margin too small")
        station = np.linalg.norm(g1.T @ w1 + g2.T @ w2 + pd_mat @ z + q)
        if station > 1e-10:
            raise _OracleFailure(f"stationarity residual {station:.2e}")
        return z, w1, w2

    # signs[j] is the sign of (G2 z)_j while j is active, and the sign it
    # would enter with while inactive
    signs = np.sign(g2 @ np.linalg.solve(lin, -rhs0))
    active = np.ones(g2.shape[0], dtype=bool)
    for _ in range(_PATH_EVENTS_PER_COMPONENT * active.size):
        ina = np.flatnonzero(~active)
        rhs = np.zeros((d0 + ina.size, 2))
        rhs[:d0, 0] = -rhs0
        rhs[:d0, 1] = -(g2[active].T @ signs[active])
        try:
            sol = np.linalg.solve(_kkt_matrix(lin, g2[ina]), rhs)
        except np.linalg.LinAlgError:
            raise _OracleFailure("singular path system")
        # on this piece G2 z and w_ina are a + l*b; each component changes
        # where it reaches its boundary while moving toward it
        s, w = g2 @ sol[:d0], sol[d0:]
        with np.errstate(divide="ignore", invalid="ignore"):
            hit = np.where(signs * s[:, 1] < 0.0, -s[:, 0] / s[:, 1], np.inf)
            up = np.where(w[:, 1] > 1.0, w[:, 0] / (1.0 - w[:, 1]), np.inf)
            down = np.where(w[:, 1] < -1.0, -w[:, 0] / (1.0 + w[:, 1]), np.inf)
        hit[ina] = np.minimum(up, down)
        signs[ina] = np.where(up <= down, 1.0, -1.0)
        j = int(np.argmin(hit))
        if not hit[j] < lam:
            break
        if active[j] and ina.size == d0 - 1:
            # d0 components are inactive from l0 = hit[j] on, so z = 0 there and
            # at every larger l. Where the all-inactive system is singular (G2
            # taller than z), this piece's multipliers at l0 certify lam instead
            none = np.zeros_like(active)
            try:
                return polish(none, signs[none])
            except _OracleFailure:
                w2 = hit[j] * signs
                w2[ina] = w[:, 0] + hit[j] * w[:, 1]
                return checked(np.zeros(d0), w2, none, signs[none])
        active[j] = not active[j]
    else:
        raise _OracleFailure("solution path did not reach lam")
    return polish(active, signs[active])


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def make_lasso(a_mat, b, lam: float) -> tuple[ProblemSpec, ReferenceSolution]:
    """l1-regularized least squares, min 0.5*||A z - b||^2 + lam*||z||_1.

    Two blocks: the residual map u -> u - b composed with A (forward) and
    the l1 subdifferential (backward). The oracle runs an independent
    proximal-gradient solver and, once a sign pattern has held for 10
    iterations, refines it by active-set corrections, solving the normal
    equations on each support, until the result checks out (at the latest
    at a 1e-10 gradient-map norm); the dual is recovered as w1 = A z* - b.
    Both run on the map's aligned copy of A. A linear-algebra failure in the
    oracle, as when the Gram matrix of data scaled by 1e160 overflows, is a
    :class:`~projsplit.errors.ConfigError`.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if lam <= 0:
        raise ConfigError(f"lasso weight must be > 0, got {lam}")
    m, d = a_mat.shape
    if b.shape[0] != m:
        raise ShapeError(f"target length {b.shape[0]} does not match {m} rows")
    t_res = shifted_identity(-b)
    t_reg = l1_subdifferential(lam, d)
    spec = ProblemSpec(
        name="lasso",
        maps=(LinearMap(a_mat),),
        operators=(t_res, t_reg),
        forward_blocks=frozenset({0}),
        z_init=Vec(np.zeros(d)),
        w_init=(Vec(np.zeros(m)),),
    )
    a_mat = spec.maps[0].matrix
    try:
        z_star = _lasso_oracle(a_mat, b, lam)
    except np.linalg.LinAlgError as exc:
        raise ConfigError(f"lasso oracle failed on this data ({exc}); its Gram matrix "
                          "may overflow at this scale") from exc
    w1 = a_mat @ z_star - b
    ref = ReferenceSolution(z=Vec(z_star), w=(Vec(w1),), accuracy=1e-8)
    return spec, _certify(spec, ref)


def make_box_cubic(c, lower, upper) -> tuple[ProblemSpec, ReferenceSolution]:
    """Componentwise cubic equation over a box: 0 in (z^3 - c) + N_[l,u](z).

    The cubic drift is continuous but not globally Lipschitz, exercising the
    linesearch; the box's normal cone is the backward block. Closed-form
    oracle: z* = clamp(cbrt(c)) with dual w1* = z*^3 - c.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    lo = np.asarray(lower, dtype=float).reshape(-1)
    hi = np.asarray(upper, dtype=float).reshape(-1)
    dim = c.shape[0]
    if lo.shape[0] != dim or hi.shape[0] != dim:
        raise ShapeError("bounds must match the dimension of c")
    t_drift = MonotoneOperator(dim, forward=lambda x: x ** 3 - c, name="cubic-drift")
    spec = ProblemSpec(
        name="box_cubic",
        maps=(LinearMap.identity(dim),),
        operators=(t_drift, box_normal_cone(lo, hi)),
        forward_blocks=frozenset({0}),
        z_init=Vec(np.zeros(dim)),
        w_init=(Vec(np.zeros(dim)),),
    )
    z_star = np.clip(np.cbrt(c), lo, hi)
    w1 = z_star ** 3 - c
    ref = ReferenceSolution(z=Vec(z_star), w=(Vec(w1),), accuracy=1e-10)
    return spec, _certify(spec, ref)


def make_signed_sqrt(c) -> tuple[ProblemSpec, ReferenceSolution]:
    """Strictly monotone scalar equations sign(z)*sqrt(|z|) + z = c.

    The drift is continuous everywhere but non-Lipschitz at 0, so for c = 0
    the solution sits exactly at the bad point and accepted stepsizes may
    decay without a uniform lower bound. It is 1-strongly monotone, the
    signed square root being monotone, and declares modulus 1. The
    trailing block is the zero operator. Closed-form oracle: t = sqrt(|z|)
    solves t^2 + t = |c|, so
    t = 2|c| / (1 + sqrt(1 + 4|c|)) and z* = sign(c) t^2 = sign(c) (|c| - t),
    taking the square for t < 1 and the difference otherwise; exactly 0 at
    c = 0.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    dim = c.shape[0]

    def drift(x):
        return np.sign(x) * np.sqrt(np.abs(x)) + x - c

    t_drift = MonotoneOperator(dim, forward=drift, name="signed-sqrt-drift", modulus=1.0)
    spec = ProblemSpec(
        name="signed_sqrt",
        maps=(LinearMap.identity(dim),),
        operators=(t_drift, zero_op(dim)),
        forward_blocks=frozenset({0}),
        z_init=Vec(np.ones(dim)),
        w_init=(Vec(np.zeros(dim)),),
    )
    # t = sqrt(|z|) solves t^2 + t = |c|; this root of it has no cancellation.
    # |z| = t^2 = |c| - t: the square keeps the precision of a small root, and
    # the difference keeps a large one within the float spacing of c, where
    # the square can miss the residual target by a few spacings
    t = 2.0 * np.abs(c) / (1.0 + np.sqrt(1.0 + 4.0 * np.abs(c)))
    roots = np.sign(c) * np.where(t < 1.0, t * t, np.abs(c) - t)
    w1 = drift(roots)
    ref = ReferenceSolution(z=Vec(roots), w=(Vec(w1),), accuracy=1e-10)
    return spec, _certify(spec, ref)


def make_skew_composed(seed: int, dims=(8, 6, 10),
                       lam: float = 1.0) -> tuple[ProblemSpec, ReferenceSolution]:
    """Three blocks with dense compositions and a skew forward block.

    T1(u) = K u + c1 with K skew (forward, composed through a dense G1),
    T2 the l1 subdifferential composed through a dense G2 (backward), and
    T3(z) = P z + q with P positive definite (backward), drawn from seed.
    The oracle follows the exact solution path in the l1 weight from 0 to
    lam and solves the KKT system of the active pattern it ends on
    (:func:`_skew_oracle`); if it fails, a ConfigError names seed and dims.
    """
    d0, d1, d2 = dims
    rng = np.random.default_rng([seed, 613])
    g1 = rng.standard_normal((d1, d0)) / np.sqrt(d0)
    g2 = rng.standard_normal((d2, d0)) / np.sqrt(d0)
    raw = rng.standard_normal((d1, d1)) / np.sqrt(d1)
    skew = raw - raw.T
    c1 = rng.standard_normal(d1)
    root = rng.standard_normal((d0, d0)) / np.sqrt(d0)
    pd_mat = root.T @ root + np.eye(d0)
    q = rng.standard_normal(d0)
    try:
        z, w1, w2 = _skew_oracle(g1, g2, skew, c1, pd_mat, q, lam)
    except _OracleFailure as exc:
        raise ConfigError(f"skew oracle failed on seed {seed}, dims {dims}: {exc}") from None
    spec = ProblemSpec(
        name="skew_composed",
        maps=(LinearMap(g1), LinearMap(g2)),
        operators=(affine_monotone(skew, c1), l1_subdifferential(lam, d2),
                   affine_monotone(pd_mat, q)),
        forward_blocks=frozenset({0}),
        z_init=Vec(np.zeros(d0)),
        w_init=(Vec(np.zeros(d1)), Vec(np.zeros(d2))),
    )
    ref = ReferenceSolution(z=Vec(z), w=(Vec(w1), Vec(w2)), accuracy=1e-8)
    return spec, _certify(spec, ref)


# ---------------------------------------------------------------------------
# registry for configuration-driven construction
# ---------------------------------------------------------------------------

def _integer(name: str, value, lo: int = 1) -> int:
    """A problem parameter that must be an integer >= lo; ConfigError naming it otherwise."""
    return checked_integer(f"problem parameter '{name}'", value, lo)


def _real(name: str, value, *, positive: bool = False) -> float:
    """A problem parameter that must be a finite number (> 0 if ``positive``)."""
    return checked_real(f"problem parameter '{name}'", value, positive=positive)


def _build_lasso(params):
    seed = _integer("seed", params.pop("seed", 0), lo=0)
    m = _integer("m", params.pop("m", 20))
    d = _integer("d", params.pop("d", 50))
    lam_factor = _real("lam_factor", params.pop("lam_factor", 0.1), positive=True)
    rng = np.random.default_rng([seed, 101])
    a_mat = rng.standard_normal((m, d))
    b = rng.standard_normal(m)
    lam = lam_factor * float(np.abs(a_mat.T @ b).max())
    return make_lasso(a_mat, b, lam)


def _build_box_cubic(params):
    seed = _integer("seed", params.pop("seed", 7), lo=0)
    dim = _integer("dim", params.pop("dim", 3))
    rng = np.random.default_rng([seed, 202])
    c = rng.uniform(-9.0, 9.0, dim)
    return make_box_cubic(c, -np.ones(dim), np.ones(dim))


def _build_signed_sqrt(params):
    c = params.pop("c", 0.0)
    if isinstance(c, (list, tuple)):
        dim = _integer("dim", params.pop("dim", len(c)))
        if len(c) != dim:
            raise ConfigError(f"problem parameter 'c' has {len(c)} entries but dim is {dim}")
        c_arr = np.array([_real(f"c[{j}]", cj) for j, cj in enumerate(c)])
    else:
        dim = _integer("dim", params.pop("dim", 4))
        c_arr = np.full(dim, _real("c", c))
    return make_signed_sqrt(c_arr)


def _build_skew_composed(params):
    seed = _integer("seed", params.pop("seed", 1234), lo=0)
    dims = params.pop("dims", (8, 6, 10))
    if not isinstance(dims, (list, tuple)) or len(dims) != 3:
        raise ConfigError(f"problem parameter 'dims' must be a list of 3 positive integers, "
                          f"got {dims!r}")
    dims = tuple(_integer(f"dims[{j}]", v) for j, v in enumerate(dims))
    lam = _real("lam", params.pop("lam", 1.0), positive=True)
    return make_skew_composed(seed, dims, lam)


PROBLEMS = {
    "lasso": (_build_lasso, "seeded m x d lasso; params: seed, m, d, lam_factor"),
    "box_cubic": (_build_box_cubic, "cubic drift over a box; params: seed, dim"),
    "signed_sqrt": (_build_signed_sqrt, "non-Lipschitz drift; params: dim, c"),
    "skew_composed": (_build_skew_composed,
                      "3 blocks, dense maps, skew forward block; params: seed, dims, lam"),
}


def build(kind: str, params: Mapping | None = None) -> tuple[ProblemSpec, ReferenceSolution]:
    """Construct a registered instance from configuration parameters.

    The optional ``forward_blocks`` parameter (1-based block indices)
    overrides the default forward/backward partition. Any other
    ``ValueError`` (a :class:`~projsplit.errors.ShapeError` or NaN/Inf
    included) or ``MemoryError`` met while building, such as an oracle that
    overflows or an array too large to allocate at extreme parameters, is a
    :class:`~projsplit.errors.ConfigError` naming the problem.
    """
    if kind not in PROBLEMS:
        raise ConfigError(f"unknown problem kind {kind!r}; known: {sorted(PROBLEMS)}")
    params = dict(params or {})
    partition = params.pop("forward_blocks", None)
    builder, _ = PROBLEMS[kind]
    try:
        spec, ref = builder(params)
    except ConfigError:
        raise
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"problem '{kind}' cannot be built from these parameters: "
                          f"{str(exc) or type(exc).__name__}") from exc
    if params:
        raise ConfigError(f"unknown parameter(s) for problem '{kind}': {sorted(params)}")
    if partition is not None:
        if not isinstance(partition, (list, tuple)):
            raise ConfigError(f"problem parameter 'forward_blocks' must be a list of block "
                              f"numbers, got {partition!r}")
        spec = spec.with_partition([_integer("forward_blocks", i) - 1 for i in partition])
    return spec, ref
