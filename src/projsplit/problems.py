"""Built-in problem instances with independent reference oracles.

Each instance couples blocks through the pattern

    find z:  0 in sum_i G_i* T_i(G_i z) + T_n(z),

and ships a reference solution produced by a solver that shares no code
with the engine (proximal gradient, bisection, or a smoothed Newton
active-set solve). A reference pair (z*, w*) is certified through
:func:`kkt_residual` before it is returned, so downstream tests can trust
it as an oracle. The four instances cover the regimes of interest:
prox-only blocks, a Lipschitz forward block under composition, two
merely-continuous forward blocks (one non-Lipschitz at its solution), and
a three-block problem with dense compositions and a skew forward block.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .errors import ConfigError, ShapeError, checked_integer, checked_real
from .linalg import LinearMap, PrimalDualPoint, Vec, derived_wn
from .operators import (MonotoneOperator, affine_monotone, box_normal_cone, forward_eval,
                        l1_subdifferential, prox_eval, shifted_identity, zero_op)


@dataclass(frozen=True)
class ProblemSpec:
    """A concrete instance: operators T_1..T_n, maps G_1..G_{n-1}, partition.

    The last block always acts on the primal space through the identity.
    ``forward_blocks`` holds the 0-based indices updated by forward steps;
    all remaining blocks are updated through their resolvents. The spec is
    validated when built: mismatched maps, operators, initial point or
    partition raise a :class:`~projsplit.errors.ConfigError`.
    """

    name: str
    maps: tuple[LinearMap, ...]
    operators: tuple[MonotoneOperator, ...]
    forward_blocks: frozenset[int]
    z_init: Vec
    w_init: tuple[Vec, ...]
    params: Mapping = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.operators)

    @property
    def dim(self) -> int:
        """The dimension of the primal space."""
        return len(self.z_init.entries)

    def identity_map(self) -> LinearMap:
        return LinearMap.identity(self.dim)

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
        return replace(self, forward_blocks=frozenset(forward_blocks))


@dataclass(frozen=True)
class ReferenceSolution:
    """An oracle-produced point of the extended solution set."""

    z: Vec
    w: tuple[Vec, ...]
    provenance: str
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
    wn = derived_wn(PrimalDualPoint(z, w), spec.maps)
    worst = 0.0
    ident = spec.identity_map()
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
_POLISH_WINDOW = 50


def _support_polish(a_mat, b, lam, z):
    """Lasso solution on the support and signs of z, or None if it fails.

    Solves the normal equations on the support with the signs fixed and
    keeps the result only when its signs match on the support and every
    off-support dual satisfies |A^T(A z - b)| <= lam*(1 - 1e-10). The
    result depends on the support and its signs alone.
    """
    support = np.abs(z) > 1e-12
    if not support.any():
        return None
    signs = np.sign(z[support])
    a_s = a_mat[:, support]
    try:
        z_s = np.linalg.solve(a_s.T @ a_s, a_s.T @ b - lam * signs)
    except np.linalg.LinAlgError:
        return None
    polished = np.zeros(z.shape[0])
    polished[support] = z_s
    off_dual = a_mat.T @ (a_mat @ polished - b)
    if (np.all(np.sign(polished[support]) == signs)
            and np.all(np.abs(off_dual[~support]) <= lam * (1.0 - 1e-10))):
        return polished
    return None


def _lasso_oracle(a_mat, b, lam, tol=1e-10, max_iters=500_000):
    """Accelerated proximal gradient with restart and a support polish.

    Whenever the proximal iterate's sign pattern has held for
    ``_POLISH_WINDOW`` consecutive iterations and has not been tried
    before, :func:`_support_polish` is attempted on it, and the first
    polish that passes is returned. Otherwise the iteration runs to a
    ``tol`` gradient-map norm and polishes once more, returning the
    unpolished iterate if that polish fails. A passing polish is exact up
    to the linear solve and depends only on the pattern, so when the
    pattern at ``tol`` is the one that passed early, stopping early returns
    the same bits.
    """
    d = a_mat.shape[1]
    lip = np.linalg.norm(a_mat, 2) ** 2
    if lip == 0.0:
        return np.zeros(d)
    t = 1.0 / lip
    z = np.zeros(d)
    z_old = z.copy()
    theta = 1.0
    pattern, held, tried = None, 0, set()
    for _ in range(max_iters):
        grad = a_mat.T @ (a_mat @ z - b)
        z_new = _soft(z - t * grad, t * lam)
        if np.linalg.norm((z - z_new) / t) <= tol:
            z = z_new
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
    else:
        raise ConfigError("lasso oracle did not reach its gradient-map tolerance")
    polished = _support_polish(a_mat, b, lam, z)
    return z if polished is None else polished


def _bisect_increasing(fn, lo, hi, max_iters=200):
    """Root of a strictly increasing scalar function, to float collapse."""
    flo, fhi = fn(lo), fn(hi)
    if flo > 0 or fhi < 0:
        raise ConfigError("bisection bracket does not straddle the root")
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if fmid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


class _OracleFailure(Exception):
    pass


def _skew_oracle(g1, g2, skew, c1, pd_mat, q, lam):
    """Smoothed damped-Newton solve followed by an active-set polish.

    The l1 term is smoothed (Huber gradient) on a decreasing scale to find
    the active pattern of G2 z; the pattern then fixes a square linear KKT
    system whose solution is exact up to the linear solve. Degenerate
    patterns (tiny complementarity margins, sign flips) are rejected so the
    caller can retry with another seed.
    """
    d0 = pd_mat.shape[0]
    lin = g1.T @ skew @ g1 + pd_mat
    rhs0 = g1.T @ c1 + q
    z = np.zeros(d0)

    def residual(zz, mu):
        s = g2 @ zz
        grad_h = np.where(np.abs(s) <= mu, s / mu, np.sign(s))
        return lin @ zz + rhs0 + lam * (g2.T @ grad_h)

    for mu in (1e-1, 1e-3, 1e-6, 1e-9):
        for _ in range(100):
            s = g2 @ z
            f_val = residual(z, mu)
            nf = np.linalg.norm(f_val)
            if nf <= 1e-12:
                break
            weights = np.where(np.abs(s) <= mu, 1.0 / mu, 0.0)
            jac = lin + lam * g2.T @ (weights[:, None] * g2)
            try:
                step = np.linalg.solve(jac, f_val)
            except np.linalg.LinAlgError:
                raise _OracleFailure("singular smoothed Jacobian")
            eta = 1.0
            z_next = z - step
            while eta > 1e-8 and np.linalg.norm(residual(z_next, mu)) > (1 - 0.5 * eta) * nf:
                eta *= 0.5
                z_next = z - eta * step
            z = z_next

    s = g2 @ z
    active = np.abs(s) > 1e-7
    signs = np.sign(s[active])
    g2_act, g2_ina = g2[active], g2[~active]
    n_ina = g2_ina.shape[0]
    rhs_top = -rhs0 - (lam * (g2_act.T @ signs) if active.any() else 0.0)
    try:
        if n_ina == 0:
            z = np.linalg.solve(lin, rhs_top)
            w_ina = np.zeros(0)
        else:
            kkt = np.block([[lin, g2_ina.T], [g2_ina, np.zeros((n_ina, n_ina))]])
            sol = np.linalg.solve(kkt, np.concatenate([rhs_top, np.zeros(n_ina)]))
            z, w_ina = sol[:d0], sol[d0:]
    except np.linalg.LinAlgError:
        raise _OracleFailure("singular active-set system")

    w2 = np.empty(g2.shape[0])
    w2[active] = lam * signs
    w2[~active] = w_ina
    w1 = skew @ (g1 @ z) + c1

    s_final = g2 @ z
    if active.any() and not np.all(np.sign(s_final[active]) == signs):
        raise _OracleFailure("sign pattern flipped in polish")
    if active.any() and np.abs(s_final[active]).min() < 1e-6:
        raise _OracleFailure("active components too close to the kink")
    if n_ina and lam - np.abs(w_ina).max() < 1e-6:
        raise _OracleFailure("complementarity margin too small")
    station = np.linalg.norm(g1.T @ w1 + g2.T @ w2 + pd_mat @ z + q)
    if station > 1e-10:
        raise _OracleFailure(f"stationarity residual {station:.2e}")
    return z, w1, w2


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def make_lasso(a_mat, b, lam: float) -> tuple[ProblemSpec, ReferenceSolution]:
    """l1-regularized least squares, min 0.5*||A z - b||^2 + lam*||z||_1.

    Two blocks: the residual map u -> u - b composed with A (forward) and
    the l1 subdifferential (backward). The oracle runs an independent
    proximal-gradient solver and solves the normal equations on the support
    it identifies, as soon as a sign pattern has held for 50 iterations and
    the result checks out (at the latest at a 1e-10 gradient-map norm); the
    dual is recovered as w1 = A z* - b.
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
        params={"m": m, "d": d, "lam": lam},
    )
    z_star = _lasso_oracle(a_mat, b, lam)
    w1 = a_mat @ z_star - b
    ref = ReferenceSolution(z=Vec(z_star), w=(Vec(w1),),
                            provenance="proximal gradient + support polish once the signs settle",
                            accuracy=1e-8)
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
        params={"dim": dim},
    )
    z_star = np.clip(np.cbrt(c), lo, hi)
    w1 = z_star ** 3 - c
    ref = ReferenceSolution(z=Vec(z_star), w=(Vec(w1),),
                            provenance="componentwise clamped cube root", accuracy=1e-10)
    return spec, _certify(spec, ref)


def make_signed_sqrt(c) -> tuple[ProblemSpec, ReferenceSolution]:
    """Strictly monotone scalar equations sign(z)*sqrt(|z|) + z = c.

    The drift is continuous everywhere but non-Lipschitz at 0, so for c = 0
    the solution sits exactly at the bad point and accepted stepsizes may
    decay without a uniform lower bound. The trailing block is the zero
    operator. Oracle: componentwise bisection run to floating-point
    collapse (well inside 1e-12).
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    dim = c.shape[0]

    def drift(x):
        return np.sign(x) * np.sqrt(np.abs(x)) + x - c

    t_drift = MonotoneOperator(dim, forward=drift, name="signed-sqrt-drift")
    spec = ProblemSpec(
        name="signed_sqrt",
        maps=(LinearMap.identity(dim),),
        operators=(t_drift, zero_op(dim)),
        forward_blocks=frozenset({0}),
        z_init=Vec(np.ones(dim)),
        w_init=(Vec(np.zeros(dim)),),
        params={"dim": dim},
    )
    roots = np.array([
        _bisect_increasing(lambda t, cj=cj: np.sign(t) * np.sqrt(abs(t)) + t - cj,
                           min(0.0, cj) - 1.0, max(0.0, cj) + 1.0)
        for cj in c
    ])
    w1 = drift(roots)
    ref = ReferenceSolution(z=Vec(roots), w=(Vec(w1),),
                            provenance="componentwise bisection", accuracy=1e-10)
    return spec, _certify(spec, ref)


# seeds make_skew_composed tries before it gives up on an instance
_SKEW_SEED_TRIES = 8


def make_skew_composed(seed: int, dims=(8, 6, 10), lam: float = 1.0, *,
                       skew_scale: float = 1.0, shift_scale: float = 1.0,
                       identity_maps: bool = False) -> tuple[ProblemSpec, ReferenceSolution]:
    """Three blocks with dense compositions and a skew forward block.

    T1(u) = K u + c1 with K skew (forward, composed through a dense G1),
    T2 the l1 subdifferential composed through a dense G2 (backward), and
    T3(z) = P z + q with P positive definite (backward). Seeds producing
    degenerate active patterns are retried with the next seed, up to
    ``_SKEW_SEED_TRIES`` seeds in all.
    """
    d0, d1, d2 = dims
    if identity_maps and not (d0 == d1 == d2):
        raise ConfigError("identity maps require equal dimensions")
    last_err = None
    for attempt in range(_SKEW_SEED_TRIES):
        use_seed = seed + attempt
        rng = np.random.default_rng([use_seed, 613])
        g1 = np.eye(d0) if identity_maps else rng.standard_normal((d1, d0)) / np.sqrt(d0)
        g2 = np.eye(d0) if identity_maps else rng.standard_normal((d2, d0)) / np.sqrt(d0)
        raw = rng.standard_normal((d1, d1)) / np.sqrt(d1)
        skew = skew_scale * (raw - raw.T)
        c1 = shift_scale * rng.standard_normal(d1)
        root = rng.standard_normal((d0, d0)) / np.sqrt(d0)
        pd_mat = root.T @ root + np.eye(d0)
        q = rng.standard_normal(d0)
        try:
            z, w1, w2 = _skew_oracle(g1, g2, skew, c1, pd_mat, q, lam)
        except _OracleFailure as exc:
            last_err = exc
            continue
        spec = ProblemSpec(
            name="skew_composed",
            maps=(LinearMap(g1), LinearMap(g2)),
            operators=(affine_monotone(skew, c1), l1_subdifferential(lam, d2),
                       affine_monotone(pd_mat, q)),
            forward_blocks=frozenset({0}),
            z_init=Vec(np.zeros(d0)),
            w_init=(Vec(np.zeros(d1)), Vec(np.zeros(d2))),
            params={"seed": use_seed, "dims": tuple(dims), "lam": lam},
        )
        ref = ReferenceSolution(z=Vec(z), w=(Vec(w1), Vec(w2)),
                                provenance="smoothed Newton + active-set polish",
                                accuracy=1e-8)
        return spec, _certify(spec, ref)
    raise ConfigError(f"no well-posed instance within {_SKEW_SEED_TRIES} seeds "
                      f"starting at {seed}: {last_err}")


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
    overrides the default forward/backward partition. A
    :class:`~projsplit.errors.ShapeError` (a NaN/Inf included) met while
    building, such as an oracle that overflows at extreme parameters, is a
    :class:`~projsplit.errors.ConfigError` naming the problem.
    """
    if kind not in PROBLEMS:
        raise ConfigError(f"unknown problem kind {kind!r}; known: {sorted(PROBLEMS)}")
    params = dict(params or {})
    partition = params.pop("forward_blocks", None)
    builder, _ = PROBLEMS[kind]
    try:
        spec, ref = builder(params)
    except ShapeError as exc:
        raise ConfigError(f"problem '{kind}' cannot be built from these parameters: "
                          f"{exc}") from exc
    if params:
        raise ConfigError(f"unknown parameter(s) for problem '{kind}': {sorted(params)}")
    if partition is not None:
        if not isinstance(partition, (list, tuple)):
            raise ConfigError(f"problem parameter 'forward_blocks' must be a list of block "
                              f"numbers, got {partition!r}")
        spec = spec.with_partition([_integer("forward_blocks", i) - 1 for i in partition])
    return spec, ref
