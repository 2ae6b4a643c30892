"""Core iteration: block updates, separator assembly, projection, termination.

Each outer iteration processes a scheduled subset of blocks. Prox-capable
blocks take a resolvent step at a (possibly stale, possibly perturbed)
input; forward blocks take two operator evaluations per linesearch trial,

    x~ = theta - rho*(T(theta) - w),    theta = G z,

shrinking rho geometrically until the accepted-slope test

    delta*||theta - x~||^2 - <theta - x~, T(x~) - w> <= 0

holds. A trial whose T(x~) is NaN/Inf fails too: under continuity it only
means the step was too long. An exactly zero drift T(theta) - w is accepted
with no trial: the first trial would pass at x~ = theta.

The linesearch is warm-started. A forward block's search begins at

    rho_start = min(rho_init, rho_prev/nu),

one shrink factor above the stepsize the block accepted last time, so an
iteration does not repeat the trials its predecessor already failed. Every
trial stepsize stays bounded above by rho_init, which is all the
convergence theory asks of them. The first search begins at rho_init,
since initial block states carry rho = rho_init.

Trials that monotonicity proves must fail are skipped. For an operator with
strong-monotonicity modulus mu >= 0 (``MonotoneOperator.modulus``; 0 for a
merely monotone one), x~ = theta - rho*d with d = T(theta) - w gives

    <theta - x~, T(x~) - w> = rho*||d||^2 - <theta - x~, T(theta) - T(x~)>
                            <= rho*(1 - mu*rho)*||d||^2,

so the slope test, which asks for at least delta*rho^2*||d||^2, fails at
every rho with rho*(delta + mu) > 1. The search shrinks rho_start by nu
while rho*(delta + mu) > 1 + 1e-9, evaluating and counting none of those
trials; the margin keeps rounding at the bound from dropping a trial the
test could pass. The trial sequence stays rho_start*nu^j and only its
provably failing prefix goes unevaluated, so every accepted stepsize is
the one a search through all of them would accept. The bound needs no
Lipschitz constant; it is the converse of the 1/(L + delta) acceptance
bound of Johnstone & Eckstein (arXiv:1803.07043).

A backward block's prox-error search is warm-started too. Under
``seeded-random`` errors a draw is tried at the scales magnitude * 2^-k
for k = k0, k0 + 1, ... up to an absolute floor of 50 scales (see
:class:`~projsplit.operators.ErrorPolicy`). The search begins at k0 =
h_prev, the index the block accepted last time (kept in its state as
``halvings``). The admissible error shrinks as the run converges, so
without the warm start most resolvent evaluations would be rejected
halvings; with it, an update costs one resolvent evaluation whenever the
last accepted scale is admissible again. A zero fallback stores index 0,
so the next search starts at magnitude again. A block whose policy
injects nothing evaluates its resolvent once per update.

The block results define an affine separator that is nonpositive on the
solution set; the iterate is then projected onto its zero hyperplane,
scaled by the overrelaxation factor beta. The loop stops on small
residuals, on an exactly-zero separator gradient (which certifies the
block values as a solution), or on the iteration budget. A run ends with
the status ``assumption-violation`` when a linesearch exhausts its trial
budget (its message tells a slope test that overflowed at finite trial
values from a possibly discontinuous operator), when an operator
returns NaN/Inf at G z or from a prox, when it returns a wrong-shaped
value, or when NaN/Inf reaches the separator or the projection.

Operator outputs are checked once, where they enter the iteration. The
forward linesearch calls an operator's callable itself, on read-only
arrays, and checks the shape of each output. It reads finiteness off dot
products it forms anyway: <drift, drift> at G z and the slope
<theta - x~, T(x~) - w> in a trial. A NaN/Inf entry makes them non-finite,
and only then are the entries checked one by one. Resolvent outputs are
checked by :func:`~projsplit.operators.prox_eval`, and the projection
checks the new iterate.

The engine computes only what the iteration needs. A block's residuals come
from arrays its update formed, and the iteration applies no identity map
(``matrix`` None): G z is z and G* y is y. The identities that verify the
iteration (update equations, gradient norm, error admissibility) are
checked by :class:`projsplit.checks.InvariantMonitor` from the inputs each
:class:`BlockState` keeps and from :attr:`Engine.separator`.

The iterate is a ``(z, w)`` pair: ``z`` a read-only float64 array and ``w``
a tuple of them, one per dual block (:attr:`Engine.iterate`). Block
updates, the separator and the projection work on those arrays. Each map
product is formed once per value. The engine forms G_i z for every block
and w_n = -sum_i G_i* w_i once per iterate it reaches, as the entry
``(G z, w, w_n)`` of :meth:`Engine.entry`; the updates that read that
iterate, the residuals and an invariant monitor use them, and the history
keeps the entry for stale reads (G z holds one read-only array per block,
the last block's being z itself). The block updates take
G z and apply no map. The separator keeps G_i x_n while the last block's
state is unchanged and G_i* y_i while block i's is
(:class:`SeparatorProducts`).
Each iteration writes its diagnostics as one float row and one integer row
of :class:`IterationRecords`, a read-only sequence that builds an
:class:`IterationRecord` named tuple on access; a run's callback receives
one built by the same function from the two rows the step wrote. A
:class:`~projsplit.linalg.PrimalDualPoint` is built only for callers:
:attr:`Engine.point` builds one from the iterate at each read, and a run
builds its final point once and returns it, and its solution, as points.
Under a ``full`` schedule every block is selected at every iteration, and
under zero delay every read is of the current iterate; the loop then skips
block selection, delay draws and the history.

The configs and the problem are validated when built and hold no run state:
under ``seeded-random`` prox errors, an engine seeds its own error generator
from the policy's seed.
"""

from __future__ import annotations

import math
import operator
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import (AssumptionViolationError, BacktrackLimitError, CapabilityError, ConfigError,
                     NonFiniteError, ShapeError, checked_integer, checked_real)
# derived_wn, gamma_norm, error_inequality_gaps, forward_eval: unused here, but
# perfbench/tracing.py wraps them here
from .linalg import (PrimalDualPoint, Vec, checked_entries, derived_wn, dual_sum,  # noqa: F401
                     gamma_norm)
from .operators import ErrorPolicy, error_inequality_gaps, forward_eval, inject_error  # noqa: F401
from .scheduler import HistoryBuffer, SchedulePolicy, delayed_index, select_blocks


@dataclass(frozen=True)
class EngineConfig:
    """Solver parameters, validated when built.

    gamma weighs the primal block in the product-space metric. beta in
    (0, 2) is the projection overrelaxation, the same at every iteration.
    nu in (0,1) is the linesearch shrink factor and delta > 0 its
    acceptance threshold. rho_init (scalar or per-block, each finite and
    positive, kept as a float or a tuple of floats) is a backward block's
    prox stepsize. For a forward block it caps every linesearch trial: the
    search starts at min(rho_init, rho_prev/nu), where rho_prev is the
    block's last accepted stepsize (rho_init before its first update). Its
    first evaluated trial is the largest of start*nu^j, j >= 0, with
    rho*(delta + mu) <= 1 + 1e-9, mu being the operator's modulus: the
    larger ones must fail (see the module docstring).
    Real fields must be finite numbers and max_backtracks/max_iters
    integers (booleans rejected); a bad field is a
    :class:`~projsplit.errors.ConfigError` naming it. The constant
    pi_zero_eps (below which pi counts as exactly zero) is a float-noise
    threshold, not a parameter. The constant quickstop_eps, a relative
    immediate-accept tolerance, is not read by the engine, which accepts
    with no trial only an exactly zero drift; the benchmark's numpy
    baseline reads it.
    """

    gamma: float = 1.0
    beta: float = 1.0
    nu: float = 0.5
    delta: float = 1.0
    max_backtracks: int = 200
    rho_init: float | tuple = 1.0
    tol_primal: float = 1e-6
    tol_dual: float = 1e-6
    max_iters: int = 10000

    quickstop_eps: ClassVar[float] = 1e-14
    pi_zero_eps: ClassVar[float] = 1e-24

    def __post_init__(self):
        for name in ("gamma", "delta", "tol_primal", "tol_dual"):
            checked_real(name, getattr(self, name), positive=True)
        if not 0 < checked_real("beta", self.beta) < 2:
            raise ConfigError(f"beta must lie in (0, 2), got {self.beta}")
        if not 0 < checked_real("nu", self.nu) < 1:
            raise ConfigError(f"nu must lie in (0, 1), got {self.nu}")
        checked_integer("max_backtracks", self.max_backtracks)
        checked_integer("max_iters", self.max_iters, lo=0)
        rho = self.rho_init
        if isinstance(rho, np.ndarray) and rho.ndim == 0:
            rho = rho.item()
        if isinstance(rho, (tuple, list, np.ndarray)):
            rho = tuple(checked_real("rho_init", r, positive=True) for r in rho)
        else:
            rho = checked_real("rho_init", rho, positive=True)
        if type(self.rho_init) is not float:
            object.__setattr__(self, "rho_init", rho)

    def resolve_rho(self, n: int) -> tuple[float, ...]:
        """One stepsize per block; a per-block rho_init must have n entries."""
        rho = self.rho_init if type(self.rho_init) is tuple else (self.rho_init,)
        if len(rho) == 1:
            return rho * n
        if len(rho) != n:
            raise ConfigError(f"rho_init must be scalar or length {n}, got length {len(rho)}")
        return rho


class BlockState(NamedTuple):
    """Result of a block update: (x, y) with y in T(x), plus its inputs.

    ``theta`` = G z and ``w`` are the (possibly stale) iterate values the
    update read. A forward update also keeps ``drift`` = T(theta) - w, a
    backward update the accepted prox-input error ``error``. The invariant
    monitor verifies the update equations from all four. ``residuals`` is
    the pair (||theta - x||, ||y - w||), formed from the arrays the update
    computed anyway; the engine records it when the update read the current
    iterate. Initial states leave these fields None. ``halvings`` is the
    scale index of a backward update's error (u * magnitude * 2^-halvings
    for a unit direction u; 0 for a zero error), at which the block's next
    error search starts; it is 0 for other states. A state is never
    changed once made, so the separator reuses the map products of a block
    whose state is the same object.
    """

    x: np.ndarray
    y: np.ndarray
    rho: float
    halvings: int = 0
    backtracks: int = 0
    theta: np.ndarray | None = None
    w: np.ndarray | None = None
    drift: np.ndarray | None = None
    error: np.ndarray | None = None
    residuals: tuple[float, float] | None = None


class SeparatorEval(NamedTuple):
    """One iteration's affine separator: offsets u_i, v, its gradient norm
    pi, the value at the current point, and the resulting steplength."""

    u: tuple[np.ndarray, ...]
    v: np.ndarray
    pi: float
    phi_at_p: float
    alpha: float


class IterationRecord(NamedTuple):
    """Diagnostics for one outer iteration.

    The per-iteration identities are not recorded: the invariant monitor
    checks them from the engine's state when it rides along the run.
    """

    iteration: int
    phi: float
    pi: float
    alpha: float
    selected: tuple[int, ...]
    delays: tuple[int, ...]
    primal_residuals: tuple[float, ...]
    dual_residuals: tuple[float, ...]
    max_primal_residual: float
    max_dual_residual: float
    backtracks: tuple[int, ...]
    stepsizes: tuple[float, ...]
    projected: bool


def _record_from_rows(floats, ints, n: int) -> IterationRecord:
    """The :class:`IterationRecord` of one float row and one integer row of n blocks.

    The float row is phi, pi, alpha, the two largest residuals, then per
    block the primal residuals, the dual residuals and the stepsizes. The
    integer row is the iteration, the projected flag, then per block the
    iterate the block read (-1 when it was not selected, which also gives
    ``selected`` and ``delays``) and its backtracks.
    """
    reads = ints[2:2 + n]
    selected = tuple([i for i in range(n) if reads[i] >= 0])
    return IterationRecord(
        ints[0], floats[0], floats[1], floats[2], selected,
        tuple([reads[i] for i in selected]), tuple(floats[5:5 + n]),
        tuple(floats[5 + n:5 + 2 * n]), floats[3], floats[4], tuple(ints[2 + n:]),
        tuple(floats[5 + 2 * n:]), bool(ints[1]))


class IterationRecords(Sequence):
    """The records of a run as typed rows: a read-only sequence of :class:`IterationRecord`.

    Each iteration appends a float row of 5 + 3n entries and an integer row
    of 2 + 2n entries, laid out as :func:`_record_from_rows` reads them. That
    is 8*(7 + 5n) bytes an iteration; a named tuple with its tuples and
    floats kept 650 to 810 bytes an iteration.

    Indexing, slices, iteration, ``len``, ``==`` with a list of records and
    ``repr`` behave as on that list; a record is built when it is read.
    The engine extends the rows, so its :attr:`Engine.records` grows with
    the run, while :meth:`view` gives the rows written so far and stays
    that length.
    """

    def __init__(self, n: int):
        self.n = n
        self._stop = None
        self._float_width, self._int_width = 5 + 3 * n, 2 + 2 * n
        self.floats, self.ints = array("d"), array("q")

    def view(self) -> IterationRecords:
        """The rows written so far, as a sequence that later rows do not extend."""
        bounded = object.__new__(type(self))
        bounded.__dict__.update(self.__dict__)  # shares the rows
        bounded._stop = len(self)
        return bounded

    def __len__(self) -> int:
        return len(self.ints) // self._int_width if self._stop is None else self._stop

    def _row(self, j: int) -> IterationRecord:
        fw, iw = self._float_width, self._int_width
        return _record_from_rows(self.floats[j * fw:j * fw + fw], self.ints[j * iw:j * iw + iw],
                                self.n)

    def __getitem__(self, index):
        size = len(self)
        if isinstance(index, slice):
            return [self._row(j) for j in range(*index.indices(size))]
        j = operator.index(index)
        if j < 0:
            j += size
        if not 0 <= j < size:
            raise IndexError("record index out of range")
        return self._row(j)

    def __iter__(self):
        return map(self._row, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (list, IterationRecords)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class RunTrace:
    """Full record of a solver run.

    ``records`` holds one :class:`IterationRecord` per iteration the run's
    engine had recorded when the run ended, as a bounded view of the
    engine's :class:`IterationRecords`: a later run of the same engine does
    not extend it.
    """

    status: str  # "converged" | "exact-termination" | "budget" | "assumption-violation"
    iterations: int
    records: IterationRecords
    solution: PrimalDualPoint | None
    final_point: PrimalDualPoint
    message: str = ""
    wall_time: float = 0.0

    @property
    def max_primal_residual(self) -> float:
        return self.records[-1].max_primal_residual if self.records else float("inf")

    @property
    def max_dual_residual(self) -> float:
        return self.records[-1].max_dual_residual if self.records else float("inf")


# ---------------------------------------------------------------------------
# block updates
# ---------------------------------------------------------------------------

def backward_update(op, theta: np.ndarray, w_delayed: np.ndarray, rho: float,
                    error_policy: ErrorPolicy, rng: np.random.Generator | None,
                    start: int = 0) -> BlockState:
    """Resolvent step of ``op`` at theta + rho*w + e, an admissible error e drawn from ``rng``.

    ``theta`` is G z at the (possibly stale) iterate the block reads; the
    update applies no map. The error search begins at scale index ``start``
    (see :func:`~projsplit.operators.inject_error`); the state keeps the
    accepted index as ``halvings``, and the engine starts the block's next
    search there.
    """
    base = theta + rho * w_delayed
    base.setflags(write=False)
    e, (x, y), k = inject_error(error_policy, rng, base, op, rho, theta, w_delayed, start)
    r, s = theta - x, y - w_delayed
    return BlockState(x, y, rho, k, 0, theta, w_delayed, None, e,
                      (math.sqrt(r.dot(r)), math.sqrt(s.dot(s))))


_FLOAT = np.dtype(float)
# a trial with rho*(delta + modulus) above this fails the slope test
_SKIP_BOUND = 1.0 + 1e-9


def forward_update_with_backtrack(op, theta: np.ndarray, w_delayed: np.ndarray,
                                  rho_init: float, config: EngineConfig) -> BlockState:
    """Two-evaluation step of the forward operator ``op``, backtracking from ``theta`` = G z.

    If the drift T(G z) - w has norm exactly 0.0 (every entry zero, or too
    small for its square to be a float) the pair is accepted immediately
    with the initial stepsize and a count of zero (the first trial would
    pass at x~ = theta). Otherwise the stepsize shrinks from rho_init by nu,
    unevaluated, while rho*(delta + modulus) > 1 + 1e-9 (such a trial must
    fail; see the module docstring), and trials j = 1, 2, ... then evaluate
    the candidate at rho * nu^(j-1) until the accepted-slope test holds.
    The count and the budget are of evaluated trials. A trial whose T(x~)
    is NaN/Inf counts as failed. Exceeding the trial budget raises
    :class:`~projsplit.errors.BacktrackLimitError`, since finiteness is
    guaranteed whenever the operator really is continuous; its message
    names an overflow instead when the last trial's x~ and T(x~) were
    finite but its slope test was not. A NaN/Inf T(G z) raises
    :class:`~projsplit.errors.NonFiniteError`, and a wrong-shaped T(G z) or
    T(x~) a :class:`~projsplit.errors.ShapeError`.

    ``theta`` is G z at the (possibly stale) iterate the block reads; the
    update applies no map. ``theta`` and ``w_delayed`` must be read-only, as
    the engine's arrays are: the operator receives theta itself and each
    trial point made read-only, with no view per call. An output that is not a
    float64 vector of the block's dimension goes through
    :func:`~projsplit.linalg.checked_entries`, which converts it or raises.
    The finiteness of a float64 vector output is read off the dot products
    the search forms anyway, <drift, drift> at G z and the slope
    <theta - x~, T(x~) - w> in a trial: a NaN/Inf entry makes them
    non-finite, and only then are the entries checked one by one. The
    returned state carries the block's residuals, from the accepted
    theta - x~ and T(x~) - w, or (0, 0) for a zero drift.
    """
    fwd, dim = op._forward, op.dim
    if fwd is None:
        raise CapabilityError(f"operator '{op.name}' is not forward-evaluable")
    shape = (dim,)
    zeta = fwd(theta)
    if zeta.__class__ is not np.ndarray or zeta.shape != shape or zeta.dtype is not _FLOAT:
        zeta = checked_entries(dim, zeta)
    drift = zeta - w_delayed
    # sqrt(<x, x>) is bitwise np.linalg.norm(x) for a 1-d float64 array
    norm = math.sqrt(drift.dot(drift))
    if not norm < math.inf and not np.isfinite(zeta).all():
        raise NonFiniteError("vector entries must be finite (no NaN/Inf)")
    if norm == 0.0:
        return BlockState(theta, zeta, rho_init, 0, 0, theta, w_delayed, drift, None,
                          (0.0, 0.0))
    delta, nu, budget = config.delta, config.nu, config.max_backtracks
    rho = rho_init
    reach = delta + op.modulus
    while rho * reach > _SKIP_BOUND:  # a trial here fails the slope test
        rho = nu * rho
    count = 0
    test = math.nan  # the last trial's delta*||theta - x~||^2 - slope
    while True:
        count += 1
        if count > budget:
            raise _budget_error(budget, x_try, y_try, test)
        x_try = theta - rho * drift
        x_try.setflags(write=False)
        y_try = fwd(x_try)
        if y_try.__class__ is not np.ndarray or y_try.shape != shape or y_try.dtype is not _FLOAT:
            try:
                y_try = checked_entries(dim, y_try)
            except NonFiniteError:
                # under continuity, NaN/Inf at x~ only means the step was too long
                rho = nu * rho
                continue
        gap = theta - x_try
        gap_sq = gap.dot(gap)
        mismatch = y_try - w_delayed
        slope = gap.dot(mismatch)
        test = delta * gap_sq - slope
        # a slope test passed with a non-finite slope may hide a NaN/Inf T(x~),
        # which fails the trial as above
        if test <= 0.0 and (math.isfinite(slope) or np.isfinite(y_try).all()):
            return BlockState(x_try, y_try, rho, 0, count, theta, w_delayed, drift, None,
                              (math.sqrt(gap_sq), math.sqrt(mismatch.dot(mismatch))))
        rho = nu * rho


def _budget_error(budget: int, x_try, y_try, test: float) -> BacktrackLimitError:
    """The error of a linesearch whose last trial, (x_try, y_try) with slope-test value
    ``test``, spent its budget: an overflow when x~ and T(x~) were finite and the test not."""
    if not math.isfinite(test) and np.isfinite(y_try).all() and np.isfinite(x_try).all():
        cause = "the slope test overflowed at a finite x~ and T(x~)"
    else:
        cause = "the operator may violate the continuity assumption"
    return BacktrackLimitError(f"linesearch exceeded {budget} trials ({cause})")


# ---------------------------------------------------------------------------
# separator and projection
# ---------------------------------------------------------------------------

class SeparatorProducts:
    """The map products of :func:`evaluate_separator`, kept between iterations.

    ``images[i]`` is G_i x_n for the last block's state ``last``, and
    ``adjoints[i]`` is G_i* y_i for block i's state ``states[i]``. A block
    update makes a new :class:`BlockState` and never writes into one, so a
    product stays valid while its block's state is the same object.
    """

    __slots__ = ("last", "images", "states", "adjoints")

    def __init__(self, n_maps: int):
        self.last = None
        self.images, self.states, self.adjoints = [None] * n_maps, [None] * n_maps, [None] * n_maps


def evaluate_separator(blocks, p, maps, gamma: float, beta: float = 1.0,
                       products: SeparatorProducts | None = None) -> SeparatorEval:
    """Assemble the affine separator at the iterate ``p = (z, w)`` from the block values.

    u_i = x_i - G_i x_n and v = sum_i G_i* y_i + y_n form its gradient;
    pi = ||u||^2 + gamma^{-1}||v||^2 is the squared gradient norm in the
    weighted metric, and the value at the current point is

        phi(p) = <z, v> + sum_i <w_i, u_i> - sum_i <x_i, y_i>.

    The steplength is beta*max(0, phi)/pi when pi > 0 and zero otherwise.
    Raises :class:`~projsplit.errors.NonFiniteError` when pi or phi is not
    finite: a block value overflowed or is NaN/Inf, and the steplength
    would be meaningless.

    ``products``, kept by the caller from one call to the next, holds the
    map products of the states the last call read: G_i x_n is formed again
    only when the last block's state changed, and G_i* y_i only when block
    i's did. The sums are formed in the same order either way, so the
    result keeps its bits.
    """
    z, w = p
    if products is None:
        products = SeparatorProducts(len(blocks) - 1)
    last = blocks[-1]
    x_n = last.x
    fresh_last = products.last is not last
    if fresh_last:
        products.last = last
    images, states, adjoints = products.images, products.states, products.adjoints
    u = []
    v = 0.0  # 0.0 + y is np.zeros(dim) + y, entry by entry, -0.0 included
    uu = 0.0
    for i in range(len(blocks) - 1):
        b, g = blocks[i], maps[i]
        if g.matrix is None:  # the identity
            ui = b.x - x_n
            v = v + b.y
        else:
            if fresh_last:
                images[i] = g.apply(x_n)
            if states[i] is not b:
                states[i], adjoints[i] = b, g.apply_adjoint(b.y)
            ui = b.x - images[i]
            v = v + adjoints[i]
        u.append(ui)
        uu += ui.dot(ui)
    v = v + last.y
    pi = float(uu + v.dot(v) / gamma)
    phi = float(z.dot(v))
    for i in range(len(u)):
        phi += float(w[i].dot(u[i]))
    for b in blocks:
        phi -= float(b.x.dot(b.y))
    if not (math.isfinite(pi) and math.isfinite(phi)):
        raise NonFiniteError(f"separator is not finite (pi={pi}, phi={phi})")
    alpha = beta * max(0.0, phi) / pi if pi > 0.0 else 0.0
    return SeparatorEval(tuple(u), v, pi, phi, alpha)


# not called by the solver: perfbench/tracing.py looks it up here
def separator_gradient(sep: SeparatorEval, gamma: float) -> PrimalDualPoint:
    """The separator gradient as a point in the product space: (v/gamma, u)."""
    v = sep.v / gamma
    return PrimalDualPoint(Vec(v), tuple(Vec(ui) for ui in sep.u))


def project(p, sep: SeparatorEval, gamma: float):
    """Relaxed projection of the iterate ``p = (z, w)`` onto the separator's zero hyperplane.

    z+ = z - alpha*v/gamma and w_i+ = w_i - alpha*u_i with the separator's
    steplength alpha, returned as a pair of read-only arrays; a zero
    steplength returns p itself. Raises
    :class:`~projsplit.errors.NonFiniteError` when an entry of the result
    is NaN/Inf.
    """
    alpha = sep.alpha
    if alpha == 0.0:
        return p
    z, w = p
    u = sep.u
    arrays = [z - (alpha / gamma) * sep.v]
    for i in range(len(w)):
        arrays.append(w[i] - alpha * u[i])
    for arr in arrays:
        # <x, x> is finite only if every entry is (see linalg.all_finite)
        if not (math.isfinite(arr.dot(arr)) or np.isfinite(arr).all()):
            raise NonFiniteError("vector entries must be finite (no NaN/Inf)")
        arr.setflags(write=False)
    return arrays[0], tuple(arrays[1:])


# ---------------------------------------------------------------------------
# the outer loop
# ---------------------------------------------------------------------------

class Engine:
    """Driver for one solver run. Single-threaded, deterministic given seeds.

    After each step ``blocks`` holds the block states, ``separator`` that
    iteration's :class:`SeparatorEval` and ``iterate`` the ``(z, w)`` pair
    of arrays; a ``run`` callback may read all three, or ``point`` for the
    iterate as a :class:`~projsplit.linalg.PrimalDualPoint`.

    A run starts at the problem's ``z_init``/``w_init`` and processes every
    block at iteration 1, whatever the schedule, since the separator is
    only valid for pairs in the graphs of the T_i. From then on the block
    values are such pairs, so pi ~ 0 certifies them as a solution at any
    iteration.

    Parameters
    ----------
    problem : ProblemSpec
        Operators, maps, partition and initial point.
    config : EngineConfig
    schedule : SchedulePolicy
    error_policy : ErrorPolicy
        Prox perturbation policy. Under ``seeded-random`` errors the engine
        seeds its own generator from the policy's seed (without errors it
        builds none), so every engine built from one policy draws the same.
    """

    def __init__(self, problem, config: EngineConfig | None = None,
                 schedule: SchedulePolicy | None = None,
                 error_policy: ErrorPolicy | None = None):
        self.problem = problem
        self.config = config if config is not None else EngineConfig()
        self.schedule = (schedule.resolved(problem.n) if schedule is not None
                         else SchedulePolicy(M=problem.n))
        self.error_policy = error_policy if error_policy is not None else ErrorPolicy()
        self._rng = (np.random.default_rng(self.error_policy.seed)
                     if self.error_policy.mode == "seeded-random" else None)

        n = self._n = problem.n
        self._ops, self._forward = problem.operators, problem.forward_blocks
        self._rho_init = rho = self.config.resolve_rho(n)
        self._maps = tuple(problem.maps)
        self._dim = problem.dim
        self.iterate = PrimalDualPoint(problem.z_init, problem.w_init).arrays
        # (G z, w, w_n) of the iterate, formed by the first call of entry() at it
        self._entry = None
        # a full schedule selects every block at every iteration, and with
        # zero delay every read is of the current iterate
        sched = self.schedule
        self._every_block = tuple(range(n)) if sched.kind == "full" else None
        self._zero_delay = sched.delay_kind == "zero" or sched.D == 0
        # (G z, w, w_n) of the last D + 1 iterates, each stored by the step that reads it
        self.history = None if self._zero_delay else HistoryBuffer(sched.D)
        self._products = None  # the separator's SeparatorProducts, made by the first step
        # placeholders (G_i z1, 0), not in gra T_i: marking every block
        # overdue makes select_blocks replace them all at iteration 1, so
        # the separator only ever sees pairs in the graphs
        z = self.iterate[0]
        self.blocks = [BlockState(self._maps[i].apply(z) if i < n - 1 else z,
                                  np.zeros(self._ops[i].dim), rho[i])
                       for i in range(n)]
        self.last_selected = [1 - sched.M] * n
        self.k = 0
        self.separator: SeparatorEval | None = None
        self.records = IterationRecords(n)
        # set by run when a callback wants each step's record, built in step
        self._emit = False
        self._record: IterationRecord | None = None

    @property
    def point(self) -> PrimalDualPoint:
        """The iterate as a :class:`~projsplit.linalg.PrimalDualPoint`, built at each read."""
        z, w = self.iterate
        return PrimalDualPoint(Vec(z), tuple(Vec(wi) for wi in w))

    def entry(self) -> tuple:
        """``(G z, w, w_n)`` of the current iterate, formed once per iterate.

        G z holds one read-only array per block, the last block's being z
        itself, and w_n = -sum_i G_i* w_i. The first call at an iterate forms
        them, and later calls at it, the next step's among them, return the
        same tuple; an invariant monitor checks the new iterate on it.
        """
        entry = self._entry
        if entry is None:
            z, w = self.iterate
            maps = self._maps
            gz = [z] * self._n
            for i in range(self._n - 1):
                g = maps[i]
                if g.matrix is not None:
                    gi = gz[i] = g.apply(z)
                    gi.setflags(write=False)
            entry = self._entry = (gz, w, dual_sum(w, maps, self._dim))
        return entry

    def step(self) -> str:
        """Execute one outer iteration; see the module docstring for the shape.

        Returns ``"continue"`` after a projection, else the terminal status:
        ``"converged"``, ``"exact-termination"``, or ``"budget"`` when the
        iteration budget was spent before this call.
        """
        cfg = self.config
        if self.k >= cfg.max_iters:
            return "budget"
        k = self.k = self.k + 1
        n = self._n
        last = n - 1
        ops, forward, rho_init, blocks = self._ops, self._forward, self._rho_init, self.blocks
        _, w = p = self.iterate
        # the updates that read iterate k and the residuals below share its
        # products, and the history entry keeps them for later stale reads;
        # a monitor may have formed them already
        gz, _, wn = entry = self._entry or self.entry()
        if self.history is not None:
            self.history.store(k, entry)

        selected = self._every_block
        if selected is None:
            selected = select_blocks(self.schedule, n, k, self.last_selected)
            for i in selected:
                self.last_selected[i] = k
        if self._zero_delay:
            delays = (k,) * len(selected)
        else:
            delays = tuple([delayed_index(self.schedule, i, k) for i in selected])
        reads = [-1] * n  # the iterate each block read, -1 if not selected
        for i, d in zip(selected, delays):
            reads[i] = d
            if d == k:
                theta = gz[i]
                w_d = w[i] if i < last else wn
            else:
                gz_stale, w_stale, wn_stale = self.history.read(d)
                theta = gz_stale[i]
                w_d = w_stale[i] if i < last else wn_stale
            try:
                if i in forward:
                    rho_start = min(rho_init[i], blocks[i].rho / cfg.nu)
                    blocks[i] = forward_update_with_backtrack(ops[i], theta, w_d, rho_start, cfg)
                else:
                    blocks[i] = backward_update(ops[i], theta, w_d, rho_init[i], self.error_policy,
                                                self._rng, blocks[i].halvings)
            except (ShapeError, BacktrackLimitError) as exc:  # NonFiniteError is a ShapeError
                raise _violation(k, i, ops[i], exc) from exc

        products = self._products
        if products is None:
            products = self._products = SeparatorProducts(last)
        try:
            sep = self.separator = evaluate_separator(blocks, p, self._maps, cfg.gamma, cfg.beta,
                                                      products)
        except NonFiniteError as exc:
            culprit = _largest_block(blocks)
            raise _violation(k, culprit, ops[culprit], exc,
                             "; this block has the largest value") from exc

        # residuals ||G_i z - x_i|| and ||y_i - w_i||; a block updated from
        # iterate k formed them in its update. The per-block lists are filled
        # in place and their maxima kept as max() keeps them (the first
        # largest), so the rows cost no calls but their two writes
        primal, dual, backtracks, stepsizes = [0.0] * n, [0.0] * n, [0] * n, [0.0] * n
        for i in range(n):
            b = blocks[i]
            if reads[i] == k:
                r_primal, r_dual = b.residuals
            else:
                r = gz[i] - b.x
                r_primal = math.sqrt(r.dot(r))
                r = b.y - (w[i] if i < last else wn)
                r_dual = math.sqrt(r.dot(r))
            primal[i], dual[i] = r_primal, r_dual
            if i == 0 or r_primal > max_primal:
                max_primal = r_primal
            if i == 0 or r_dual > max_dual:
                max_dual = r_dual
            if reads[i] >= 0:
                backtracks[i] = b.backtracks
            stepsizes[i] = b.rho

        exact = sep.pi <= cfg.pi_zero_eps
        converged = not exact and max_primal <= cfg.tol_primal and max_dual <= cfg.tol_dual
        projected = not (exact or converged)

        # the iteration's float row and integer row, laid out as _record_from_rows reads them
        floats = [sep.phi_at_p, sep.pi, sep.alpha, max_primal, max_dual, *primal, *dual,
                  *stepsizes]
        ints = [k, projected, *reads, *backtracks]
        self.records.floats.extend(floats)
        self.records.ints.extend(ints)
        if self._emit:
            self._record = _record_from_rows(floats, ints, n)

        if exact:
            return "exact-termination"
        if converged:
            return "converged"
        try:
            new = project(p, sep, cfg.gamma)
        except NonFiniteError as exc:
            raise AssumptionViolationError(f"iteration {k}, projection: {exc}") from exc
        if new is not p:
            self.iterate, self._entry = new, None
        return "continue"

    def run(self, callback=None) -> RunTrace:
        """Iterate to a terminal outcome.

        A linesearch that exhausts its trial budget and a NaN/Inf or
        wrong-shaped value from an operator end the run with status
        ``assumption-violation`` and a message that names the iteration, the
        block and its operator; they do not raise. ``callback(engine,
        record)`` fires after every completed iteration, once the projection
        (if any) has been applied; the step builds ``record`` from the rows
        it wrote, and it equals ``engine.records[-1]``. The trace's ``records``
        are those of the engine when the run ends. The solution is the
        iterate when the run converged and the block values (x_n, y_1, ...,
        y_{n-1}) at exact termination, which certify themselves.
        """
        t0 = time.perf_counter()
        status, solution, message = "budget", None, ""
        self._emit = callback is not None
        try:
            while True:
                status = self.step()
                if status == "budget":
                    break
                if callback is not None:
                    callback(self, self._record)
                if status != "continue":
                    break
        except AssumptionViolationError as exc:
            status, message = "assumption-violation", str(exc)
        finally:
            self._emit, self._record = False, None
        final = self.point
        if status == "converged":
            solution = final
        elif status == "exact-termination":
            blocks = self.blocks
            solution = PrimalDualPoint(Vec(blocks[-1].x), tuple(Vec(b.y) for b in blocks[:-1]))
        records = self.records.view()
        return RunTrace(status=status, iterations=len(records), records=records,
                        solution=solution, final_point=final, message=message,
                        wall_time=time.perf_counter() - t0)


def _violation(k: int, i: int, op, exc: Exception, note: str = "") -> AssumptionViolationError:
    return AssumptionViolationError(f"iteration {k}, block {i} (operator '{op.name}'): {exc}{note}")


def _largest_block(blocks) -> int:
    """Index of the block whose x or y has the largest entry; NaN counts as largest."""
    def size(b):
        entries = np.abs(np.concatenate((b.x, b.y)))
        return math.inf if np.isnan(entries).any() else float(entries.max())
    return max(range(len(blocks)), key=lambda i: size(blocks[i]))


def run(problem, config: EngineConfig | None = None,
        schedule: SchedulePolicy | None = None,
        error_policy: ErrorPolicy | None = None,
        callback=None) -> RunTrace:
    """Build an engine for the problem and drive it to a terminal status."""
    eng = Engine(problem, config, schedule, error_policy)
    return eng.run(callback=callback)
