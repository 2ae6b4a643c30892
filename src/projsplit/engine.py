"""Core iteration: block updates, separator assembly, projection, termination.

Each outer iteration processes a scheduled subset of blocks. Prox-capable
blocks take a resolvent step at a (possibly stale, possibly perturbed)
input; forward blocks take two operator evaluations per linesearch trial,

    x~ = theta - rho*(T(theta) - w),    theta = G z,

shrinking rho geometrically until the accepted-slope test

    delta*||theta - x~||^2 - <theta - x~, T(x~) - w> <= 0

holds. A trial whose T(x~) is NaN/Inf fails too: under continuity it only
means the step was too long.

The linesearch is warm-started. A forward block's search begins at

    min(rho_init, rho_prev/nu),

one shrink factor above the stepsize the block accepted last time, so an
iteration does not repeat the trials its predecessor already failed. Every
trial stepsize stays bounded above by rho_init, which is all the
convergence theory asks of them. The first search begins at rho_init,
since initial block states carry rho = rho_init.

The block results define an affine separator that is nonpositive on the
solution set; the iterate is then projected onto its zero hyperplane,
scaled by the overrelaxation factor beta. The loop stops on small
residuals, on an exactly-zero separator gradient (which certifies the
block values as a solution), or on the iteration budget. A run ends with
the status ``assumption-violation`` when a linesearch exhausts its trial
budget, when an operator returns NaN/Inf at G z or from a prox, when it
returns a wrong-shaped value, or when NaN/Inf reaches the separator or the
projection.

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
a tuple of them, one per dual block (:attr:`Engine.iterate`, the history
entries). Block updates, the separator and the projection work on those
arrays, and the per-iteration records are named tuples. A
:class:`~projsplit.linalg.PrimalDualPoint` is built only for callers:
:attr:`Engine.point` builds one on demand, and a run returns its solution
and final point as points. Under a ``full`` schedule every block is
selected at every iteration, and under zero delay every read is of the
current iterate; the loop then skips block selection, delay draws and the
history.

The configs and the problem are validated when built and hold no run state:
under ``seeded-random`` prox errors, an engine seeds its own error generator
from the policy's seed.
"""

from __future__ import annotations

import math
import time
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
    positive) is a backward block's prox stepsize. For a forward block it caps
    every linesearch trial: the search starts at min(rho_init,
    rho_prev/nu), where rho_prev is the block's last accepted stepsize
    (rho_init before its first update). Real fields must be finite numbers
    and max_backtracks/max_iters integers (booleans rejected); a bad field
    is a :class:`~projsplit.errors.ConfigError` naming it. The constants
    quickstop_eps (the linesearch's relative immediate-accept tolerance) and
    pi_zero_eps (below which pi counts as exactly zero) are float-noise
    thresholds, not parameters.
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
        for r in rho if isinstance(rho, (tuple, list, np.ndarray)) else (rho,):
            checked_real("rho_init", r, positive=True)

    def resolve_rho(self, n: int) -> tuple[float, ...]:
        """One stepsize per block; a per-block rho_init must have n entries."""
        rho = np.atleast_1d(np.asarray(self.rho_init, dtype=float))
        if rho.shape[0] == 1:
            return tuple(float(rho[0]) for _ in range(n))
        if rho.shape[0] != n:
            raise ConfigError(f"rho_init must be scalar or length {n}, got length {rho.shape[0]}")
        return tuple(float(r) for r in rho)


@dataclass(frozen=True)
class OperatorSlot:
    """Static per-block wiring: operator, composition map, update kind."""

    index: int
    op: object
    map: object
    kind: str  # "forward" | "backward"
    rho_init: float


class BlockState(NamedTuple):
    """Result of a block update: (x, y) with y in T(x), plus its inputs.

    ``theta`` = G z and ``w`` are the (possibly stale) iterate values the
    update read. A forward update also keeps ``drift`` = T(theta) - w, a
    backward update the accepted prox-input error ``error``. The invariant
    monitor verifies the update equations from all four. ``residuals`` is
    the pair (||theta - x||, ||y - w||), formed from the arrays the update
    computed anyway; the engine records it when the update read the current
    iterate. Initial states leave these fields None.
    """

    x: np.ndarray
    y: np.ndarray
    rho: float
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


class StepOutcome(NamedTuple):
    kind: str  # "continue" | "converged" | "exact-termination" | "budget"
    solution: PrimalDualPoint | None = None


_CONTINUE = StepOutcome("continue")
_BUDGET = StepOutcome("budget")


@dataclass
class RunTrace:
    """Full record of a solver run."""

    status: str  # "converged" | "exact-termination" | "budget" | "assumption-violation"
    iterations: int
    records: list[IterationRecord]
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

def backward_update(slot: OperatorSlot, z_delayed: np.ndarray, w_delayed: np.ndarray,
                    rho: float, error_policy: ErrorPolicy,
                    rng: np.random.Generator | None) -> BlockState:
    """Resolvent step at input G z + rho*w + e with an admissible error e drawn from ``rng``."""
    g = slot.map
    gz = z_delayed if g.matrix is None else g.apply(z_delayed)
    base = gz + rho * w_delayed
    base.setflags(write=False)
    e, (x, y) = inject_error(error_policy, rng, base, slot.op, rho, gz, w_delayed)
    r, s = gz - x, y - w_delayed
    return BlockState(x, y, rho, 0, gz, w_delayed, None, e,
                      (math.sqrt(r.dot(r)), math.sqrt(s.dot(s))))


_FLOAT = np.dtype(float)


def forward_update_with_backtrack(slot: OperatorSlot, z_delayed: np.ndarray,
                                  w_delayed: np.ndarray, rho_init: float,
                                  config: EngineConfig) -> BlockState:
    """Two-evaluation step with geometric backtracking.

    If T(G z) already matches w (to quickstop tolerance) the pair is
    accepted immediately with the initial stepsize and a count of zero.
    Otherwise trials j = 1, 2, ... evaluate the candidate at stepsize
    rho_init * nu^(j-1) until the accepted-slope test holds. A trial whose
    T(x~) is NaN/Inf counts as failed. Exceeding the trial budget raises
    :class:`~projsplit.errors.BacktrackLimitError`, since finiteness is
    guaranteed whenever the operator really is continuous. A NaN/Inf
    T(G z) raises :class:`~projsplit.errors.NonFiniteError`, and a
    wrong-shaped T(G z) or T(x~) a :class:`~projsplit.errors.ShapeError`.

    ``z_delayed`` and ``w_delayed`` must be read-only, as the engine's
    iterate arrays are: the operator receives G z itself and each trial
    point made read-only, with no view per call. An output that is not a
    float64 vector of the block's dimension goes through
    :func:`~projsplit.linalg.checked_entries`, which converts it or raises.
    The finiteness of a float64 vector output is read off the dot products
    the search forms anyway, <drift, drift> at G z and the slope
    <theta - x~, T(x~) - w> in a trial: a NaN/Inf entry makes them
    non-finite, and only then are the entries checked one by one. The
    returned state carries the block's residuals, from the accepted
    theta - x~ and T(x~) - w, or 0 and ||drift|| after a quickstop.
    """
    op, g = slot.op, slot.map
    fwd, dim = op._forward, op.dim
    if fwd is None:
        raise CapabilityError(f"operator '{op.name}' is not forward-evaluable")
    shape = (dim,)
    if g.matrix is None:
        theta = z_delayed
    else:
        theta = g.apply(z_delayed)
        theta.setflags(write=False)
    zeta = fwd(theta)
    if zeta.__class__ is not np.ndarray or zeta.shape != shape or zeta.dtype is not _FLOAT:
        zeta = checked_entries(dim, zeta)
    drift = zeta - w_delayed
    # sqrt(<x, x>) is bitwise np.linalg.norm(x) for a 1-d float64 array
    norm = math.sqrt(drift.dot(drift))
    if not norm < math.inf and not np.isfinite(zeta).all():
        raise NonFiniteError("vector entries must be finite (no NaN/Inf)")
    if norm <= config.quickstop_eps * (1.0 + math.sqrt(w_delayed.dot(w_delayed))):
        return BlockState(theta, zeta, rho_init, 0, theta, w_delayed, drift, None, (0.0, norm))
    delta, nu, budget = config.delta, config.nu, config.max_backtracks
    rho = rho_init
    count = 0
    while True:
        count += 1
        if count > budget:
            raise BacktrackLimitError(
                f"linesearch exceeded {budget} trials "
                "(the operator may violate the continuity assumption)")
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
        # a slope test passed with a non-finite slope may hide a NaN/Inf T(x~),
        # which fails the trial as above
        if (delta * gap_sq - slope <= 0.0
                and (math.isfinite(slope) or np.isfinite(y_try).all())):
            return BlockState(x_try, y_try, rho, count, theta, w_delayed, drift, None,
                              (math.sqrt(gap_sq), math.sqrt(mismatch.dot(mismatch))))
        rho = nu * rho


# ---------------------------------------------------------------------------
# separator and projection
# ---------------------------------------------------------------------------

def evaluate_separator(blocks, p, maps, gamma: float, beta: float = 1.0) -> SeparatorEval:
    """Assemble the affine separator at the iterate ``p = (z, w)`` from the block values.

    u_i = x_i - G_i x_n and v = sum_i G_i* y_i + y_n form its gradient;
    pi = ||u||^2 + gamma^{-1}||v||^2 is the squared gradient norm in the
    weighted metric, and the value at the current point is

        phi(p) = <z, v> + sum_i <w_i, u_i> - sum_i <x_i, y_i>.

    The steplength is beta*max(0, phi)/pi when pi > 0 and zero otherwise.
    Raises :class:`~projsplit.errors.NonFiniteError` when pi or phi is not
    finite: a block value overflowed or is NaN/Inf, and the steplength
    would be meaningless.
    """
    z, w = p
    last = blocks[-1]
    x_n = last.x
    u = []
    v = np.zeros(last.y.shape[0])
    uu = 0.0
    for i in range(len(blocks) - 1):
        b, g = blocks[i], maps[i]
        if g.matrix is None:  # the identity
            ui = b.x - x_n
            v = v + b.y
        else:
            ui = b.x - g.apply(x_n)
            v = v + g.apply_adjoint(b.y)
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
        rho = self.config.resolve_rho(n)
        ident = problem.identity_map()
        self.slots = [
            OperatorSlot(index=i, op=problem.operators[i],
                         map=problem.maps[i] if i < n - 1 else ident,
                         kind="forward" if i in problem.forward_blocks else "backward",
                         rho_init=rho[i])
            for i in range(n)
        ]
        self._maps = tuple(problem.maps)
        self._dim = problem.dim
        self._point = PrimalDualPoint(problem.z_init, problem.w_init)
        self.iterate = self._point.arrays
        # a full schedule selects every block at every iteration, and with
        # zero delay every read is of the current iterate
        sched = self.schedule
        self._every_block = tuple(range(n)) if sched.kind == "full" else None
        self._zero_delay = sched.delay_kind == "zero" or sched.D == 0
        self.history = None
        if not self._zero_delay:
            self.history = HistoryBuffer(sched.D)
            self.history.store(1, self.iterate)
        # placeholders (G_i z1, 0), not in gra T_i: marking every block
        # overdue makes select_blocks replace them all at iteration 1, so
        # the separator only ever sees pairs in the graphs
        z = self.iterate[0]
        self.blocks = [BlockState(s.map.apply(z), np.zeros(s.op.dim), s.rho_init)
                       for s in self.slots]
        self.last_selected = [1 - sched.M] * n
        self.k = 0
        self.separator: SeparatorEval | None = None
        self.records: list[IterationRecord] = []

    @property
    def point(self) -> PrimalDualPoint:
        """The iterate as a :class:`~projsplit.linalg.PrimalDualPoint`, built on first use."""
        if self._point is None:
            z, w = self.iterate
            self._point = PrimalDualPoint(Vec(z), tuple(Vec(wi) for wi in w))
        return self._point

    def step(self) -> StepOutcome:
        """Execute one outer iteration; see the module docstring for the shape."""
        cfg = self.config
        if self.k >= cfg.max_iters:
            return _BUDGET
        k = self.k = self.k + 1
        n = self._n
        last = n - 1
        slots, blocks = self.slots, self.blocks
        z, w = p = self.iterate

        selected = self._every_block
        if selected is None:
            selected = select_blocks(self.schedule, n, k, self.last_selected)
            for i in selected:
                self.last_selected[i] = k
        if self._zero_delay:
            delays = (k,) * len(selected)
        else:
            delays = tuple([delayed_index(self.schedule, i, k) for i in selected])
        # iterate k is the current point, so a zero-delay read of the last
        # block shares w_n with the dual residual below
        wn = dual_sum(w, self._maps, self._dim)
        fresh = []  # blocks updated from iterate k
        for i, d in zip(selected, delays):
            slot = slots[i]
            if d == k:
                fresh.append(i)
                z_d = z
                w_d = w[i] if i < last else wn
            else:
                z_d, w_stale = self.history.read(d)
                w_d = w_stale[i] if i < last else dual_sum(w_stale, self._maps, self._dim)
            try:
                if slot.kind == "backward":
                    blocks[i] = backward_update(slot, z_d, w_d, slot.rho_init, self.error_policy,
                                                self._rng)
                else:
                    rho_start = min(slot.rho_init, blocks[i].rho / cfg.nu)
                    blocks[i] = forward_update_with_backtrack(slot, z_d, w_d, rho_start, cfg)
            except (ShapeError, BacktrackLimitError) as exc:  # NonFiniteError is a ShapeError
                raise _violation(k, slot, exc) from exc

        try:
            sep = self.separator = evaluate_separator(blocks, p, self._maps, cfg.gamma, cfg.beta)
        except NonFiniteError as exc:
            culprit = slots[_largest_block(blocks)]
            raise _violation(k, culprit, exc, "; this block has the largest value") from exc

        # residuals ||G_i z - x_i|| and ||y_i - w_i||; a block updated from
        # iterate k formed them in its update
        primal, dual, backtracks, stepsizes = [], [], [], []
        for i in range(n):
            b = blocks[i]
            if i in fresh:
                r_primal, r_dual = b.residuals
            else:
                g = slots[i].map
                r = (z if g.matrix is None else g.apply(z)) - b.x
                r_primal = math.sqrt(r.dot(r))
                r = b.y - (w[i] if i < last else wn)
                r_dual = math.sqrt(r.dot(r))
            primal.append(r_primal)
            dual.append(r_dual)
            backtracks.append(b.backtracks if i in selected else 0)
            stepsizes.append(b.rho)
        max_primal, max_dual = max(primal), max(dual)

        exact = sep.pi <= cfg.pi_zero_eps
        converged = not exact and max_primal <= cfg.tol_primal and max_dual <= cfg.tol_dual

        self.records.append(IterationRecord(
            k, sep.phi_at_p, sep.pi, sep.alpha, selected, delays, tuple(primal),
            tuple(dual), max_primal, max_dual, tuple(backtracks), tuple(stepsizes),
            not (exact or converged)))

        if exact:
            solution = PrimalDualPoint(Vec(blocks[-1].x),
                                       tuple(Vec(b.y) for b in blocks[:-1]))
            return StepOutcome("exact-termination", solution)
        if converged:
            return StepOutcome("converged", self.point)
        try:
            new = project(p, sep, cfg.gamma)
        except NonFiniteError as exc:
            raise AssumptionViolationError(f"iteration {k}, projection: {exc}") from exc
        if new is not p:
            self.iterate, self._point = new, None
        if self.history is not None:
            self.history.store(k + 1, self.iterate)
        return _CONTINUE

    def run(self, callback=None) -> RunTrace:
        """Iterate to a terminal outcome.

        A linesearch that exhausts its trial budget and a NaN/Inf or
        wrong-shaped value from an operator end the run with status
        ``assumption-violation`` and a message that names the iteration, the
        block and its operator; they do not raise. ``callback(engine,
        record)`` fires after every completed iteration, once the projection
        (if any) has been applied.
        """
        t0 = time.perf_counter()
        status, solution, message = "budget", None, ""
        try:
            while True:
                out = self.step()
                if out.kind == "budget":
                    break
                if callback is not None:
                    callback(self, self.records[-1])
                if out.kind != "continue":
                    status, solution = out.kind, out.solution
                    break
        except AssumptionViolationError as exc:
            status, message = "assumption-violation", str(exc)
        return RunTrace(status=status, iterations=len(self.records), records=self.records,
                        solution=solution, final_point=self.point, message=message,
                        wall_time=time.perf_counter() - t0)


def _violation(k: int, slot: OperatorSlot, exc: Exception,
               note: str = "") -> AssumptionViolationError:
    return AssumptionViolationError(
        f"iteration {k}, block {slot.index} (operator '{slot.op.name}'): {exc}{note}")


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
