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
scaled by an overrelaxation factor. The loop stops on small residuals, on
an exactly-zero separator gradient (which certifies the block values as a
solution), or on the iteration budget. A run ends with the status
``assumption-violation`` when a linesearch exhausts its trial budget, when
an operator returns NaN/Inf or a wrong-shaped value at G z, in a trial or
from a prox, or when NaN/Inf reaches the separator or the projection.

The engine computes only what the iteration needs. The identities that
verify it (update equations, gradient norm, error admissibility) are
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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (AssumptionViolationError, BacktrackLimitError, ConfigError, NonFiniteError,
                     ShapeError)
# derived_wn, gamma_norm, error_inequality_gaps: unused here, but perfbench/tracing.py
# wraps them here
from .linalg import (PrimalDualPoint, Space, Vec, all_finite, derived_wn,  # noqa: F401
                     dual_sum, gamma_norm)
from .operators import ErrorPolicy, error_inequality_gaps, forward_eval, inject_error  # noqa: F401
from .scheduler import HistoryBuffer, SchedulePolicy, delayed_index, select_blocks


@dataclass(frozen=True)
class EngineConfig:
    """Solver parameters.

    gamma weighs the primal block in the product-space metric. beta is the
    projection overrelaxation, kept inside [beta_lo, beta_hi] with
    0 < beta_lo <= beta_hi < 2. nu in (0,1) is the linesearch shrink factor
    and delta > 0 its acceptance threshold. rho_init (scalar or per-block,
    each finite and > 0) is a backward block's prox stepsize. For a forward
    block it caps every linesearch trial: the search starts at
    min(rho_init, rho_prev/nu), where rho_prev is the block's last accepted
    stepsize (rho_init before its first update).
    quickstop_eps is the relative tolerance for the immediate-accept branch
    of the linesearch, and pi_zero_eps the threshold below which the
    separator gradient is treated as exactly zero.
    """

    gamma: float = 1.0
    beta: float = 1.0
    beta_lo: float = 1.0
    beta_hi: float = 1.0
    nu: float = 0.5
    delta: float = 1.0
    max_backtracks: int = 200
    rho_init: float | tuple = 1.0
    tol_primal: float = 1e-6
    tol_dual: float = 1e-6
    max_iters: int = 10000
    quickstop_eps: float = 1e-14
    pi_zero_eps: float = 1e-24

    def validate(self, n: int | None = None):
        if not self.gamma > 0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        if not 0 < self.beta_lo <= self.beta_hi:
            raise ConfigError(f"need 0 < beta_lo <= beta_hi, got ({self.beta_lo}, {self.beta_hi})")
        if not self.beta_hi < 2:
            raise ConfigError(f"beta_hi must be < 2, got {self.beta_hi}")
        if not self.beta_lo <= self.beta <= self.beta_hi:
            raise ConfigError(f"beta must lie in [beta_lo, beta_hi]="
                              f"[{self.beta_lo}, {self.beta_hi}], got {self.beta}")
        if not 0 < self.nu < 1:
            raise ConfigError(f"nu must lie in (0, 1), got {self.nu}")
        if not self.delta > 0:
            raise ConfigError(f"delta must be > 0, got {self.delta}")
        if not isinstance(self.max_backtracks, int) or self.max_backtracks < 1:
            raise ConfigError(f"max_backtracks must be a positive integer, got {self.max_backtracks}")
        rho = np.atleast_1d(np.asarray(self.rho_init, dtype=float))
        for r in rho:
            if not 0 < r < np.inf:
                raise ConfigError(f"rho_init must be finite and > 0, got {r}")
        if n is not None:
            if rho.shape[0] not in (1, n):
                raise ConfigError(f"rho_init must be scalar or length {n}, got length {rho.shape[0]}")
        if not self.tol_primal > 0:
            raise ConfigError(f"tol_primal must be > 0, got {self.tol_primal}")
        if not self.tol_dual > 0:
            raise ConfigError(f"tol_dual must be > 0, got {self.tol_dual}")
        if not isinstance(self.max_iters, int) or self.max_iters < 0:
            raise ConfigError(f"max_iters must be a nonnegative integer, got {self.max_iters}")
        if self.quickstop_eps < 0:
            raise ConfigError(f"quickstop_eps must be >= 0, got {self.quickstop_eps}")
        if self.pi_zero_eps < 0:
            raise ConfigError(f"pi_zero_eps must be >= 0, got {self.pi_zero_eps}")

    def resolve_rho(self, n: int) -> tuple[float, ...]:
        rho = np.atleast_1d(np.asarray(self.rho_init, dtype=float))
        if rho.shape[0] == 1:
            return tuple(float(rho[0]) for _ in range(n))
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
    backward update the accepted prox-input error ``error``. The engine
    reads ``theta`` only as G z for a primal residual; the invariant
    monitor verifies the update equations from all four. Initial states
    leave them None.
    """

    x: np.ndarray
    y: np.ndarray
    rho: float
    backtracks: int = 0
    theta: np.ndarray | None = None
    w: np.ndarray | None = None
    drift: np.ndarray | None = None
    error: np.ndarray | None = None


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
    beta: float
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
                    rho: float, error_policy: ErrorPolicy) -> BlockState:
    """Resolvent step at input G z + rho*w + e with an admissible error e."""
    gz = slot.map.apply(z_delayed)
    e, res = inject_error(error_policy, gz + rho * w_delayed, slot.op, rho, gz, w_delayed)
    return BlockState(res.x, res.y, rho, 0, gz, w_delayed, None, e)


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
    """
    op = slot.op
    theta = slot.map.apply(z_delayed)
    zeta = forward_eval(op, theta)
    drift = zeta - w_delayed
    # sqrt(<x, x>) is bitwise np.linalg.norm(x) for a 1-d float64 array
    if (math.sqrt(drift.dot(drift))
            <= config.quickstop_eps * (1.0 + math.sqrt(w_delayed.dot(w_delayed)))):
        return BlockState(theta, zeta, rho_init, 0, theta, w_delayed, drift)
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
        try:
            y_try = forward_eval(op, x_try)
        except NonFiniteError:
            pass  # under continuity, NaN/Inf at x~ only means the step was too long
        else:
            gap = theta - x_try
            if delta * gap.dot(gap) - gap.dot(y_try - w_delayed) <= 0.0:
                return BlockState(x_try, y_try, rho, count, theta, w_delayed, drift)
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
        ui = b.x - g.apply(x_n)
        u.append(ui)
        uu += ui.dot(ui)
        v = v + g.apply_adjoint(b.y)
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
    return PrimalDualPoint(Vec(Space(v.shape[0]), v),
                           tuple(Vec(Space(ui.shape[0]), ui) for ui in sep.u))


def project(p, sep: SeparatorEval, gamma: float, alpha_hook=None):
    """Relaxed projection of the iterate ``p = (z, w)`` onto the separator's zero hyperplane.

    z+ = z - alpha*v/gamma and w_i+ = w_i - alpha*u_i, returned as a pair of
    read-only arrays; a zero steplength returns p itself. Raises
    :class:`~projsplit.errors.NonFiniteError` when an entry of the result
    is NaN/Inf. ``alpha_hook`` is test instrumentation that may transform
    the steplength to corrupt the projection deliberately.
    """
    alpha = sep.alpha if alpha_hook is None else alpha_hook(sep.alpha)
    if alpha == 0.0:
        return p
    z, w = p
    u = sep.u
    arrays = [z - (alpha / gamma) * sep.v]
    for i in range(len(w)):
        arrays.append(w[i] - alpha * u[i])
    for arr in arrays:
        if not all_finite(arr):
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

    Parameters
    ----------
    problem : ProblemSpec
        Operators, maps, partition and initial point.
    config : EngineConfig
    schedule : SchedulePolicy
    error_policy : ErrorPolicy
        Prox perturbation policy; a fresh copy is taken so generator state
        stays confined to this engine.
    initial_blocks : sequence of (Vec, Vec), optional
        Initial (x_i, y_i) pairs, each in the graph of T_i. Without them
        every block is processed at iteration 1, since the separator is
        only valid for pairs in the graphs.
    beta_schedule : callable(int) -> float, optional
        Per-iteration overrelaxation, validated against [beta_lo, beta_hi].
    alpha_hook : callable(float) -> float, optional
        Test instrumentation applied to the projection steplength.
    """

    def __init__(self, problem, config: EngineConfig | None = None,
                 schedule: SchedulePolicy | None = None,
                 error_policy: ErrorPolicy | None = None, *,
                 initial_blocks=None, beta_schedule=None, alpha_hook=None):
        self.problem = problem
        self.config = config if config is not None else EngineConfig()
        self.config.validate(problem.n)
        problem.validate()
        self.schedule = (schedule if schedule is not None else SchedulePolicy()).resolved(problem.n)
        self.error_policy = (error_policy if error_policy is not None else ErrorPolicy()).fresh()
        self.beta_schedule = beta_schedule
        self.alpha_hook = alpha_hook

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
        self._dim = problem.space0.dim
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
        z = self.iterate[0]
        if initial_blocks is None:
            # placeholders (G_i z1, 0), not in gra T_i: marking every block
            # overdue makes select_blocks replace them all at iteration 1
            self.blocks = [BlockState(s.map.apply(z), np.zeros(s.op.space.dim), s.rho_init)
                           for s in self.slots]
            self.last_selected = [1 - sched.M] * n
        else:
            self.blocks = [BlockState(x.entries, y.entries, s.rho_init)
                           for s, (x, y) in zip(self.slots, initial_blocks)]
            self.last_selected = [0] * n
        self.k = 0
        self.covered: set[int] = set()
        self._fully_covered = False
        self.separator: SeparatorEval | None = None
        self.records: list[IterationRecord] = []

    @property
    def n(self) -> int:
        return self._n

    @property
    def point(self) -> PrimalDualPoint:
        """The iterate as a :class:`~projsplit.linalg.PrimalDualPoint`, built on first use."""
        if self._point is None:
            z, w = self.iterate
            self._point = PrimalDualPoint(
                Vec(self.problem.space0, z),
                tuple(Vec(wi.space, w[i]) for i, wi in enumerate(self.problem.w_init)))
        return self._point

    def _beta_at(self, k: int) -> float:
        beta = float(self.beta_schedule(k))
        if not self.config.beta_lo <= beta <= self.config.beta_hi:
            raise ConfigError(f"beta schedule produced {beta} outside "
                              f"[{self.config.beta_lo}, {self.config.beta_hi}] at iteration {k}")
        return beta

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
                    blocks[i] = backward_update(slot, z_d, w_d, slot.rho_init, self.error_policy)
                else:
                    rho_start = min(slot.rho_init, blocks[i].rho / cfg.nu)
                    blocks[i] = forward_update_with_backtrack(slot, z_d, w_d, rho_start, cfg)
            except (ShapeError, BacktrackLimitError) as exc:  # NonFiniteError is a ShapeError
                raise _violation(k, slot, exc) from exc
        if not self._fully_covered:
            self.covered.update(selected)
            self._fully_covered = len(self.covered) == n

        beta_k = cfg.beta if self.beta_schedule is None else self._beta_at(k)
        try:
            sep = self.separator = evaluate_separator(blocks, p, self._maps, cfg.gamma, beta_k)
        except NonFiniteError as exc:
            culprit = slots[_largest_block(blocks)]
            raise _violation(k, culprit, exc, "; this block has the largest value") from exc

        # residuals ||G_i z - x_i|| and ||y_i - w_i||; a block updated from
        # iterate k already holds G_i z as its theta
        primal, dual, backtracks, stepsizes = [], [], [], []
        for i in range(n):
            b = blocks[i]
            r = (b.theta if i in fresh else slots[i].map.apply(z)) - b.x
            primal.append(math.sqrt(r.dot(r)))
            r = b.y - (w[i] if i < last else wn)
            dual.append(math.sqrt(r.dot(r)))
            backtracks.append(b.backtracks if i in selected else 0)
            stepsizes.append(b.rho)
        max_primal, max_dual = max(primal), max(dual)

        exact = sep.pi <= cfg.pi_zero_eps and self._fully_covered
        converged = (not exact and self._fully_covered
                     and max_primal <= cfg.tol_primal and max_dual <= cfg.tol_dual)
        projected = not exact and not converged and sep.pi > cfg.pi_zero_eps

        self.records.append(IterationRecord(
            k, sep.phi_at_p, sep.pi, sep.alpha, beta_k, selected, delays, tuple(primal),
            tuple(dual), max_primal, max_dual, tuple(backtracks), tuple(stepsizes), projected))

        if exact:
            solution = PrimalDualPoint(
                Vec(self.problem.space0, blocks[-1].x),
                tuple(Vec(wi.space, blocks[i].y) for i, wi in enumerate(self.problem.w_init)))
            return StepOutcome("exact-termination", solution)
        if converged:
            return StepOutcome("converged", self.point)
        if projected:
            try:
                new = project(p, sep, cfg.gamma, self.alpha_hook)
            except NonFiniteError as exc:
                raise AssumptionViolationError(f"iteration {k}, projection: {exc}") from exc
            if new is not p:
                self.iterate, self._point = new, None
        # pi ~ 0 without full coverage: zero steplength, point carries over
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
        callback=None, **engine_kwargs) -> RunTrace:
    """Build an engine for the problem and drive it to a terminal status."""
    eng = Engine(problem, config, schedule, error_policy, **engine_kwargs)
    return eng.run(callback=callback)
