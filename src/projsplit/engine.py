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

Block updates, the separator and the projection work on float64 arrays;
the iterate (:attr:`Engine.point`, the history entries) is a
:class:`~projsplit.linalg.PrimalDualPoint`, built once per projection.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (AssumptionViolationError, BacktrackLimitError, ConfigError, NonFiniteError,
                     ShapeError)
# gamma_norm, error_inequality_gaps: unused here, but perfbench/tracing.py wraps them here
from .linalg import PrimalDualPoint, Space, Vec, derived_wn, gamma_norm  # noqa: F401
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


@dataclass(frozen=True)
class BlockState:
    """Result of a block update: (x, y) with y in T(x), plus its inputs.

    ``theta`` = G z and ``w`` are the (possibly stale) iterate values the
    update read. A forward update also keeps ``drift`` = T(theta) - w, a
    backward update the accepted prox-input error ``error``. The engine
    never reads these four; the invariant monitor verifies the update
    equations from them. Initial states leave them None.
    """

    x: np.ndarray
    y: np.ndarray
    rho: float
    backtracks: int = 0
    theta: np.ndarray | None = None
    w: np.ndarray | None = None
    drift: np.ndarray | None = None
    error: np.ndarray | None = None


@dataclass(frozen=True)
class SeparatorEval:
    """One iteration's affine separator: offsets u_i, v, its gradient norm
    pi, the value at the current point, and the resulting steplength."""

    u: tuple[np.ndarray, ...]
    v: np.ndarray
    pi: float
    phi_at_p: float
    alpha: float


@dataclass(frozen=True)
class IterationRecord:
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


@dataclass(frozen=True)
class StepOutcome:
    kind: str  # "continue" | "converged" | "exact-termination" | "budget"
    solution: PrimalDualPoint | None = None


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
    base = gz + rho * w_delayed
    e, res = inject_error(error_policy, base, slot.op, rho, gz, w_delayed)
    return BlockState(x=res.x, y=res.y, rho=rho, theta=gz, w=w_delayed, error=e)


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
    theta = slot.map.apply(z_delayed)
    zeta = forward_eval(slot.op, theta)
    drift = zeta - w_delayed
    if np.linalg.norm(drift) <= config.quickstop_eps * (1.0 + np.linalg.norm(w_delayed)):
        x, y, rho_hat, count = theta, zeta, rho_init, 0
    else:
        rho = rho_init
        count = 0
        while True:
            count += 1
            if count > config.max_backtracks:
                raise BacktrackLimitError(
                    f"linesearch exceeded {config.max_backtracks} trials "
                    "(the operator may violate the continuity assumption)")
            x_try = theta - rho * drift
            try:
                y_try = forward_eval(slot.op, x_try)
            except NonFiniteError:
                pass  # under continuity, NaN/Inf at x~ only means the step was too long
            else:
                gap = theta - x_try
                if config.delta * np.dot(gap, gap) - np.dot(gap, y_try - w_delayed) <= 0.0:
                    break
            rho = config.nu * rho
        x, y, rho_hat = x_try, y_try, rho
    return BlockState(x=x, y=y, rho=rho_hat, backtracks=count, theta=theta, w=w_delayed,
                      drift=drift)


# ---------------------------------------------------------------------------
# separator and projection
# ---------------------------------------------------------------------------

def evaluate_separator(blocks, p: PrimalDualPoint, maps, gamma: float,
                       beta: float = 1.0) -> SeparatorEval:
    """Assemble the affine separator from the current block values.

    u_i = x_i - G_i x_n and v = sum_i G_i* y_i + y_n form its gradient;
    pi = ||u||^2 + gamma^{-1}||v||^2 is the squared gradient norm in the
    weighted metric, and the value at the current point is

        phi(p) = <z, v> + sum_i <w_i, u_i> - sum_i <x_i, y_i>.

    The steplength is beta*max(0, phi)/pi when pi > 0 and zero otherwise.
    Raises :class:`~projsplit.errors.NonFiniteError` when pi or phi is not
    finite: a block value overflowed or is NaN/Inf, and the steplength
    would be meaningless.
    """
    n = len(blocks)
    x_n, y_n = blocks[-1].x, blocks[-1].y
    u = tuple(blocks[i].x - maps[i].apply(x_n) for i in range(n - 1))
    v = np.zeros(y_n.shape[0])
    for i in range(n - 1):
        v = v + maps[i].apply_adjoint(blocks[i].y)
    v = v + y_n
    pi = float(sum(np.dot(ui, ui) for ui in u) + np.dot(v, v) / gamma)
    phi = float(np.dot(p.z.entries, v))
    for wi, ui in zip(p.w, u):
        phi += float(np.dot(wi.entries, ui))
    for b in blocks:
        phi -= float(np.dot(b.x, b.y))
    if not (math.isfinite(pi) and math.isfinite(phi)):
        raise NonFiniteError(f"separator is not finite (pi={pi}, phi={phi})")
    alpha = beta * max(0.0, phi) / pi if pi > 0.0 else 0.0
    return SeparatorEval(u=u, v=v, pi=pi, phi_at_p=phi, alpha=alpha)


# not called by the solver: perfbench/tracing.py looks it up here
def separator_gradient(sep: SeparatorEval, gamma: float) -> PrimalDualPoint:
    """The separator gradient as a point in the product space: (v/gamma, u)."""
    v = sep.v / gamma
    return PrimalDualPoint(Vec(Space(v.shape[0]), v),
                           tuple(Vec(Space(ui.shape[0]), ui) for ui in sep.u))


def project(p: PrimalDualPoint, sep: SeparatorEval, gamma: float,
            alpha_hook=None) -> PrimalDualPoint:
    """Relaxed projection of p onto the separator's zero hyperplane.

    z+ = z - alpha*v/gamma and w_i+ = w_i - alpha*u_i; a zero steplength
    returns p itself. ``alpha_hook`` is test instrumentation that may
    transform the steplength to corrupt the projection deliberately.
    """
    alpha = sep.alpha if alpha_hook is None else alpha_hook(sep.alpha)
    if alpha == 0.0:
        return p
    z_new = Vec(p.z.space, p.z.entries - (alpha / gamma) * sep.v)
    w_new = tuple(Vec(wi.space, wi.entries - alpha * ui) for wi, ui in zip(p.w, sep.u))
    return PrimalDualPoint(z_new, w_new)


# ---------------------------------------------------------------------------
# the outer loop
# ---------------------------------------------------------------------------

class Engine:
    """Driver for one solver run. Single-threaded, deterministic given seeds.

    After each step ``blocks`` holds the block states and ``separator`` that
    iteration's :class:`SeparatorEval`; a ``run`` callback may read both.

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

        n = problem.n
        rho = self.config.resolve_rho(n)
        ident = problem.identity_map()
        self.slots = [
            OperatorSlot(index=i, op=problem.operators[i],
                         map=problem.maps[i] if i < n - 1 else ident,
                         kind="forward" if i in problem.forward_blocks else "backward",
                         rho_init=rho[i])
            for i in range(n)
        ]
        self.point = PrimalDualPoint(problem.z_init, problem.w_init)
        self.history = HistoryBuffer(self.schedule.D)
        self.history.store(1, self.point)
        if initial_blocks is None:
            # placeholders (G_i z1, 0), not in gra T_i: marking every block
            # overdue makes select_blocks replace them all at iteration 1
            self.blocks = [
                BlockState(x=s.map.apply(self.point.z.entries), y=np.zeros(s.op.space.dim),
                           rho=s.rho_init)
                for s in self.slots
            ]
            self.last_selected = [1 - self.schedule.M] * n
        else:
            self.blocks = [
                BlockState(x=x.entries, y=y.entries, rho=s.rho_init)
                for s, (x, y) in zip(self.slots, initial_blocks)
            ]
            self.last_selected = [0] * n
        self.k = 0
        self.covered: set[int] = set()
        self.separator: SeparatorEval | None = None
        self.records: list[IterationRecord] = []
        self._all_blocks = frozenset(range(n))

    @property
    def n(self) -> int:
        return self.problem.n

    def _beta_at(self, k: int) -> float:
        if self.beta_schedule is None:
            return self.config.beta
        beta = float(self.beta_schedule(k))
        if not self.config.beta_lo <= beta <= self.config.beta_hi:
            raise ConfigError(f"beta schedule produced {beta} outside "
                              f"[{self.config.beta_lo}, {self.config.beta_hi}] at iteration {k}")
        return beta

    def step(self) -> StepOutcome:
        """Execute one outer iteration; see the module docstring for the shape."""
        cfg = self.config
        if self.k >= cfg.max_iters:
            return StepOutcome("budget")
        k = self.k = self.k + 1
        n = self.n
        maps = self.problem.maps

        selected = select_blocks(self.schedule, n, k, self.last_selected)
        delays = tuple(delayed_index(self.schedule, i, k) for i in selected)
        # iterate k is the current point, so a zero-delay read of the last
        # block shares w_n with the dual residual below
        wn = derived_wn(self.point, maps)
        for i, d in zip(selected, delays):
            self.last_selected[i] = k
            slot = self.slots[i]
            stale = self.history.read(d)
            z_d = stale.z.entries
            if i < n - 1:
                w_d = stale.w[i].entries
            else:
                w_d = wn if d == k else derived_wn(stale, maps)
            try:
                if slot.kind == "backward":
                    self.blocks[i] = backward_update(slot, z_d, w_d, slot.rho_init,
                                                     self.error_policy)
                else:
                    rho_start = min(slot.rho_init, self.blocks[i].rho / cfg.nu)
                    self.blocks[i] = forward_update_with_backtrack(slot, z_d, w_d, rho_start,
                                                                   cfg)
            except (ShapeError, BacktrackLimitError) as exc:  # NonFiniteError is a ShapeError
                raise _violation(k, slot, exc) from exc
        self.covered.update(selected)

        beta_k = self._beta_at(k)
        try:
            sep = self.separator = evaluate_separator(self.blocks, self.point, maps,
                                                      cfg.gamma, beta_k)
        except NonFiniteError as exc:
            culprit = self.slots[_largest_block(self.blocks)]
            raise _violation(k, culprit, exc, "; this block has the largest value") from exc

        # a zero-delay update read iterate k, so its theta already is G_i z
        current = {i for i, d in zip(selected, delays) if d == k}
        z, w = self.point.z.entries, self.point.w
        primal = tuple(
            float(np.linalg.norm((b.theta if i in current else s.map.apply(z)) - b.x))
            for i, (s, b) in enumerate(zip(self.slots, self.blocks)))
        dual = tuple(
            float(np.linalg.norm(b.y - (w[i].entries if i < n - 1 else wn)))
            for i, b in enumerate(self.blocks))
        fully_covered = self.covered == self._all_blocks

        exact = sep.pi <= cfg.pi_zero_eps and fully_covered
        converged = (not exact and fully_covered
                     and max(primal) <= cfg.tol_primal and max(dual) <= cfg.tol_dual)
        projected = not exact and not converged and sep.pi > cfg.pi_zero_eps

        self.records.append(IterationRecord(
            iteration=k, phi=sep.phi_at_p, pi=sep.pi, alpha=sep.alpha, beta=beta_k,
            selected=selected, delays=delays,
            primal_residuals=primal, dual_residuals=dual,
            max_primal_residual=max(primal), max_dual_residual=max(dual),
            backtracks=tuple(self.blocks[i].backtracks if i in selected else 0
                             for i in range(n)),
            stepsizes=tuple(b.rho for b in self.blocks),
            projected=projected,
        ))

        if exact:
            solution = PrimalDualPoint(
                Vec(self.problem.space0, self.blocks[-1].x),
                tuple(Vec(wi.space, self.blocks[i].y) for i, wi in enumerate(w)))
            return StepOutcome("exact-termination", solution)
        if converged:
            return StepOutcome("converged", self.point)
        if projected:
            try:
                self.point = project(self.point, sep, cfg.gamma, self.alpha_hook)
            except NonFiniteError as exc:
                raise AssumptionViolationError(f"iteration {k}, projection: {exc}") from exc
        # pi ~ 0 without full coverage: zero steplength, point carries over
        self.history.store(k + 1, self.point)
        return StepOutcome("continue")

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
