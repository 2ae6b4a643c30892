"""Core iteration: block updates, separator assembly, projection, termination.

Each outer iteration processes a scheduled subset of blocks. Prox-capable
blocks take a resolvent step at a (possibly stale, possibly perturbed)
input; forward blocks take two operator evaluations per linesearch trial,

    x~ = theta - rho*(T(theta) - w),    theta = G z,

shrinking rho geometrically until the accepted-slope test

    delta*||theta - x~||^2 - <theta - x~, T(x~) - w> <= 0

holds. The block results define an affine separator that is nonpositive on
the solution set; the iterate is then projected onto its zero hyperplane,
scaled by an overrelaxation factor. The loop stops on small residuals, on
an exactly-zero separator gradient (which certifies the block values as a
solution), or on the iteration budget.

The engine computes only what the iteration needs. The identities that
verify it (update equations, gradient norm, error admissibility) are
checked by :class:`projsplit.checks.InvariantMonitor` from the inputs each
:class:`BlockState` keeps and from :attr:`Engine.separator`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import BacktrackLimitError, ConfigError
# gamma_norm, error_inequality_gaps: unused here, but perfbench/tracing.py wraps them here
from .linalg import PrimalDualPoint, Vec, derived_wn, gamma_norm  # noqa: F401
from .operators import ErrorPolicy, error_inequality_gaps, forward_eval, inject_error  # noqa: F401
from .scheduler import HistoryBuffer, SchedulePolicy, delayed_index, select_blocks


@dataclass(frozen=True)
class EngineConfig:
    """Solver parameters.

    gamma weighs the primal block in the product-space metric. beta is the
    projection overrelaxation, kept inside [beta_lo, beta_hi] with
    0 < beta_lo <= beta_hi < 2. nu in (0,1) is the linesearch shrink factor
    and delta > 0 its acceptance threshold. rho_init (scalar or per-block)
    is the initial trial stepsize, required to stay inside
    [rho_min, rho_max]. quickstop_eps is the relative tolerance for the
    immediate-accept branch of the linesearch, and pi_zero_eps the threshold
    below which the separator gradient is treated as exactly zero.
    """

    gamma: float = 1.0
    beta: float = 1.0
    beta_lo: float = 1.0
    beta_hi: float = 1.0
    nu: float = 0.5
    delta: float = 1.0
    max_backtracks: int = 200
    rho_init: float | tuple = 1.0
    rho_min: float = 1e-12
    rho_max: float = 1e12
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
        if not 0 < self.rho_min <= self.rho_max < np.inf:
            raise ConfigError(f"need 0 < rho_min <= rho_max < inf, got "
                              f"({self.rho_min}, {self.rho_max})")
        for r in np.atleast_1d(np.asarray(self.rho_init, dtype=float)):
            if not self.rho_min <= r <= self.rho_max:
                raise ConfigError(f"rho_init must lie in [rho_min, rho_max]="
                                  f"[{self.rho_min}, {self.rho_max}], got {r}")
        if n is not None:
            rho = np.atleast_1d(np.asarray(self.rho_init, dtype=float))
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

    x: Vec
    y: Vec
    rho: float
    backtracks: int = 0
    theta: Vec | None = None
    w: Vec | None = None
    drift: Vec | None = None
    error: Vec | None = None


@dataclass(frozen=True)
class SeparatorEval:
    """One iteration's affine separator: offsets u_i, v, its gradient norm
    pi, the value at the current point, and the resulting steplength."""

    u: tuple[Vec, ...]
    v: Vec
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

def backward_update(slot: OperatorSlot, z_delayed: Vec, w_delayed: Vec, rho: float,
                    error_policy: ErrorPolicy) -> BlockState:
    """Resolvent step at input G z + rho*w + e with an admissible error e."""
    gz = slot.map.apply(z_delayed)
    base = gz + rho * w_delayed
    e, res = inject_error(error_policy, base, slot.op, rho, gz, w_delayed)
    return BlockState(x=res.x, y=res.y, rho=rho, theta=gz, w=w_delayed, error=e)


def forward_update_with_backtrack(slot: OperatorSlot, z_delayed: Vec, w_delayed: Vec,
                                  rho_init: float, config: EngineConfig) -> BlockState:
    """Two-evaluation step with geometric backtracking.

    If T(G z) already matches w (to quickstop tolerance) the pair is
    accepted immediately with the initial stepsize and a count of zero.
    Otherwise trials j = 1, 2, ... evaluate the candidate at stepsize
    rho_init * nu^(j-1) until the accepted-slope test holds; exceeding the
    trial budget raises :class:`BacktrackLimitError`, since finiteness is
    guaranteed whenever the operator really is continuous.
    """
    theta = slot.map.apply(z_delayed)
    zeta = forward_eval(slot.op, theta)
    drift = zeta - w_delayed
    if drift.norm() <= config.quickstop_eps * (1.0 + w_delayed.norm()):
        x, y, rho_hat, count = theta, zeta, rho_init, 0
    else:
        rho = rho_init
        count = 0
        while True:
            count += 1
            if count > config.max_backtracks:
                raise BacktrackLimitError(
                    f"block {slot.index}: linesearch exceeded {config.max_backtracks} trials "
                    f"(operator '{slot.op.name}' may violate the continuity assumption)")
            x_try = theta - rho * drift
            y_try = forward_eval(slot.op, x_try)
            gap = theta - x_try
            if config.delta * gap.dot(gap) - gap.dot(y_try - w_delayed) <= 0.0:
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
    """
    n = len(blocks)
    x_n, y_n = blocks[-1].x, blocks[-1].y
    u = tuple(blocks[i].x - maps[i].apply(x_n) for i in range(n - 1))
    v = y_n.space.zeros()
    for i in range(n - 1):
        v = v + maps[i].apply_adjoint(blocks[i].y)
    v = v + y_n
    pi = sum(ui.dot(ui) for ui in u) + v.dot(v) / gamma
    phi = p.z.dot(v)
    for wi, ui in zip(p.w, u):
        phi += wi.dot(ui)
    for b in blocks:
        phi -= b.x.dot(b.y)
    alpha = beta * max(0.0, phi) / pi if pi > 0.0 else 0.0
    return SeparatorEval(u=u, v=v, pi=pi, phi_at_p=phi, alpha=alpha)


# verification only (the monitor's pi-identity); perfbench/tracing.py looks it up here
def separator_gradient(sep: SeparatorEval, gamma: float) -> PrimalDualPoint:
    """The separator gradient as a point in the product space: (v/gamma, u)."""
    return PrimalDualPoint(sep.v / gamma, sep.u)


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
    z_new = p.z - (alpha / gamma) * sep.v
    w_new = tuple(wi - alpha * ui for wi, ui in zip(p.w, sep.u))
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
                BlockState(x=s.map.apply(self.point.z), y=s.op.space.zeros(), rho=s.rho_init)
                for s in self.slots
            ]
            self.last_selected = [1 - self.schedule.M] * n
        else:
            self.blocks = [
                BlockState(x=x, y=y, rho=s.rho_init)
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
            z_d = stale.z
            if i < n - 1:
                w_d = stale.w[i]
            else:
                w_d = wn if d == k else derived_wn(stale, maps)
            if slot.kind == "backward":
                self.blocks[i] = backward_update(slot, z_d, w_d, slot.rho_init,
                                                 self.error_policy)
            else:
                self.blocks[i] = forward_update_with_backtrack(slot, z_d, w_d, slot.rho_init,
                                                               cfg)
        self.covered.update(selected)

        beta_k = self._beta_at(k)
        sep = self.separator = evaluate_separator(self.blocks, self.point, maps, cfg.gamma,
                                                  beta_k)

        primal = tuple(
            (self.slots[i].map.apply(self.point.z) - self.blocks[i].x).norm() for i in range(n))
        dual = tuple(
            (self.blocks[i].y - (self.point.w[i] if i < n - 1 else wn)).norm() for i in range(n))
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
            solution = PrimalDualPoint(self.blocks[-1].x,
                                       tuple(self.blocks[i].y for i in range(n - 1)))
            return StepOutcome("exact-termination", solution)
        if converged:
            return StepOutcome("converged", self.point)
        if projected:
            self.point = project(self.point, sep, cfg.gamma, self.alpha_hook)
        # pi ~ 0 without full coverage: zero steplength, point carries over
        self.history.store(k + 1, self.point)
        return StepOutcome("continue")

    def run(self, callback=None) -> RunTrace:
        """Iterate to a terminal outcome; never raises for linesearch failure.

        ``callback(engine, record)`` fires after every completed iteration,
        once the projection (if any) has been applied.
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
        except BacktrackLimitError as exc:
            status, message = "assumption-violation", str(exc)
        return RunTrace(status=status, iterations=len(self.records), records=self.records,
                        solution=solution, final_point=self.point, message=message,
                        wall_time=time.perf_counter() - t0)


def run(problem, config: EngineConfig | None = None,
        schedule: SchedulePolicy | None = None,
        error_policy: ErrorPolicy | None = None,
        callback=None, **engine_kwargs) -> RunTrace:
    """Build an engine for the problem and drive it to a terminal status."""
    eng = Engine(problem, config, schedule, error_policy, **engine_kwargs)
    return eng.run(callback=callback)
