"""Verification of the solver's structural guarantees.

The engine computes only what the iteration needs; verifying it is this
module's job. :class:`InvariantMonitor` rides along a run as a callback
(``run_with_checks`` and ``projsplit verify`` attach it; a plain run does
no checking) and checks, every iteration:

* separation     -- the separator is nonpositive at the reference solution;
* fejer          -- the weighted distance to the reference never increases;
* pi-identity    -- the separator's gradient norm matches an independent
                    assembly of the gradient in the weighted metric;
* update-identity-- each block update reproduces its defining equation;
* projection     -- the relaxed projection lands where the separator
                    takes (1 - beta) times its old value;
* error-bounds   -- injected prox errors satisfied their admissibility
                    inequalities;
* stepsize-bound -- each forward block's accepted stepsize is at most its
                    rho_init and at most its previous one divided by nu,
                    so trial stepsizes stay bounded above; and its pairs
                    (theta, T theta), (x, y) meet the operator's declared
                    strong-monotonicity modulus, on which the linesearch
                    skips trials.

The identities are recomputed from what the engine hands over by
reference: the inputs each updated :class:`~projsplit.engine.BlockState`
keeps, the engine's last separator and the map products of its new iterate
(:meth:`~projsplit.engine.Engine.entry`). No operator is evaluated here.
Schedule guarantees (coverage window, staleness bound) are audited by
:class:`ScheduleAudit`, a fold fed one record at a time: from the run's
callback under ``run_with_checks``, or post hoc over a list of records by
:func:`audit_schedule`.

Each check has a fixed tolerance, a module constant below, and a
violation per iteration that is positive when the check fails there. A
check's :class:`CheckResult` keeps the largest violation of the run (0 if
none is positive) and the first iteration with a positive one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import BlockState, Engine, IterationRecord, SeparatorEval
from .errors import ConfigError, ShapeError
from .linalg import PrimalDualPoint, dual_sum, gamma_norm, weighted_norm
from .operators import error_inequality_gaps


# Tolerances of the per-iteration checks. Separation and projection scale
# theirs with the size of the values they compare (see InvariantMonitor).
SEPARATION_TOL = 1e-9
FEJER_SLACK = 1e-10
PI_IDENTITY_TOL = 1e-10
UPDATE_IDENTITY_TOL = 1e-10
PROJECTION_TOL = 1e-9
ERROR_ADMISSIBILITY_TOL = 1e-12
MODULUS_TOL = 1e-12

_MONITOR_CHECKS = ("separation", "fejer", "pi-identity", "update-identity", "projection",
                   "error-bounds", "stepsize-bound")


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float = 0.0
    first_failure: int | None = None
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        where = "" if self.first_failure is None else f"  first bad iteration: {self.first_failure}"
        return f"{self.name:<18} {status}  worst={self.worst:.3e}{where}"


def affine_value(blocks, maps, q) -> float:
    """The separator value at an arbitrary point ``q = (z, w)`` of arrays, assembled independently.

    Computed from the inner products of block mismatches,

        sum_i <G_i z - x_i, y_i - w_i> + <z - x_n, y_n - w_n(q)>,

    rather than from the (u, v) coordinates, so it cross-checks
    :func:`~projsplit.engine.evaluate_separator`. Nonpositive at every
    solution point.
    """
    z, w = q
    if len(w) != len(blocks) - 1:
        raise ShapeError(f"point has {len(w)} dual blocks, expected {len(blocks) - 1}")
    return _affine_value(blocks, [g.apply(z) for g in maps], q, dual_sum(w, maps, z.shape[0]))


def _affine_value(blocks, gz, q, wn) -> float:
    """:func:`affine_value` at q given G_i z (``gz``, from i = 0) and w_n(q) (``wn``)."""
    z, w = q
    total = 0.0
    for i in range(len(w)):
        b = blocks[i]
        total += (gz[i] - b.x).dot(b.y - w[i])
    last = blocks[-1]
    total += (z - last.x).dot(last.y - wn)
    return float(total)


def pi_gap(sep: SeparatorEval, gamma: float) -> float:
    """Relative mismatch between pi and the squared gamma-norm of the gradient."""
    grad_sq = weighted_norm(sep.v / gamma, sep.u, gamma) ** 2
    return abs(sep.pi - grad_sq) / max(sep.pi, grad_sq, 1e-300)


def distance(p, q, gamma: float) -> float:
    """The gamma-norm of p - q for points ``p = (z, w)`` and ``q`` of arrays."""
    (zp, wp), (zq, wq) = p, q
    return weighted_norm(zp - zq, [wp[i] - wq[i] for i in range(len(wp))], gamma)


def update_gap(block: BlockState, kind: str) -> float:
    """Normalized residual of the equation that defined a block update.

    Forward: x = theta - rho*(T(theta) - w). Backward: x + rho*y equals the
    resolvent's input theta + rho*w + e.
    """
    if kind == "forward":
        recon = block.theta - block.rho * block.drift
        return _norm(block.x - recon) / (1.0 + _norm(recon))
    a = block.theta + block.rho * block.w + block.error
    return _norm(block.x + block.rho * block.y - a) / (1.0 + _norm(a))


def modulus_gap(block: BlockState, modulus: float) -> float:
    """How far a forward update's pairs fall short of the operator's declared modulus.

    With D = theta - x and T(theta) = drift + w, strong monotonicity asks
    <D, T(theta) - y> >= modulus*||D||^2. The shortfall is scaled by
    ||D||*(||T(theta)|| + ||y||), the size of its rounding error, and is
    <= 0 when the pairs comply. A quickstop state (D = 0) has nothing to
    check and gives -inf.
    """
    gap = block.theta - block.x
    gap_sq = gap.dot(gap)
    if gap_sq == 0.0:
        return -math.inf
    t_theta = block.drift + block.w
    shortfall = modulus * gap_sq - gap.dot(t_theta - block.y)
    scale = math.sqrt(gap_sq) * (math.sqrt(t_theta.dot(t_theta)) + math.sqrt(block.y.dot(block.y)))
    if scale == 0.0:  # T(theta) = y = 0: only a positive modulus is violated
        return math.inf if shortfall > 0.0 else -math.inf
    return shortfall / scale


def _norm(x: np.ndarray) -> float:
    """Euclidean norm, bitwise equal to ``np.linalg.norm`` on a 1-d float64 array."""
    return math.sqrt(x.dot(x))


def _fold(worst: list, first_failure: list, violations, k: int):
    """Fold iteration k's worst violation per check into the run's worst and first failure.

    A violation is positive when its check fails; ``-inf`` marks a check
    with nothing to check at k.
    """
    for j, v in enumerate(violations):
        if v > worst[j]:
            worst[j] = float(v)
        if v > 0.0 and first_failure[j] is None:
            first_failure[j] = k


class InvariantMonitor:
    """Per-iteration verification callback; pass as ``engine.run(callback=...)``.

    ``reference`` enables the separation and Fejer checks; without it only
    the self-contained identities are verified. The monitor measures
    distances in the metric of ``gamma``, which must equal the engine's
    ``config.gamma`` (a :class:`~projsplit.errors.ConfigError` otherwise,
    on the first call). Since an engine starts at the problem's stored
    initial point, so does the Fejer check. After each step the monitor
    reads the engine's state: the blocks updated in that iteration and
    ``engine.separator``, and checks the projection on the new iterate's
    map products (:meth:`~projsplit.engine.Engine.entry`), which the
    engine's next step reuses. The partition and the operators' moduli come
    from ``engine.problem``, and each block's ``rho_init`` from
    ``engine.config``, resolved on the first call. Until it has seen a
    forward block's first update, it takes that block's previous stepsize to
    be its ``rho_init``, as the engine's initial block states do. The
    tolerances are this module's constants.
    """

    def __init__(self, problem, gamma: float, reference=None):
        self.problem = problem
        self.gamma = gamma
        self._worst = [0.0] * len(_MONITOR_CHECKS)
        self._first_failure = [None] * len(_MONITOR_CHECKS)
        self._rho_init = self._last_rho = None  # resolved from the engine's config
        self.ref_point = None
        if reference is not None:
            # the reference is fixed: G_i z* and w_n(z*) are computed once
            ref = self.ref_point = reference.point
            z_ref, w_ref = self._ref = ref.arrays
            self._ref_gz = [g.apply(z_ref) for g in problem.maps]
            self._ref_wn = dual_sum(w_ref, problem.maps, z_ref.shape[0])
            self.ref_scale = 1.0 + gamma_norm(ref, gamma)
            start = PrimalDualPoint(problem.z_init, problem.w_init)
            self._prev_dist = distance(start.arrays, self._ref, gamma)

    def __call__(self, engine: Engine, record: IterationRecord):
        k = record.iteration
        config = engine.config
        if config.gamma != self.gamma:
            raise ConfigError(f"the monitor measures with gamma={self.gamma} but the engine "
                              f"runs with gamma={config.gamma}; pass the engine's gamma")
        problem = engine.problem
        rho_init, last_rho = self._rho_init, self._last_rho
        if rho_init is None:
            rho_init = self._rho_init = config.resolve_rho(problem.n)
            last_rho = self._last_rho = list(rho_init)
        separation = fejer = projection = update = error = stepsize = -math.inf
        pi = pi_gap(engine.separator, config.gamma) - PI_IDENTITY_TOL
        for i in record.selected:
            block = engine.blocks[i]
            if i in problem.forward_blocks:
                update = max(update, update_gap(block, "forward") - UPDATE_IDENTITY_TOL)
                bound = min(rho_init[i], last_rho[i] / config.nu)
                stepsize = max(stepsize, block.rho - bound,
                               modulus_gap(block, problem.operators[i].modulus) - MODULUS_TOL)
                last_rho[i] = block.rho
            else:
                update = max(update, update_gap(block, "backward") - UPDATE_IDENTITY_TOL)
                g1, g2 = error_inequality_gaps(block.error, block.x, block.y, block.theta, block.w,
                                               block.rho, engine.error_policy.sigma)
                error = max(error, -g1 - ERROR_ADMISSIBILITY_TOL, -g2 - ERROR_ADMISSIBILITY_TOL)

        if record.projected and record.phi > 0.0:
            # phi is affine, so the relaxed projection leaves (1 - beta)*phi;
            # the mismatch form at the entry's point (G z ends with z itself)
            # is independent of (u, v), and a stale entry lands elsewhere
            gz, w, wn = engine.entry()
            landed = _affine_value(engine.blocks, gz, (gz[-1], w), wn)
            projection = (abs(landed - (1.0 - config.beta) * record.phi)
                          - PROJECTION_TOL * (1.0 + abs(record.phi)))

        if self.ref_point is not None:
            sep_val = _affine_value(engine.blocks, self._ref_gz, self._ref, self._ref_wn)
            separation = sep_val - SEPARATION_TOL * self.ref_scale
            dist = distance(engine.iterate, self._ref, self.gamma)
            fejer = dist - self._prev_dist - FEJER_SLACK
            self._prev_dist = dist

        _fold(self._worst, self._first_failure,  # in _MONITOR_CHECKS order
              (separation, fejer, pi, update, projection, error, stepsize), k)

    def results(self) -> list[CheckResult]:
        return [CheckResult(name, self._first_failure[j] is None, self._worst[j],
                            self._first_failure[j])
                for j, name in enumerate(_MONITOR_CHECKS)
                if self.ref_point is not None or name not in ("separation", "fejer")]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results())


class ScheduleAudit:
    """Verification of the coverage and staleness guarantees, fed one record at a time.

    Coverage: no block goes ``m_window`` consecutive iterations without
    being selected, counting from the start and including the tail of the
    run. Staleness: every delayed read satisfies 1 <= d <= k and
    k - d <= max_delay. Records are fed in iteration order; the audit keeps
    each block's last selection, not the records.
    """

    def __init__(self, n: int, m_window: int, max_delay: int):
        self.m_window = m_window
        self.max_delay = max_delay
        self.audited = 0
        self._last_seen = [0] * n
        self._worst = [0.0, 0.0]
        self._first_failure = [None, None]

    def __call__(self, record: IterationRecord):
        k = record.iteration
        last_seen = self._last_seen
        for i in record.selected:
            last_seen[i] = k
        # a gap of m_window means some window of m_window consecutive
        # iterations never touched the least recently selected block
        coverage = (k - min(last_seen)) - (self.m_window - 1)
        staleness = -math.inf
        for d in record.delays:
            staleness = max(staleness, (k - d) - self.max_delay, 1 - d)
        _fold(self._worst, self._first_failure, (coverage, staleness), k)
        self.audited += 1

    def results(self) -> list[CheckResult]:
        worst, first_failure = self._worst, self._first_failure
        return [CheckResult("coverage", first_failure[0] is None, worst[0], first_failure[0],
                            f"{self.audited} iterations audited, window M={self.m_window}"),
                CheckResult("staleness", first_failure[1] is None, worst[1], first_failure[1],
                            f"max allowed staleness D={self.max_delay}")]


def audit_schedule(records, n: int, m_window: int, max_delay: int) -> list[CheckResult]:
    """:class:`ScheduleAudit` over a run's records, post hoc."""
    audit = ScheduleAudit(n, m_window, max_delay)
    for record in records:
        audit(record)
    return audit.results()


def run_with_checks(problem, reference, config, schedule=None, error_policy=None):
    """Run the engine under the invariant monitor and schedule audit.

    Returns ``(trace, results)`` where ``results`` combines the per-iteration
    checks with the schedule audit. Both are fed each record from the run's
    callback; an iteration whose projection failed ends the run without a
    callback, and the audit reads its record from the trace.
    """
    engine = Engine(problem, config, schedule, error_policy)
    monitor = InvariantMonitor(problem, engine.config.gamma, reference)
    audit = ScheduleAudit(problem.n, engine.schedule.M, engine.schedule.D)

    def check(eng, record):
        monitor(eng, record)
        audit(record)

    trace = engine.run(callback=check)
    for record in trace.records[audit.audited:]:
        audit(record)
    return trace, monitor.results() + audit.results()
