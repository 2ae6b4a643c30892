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
* projection     -- an unrelaxed projection lands on the zero hyperplane;
* error-bounds   -- injected prox errors satisfied their admissibility
                    inequalities;
* stepsize-bound -- each forward block's accepted stepsize is at most its
                    rho_init and at most its previous one divided by nu,
                    so trial stepsizes stay bounded above.

The identities are recomputed from what the engine hands over by
reference: the inputs each updated :class:`~projsplit.engine.BlockState`
keeps and the engine's last separator. No operator is evaluated here.
Schedule guarantees (coverage window, staleness bound) are audited
post-hoc from the trace records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import BlockState, Engine, IterationRecord, SeparatorEval
from .errors import ShapeError
from .linalg import PrimalDualPoint, derived_wn, gamma_norm, weighted_norm
from .operators import ProxResult, error_inequality_gaps


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


def affine_value(blocks, maps, q: PrimalDualPoint) -> float:
    """The separator value at an arbitrary point, assembled independently.

    Computed from the inner products of block mismatches,

        sum_i <G_i z - x_i, y_i - w_i> + <z - x_n, y_n - w_n(q)>,

    rather than from the (u, v) coordinates, so it cross-checks
    :func:`~projsplit.engine.evaluate_separator`. Nonpositive at every
    solution point.
    """
    n = len(blocks)
    if len(q.w) != n - 1:
        raise ShapeError(f"point has {len(q.w)} dual blocks, expected {n - 1}")
    z = q.z.entries
    total = 0.0
    for i in range(n - 1):
        total += np.dot(maps[i].apply(z) - blocks[i].x, blocks[i].y - q.w[i].entries)
    wn = derived_wn(q, maps)
    total += np.dot(z - blocks[-1].x, blocks[-1].y - wn)
    return float(total)


def pi_gap(sep: SeparatorEval, gamma: float) -> float:
    """Relative mismatch between pi and the squared gamma-norm of the gradient."""
    grad_sq = weighted_norm(sep.v / gamma, sep.u, gamma) ** 2
    return abs(sep.pi - grad_sq) / max(sep.pi, grad_sq, 1e-300)


def distance(p: PrimalDualPoint, q: PrimalDualPoint, gamma: float) -> float:
    """The gamma-norm of p - q."""
    return weighted_norm(p.z.entries - q.z.entries,
                         [wp.entries - wq.entries for wp, wq in zip(p.w, q.w)], gamma)


def update_gap(block: BlockState, kind: str) -> float:
    """Normalized residual of the equation that defined a block update.

    Forward: x = theta - rho*(T(theta) - w). Backward: x + rho*y equals the
    resolvent's input theta + rho*w + e.
    """
    if kind == "forward":
        recon = block.theta - block.rho * block.drift
        return float(np.linalg.norm(block.x - recon) / (1.0 + np.linalg.norm(recon)))
    a = block.theta + block.rho * block.w + block.error
    return float(np.linalg.norm(block.x + block.rho * block.y - a) / (1.0 + np.linalg.norm(a)))


def error_gap(block: BlockState, sigma: float) -> float:
    """Worst admissibility-inequality violation by a backward update's error; 0 if admissible."""
    g1, g2 = error_inequality_gaps(block.error, ProxResult(block.x, block.y), block.theta,
                                   block.w, block.rho, sigma)
    return max(0.0, -g1, -g2)


class _Accumulator:
    def __init__(self, name):
        self.name = name
        self.worst = 0.0
        self.first_failure = None

    def observe(self, violation: float, iteration: int):
        self.worst = max(self.worst, violation)
        if violation > 0.0 and self.first_failure is None:
            self.first_failure = iteration

    def result(self) -> CheckResult:
        return CheckResult(self.name, self.first_failure is None, self.worst,
                           self.first_failure)


class InvariantMonitor:
    """Per-iteration verification callback; pass as ``engine.run(callback=...)``.

    ``reference`` enables the separation and Fejer checks; without it only
    the self-contained identities are verified. The monitor assumes the run
    starts from the problem's stored initial point unless ``initial_point``
    says otherwise. After each step it reads the engine's state: the blocks
    updated in that iteration and ``engine.separator``. Until it has seen a
    forward block's first update, it takes that block's previous stepsize
    to be its ``rho_init``, as the engine's initial block states do.
    """

    def __init__(self, problem, gamma: float, reference=None, *,
                 initial_point: PrimalDualPoint | None = None,
                 separation_tol=1e-9, fejer_slack=1e-10, pi_tol=1e-10,
                 update_tol=1e-10, projection_tol=1e-9, error_tol=1e-12):
        self.problem = problem
        self.gamma = gamma
        self.tols = dict(separation=separation_tol, fejer=fejer_slack, pi=pi_tol,
                         update=update_tol, projection=projection_tol, error=error_tol)
        self._acc = {name: _Accumulator(name) for name in
                     ("separation", "fejer", "pi-identity", "update-identity",
                      "projection", "error-bounds", "stepsize-bound")}
        self._last_rho: dict[int, float] = {}
        if reference is not None:
            self.ref_point = reference.point
            self.ref_scale = 1.0 + gamma_norm(self.ref_point, gamma)
            start = initial_point if initial_point is not None else \
                PrimalDualPoint(problem.z_init, problem.w_init)
            self._prev_dist = distance(start, self.ref_point, gamma)
        else:
            self.ref_point = None
            self._prev_dist = None

    def __call__(self, engine: Engine, record: IterationRecord):
        k = record.iteration
        self._acc["pi-identity"].observe(
            pi_gap(engine.separator, engine.config.gamma) - self.tols["pi"], k)
        for i in record.selected:
            block, kind = engine.blocks[i], engine.slots[i].kind
            self._acc["update-identity"].observe(update_gap(block, kind) - self.tols["update"], k)
            if kind == "backward":
                self._acc["error-bounds"].observe(
                    error_gap(block, engine.error_policy.sigma) - self.tols["error"], k)
            else:
                rho_init = engine.slots[i].rho_init
                bound = min(rho_init, self._last_rho.get(i, rho_init) / engine.config.nu)
                self._acc["stepsize-bound"].observe(block.rho - bound, k)
                self._last_rho[i] = block.rho

        if record.projected and record.phi > 0.0 and record.beta == 1.0:
            landed = affine_value(engine.blocks, engine.problem.maps, engine.point)
            bound = self.tols["projection"] * (1.0 + abs(record.phi))
            self._acc["projection"].observe(abs(landed) - bound, k)

        if self.ref_point is not None:
            sep_val = affine_value(engine.blocks, engine.problem.maps, self.ref_point)
            self._acc["separation"].observe(sep_val - self.tols["separation"] * self.ref_scale, k)
            dist = distance(engine.point, self.ref_point, self.gamma)
            self._acc["fejer"].observe(dist - self._prev_dist - self.tols["fejer"], k)
            self._prev_dist = dist

    def results(self) -> list[CheckResult]:
        out = []
        for name, acc in self._acc.items():
            if self.ref_point is None and name in ("separation", "fejer"):
                continue
            out.append(acc.result())
        return out

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results())


def audit_schedule(records, n: int, m_window: int, max_delay: int) -> list[CheckResult]:
    """Post-hoc verification of the coverage and staleness guarantees.

    Coverage: no block goes ``m_window`` consecutive iterations without
    being selected, counting from the start and including the tail of the
    run. Staleness: every delayed read satisfies 1 <= d <= k and
    k - d <= max_delay.
    """
    total = len(records)
    coverage = _Accumulator("coverage")
    staleness = _Accumulator("staleness")
    last_seen = [0] * n
    for rec in records:
        k = rec.iteration
        for i in rec.selected:
            last_seen[i] = k
        for i in range(n):
            # a gap of m_window means some window of m_window consecutive
            # iterations never touched block i
            coverage.observe((k - last_seen[i]) - (m_window - 1), k)
        for i, d in zip(rec.selected, rec.delays):
            staleness.observe((k - d) - max_delay, k)
            staleness.observe(1 - d, k)
    cov, stale = coverage.result(), staleness.result()
    cov.detail = f"{total} iterations audited, window M={m_window}"
    stale.detail = f"max allowed staleness D={max_delay}"
    return [cov, stale]


def run_with_checks(problem, reference, config, schedule=None, error_policy=None,
                    **engine_kwargs):
    """Run the engine under the invariant monitor and schedule audit.

    Returns ``(trace, results)`` where ``results`` combines the per-iteration
    checks with the post-hoc schedule audit.
    """
    engine = Engine(problem, config, schedule, error_policy, **engine_kwargs)
    monitor = InvariantMonitor(problem, config.gamma if config else 1.0, reference)
    trace = engine.run(callback=monitor)
    results = monitor.results()
    results += audit_schedule(trace.records, problem.n,
                              engine.schedule.M, engine.schedule.D)
    return trace, results
