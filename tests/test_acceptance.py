"""Acceptance suite: each criterion pinned at its stated tolerance.

Runs are produced once per module through fixtures and shared across the
criteria; every test prints a single PASS line (shown with ``pytest -s``)
once its assertions clear.
"""

import dataclasses

import numpy as np
import pytest

import projsplit as ps
from projsplit import checks
from projsplit.engine import forward_update_with_backtrack

ALL_KINDS = ("lasso", "box_cubic", "signed_sqrt", "skew_composed")

SEPARATION_TOL = 1e-9
FEJER_SLACK = 1e-10
PI_IDENTITY_TOL = 1e-10
UPDATE_IDENTITY_TOL = 1e-10
PROJECTION_TOL = 1e-9
ERROR_ADMISSIBILITY_TOL = 1e-12
RESIDUAL_TOL = 1e-6
Z_AGREEMENT_TOL = 1e-5
LASSO_BUDGET = 5000
NONLIPSCHITZ_BUDGET = 10000
ASYNC_BUDGET = 20000
INEXACT_BUDGET = 4 * LASSO_BUDGET
BACKTRACK_CAP = 200
KKT_TOL = 1e-8


def sync_config(max_iters):
    return ps.EngineConfig(gamma=1.0, beta=1.0, delta=1.0, nu=0.5, max_iters=max_iters,
                           tol_primal=RESIDUAL_TOL, tol_dual=RESIDUAL_TOL)


def monitor_for(spec, ref=None):
    """An invariant monitor for a run under ``sync_config`` (gamma = 1).

    Its tolerances are the constants of ``projsplit.checks``, which
    :func:`test_monitor_tolerances_are_the_criteria_tolerances` pins to this
    module's. Without ``ref`` it checks only the self-contained identities.
    """
    return ps.InvariantMonitor(spec, 1.0, ref)


def test_monitor_tolerances_are_the_criteria_tolerances():
    assert checks.SEPARATION_TOL == SEPARATION_TOL
    assert checks.FEJER_SLACK == FEJER_SLACK
    assert checks.PI_IDENTITY_TOL == PI_IDENTITY_TOL
    assert checks.UPDATE_IDENTITY_TOL == UPDATE_IDENTITY_TOL
    assert checks.PROJECTION_TOL == PROJECTION_TOL
    assert checks.ERROR_ADMISSIBILITY_TOL == ERROR_ADMISSIBILITY_TOL


def test_engine_thresholds_are_fixed_constants():
    # the linesearch's immediate-accept tolerance and the exact-termination
    # threshold on pi are float-noise guards, not parameters of the method
    assert ps.EngineConfig.quickstop_eps == 1e-14
    assert ps.EngineConfig.pi_zero_eps == 1e-24


def _report(criterion, ok=True):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def builtins():
    return {kind: ps.build(kind, {}) for kind in ALL_KINDS}


@pytest.fixture(scope="module")
def sync_runs(builtins):
    """Full synchronous run on every built-in, monitored every iteration."""
    budgets = {"lasso": LASSO_BUDGET, "box_cubic": 3000, "signed_sqrt": 3000,
               "skew_composed": 3000}
    out = {}
    for kind, (spec, ref) in builtins.items():
        monitor = monitor_for(spec, ref)
        engine = ps.Engine(spec, sync_config(budgets[kind]))
        trace = engine.run(callback=monitor)
        out[kind] = (spec, ref, trace, monitor)
    return out


@pytest.fixture(scope="module")
def lasso_run(builtins):
    spec, ref = builtins["lasso"]
    monitor = monitor_for(spec)
    return spec, ref, ps.run(spec, sync_config(LASSO_BUDGET), callback=monitor), monitor


@pytest.fixture(scope="module")
def signed_sqrt_run():
    spec, ref = ps.build("signed_sqrt", {"dim": 4, "c": 0.0})
    monitor = monitor_for(spec)
    return spec, ref, ps.run(spec, sync_config(NONLIPSCHITZ_BUDGET), callback=monitor), monitor


@pytest.fixture(scope="module")
def async_box_run(builtins):
    spec, ref = builtins["box_cubic"]
    schedule = ps.SchedulePolicy(kind="seeded-random", p_select=0.5, M=5, D=3,
                                 delay_kind="seeded-random", seed=11)
    engine = ps.Engine(spec, sync_config(ASYNC_BUDGET), schedule)
    monitor = monitor_for(spec)
    return spec, ref, engine.run(callback=monitor), engine.schedule, monitor


@pytest.fixture(scope="module")
def inexact_lasso_run(builtins):
    spec, ref = builtins["lasso"]
    policy = ps.ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=0.1, seed=8)
    monitor = monitor_for(spec)
    trace = ps.run(spec, sync_config(INEXACT_BUDGET), error_policy=policy, callback=monitor)
    return spec, ref, trace, monitor


def test_criterion_1_separation_and_fejer(sync_runs):
    for kind, (spec, ref, trace, monitor) in sync_runs.items():
        named = {r.name: r for r in monitor.results()}
        assert named["separation"].passed, f"{kind}: separation violated at " \
                                           f"{named['separation'].first_failure}"
        assert named["fejer"].passed, f"{kind}: Fejer violated at " \
                                      f"{named['fejer'].first_failure}"
        assert trace.iterations >= 1
    _report("1 (separation + Fejer on all built-ins)")


def test_criterion_2_lasso_convergence(lasso_run):
    spec, ref, trace, _ = lasso_run
    assert trace.status == "converged"
    assert trace.iterations <= LASSO_BUDGET
    assert trace.max_primal_residual <= RESIDUAL_TOL
    assert trace.max_dual_residual <= RESIDUAL_TOL
    z_err = float(np.linalg.norm(trace.solution.z.entries - ref.z.entries))
    assert z_err <= Z_AGREEMENT_TOL, z_err
    _report("2 (seeded 20x50 lasso to oracle)")


def test_criterion_3_merely_continuous_regime(signed_sqrt_run):
    spec, ref, trace, _ = signed_sqrt_run
    assert trace.status in ("converged", "budget")
    assert trace.iterations <= NONLIPSCHITZ_BUDGET
    final_z = trace.solution.z if trace.solution is not None else trace.final_point.z
    assert np.linalg.norm(final_z.entries) <= 1e-5
    for record in trace.records:
        assert max(record.backtracks) <= BACKTRACK_CAP
        assert all(s > 0 for s in record.stepsizes)  # decay allowed, not collapse
    _report("3 (non-Lipschitz drift, solution at the bad point)")


def test_criterion_4_backtracking_hand_traces():
    ident = ps.MonotoneOperator(1, forward=lambda x: x, name="identity")
    cube_ = ps.MonotoneOperator(1, forward=lambda x: x ** 3, name="cube")

    def vec(v):
        return np.array([v], dtype=float)

    state = forward_update_with_backtrack(ident, vec(1.0), vec(1.0), 1.0,
                                          ps.EngineConfig())
    assert state.backtracks == 0
    assert abs(state.rho - 1.0) <= 1e-12
    assert abs(state.x[0] - 1.0) <= 1e-12
    assert abs(state.y[0] - 1.0) <= 1e-12

    state = forward_update_with_backtrack(ident, vec(1.0), vec(0.0), 1.0,
                                          ps.EngineConfig(delta=0.5, nu=0.5))
    assert state.backtracks == 2
    assert abs(state.rho - 0.5) <= 1e-12
    assert abs(state.x[0] - 0.5) <= 1e-12
    assert abs(state.y[0] - 0.5) <= 1e-12

    state = forward_update_with_backtrack(cube_, vec(1.0), vec(0.0), 1.0,
                                          ps.EngineConfig(delta=1.0, nu=0.5))
    assert state.backtracks == 3
    assert abs(state.rho - 0.25) <= 1e-12
    assert abs(state.x[0] - 0.75) <= 1e-12
    assert abs(state.y[0] - 0.421875) <= 1e-12
    _report("4 (hand-computed linesearch traces)")


def test_criterion_5_async_robustness(async_box_run):
    spec, ref, trace, schedule, _ = async_box_run
    assert trace.status == "converged"
    assert trace.iterations <= ASYNC_BUDGET
    assert trace.max_primal_residual <= RESIDUAL_TOL
    assert trace.max_dual_residual <= RESIDUAL_TOL
    coverage, staleness = ps.audit_schedule(trace.records, spec.n, 5, 3)
    assert coverage.passed and coverage.worst <= 0
    assert staleness.passed and staleness.worst <= 0
    _report("5 (seeded-random schedule M=5, D=3, zero audit violations)")


def test_criterion_6_inexact_prox_regime(inexact_lasso_run):
    spec, ref, trace, monitor = inexact_lasso_run
    assert trace.status == "converged"
    assert trace.iterations <= INEXACT_BUDGET
    assert trace.max_primal_residual <= RESIDUAL_TOL
    assert trace.max_dual_residual <= RESIDUAL_TOL
    z_err = float(np.linalg.norm(trace.solution.z.entries - ref.z.entries))
    assert z_err <= Z_AGREEMENT_TOL
    bounds = {r.name: r for r in monitor.results()}["error-bounds"]
    assert bounds.passed, f"error admissibility violated at {bounds.first_failure}"
    _report("6 (sigma=0.5 inexact prox still converges)")


def test_criterion_7_identities_every_iteration(sync_runs, lasso_run, signed_sqrt_run,
                                                async_box_run, inexact_lasso_run):
    runs = [(trace, monitor) for (_, _, trace, monitor) in sync_runs.values()]
    runs += [(run[2], run[-1]) for run in (lasso_run, signed_sqrt_run, async_box_run,
                                           inexact_lasso_run)]
    total = 0
    for trace, monitor in runs:
        named = {r.name: r for r in monitor.results()}
        for name in ("pi-identity", "update-identity"):
            assert named[name].passed, f"{name} violated at {named[name].first_failure}"
        total += trace.iterations
    assert total > 0
    _report(f"7 (gradient-norm + update identities over {total} iterations)")


def test_criterion_8_exact_termination(builtins):
    for kind, (spec, ref) in builtins.items():
        warm = dataclasses.replace(spec, z_init=ref.z, w_init=ref.w)
        engine = ps.Engine(warm, sync_config(50))  # full schedule: M resolves to n
        trace = engine.run()
        assert trace.status == "exact-termination", f"{kind}: {trace.status}"
        assert trace.iterations <= engine.schedule.M
        resid = ps.kkt_residual(spec, trace.solution.z, trace.solution.w)
        assert resid <= KKT_TOL, f"{kind}: {resid}"
    _report("8 (zero-gradient return recovers a certified solution)")
