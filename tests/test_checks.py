import numpy as np
import pytest

import projsplit.engine
from projsplit import (Engine, EngineConfig, ErrorPolicy, InvariantMonitor, LinearMap,
                       MonotoneOperator, ProblemSpec, SchedulePolicy, Space, Vec,
                       audit_schedule, build, prox_eval, run_with_checks, zero_op)
from projsplit.engine import IterationRecord
from projsplit.operators import ProxResult


def _results_by_name(results):
    return {r.name: r for r in results}


def test_healthy_run_passes_all_checks():
    spec, ref = build("box_cubic", {})
    trace, results = run_with_checks(spec, ref, EngineConfig(max_iters=20000))
    assert trace.status == "converged"
    named = _results_by_name(results)
    assert set(named) == {"separation", "fejer", "pi-identity", "update-identity",
                          "projection", "error-bounds", "stepsize-bound", "coverage",
                          "staleness"}
    assert all(r.passed for r in results)


def test_checks_without_reference_skip_oracle_checks():
    spec, ref = build("box_cubic", {})
    eng = Engine(spec, EngineConfig(max_iters=100))
    mon = InvariantMonitor(spec, 1.0, reference=None)
    eng.run(callback=mon)
    names = {r.name for r in mon.results()}
    assert "separation" not in names and "fejer" not in names
    assert mon.all_passed


def test_mildly_inflated_steplength_breaks_hyperplane_landing():
    # scaling the steplength 1.5x leaves the configured relaxation bound, so
    # the projection-exactness check must flag it; the distance to the
    # solution still shrinks (any factor below 2 stays nonexpansive), so the
    # Fejer check alone would not catch this corruption
    spec, ref = build("lasso", {})
    eng = Engine(spec, EngineConfig(max_iters=300), alpha_hook=lambda a: 1.5 * a)
    mon = InvariantMonitor(spec, 1.0, ref)
    eng.run(callback=mon)
    named = _results_by_name(mon.results())
    assert not named["projection"].passed
    assert named["projection"].first_failure is not None
    assert named["fejer"].passed


def test_overshooting_steplength_breaks_fejer():
    spec, ref = build("lasso", {})
    eng = Engine(spec, EngineConfig(max_iters=300), alpha_hook=lambda a: 2.5 * a)
    mon = InvariantMonitor(spec, 1.0, ref)
    eng.run(callback=mon)
    named = _results_by_name(mon.results())
    assert not named["fejer"].passed
    assert not named["projection"].passed


def test_error_injection_run_passes_error_bounds():
    spec, ref = build("lasso", {})
    policy = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=0.1, seed=8)
    trace, results = run_with_checks(spec, ref, EngineConfig(max_iters=20000),
                                     error_policy=policy)
    assert trace.status == "converged"
    assert all(r.passed for r in results)


def test_default_initial_pairs_do_not_break_separation():
    # the default pairs (G_i z1, 0) are not in gra T_i; a first iteration
    # that skipped a block used to put one into the separator
    spec, ref = build("skew_composed", {"seed": 1235})
    sched = SchedulePolicy(kind="seeded-random", p_select=0.5, M=5, D=3,
                           delay_kind="seeded-random", seed=1)
    errors = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=0.1, seed=2)
    trace, results = run_with_checks(spec, ref, EngineConfig(max_iters=200), sched, errors)
    assert trace.records[0].selected == tuple(range(spec.n))
    named = _results_by_name(results)
    assert named["separation"].passed, named["separation"].first_failure
    assert all(r.passed for r in results)


# -- the moved identity checks flag corrupted inputs --------------------------

def _identity_results(spec, error_policy=None):
    eng = Engine(spec, EngineConfig(max_iters=5), error_policy=error_policy)
    mon = InvariantMonitor(spec, 1.0)
    eng.run(callback=mon)
    return _results_by_name(mon.results())


def test_perturbed_backward_x_breaks_update_identity(monkeypatch):
    original = projsplit.engine.inject_error

    def perturbed(*args):
        e, res = original(*args)
        return e, ProxResult(res.x + 1e-6, res.y)

    monkeypatch.setattr(projsplit.engine, "inject_error", perturbed)
    spec, _ = build("lasso", {})
    named = _identity_results(spec)
    assert not named["update-identity"].passed
    assert named["update-identity"].first_failure == 1
    assert named["pi-identity"].passed


def test_scaled_pi_breaks_pi_identity(monkeypatch):
    original = projsplit.engine.evaluate_separator

    def scaled(*args):
        sep = original(*args)
        return sep._replace(pi=sep.pi * (1.0 + 1e-6))

    monkeypatch.setattr(projsplit.engine, "evaluate_separator", scaled)
    spec, _ = build("lasso", {})
    named = _identity_results(spec)
    assert not named["pi-identity"].passed
    assert named["pi-identity"].first_failure == 1
    assert named["update-identity"].passed


def test_unhalved_error_breaks_error_bounds(monkeypatch):
    def unhalved(policy, base_input, op, rho, z_block, w_block):
        # the first random draw, accepted without the admissibility halvings
        direction = policy.rng.standard_normal(base_input.shape[0])
        e = policy.magnitude * direction / np.linalg.norm(direction)
        return e, prox_eval(op, rho, base_input + e)

    monkeypatch.setattr(projsplit.engine, "inject_error", unhalved)
    spec, _ = build("lasso", {})
    named = _identity_results(spec, ErrorPolicy(sigma=0.5, mode="seeded-random",
                                                magnitude=0.1, seed=8))
    assert not named["error-bounds"].passed
    assert named["error-bounds"].first_failure == 1
    assert named["update-identity"].passed  # the error is part of the prox input


def test_start_above_the_bound_breaks_stepsize_bound(monkeypatch):
    # identity drift with delta = 1/2 accepts any rho <= 2/3; started at
    # 4*rho_init = 1 instead of 0.25, the search accepts 0.5 > rho_init
    original = projsplit.engine.forward_update_with_backtrack

    def started_high(slot, z, w, rho_start, cfg):
        return original(slot, z, w, 4.0 * rho_start, cfg)

    monkeypatch.setattr(projsplit.engine, "forward_update_with_backtrack", started_high)
    space = Space(1)
    ident = MonotoneOperator(space, forward=lambda x: x, name="identity")
    spec = ProblemSpec(name="identity-drift", maps=(LinearMap.identity(space),),
                       operators=(ident, zero_op(1)), forward_blocks=frozenset({0}),
                       z_init=Vec(space, [1.0]), w_init=(space.zeros(),))
    eng = Engine(spec, EngineConfig(delta=0.5, rho_init=(0.25, 1.0), max_iters=5))
    mon = InvariantMonitor(spec, 1.0)
    eng.run(callback=mon)
    named = _results_by_name(mon.results())
    assert not named["stepsize-bound"].passed
    assert named["stepsize-bound"].first_failure == 1
    assert named["update-identity"].passed


def _record(iteration, selected, delays):
    n = max(max(selected, default=0) + 1, 2)
    return IterationRecord(
        iteration=iteration, phi=0.0, pi=1.0, alpha=0.0, beta=1.0,
        selected=tuple(selected), delays=tuple(delays),
        primal_residuals=(0.0,) * n, dual_residuals=(0.0,) * n,
        max_primal_residual=0.0, max_dual_residual=0.0,
        backtracks=(0,) * n, stepsizes=(1.0,) * n, projected=True)


def test_audit_flags_coverage_gap():
    # block 1 vanishes after iteration 1 for longer than the window
    records = [_record(1, (0, 1), (1, 1))] + [
        _record(k, (0,), (k,)) for k in range(2, 8)
    ]
    cov, stale = audit_schedule(records, 2, 3, 0)
    assert not cov.passed
    assert cov.first_failure == 4  # the window {2,3,4} never touches block 1
    assert stale.passed


def test_audit_flags_stale_read():
    records = [_record(1, (0, 1), (1, 1)), _record(2, (0, 1), (2, 2)),
               _record(3, (0, 1), (3, 1))]  # block 1 reads iterate 1 at k=3
    cov, stale = audit_schedule(records, 2, 3, 1)
    assert cov.passed
    assert not stale.passed
    assert stale.first_failure == 3


def test_audit_counts_tail_gap():
    records = [_record(k, (0, 1) if k == 1 else (0,), (k, k)[:2 if k == 1 else 1])
               for k in range(1, 5)]
    cov, _ = audit_schedule(records, 2, 8, 0)
    assert cov.passed  # gap of 3 at the tail is below the window of 8
    cov_tight, _ = audit_schedule(records, 2, 3, 0)
    assert not cov_tight.passed  # tail gap of 3 hits the window of 3


def test_async_run_passes_audit():
    spec, ref = build("box_cubic", {})
    sched = SchedulePolicy(kind="seeded-random", p_select=0.5, M=5, D=3,
                           delay_kind="seeded-random", seed=11)
    trace, results = run_with_checks(spec, ref, EngineConfig(max_iters=20000), sched)
    assert trace.status == "converged"
    named = _results_by_name(results)
    assert named["coverage"].passed and named["coverage"].worst <= 0.0
    assert named["staleness"].passed and named["staleness"].worst <= 0.0
