import dataclasses
import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import projsplit.engine
from projsplit import (ConfigError, Engine, EngineConfig, ErrorPolicy, InvariantMonitor,
                       LinearMap, MonotoneOperator, ProblemSpec, SchedulePolicy, Vec,
                       audit_schedule, build, make_skew_composed, parse_config, prox_eval,
                       run_with_checks, shifted_identity, zero_op)
from projsplit.checks import modulus_gap
from projsplit.engine import BlockState, IterationRecord
from projsplit.errors import NonFiniteError
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


def _scale_steplength(monkeypatch, factor):
    """Make the engine project with ``factor`` times the separator's steplength."""
    original = projsplit.engine.project

    def scaled(p, sep, gamma):
        return original(p, sep._replace(alpha=factor * sep.alpha), gamma)

    monkeypatch.setattr(projsplit.engine, "project", scaled)


def test_mildly_inflated_steplength_breaks_hyperplane_landing(monkeypatch):
    # scaling the steplength 1.5x leaves the configured relaxation bound, so
    # the projection-exactness check must flag it; the distance to the
    # solution still shrinks (any factor below 2 stays nonexpansive), so the
    # Fejer check alone would not catch this corruption
    spec, ref = build("lasso", {})
    _scale_steplength(monkeypatch, 1.5)
    eng = Engine(spec, EngineConfig(max_iters=300))
    mon = InvariantMonitor(spec, 1.0, ref)
    eng.run(callback=mon)
    named = _results_by_name(mon.results())
    assert not named["projection"].passed
    assert named["projection"].first_failure is not None
    assert named["fejer"].passed


def _scaled_step_results(factor, monkeypatch, max_iters=300):
    """The monitor's results on the lasso config, projected with ``factor`` times alpha."""
    spec, ref = build("lasso", {})
    _scale_steplength(monkeypatch, factor)
    eng = Engine(spec, EngineConfig(max_iters=max_iters))
    mon = InvariantMonitor(spec, 1.0, ref)
    eng.run(callback=mon)
    return mon.results()


@pytest.mark.bits
def test_overshooting_steplength_breaks_fejer(monkeypatch):
    # a 2.5x step raises the distance to p* only where phi(p*) > -phi(p)/4,
    # which depends on the trajectory: under the Haswell kernel's it never
    # happens in these 300 iterations
    named = _results_by_name(_scaled_step_results(2.5, monkeypatch))
    assert not named["fejer"].passed
    assert not named["projection"].passed


def test_a_reverse_step_breaks_fejer_and_projection_at_iteration_1(monkeypatch):
    # p+ = p + alpha*g moves the squared distance to p* by
    # (phi/||g||^2)(3 phi - 2 phi(p*)) > 0 at every projected iteration with
    # phi > 0, since phi(p*) <= 0: the check fails on any trajectory
    named = _results_by_name(_scaled_step_results(-1.0, monkeypatch, max_iters=10))
    assert named["fejer"].first_failure == 1
    assert named["projection"].first_failure == 1


@pytest.mark.parametrize("beta", [0.5, 1.5])
def test_relaxed_healthy_run_passes_all_checks(beta):
    spec, ref = build("lasso", {})
    trace, results = run_with_checks(spec, ref, EngineConfig(beta=beta, max_iters=20000))
    assert trace.status == "converged"
    assert all(r.passed for r in results)


def test_a_one_percent_steplength_error_breaks_the_relaxed_landing(monkeypatch):
    # phi is affine, so the relaxed projection must land where phi is
    # (1 - beta) times its old value; this run converges and no other check
    # notices the corruption
    spec, ref = build("lasso", {})
    _scale_steplength(monkeypatch, 1.01)
    trace, results = run_with_checks(spec, ref, EngineConfig(beta=1.5, max_iters=20000))
    assert trace.status == "converged"
    named = _results_by_name(results)
    assert not named["projection"].passed
    assert named["projection"].worst > 1e-3
    assert all(r.passed for r in results if r.name != "projection")


def test_error_injection_run_passes_error_bounds():
    spec, ref = build("lasso", {})
    policy = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=0.1, seed=8)
    trace, results = run_with_checks(spec, ref, EngineConfig(max_iters=20000),
                                     error_policy=policy)
    assert trace.status == "converged"
    assert all(r.passed for r in results)


@pytest.mark.parametrize("magnitude", [1.7e308, sys.float_info.max])
def test_largest_error_magnitudes_stay_finite(magnitude):
    # magnitude * direction overflowed to inf, and the l1 block's prox was
    # blamed for the non-finite input it got (assumption-violation at
    # iteration 1); the error is the unit direction times magnitude
    spec, ref = build("lasso", {})
    policy = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=magnitude, seed=3)
    trace, results = run_with_checks(spec, ref, EngineConfig(max_iters=5000),
                                     error_policy=policy)
    assert trace.status == "converged", trace.message
    assert all(r.passed for r in results)


def test_a_hopeless_error_magnitude_rejects_its_scales_without_warnings():
    # the gaps of scales too large to admit overflowed to inf or NaN, and
    # numpy warned on each: 128,800 RuntimeWarnings in this run. Every scale
    # is rejected, so the run is the error-free one
    spec, _ = build("lasso", {"m": 20, "d": 50})
    policy = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=1.7e308, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = Engine(spec, EngineConfig(max_iters=5000), error_policy=policy).run()
    assert trace.status == "converged", trace.message
    assert trace.records == Engine(spec, EngineConfig(max_iters=5000)).run().records


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


@pytest.mark.parametrize("kind, engine_gamma, monitor_gamma",
                         [("lasso", 4.0, 1.0), ("box_cubic", 1.0, 4.0)])
def test_monitor_rejects_a_gamma_other_than_the_engines(kind, engine_gamma, monitor_gamma):
    # measured in another metric than the engine's, Fejer monotonicity
    # fails where the run is sound (lasso at iteration 26, box_cubic at 9)
    spec, ref = build(kind, {})
    eng = Engine(spec, EngineConfig(gamma=engine_gamma, max_iters=100))
    mon = InvariantMonitor(spec, monitor_gamma, ref)
    with pytest.raises(ConfigError) as err:
        eng.run(callback=mon)
    assert eng.k == 1
    assert f"gamma={monitor_gamma}" in str(err.value)
    assert f"gamma={engine_gamma}" in str(err.value)


def test_monitor_with_the_engines_gamma_passes():
    spec, ref = build("lasso", {})
    trace, results = run_with_checks(spec, ref, EngineConfig(gamma=4.0, max_iters=20000))
    assert trace.status == "converged"
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
        e, res, k = original(*args)
        return e, ProxResult(res.x + 1e-6, res.y), k

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
    def unhalved(policy, rng, base_input, op, rho, z_block, w_block, start):
        # the first random draw, accepted without the admissibility halvings
        direction = rng.standard_normal(base_input.shape[0])
        e = policy.magnitude * direction / np.linalg.norm(direction)
        return e, prox_eval(op, rho, base_input + e), 0

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

    def started_high(op, z, w, rho_start, cfg):
        return original(op, z, w, 4.0 * rho_start, cfg)

    monkeypatch.setattr(projsplit.engine, "forward_update_with_backtrack", started_high)
    ident = MonotoneOperator(1, forward=lambda x: x, name="identity")
    spec = ProblemSpec(name="identity-drift", maps=(LinearMap.identity(1),),
                       operators=(ident, zero_op(1)), forward_blocks=frozenset({0}),
                       z_init=Vec([1.0]), w_init=(Vec([0.0]),))
    eng = Engine(spec, EngineConfig(delta=0.5, rho_init=(0.25, 1.0), max_iters=5))
    mon = InvariantMonitor(spec, 1.0)
    eng.run(callback=mon)
    named = _results_by_name(mon.results())
    assert not named["stepsize-bound"].passed
    assert named["stepsize-bound"].first_failure == 1
    assert named["update-identity"].passed


def test_a_modulus_the_operator_lacks_breaks_stepsize_bound():
    # the skew block declaring modulus 1: its pairs give <D, T(theta) - y> =
    # <D, K D> = 0 < ||D||^2, and the linesearch skips trials on that claim
    spec, ref = build("skew_composed", {})
    skew = spec.operators[0]
    liar = MonotoneOperator(skew.dim, forward=skew._forward, prox=skew._prox, name="skew",
                            modulus=1.0)
    spec = dataclasses.replace(spec, operators=(liar,) + spec.operators[1:])
    trace, results = run_with_checks(spec, ref, EngineConfig(max_iters=5))
    named = _results_by_name(results)
    assert not named["stepsize-bound"].passed
    assert named["stepsize-bound"].first_failure == 1
    assert named["update-identity"].passed


def test_a_forward_zero_operator_passes_stepsize_bound_without_warnings():
    # its trials give T(theta) = y = 0 with theta != x, so the shortfall has
    # scale 0; only a positive declared modulus would be violated
    spec = ProblemSpec(name="zero-drift", maps=(LinearMap.identity(2),),
                       operators=(zero_op(2), shifted_identity([1.0, -2.0])),
                       forward_blocks=frozenset({0}), z_init=Vec([1.0, 1.0]),
                       w_init=(Vec([0.0, 0.0]),))
    mon = InvariantMonitor(spec, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = Engine(spec, EngineConfig(max_iters=50)).run(callback=mon)
    assert trace.status == "converged" and trace.records[1].backtracks[0] == 1
    assert mon.all_passed
    # T(theta) = drift + w = 0 = y at theta - x = (1, 1)
    pair = BlockState(x=np.zeros(2), y=np.zeros(2), rho=1.0, theta=np.ones(2), w=np.ones(2),
                      drift=-np.ones(2))
    assert modulus_gap(pair, 0.0) == -np.inf and modulus_gap(pair, 1.0) == np.inf


def test_declared_moduli_leave_stepsize_bound_at_zero():
    # these configs' forward operators declare 1 (lasso, signed_sqrt) and
    # 0 (box_cubic); the scaled shortfall stays below 1e-15
    for name in ("lasso", "signed_sqrt", "box_cubic_async"):
        cfg = parse_config((ROOT / "configs" / f"{name}.json").read_text())
        spec, ref = build(cfg.problem_kind, cfg.problem_params)
        eng = Engine(spec, cfg.engine, cfg.schedule, cfg.errors)
        worst = [-np.inf]

        def shortfall(engine, record):
            for i in record.selected:
                if i in spec.forward_blocks:
                    block = engine.blocks[i]
                    worst[0] = max(worst[0], modulus_gap(block, spec.operators[i].modulus))

        eng.run(callback=shortfall)
        assert -np.inf < worst[0] <= 1e-15, (name, worst[0])


def test_a_step_that_keeps_the_old_entry_breaks_projection():
    # the monitor lands the projection on the engine's (G z, w, w_n) of the
    # new iterate; products kept from the old one put it back at phi(p)
    class StaleEntry(Engine):
        def step(self):
            entry = self.entry()
            out = super().step()
            self._entry = entry
            return out

    spec, ref = build("lasso", {})
    eng = StaleEntry(spec, EngineConfig(max_iters=5))
    mon = InvariantMonitor(spec, 1.0, ref)
    eng.run(callback=mon)
    named = _results_by_name(mon.results())
    assert named["projection"].first_failure == 1
    assert named["pi-identity"].passed and named["update-identity"].passed


def _record(iteration, selected, delays):
    n = max(max(selected, default=0) + 1, 2)
    return IterationRecord(
        iteration=iteration, phi=0.0, pi=1.0, alpha=0.0,
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


def test_the_audit_fed_during_the_run_audits_every_record(monkeypatch):
    # run_with_checks feeds the audit from the run's callback; the record of
    # an iteration whose projection fails reaches no callback, so the audit
    # reads it from the trace
    spec, ref = build("box_cubic", {})
    sched = SchedulePolicy(kind="seeded-random", p_select=0.5, M=3, D=2,
                           delay_kind="seeded-random", seed=11)
    project, calls = projsplit.engine.project, [0]

    def failing_fifth(p, sep, gamma):
        calls[0] += 1
        if calls[0] == 5:
            raise NonFiniteError("vector entries must be finite (no NaN/Inf)")
        return project(p, sep, gamma)

    monkeypatch.setattr(projsplit.engine, "project", failing_fifth)
    trace, results = run_with_checks(spec, ref, EngineConfig(max_iters=100), sched)
    assert trace.status == "assumption-violation" and trace.iterations == 5
    assert results[-2].detail == "5 iterations audited, window M=3"
    assert _rows(results[-2:]) == _rows(audit_schedule(trace.records, spec.n, 3, 2))


# -- the verify tables, pinned -------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _rows(results):
    return [(r.name, r.passed, float(r.worst).hex(), r.first_failure, r.detail) for r in results]


def _config_rows(name):
    cfg = parse_config((ROOT / "configs" / f"{name}.json").read_text())
    spec, ref = build(cfg.problem_kind, cfg.problem_params)
    return _rows(run_with_checks(spec, ref, cfg.engine, cfg.schedule, cfg.errors)[1])


def _async_run(seed):
    """perfbench's async_inexact_verify instance under its schedule and error policies."""
    spec, ref = make_skew_composed(1234, (8, 6, 10))
    schedule = SchedulePolicy(kind="seeded-random", p_select=0.5, M=5, D=3,
                              delay_kind="seeded-random", seed=seed)
    errors = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=0.1, seed=seed + 1)
    return spec, run_with_checks(spec, ref, EngineConfig(max_iters=20000), schedule, errors)


def _async_rows(seed):
    return _rows(_async_run(seed)[1][1])


def _tight_audit_rows(seed):
    # a window and a staleness bound the schedule does not keep: nonzero worst values
    spec, (trace, _) = _async_run(seed)
    return _rows(audit_schedule(trace.records, spec.n, 2, 1))


def test_tight_audit_worst_values_are_floats():
    spec, (trace, _) = _async_run(0)
    results = audit_schedule(trace.records, spec.n, 2, 1)
    assert not any(r.passed for r in results)
    assert all(type(r.worst) is float for r in results), [r.worst for r in results]


def _overshoot_rows(factor, monkeypatch):
    return _rows(_scaled_step_results(factor, monkeypatch))


def _corrupted_async_rows(monkeypatch):
    # perturbed prox outputs and forward searches started above the bound:
    # nonzero worst values for the per-block checks
    inject, forward = projsplit.engine.inject_error, projsplit.engine.forward_update_with_backtrack

    def perturbed(*args):
        e, res, k = inject(*args)
        return e, ProxResult(res.x + 1e-6, res.y), k

    def started_high(op, z, w, rho_start, cfg):
        return forward(op, z, w, 4.0 * rho_start, cfg)

    monkeypatch.setattr(projsplit.engine, "inject_error", perturbed)
    monkeypatch.setattr(projsplit.engine, "forward_update_with_backtrack", started_high)
    spec, ref = make_skew_composed(1234, (8, 6, 10))
    schedule = SchedulePolicy(kind="seeded-random", p_select=0.5, M=5, D=3,
                              delay_kind="seeded-random", seed=0)
    errors = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=0.1, seed=1)
    return _rows(run_with_checks(spec, ref, EngineConfig(max_iters=300), schedule, errors)[1])


# sha256 of repr([(name, passed, float(worst).hex(), first_failure, detail), ...])
VERIFY_TABLE_SHA256 = {
    "box_cubic_async":
        "4f50803b8a605a5b4c249a635cd90c4da2783927216dfdd04e4638d427721b24",
    "lasso":
        "c9fa3c85188107db7c1293acd00c5c28f3940b9d03953e2ce80c3a292abf5e81",
    "lasso_inexact":
        "3db7fd1871f4f90fc7c82cb19820c25605896ec9aba6d6836e134433cf5cb105",
    "signed_sqrt":
        "b2b7f4a18a04cd35b6fd5df563a6277fe9977014b8aa4d978471fe3c4d5259f0",
    "async_seed_0":
        "791476079ebeff4c751716bffcfc1098d7292e903d8a374c1cd1a1667c767df6",
    "async_seed_1000":
        "23481f51e0a6108ba5a887020d7aa39077099695f72d80276e615676dd63ca00",
    "async_seed_0_tight_audit":
        "22ac060220265e5a4a6137310247a424157f1cf0f4305999f3553cb047f7f0c9",
    "lasso_alpha_1.5":
        "2e460141977cf126f480bb8bd89ad32bf74e1dd52e698bb5e328fdb08d1fb0ad",
    "lasso_alpha_2.5":
        "cefad201ff5b9e3f02f59cf1898a1156bad98edcf9544223bb438d9f22dcf92c",
    "async_corrupted":
        "bb74caebe7a3bb26b9890e4f843eea9fd8de6987f16bca782863e3b719c24303",
}


def _verify_rows(case, monkeypatch):
    if case in ("async_seed_0", "async_seed_1000"):
        return _async_rows(int(case.rsplit("_", 1)[1]))
    if case == "async_seed_0_tight_audit":
        return _tight_audit_rows(0)
    if case.startswith("lasso_alpha_"):
        return _overshoot_rows(float(case.rsplit("_", 1)[1]), monkeypatch)
    if case == "async_corrupted":
        return _corrupted_async_rows(monkeypatch)
    return _config_rows(case)


# the tables whose rows differ under another OpenBLAS kernel than SkylakeX:
# under Haswell all but async_corrupted and box_cubic_async, and
# async_corrupted under Prescott; box_cubic_async keeps its rows under
# Haswell, Sandybridge, Nehalem and Prescott
KERNEL_BITS = {"async_corrupted", "async_seed_0", "async_seed_0_tight_audit", "async_seed_1000",
               "lasso", "lasso_alpha_1.5", "lasso_alpha_2.5", "lasso_inexact", "signed_sqrt"}


@pytest.mark.parametrize("case", [pytest.param(c, marks=pytest.mark.bits) if c in KERNEL_BITS
                                  else c for c in sorted(VERIFY_TABLE_SHA256)])
def test_verify_tables_are_unchanged(case, monkeypatch):
    rows = _verify_rows(case, monkeypatch)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == VERIFY_TABLE_SHA256[case], rows
