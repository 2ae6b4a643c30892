import dataclasses
import gc
import hashlib
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import projsplit.engine
from projsplit import (BacktrackLimitError, ConfigError, Engine, EngineConfig, ErrorPolicy,
                       LinearMap, MonotoneOperator, ProblemSpec, SchedulePolicy, Vec,
                       affine_monotone, box_normal_cone, build, kkt_residual,
                       l1_subdifferential, make_signed_sqrt, make_skew_composed, run,
                       run_with_checks, shifted_identity, zero_op)
from projsplit.errors import AssumptionViolationError, NonFiniteError
from projsplit.checks import affine_value, update_gap
from projsplit.config import parse_config
from projsplit.engine import (BlockState, backward_update, evaluate_separator,
                              forward_update_with_backtrack, project)
from projsplit.operators import inject_error
from projsplit.scheduler import _selection_table, delayed_index, select_blocks
from test_linalg import SIGNED_ZERO_MAPS


def vec(*entries):
    return Vec(np.array(entries, dtype=float))


def arr(*entries):
    return np.array(entries, dtype=float)


NO_ERRORS = ErrorPolicy()


# -- configuration ------------------------------------------------------------

def test_config_bounds_are_enforced_by_name():
    with pytest.raises(ConfigError, match="beta"):
        EngineConfig(beta=2.0)
    with pytest.raises(ConfigError, match="nu"):
        EngineConfig(nu=0.0)
    with pytest.raises(ConfigError, match="nu"):
        EngineConfig(nu=1.0)
    with pytest.raises(ConfigError, match="gamma"):
        EngineConfig(gamma=0.0)
    with pytest.raises(ConfigError, match="rho_init"):
        EngineConfig(rho_init=0.0)
    with pytest.raises(ConfigError, match="max_backtracks"):
        EngineConfig(max_backtracks=0)
    with pytest.raises(ConfigError, match="beta"):
        EngineConfig(beta=0.0)
    with pytest.raises(ConfigError, match="max_iters"):
        dataclasses.replace(EngineConfig(), max_iters=-1)
    assert EngineConfig().resolve_rho(3) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("rho", [0.0, -1.0, np.inf, np.nan])
def test_config_rejects_a_nonpositive_or_non_finite_rho_init(rho):
    with pytest.raises(ConfigError, match="rho_init"):
        EngineConfig(rho_init=rho)
    with pytest.raises(ConfigError, match="rho_init"):
        EngineConfig(rho_init=(1.0, rho))


def test_config_accepts_any_finite_positive_rho_init():
    for rho in (1e-300, 1e300):
        assert EngineConfig(rho_init=rho).resolve_rho(2) == (rho, rho)
        assert EngineConfig(rho_init=(rho, 1.0)).resolve_rho(2) == (rho, 1.0)


def test_config_per_block_stepsizes():
    cfg = EngineConfig(rho_init=(1.0, 2.0))
    assert cfg.resolve_rho(2) == (1.0, 2.0)
    with pytest.raises(ConfigError, match="rho_init must be scalar or length 3, got length 2"):
        cfg.resolve_rho(3)
    spec, _ = build("skew_composed", {})
    with pytest.raises(ConfigError, match="rho_init"):
        Engine(spec, cfg)


@pytest.mark.parametrize("rho", [[1.0, 2.0], (1, 2), np.array([1.0, 2.0])],
                         ids=["list", "int-tuple", "array"])
def test_config_keeps_a_per_block_rho_init_as_a_tuple_of_floats(rho):
    # a list or array kept as given made equal configs unequal (or raise) and unhashable
    cfg = EngineConfig(rho_init=rho)
    assert type(cfg.rho_init) is tuple and [type(r) for r in cfg.rho_init] == [float, float]
    assert cfg == EngineConfig(rho_init=(1.0, 2.0)) == EngineConfig(rho_init=rho)
    assert hash(cfg) == hash(EngineConfig(rho_init=(1.0, 2.0)))


def test_config_keeps_a_scalar_rho_init_as_a_float():
    for rho in (2, np.float64(2.0), np.int64(2), np.array(2.0)):
        cfg = EngineConfig(rho_init=rho)
        assert type(cfg.rho_init) is float and cfg.rho_init == 2.0
        assert cfg == EngineConfig(rho_init=2.0) and hash(cfg) == hash(EngineConfig(rho_init=2.0))


def test_float_noise_thresholds_are_not_fields():
    names = {f.name for f in dataclasses.fields(EngineConfig)}
    assert len(names) == 9 and names.isdisjoint({"quickstop_eps", "pi_zero_eps"})
    with pytest.raises(TypeError):
        EngineConfig(quickstop_eps=0.0)
    assert EngineConfig(max_iters=5).quickstop_eps == 1e-14  # read from instances too


# -- backward updates ---------------------------------------------------------

def test_backward_soft_threshold():
    op = l1_subdifferential(1.0, 1)
    state = backward_update(op, arr(2.0), arr(0.0), 1.0, NO_ERRORS, None)
    assert state.x == pytest.approx([1.0])
    assert state.y == pytest.approx([1.0])


def test_backward_zero_operator():
    op = zero_op(2)
    z, w = arr(1.0, -2.0), arr(0.5, 0.25)
    state = backward_update(op, z, w, 2.0, NO_ERRORS, None)
    assert state.x == pytest.approx(z + 2.0 * w)
    assert np.linalg.norm(state.y) == 0.0


def test_backward_box_projection():
    op = box_normal_cone([-1.0], [1.0])
    state = backward_update(op, arr(2.0), arr(0.5), 2.0, NO_ERRORS, None)
    assert state.x == pytest.approx([1.0])
    assert state.y == pytest.approx([1.0])


def test_backward_identity_gap_is_tiny():
    op = l1_subdifferential(0.3, 3)
    rng = np.random.default_rng(1)
    for _ in range(20):
        state = backward_update(op, rng.standard_normal(3), rng.standard_normal(3),
                                float(rng.uniform(0.1, 5)), NO_ERRORS, None)
        assert update_gap(state, "backward") <= 1e-10


# -- forward updates with backtracking ----------------------------------------

def _identity_op(dim=1):
    return MonotoneOperator(dim, forward=lambda x: x, name="identity")


def test_forward_quickstop():
    op = _identity_op()
    state = forward_update_with_backtrack(op, arr(1.0), arr(1.0), 1.0, EngineConfig())
    assert state.backtracks == 0
    assert state.x == pytest.approx([1.0])
    assert state.y == pytest.approx([1.0])
    assert state.rho == 1.0


def test_forward_identity_two_trials():
    cfg = EngineConfig(delta=0.5, nu=0.5)
    op = _identity_op()
    state = forward_update_with_backtrack(op, arr(1.0), arr(0.0), 1.0, cfg)
    assert state.backtracks == 2
    assert abs(state.rho - 0.5) <= 1e-12
    assert abs(state.x[0] - 0.5) <= 1e-12
    assert abs(state.y[0] - 0.5) <= 1e-12


def test_forward_cube_three_trials():
    cfg = EngineConfig(delta=1.0, nu=0.5)
    op = MonotoneOperator(1, forward=lambda x: x ** 3, name="cube")
    state = forward_update_with_backtrack(op, arr(1.0), arr(0.0), 1.0, cfg)
    assert state.backtracks == 3
    assert abs(state.rho - 0.25) <= 1e-12
    assert abs(state.x[0] - 0.75) <= 1e-12
    assert abs(state.y[0] - 0.421875) <= 1e-12


def test_forward_accepted_step_satisfies_slope_test_and_geometry():
    cfg = EngineConfig(delta=2.0, nu=0.7)
    op = MonotoneOperator(2, forward=lambda x: np.sign(x) * np.abs(x) ** 1.5,
                          name="power")
    rng = np.random.default_rng(3)
    for _ in range(25):
        z = 2 * rng.standard_normal(2)
        w = 2 * rng.standard_normal(2)
        state = forward_update_with_backtrack(op, z, w, 1.0, cfg)
        if state.backtracks == 0:
            continue  # quickstop branch
        gap = z - state.x
        assert cfg.delta * np.dot(gap, gap) - np.dot(gap, state.y - w) <= 1e-12
        # rho = 1 and 0.7 give rho*delta > 1 and go unevaluated: the first
        # trial is at 0.49
        assert state.rho == pytest.approx(0.49 * cfg.nu ** (state.backtracks - 1))
        assert state.rho <= 0.49


def test_forward_non_finite_trial_counts_as_failed():
    # identity drift that is NaN below -2 and Inf above 2: under continuity
    # such a trial was too long, so the search shrinks rho and goes on
    def patchy(x):
        with np.errstate(invalid="ignore"):
            return np.where(x < -2.0, np.nan, np.where(x > 2.0, np.inf, x))

    op = MonotoneOperator(1, forward=patchy, name="patchy")
    cfg = EngineConfig(delta=0.2, nu=0.5)
    # from z = +-1, rho = 4 gives x~ = -+3 (NaN, Inf), a trial evaluated
    # since rho*delta <= 1; 2 and 1 fail the slope test, 0.5 passes
    for z in (1.0, -1.0):
        state = forward_update_with_backtrack(op, arr(z), arr(0.0), 4.0, cfg)
        assert state.backtracks == 4
        assert state.rho == 0.5
        assert state.x[0] == 0.5 * z and state.y[0] == 0.5 * z


def test_forward_non_finite_value_at_theta_raises():
    op = MonotoneOperator(1, forward=lambda x: np.full_like(x, np.inf), name="inf")
    with pytest.raises(NonFiniteError):
        forward_update_with_backtrack(op, arr(1.0), arr(0.0), 1.0, EngineConfig())


def test_forward_discontinuous_operator_exhausts_budget():
    # a step discontinuity right at the base point defeats the linesearch,
    # which is exactly the diagnostic the budget exists for
    def step_fn(x):
        return np.where(x >= 1.0, 1.0, -1.0)

    op = MonotoneOperator(1, forward=step_fn, name="step")
    cfg = EngineConfig(max_backtracks=50)
    with pytest.raises(BacktrackLimitError, match="50"):
        forward_update_with_backtrack(op, arr(1.0), arr(0.0), 1.0, cfg)


# -- separator and projection --------------------------------------------------

def _two_scalar_blocks(x1, y1, x2, y2):
    return [BlockState(x=arr(x1), y=arr(y1), rho=1.0),
            BlockState(x=arr(x2), y=arr(y2), rho=1.0)]


IDENT = (LinearMap.identity(1),)


def test_separator_consensus_gives_zero_gradient():
    blocks = _two_scalar_blocks(1.0, 2.0, 1.0, -2.0)
    sep = evaluate_separator(blocks, (arr(1.0), (arr(2.0),)), IDENT, 1.0)
    assert sep.pi == 0.0
    assert np.linalg.norm(sep.u[0]) == 0.0
    assert np.linalg.norm(sep.v) == 0.0
    assert sep.alpha == 0.0


def test_separator_hand_arithmetic():
    blocks = _two_scalar_blocks(0.0, 1.0, 1.0, 0.0)
    p = (arr(2.0), (arr(3.0),))
    sep = evaluate_separator(blocks, p, IDENT, 1.0)
    assert sep.u[0] == pytest.approx([-1.0])
    assert sep.v == pytest.approx([1.0])
    assert sep.pi == pytest.approx(2.0)
    assert sep.phi_at_p == pytest.approx(-1.0)  # 2 + (-3) - 0


def test_separator_hand_arithmetic_flipped_dual():
    blocks = _two_scalar_blocks(0.0, 1.0, 1.0, 0.0)
    p = (arr(2.0), (arr(-3.0),))
    sep = evaluate_separator(blocks, p, IDENT, 1.0)
    assert sep.phi_at_p == pytest.approx(5.0)  # 2 + 3 - 0


def test_affine_value_at_block_candidate_is_zero():
    blocks = _two_scalar_blocks(0.0, 1.0, 1.0, 0.0)
    q = (arr(1.0), (arr(1.0),))  # (x_n, y_1)
    assert affine_value(blocks, IDENT, q) == pytest.approx(0.0, abs=1e-15)


def test_affine_value_matches_separator_at_current_point():
    blocks = _two_scalar_blocks(0.0, 1.0, 1.0, 0.0)
    p = (arr(2.0), (arr(3.0),))
    sep = evaluate_separator(blocks, p, IDENT, 1.0)
    assert affine_value(blocks, IDENT, p) == pytest.approx(sep.phi_at_p, rel=1e-12)


def test_affine_value_nonpositive_at_oracle():
    spec, ref = build("box_cubic", {})
    eng = Engine(spec, EngineConfig(max_iters=50))
    scale = 1.0 + np.linalg.norm(ref.z.entries)
    while eng.step() == "continue":
        assert affine_value(eng.blocks, spec.maps, ref.point.arrays) <= 1e-9 * scale


def test_projection_lands_on_hyperplane():
    blocks = _two_scalar_blocks(0.0, 1.0, 1.0, 0.0)
    p = (arr(2.0), (arr(-3.0),))
    sep = evaluate_separator(blocks, p, IDENT, 1.0, beta=1.0)
    assert sep.alpha == pytest.approx(2.5)
    p_new = project(p, sep, 1.0)
    assert p_new[0] == pytest.approx([-0.5])
    assert p_new[1][0] == pytest.approx([-0.5])
    assert affine_value(blocks, IDENT, p_new) == pytest.approx(0.0, abs=1e-12)


def test_projection_noop_when_phi_nonpositive():
    blocks = _two_scalar_blocks(0.0, 1.0, 1.0, 0.0)
    p = (arr(2.0), (arr(3.0),))  # phi = -1
    sep = evaluate_separator(blocks, p, IDENT, 1.0)
    assert sep.alpha == 0.0
    assert project(p, sep, 1.0) is p


def test_overrelaxation_beyond_two_rejected_in_config():
    with pytest.raises(ConfigError, match=r"beta must lie in \(0, 2\)"):
        EngineConfig(beta=2.0)
    assert EngineConfig(beta=1.99).beta == 1.99


# -- the outer loop -------------------------------------------------------------

def test_step_exact_termination_from_oracle_start():
    spec, ref = build("box_cubic", {})
    warm = dataclasses.replace(spec, z_init=ref.z, w_init=ref.w)
    eng = Engine(warm, EngineConfig(max_iters=10))
    assert eng.step() == "exact-termination"
    trace = Engine(warm, EngineConfig(max_iters=10)).run()
    assert trace.status == "exact-termination" and trace.iterations == 1
    assert kkt_residual(spec, trace.solution.z, trace.solution.w) <= 1e-8


def test_step_budget_when_exhausted():
    spec, _ = build("box_cubic", {})
    eng = Engine(spec, EngineConfig(max_iters=0))
    assert eng.step() == "budget"
    trace = Engine(spec, EngineConfig(max_iters=0)).run()
    assert trace.status == "budget"
    assert trace.records == []


def test_run_statuses_and_trace_shape():
    spec, ref = build("lasso", {})
    trace = run(spec, EngineConfig(max_iters=5000))
    assert trace.status == "converged"
    assert len(trace.records) == trace.iterations
    assert trace.max_primal_residual <= 1e-6
    assert trace.max_dual_residual <= 1e-6
    assert trace.records[0].iteration == 1


# -- records ------------------------------------------------------------------

def test_a_second_run_leaves_the_first_trace_as_it_was():
    # a trace once held the engine's live records: a second run grew the
    # first trace to 645 records and its residuals read the 645th
    spec, _ = build("lasso", {"m": 20, "d": 50})
    eng = Engine(spec, EngineConfig(max_iters=5000))
    first = eng.run()
    assert first.status == "converged"
    m = first.iterations
    last, residuals = first.records[-1], (first.max_primal_residual, first.max_dual_residual)
    second = eng.run()
    assert second.iterations == len(second.records) == len(eng.records) == m + 1
    assert len(first.records) == first.iterations == m
    assert first.records[-1] == last and last.iteration == m
    assert (first.max_primal_residual, first.max_dual_residual) == residuals
    assert second.records[:m] == first.records


def _async_skew_engine(max_iters=20000, tol=1e-6):
    """perfbench's async_inexact_verify instance, schedule and errors at seed 0, unchecked."""
    spec, _ = make_skew_composed(1234, (8, 6, 10))
    schedule = SchedulePolicy(kind="seeded-random", p_select=0.5, M=5, D=3,
                              delay_kind="seeded-random", seed=0)
    errors = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=0.1, seed=1)
    return Engine(spec, EngineConfig(max_iters=max_iters, tol_primal=tol, tol_dual=tol),
                  schedule, errors)


def _selection_kinds(policy, n, calls):
    """Iterations whose selection forced an overdue block in, and those of the argmin fallback.

    ``calls`` holds (k, last_selected before the call) per select_blocks call.
    """
    forced, fallback = set(), set()
    for k, last in calls:
        draws = _selection_table(policy.seed, (k - 1) // 256, n)[(k - 1) % 256]
        drawn = [i for i in range(n) if draws[i] < policy.p_select]
        overdue = [i for i in range(n) if k - last[i] >= policy.M and i not in drawn]
        if overdue:
            forced.add(k)
        elif not drawn:
            fallback.add(k)
    return forced, fallback


def _single_operator_spec():
    """One block, 0 = T(z) with T affine positive definite; also returns the matrix and shift."""
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((3, 3))
    mat = mat @ mat.T + np.eye(3)
    shift = rng.standard_normal(3)
    op = affine_monotone(mat, shift)
    spec = ProblemSpec(name="single", maps=(), operators=(op,),
                       forward_blocks=frozenset({0}), z_init=Vec(np.zeros(3)), w_init=())
    return spec, mat, shift


RECORD_PROBLEMS = {
    1: lambda: _single_operator_spec()[0],
    2: lambda: build("box_cubic", {})[0],
    3: lambda: make_skew_composed(1234, (8, 6, 10))[0],
}


@pytest.mark.parametrize("n", sorted(RECORD_PROBLEMS))
def test_records_behave_like_the_list_of_the_callbacks_records(monkeypatch, n):
    # the callback's records are built from the two rows the step wrote, the
    # trace's from slices of the row arrays, whose offsets depend on n. A
    # sparse selection with delays gives stale reads and the one-block
    # fallback of select_blocks, and at n = 3 forced-in overdue blocks too
    spec = RECORD_PROBLEMS[n]()
    assert spec.n == n
    policy = SchedulePolicy(kind="seeded-random", p_select=0.15, M=4, D=2,
                            delay_kind="seeded-random", seed=3)
    calls = []
    select = projsplit.engine.select_blocks

    def spied(policy, blocks, k, last_selected):
        calls.append((k, list(last_selected)))
        return select(policy, blocks, k, last_selected)

    monkeypatch.setattr(projsplit.engine, "select_blocks", spied)
    eng = Engine(spec, EngineConfig(max_iters=300), policy)
    rows = []
    trace = eng.run(callback=lambda engine, record: rows.append(record))
    forced, fallback = _selection_kinds(policy.resolved(spec.n), spec.n, calls)
    assert trace.status in ("budget", "converged") and len(fallback) > 20
    assert n < 3 or len(forced) > 20
    assert any(trace.records[k - 1].delays != (k,) for k in fallback)

    m = trace.iterations
    for records in (trace.records, eng.records):
        assert len(records) == len(rows) == m
        assert records[-1] == rows[-1] and records[-m] == rows[0] and records[7] == rows[7]
        for part in (slice(3, 17, 2), slice(None, None, -5), slice(-4, None), slice(5, 2)):
            assert records[part] == rows[part]
        assert list(records) == rows and [r for r in records] == rows
        assert records == rows and rows == records and records == trace.records
        assert records != rows[:-1] and records != rows[::-1] and records != tuple(rows)
        assert repr(records) == repr(rows)
        for index in (m, -m - 1):
            with pytest.raises(IndexError):
                records[index]
    assert rows[-1].max_primal_residual == trace.max_primal_residual


@pytest.mark.bits
def test_async_records_are_those_of_the_named_tuple_list():
    # sha256 of repr(trace.records) for the verify table's async_seed_0 run,
    # as a list of IterationRecord named tuples gave it
    spec, ref = make_skew_composed(1234, (8, 6, 10))
    eng = _async_skew_engine()
    checked, _ = run_with_checks(spec, ref, eng.config, eng.schedule, eng.error_policy)
    assert checked.iterations == 2011
    assert hashlib.sha256(repr(checked.records).encode()).hexdigest() == (
        "5a4c51a4c95a7e3d571252a24bcbe7d9df9ca6335956f0219acff9fd695edef1")
    assert eng.run().records == checked.records


@pytest.mark.parametrize("iterations", [500, 2000])
def test_a_run_keeps_at_most_200_bytes_per_iteration(iterations):
    # bytes the trace of an async run keeps, at two run lengths: 8*(7 + 5n)
    # = 176 at n = 3 in the float and integer rows, plus their spare room
    # (about 810 per iteration with an IterationRecord of tuples and floats
    # each). At tolerance 1e-12 the run reaches its budget under every
    # OpenBLAS kernel tried; at 1e-6 it converges after about 2,000
    # iterations, under some kernels before 2,000
    _async_skew_engine(iterations, 1e-12).run()  # fills the draw and resolvent caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        eng = _async_skew_engine(iterations, 1e-12)
        trace = eng.run()
        del eng
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert trace.status == "budget" and trace.iterations == iterations
    assert kept <= 200 * iterations, kept / iterations


def test_stale_reads_of_the_last_block_reuse_the_stored_w_n(monkeypatch):
    # w_n is formed once per iterate the run reaches and kept in its history
    # entry (2,889 dual sums when every step and every stale read of the
    # last block formed its own)
    calls = [0]
    original = projsplit.engine.dual_sum

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(projsplit.engine, "dual_sum", counted)
    trace = _async_skew_engine().run()
    moved = sum(r.projected and r.alpha != 0.0 for r in trace.records)
    assert trace.status == "converged"
    assert calls[0] == 1 + moved


def test_an_unchecked_async_iteration_makes_at_most_6_map_applies(monkeypatch):
    # G_i z is formed once per iterate the run reaches and kept in its
    # history entry, and the separator forms G_i x_n again only when the last
    # block changed and G_i* y_i only when block i did (5.33 applies per
    # iteration; 8.44 when each stale read, the residuals and the separator
    # formed their own)
    calls = [0]

    def counted(original):
        def apply(self, x):
            calls[0] += 1
            return original(self, x)
        return apply

    monkeypatch.setattr(LinearMap, "apply", counted(LinearMap.apply))
    monkeypatch.setattr(LinearMap, "apply_adjoint", counted(LinearMap.apply_adjoint))
    eng = _async_skew_engine()
    calls[0] = 0  # the placeholder block states of the engine's set-up
    trace = eng.run()
    assert trace.status == "converged"
    assert calls[0] <= 6.0 * trace.iterations, calls[0] / trace.iterations


def test_a_checked_async_iteration_makes_at_most_6_map_applies(monkeypatch):
    # the monitor checks the projection on the engine's G z and w_n at the
    # new iterate, which the next step reuses (5.33 applies per iteration,
    # the monitor's set-up included; 8.50 when the landing value formed its
    # own)
    calls = [0]

    def counted(original):
        def apply(self, x):
            calls[0] += 1
            return original(self, x)
        return apply

    monkeypatch.setattr(LinearMap, "apply", counted(LinearMap.apply))
    monkeypatch.setattr(LinearMap, "apply_adjoint", counted(LinearMap.apply_adjoint))
    spec, ref = make_skew_composed(1234, (8, 6, 10))
    eng = _async_skew_engine()
    calls[0] = 0
    trace, results = run_with_checks(spec, ref, eng.config, eng.schedule, eng.error_policy)
    assert trace.status == "converged" and all(r.passed for r in results)
    assert calls[0] <= 6.0 * trace.iterations, calls[0] / trace.iterations


def test_an_async_backward_update_evaluates_at_most_1_1_resolvents(monkeypatch):
    # each error search starts at the scale its block accepted last time,
    # which is accepted again in most updates (1.06 resolvent evaluations per
    # backward update; 2.04 with each search one halving above it)
    evals = _count_prox_evals(monkeypatch)
    eng = _async_skew_engine()
    trace = eng.run()
    assert trace.status == "converged"
    spec = eng.problem
    backward = [i for i in range(spec.n) if i not in spec.forward_blocks]
    updates = sum(i in r.selected for r in trace.records for i in backward)
    assert evals[0] <= 1.1 * updates, evals[0] / updates


def test_run_backtrack_limit_becomes_assumption_violation():
    def step_fn(x):
        return np.where(x >= 1.0, 1.0, -1.0)

    op = MonotoneOperator(1, forward=step_fn, name="step")
    spec = ProblemSpec(name="broken", maps=(LinearMap.identity(1),),
                       operators=(op, zero_op(1)), forward_blocks=frozenset({0}),
                       z_init=vec(1.0), w_init=(vec(0.0),))
    # a tight trial budget: the discontinuity defeats the slope test until
    # the trial point collapses onto theta in floats (~54 halvings)
    trace = run(spec, EngineConfig(max_iters=10, max_backtracks=30))
    assert trace.status == "assumption-violation"
    assert "linesearch" in trace.message


def overflow_problem():
    """G z overflows; the box resolvent clips it to a finite x, but the
    derived y = (a - x)/rho is inf and must not reach the projection."""
    return ProblemSpec(name="overflow", maps=(LinearMap(np.diag([1e300, 1e300])),),
                       operators=(box_normal_cone([-1.0, -1.0], [1.0, 1.0]), zero_op(2)),
                       forward_blocks=frozenset(), z_init=vec(1e10, 1e10),
                       w_init=(vec(0.0, 0.0),))


def cube_overflow_problem():
    """x**3 on R^2 from z = (1e40, 1e40): T(z) = 1e120 is finite, but the first
    ~60 trial outputs overflow, and the search needs 267 trials in all."""
    cube = MonotoneOperator(2, forward=lambda x: x ** 3, name="cube")
    return ProblemSpec(name="cube-overflow", maps=(LinearMap.identity(2),),
                       operators=(cube, zero_op(2)), forward_blocks=frozenset({0}),
                       z_init=vec(1e40, 1e40), w_init=(vec(0.0, 0.0),))


def test_non_finite_block_value_raises():
    # Engine.step raises; run() turns it into a status naming where it happened
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(AssumptionViolationError, match="separator is not finite"):
            Engine(overflow_problem(), EngineConfig(max_iters=5)).step()
        trace = run(overflow_problem(), EngineConfig(max_iters=5))
    assert trace.status == "assumption-violation"
    assert trace.message.startswith("iteration 1, block 0 (operator 'box-normal-cone')")


def test_overflowing_linesearch_ends_in_a_status():
    with np.errstate(over="ignore", invalid="ignore"):
        trace = run(cube_overflow_problem(), EngineConfig(max_iters=5))
    assert trace.status == "assumption-violation"
    assert trace.message.startswith("iteration 1, block 0 (operator 'cube')")
    assert "linesearch exceeded 200 trials" in trace.message


def test_an_overflowing_slope_test_is_not_called_a_continuity_violation():
    # from z = 1, c = 1e300 every trial has a finite x~ and T(x~) near 1e300,
    # whose squared gap overflows, so no slope test can pass
    with np.errstate(over="ignore", invalid="ignore"):
        spec, _ = make_signed_sqrt([1e300, 1e300])
        trace = run(spec, EngineConfig(max_iters=5))
    assert trace.status == "assumption-violation"
    assert trace.message == ("iteration 1, block 0 (operator 'signed-sqrt-drift'): linesearch "
                             "exceeded 200 trials (the slope test overflowed at a finite x~ "
                             "and T(x~))")


def test_non_finite_value_at_theta_ends_in_a_status():
    for bad in (np.inf, np.nan):
        blowup = MonotoneOperator(1, forward=lambda x, bad=bad: np.where(x > 0.5, bad, x),
                                  name="blowup")
        spec = ProblemSpec(name="blowup", maps=(LinearMap.identity(1),),
                           operators=(blowup, zero_op(1)), forward_blocks=frozenset({0}),
                           z_init=vec(1.0), w_init=(vec(0.0),))
        trace = run(spec, EngineConfig(max_iters=5))
        assert trace.status == "assumption-violation"
        assert trace.message == ("iteration 1, block 0 (operator 'blowup'): "
                                 "vector entries must be finite (no NaN/Inf)")


def _doubling(x, *_):
    return np.concatenate((x, x))


def doubled_forward_problem():
    """A forward block whose operator returns twice its input's length."""
    dim = 2
    op = MonotoneOperator(dim, forward=_doubling, name="doubling")
    return ProblemSpec(name="doubled-forward", maps=(LinearMap.identity(dim),),
                       operators=(op, zero_op(2)), forward_blocks=frozenset({0}),
                       z_init=Vec(np.zeros(dim)), w_init=(Vec(np.zeros(dim)),))


def doubled_prox_problem():
    """A backward block whose resolvent returns twice its input's length."""
    dim = 2
    op = MonotoneOperator(dim, prox=_doubling, name="doubling")
    return ProblemSpec(name="doubled-prox", maps=(LinearMap.identity(dim),),
                       operators=(op, zero_op(2)), forward_blocks=frozenset(),
                       z_init=Vec(np.zeros(dim)), w_init=(Vec(np.zeros(dim)),))


@pytest.mark.parametrize("make_spec", [doubled_forward_problem, doubled_prox_problem],
                         ids=["forward", "prox"])
def test_wrong_shaped_operator_output_ends_in_a_status(make_spec):
    with pytest.raises(AssumptionViolationError, match="expected 2 entries"):
        Engine(make_spec(), EngineConfig(max_iters=5)).step()
    trace = run(make_spec(), EngineConfig(max_iters=5))
    assert trace.status == "assumption-violation"
    assert trace.iterations == 0
    assert trace.message == ("iteration 1, block 0 (operator 'doubling'): "
                             "expected 2 entries, got array of shape (4,)")


def _records_digest(trace) -> str:
    text = repr((trace.status, trace.message, trace.records))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _one_forward_block(forward, z_init, name="patchy"):
    """A forward block on R^dim through the identity, then the zero operator."""
    dim = len(z_init)
    return ProblemSpec(name=name, maps=(LinearMap.identity(dim),),
                       operators=(MonotoneOperator(dim, forward=forward, name=name),
                                  zero_op(dim)),
                       forward_blocks=frozenset({0}), z_init=Vec(np.array(z_init)),
                       w_init=(Vec(np.zeros(dim)),))


def _identity_unless(cond, bad):
    return lambda x: np.where(cond(x), bad, x)


# identity drifts that return NaN/Inf beyond +-2. From z = (1, -1) with
# rho_init = 4 and delta = 0.2 the first trial point is (-3, 3), evaluated
# since rho*delta <= 1. With "inf-below" and "-inf-above" the slope
# <gap, y - w> is +inf, which would pass the slope test.
NON_FINITE_TRIALS = {
    "nan-below": _identity_unless(lambda x: x < -2.0, np.nan),
    "inf-above": _identity_unless(lambda x: x > 2.0, np.inf),
    "inf-below": _identity_unless(lambda x: x < -2.0, np.inf),
    "-inf-above": _identity_unless(lambda x: x > 2.0, -np.inf),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_TRIALS))
def test_non_finite_trials_fail_and_the_run_goes_on(case):
    # every case fails the same trials, so all four leave the same records
    trace = run(_one_forward_block(NON_FINITE_TRIALS[case], [1.0, -1.0]),
                EngineConfig(delta=0.2, rho_init=(4.0, 1.0), max_iters=200))
    assert trace.status == "converged" and trace.iterations == 26
    assert trace.records[0].backtracks == (4, 0)
    assert _records_digest(trace) == "c951f1b59d57a511"


# finite operator values whose dot products overflow: drift.drift at theta,
# and the slope of trials whose T(x~) is finite. The scaled drift accepts
# after 516 trials; the cube's accepted pair overflows the separator.
OVERFLOWING_DOTS = {
    "scaled": (lambda x: 1e155 * x, [1.0, 1.0], "budget", "b521951afdab10d7"),
    "cube": (lambda x: x ** 3, [1e60, -1e60], "assumption-violation", "82912f091f02bf75"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_DOTS))
def test_overflowing_dots_of_finite_values_keep_the_records(case):
    fwd, z_init, status, digest = OVERFLOWING_DOTS[case]
    with np.errstate(over="ignore", invalid="ignore"):
        trace = run(_one_forward_block(fwd, z_init),
                    EngineConfig(max_backtracks=1000, max_iters=20))
    assert trace.status == status
    assert _records_digest(trace) == digest


def _cube_entry(x):
    return (x ** 3)[0]  # a numpy scalar: one entry


# T(x) = x^3 on R^1 returned as other things than a float64 vector; the
# first three carry the same values and leave the records of x ** 3 itself
OTHER_OUTPUTS = {
    "vector": (lambda x: x ** 3, "af60a0cafb4de48b"),
    "scalar": (_cube_entry, "af60a0cafb4de48b"),
    "0-d": (lambda x: np.array(_cube_entry(x)), "af60a0cafb4de48b"),
    "list": (lambda x: [float(_cube_entry(x))], "af60a0cafb4de48b"),
    "float32": (lambda x: (x ** 3).astype(np.float32), "5ec76d9dc9c76438"),
}


@pytest.mark.parametrize("case", sorted(OTHER_OUTPUTS))
def test_outputs_other_than_float_vectors_are_converted(case):
    fwd, digest = OTHER_OUTPUTS[case]
    trace = run(_one_forward_block(fwd, [1.0]), EngineConfig(max_iters=30))
    assert _records_digest(trace) == digest


def _shape_at_trials(x):
    return x if x[0] > 0.0 else np.concatenate((x, x))


WRONG_SHAPES = {
    "0-d": (lambda x: np.float64(x.sum()), "expected 2 entries, got array of shape (1,)"),
    "2-d": (lambda x: x[:, None], "expected 2 entries, got array of shape (2, 1)"),
    "trial": (_shape_at_trials, "expected 2 entries, got array of shape (4,)"),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
def test_wrong_shaped_outputs_at_theta_and_in_trials_end_the_run(case):
    fwd, message = WRONG_SHAPES[case]
    trace = run(_one_forward_block(fwd, [1.0, 1.0], name="shape"),
                EngineConfig(rho_init=(4.0, 1.0), max_iters=5))
    assert trace.status == "assumption-violation" and trace.iterations == 0
    assert trace.message == f"iteration 1, block 0 (operator 'shape'): {message}"


def test_overflowing_projection_ends_in_a_status(monkeypatch):
    spec, _ = build("lasso", {"m": 8, "d": 12})
    original = projsplit.engine.project
    monkeypatch.setattr(projsplit.engine, "project",
                        lambda p, sep, gamma: original(p, sep._replace(alpha=np.inf), gamma))
    eng = Engine(spec, EngineConfig(max_iters=5))
    with np.errstate(invalid="ignore"):
        trace = eng.run()
    assert trace.status == "assumption-violation"
    assert trace.message.startswith("iteration 1, projection: ")


# -- warm-started linesearch ------------------------------------------------------

def test_linesearch_starts_one_shrink_above_the_last_accepted_stepsize():
    # identity drift T(x) = x with delta = 1/2 accepts rho <= 2/3. From
    # z = 1, w = 0 and rho_init = 4, iteration 1 skips 4 (rho*delta > 1 for
    # the declared modulus 0), tries 2 and 1 and accepts 0.5; the projection
    # moves to z = 0.75, w = 0.25. Iteration 2 starts at min(4, 0.5/nu) = 1
    # (a restart at rho_init would try 2 again), fails at 1 and accepts 0.5.
    spec = ProblemSpec(name="identity-drift", maps=(LinearMap.identity(1),),
                       operators=(_identity_op(), zero_op(1)), forward_blocks=frozenset({0}),
                       z_init=vec(1.0), w_init=(vec(0.0),))
    eng = Engine(spec, EngineConfig(delta=0.5, nu=0.5, rho_init=(4.0, 1.0), max_iters=2))
    eng.step()
    first = eng.records[-1]
    assert first.backtracks == (3, 0) and first.stepsizes == (0.5, 1.0)
    assert (first.phi, first.pi, first.alpha) == (0.25, 0.5, 0.5)
    assert eng.point.z.entries[0] == 0.75 and eng.point.w[0].entries[0] == 0.25
    eng.step()
    second = eng.records[-1]
    assert second.backtracks == (2, 0) and second.stepsizes == (0.5, 1.0)
    assert eng.blocks[0].x[0] == 0.5 and eng.blocks[0].y[0] == 0.5


def test_large_forward_rho_init_costs_few_evaluations():
    # rho_init = 1e6 on the cubic block: restarting every search there cost
    # 2,291 forward evaluations over the same 94 iterations. The first
    # search skips the 20 stepsizes 1e6 * 2^-j above 1/delta = 1 unevaluated
    # (303 evaluations when it tried them)
    spec, ref = build("box_cubic", {})
    trace = run(spec, EngineConfig(rho_init=(1e6, 1.0), max_iters=2000))
    evals = sum(1 + rec.backtracks[0] for rec in trace.records)
    assert trace.status == "converged"
    assert trace.iterations == 94
    assert evals == 283
    assert np.linalg.norm(trace.solution.z.entries - ref.z.entries) <= 1e-5


def _recording(op):
    """``op`` with a forward callable that keeps a copy of each argument, and that list."""
    seen = []

    def forward(x):
        seen.append(x.copy())
        return op._forward(x)

    return MonotoneOperator(op.dim, forward=forward, name=op.name, modulus=op.modulus), seen


# forward operators with modulus 1 (shifted identity, signed square root) and 0
SKIP_CASES = {
    "shifted-identity": lambda: shifted_identity([0.5, -1.0, 2.0]),
    "signed-sqrt": lambda: make_signed_sqrt([0.3, -2.0, 0.0])[0].operators[0],
    "skew": lambda: affine_monotone([[0.0, 2.0, -1.0], [-2.0, 0.0, 0.5], [1.0, -0.5, 0.0]],
                                    [0.1, 0.2, 0.3]),
    "cube": lambda: MonotoneOperator(3, forward=lambda x: x ** 3, name="cube"),
}


@pytest.mark.parametrize("delta, rho_init", [(1.0, 1.0), (0.5, 4.0), (2.0, 1e6), (0.1, 0.3)])
@pytest.mark.parametrize("case", sorted(SKIP_CASES))
def test_linesearch_evaluates_no_trial_that_must_fail(case, delta, rho_init):
    # an update evaluates T at G z and once per counted trial; its first
    # trial is the largest rho_init * nu^j with rho*(delta + mu) <= 1
    op, seen = _recording(SKIP_CASES[case]())
    mu, cfg = op.modulus, EngineConfig(delta=delta, nu=0.5)
    rng = np.random.default_rng(4)
    for _ in range(10):
        theta, w = rng.standard_normal(3), rng.standard_normal(3)
        theta.setflags(write=False)
        w.setflags(write=False)
        seen.clear()
        state = forward_update_with_backtrack(op, theta, w, rho_init, cfg)
        assert state.backtracks >= 1 and len(seen) == 1 + state.backtracks
        d = state.drift
        rhos = [np.dot(theta - x, d) / np.dot(d, d) for x in seen[1:]]
        assert rhos[-1] == pytest.approx(state.rho)
        assert all(rho * (delta + mu) <= 1.0 + 1e-9 for rho in rhos), rhos
        first = rho_init * 0.5 ** round(np.log2(rho_init / rhos[0]))
        assert rhos[0] == pytest.approx(first)
        assert first == rho_init or 2.0 * first * (delta + mu) > 1.0


@pytest.mark.parametrize("kind", ["lasso", "signed_sqrt", "box_cubic"])
def test_forward_evaluations_are_one_plus_backtracks_per_update(kind, monkeypatch):
    # the count perfbench reports as forward_evals is the number of T
    # evaluations, and no counted trial lies above 1/(delta + mu)
    spec, _ = build(kind, {})
    op, calls = spec.operators[0], [0]
    original = op._forward

    def counted(x):
        calls[0] += 1
        return original(x)

    monkeypatch.setattr(op, "_forward", counted)
    cfg = EngineConfig(max_iters=5000)
    trace = run(spec, cfg)
    assert trace.status == "converged"
    assert calls[0] == sum(1 + rec.backtracks[0] for rec in trace.records)
    for rec in trace.records:
        if rec.backtracks[0]:
            first = rec.stepsizes[0] / cfg.nu ** (rec.backtracks[0] - 1)
            assert first * (cfg.delta + op.modulus) <= 1.0 + 1e-9


def _count_prox_evals(monkeypatch):
    """A one-item list counting resolvent evaluations, as perfbench counts them."""
    calls = [0]
    original = projsplit.operators.prox_eval

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(projsplit.operators, "prox_eval", counted)
    return calls


def test_error_search_starts_at_the_last_accepted_scale(monkeypatch):
    # the benchmark's async_inexact_verify run: each backward block's search
    # starts at the index it accepted last time, at 0 (the full magnitude)
    # at its first update or after falling back to a zero error, and costs
    # one resolvent evaluation per scale tried (plus one at the unperturbed
    # input after a fallback)
    spec, _ = make_skew_composed(1234, (8, 6, 10))
    schedule = SchedulePolicy(kind="seeded-random", p_select=0.5, M=5, D=3,
                              delay_kind="seeded-random", seed=0)
    policy = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=0.1, seed=1)
    evals = _count_prox_evals(monkeypatch)
    original = projsplit.engine.inject_error
    searches = []  # (operator, start, accepted index, error, resolvent evaluations)

    def recorded(policy, rng, base, op, rho, z_block, w_block, start):
        before = evals[0]
        e, res, k = original(policy, rng, base, op, rho, z_block, w_block, start)
        searches.append((op, start, k, e, evals[0] - before))
        return e, res, k

    monkeypatch.setattr(projsplit.engine, "inject_error", recorded)
    eng = Engine(spec, EngineConfig(max_iters=20000), schedule, policy)
    assert eng.run().status == "converged"
    last = {}
    fallbacks = 0
    for op, start, k, e, n_evals in searches:
        assert start == last.get(op, 0)
        norm = np.linalg.norm(e)
        assert norm <= policy.magnitude * (1.0 + 1e-12)
        if norm == 0.0:
            fallbacks += 1
            assert k == 0 and n_evals == 50 - start + 1
        else:
            assert start <= k < 50 and n_evals == k - start + 1
            assert norm == pytest.approx(policy.magnitude * 0.5 ** k, rel=1e-12)
        last[op] = k
    assert fallbacks == 2
    assert max(k for _, _, k, _, _ in searches) > 1
    assert evals[0] == sum(n for *_, n in searches)


def test_a_zero_fallback_restarts_the_next_search_at_the_full_magnitude(monkeypatch):
    # T = 0 at w = 0: x = G z + e and y = 0, so the first gap is
    # -||e||^2 + sigma*||e||^2 < 0 at every scale and the search falls back
    evals = _count_prox_evals(monkeypatch)
    policy = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=1.0, seed=0)
    state = backward_update(zero_op(2), arr(1.0, -1.0), arr(0.0, 0.0), 1.0,
                            policy, np.random.default_rng(policy.seed), 10)
    assert not state.error.any() and state.halvings == 0
    assert evals[0] == 40 + 1  # indices 10..49, then the unperturbed input
    # in the engine: the zero block reads w_n = -w_1 = 0 at iteration 1
    original = projsplit.engine.inject_error
    starts = []

    def recorded(*args):
        starts.append(args[-1])
        return original(*args)

    monkeypatch.setattr(projsplit.engine, "inject_error", recorded)
    spec = ProblemSpec(name="zero-last-block", maps=(LinearMap.identity(2),),
                       operators=(shifted_identity(arr(1.0, 1.0)), zero_op(2)),
                       forward_blocks=frozenset({0}), z_init=vec(1.0, -1.0),
                       w_init=(vec(0.0, 0.0),))
    eng = Engine(spec, EngineConfig(max_iters=2), error_policy=policy)
    eng.blocks[1] = eng.blocks[1]._replace(halvings=10)
    assert eng.step() == "continue"
    assert not eng.blocks[1].error.any() and eng.blocks[1].halvings == 0
    eng.step()
    assert starts == [10, 0]


def test_an_error_free_backward_update_evaluates_its_prox_once(monkeypatch):
    evals = _count_prox_evals(monkeypatch)
    spec, _ = build("lasso", {"m": 8, "d": 12})
    eng = Engine(spec, EngineConfig(max_iters=50), error_policy=ErrorPolicy(sigma=0.5))
    eng.run()
    assert evals[0] == len(eng.records)  # one l1 block, updated every iteration
    assert eng.blocks[1].halvings == 0
    evals[0] = 0
    state = backward_update(l1_subdifferential(1.0, 1), arr(2.0), arr(0.0),
                            1.0, ErrorPolicy(), None, 7)
    assert evals[0] == 1 and state.halvings == 0 and not state.error.any()


def test_carry_over_is_bitwise():
    spec, _ = build("box_cubic", {})
    # seed 0 leaves block 1 unselected at step 2
    sched = SchedulePolicy(kind="seeded-random", M=2, seed=0)
    eng = Engine(spec, EngineConfig(max_iters=10), sched)
    eng.step()
    first = list(eng.blocks)
    eng.step()
    selected_second = eng.records[-1].selected
    assert len(selected_second) < spec.n
    for i in range(spec.n):
        if i not in selected_second:
            assert eng.blocks[i] is first[i]


def test_single_operator_problem_degenerates_cleanly():
    spec, mat, shift = _single_operator_spec()
    trace = run(spec, EngineConfig(max_iters=4000, tol_primal=1e-9, tol_dual=1e-9))
    assert trace.status == "converged"
    expected = np.linalg.solve(mat, -shift)
    assert np.linalg.norm(trace.solution.z.entries - expected) <= 1e-7
    assert kkt_residual(spec, trace.solution.z, ()) <= 1e-8


def test_iteration_builds_at_most_n_vecs(monkeypatch):
    # the iterate is a pair of arrays: a converged run wraps its final point,
    # which is also its solution, as n Vecs (z and the n - 1 dual blocks) once
    spec, _ = build("lasso", {"m": 20, "d": 50})
    eng = Engine(spec, EngineConfig(max_iters=5000))
    calls = [0]
    original = Vec.__init__

    def counted(self, *args):
        calls[0] += 1
        original(self, *args)

    monkeypatch.setattr(Vec, "__init__", counted)
    trace = eng.run()
    assert trace.status == "converged"
    assert trace.solution is trace.final_point
    assert calls[0] == spec.n


def test_iteration_overhead_is_at_most_25_python_calls():
    # per-iteration interpreter overhead, counted rather than timed: wall
    # times of small runs spread too widely to gate on (23.6 calls per
    # iteration; 39 with a forward_eval -> _argument -> checked_entries chain
    # per evaluation and identity maps applied through LinearMap)
    spec, _ = build("lasso", {"m": 20, "d": 50})
    eng = Engine(spec, EngineConfig(max_iters=5000))
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(profile)
    try:
        trace = eng.run()
    finally:
        sys.setprofile(None)
    assert trace.status == "converged"
    assert calls[0] <= 25 * trace.iterations


# (problem, cap on C-level calls per iteration). Each array reduction is
# formed once: the linesearch checks operator outputs through its own dot
# products, and a fresh block's residuals come from its update (before: 22
# dots and 84 C-level calls per iteration on both). So a run makes exactly
# 13 dots an iteration and 2 per evaluated linesearch trial (its gap norm
# and slope), whatever the trajectory: the forward update's 2 (the drift's
# norm at G z, the accepted mismatch's), the resolvent output's finiteness
# check, the backward update's 2 residuals, the separator's 6 and the
# projection's 2 (on the last iteration, which does not project, the
# solution's two Vecs check theirs). An iteration writes its record as one
# float row and one integer row, two calls (50.5 and 51.1 C-level calls per
# iteration; 54.5 and 55.1 with a relative quickstop's norm of w and
# zero-array accumulators, 64.5 and 65.1 with one append or extend per
# record column).
NUMPY_CALLS = {
    "lasso": (lambda: build("lasso", {"m": 20, "d": 50})[0], 53.0),
    "signed_sqrt": (lambda: make_signed_sqrt([0.0] * 4)[0], 53.0),
}


@pytest.mark.parametrize("case", sorted(NUMPY_CALLS))
def test_iteration_makes_few_numpy_calls(case):
    # builtin functions and methods called from Python code, numpy's among
    # them; array arithmetic and ufuncs such as np.sign raise no c_call event
    make_spec, c_call_cap = NUMPY_CALLS[case]
    eng = Engine(make_spec(), EngineConfig(max_iters=5000))
    dots, c_calls = [0], [0]

    def profile(frame, event, arg):
        if event == "c_call":
            c_calls[0] += 1
            dots[0] += getattr(arg, "__qualname__", "") == "ndarray.dot"

    sys.setprofile(profile)
    try:
        trace = eng.run()
    finally:
        sys.setprofile(None)
    assert trace.status == "converged"
    trials = sum(rec.backtracks[0] for rec in trace.records)  # block 0 is the forward block
    assert dots[0] == 13 * trace.iterations + 2 * trials
    assert c_calls[0] <= c_call_cap * trace.iterations


def test_async_inexact_iteration_overhead_is_at_most_40_python_calls():
    # the benchmark's async_inexact_verify schedule and errors, unchecked:
    # block selection, delay draws and the cached dense resolvent each cost
    # O(1) Python calls per iteration, G_i z is formed once per iterate, the
    # separator reuses the products of unchanged blocks, and a backward
    # block's error search starts at the scale it accepted last time, so
    # most updates evaluate the resolvent once, and tests it through one
    # error_inequality_gaps call (35.3 per iteration; 34.2 with the gaps
    # inlined in the search, 42.7 with each search one halving above that
    # scale and each product formed where it was read, 176 with a generator
    # seeded per iteration and block and a solve per resolvent)
    spec, _ = make_skew_composed(1234, (8, 6, 10))
    schedule = SchedulePolicy(kind="seeded-random", p_select=0.5, M=5, D=3,
                              delay_kind="seeded-random", seed=0)
    errors = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=0.1, seed=1)
    eng = Engine(spec, EngineConfig(max_iters=20000), schedule, errors)
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(profile)
    try:
        trace = eng.run()
    finally:
        sys.setprofile(None)
    assert trace.status == "converged"
    assert calls[0] <= 40 * trace.iterations


def test_checked_async_iteration_overhead_is_at_most_59_python_calls():
    # the same run under run_with_checks, set-up and schedule audit
    # included: the monitor folds each check's worst violation once per
    # iteration and checks the projection on the engine's products at the
    # new iterate, which the next step reuses (57.5 calls per iteration;
    # 58.6 with the error check wrapping the gaps in a ProxResult and a
    # helper, 62.8 with the landing value forming its own, 72.3 with each
    # error search one halving above the last accepted scale and each
    # product formed where it was read, 132 with one accumulator call per
    # check, block and iteration)
    spec, ref = make_skew_composed(1234, (8, 6, 10))
    schedule = SchedulePolicy(kind="seeded-random", p_select=0.5, M=5, D=3,
                              delay_kind="seeded-random", seed=0)
    errors = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=0.1, seed=1)
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(profile)
    try:
        trace, results = run_with_checks(spec, ref, EngineConfig(max_iters=20000), schedule,
                                         errors)
    finally:
        sys.setprofile(None)
    assert trace.status == "converged" and all(r.passed for r in results)
    assert calls[0] <= 59 * trace.iterations


def test_determinism_across_runs():
    spec, _ = build("lasso", {})
    sched = SchedulePolicy(kind="seeded-random", p_select=0.6, M=4, D=2,
                           delay_kind="seeded-random", seed=9)
    pol = ErrorPolicy(sigma=0.3, mode="seeded-random", magnitude=0.05, seed=21)
    t1 = run(spec, EngineConfig(max_iters=300), sched, pol)
    t2 = run(spec, EngineConfig(max_iters=300), sched, pol)
    assert len(t1.records) == len(t2.records)
    for a, b in zip(t1.records, t2.records):
        assert a == b
    assert np.array_equal(t1.final_point.z.entries, t2.final_point.z.entries)


def test_one_error_policy_gives_the_same_records_in_every_run():
    # a policy holds no generator state: reusing it, or a replace copy of
    # it, replays the same prox errors
    spec, _ = build("lasso", {"m": 8, "d": 12})
    cfg = EngineConfig(max_iters=50)
    policy = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=0.1, seed=3)
    first = run(spec, cfg, error_policy=policy)
    assert run(spec, cfg, error_policy=policy).records == first.records
    assert run(spec, cfg, error_policy=dataclasses.replace(policy)).records == first.records
    assert run(spec, cfg).records != first.records


def _count_generators(monkeypatch):
    calls = [0]
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        calls[0] += 1
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    return calls


def test_only_a_run_with_errors_builds_an_error_generator(monkeypatch):
    # an unconditional generator costs set-up time and the memory of numpy's
    # generator machinery in runs that never draw from it
    spec, _ = build("lasso", {"m": 8, "d": 12})
    cfg = EngineConfig(max_iters=50)
    calls = _count_generators(monkeypatch)
    assert run(spec, cfg).iterations > 0
    assert run(spec, cfg, error_policy=ErrorPolicy(sigma=0.5)).iterations > 0
    assert calls[0] == 0
    run(spec, cfg, error_policy=ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=0.1))
    assert calls[0] == 1


@pytest.mark.parametrize("kinds", [(), ("identity",), ("dense",), ("dense", "identity")],
                         ids=str)
def test_separator_sum_has_the_bits_of_a_zero_array_start(kinds):
    # v = sum_i G_i* y_i + y_n formed from a scalar 0.0 keeps np.zeros(dim)'s
    # bits on blocks of signed zeros; starting from a block would keep -0.0
    maps = tuple(SIGNED_ZERO_MAPS[kind][0]() for kind in kinds)
    ys = [SIGNED_ZERO_MAPS[kind][1] for kind in kinds] + [arr(-0.0, -0.0, 0.0, -0.0)]
    blocks = [BlockState(np.ones(y.shape[0]), y, 1.0) for y in ys]
    p = (np.ones(4), tuple(np.ones(y.shape[0]) for y in ys[:-1]))
    expected = np.zeros(4)
    for g, y in zip(maps, ys):
        expected = expected + (y if g.matrix is None else g.matrix.T @ y)
    expected = expected + ys[-1]
    v = evaluate_separator(blocks, p, maps, 1.0).v
    assert v.tobytes() == expected.tobytes()
    if not kinds:
        assert v.tobytes() != ys[-1].tobytes()


# -- synchronous reference comparison -------------------------------------------

def _reference_sync_lasso(a_mat, b, lam, z, w, cfg, iters):
    """Straight-line synchronous loop mirroring the engine's operation order."""
    minus_b = -b
    eye = np.eye(a_mat.shape[0])
    points = []
    for _ in range(iters):
        theta = a_mat @ z
        zeta = eye @ theta + minus_b
        drift = zeta - w
        if np.linalg.norm(drift) <= cfg.quickstop_eps * (1 + np.linalg.norm(w)):
            x1, y1 = theta, zeta
        else:
            rho = 1.0
            while True:
                x_try = theta - rho * drift
                y_try = eye @ x_try + minus_b
                gap = theta - x_try
                if cfg.delta * np.dot(gap, gap) - np.dot(gap, y_try - w) <= 0.0:
                    break
                rho = cfg.nu * rho
            x1, y1 = x_try, y_try
        base = z + 1.0 * w2_of(a_mat, w)
        x2 = np.sign(base) * np.maximum(np.abs(base) - 1.0 * lam, 0.0)
        y2 = (base - x2) / 1.0
        u1 = x1 - a_mat @ x2
        v = np.zeros_like(z)
        v = v + a_mat.T @ y1
        v = v + y2
        pi = np.dot(u1, u1) + np.dot(v, v) / cfg.gamma
        phi = np.dot(z, v)
        phi += np.dot(w, u1)
        phi -= np.dot(x1, y1)
        phi -= np.dot(x2, y2)
        alpha = cfg.beta * max(0.0, phi) / pi if pi > 0 else 0.0
        if pi > cfg.pi_zero_eps:
            z = z - (alpha / cfg.gamma) * v
            w = w - alpha * u1
        points.append((z.copy(), w.copy()))
    return points


def w2_of(a_mat, w):
    out = np.zeros(a_mat.shape[1])
    out = out - a_mat.T @ w
    return out


def test_full_zero_delay_matches_synchronous_reference_bitwise():
    spec, _ = build("lasso", {"m": 8, "d": 12, "seed": 3})
    # rebuild the instance data exactly as the registry does
    rng = np.random.default_rng([3, 101])
    a_mat = rng.standard_normal((8, 12))
    b = rng.standard_normal(8)
    lam = 0.1 * float(np.abs(a_mat.T @ b).max())

    cfg = EngineConfig(max_iters=60, tol_primal=1e-14, tol_dual=1e-14)
    captured = []
    eng = Engine(spec, cfg)
    eng.run(callback=lambda e, r: captured.append(
        (e.point.z.entries.copy(), e.point.w[0].entries.copy())))

    ref = _reference_sync_lasso(a_mat, b, lam, np.zeros(12), np.zeros(8), cfg, len(captured))
    for (z_e, w_e), (z_r, w_r) in zip(captured, ref):
        assert np.array_equal(z_e, z_r)
        assert np.array_equal(w_e, w_r)


# -- asynchronous reference comparison ------------------------------------------

def _reference_async(spec, cfg, schedule, errors, iters):
    """Straight-line loop of the engine's iteration under seeded selection, delays and errors.

    It keeps the last D + 1 iterates as plain (z, w) pairs, applies every map
    at every read and carries each block's accepted stepsize and error index
    itself; only the draws (select_blocks, delayed_index, inject_error) and
    the separator formula, without kept products, are the engine's.
    """
    n, maps, ops = spec.n, spec.maps, spec.operators
    sched = schedule.resolved(n)
    rng = np.random.default_rng(errors.seed) if errors.mode == "seeded-random" else None
    rho_init = cfg.resolve_rho(n)
    rho_hat, halvings = list(rho_init), [0] * n
    last_selected = [1 - sched.M] * n
    blocks = [None] * n
    z, w = spec.z_init.entries, tuple(wi.entries for wi in spec.w_init)
    history, points = {}, []
    for k in range(1, iters + 1):
        history[k] = (z, w)
        history.pop(k - sched.D - 1, None)
        selected = select_blocks(sched, n, k, last_selected)
        for i in selected:
            last_selected[i] = k
        for i in selected:
            z_d, w_d = history[delayed_index(sched, i, k)]
            if i < n - 1:
                g = maps[i].matrix
                theta, w_i = (z_d if g is None else g @ z_d), w_d[i]
            else:
                theta, w_i = z_d, np.zeros(spec.dim)
                for j in range(n - 1):
                    g = maps[j].matrix
                    w_i = w_i - (w_d[j] if g is None else g.T @ w_d[j])
            if i in spec.forward_blocks:
                fwd = ops[i]._forward
                zeta = fwd(theta)
                drift = zeta - w_i
                rho = min(rho_init[i], rho_hat[i] / cfg.nu)
                if np.dot(drift, drift) == 0.0:
                    blocks[i], rho_hat[i] = BlockState(theta, zeta, rho), rho
                    continue
                while rho * (cfg.delta + ops[i].modulus) > 1.0 + 1e-9:
                    rho = cfg.nu * rho
                while True:
                    x = theta - rho * drift
                    y = fwd(x)
                    gap = theta - x
                    if cfg.delta * np.dot(gap, gap) - np.dot(gap, y - w_i) <= 0.0:
                        break
                    rho = cfg.nu * rho
                blocks[i], rho_hat[i] = BlockState(x, y, rho), rho
            else:
                base = theta + rho_init[i] * w_i
                _, (x, y), halvings[i] = inject_error(errors, rng, base, ops[i], rho_init[i],
                                                      theta, w_i, halvings[i])
                blocks[i] = BlockState(x, y, rho_init[i])
        sep = evaluate_separator(blocks, (z, w), maps, cfg.gamma, cfg.beta, products=None)
        assert sep.pi > cfg.pi_zero_eps
        if sep.alpha != 0.0:
            z = z - (sep.alpha / cfg.gamma) * sep.v
            w = tuple(w[i] - sep.alpha * sep.u[i] for i in range(n - 1))
        points.append((z, w))
    return points


def _skew_async(seed):
    spec, _ = make_skew_composed(1234, (8, 6, 10))
    schedule = SchedulePolicy(kind="seeded-random", p_select=0.5, M=5, D=3,
                              delay_kind="seeded-random", seed=seed)
    errors = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=0.1, seed=seed + 1)
    return spec, EngineConfig(), schedule, errors


def _box_cubic_async(seed):
    text = (Path(__file__).resolve().parent.parent / "configs" / "box_cubic_async.json").read_text()
    cfg = parse_config(text).with_overrides(seed=seed)
    spec, _ = build(cfg.problem_kind, cfg.problem_params)
    return spec, cfg.engine, cfg.schedule, cfg.errors


@pytest.mark.parametrize("seed", [0, 1000])
@pytest.mark.parametrize("case", [_skew_async, _box_cubic_async], ids=["skew", "box_cubic"])
def test_async_run_matches_straight_reference_bitwise(case, seed):
    # the engine keeps map products, history entries, warm starts and the
    # separator's products; the reference forms everything again at each read
    spec, cfg, schedule, errors = case(seed)
    cfg = dataclasses.replace(cfg, max_iters=300, tol_primal=1e-300, tol_dual=1e-300)
    captured = []
    trace = Engine(spec, cfg, schedule, errors).run(
        callback=lambda e, r: captured.append((e.iterate[0], e.iterate[1])))
    assert trace.status == "budget" and len(captured) == 300
    ref = _reference_async(spec, cfg, schedule, errors, 300)
    for (z_e, w_e), (z_r, w_r) in zip(captured, ref):
        assert np.array_equal(z_e, z_r)
        assert all(np.array_equal(a, b) for a, b in zip(w_e, w_r))
