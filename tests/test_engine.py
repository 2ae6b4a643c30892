import dataclasses
import sys

import numpy as np
import pytest

from projsplit import (BacktrackLimitError, ConfigError, Engine, EngineConfig, ErrorPolicy,
                       LinearMap, MonotoneOperator, OperatorSlot, ProblemSpec,
                       SchedulePolicy, Space, Vec, affine_monotone, affine_value,
                       backward_update, box_normal_cone, build, cube, evaluate_separator,
                       forward_update_with_backtrack, kkt_residual, l1_subdifferential,
                       project, run, zero_op)
from projsplit.errors import AssumptionViolationError, NonFiniteError
from projsplit.checks import update_gap
from projsplit.engine import BlockState


def vec(*entries):
    return Vec(Space(len(entries)), np.array(entries, dtype=float))


def arr(*entries):
    return np.array(entries, dtype=float)


def slot(op, kind, index=0, g=None, rho=1.0):
    return OperatorSlot(index=index, op=op,
                        map=g if g is not None else LinearMap.identity(op.space),
                        kind=kind, rho_init=rho)


NO_ERRORS = ErrorPolicy()


# -- configuration ------------------------------------------------------------

def test_config_bounds_are_enforced_by_name():
    with pytest.raises(ConfigError, match="beta_hi"):
        EngineConfig(beta_hi=2.0).validate()
    with pytest.raises(ConfigError, match="nu"):
        EngineConfig(nu=0.0).validate()
    with pytest.raises(ConfigError, match="nu"):
        EngineConfig(nu=1.0).validate()
    with pytest.raises(ConfigError, match="gamma"):
        EngineConfig(gamma=0.0).validate()
    with pytest.raises(ConfigError, match="rho_init"):
        EngineConfig(rho_init=0.0).validate()
    with pytest.raises(ConfigError, match="max_backtracks"):
        EngineConfig(max_backtracks=0).validate()
    with pytest.raises(ConfigError, match="beta"):
        EngineConfig(beta=2.0, beta_hi=1.5).validate()
    EngineConfig().validate(3)


@pytest.mark.parametrize("rho", [0.0, -1.0, np.inf, np.nan])
def test_config_rejects_a_nonpositive_or_non_finite_rho_init(rho):
    with pytest.raises(ConfigError, match="rho_init"):
        EngineConfig(rho_init=rho).validate()
    with pytest.raises(ConfigError, match="rho_init"):
        EngineConfig(rho_init=(1.0, rho)).validate(2)


def test_config_accepts_any_finite_positive_rho_init():
    for rho in (1e-300, 1e300):
        EngineConfig(rho_init=rho).validate(2)
        EngineConfig(rho_init=(rho, 1.0)).validate(2)


def test_config_per_block_stepsizes():
    cfg = EngineConfig(rho_init=(1.0, 2.0))
    assert cfg.resolve_rho(2) == (1.0, 2.0)
    with pytest.raises(ConfigError, match="rho_init"):
        cfg.validate(3)


# -- backward updates ---------------------------------------------------------

def test_backward_soft_threshold():
    st_ = slot(l1_subdifferential(1.0, 1), "backward")
    state = backward_update(st_, arr(2.0), arr(0.0), 1.0, NO_ERRORS)
    assert state.x == pytest.approx([1.0])
    assert state.y == pytest.approx([1.0])


def test_backward_zero_operator():
    st_ = slot(zero_op(2), "backward")
    z, w = arr(1.0, -2.0), arr(0.5, 0.25)
    state = backward_update(st_, z, w, 2.0, NO_ERRORS)
    assert state.x == pytest.approx(z + 2.0 * w)
    assert np.linalg.norm(state.y) == 0.0


def test_backward_box_projection():
    st_ = slot(box_normal_cone([-1.0], [1.0]), "backward")
    state = backward_update(st_, arr(2.0), arr(0.5), 2.0, NO_ERRORS)
    assert state.x == pytest.approx([1.0])
    assert state.y == pytest.approx([1.0])


def test_backward_identity_gap_is_tiny():
    st_ = slot(l1_subdifferential(0.3, 3), "backward")
    rng = np.random.default_rng(1)
    for _ in range(20):
        state = backward_update(st_, rng.standard_normal(3), rng.standard_normal(3),
                                float(rng.uniform(0.1, 5)), NO_ERRORS)
        assert update_gap(state, "backward") <= 1e-10


# -- forward updates with backtracking ----------------------------------------

def _identity_op(dim=1):
    return MonotoneOperator(Space(dim), forward=lambda x: x, name="identity")


def test_forward_quickstop():
    st_ = slot(_identity_op(), "forward")
    state = forward_update_with_backtrack(st_, arr(1.0), arr(1.0), 1.0, EngineConfig())
    assert state.backtracks == 0
    assert state.x == pytest.approx([1.0])
    assert state.y == pytest.approx([1.0])
    assert state.rho == 1.0


def test_forward_identity_two_trials():
    cfg = EngineConfig(delta=0.5, nu=0.5)
    st_ = slot(_identity_op(), "forward")
    state = forward_update_with_backtrack(st_, arr(1.0), arr(0.0), 1.0, cfg)
    assert state.backtracks == 2
    assert abs(state.rho - 0.5) <= 1e-12
    assert abs(state.x[0] - 0.5) <= 1e-12
    assert abs(state.y[0] - 0.5) <= 1e-12


def test_forward_cube_three_trials():
    cfg = EngineConfig(delta=1.0, nu=0.5)
    op = MonotoneOperator(Space(1), forward=lambda x: x ** 3, name="cube")
    state = forward_update_with_backtrack(slot(op, "forward"), arr(1.0), arr(0.0), 1.0, cfg)
    assert state.backtracks == 3
    assert abs(state.rho - 0.25) <= 1e-12
    assert abs(state.x[0] - 0.75) <= 1e-12
    assert abs(state.y[0] - 0.421875) <= 1e-12


def test_forward_accepted_step_satisfies_slope_test_and_geometry():
    cfg = EngineConfig(delta=2.0, nu=0.7)
    op = MonotoneOperator(Space(2), forward=lambda x: np.sign(x) * np.abs(x) ** 1.5,
                          name="power")
    rng = np.random.default_rng(3)
    for _ in range(25):
        z = 2 * rng.standard_normal(2)
        w = 2 * rng.standard_normal(2)
        state = forward_update_with_backtrack(slot(op, "forward"), z, w, 1.0, cfg)
        if state.backtracks == 0:
            continue  # quickstop branch
        gap = z - state.x
        assert cfg.delta * np.dot(gap, gap) - np.dot(gap, state.y - w) <= 1e-12
        assert state.rho == pytest.approx(1.0 * cfg.nu ** (state.backtracks - 1))
        assert state.rho <= 1.0


def test_forward_non_finite_trial_counts_as_failed():
    # identity drift that is NaN below -2 and Inf above 2: under continuity
    # such a trial was too long, so the search shrinks rho and goes on
    def patchy(x):
        with np.errstate(invalid="ignore"):
            return np.where(x < -2.0, np.nan, np.where(x > 2.0, np.inf, x))

    op = MonotoneOperator(Space(1), forward=patchy, name="patchy")
    cfg = EngineConfig(delta=0.5, nu=0.5)
    # from z = +-1, rho = 4 gives x~ = -+3 (NaN, Inf); 2 and 1 fail the slope
    # test, 0.5 passes
    for z in (1.0, -1.0):
        state = forward_update_with_backtrack(slot(op, "forward"), arr(z), arr(0.0), 4.0, cfg)
        assert state.backtracks == 4
        assert state.rho == 0.5
        assert state.x[0] == 0.5 * z and state.y[0] == 0.5 * z


def test_forward_non_finite_value_at_theta_raises():
    op = MonotoneOperator(Space(1), forward=lambda x: np.full_like(x, np.inf), name="inf")
    with pytest.raises(NonFiniteError):
        forward_update_with_backtrack(slot(op, "forward"), arr(1.0), arr(0.0), 1.0,
                                      EngineConfig())


def test_forward_discontinuous_operator_exhausts_budget():
    # a step discontinuity right at the base point defeats the linesearch,
    # which is exactly the diagnostic the budget exists for
    def step_fn(x):
        return np.where(x >= 1.0, 1.0, -1.0)

    op = MonotoneOperator(Space(1), forward=step_fn, name="step")
    cfg = EngineConfig(max_backtracks=50)
    with pytest.raises(BacktrackLimitError, match="50"):
        forward_update_with_backtrack(slot(op, "forward"), arr(1.0), arr(0.0), 1.0, cfg)


# -- separator and projection --------------------------------------------------

def _two_scalar_blocks(x1, y1, x2, y2):
    return [BlockState(x=arr(x1), y=arr(y1), rho=1.0),
            BlockState(x=arr(x2), y=arr(y2), rho=1.0)]


IDENT = (LinearMap.identity(Space(1)),)


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
    while eng.step().kind == "continue":
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
    with pytest.raises(ConfigError, match="beta_hi"):
        EngineConfig(beta=2.0, beta_lo=1.0, beta_hi=2.0).validate()


# -- the outer loop -------------------------------------------------------------

def test_step_exact_termination_from_oracle_start():
    spec, ref = build("box_cubic", {})
    warm = dataclasses.replace(spec, z_init=ref.z, w_init=ref.w)
    eng = Engine(warm, EngineConfig(max_iters=10))
    out = eng.step()
    assert out.kind == "exact-termination"
    assert kkt_residual(spec, out.solution.z, out.solution.w) <= 1e-8


def test_initial_blocks_allow_exact_termination_under_partial_coverage():
    # consistent user-supplied block states: the zero-gradient return has to
    # wait for full coverage, which round-robin reaches at iteration n
    spec, ref = build("box_cubic", {})
    warm = dataclasses.replace(spec, z_init=ref.z, w_init=ref.w)
    wn = Vec(ref.w[0].space, -1.0 * ref.w[0].entries)  # single dual block, identity map
    blocks = [(ref.z, ref.w[0]), (ref.z, wn)]
    sched = SchedulePolicy(kind="round-robin", block_size=1, M=2)
    eng = Engine(warm, EngineConfig(max_iters=10), sched, initial_blocks=blocks)
    trace = eng.run()
    assert trace.status == "exact-termination"
    assert trace.iterations == 2  # coverage completes exactly at M
    assert kkt_residual(spec, trace.solution.z, trace.solution.w) <= 1e-8


def test_step_budget_when_exhausted():
    spec, _ = build("box_cubic", {})
    eng = Engine(spec, EngineConfig(max_iters=0))
    assert eng.step().kind == "budget"
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


def test_run_backtrack_limit_becomes_assumption_violation():
    def step_fn(x):
        return np.where(x >= 1.0, 1.0, -1.0)

    op = MonotoneOperator(Space(1), forward=step_fn, name="step")
    spec = ProblemSpec(name="broken", maps=(LinearMap.identity(Space(1)),),
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
    space = Space(2)
    return ProblemSpec(name="overflow", maps=(LinearMap.diagonal([1e300, 1e300]),),
                       operators=(box_normal_cone([-1.0, -1.0], [1.0, 1.0]), zero_op(2)),
                       forward_blocks=frozenset(), z_init=Vec(space, [1e10, 1e10]),
                       w_init=(space.zeros(),))


def cube_overflow_problem():
    """cube(2) from z = (1e40, 1e40): T(z) = 1e120 is finite, but the first
    ~60 trial outputs overflow, and the search needs 267 trials in all."""
    space = Space(2)
    return ProblemSpec(name="cube-overflow", maps=(LinearMap.identity(space),),
                       operators=(cube(2), zero_op(2)), forward_blocks=frozenset({0}),
                       z_init=Vec(space, [1e40, 1e40]), w_init=(space.zeros(),))


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


def test_non_finite_value_at_theta_ends_in_a_status():
    space = Space(1)
    blowup = MonotoneOperator(space, forward=lambda x: np.where(x > 0.5, np.inf, x),
                              name="blowup")
    spec = ProblemSpec(name="blowup", maps=(LinearMap.identity(space),),
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
    space = Space(2)
    op = MonotoneOperator(space, forward=_doubling, name="doubling")
    return ProblemSpec(name="doubled-forward", maps=(LinearMap.identity(space),),
                       operators=(op, zero_op(2)), forward_blocks=frozenset({0}),
                       z_init=space.zeros(), w_init=(space.zeros(),))


def doubled_prox_problem():
    """A backward block whose resolvent returns twice its input's length."""
    space = Space(2)
    op = MonotoneOperator(space, prox=_doubling, name="doubling")
    return ProblemSpec(name="doubled-prox", maps=(LinearMap.identity(space),),
                       operators=(op, zero_op(2)), forward_blocks=frozenset(),
                       z_init=space.zeros(), w_init=(space.zeros(),))


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


def test_overflowing_projection_ends_in_a_status():
    spec, _ = build("lasso", {"m": 8, "d": 12})
    eng = Engine(spec, EngineConfig(max_iters=5), alpha_hook=lambda a: np.inf)
    with np.errstate(invalid="ignore"):
        trace = eng.run()
    assert trace.status == "assumption-violation"
    assert trace.message.startswith("iteration 1, projection: ")


# -- warm-started linesearch ------------------------------------------------------

def test_linesearch_starts_one_shrink_above_the_last_accepted_stepsize():
    # identity drift T(x) = x with delta = 1/2 accepts rho <= 2/3. From
    # z = 1, w = 0 and rho_init = 4, iteration 1 tries 4, 2, 1 and accepts
    # 0.5; the projection moves to z = 0.75, w = 0.25. Iteration 2 starts at
    # min(4, 0.5/nu) = 1 (a restart at rho_init would try 4 and 2 again),
    # fails at 1 and accepts 0.5.
    space = Space(1)
    spec = ProblemSpec(name="identity-drift", maps=(LinearMap.identity(space),),
                       operators=(_identity_op(), zero_op(1)), forward_blocks=frozenset({0}),
                       z_init=vec(1.0), w_init=(vec(0.0),))
    eng = Engine(spec, EngineConfig(delta=0.5, nu=0.5, rho_init=(4.0, 1.0), max_iters=2))
    eng.step()
    first = eng.records[-1]
    assert first.backtracks == (4, 0) and first.stepsizes == (0.5, 1.0)
    assert (first.phi, first.pi, first.alpha) == (0.25, 0.5, 0.5)
    assert eng.point.z.entries[0] == 0.75 and eng.point.w[0].entries[0] == 0.25
    eng.step()
    second = eng.records[-1]
    assert second.backtracks == (2, 0) and second.stepsizes == (0.5, 1.0)
    assert eng.blocks[0].x[0] == 0.5 and eng.blocks[0].y[0] == 0.5


def test_large_forward_rho_init_costs_few_evaluations():
    # rho_init = 1e6 on the cubic block: restarting every search there cost
    # 2,291 forward evaluations over the same 94 iterations
    spec, ref = build("box_cubic", {})
    trace = run(spec, EngineConfig(rho_init=(1e6, 1.0), max_iters=2000))
    evals = sum(1 + rec.backtracks[0] for rec in trace.records)
    assert trace.status == "converged"
    assert trace.iterations == 94
    assert evals == 303
    assert np.linalg.norm(trace.solution.z.entries - ref.z.entries) <= 1e-5


def test_carry_over_is_bitwise():
    spec, _ = build("box_cubic", {})
    sched = SchedulePolicy(kind="round-robin", block_size=1, M=2)
    eng = Engine(spec, EngineConfig(max_iters=10), sched)
    eng.step()
    first = list(eng.blocks)
    eng.step()
    selected_second = eng.records[-1].selected
    for i in range(spec.n):
        if i not in selected_second:
            assert eng.blocks[i] is first[i]


def test_single_operator_problem_degenerates_cleanly():
    # one block: 0 = T(z) with T affine positive definite
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((3, 3))
    mat = mat @ mat.T + np.eye(3)
    shift = rng.standard_normal(3)
    op = affine_monotone(mat, shift)
    spec = ProblemSpec(name="single", maps=(), operators=(op,),
                       forward_blocks=frozenset({0}), z_init=Space(3).zeros(), w_init=())
    trace = run(spec, EngineConfig(max_iters=4000, tol_primal=1e-9, tol_dual=1e-9))
    assert trace.status == "converged"
    expected = np.linalg.solve(mat, -shift)
    assert np.linalg.norm(trace.solution.z.entries - expected) <= 1e-7
    assert kkt_residual(spec, trace.solution.z, ()) <= 1e-8


def test_beta_schedule_validated_per_iteration():
    spec, _ = build("box_cubic", {})
    cfg = EngineConfig(max_iters=10, beta_lo=0.5, beta_hi=1.5)
    eng = Engine(spec, cfg, beta_schedule=lambda k: 1.8)
    with pytest.raises(ConfigError, match="beta"):
        eng.step()
    good = Engine(spec, cfg, beta_schedule=lambda k: 0.5 + 0.1 * (k % 5))
    good.step()
    assert good.records[-1].beta == pytest.approx(0.6)


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


def test_iteration_overhead_is_at_most_60_python_calls():
    # per-iteration interpreter overhead, counted rather than timed: wall
    # times of small runs spread too widely to gate on
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
    assert trace.status == "converged" and trace.iterations == 644
    assert calls[0] <= 60 * trace.iterations


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
