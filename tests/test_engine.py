import dataclasses
import hashlib
import sys

import numpy as np
import pytest

import projsplit.engine
from projsplit import (BacktrackLimitError, ConfigError, Engine, EngineConfig, ErrorPolicy,
                       LinearMap, MonotoneOperator, OperatorSlot, ProblemSpec,
                       SchedulePolicy, Vec, affine_monotone, affine_value,
                       backward_update, box_normal_cone, build, cube, evaluate_separator,
                       forward_update_with_backtrack, kkt_residual, l1_subdifferential,
                       make_signed_sqrt, make_skew_composed, project, run, run_with_checks,
                       zero_op)
from projsplit.errors import AssumptionViolationError, NonFiniteError
from projsplit.checks import update_gap
from projsplit.engine import BlockState


def vec(*entries):
    return Vec(np.array(entries, dtype=float))


def arr(*entries):
    return np.array(entries, dtype=float)


def slot(op, kind, index=0, g=None, rho=1.0):
    return OperatorSlot(index=index, op=op,
                        map=g if g is not None else LinearMap.identity(op.dim),
                        kind=kind, rho_init=rho)


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


def test_float_noise_thresholds_are_not_fields():
    names = {f.name for f in dataclasses.fields(EngineConfig)}
    assert len(names) == 9 and names.isdisjoint({"quickstop_eps", "pi_zero_eps"})
    with pytest.raises(TypeError):
        EngineConfig(quickstop_eps=0.0)
    assert EngineConfig(max_iters=5).quickstop_eps == 1e-14  # read from instances too


# -- backward updates ---------------------------------------------------------

def test_backward_soft_threshold():
    st_ = slot(l1_subdifferential(1.0, 1), "backward")
    state = backward_update(st_, arr(2.0), arr(0.0), 1.0, NO_ERRORS, None)
    assert state.x == pytest.approx([1.0])
    assert state.y == pytest.approx([1.0])


def test_backward_zero_operator():
    st_ = slot(zero_op(2), "backward")
    z, w = arr(1.0, -2.0), arr(0.5, 0.25)
    state = backward_update(st_, z, w, 2.0, NO_ERRORS, None)
    assert state.x == pytest.approx(z + 2.0 * w)
    assert np.linalg.norm(state.y) == 0.0


def test_backward_box_projection():
    st_ = slot(box_normal_cone([-1.0], [1.0]), "backward")
    state = backward_update(st_, arr(2.0), arr(0.5), 2.0, NO_ERRORS, None)
    assert state.x == pytest.approx([1.0])
    assert state.y == pytest.approx([1.0])


def test_backward_identity_gap_is_tiny():
    st_ = slot(l1_subdifferential(0.3, 3), "backward")
    rng = np.random.default_rng(1)
    for _ in range(20):
        state = backward_update(st_, rng.standard_normal(3), rng.standard_normal(3),
                                float(rng.uniform(0.1, 5)), NO_ERRORS, None)
        assert update_gap(state, "backward") <= 1e-10


# -- forward updates with backtracking ----------------------------------------

def _identity_op(dim=1):
    return MonotoneOperator(dim, forward=lambda x: x, name="identity")


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
    op = MonotoneOperator(1, forward=lambda x: x ** 3, name="cube")
    state = forward_update_with_backtrack(slot(op, "forward"), arr(1.0), arr(0.0), 1.0, cfg)
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

    op = MonotoneOperator(1, forward=patchy, name="patchy")
    cfg = EngineConfig(delta=0.5, nu=0.5)
    # from z = +-1, rho = 4 gives x~ = -+3 (NaN, Inf); 2 and 1 fail the slope
    # test, 0.5 passes
    for z in (1.0, -1.0):
        state = forward_update_with_backtrack(slot(op, "forward"), arr(z), arr(0.0), 4.0, cfg)
        assert state.backtracks == 4
        assert state.rho == 0.5
        assert state.x[0] == 0.5 * z and state.y[0] == 0.5 * z


def test_forward_non_finite_value_at_theta_raises():
    op = MonotoneOperator(1, forward=lambda x: np.full_like(x, np.inf), name="inf")
    with pytest.raises(NonFiniteError):
        forward_update_with_backtrack(slot(op, "forward"), arr(1.0), arr(0.0), 1.0,
                                      EngineConfig())


def test_forward_discontinuous_operator_exhausts_budget():
    # a step discontinuity right at the base point defeats the linesearch,
    # which is exactly the diagnostic the budget exists for
    def step_fn(x):
        return np.where(x >= 1.0, 1.0, -1.0)

    op = MonotoneOperator(1, forward=step_fn, name="step")
    cfg = EngineConfig(max_backtracks=50)
    with pytest.raises(BacktrackLimitError, match="50"):
        forward_update_with_backtrack(slot(op, "forward"), arr(1.0), arr(0.0), 1.0, cfg)


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
    with pytest.raises(ConfigError, match=r"beta must lie in \(0, 2\)"):
        EngineConfig(beta=2.0)
    assert EngineConfig(beta=1.99).beta == 1.99


# -- the outer loop -------------------------------------------------------------

def test_step_exact_termination_from_oracle_start():
    spec, ref = build("box_cubic", {})
    warm = dataclasses.replace(spec, z_init=ref.z, w_init=ref.w)
    eng = Engine(warm, EngineConfig(max_iters=10))
    out = eng.step()
    assert out.kind == "exact-termination"
    assert kkt_residual(spec, out.solution.z, out.solution.w) <= 1e-8


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
    """cube(2) from z = (1e40, 1e40): T(z) = 1e120 is finite, but the first
    ~60 trial outputs overflow, and the search needs 267 trials in all."""
    return ProblemSpec(name="cube-overflow", maps=(LinearMap.identity(2),),
                       operators=(cube(2), zero_op(2)), forward_blocks=frozenset({0}),
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
# rho_init = 4 the first trial point is (-3, 3). With "inf-below" and
# "-inf-above" the slope <gap, y - w> is +inf, which would pass the slope test.
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
                EngineConfig(delta=0.5, rho_init=(4.0, 1.0), max_iters=200))
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
    # z = 1, w = 0 and rho_init = 4, iteration 1 tries 4, 2, 1 and accepts
    # 0.5; the projection moves to z = 0.75, w = 0.25. Iteration 2 starts at
    # min(4, 0.5/nu) = 1 (a restart at rho_init would try 4 and 2 again),
    # fails at 1 and accepts 0.5.
    spec = ProblemSpec(name="identity-drift", maps=(LinearMap.identity(1),),
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
    # one block: 0 = T(z) with T affine positive definite
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((3, 3))
    mat = mat @ mat.T + np.eye(3)
    shift = rng.standard_normal(3)
    op = affine_monotone(mat, shift)
    spec = ProblemSpec(name="single", maps=(), operators=(op,),
                       forward_blocks=frozenset({0}), z_init=Vec(np.zeros(3)), w_init=())
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
    # times of small runs spread too widely to gate on (39 calls per
    # iteration with a forward_eval -> _argument -> checked_entries chain per
    # evaluation and identity maps applied through LinearMap)
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
    assert calls[0] <= 25 * trace.iterations


# (problem, iterations, caps on ndarray.dot calls and on C-level calls per
# iteration). Each array reduction is formed once: the linesearch checks
# operator outputs through its own dot products, and a fresh block's
# residuals come from its update (before: 22 dots and 84 C-level calls per
# iteration on both).
NUMPY_CALLS = {
    "lasso": (lambda: build("lasso", {"m": 20, "d": 50})[0], 644, 18.0, 68.1),
    "signed_sqrt": (lambda: make_signed_sqrt([0.0] * 4)[0], 619, 18.1, 67.1),
}


@pytest.mark.parametrize("case", sorted(NUMPY_CALLS))
def test_iteration_makes_few_numpy_calls(case):
    # builtin functions and methods called from Python code, numpy's among
    # them; array arithmetic and ufuncs such as np.sign raise no c_call event
    make_spec, iterations, dot_cap, c_call_cap = NUMPY_CALLS[case]
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
    assert trace.status == "converged" and trace.iterations == iterations
    assert dots[0] <= dot_cap * iterations
    assert c_calls[0] <= c_call_cap * iterations


def test_async_inexact_iteration_overhead_is_at_most_120_python_calls():
    # the benchmark's async_inexact_verify schedule and errors, unchecked:
    # block selection, delay draws and the cached dense resolvent each cost
    # O(1) Python calls per iteration (176 per iteration with a generator
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
    assert calls[0] <= 120 * trace.iterations


def test_checked_async_iteration_overhead_is_at_most_125_python_calls():
    # the same run under run_with_checks, set-up and schedule audit
    # included: the monitor folds each check's worst violation once per
    # iteration (132 calls per iteration with one accumulator call per
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
    assert calls[0] <= 125 * trace.iterations


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
