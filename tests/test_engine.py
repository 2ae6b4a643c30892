import dataclasses

import numpy as np
import pytest

from projsplit import (BacktrackLimitError, ConfigError, Engine, EngineConfig, ErrorPolicy,
                       LinearMap, MonotoneOperator, OperatorSlot, PrimalDualPoint,
                       ProblemSpec, SchedulePolicy, Space, Vec, affine_monotone,
                       affine_value, backward_update, box_normal_cone, build,
                       evaluate_separator, forward_update_with_backtrack, kkt_residual,
                       l1_subdifferential, project, run, zero_op)
from projsplit.checks import update_gap
from projsplit.engine import BlockState


def vec(*entries):
    return Vec(Space(len(entries)), np.array(entries, dtype=float))


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


def test_config_per_block_stepsizes():
    cfg = EngineConfig(rho_init=(1.0, 2.0))
    assert cfg.resolve_rho(2) == (1.0, 2.0)
    with pytest.raises(ConfigError, match="rho_init"):
        cfg.validate(3)


# -- backward updates ---------------------------------------------------------

def test_backward_soft_threshold():
    st_ = slot(l1_subdifferential(1.0, 1), "backward")
    state = backward_update(st_, vec(2.0), vec(0.0), 1.0, NO_ERRORS)
    assert state.x.entries == pytest.approx([1.0])
    assert state.y.entries == pytest.approx([1.0])


def test_backward_zero_operator():
    st_ = slot(zero_op(2), "backward")
    z, w = vec(1.0, -2.0), vec(0.5, 0.25)
    state = backward_update(st_, z, w, 2.0, NO_ERRORS)
    assert state.x.entries == pytest.approx((z + 2.0 * w).entries)
    assert state.y.norm() == 0.0


def test_backward_box_projection():
    st_ = slot(box_normal_cone([-1.0], [1.0]), "backward")
    state = backward_update(st_, vec(2.0), vec(0.5), 2.0, NO_ERRORS)
    assert state.x.entries == pytest.approx([1.0])
    assert state.y.entries == pytest.approx([1.0])


def test_backward_identity_gap_is_tiny():
    st_ = slot(l1_subdifferential(0.3, 3), "backward")
    rng = np.random.default_rng(1)
    for _ in range(20):
        state = backward_update(st_, Vec(Space(3), rng.standard_normal(3)),
                                Vec(Space(3), rng.standard_normal(3)),
                                float(rng.uniform(0.1, 5)), NO_ERRORS)
        assert update_gap(state, "backward") <= 1e-10


# -- forward updates with backtracking ----------------------------------------

def _identity_op(dim=1):
    return MonotoneOperator(Space(dim), forward=lambda x: x, name="identity")


def test_forward_quickstop():
    st_ = slot(_identity_op(), "forward")
    state = forward_update_with_backtrack(st_, vec(1.0), vec(1.0), 1.0, EngineConfig())
    assert state.backtracks == 0
    assert state.x.entries == pytest.approx([1.0])
    assert state.y.entries == pytest.approx([1.0])
    assert state.rho == 1.0


def test_forward_identity_two_trials():
    cfg = EngineConfig(delta=0.5, nu=0.5)
    st_ = slot(_identity_op(), "forward")
    state = forward_update_with_backtrack(st_, vec(1.0), vec(0.0), 1.0, cfg)
    assert state.backtracks == 2
    assert abs(state.rho - 0.5) <= 1e-12
    assert abs(state.x.entries[0] - 0.5) <= 1e-12
    assert abs(state.y.entries[0] - 0.5) <= 1e-12


def test_forward_cube_three_trials():
    cfg = EngineConfig(delta=1.0, nu=0.5)
    op = MonotoneOperator(Space(1), forward=lambda x: x ** 3, name="cube")
    state = forward_update_with_backtrack(slot(op, "forward"), vec(1.0), vec(0.0), 1.0, cfg)
    assert state.backtracks == 3
    assert abs(state.rho - 0.25) <= 1e-12
    assert abs(state.x.entries[0] - 0.75) <= 1e-12
    assert abs(state.y.entries[0] - 0.421875) <= 1e-12


def test_forward_accepted_step_satisfies_slope_test_and_geometry():
    cfg = EngineConfig(delta=2.0, nu=0.7)
    op = MonotoneOperator(Space(2), forward=lambda x: np.sign(x) * np.abs(x) ** 1.5,
                          name="power")
    rng = np.random.default_rng(3)
    for _ in range(25):
        z = Vec(Space(2), 2 * rng.standard_normal(2))
        w = Vec(Space(2), 2 * rng.standard_normal(2))
        state = forward_update_with_backtrack(slot(op, "forward"), z, w, 1.0, cfg)
        if state.backtracks == 0:
            continue  # quickstop branch
        gap = z - state.x
        assert cfg.delta * gap.dot(gap) - gap.dot(state.y - w) <= 1e-12
        assert state.rho == pytest.approx(1.0 * cfg.nu ** (state.backtracks - 1))
        assert state.rho <= 1.0


def test_forward_discontinuous_operator_exhausts_budget():
    # a step discontinuity right at the base point defeats the linesearch,
    # which is exactly the diagnostic the budget exists for
    def step_fn(x):
        return np.where(x >= 1.0, 1.0, -1.0)

    op = MonotoneOperator(Space(1), forward=step_fn, name="step")
    cfg = EngineConfig(max_backtracks=50)
    with pytest.raises(BacktrackLimitError, match="50"):
        forward_update_with_backtrack(slot(op, "forward"), vec(1.0), vec(0.0), 1.0, cfg)


# -- separator and projection --------------------------------------------------

def _two_scalar_blocks(x1, y1, x2, y2):
    return [BlockState(x=vec(x1), y=vec(y1), rho=1.0),
            BlockState(x=vec(x2), y=vec(y2), rho=1.0)]


IDENT = (LinearMap.identity(Space(1)),)


def test_separator_consensus_gives_zero_gradient():
    blocks = _two_scalar_blocks(1.0, 2.0, 1.0, -2.0)
    sep = evaluate_separator(blocks, PrimalDualPoint(vec(1.0), (vec(2.0),)), IDENT, 1.0)
    assert sep.pi == 0.0
    assert sep.u[0].norm() == 0.0
    assert sep.v.norm() == 0.0
    assert sep.alpha == 0.0


def test_separator_hand_arithmetic():
    blocks = _two_scalar_blocks(0.0, 1.0, 1.0, 0.0)
    p = PrimalDualPoint(vec(2.0), (vec(3.0),))
    sep = evaluate_separator(blocks, p, IDENT, 1.0)
    assert sep.u[0].entries == pytest.approx([-1.0])
    assert sep.v.entries == pytest.approx([1.0])
    assert sep.pi == pytest.approx(2.0)
    assert sep.phi_at_p == pytest.approx(-1.0)  # 2 + (-3) - 0


def test_separator_hand_arithmetic_flipped_dual():
    blocks = _two_scalar_blocks(0.0, 1.0, 1.0, 0.0)
    p = PrimalDualPoint(vec(2.0), (vec(-3.0),))
    sep = evaluate_separator(blocks, p, IDENT, 1.0)
    assert sep.phi_at_p == pytest.approx(5.0)  # 2 + 3 - 0


def test_affine_value_at_block_candidate_is_zero():
    blocks = _two_scalar_blocks(0.0, 1.0, 1.0, 0.0)
    q = PrimalDualPoint(vec(1.0), (vec(1.0),))  # (x_n, y_1)
    assert affine_value(blocks, IDENT, q) == pytest.approx(0.0, abs=1e-15)


def test_affine_value_matches_separator_at_current_point():
    blocks = _two_scalar_blocks(0.0, 1.0, 1.0, 0.0)
    p = PrimalDualPoint(vec(2.0), (vec(3.0),))
    sep = evaluate_separator(blocks, p, IDENT, 1.0)
    assert affine_value(blocks, IDENT, p) == pytest.approx(sep.phi_at_p, rel=1e-12)


def test_affine_value_nonpositive_at_oracle():
    spec, ref = build("box_cubic", {})
    eng = Engine(spec, EngineConfig(max_iters=50))
    scale = 1.0 + ref.point.z.norm()
    while eng.step().kind == "continue":
        assert affine_value(eng.blocks, spec.maps, ref.point) <= 1e-9 * scale


def test_projection_lands_on_hyperplane():
    blocks = _two_scalar_blocks(0.0, 1.0, 1.0, 0.0)
    p = PrimalDualPoint(vec(2.0), (vec(-3.0),))
    sep = evaluate_separator(blocks, p, IDENT, 1.0, beta=1.0)
    assert sep.alpha == pytest.approx(2.5)
    p_new = project(p, sep, 1.0)
    assert p_new.z.entries == pytest.approx([-0.5])
    assert p_new.w[0].entries == pytest.approx([-0.5])
    assert affine_value(blocks, IDENT, p_new) == pytest.approx(0.0, abs=1e-12)


def test_projection_noop_when_phi_nonpositive():
    blocks = _two_scalar_blocks(0.0, 1.0, 1.0, 0.0)
    p = PrimalDualPoint(vec(2.0), (vec(3.0),))  # phi = -1
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
    wn = -1.0 * ref.w[0]  # single dual block through the identity map
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
