import itertools
import re

import numpy as np
import pytest

from projsplit import problems
from projsplit import (ConfigError, EngineConfig, LinearMap, ProblemSpec, Vec, build,
                       kkt_residual, make_box_cubic, make_lasso, make_signed_sqrt,
                       make_skew_composed, run, zero_op)

ALL_KINDS = ("lasso", "box_cubic", "signed_sqrt", "skew_composed")


@pytest.fixture(scope="module")
def builtins():
    return {kind: build(kind, {}) for kind in ALL_KINDS}


def test_every_oracle_passes_its_own_certificate(builtins):
    for kind, (spec, ref) in builtins.items():
        resid = kkt_residual(spec, ref.z, ref.w)
        assert resid <= ref.accuracy, f"{kind}: {resid}"


def test_lasso_closed_form_scalar():
    spec, ref = make_lasso(np.eye(1), [3.0], 1.0)
    assert ref.z.entries == pytest.approx([2.0], abs=1e-10)
    assert ref.w[0].entries == pytest.approx([-1.0], abs=1e-10)


def test_lasso_zero_target_gives_origin():
    rng = np.random.default_rng(4)
    spec, ref = make_lasso(rng.standard_normal((5, 8)), np.zeros(5), 0.3)
    assert np.linalg.norm(ref.z.entries) == 0.0


def test_lasso_rejects_bad_weight():
    with pytest.raises(ConfigError):
        make_lasso(np.eye(2), [1.0, 1.0], 0.0)


def _straight_lasso_oracle(a_mat, b, lam, tol=1e-10, max_iters=30_000):
    """The oracle without early polish attempts: restarted FISTA to tol (or
    for max_iters iterations, whichever comes first), then one support
    polish, kept only if its signs and off-support duals pass."""
    def soft(v, t):
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

    d = a_mat.shape[1]
    lip = np.linalg.norm(a_mat, 2) ** 2
    t = 1.0 / lip
    z = np.zeros(d)
    z_old = z.copy()
    theta = 1.0
    for iters in range(1, max_iters + 1):
        grad = a_mat.T @ (a_mat @ z - b)
        z_new = soft(z - t * grad, t * lam)
        if np.linalg.norm((z - z_new) / t) <= tol:
            z = z_new
            break
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        z_acc = z_new + (theta - 1.0) / theta_new * (z_new - z_old)
        if np.dot(z_acc - z_new, z_new - z_old) > 0.0:
            z_acc, theta_new = z_new, 1.0
        z_old, z, theta = z_new, z_acc, theta_new
    support = np.abs(z) > 1e-12
    if support.any():
        signs = np.sign(z[support])
        a_s = a_mat[:, support]
        z_s = np.linalg.solve(a_s.T @ a_s, a_s.T @ b - lam * signs)
        polished = np.zeros(d)
        polished[support] = z_s
        off_dual = a_mat.T @ (a_mat @ polished - b)
        if (np.all(np.sign(polished[support]) == signs)
                and np.all(np.abs(off_dual[~support]) <= lam * (1.0 - 1e-10))):
            return polished, iters
    return z, iters


def _seeded_lasso_data(seed, m, d, lam_factor=0.1):
    rng = np.random.default_rng([seed, 101])
    a_mat = rng.standard_normal((m, d))
    b = rng.standard_normal(m)
    return a_mat, b, lam_factor * float(np.abs(a_mat.T @ b).max())


def _panel_lasso_data(seed, j):
    """Instance j of the 200x500 panel that perfbench's lasso_large builds from seed."""
    rng = np.random.default_rng([seed, 101, j])
    a_mat = rng.standard_normal((200, 500))
    b = rng.standard_normal(200)
    return a_mat, b, 0.1 * float(np.abs(a_mat.T @ b).max())


LASSO_ORACLE_CASES = {
    **{f"20x50-seed{seed}": _seeded_lasso_data(seed, 20, 50) for seed in range(4)},
    "5x8": _seeded_lasso_data(4, 5, 8),
    "1x1": (np.array([[2.0]]), np.array([3.0]), 1.0),
    "200x500-panel0": _panel_lasso_data(0, 0),
    # FISTA is still far from tol after 30,000 iterations; its sign pattern
    # is final from about 18,000 on
    "100x300-lam0.01-seed8": _seeded_lasso_data(8, 100, 300, lam_factor=0.01),
}


def _count_fista_iterations(monkeypatch):
    """A counter of calls to the oracle's soft threshold, one per FISTA iteration."""
    iters = [0]
    soft = problems._soft

    def counted(v, t):
        iters[0] += 1
        return soft(v, t)

    monkeypatch.setattr(problems, "_soft", counted)
    return iters


@pytest.mark.parametrize("case", sorted(LASSO_ORACLE_CASES))
def test_lasso_oracle_early_polish_returns_the_straight_loops_bits(case, monkeypatch):
    a_mat, b, lam = LASSO_ORACLE_CASES[case]
    expected, straight_iters = _straight_lasso_oracle(a_mat, b, lam)
    iters = _count_fista_iterations(monkeypatch)
    z = problems._lasso_oracle(a_mat, b, lam)
    assert z.tobytes() == expected.tobytes()
    # the 1x1 case reaches tol in two iterations; the others settle their
    # signs long before and stop there
    if case == "1x1":
        assert iters[0] == straight_iters
    else:
        assert iters[0] < straight_iters


def test_lasso_oracle_fista_iterations_on_the_benchmark_panel(monkeypatch):
    # the seed-0 lasso_large panel took 13,701 iterations with one polish per
    # pattern held 50 iterations; corrections reach the pattern sooner
    iters = _count_fista_iterations(monkeypatch)
    for j in range(16):
        make_lasso(*_panel_lasso_data(0, j))
    assert iters[0] == 2001


def test_support_polish_corrects_a_wrong_pattern_to_the_solution():
    a_mat, b, lam = _seeded_lasso_data(0, 20, 50)
    z_star = problems._lasso_oracle(a_mat, b, lam)
    support = np.flatnonzero(z_star)
    start = z_star.copy()
    start[support[0]] = 0.0  # one coordinate missing
    start[np.flatnonzero(z_star == 0.0)[0]] = 1.0  # one wrong coordinate
    assert problems._support_polish(a_mat, b, lam, start).tobytes() == z_star.tobytes()


def test_support_polish_skips_a_support_wider_than_the_rows(monkeypatch):
    # more columns than rows make the normal equations singular: no solve is tried
    a_mat, b, lam = _seeded_lasso_data(0, 20, 50)

    def no_solve(*args):
        raise AssertionError("solved a singular system")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    assert problems._support_polish(a_mat, b, lam, np.ones(50)) is None


@pytest.mark.parametrize("lam_factor", [1e-6, 1e-10])
def test_a_stalled_lasso_oracle_fails_fast(lam_factor, monkeypatch):
    # the gradient-map norm stops halving after about 100 iterations; these
    # builds ran to the 500,000-iteration limit (9-12 s) before failing
    iters = _count_fista_iterations(monkeypatch)
    with pytest.raises(ConfigError, match="lasso oracle did not reach its gradient-map tolerance"):
        build("lasso", {"lam_factor": lam_factor})
    assert iters[0] <= 25_000


def test_a_lasso_plateau_well_below_lam_is_no_stall():
    # the best gradient-map norm sits at 6.2e-4 (lam/120) from iteration
    # 2,206 to 44,130, where the polish passes
    spec, ref = build("lasso", {"seed": 4, "m": 20, "d": 50, "lam_factor": 0.01})
    assert kkt_residual(spec, ref.z, ref.w) <= 1e-8


def test_small_lambda_lasso_oracle_certifies():
    # restarted FISTA never reaches 1e-10 here in 500,000 iterations; the
    # support it settles on certifies through the polish
    spec, ref = build("lasso", {"seed": 8, "m": 100, "d": 300, "lam_factor": 0.01})
    assert kkt_residual(spec, ref.z, ref.w) <= 1e-8


def test_box_cubic_interior_solution():
    spec, ref = make_box_cubic([8.0], [-10.0], [10.0])
    assert ref.z.entries == pytest.approx([2.0])
    assert ref.w[0].entries == pytest.approx([0.0])


def test_box_cubic_active_upper_bound():
    spec, ref = make_box_cubic([8.0], [0.0], [1.0])
    assert ref.z.entries == pytest.approx([1.0])
    assert ref.w[0].entries == pytest.approx([-7.0])
    # -w1 = 7 must lie in the normal cone at the upper bound
    assert kkt_residual(spec, ref.z, ref.w) <= 1e-12


def test_box_cubic_odd_symmetry():
    _, ref = make_box_cubic([0.0], [-1.0], [1.0])
    assert np.linalg.norm(ref.z.entries) == 0.0


def test_signed_sqrt_roots():
    _, ref = make_signed_sqrt([0.0])
    assert ref.z.entries[0] == 0.0  # exact root at the non-Lipschitz point
    _, ref = make_signed_sqrt([2.0])
    assert ref.z.entries == pytest.approx([1.0], abs=1e-10)
    _, ref = make_signed_sqrt([6.0])
    assert ref.z.entries == pytest.approx([4.0], abs=1e-10)


# tiny roots (z ~ c^2), and constants whose float spacing is near or above the
# 1e-10 target, need the root to the precision of c
@pytest.mark.parametrize("c", [1e-8, 1e-12, 1e-100, 1e-300, -1e-8, 1e6, -1e6, 2e6, -1e9])
def test_signed_sqrt_oracle_certifies_tiny_and_large_constants(c):
    spec, ref = build("signed_sqrt", {"c": c})  # a missed target raises ConfigError
    assert kkt_residual(spec, ref.z, ref.w) <= ref.accuracy


def test_kkt_residual_zero_everywhere():
    spec = ProblemSpec(name="null", maps=(LinearMap.identity(2),),
                       operators=(zero_op(2), zero_op(2)), forward_blocks=frozenset({0}),
                       z_init=Vec(np.zeros(2)), w_init=(Vec(np.zeros(2)),))
    z = Vec([4.0, -1.0])
    assert kkt_residual(spec, z, (Vec(np.zeros(2)),)) == 0.0


def test_skew_default_instance_certificate():
    spec, ref = make_skew_composed(1234)
    assert kkt_residual(spec, ref.z, ref.w) <= 1e-8
    assert spec.n == 3
    assert spec.forward_blocks == {0}


def _skew_data(seed, dims):
    """The draws make_skew_composed makes for one seed: (g1, g2, skew, c1, pd_mat, q)."""
    d0, d1, d2 = dims
    rng = np.random.default_rng([seed, 613])
    g1 = rng.standard_normal((d1, d0)) / np.sqrt(d0)
    g2 = rng.standard_normal((d2, d0)) / np.sqrt(d0)
    raw = rng.standard_normal((d1, d1)) / np.sqrt(d1)
    c1 = rng.standard_normal(d1)
    root = rng.standard_normal((d0, d0)) / np.sqrt(d0)
    return g1, g2, raw - raw.T, c1, root.T @ root + np.eye(d0), rng.standard_normal(d0)


def _straight_skew_oracle(g1, g2, skew, c1, pd_mat, q, lam):
    """The skew oracle without early polish attempts: damped Newton through all
    four smoothing levels, then one active-set polish on |G2 z| > 1e-7; None
    where that polish fails a check."""
    d0 = pd_mat.shape[0]
    lin = g1.T @ skew @ g1 + pd_mat
    rhs0 = g1.T @ c1 + q
    z = np.zeros(d0)

    def residual(zz, mu):
        s = g2 @ zz
        grad_h = np.where(np.abs(s) <= mu, s / mu, np.sign(s))
        return lin @ zz + rhs0 + lam * (g2.T @ grad_h)

    for mu in (1e-1, 1e-3, 1e-6, 1e-9):
        for _ in range(100):
            s = g2 @ z
            f_val = residual(z, mu)
            nf = np.linalg.norm(f_val)
            if nf <= 1e-12:
                break
            weights = np.where(np.abs(s) <= mu, 1.0 / mu, 0.0)
            jac = lin + lam * g2.T @ (weights[:, None] * g2)
            try:
                step = np.linalg.solve(jac, f_val)
            except np.linalg.LinAlgError:
                return None
            eta = 1.0
            z_next = z - step
            while eta > 1e-8 and np.linalg.norm(residual(z_next, mu)) > (1 - 0.5 * eta) * nf:
                eta *= 0.5
                z_next = z - eta * step
            z = z_next
    s = g2 @ z
    active = np.abs(s) > 1e-7
    signs = np.sign(s[active])
    g2_act, g2_ina = g2[active], g2[~active]
    n_ina = g2_ina.shape[0]
    rhs_top = -rhs0 - (lam * (g2_act.T @ signs) if active.any() else 0.0)
    try:
        if n_ina == 0:
            z = np.linalg.solve(lin, rhs_top)
            w_ina = np.zeros(0)
        else:
            kkt = np.block([[lin, g2_ina.T], [g2_ina, np.zeros((n_ina, n_ina))]])
            sol = np.linalg.solve(kkt, np.concatenate([rhs_top, np.zeros(n_ina)]))
            z, w_ina = sol[:d0], sol[d0:]
    except np.linalg.LinAlgError:
        return None
    w2 = np.empty(g2.shape[0])
    w2[active] = lam * signs
    w2[~active] = w_ina
    w1 = skew @ (g1 @ z) + c1
    s_final = g2 @ z
    if active.any() and (not np.all(np.sign(s_final[active]) == signs)
                         or np.abs(s_final[active]).min() < 1e-6):
        return None
    if n_ina and lam - np.abs(w_ina).max() < 1e-6:
        return None
    if np.linalg.norm(g1.T @ w1 + g2.T @ w2 + pd_mat @ z + q) > 1e-10:
        return None
    return z, w1, w2


# the default dims, a small, a square and a wide instance
SKEW_ORACLE_DIMS = [(8, 6, 10), (4, 3, 5), (6, 6, 6), (10, 4, 12)]


def test_skew_oracle_returns_the_straight_newton_bits():
    certified = 0
    for dims in SKEW_ORACLE_DIMS:
        for seed in range(8):
            data = _skew_data(seed, dims)
            expected = _straight_skew_oracle(*data, 1.0)
            if expected is None:
                continue
            certified += 1
            got = problems._skew_oracle(*data, 1.0)
            for x, y in zip(got, expected):
                assert x.tobytes() == y.tobytes(), (seed, dims)
    assert certified >= 24


def test_skew_oracle_linear_solves_on_the_default_instance(monkeypatch):
    # one solve at l = 0, one per piece of the solution path (9 pieces) and
    # one polish
    calls = [0]
    solve = np.linalg.solve

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    make_skew_composed(1234)
    assert calls[0] == 11


def test_every_skew_build_keeps_its_own_seed():
    # the skew range of test_property; 58 of these builds returned a later
    # seed's instance while the oracle could not certify z* = 0 under a G2
    # taller than z
    for seed in range(6):
        for dims in itertools.product(range(1, 5), repeat=3):
            spec, _ = make_skew_composed(seed, dims)
            assert np.array_equal(spec.maps[0].matrix, _skew_data(seed, dims)[0]), (seed, dims)


def test_a_skew_origin_under_a_tall_g2_is_certified_at_its_path_event():
    # z* = 0 with 7 rows of G2 over 2 columns: the all-inactive KKT system is
    # singular, so the reference is the path's event point (0, c1, w2(l0))
    spec, ref = make_skew_composed(7, (2, 2, 7))
    assert not ref.z.entries.any()
    assert np.array_equal(ref.w[0].entries, _skew_data(7, (2, 2, 7))[3])
    assert np.abs(ref.w[1].entries).max() < 1.0 - 1e-6
    assert kkt_residual(spec, ref.z, ref.w) <= ref.accuracy


def test_a_skew_oracle_failure_is_a_config_error_naming_the_seed(monkeypatch):
    def failing(*args):
        raise problems._OracleFailure("singular path system")

    monkeypatch.setattr(problems, "_skew_oracle", failing)
    with pytest.raises(ConfigError, match=r"seed 3, dims \(8, 6, 10\): singular path system"):
        build("skew_composed", {"seed": 3})


def test_skew_identity_maps_matches_direct_solve():
    # the skew oracle with G1 = G2 = I, on make_skew_composed's draws for seed 5
    rng = np.random.default_rng([5, 613])
    raw = rng.standard_normal((6, 6)) / np.sqrt(6)
    k_mat, c1 = raw - raw.T, rng.standard_normal(6)
    root = rng.standard_normal((6, 6)) / np.sqrt(6)
    p_mat, q = root.T @ root + np.eye(6), rng.standard_normal(6)
    lam = 1.0
    z_ref, _, _ = problems._skew_oracle(np.eye(6), np.eye(6), k_mat, c1, p_mat, q, lam)
    # direct forward-backward iteration on 0 in (K+P)z + c1 + q + lam*sub||.||_1(z)
    lin = k_mat + p_mat
    shift = c1 + q
    lip = np.linalg.norm(lin, 2)
    t = 0.9 / lip ** 2  # strong monotonicity modulus >= 1 from the PD part
    z = np.zeros(6)
    for _ in range(200000):
        g = lin @ z + shift
        z_new = np.sign(z - t * g) * np.maximum(np.abs(z - t * g) - t * lam, 0.0)
        if np.linalg.norm(z_new - z) <= 1e-14:
            z = z_new
            break
        z = z_new
    assert np.linalg.norm(z - z_ref) <= 1e-7


def test_skew_zero_drift_reduces_to_convex_problem():
    cvxpy = pytest.importorskip("cvxpy")
    # the skew oracle with K = 0 and c1 = 0 solves min 0.5 z'Pz + q'z + lam*||G2 z||_1
    rng = np.random.default_rng([3, 613])
    g1 = rng.standard_normal((4, 5)) / np.sqrt(5)
    g2 = rng.standard_normal((6, 5)) / np.sqrt(5)
    root = rng.standard_normal((5, 5)) / np.sqrt(5)
    p_mat, q = root.T @ root + np.eye(5), rng.standard_normal(5)
    lam = 1.0
    z_ref, _, _ = problems._skew_oracle(g1, g2, np.zeros((4, 4)), np.zeros(4), p_mat, q, lam)
    z = cvxpy.Variable(5)
    objective = cvxpy.Minimize(0.5 * cvxpy.quad_form(z, p_mat) + q @ z
                               + lam * cvxpy.norm1(g2 @ z))
    cvxpy.Problem(objective).solve(solver="CLARABEL")
    assert np.linalg.norm(z.value - z_ref) <= 1e-5


def test_engine_agrees_with_every_oracle(builtins):
    budgets = {"lasso": 5000, "box_cubic": 20000, "signed_sqrt": 20000, "skew_composed": 5000}
    for kind, (spec, ref) in builtins.items():
        trace = run(spec, EngineConfig(max_iters=budgets[kind]))
        assert trace.status == "converged", kind
        sol = trace.solution
        err = float(np.linalg.norm(sol.z.entries - ref.z.entries))
        assert err <= 10 * (1e-6 + ref.accuracy), f"{kind}: {err}"


def test_merely_continuous_blocks_never_exhaust_linesearch(builtins):
    for kind in ("box_cubic", "signed_sqrt"):
        spec, _ = builtins[kind]
        trace = run(spec, EngineConfig(max_iters=20000))
        assert trace.status == "converged"
        assert all(max(r.backtracks) <= 200 for r in trace.records)


def test_registry_unknown_kind_and_params():
    with pytest.raises(ConfigError, match="unknown problem kind"):
        build("ridge", {})
    with pytest.raises(ConfigError, match="unknown parameter"):
        build("lasso", {"bandwidth": 3})


# (kind, params, the parameter the error must name); unvalidated, the first
# four would reach numpy or a dimension check and raise ValueError or ShapeError
BAD_PARAMS = [
    ("lasso", {"d": 0}, "d"),
    ("box_cubic", {"dim": 0}, "dim"),
    ("lasso", {"m": "x"}, "m"),
    ("signed_sqrt", {"dim": -1}, "dim"),
    ("lasso", {"seed": -1}, "seed"),
    ("lasso", {"m": 2.5}, "m"),
    ("lasso", {"lam_factor": float("nan")}, "lam_factor"),
    ("lasso", {"lam_factor": 0.0}, "lam_factor"),
    ("box_cubic", {"seed": True}, "seed"),
    ("signed_sqrt", {"c": float("inf")}, "c"),
    ("signed_sqrt", {"c": 10 ** 400}, "c"),
    ("signed_sqrt", {"c": [1.0, "x"]}, "c[1]"),
    ("signed_sqrt", {"dim": 3, "c": [1.0, 2.0]}, "c"),
    ("skew_composed", {"dims": [8, 6]}, "dims"),
    ("skew_composed", {"dims": [8, 0, 10]}, "dims[1]"),
    ("skew_composed", {"lam": -1.0}, "lam"),
    ("lasso", {"forward_blocks": ["x"]}, "forward_blocks"),
]


@pytest.mark.parametrize("kind, params, name", BAD_PARAMS,
                         ids=[f"{k}-{n}-{str(p[n])[:8] if n in p else 'list'}"
                              for k, p, n in BAD_PARAMS])
def test_bad_problem_parameters_raise_config_error_naming_them(kind, params, name):
    with pytest.raises(ConfigError, match=f"parameter '{re.escape(name)}'"):
        build(kind, params)


def test_signed_sqrt_dimension_follows_a_list_of_c():
    spec, ref = build("signed_sqrt", {"c": [1.0, -2.0, 0.5]})
    assert spec.dim == 3
    assert kkt_residual(spec, ref.z, ref.w) <= ref.accuracy


@pytest.mark.parametrize("c", [[1e308, -1e308], 1e308])
def test_a_build_that_overflows_is_a_config_error_naming_the_problem(c):
    # 4|c| overflows to inf, so the closed-form root is NaN
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ConfigError, match="problem 'signed_sqrt'.*finite"):
        build("signed_sqrt", {"c": c})


def test_a_lasso_oracle_that_overflows_is_a_config_error():
    # A A^T of data scaled by 1e160 overflows, and eigvalsh raises LinAlgError
    rng = np.random.default_rng([0, 101])
    a_mat, b = 1e160 * rng.standard_normal((20, 50)), 1e160 * rng.standard_normal(20)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ConfigError, match="lasso oracle failed.*overflow"):
        make_lasso(a_mat, b, 1.0)


def test_a_build_too_large_for_numpy_is_a_config_error_naming_the_problem():
    # numpy refuses a 2**40 x 2**40 matrix before it allocates anything
    with pytest.raises(ConfigError, match="problem 'lasso' cannot be built.*too big"):
        build("lasso", {"m": 2 ** 40, "d": 2 ** 40})


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 72.8 TiB"), MemoryError()],
                         ids=["numpy", "bare"])
def test_running_out_of_memory_while_building_is_a_config_error(monkeypatch, error):
    def exhausted(params):
        raise error

    monkeypatch.setitem(problems.PROBLEMS, "exhausted", (exhausted, ""))
    with pytest.raises(ConfigError, match="problem 'exhausted' cannot be built from these "
                                          f"parameters: {str(error) or 'MemoryError'}"):
        build("exhausted", {})


def _null_spec(forward_blocks):
    return ProblemSpec(name="null", maps=(LinearMap.identity(2),),
                       operators=(zero_op(2), zero_op(2)), forward_blocks=forward_blocks,
                       z_init=Vec(np.zeros(2)), w_init=(Vec(np.zeros(2)),))


@pytest.mark.parametrize("blocks", [[0], {0}, (0,), range(1), frozenset({0})],
                         ids=["list", "set", "tuple", "range", "frozenset"])
def test_a_partition_is_kept_as_a_frozenset(blocks):
    spec = _null_spec(blocks)
    assert type(spec.forward_blocks) is frozenset and spec.forward_blocks == {0}


@pytest.mark.parametrize("blocks, message", [
    (0, "forward blocks must be an iterable of block indices, got 0"),
    ([[0]], "forward blocks must be an iterable of block indices"),
    ([2], "forward block indices must lie in 0..1"),
    (["0"], "forward block indices must lie in 0..1"),
], ids=["int", "unhashable", "out-of-range", "string"])
def test_a_bad_partition_is_a_config_error(blocks, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        _null_spec(blocks)


def test_partition_override_requires_capability():
    with pytest.raises(ConfigError):
        build("box_cubic", {"forward_blocks": [2]})  # the box block has no forward map
    spec, _ = build("lasso", {"forward_blocks": []})  # affine block can run backward
    assert spec.forward_blocks == frozenset()
    with pytest.raises(ConfigError, match="block 1 .* marked forward"):
        spec.with_partition([1])  # the partition is revalidated when rebuilt


def _three_block_spec(last=3, domain=3, codomain=2, w1=2):
    """A 3-block problem on R^3 with duals in R^4 x R^2; one argument breaks a dimension."""
    return ProblemSpec(name="dims", maps=(LinearMap(np.zeros((4, 3))),
                                          LinearMap(np.zeros((codomain, domain)))),
                       operators=(zero_op(4), zero_op(2), zero_op(last)),
                       forward_blocks=frozenset(), z_init=Vec(np.zeros(3)),
                       w_init=(Vec(np.zeros(4)), Vec(np.zeros(w1))))


@pytest.mark.parametrize("bad, message", [
    ({"last": 4}, "last operator"),
    ({"domain": 4}, "map 1 domain"),
    ({"codomain": 3}, "map 1 codomain"),
    ({"w1": 3}, "initial dual block 1"),
])
def test_problem_validation_checks_every_dimension(bad, message):
    assert _three_block_spec().n == 3
    with pytest.raises(ConfigError, match=message):
        _three_block_spec(**bad)


def test_problem_validation_errors():
    with pytest.raises(ConfigError, match="maps"):
        ProblemSpec(name="bad", maps=(), operators=(zero_op(2), zero_op(2)),
                    forward_blocks=frozenset(), z_init=Vec(np.zeros(2)), w_init=())
