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


def _straight_lasso_oracle(a_mat, b, lam, tol=1e-10, max_iters=500_000):
    """The oracle without early polish attempts: restarted FISTA to tol, then
    one support polish, kept only if its signs and off-support duals pass."""
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
    else:
        raise AssertionError("reference loop did not reach its tolerance")
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


LASSO_ORACLE_CASES = {
    **{f"20x50-seed{seed}": _seeded_lasso_data(seed, 20, 50) for seed in range(4)},
    "5x8": _seeded_lasso_data(4, 5, 8),
    "1x1": (np.array([[2.0]]), np.array([3.0]), 1.0),
}


@pytest.mark.parametrize("case", sorted(LASSO_ORACLE_CASES))
def test_lasso_oracle_early_polish_returns_the_straight_loops_bits(case, monkeypatch):
    a_mat, b, lam = LASSO_ORACLE_CASES[case]
    expected, straight_iters = _straight_lasso_oracle(a_mat, b, lam)
    iters = [0]
    soft = problems._soft

    def counted(v, t):
        iters[0] += 1
        return soft(v, t)

    monkeypatch.setattr(problems, "_soft", counted)
    z = problems._lasso_oracle(a_mat, b, lam)
    assert z.tobytes() == expected.tobytes()
    # the 1x1 case reaches tol in two iterations; the others settle their
    # signs long before and stop there
    if case == "1x1":
        assert iters[0] == straight_iters
    else:
        assert iters[0] < straight_iters


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


def test_skew_identity_maps_matches_direct_solve():
    dims = (6, 6, 6)
    spec, ref = make_skew_composed(5, dims=dims, identity_maps=True)
    skew = spec.operators[0]
    pd = spec.operators[2]
    # direct forward-backward iteration on 0 in (K+P)z + c1 + q + lam*sub||.||_1(z)
    rng = np.random.default_rng(0)
    k_mat, c1 = _affine_data(skew, 6)
    p_mat, q = _affine_data(pd, 6)
    lin = k_mat + p_mat
    shift = c1 + q
    lam = spec.params["lam"]
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
    assert np.linalg.norm(z - ref.z.entries) <= 1e-7


def _affine_data(op, dim):
    """Recover (M, b) of an affine operator from evaluations."""
    from projsplit import forward_eval
    b = forward_eval(op, np.zeros(dim))
    cols = []
    for e in np.eye(dim):
        cols.append(forward_eval(op, e) - b)
    return np.array(cols).T, b


def test_skew_zero_drift_reduces_to_convex_problem():
    cvxpy = pytest.importorskip("cvxpy")
    spec, ref = make_skew_composed(3, dims=(5, 4, 6), skew_scale=0.0, shift_scale=0.0)
    p_mat, q = _affine_data(spec.operators[2], 5)
    g2 = spec.maps[1].matrix
    lam = spec.params["lam"]
    z = cvxpy.Variable(5)
    objective = cvxpy.Minimize(0.5 * cvxpy.quad_form(z, 0.5 * (p_mat + p_mat.T))
                               + q @ z + lam * cvxpy.norm1(g2 @ z))
    cvxpy.Problem(objective).solve(solver="CLARABEL")
    assert np.linalg.norm(z.value - ref.z.entries) <= 1e-5


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
    # the bisection oracle overflows to a non-finite root
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ConfigError, match="problem 'signed_sqrt'.*finite"):
        build("signed_sqrt", {"c": c})


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
