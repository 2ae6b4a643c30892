import dataclasses
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from projsplit import (CapabilityError, ConfigError, ErrorPolicy, MonotoneOperator, ShapeError,
                       affine_monotone, box_normal_cone, forward_eval, l1_subdifferential,
                       prox_eval, shifted_identity, zero_op)
from projsplit.errors import NonFiniteError
from projsplit.operators import error_inequality_gaps, inject_error


def vec(*entries):
    return np.array(entries, dtype=float)


def cube(dim):
    """x**3 componentwise: continuous and monotone, not Lipschitz, forward only."""
    return MonotoneOperator(dim, forward=lambda x: x ** 3, name="cube")


def least_squares_gradient(a_mat, target):
    """T(x) = A^T A x - A^T b, the gradient of 0.5*||A x - b||^2, as an affine operator."""
    return affine_monotone(a_mat.T @ a_mat, -a_mat.T @ target)


# -- forward evaluation -------------------------------------------------------

def test_forward_zero():
    assert np.linalg.norm(forward_eval(zero_op(3), vec(1.0, -2.0, 7.0))) == 0.0


def test_capability_gates():
    with pytest.raises(CapabilityError):
        prox_eval(cube(1), 1.0, vec(1.0))
    with pytest.raises(CapabilityError):
        forward_eval(l1_subdifferential(1.0, 1), vec(1.0))


def test_forward_space_check():
    with pytest.raises(Exception):
        forward_eval(cube(2), vec(1.0))


# -- the boundary with user callables ------------------------------------------

BAD_OUTPUTS = {"nan": lambda x: np.full_like(x, np.nan),
               "inf": lambda x: np.full_like(x, np.inf),
               "shape": lambda x: np.concatenate([x, x])}


@pytest.mark.parametrize("bad", sorted(BAD_OUTPUTS))
def test_forward_output_is_checked(bad):
    op = MonotoneOperator(2, forward=BAD_OUTPUTS[bad], name=bad)
    with pytest.raises(ShapeError):
        forward_eval(op, vec(1.0, 2.0))


@pytest.mark.parametrize("bad", sorted(BAD_OUTPUTS))
def test_prox_output_is_checked(bad):
    fn = BAD_OUTPUTS[bad]
    op = MonotoneOperator(2, prox=lambda a, rho: fn(a), name=bad)
    with pytest.raises(ShapeError):
        prox_eval(op, 1.0, vec(1.0, 2.0))


def test_non_finite_output_is_a_non_finite_error():
    # the linesearch treats NaN/Inf as a failed trial but a wrong shape as a bug
    for bad in ("nan", "inf"):
        op = MonotoneOperator(2, forward=BAD_OUTPUTS[bad], name=bad)
        with pytest.raises(NonFiniteError):
            forward_eval(op, vec(1.0, 2.0))
    op = MonotoneOperator(2, forward=BAD_OUTPUTS["shape"], name="shape")
    with pytest.raises(ShapeError) as info:
        forward_eval(op, vec(1.0, 2.0))
    assert not isinstance(info.value, NonFiniteError)


def test_callables_cannot_write_into_their_argument():
    def scale_in_place(x):
        x *= 2.0
        return x

    x = vec(1.0, 2.0)
    with pytest.raises(ValueError):
        forward_eval(MonotoneOperator(2, forward=scale_in_place), x)
    with pytest.raises(ValueError):
        prox_eval(MonotoneOperator(2, prox=lambda a, rho: scale_in_place(a)), 1.0, x)
    assert x == pytest.approx([1.0, 2.0])


# -- prox evaluation ----------------------------------------------------------

def test_prox_l1_soft_threshold():
    res = prox_eval(l1_subdifferential(1.0, 1), 1.0, vec(2.0))
    assert res.x == pytest.approx([1.0])
    assert res.y == pytest.approx([1.0])  # 1 is a valid subgradient at 1


def test_prox_zero_operator_is_identity():
    a = vec(3.0, -1.0)
    res = prox_eval(zero_op(2), 5.0, a)
    assert res.x == pytest.approx(a)
    assert np.linalg.norm(res.y) == 0.0


def test_prox_box_projection():
    res = prox_eval(box_normal_cone([-1.0], [1.0]), 2.0, vec(3.0))
    assert res.x == pytest.approx([1.0])
    assert res.y == pytest.approx([1.0])  # (3-1)/2


def test_prox_rejects_nonpositive_rho():
    with pytest.raises(ConfigError):
        prox_eval(zero_op(1), 0.0, vec(1.0))


# -- library constructors -----------------------------------------------------

def test_affine_skew_is_accepted():
    op = affine_monotone([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0])
    assert op.forward_evaluable and op.prox_evaluable


def test_affine_non_monotone_rejected():
    with pytest.raises(ConfigError):
        affine_monotone([[-1.0]], [0.0])


@pytest.mark.parametrize("modulus", [-1.0, -1e-300, np.nan, np.inf, "1", True])
def test_a_negative_or_non_finite_modulus_is_a_config_error(modulus):
    with pytest.raises(ConfigError, match="modulus"):
        MonotoneOperator(1, forward=lambda x: x, modulus=modulus)


def test_library_operators_declare_their_modulus():
    # max(0, lam_min) of the symmetric part for an affine operator: exactly
    # 0 for a skew matrix; 1 for the shifted identity; 0 unless declared
    assert MonotoneOperator(1, forward=lambda x: x).modulus == 0.0
    assert shifted_identity([1.0, 2.0]).modulus == 1.0
    assert affine_monotone([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0]).modulus == 0.0
    assert affine_monotone([[2.0, 1.0], [-1.0, 3.0]], [0.0, 0.0]).modulus == pytest.approx(2.0)
    assert affine_monotone([[1e-11, 0.0], [0.0, -1e-11]], [0.0, 0.0]).modulus == 0.0
    assert zero_op(2).modulus == 0.0 and cube(2).modulus == 0.0


def test_declared_moduli_hold_on_samples():
    rng = np.random.default_rng(23)
    dim = 3
    raw = rng.standard_normal((dim, dim))
    # symmetric part diag(0.5, 2, 3): modulus 0.5
    ops = [shifted_identity(rng.standard_normal(dim)),
           affine_monotone(np.diag([0.5, 2.0, 3.0]) + raw - raw.T, np.zeros(dim))]
    assert ops[1].modulus == pytest.approx(0.5)
    for op in ops:
        for _ in range(200):
            x, y = 5 * rng.standard_normal(dim), 5 * rng.standard_normal(dim)
            gap = np.dot(forward_eval(op, x) - forward_eval(op, y), x - y)
            assert gap >= op.modulus * np.dot(x - y, x - y) - 1e-10


def _prox_library(rng, dim):
    return [
        l1_subdifferential(0.7, dim),
        box_normal_cone(-np.ones(dim), 2 * np.ones(dim)),
        zero_op(dim),
        affine_monotone(np.eye(dim) * 0.5, rng.standard_normal(dim)),
        least_squares_gradient(rng.standard_normal((dim + 1, dim)), rng.standard_normal(dim + 1)),
    ]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rho=st.floats(1e-3, 1e3))
def test_resolvent_identity(seed, rho):
    rng = np.random.default_rng(seed)
    dim = 4
    for op in _prox_library(rng, dim):
        a = 10 * rng.standard_normal(dim)
        res = prox_eval(op, rho, a)
        assert np.linalg.norm(res.x + rho * res.y - a) <= 1e-10 * (1.0 + np.linalg.norm(a))


def _dense_resolvents(seed):
    """Affine operators with a non-symmetric monotone M and with the symmetric positive
    semidefinite A^T A of a least-squares gradient, each with its T for checking y in T(x)."""
    rng = np.random.default_rng([seed, 41])
    dim = 5
    raw = rng.standard_normal((dim, dim))
    root = rng.standard_normal((dim, dim))
    m = (raw - raw.T) + root.T @ root  # skew plus positive semidefinite
    b = rng.standard_normal(dim)
    a_mat, target = rng.standard_normal((dim + 2, dim)), rng.standard_normal(dim + 2)
    return [(affine_monotone(m, b), lambda x: m @ x + b),
            (least_squares_gradient(a_mat, target), lambda x: a_mat.T @ (a_mat @ x - target))]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_rho=st.floats(-3.0, 3.0))
def test_cached_resolvents_solve_the_inclusion(seed, log_rho):
    rho = 10.0 ** log_rho
    rng = np.random.default_rng(seed)
    for op, t in _dense_resolvents(seed):
        for _ in range(3):  # the second and third calls hit the cached inverse
            a = 10 * rng.standard_normal(5)
            x, y = prox_eval(op, rho, a)
            scale = np.linalg.norm(a) + np.linalg.norm(x)
            assert np.linalg.norm(x + rho * y - a) <= 1e-12 * scale
            # y in T(x): the explicit inverse solves (I + rho*T)x = a accurately
            assert np.linalg.norm(y - t(x)) <= 1e-11 * (1.0 + np.linalg.norm(y))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_rho=st.floats(-3.0, 3.0))
def test_cached_resolvents_are_nonexpansive(seed, log_rho):
    rho = 10.0 ** log_rho
    rng = np.random.default_rng(seed)
    for op, _ in _dense_resolvents(seed):
        for _ in range(5):
            a, b = 8 * rng.standard_normal(5), 8 * rng.standard_normal(5)
            gap = np.linalg.norm(prox_eval(op, rho, a).x - prox_eval(op, rho, b).x)
            assert gap <= np.linalg.norm(a - b) * (1 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_rhos=st.tuples(st.floats(-3.0, 3.0),
                                                          st.floats(-3.0, 3.0)))
def test_cached_resolvents_do_not_depend_on_call_history(seed, log_rhos):
    rho1, rho2 = (10.0 ** e for e in log_rhos)
    a = 10 * np.random.default_rng(seed).standard_normal(5)
    used, fresh = _dense_resolvents(seed), _dense_resolvents(seed)
    for (op, _), (new, _) in zip(used, fresh):
        prox_eval(op, rho1, a)
        prox_eval(op, rho2, 2 * a)
        again = prox_eval(op, rho1, a)
        first = prox_eval(new, rho1, a)
        assert np.array_equal(again.x, first.x) and np.array_equal(again.y, first.y)


def test_shifted_identity_matches_the_affine_identity():
    rng = np.random.default_rng(5)
    b = rng.standard_normal(6)
    fast, dense = shifted_identity(b), affine_monotone(np.eye(6), b)
    for _ in range(20):
        x = 10 * rng.standard_normal(6)
        assert np.array_equal(forward_eval(fast, x), forward_eval(dense, x))
        for rho in (1e-3, 0.5, 1.0, 7.0):
            res = prox_eval(fast, rho, x)
            assert np.allclose(res.x, prox_eval(dense, rho, x).x, rtol=1e-14, atol=1e-14)
            assert np.allclose(res.y, forward_eval(fast, res.x), rtol=1e-12, atol=1e-12)


def test_monotonicity_sampling():
    rng = np.random.default_rng(17)
    dim = 3
    forward_ops = [cube(dim), zero_op(dim),
                   affine_monotone([[0.0, 2.0, 0], [-2.0, 0, 0], [0, 0, 1.0]], np.zeros(3)),
                   least_squares_gradient(rng.standard_normal((5, dim)), rng.standard_normal(5))]
    for op in forward_ops:
        for _ in range(1000):
            x = 5 * rng.standard_normal(dim)
            y = 5 * rng.standard_normal(dim)
            gap = np.dot(forward_eval(op, x) - forward_eval(op, y), x - y)
            assert gap >= -1e-12


def test_prox_firm_nonexpansiveness_sampling():
    rng = np.random.default_rng(23)
    dim = 4
    for op in _prox_library(rng, dim):
        for _ in range(200):
            a = 8 * rng.standard_normal(dim)
            b = 8 * rng.standard_normal(dim)
            rho = float(rng.uniform(0.05, 20.0))
            xa = prox_eval(op, rho, a).x
            xb = prox_eval(op, rho, b).x
            assert np.linalg.norm(xa - xb) <= np.linalg.norm(a - b) + 1e-12


# -- error injection ----------------------------------------------------------

def test_error_policy_validation():
    with pytest.raises(ConfigError):
        ErrorPolicy(sigma=1.0)
    with pytest.raises(ConfigError):
        ErrorPolicy(mode="gaussian")
    with pytest.raises(ConfigError):
        ErrorPolicy(magnitude=-0.1)
    for bad in (float("inf"), float("nan"), True):
        with pytest.raises(ConfigError, match="magnitude"):
            ErrorPolicy(mode="seeded-random", magnitude=bad)
    with pytest.raises(ConfigError, match="seed"):
        ErrorPolicy(seed=-1)
    # mode 'none' injects nothing, so a nonzero magnitude would be ignored
    with pytest.raises(ConfigError, match="magnitude 0.1 needs mode 'seeded-random'"):
        ErrorPolicy(mode="none", magnitude=0.1)
    with pytest.raises(ConfigError, match="sigma"):  # the per-field checks come first
        ErrorPolicy(sigma=2.0, magnitude=0.1)
    assert ErrorPolicy(mode="seeded-random", magnitude=0.0).magnitude == 0.0


def test_error_policy_is_a_frozen_value_of_four_fields():
    policy = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=0.1, seed=3)
    assert [f.name for f in dataclasses.fields(policy)] == ["sigma", "mode", "magnitude", "seed"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        policy.seed = 4
    assert policy == ErrorPolicy(0.5, "seeded-random", 0.1, 3)


def test_inject_none_mode_returns_zero_error():
    op = l1_subdifferential(1.0, 1)
    gz = vec(2.0)
    base = gz + 1.0 * vec(0.0)
    e, res, _ = inject_error(ErrorPolicy(), None, base, op, 1.0, gz, vec(0.0))
    assert np.linalg.norm(e) == 0.0
    assert res.x == pytest.approx([1.0])


def test_inject_candidate_acceptance_worked_example():
    # sigma=0.5, soft-threshold block at z=2, w=0, rho=1, candidate e=0.1:
    # a=2.1 -> x=1.1, y=1; <2-1.1, 0.1>=0.09 >= -0.5*0.81 and <0.1, 1-0>=0.1 <= 0.5
    op = l1_subdifferential(1.0, 1)
    gz, w = vec(2.0), vec(0.0)
    e = vec(0.1)
    res = prox_eval(op, 1.0, gz + e)
    assert res.x == pytest.approx([1.1])
    assert res.y == pytest.approx([1.0])
    g1, g2 = error_inequality_gaps(e, res.x, res.y, gz, w, 1.0, 0.5)
    assert g1 == pytest.approx(0.09 + 0.5 * 0.81)
    assert g2 == pytest.approx(0.5 - 0.1)
    assert g1 >= 0 and g2 >= 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sigma=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
       magnitude=st.floats(0.0, sys.float_info.max),
       start=st.integers(0, 49))
def test_injected_errors_always_admissible(seed, sigma, magnitude, start):
    rng = np.random.default_rng(seed)
    dim = 3
    policy = ErrorPolicy(sigma=sigma, mode="seeded-random", magnitude=magnitude, seed=seed)
    errors = np.random.default_rng(seed)
    for op in (l1_subdifferential(1.0, dim), box_normal_cone(-np.ones(dim), np.ones(dim))):
        gz = rng.standard_normal(dim)
        w = rng.standard_normal(dim)
        rho = float(rng.uniform(0.1, 5.0))
        base = gz + rho * w
        with np.errstate(over="ignore", invalid="ignore"):  # at magnitudes near the largest float
            e, res, _ = inject_error(policy, errors, base, op, rho, gz, w, start)
        g1, g2 = error_inequality_gaps(e, res.x, res.y, gz, w, rho, sigma)
        assert g1 >= -1e-12 and g2 >= -1e-12
        # the prox really was evaluated at the perturbed input
        assert (np.linalg.norm(res.x + rho * res.y - (base + e))
                <= 1e-10 * (1.0 + np.linalg.norm(base)))


def test_an_all_zero_direction_falls_back_to_one_resolvent_evaluation():
    # a draw of exactly zero has no unit direction: the error is zero, the
    # index 0 and the resolvent is evaluated once, at the unperturbed input
    class ZeroDraws:
        def standard_normal(self, n):
            return np.zeros(n)

    calls = [0]

    def prox(a, rho):
        calls[0] += 1
        return np.clip(a, -1.0, 1.0)

    op = MonotoneOperator(2, prox=prox, name="box")
    policy = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=0.1)
    gz, w = vec(0.3, 2.0), vec(0.1, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e, res, k = inject_error(policy, ZeroDraws(), gz + w, op, 1.0, gz, w, 7)
    assert e.tobytes() == np.zeros(2).tobytes() and k == 0 and calls[0] == 1
    assert np.array_equal(res.x, vec(0.4, 1.0))


def test_sigma_zero_forces_tiny_or_zero_error():
    # with sigma=0 the admissible set often collapses; the halving loop must
    # still return something admissible (possibly exactly zero)
    op = l1_subdifferential(1.0, 2)
    policy = ErrorPolicy(sigma=0.0, mode="seeded-random", magnitude=5.0, seed=42)
    gz, w = vec(0.3, -0.2), vec(0.1, 0.1)
    e, res, _ = inject_error(policy, np.random.default_rng(policy.seed), gz + 1.0 * w, op, 1.0,
                             gz, w)
    g1, g2 = error_inequality_gaps(e, res.x, res.y, gz, w, 1.0, 0.0)
    assert g1 >= -1e-12 and g2 >= -1e-12
