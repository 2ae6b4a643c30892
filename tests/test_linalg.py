import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from projsplit import (ConfigError, LinearMap, PrimalDualPoint, ShapeError, Space, Vec,
                       derived_wn, gamma_inner, gamma_norm, point_diff)
from projsplit.linalg import weighted_norm


def vec(*entries):
    return Vec(Space(len(entries)), np.array(entries, dtype=float))


def test_space_requires_positive_integer_dim():
    with pytest.raises(ShapeError):
        Space(0)
    with pytest.raises(ShapeError):
        Space(-3)
    assert np.linalg.norm(Space(4).zeros().entries) == 0.0


def test_vec_rejects_nan_inf_and_bad_shapes():
    s = Space(2)
    with pytest.raises(ShapeError):
        Vec(s, [1.0, np.nan])
    with pytest.raises(ShapeError):
        Vec(s, [1.0, np.inf])
    with pytest.raises(ShapeError):
        Vec(s, [1.0, 2.0, 3.0])


def test_vec_is_immutable():
    v = vec(1.0, 2.0)
    with pytest.raises(AttributeError):
        v.entries = np.zeros(2)
    with pytest.raises(ValueError):
        v.entries[0] = 5.0


def test_derived_wn_single_identity_block():
    p = PrimalDualPoint(vec(0.0), (vec(3.0),))
    wn = derived_wn(p, (LinearMap.identity(Space(1)),))
    assert wn == pytest.approx([-3.0])


def test_derived_wn_empty_sum_convention():
    p = PrimalDualPoint(vec(1.0, 2.0))
    assert np.linalg.norm(derived_wn(p, ())) == 0.0


def test_derived_wn_mixed_maps():
    # -(I*1 + diag(2)*1) = -3
    p = PrimalDualPoint(vec(0.0), (vec(1.0), vec(1.0)))
    maps = (LinearMap.identity(Space(1)), LinearMap.diagonal([2.0]))
    assert derived_wn(p, maps) == pytest.approx([-3.0])


def test_gamma_inner_examples():
    zero = PrimalDualPoint(vec(0.0), (vec(0.0),))
    assert gamma_inner(zero, zero, 1.0) == 0.0
    p = PrimalDualPoint(vec(1.0), (vec(2.0),))
    assert gamma_inner(p, p, 1.0) == pytest.approx(5.0)
    q = PrimalDualPoint(vec(1.0))
    assert gamma_inner(q, q, 4.0) == pytest.approx(4.0)


def test_gamma_inner_validates():
    p = PrimalDualPoint(vec(1.0), (vec(2.0),))
    with pytest.raises(ConfigError):
        gamma_inner(p, p, 0.0)
    with pytest.raises(ShapeError):
        gamma_inner(p, PrimalDualPoint(vec(1.0)), 1.0)


def test_gamma_norm_examples():
    assert gamma_norm(PrimalDualPoint(vec(0.0), (vec(0.0),)), 2.0) == 0.0
    assert gamma_norm(PrimalDualPoint(vec(3.0), (vec(4.0),)), 1.0) == pytest.approx(5.0)
    assert gamma_norm(PrimalDualPoint(vec(1.0)), 9.0) == pytest.approx(3.0)


def test_apply_examples():
    g = LinearMap([[1.0, 2.0], [0.0, 1.0]])
    x = np.array([1.0, 1.0])
    assert g.apply(x) == pytest.approx([3.0, 1.0])
    assert g.apply_adjoint(np.array([1.0, 1.0])) == pytest.approx([1.0, 3.0])
    ident = LinearMap.identity(Space(2))
    assert ident.apply(x) is x  # structural identity is free


def test_apply_dimension_mismatch():
    g = LinearMap(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        g.apply(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeError):
        g.apply_adjoint(np.array([1.0, 2.0]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), d=st.integers(1, 6))
def test_adjoint_consistency_random_maps(seed, m, d):
    rng = np.random.default_rng(seed)
    g = LinearMap(rng.standard_normal((m, d)))
    for _ in range(100):
        x = rng.standard_normal(d)
        y = rng.standard_normal(m)
        lhs = np.dot(g.apply(x), y)
        rhs = np.dot(x, g.apply_adjoint(y))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + np.linalg.norm(x) * np.linalg.norm(y))


def _random_point(rng, d0, d1, scale=1.0):
    return PrimalDualPoint(Vec(Space(d0), scale * rng.standard_normal(d0)),
                           (Vec(Space(d1), scale * rng.standard_normal(d1)),))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.01, 100.0))
def test_gamma_inner_symmetric_and_bilinear(seed, gamma):
    rng = np.random.default_rng(seed)
    p, q, r = (_random_point(rng, 3, 2) for _ in range(3))
    a, b = rng.uniform(-2, 2, 2)
    scale = max(1.0, gamma_norm(p, gamma) * gamma_norm(q, gamma))
    assert abs(gamma_inner(p, q, gamma) - gamma_inner(q, p, gamma)) <= 1e-12 * scale
    combo = PrimalDualPoint(Vec(Space(3), a * q.z.entries + b * r.z.entries),
                            (Vec(Space(2), a * q.w[0].entries + b * r.w[0].entries),))
    expanded = a * gamma_inner(p, q, gamma) + b * gamma_inner(p, r, gamma)
    bound = 1e-12 * max(1.0, abs(expanded))
    assert abs(gamma_inner(p, combo, gamma) - expanded) <= bound


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.01, 100.0))
def test_gamma_norm_squares_to_inner(seed, gamma):
    p = _random_point(np.random.default_rng(seed), 4, 3)
    inner = gamma_inner(p, p, gamma)
    assert gamma_norm(p, gamma) ** 2 == pytest.approx(inner, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.01, 100.0))
def test_weighted_norm_is_gamma_norm_bitwise(seed, gamma):
    p = _random_point(np.random.default_rng(seed), 4, 3)
    assert weighted_norm(p.z.entries, [wi.entries for wi in p.w], gamma) == \
        float(np.sqrt(gamma_inner(p, p, gamma)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_derived_wn_additive_in_w(seed):
    rng = np.random.default_rng(seed)
    maps = (LinearMap(rng.standard_normal((3, 2))), LinearMap.diagonal(rng.standard_normal(2)))
    z = Vec(Space(2), rng.standard_normal(2))
    w_a = (rng.standard_normal(3), rng.standard_normal(2))
    w_b = (rng.standard_normal(3), rng.standard_normal(2))

    def point(w):
        return PrimalDualPoint(z, tuple(Vec(Space(wi.shape[0]), wi) for wi in w))

    lhs = derived_wn(point(tuple(a + b for a, b in zip(w_a, w_b))), maps)
    rhs = derived_wn(point(w_a), maps) + derived_wn(point(w_b), maps)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1.0 + np.linalg.norm(rhs))


def test_point_diff():
    p = PrimalDualPoint(vec(3.0), (vec(1.0),))
    q = PrimalDualPoint(vec(1.0), (vec(4.0),))
    d = point_diff(p, q)
    assert d.z.entries == pytest.approx([2.0])
    assert d.w[0].entries == pytest.approx([-3.0])
