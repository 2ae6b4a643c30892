import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from projsplit import (ConfigError, LinearMap, MonotoneOperator, PrimalDualPoint, ShapeError,
                       Vec)
from projsplit.linalg import derived_wn, gamma_norm, point_diff, weighted_norm


def vec(*entries):
    return Vec(np.array(entries, dtype=float))


def test_space_requires_positive_integer_dim():
    for dim in (0, -3, 2.0, True, None):
        with pytest.raises(ShapeError):
            MonotoneOperator(dim, forward=lambda x: x)
        with pytest.raises(ShapeError):
            LinearMap.identity(dim)
    with pytest.raises(ShapeError):
        Vec([])


def test_vec_rejects_nan_inf_and_bad_shapes():
    with pytest.raises(ShapeError):
        Vec([1.0, np.nan])
    with pytest.raises(ShapeError):
        Vec([1.0, np.inf])
    for shape in ((), (2, 2)):
        with pytest.raises(ShapeError):
            Vec(np.zeros(shape))
    assert len(Vec([1.0, 2.0, 3.0]).entries) == 3


def test_vec_is_immutable():
    v = vec(1.0, 2.0)
    with pytest.raises(AttributeError):
        v.entries = np.zeros(2)
    with pytest.raises(ValueError):
        v.entries[0] = 5.0


def test_derived_wn_single_identity_block():
    p = PrimalDualPoint(vec(0.0), (vec(3.0),))
    wn = derived_wn(p, (LinearMap.identity(1),))
    assert wn == pytest.approx([-3.0])


def test_derived_wn_empty_sum_convention():
    p = PrimalDualPoint(vec(1.0, 2.0))
    assert np.linalg.norm(derived_wn(p, ())) == 0.0


def test_derived_wn_mixed_maps():
    # -(I*1 + diag(2)*1) = -3
    p = PrimalDualPoint(vec(0.0), (vec(1.0), vec(1.0)))
    maps = (LinearMap.identity(1), LinearMap(np.diag([2.0])))
    assert derived_wn(p, maps) == pytest.approx([-3.0])


def test_gamma_norm_examples():
    assert gamma_norm(PrimalDualPoint(vec(0.0), (vec(0.0),)), 2.0) == 0.0
    assert gamma_norm(PrimalDualPoint(vec(3.0), (vec(4.0),)), 1.0) == pytest.approx(5.0)
    assert gamma_norm(PrimalDualPoint(vec(1.0)), 9.0) == pytest.approx(3.0)
    with pytest.raises(ConfigError):
        gamma_norm(PrimalDualPoint(vec(1.0)), 0.0)


def test_apply_examples():
    g = LinearMap([[1.0, 2.0], [0.0, 1.0]])
    x = np.array([1.0, 1.0])
    assert g.apply(x) == pytest.approx([3.0, 1.0])
    assert g.apply_adjoint(np.array([1.0, 1.0])) == pytest.approx([1.0, 3.0])
    ident = LinearMap.identity(2)
    assert ident.apply(x) is x  # structural identity is free


def test_apply_dimension_mismatch():
    g = LinearMap(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        g.apply(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeError):
        g.apply_adjoint(np.array([1.0, 2.0]))


@pytest.mark.parametrize("offset", range(0, 64, 8))
def test_dense_map_copy_is_aligned_and_applies_the_same_bits(offset):
    # the source sits at every 8-byte offset from a 64-byte boundary
    rng = np.random.default_rng(offset)
    a_mat = rng.standard_normal((200, 500))
    buf = np.empty(a_mat.nbytes + 128, dtype=np.uint8)
    start = -buf.ctypes.data % 64 + offset
    source = buf[start:start + a_mat.nbytes].view(float).reshape(a_mat.shape)
    source[...] = a_mat
    g = LinearMap(source)
    assert g.matrix.ctypes.data % 64 == 0 and g.matrix.flags.c_contiguous
    assert not g.matrix.flags.writeable and np.array_equal(g.matrix, a_mat)
    x, y = rng.standard_normal(500), rng.standard_normal(200)
    assert g.apply(x).tobytes() == (source @ x).tobytes()
    assert g.apply_adjoint(y).tobytes() == (source.T @ y).tobytes()


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


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.01, 100.0))
def test_weighted_norm_is_gamma_norm_bitwise(seed, gamma):
    rng = np.random.default_rng(seed)
    z, w = rng.standard_normal(4), (rng.standard_normal(3),)
    total = gamma * float(np.dot(z, z))
    for wi in w:
        total += float(np.dot(wi, wi))
    point = PrimalDualPoint(Vec(z), tuple(Vec(wi) for wi in w))
    assert weighted_norm(z, w, gamma) == gamma_norm(point, gamma) == float(np.sqrt(total))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_derived_wn_additive_in_w(seed):
    rng = np.random.default_rng(seed)
    maps = (LinearMap(rng.standard_normal((3, 2))), LinearMap(np.diag(rng.standard_normal(2))))
    z = Vec(rng.standard_normal(2))
    w_a = (rng.standard_normal(3), rng.standard_normal(2))
    w_b = (rng.standard_normal(3), rng.standard_normal(2))

    def point(w):
        return PrimalDualPoint(z, tuple(Vec(wi) for wi in w))

    lhs = derived_wn(point(tuple(a + b for a, b in zip(w_a, w_b))), maps)
    rhs = derived_wn(point(w_a), maps) + derived_wn(point(w_b), maps)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1.0 + np.linalg.norm(rhs))


def test_point_diff():
    p = PrimalDualPoint(vec(3.0), (vec(1.0),))
    q = PrimalDualPoint(vec(1.0), (vec(4.0),))
    d = point_diff(p, q)
    assert d.z.entries == pytest.approx([2.0])
    assert d.w[0].entries == pytest.approx([-3.0])
    # numpy would broadcast a length-1 block against any other length
    with pytest.raises(ShapeError, match="block z dimension mismatch: 3 vs 1"):
        point_diff(PrimalDualPoint(vec(1.0, 2.0, 3.0)), PrimalDualPoint(vec(1.0)))
    with pytest.raises(ShapeError, match="block w_0 dimension mismatch: 2 vs 1"):
        point_diff(PrimalDualPoint(vec(0.0), (vec(1.0, 2.0),)),
                   PrimalDualPoint(vec(0.0), (vec(3.0),)))
