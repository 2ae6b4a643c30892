"""Block vectors, linear maps with adjoints, and the weighted product-space geometry.

A problem couples a primal space R^d with block spaces through linear maps
G_i; the last block lives on R^d itself with the identity map. A space is
identified by its dimension, a positive int (see :func:`checked_dim`).
Iterates are primal-dual points p = (z, w_1, ..., w_{n-1}) measured in the
gamma-weighted inner product

    <(z1, w1), (z2, w2)>_gamma = gamma*<z1, z2> + sum_i <w1_i, w2_i>.

The solver works on float64 arrays: maps, :func:`dual_sum`,
:func:`weighted_norm` and :func:`all_finite` take arrays, and its iterate
is a ``(z, w)`` pair of read-only arrays. :class:`Vec` and
:class:`PrimalDualPoint` are the boundary types: problem data, reference
solutions and the points a run returns. A point converts to the solver's
pair through :attr:`PrimalDualPoint.arrays`. Vec entries, like every
operator output, pass :func:`checked_entries`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NonFiniteError, ShapeError


def checked_dim(dim) -> int:
    """``dim``, checked to be a positive integer; :class:`ShapeError` otherwise."""
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ShapeError(f"dimension must be a positive integer, got {dim!r}")
    return dim


def all_finite(arr: np.ndarray) -> bool:
    """True when no entry of the 1-d float64 array is NaN/Inf.

    <x, x> is finite only if every entry is, so one dot product settles the
    common case; when it is not finite (an overflow, or a NaN/Inf entry),
    the entries are checked one by one.
    """
    return math.isfinite(arr.dot(arr)) or bool(np.isfinite(arr).all())


def checked_entries(dim: int, entries) -> np.ndarray:
    """A read-only float64 copy of ``entries``, checked to be a finite element of R^dim.

    A 0-d value counts as one entry. Raises :class:`ShapeError` on a wrong
    shape and its subclass :class:`NonFiniteError` on NaN/Inf.
    """
    arr = np.array(entries, dtype=float)
    if arr.shape != (dim,):
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.shape != (dim,):
            raise ShapeError(f"expected {dim} entries, got array of shape {arr.shape}")
    if not all_finite(arr):
        raise NonFiniteError("vector entries must be finite (no NaN/Inf)")
    arr.setflags(write=False)
    return arr


class Vec:
    """Immutable vector, backed by a read-only float64 array.

    Its dimension is the length of the 1-d ``entries``, which must be
    non-empty. Construction rejects NaN/Inf and other shapes (see
    :func:`checked_entries`). Arithmetic is done on ``entries``.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        shape = np.shape(entries)
        if len(shape) != 1 or shape[0] == 0:
            raise ShapeError(f"a Vec needs non-empty 1-d entries, got shape {shape}")
        object.__setattr__(self, "entries", checked_entries(shape[0], entries))

    def __setattr__(self, name, value):
        raise AttributeError("Vec is immutable")

    def __repr__(self):
        return f"Vec(dim={len(self.entries)}, {self.entries!r})"


def _aligned_copy(mat: np.ndarray) -> np.ndarray:
    """A C-ordered copy of ``mat`` whose data starts at a 64-byte boundary.

    A dense matrix-vector product gives the same bits at any address, but
    on an x86-64 Xeon with one BLAS thread a 200x500 ``A @ x`` plus
    ``A.T @ y`` took 25 us from a 64-byte boundary and 36-42 us from the
    other 8-byte offsets.
    """
    buf = np.empty(mat.nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    out = buf[start:start + mat.nbytes].view(mat.dtype).reshape(mat.shape)
    out[...] = mat
    return out


class LinearMap:
    """Bounded linear map G from R^domain to R^codomain, with an exact adjoint.

    Two representations: ``kind`` is "dense", with G held in the read-only
    ``matrix``, or "identity", with ``matrix`` None. Identity application
    returns its argument unchanged, which makes the implicit last-block map
    free.
    """

    __slots__ = ("domain", "codomain", "kind", "matrix")

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or 0 in mat.shape:
            raise ShapeError(f"dense map needs a non-empty 2-d matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ShapeError("map entries must be finite")
        mat = _aligned_copy(mat)
        mat.setflags(write=False)
        self.codomain, self.domain = mat.shape
        self.kind = "dense"
        self.matrix = mat

    @classmethod
    def identity(cls, dim: int) -> "LinearMap":
        m = cls.__new__(cls)
        m.domain = m.codomain = checked_dim(dim)
        m.kind = "identity"
        m.matrix = None
        return m

    def apply(self, x: np.ndarray) -> np.ndarray:
        """G x."""
        if x.shape != (self.domain,):
            raise ShapeError(f"map domain dim {self.domain}, argument shape {x.shape}")
        if self.kind == "identity":
            return x
        return self.matrix @ x

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """G* y, realized through the transpose."""
        if y.shape != (self.codomain,):
            raise ShapeError(f"map codomain dim {self.codomain}, argument shape {y.shape}")
        if self.kind == "identity":
            return y
        return self.matrix.T @ y

    def __repr__(self):
        return f"LinearMap({self.kind}, {self.codomain}x{self.domain})"


class PrimalDualPoint:
    """The iterate p = (z, w_1, ..., w_{n-1}).

    The final dual block w_n = -sum_i G_i* w_i is never stored; it is
    recomputed on demand via :func:`derived_wn` so it can never go stale.
    """

    __slots__ = ("z", "w")

    def __init__(self, z: Vec, w=()):
        if not isinstance(z, Vec):
            raise ShapeError("z must be a Vec")
        w = tuple(w)
        for wi in w:
            if not isinstance(wi, Vec):
                raise ShapeError("every dual block must be a Vec")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)

    def __setattr__(self, name, value):
        raise AttributeError("PrimalDualPoint is immutable")

    @property
    def arrays(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The point as the solver's ``(z, w)`` pair of read-only arrays."""
        return self.z.entries, tuple(wi.entries for wi in self.w)

    def __repr__(self):
        return f"PrimalDualPoint(z dim={len(self.z.entries)}, {len(self.w)} dual blocks)"


def derived_wn(p: PrimalDualPoint, maps) -> np.ndarray:
    """The derived last dual block -sum_i G_i* w_i; zero vector when there are no duals."""
    maps = tuple(maps)
    if len(maps) != len(p.w):
        raise ShapeError(f"{len(p.w)} dual blocks but {len(maps)} maps")
    return dual_sum(tuple(wi.entries for wi in p.w), maps, len(p.z.entries))


def dual_sum(w, maps, dim: int) -> np.ndarray:
    """:func:`derived_wn` for the dual blocks ``w`` as arrays: -sum_i G_i* w_i in R^dim."""
    out = np.zeros(dim)
    for i in range(len(maps)):
        g = maps[i]
        out = out - (w[i] if g.matrix is None else g.apply_adjoint(w[i]))
    return out


def gamma_norm(p: PrimalDualPoint, gamma: float) -> float:
    """The gamma-norm of a point, induced by the gamma-weighted inner product."""
    if gamma <= 0:
        raise ConfigError(f"gamma must be > 0, got {gamma}")
    return weighted_norm(p.z.entries, [wi.entries for wi in p.w], gamma)


def weighted_norm(z: np.ndarray, w, gamma: float) -> float:
    """The gamma-norm sqrt(gamma*||z||^2 + sum_i ||w_i||^2) of a pair of arrays."""
    total = gamma * float(z.dot(z))
    for wi in w:
        total += float(wi.dot(wi))
    return math.sqrt(total)


def point_diff(p: PrimalDualPoint, q: PrimalDualPoint) -> PrimalDualPoint:
    """p - q, block by block; :class:`ShapeError` unless both have the same block dimensions."""
    if len(p.w) != len(q.w):
        raise ShapeError(f"dual block count mismatch: {len(p.w)} vs {len(q.w)}")
    return PrimalDualPoint(_diff(p.z, q.z, "z"),
                           tuple(_diff(p.w[i], q.w[i], f"w_{i}") for i in range(len(p.w))))


def _diff(a: Vec, b: Vec, block: str) -> Vec:
    # equal lengths, checked: numpy would broadcast a length-1 block silently
    if a.entries.shape != b.entries.shape:
        raise ShapeError(f"block {block} dimension mismatch: "
                         f"{len(a.entries)} vs {len(b.entries)}")
    return Vec(a.entries - b.entries)
