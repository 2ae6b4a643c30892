"""Block vectors, linear maps with adjoints, and the weighted product-space geometry.

A problem couples a primal space H0 with block spaces H1..H_{n-1} through
linear maps G_i; the last block lives on H0 itself with the identity map.
Iterates are primal-dual points p = (z, w_1, ..., w_{n-1}) measured in the
gamma-weighted inner product

    <(z1, w1), (z2, w2)>_gamma = gamma*<z1, z2> + sum_i <w1_i, w2_i>.

Maps, :func:`derived_wn` and :func:`weighted_norm` work on float64 arrays.
:class:`Vec` and :class:`PrimalDualPoint` hold only public values and the
stored iterate; their entries, like every operator output, pass
:func:`checked_entries`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteError, ShapeError


@dataclass(frozen=True)
class Space:
    """A finite-dimensional real space, identified by its dimension."""

    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise ShapeError(f"space dimension must be a positive integer, got {self.dim!r}")

    def zeros(self) -> "Vec":
        return Vec(self, np.zeros(self.dim))


def checked_entries(space: Space, entries) -> np.ndarray:
    """A read-only float64 copy of ``entries``, checked to be a finite element of ``space``.

    A 0-d value counts as one entry. Raises :class:`ShapeError` on a wrong
    shape and its subclass :class:`NonFiniteError` on NaN/Inf.
    """
    arr = np.asarray(entries, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.shape[0] != space.dim:
        raise ShapeError(f"expected {space.dim} entries, got array of shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError("vector entries must be finite (no NaN/Inf)")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


class Vec:
    """Immutable element of a :class:`Space`, backed by a read-only float64 array.

    Construction rejects NaN/Inf and wrong shapes (see :func:`checked_entries`).
    Arithmetic is done on ``entries``.
    """

    __slots__ = ("space", "entries")

    def __init__(self, space: Space, entries):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "entries", checked_entries(space, entries))

    def __setattr__(self, name, value):
        raise AttributeError("Vec is immutable")

    def __repr__(self):
        return f"Vec(dim={self.space.dim}, {self.entries!r})"


class LinearMap:
    """Bounded linear map G between two spaces, with an exact adjoint.

    Three representations: dense matrix, identity, and diagonal. Identity
    application returns its argument unchanged, which makes the implicit
    last-block map free.
    """

    __slots__ = ("domain", "codomain", "kind", "matrix")

    def __init__(self, matrix, domain: Space | None = None, codomain: Space | None = None):
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2:
            raise ShapeError(f"dense map needs a 2-d matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ShapeError("map entries must be finite")
        domain = domain or Space(mat.shape[1])
        codomain = codomain or Space(mat.shape[0])
        if (codomain.dim, domain.dim) != mat.shape:
            raise ShapeError(f"matrix shape {mat.shape} inconsistent with spaces "
                             f"({codomain.dim}, {domain.dim})")
        mat = mat.copy()
        mat.setflags(write=False)
        self.domain = domain
        self.codomain = codomain
        self.kind = "dense"
        self.matrix = mat

    @classmethod
    def identity(cls, space: Space) -> "LinearMap":
        m = cls.__new__(cls)
        m.domain = m.codomain = space
        m.kind = "identity"
        m.matrix = None
        return m

    @classmethod
    def diagonal(cls, diag) -> "LinearMap":
        d = np.asarray(diag, dtype=float)
        if d.ndim != 1 or not np.all(np.isfinite(d)):
            raise ShapeError("diagonal map needs a finite 1-d array")
        m = cls.__new__(cls)
        m.domain = m.codomain = Space(d.shape[0])
        m.kind = "diagonal"
        d = d.copy()
        d.setflags(write=False)
        m.matrix = d
        return m

    def apply(self, x: np.ndarray) -> np.ndarray:
        """G x."""
        if x.shape != (self.domain.dim,):
            raise ShapeError(f"map domain dim {self.domain.dim}, argument shape {x.shape}")
        if self.kind == "identity":
            return x
        if self.kind == "diagonal":
            return self.matrix * x
        return self.matrix @ x

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """G* y, realized through the transpose."""
        if y.shape != (self.codomain.dim,):
            raise ShapeError(f"map codomain dim {self.codomain.dim}, argument shape {y.shape}")
        if self.kind == "identity":
            return y
        if self.kind == "diagonal":
            return self.matrix * y
        return self.matrix.T @ y

    def __repr__(self):
        return f"LinearMap({self.kind}, {self.codomain.dim}x{self.domain.dim})"


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

    def __repr__(self):
        return f"PrimalDualPoint(z dim={self.z.space.dim}, {len(self.w)} dual blocks)"


def derived_wn(p: PrimalDualPoint, maps) -> np.ndarray:
    """The derived last dual block -sum_i G_i* w_i; zero vector when there are no duals."""
    maps = tuple(maps)
    if len(maps) != len(p.w):
        raise ShapeError(f"{len(p.w)} dual blocks but {len(maps)} maps")
    out = np.zeros(p.z.space.dim)
    for g, wi in zip(maps, p.w):
        out = out - g.apply_adjoint(wi.entries)
    return out


def gamma_inner(p: PrimalDualPoint, q: PrimalDualPoint, gamma: float) -> float:
    """gamma*<z1,z2> + sum_i <w1_i, w2_i>."""
    if gamma <= 0:
        raise ConfigError(f"gamma must be > 0, got {gamma}")
    if len(p.w) != len(q.w):
        raise ShapeError(f"dual block count mismatch: {len(p.w)} vs {len(q.w)}")
    total = gamma * float(np.dot(p.z.entries, q.z.entries))
    for wp, wq in zip(p.w, q.w):
        total += float(np.dot(wp.entries, wq.entries))
    return total


def gamma_norm(p: PrimalDualPoint, gamma: float) -> float:
    """Norm induced by :func:`gamma_inner`."""
    if gamma <= 0:
        raise ConfigError(f"gamma must be > 0, got {gamma}")
    return weighted_norm(p.z.entries, [wi.entries for wi in p.w], gamma)


def weighted_norm(z: np.ndarray, w, gamma: float) -> float:
    """The gamma-norm sqrt(gamma*||z||^2 + sum_i ||w_i||^2) of a pair of arrays."""
    total = gamma * float(np.dot(z, z))
    for wi in w:
        total += float(np.dot(wi, wi))
    return float(np.sqrt(total))


def point_diff(p: PrimalDualPoint, q: PrimalDualPoint) -> PrimalDualPoint:
    if len(p.w) != len(q.w):
        raise ShapeError(f"dual block count mismatch: {len(p.w)} vs {len(q.w)}")
    return PrimalDualPoint(Vec(p.z.space, p.z.entries - q.z.entries),
                           tuple(Vec(wp.space, wp.entries - wq.entries)
                                 for wp, wq in zip(p.w, q.w)))
