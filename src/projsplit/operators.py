"""Monotone operators: forward evaluation, resolvent evaluation, inexact-prox errors.

An operator declares which evaluations it supports instead of having them
inferred: a forward-capable operator is single-valued and continuous on the
whole space, a prox-capable operator exposes its resolvent (I + rho*T)^{-1}.
The solver branches on this declaration, so asking for a missing capability
is a contract error rather than a silent fallback.

Operators exchange float64 arrays. :func:`forward_eval` and :func:`prox_eval`
hand a callable its argument read-only (a read-only view of a writable one)
and pass its output through :func:`~projsplit.linalg.checked_entries`, so a
wrong shape or NaN/Inf raises :class:`~projsplit.errors.ShapeError` where it
enters the solver. The engine's forward linesearch calls forward callables
itself and checks their outputs within its own arithmetic (see
:func:`projsplit.engine.forward_update_with_backtrack`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, ConfigError, ShapeError, checked_integer, checked_real
from .linalg import checked_dim, checked_entries


class MonotoneOperator:
    """A monotone operator T on R^dim.

    Parameters
    ----------
    dim : int
        The dimension of the space the operator acts on, a positive integer
        (:class:`~projsplit.errors.ShapeError` otherwise).
    forward : callable(ndarray) -> ndarray, optional
        Single-valued evaluation x -> T(x). The solver may keep the returned
        array without copying it, so each call returns a new array (or x)
        that the callable does not write into afterwards.
    prox : callable(ndarray, float) -> ndarray, optional
        Resolvent evaluation (a, rho) -> (I + rho*T)^{-1}(a).
    name : str
        Label used in error messages and traces.

    At least one of ``forward``/``prox`` must be given.
    """

    __slots__ = ("dim", "name", "_forward", "_prox")

    def __init__(self, dim: int, *, forward=None, prox=None, name="operator"):
        if forward is None and prox is None:
            raise ConfigError(f"operator '{name}' declares no capability")
        self.dim = checked_dim(dim)
        self.name = name
        self._forward = forward
        self._prox = prox

    @property
    def forward_evaluable(self) -> bool:
        return self._forward is not None

    @property
    def prox_evaluable(self) -> bool:
        return self._prox is not None

    def __repr__(self):
        caps = "/".join(c for c, on in (("forward", self.forward_evaluable),
                                        ("prox", self.prox_evaluable)) if on)
        return f"MonotoneOperator({self.name}, dim={self.dim}, {caps})"


class ProxResult(NamedTuple):
    """Resolvent output: x = (I + rho*T)^{-1}(a) and y = (a - x)/rho in T(x)."""

    x: np.ndarray
    y: np.ndarray


def _argument(op: MonotoneOperator, x: np.ndarray) -> np.ndarray:
    """x for op's callables, after checking its shape: x itself when it is
    read-only (the engine's arguments are), else a read-only view of it."""
    if x.shape != (op.dim,):
        raise ShapeError(f"operator '{op.name}' acts on dim {op.dim}, "
                         f"got shape {x.shape}")
    if not x.flags.writeable:
        return x
    view = x.view()
    view.setflags(write=False)
    return view


def forward_eval(op: MonotoneOperator, x: np.ndarray) -> np.ndarray:
    """Evaluate T(x) for a forward-capable operator."""
    if op._forward is None:
        raise CapabilityError(f"operator '{op.name}' is not forward-evaluable")
    return checked_entries(op.dim, op._forward(_argument(op, x)))


def prox_eval(op: MonotoneOperator, rho: float, a: np.ndarray) -> ProxResult:
    """Evaluate the resolvent at a with stepsize rho > 0.

    The pair (x, y) satisfies x + rho*y = a by construction, with y in T(x).
    """
    if op._prox is None:
        raise CapabilityError(f"operator '{op.name}' is not prox-evaluable")
    if rho <= 0:
        raise ConfigError(f"prox stepsize rho must be > 0, got {rho}")
    x = checked_entries(op.dim, op._prox(_argument(op, a), float(rho)))
    return ProxResult(x, (a - x) / rho)


# ---------------------------------------------------------------------------
# inexact proximal steps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorPolicy:
    """Controls perturbation of proximal-step inputs.

    Accepted errors always satisfy the two admissibility inequalities

        <G z - x, e>  >= -sigma * ||G z - x||^2
        <e, y - w>    <=  rho * sigma * ||y - w||^2

    for the prox output (x, y) computed at the perturbed input. ``none``
    mode injects nothing; ``seeded-random`` draws a direction from a seeded
    generator, scales it to ``magnitude``, and halves it until both
    inequalities hold (falling back to zero, which always satisfies them).
    sigma in [0, 1) and magnitude >= 0 are finite, seed an integer >= 0, and
    a nonzero magnitude needs ``seeded-random``. The policy holds no
    generator: each engine seeds its own from ``seed``.
    """

    sigma: float = 0.0
    mode: str = "none"  # "none" | "seeded-random"
    magnitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= checked_real("sigma", self.sigma) < 1.0:
            raise ConfigError(f"sigma must lie in [0, 1), got {self.sigma}")
        if self.mode not in ("none", "seeded-random"):
            raise ConfigError(f"error mode must be 'none' or 'seeded-random', got {self.mode!r}")
        if checked_real("magnitude", self.magnitude) < 0:
            raise ConfigError(f"error magnitude must be >= 0, got {self.magnitude}")
        checked_integer("error seed", self.seed, lo=0)
        if self.mode == "none" and self.magnitude != 0.0:
            raise ConfigError(f"error magnitude {self.magnitude} needs mode 'seeded-random'; "
                              "mode 'none' injects no errors")


def error_inequality_gaps(e: np.ndarray, result: ProxResult, z_block: np.ndarray,
                          w_block: np.ndarray, rho: float, sigma: float) -> tuple[float, float]:
    """Slack of the two admissibility inequalities; both must be >= 0."""
    gz_minus_x = z_block - result.x
    y_minus_w = result.y - w_block
    g1 = gz_minus_x.dot(e) + sigma * gz_minus_x.dot(gz_minus_x)
    g2 = rho * sigma * y_minus_w.dot(y_minus_w) - e.dot(y_minus_w)
    return float(g1), float(g2)


_MAX_HALVINGS = 50


def inject_error(policy: ErrorPolicy, rng: np.random.Generator | None, base_input: np.ndarray,
                 op: MonotoneOperator, rho: float, z_block: np.ndarray,
                 w_block: np.ndarray) -> tuple[np.ndarray, ProxResult]:
    """Perturb a prox input by an admissible error and evaluate the resolvent.

    ``rng`` draws the error direction (None is fine when the policy injects
    nothing). ``base_input`` is the unperturbed input G z + rho*w;
    ``z_block`` is G z itself. Returns the accepted error e and the prox
    result at base + e. Without an admissible halving e is zero, whose gaps
    are sigma*||.||^2 >= 0.
    """
    zero = np.zeros(base_input.shape[0])
    if policy.mode == "none" or policy.magnitude == 0.0:
        return zero, prox_eval(op, rho, base_input)

    direction = rng.standard_normal(base_input.shape[0])
    # sqrt(<x, x>) is bitwise np.linalg.norm(x) for a 1-d float64 array
    nrm = math.sqrt(direction.dot(direction))
    if nrm == 0.0:
        return zero, prox_eval(op, rho, base_input)
    e = policy.magnitude * direction / nrm

    sigma = policy.sigma
    for _ in range(_MAX_HALVINGS):
        a = base_input + e
        a.setflags(write=False)
        result = prox_eval(op, rho, a)
        # error_inequality_gaps, with the second gap formed only when the first holds
        gz_minus_x = z_block - result.x
        if gz_minus_x.dot(e) + sigma * gz_minus_x.dot(gz_minus_x) >= 0.0:
            y_minus_w = result.y - w_block
            if rho * sigma * y_minus_w.dot(y_minus_w) - e.dot(y_minus_w) >= 0.0:
                return e, result
        e = 0.5 * e

    return zero, prox_eval(op, rho, base_input)


# ---------------------------------------------------------------------------
# operator library
# ---------------------------------------------------------------------------

def affine_monotone(matrix, shift) -> MonotoneOperator:
    """T(x) = M x + b. Requires M + M^T positive semidefinite.

    Monotonicity is checked at construction through the smallest eigenvalue
    of the symmetric part, a cheap guard at the scales this library targets.
    Supports both forward evaluation and the resolvent
    x = (I + rho*M)^{-1}(a - rho*b). The resolvent keeps the explicit
    inverse R = (I + rho*M)^{-1} and rho*b for the last rho it was called
    with, so a call at an unchanged rho costs one matrix-vector product.
    Forming the inverse is numerically safe here: for monotone M,
    <(I + rho*M)x, x> >= ||x||^2, so ||R|| <= 1 and
    cond(I + rho*M) <= 1 + rho*||M||. The result depends only on (a, rho),
    not on which rho came before.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"affine operator needs a square matrix, got shape {m.shape}")
    b = np.asarray(shift, dtype=float).reshape(-1)
    if b.shape[0] != m.shape[0]:
        raise ShapeError(f"shift length {b.shape[0]} does not match matrix size {m.shape[0]}")
    lam_min = float(np.linalg.eigvalsh(0.5 * (m + m.T)).min())
    if lam_min < -1e-10:
        raise ConfigError(f"matrix is not monotone: min eig of symmetric part = {lam_min:.3e}")

    def fwd(x):
        return m @ x + b

    return MonotoneOperator(m.shape[0], forward=fwd, prox=_linear_resolvent(m, -b),
                            name="affine")


def _linear_resolvent(m: np.ndarray, c: np.ndarray):
    """The resolvent (a, rho) -> (I + rho*m)^{-1}(a + rho*c) of T(x) = m x - c, for monotone m.

    It keeps (I + rho*m)^{-1} and rho*c for the last rho it was called with.
    """
    eye = np.eye(m.shape[0])
    cached = (None, None, None)  # (rho, inverse, rho*c), replaced as one tuple

    def prox(a, rho):
        nonlocal cached
        state = cached
        if state[0] != rho:
            state = cached = (rho, np.linalg.inv(eye + rho * m), rho * c)
        return state[1] @ (a + state[2])

    return prox


def shifted_identity(shift) -> MonotoneOperator:
    """T(x) = x + b: :func:`affine_monotone` with M = I, at O(dim) cost per evaluation.

    The resolvent is (a - rho*b)/(1 + rho).
    """
    b = np.asarray(shift, dtype=float).reshape(-1)

    def fwd(x):
        return x + b

    def prox(a, rho):
        return (a - rho * b) / (1.0 + rho)

    return MonotoneOperator(b.shape[0], forward=fwd, prox=prox, name="shifted-identity")


def gradient_quadratic(design, target) -> MonotoneOperator:
    """Gradient of the least-squares loss 0.5*||A x - b||^2: T(x) = A^T(A x - b).

    The resolvent x = (I + rho*A^T A)^{-1}(v + rho*A^T b) keeps the explicit
    inverse and rho*A^T b for the last rho, as :func:`affine_monotone` does;
    A^T A is positive semidefinite, so the inverse has norm <= 1 and
    cond(I + rho*A^T A) <= 1 + rho*||A||^2.
    """
    a_mat = np.asarray(design, dtype=float)
    b = np.asarray(target, dtype=float).reshape(-1)
    if a_mat.ndim != 2 or a_mat.shape[0] != b.shape[0]:
        raise ShapeError("design/target shapes are inconsistent")

    def fwd(x):
        return a_mat.T @ (a_mat @ x - b)

    return MonotoneOperator(a_mat.shape[1], forward=fwd,
                            prox=_linear_resolvent(a_mat.T @ a_mat, a_mat.T @ b),
                            name="grad-quadratic")


def l1_subdifferential(lam: float, dim: int) -> MonotoneOperator:
    """Subdifferential of lam*||.||_1; resolvent is soft thresholding."""
    if lam <= 0:
        raise ConfigError(f"l1 threshold must be > 0, got {lam}")

    def prox(a, rho):
        t = rho * lam
        return np.sign(a) * np.maximum(np.abs(a) - t, 0.0)

    return MonotoneOperator(dim, prox=prox, name="l1")


def box_normal_cone(lower, upper) -> MonotoneOperator:
    """Normal cone of the box [lower, upper]; resolvent is the projection."""
    lo = np.asarray(lower, dtype=float).reshape(-1)
    hi = np.asarray(upper, dtype=float).reshape(-1)
    if lo.shape != hi.shape:
        raise ShapeError("box bounds must have equal length")
    if not np.all(lo < hi):
        raise ConfigError("box requires lower < upper componentwise")

    def prox(a, rho):
        return np.clip(a, lo, hi)

    return MonotoneOperator(lo.shape[0], prox=prox, name="box-normal-cone")


def cube(dim: int) -> MonotoneOperator:
    """T(x) = x^3 componentwise: continuous and monotone but not Lipschitz."""
    return MonotoneOperator(dim, forward=lambda x: x ** 3, name="cube")


def signed_sqrt(dim: int) -> MonotoneOperator:
    """T(x) = sign(x)*sqrt(|x|) componentwise: continuous, non-Lipschitz at 0."""
    def fwd(x):
        return np.sign(x) * np.sqrt(np.abs(x))

    return MonotoneOperator(dim, forward=fwd, name="signed-sqrt")


def zero_op(dim: int) -> MonotoneOperator:
    """T = 0; the resolvent is the identity."""
    return MonotoneOperator(dim, forward=lambda x: np.zeros_like(x),
                            prox=lambda a, rho: a, name="zero")
