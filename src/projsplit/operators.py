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
    modulus : float
        A strong-monotonicity modulus mu >= 0, finite (a
        :class:`~projsplit.errors.ConfigError` naming ``modulus``
        otherwise): <x - x', T x - T x'> >= mu*||x - x'||^2 for all x, x'.
        The default 0 claims only monotonicity. The forward linesearch skips,
        unevaluated, the trials that this bound proves must fail (see
        :mod:`projsplit.engine`); :class:`~projsplit.checks.InvariantMonitor`
        checks the declared value on every forward pair a run accepts.

    At least one of ``forward``/``prox`` must be given.
    """

    __slots__ = ("dim", "name", "modulus", "_forward", "_prox")

    def __init__(self, dim: int, *, forward=None, prox=None, name="operator",
                 modulus: float = 0.0):
        if forward is None and prox is None:
            raise ConfigError(f"operator '{name}' declares no capability")
        self.dim = checked_dim(dim)
        self.name = name
        self.modulus = checked_real("modulus", modulus)
        if self.modulus < 0.0:
            raise ConfigError(f"modulus must be >= 0, got {modulus!r}")
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
    mode injects nothing; ``seeded-random`` draws a unit direction from a
    seeded generator and tries it at the scales magnitude * 2^-k, k = k0,
    k0 + 1, ..., until both inequalities hold. The index k never exceeds
    49 (an absolute floor of 50 scales counted from ``magnitude``); past
    it the error falls back to zero, which always satisfies them. The
    engine warm-starts each backward block: k0 is the index the block
    accepted last time (0 at its first update and after a zero fallback),
    so a search starts at the last accepted scale. sigma in [0, 1) and
    magnitude >= 0 are finite, seed an integer >= 0, and a nonzero
    magnitude needs ``seeded-random``. The policy holds no generator: each
    engine seeds its own from ``seed``.
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


def error_inequality_gaps(e: np.ndarray, x: np.ndarray, y: np.ndarray, z_block: np.ndarray,
                          w_block: np.ndarray, rho: float, sigma: float) -> tuple[float, float]:
    """Slack of the two admissibility inequalities of error e at the prox output (x, y).

    ``z_block`` is G z and ``w_block`` is w; e is admissible when both gaps
    are >= 0. :func:`inject_error` accepts a scale by this test, and
    :class:`~projsplit.checks.InvariantMonitor` checks accepted errors by it.
    """
    gz_minus_x = z_block - x
    y_minus_w = y - w_block
    g1 = gz_minus_x.dot(e) + sigma * gz_minus_x.dot(gz_minus_x)
    g2 = rho * sigma * y_minus_w.dot(y_minus_w) - e.dot(y_minus_w)
    return float(g1), float(g2)


_MAX_HALVINGS = 50


def inject_error(policy: ErrorPolicy, rng: np.random.Generator | None, base_input: np.ndarray,
                 op: MonotoneOperator, rho: float, z_block: np.ndarray,
                 w_block: np.ndarray, start: int = 0) -> tuple[np.ndarray, ProxResult, int]:
    """Perturb a prox input by an admissible error and evaluate the resolvent.

    ``rng`` draws the error direction (None is fine when the policy injects
    nothing). ``base_input`` is the unperturbed input G z + rho*w;
    ``z_block`` is G z itself. The unit direction u is tried as
    e = u * (magnitude * 2^-k) for k = start, start + 1, ..., 49, each
    trial one resolvent evaluation tested by :func:`error_inequality_gaps`,
    until e is admissible; every entry of e is at most ``magnitude`` in
    size, so a finite magnitude gives a finite e. Returns the accepted error e, the prox result at base + e
    and the accepted index k. Without an admissible scale e is zero, whose
    gaps are sigma*||.||^2 >= 0, and the index is 0, so a search
    warm-started from it begins at ``magnitude`` again. A policy that
    injects nothing evaluates the resolvent once and returns index 0.
    """
    zero = np.zeros(base_input.shape[0])
    if policy.mode == "none" or policy.magnitude == 0.0:
        return zero, prox_eval(op, rho, base_input), 0

    direction = rng.standard_normal(base_input.shape[0])
    # sqrt(<x, x>) is bitwise np.linalg.norm(x) for a 1-d float64 array
    nrm = math.sqrt(direction.dot(direction))
    if nrm == 0.0:
        return zero, prox_eval(op, rho, base_input), 0
    # scaling the unit vector, not magnitude * direction, keeps every entry
    # at most magnitude, which stays finite up to the largest float
    e = (direction / nrm) * (policy.magnitude * 0.5 ** start)

    sigma = policy.sigma
    # the gaps of a scale too large overflow to inf or NaN, which fails the
    # test and rejects the scale; numpy need not warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(start, _MAX_HALVINGS):
            a = base_input + e
            a.setflags(write=False)
            result = prox_eval(op, rho, a)
            g1, g2 = error_inequality_gaps(e, result.x, result.y, z_block, w_block, rho, sigma)
            if g1 >= 0.0 and g2 >= 0.0:
                return e, result, k
            e = 0.5 * e

    return zero, prox_eval(op, rho, base_input), 0


# ---------------------------------------------------------------------------
# operator library
# ---------------------------------------------------------------------------

def affine_monotone(matrix, shift) -> MonotoneOperator:
    """T(x) = M x + b. Requires M + M^T positive semidefinite.

    Monotonicity is checked at construction through the smallest eigenvalue
    lam_min of the symmetric part, a cheap guard at the scales this library
    targets. The operator declares the modulus max(0, lam_min), exactly 0
    for a skew M, whose symmetric part is the zero matrix.
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

    eye = np.eye(m.shape[0])
    cached = (None, None, None)  # (rho, inverse, -rho*b), replaced as one tuple

    def prox(a, rho):
        nonlocal cached
        state = cached
        if state[0] != rho:
            state = cached = (rho, np.linalg.inv(eye + rho * m), -rho * b)
        return state[1] @ (a + state[2])

    return MonotoneOperator(m.shape[0], forward=fwd, prox=prox, name="affine",
                            modulus=max(0.0, lam_min))


def shifted_identity(shift) -> MonotoneOperator:
    """T(x) = x + b: :func:`affine_monotone` with M = I, at O(dim) cost per evaluation.

    The resolvent is (a - rho*b)/(1 + rho). The operator is 1-strongly
    monotone and declares modulus 1, so under the default delta = 1 the
    linesearch skips every trial above rho = 1/2 unevaluated.
    """
    b = np.asarray(shift, dtype=float).reshape(-1)

    def fwd(x):
        return x + b

    def prox(a, rho):
        return (a - rho * b) / (1.0 + rho)

    return MonotoneOperator(b.shape[0], forward=fwd, prox=prox, name="shifted-identity",
                            modulus=1.0)


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


def zero_op(dim: int) -> MonotoneOperator:
    """T = 0; the resolvent is the identity."""
    return MonotoneOperator(dim, forward=lambda x: np.zeros_like(x),
                            prox=lambda a, rho: a, name="zero")
