"""Exception types shared across the solver, and the parameter checks that raise them."""

import math

import numpy as np


class ShapeError(ValueError):
    """Structural mismatch: wrong dimension, wrong space, non-finite entries."""


class NonFiniteError(ShapeError):
    """NaN or Inf where a finite value is required."""


class ConfigError(ValueError):
    """A parameter is outside its admissible range, or a setup is inconsistent."""


class CapabilityError(TypeError):
    """An operator was asked for an evaluation mode it does not declare."""


class HistoryError(LookupError):
    """Read of an iterate outside the bounded retention window."""


class AssumptionViolationError(RuntimeError):
    """A run met something the problem's assumptions rule out.

    :meth:`projsplit.engine.Engine.run` turns it into the status
    ``assumption-violation``.
    """


class BacktrackLimitError(AssumptionViolationError):
    """The linesearch failed to terminate within the configured budget.

    Under continuity of the operator this cannot happen; hitting the limit
    signals a violated problem assumption rather than an unlucky run.
    """


def checked_integer(label: str, value, lo: int = 1) -> int:
    """``value`` as an int >= lo; a :class:`ConfigError` naming ``label`` otherwise.

    Booleans are rejected although Python counts them as integers.
    """
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, (int, np.integer))):
        raise ConfigError(f"{label} has the wrong value type: "
                          f"expected {_integer_kind(lo)}, got {value!r}")
    if value < lo:
        raise ConfigError(f"{label} must be {_integer_kind(lo)}, got {value!r}")
    return int(value)


def _integer_kind(lo: int) -> str:
    return "a positive integer" if lo == 1 else f"an integer >= {lo}"


def checked_real(label: str, value, *, positive: bool = False) -> float:
    """``value`` as a finite float (> 0 if ``positive``); a :class:`ConfigError` naming
    ``label`` otherwise. Booleans are rejected, as is an integer beyond the float range."""
    if type(value) is float:
        number = value
    elif isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{label} has the wrong value type: "
                          f"expected {_real_kind(positive)}, got {value!r}")
    else:
        try:
            number = float(value)
        except OverflowError:
            number = math.nan
    if not math.isfinite(number) or (positive and number <= 0):
        raise ConfigError(f"{label} must be {_real_kind(positive)}, got {value!r}")
    return number


def _real_kind(positive: bool) -> str:
    return "a finite number > 0" if positive else "a finite number"
