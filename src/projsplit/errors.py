"""Exception types shared across the solver."""


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
