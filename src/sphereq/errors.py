"""Exception types shared across the package, and its integer check."""


class SphereqError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(SphereqError, ValueError):
    """An argument value or size is outside the supported range."""


class ResolutionError(SphereqError, ValueError):
    """The grid is too coarse to resolve the requested spectral degree."""


class EvaluationError(SphereqError, ValueError):
    """A pointwise evaluation produced a non-finite value."""


class DegenerateFieldError(SphereqError, ValueError):
    """The operation requires a nonconstant field."""


class ContractError(SphereqError, ValueError):
    """Caller-supplied data violates an operation's precondition."""


class FieldFormatError(SphereqError, ValueError):
    """A field file could not be parsed.

    ``line`` is the 1-based line number of the offending record when known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class ConvergenceError(SphereqError, RuntimeError):
    """An iterative solve did not reach its tolerance.

    Carries the last iterate and its residual norm so callers can inspect
    or restart from it.
    """

    def __init__(self, message, last_iterate=None, residual_norm=None):
        self.last_iterate = last_iterate
        self.residual_norm = residual_norm
        super().__init__(message)


class LinearSolveError(SphereqError, RuntimeError):
    """The inner Krylov solve stagnated or broke down."""


def _integer(value, name):
    """A non-negative integer ``value`` (2 or 2.0) as an int; else a ParameterError."""
    if not (float(value).is_integer() and value >= 0):
        raise ParameterError(
            "%s must be non-negative and an integer, got %r" % (name, value))
    return int(value)
