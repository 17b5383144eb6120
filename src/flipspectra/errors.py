"""Shared exception types; the CLI maps these onto exit codes."""


class InvalidInputError(ValueError):
    """Arguments violate a documented precondition."""


class RangeError(InvalidInputError):
    """Numeric argument outside the supported range."""


class CapacityError(RuntimeError):
    """Instance exceeds a configured size limit."""


class ConvergenceError(RuntimeError):
    """A solve left a residual above spectra.TOLERANCE.

    The rejected answer is attached as ``best`` (a SpectralResult) so
    callers can inspect how close the solve got.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
