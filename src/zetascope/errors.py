"""Exception types: a refused argument is a DomainError, a failed computation a NumericalError."""


class ZetascopeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ZetascopeError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """The requested point is a pole of the function being evaluated."""


class NumericalError(ZetascopeError):
    """A computation failed on an accepted argument: a sum overflowed, a value
    leaked or vanished, or the zero count did not back the scan."""


class PrecisionNotReachedError(NumericalError):
    """The asymptotic series started diverging before the accuracy target.

    Carries the best achieved truncation bound in ``bound`` and the partial
    value accumulated so far in ``value``.
    """

    def __init__(self, message: str, value: complex, bound: float):
        super().__init__(message)
        self.value = value
        self.bound = bound
