"""Exception types: a refused argument is a DomainError, a failed computation a NumericalError."""


class ZetascopeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ZetascopeError, ValueError):
    """An argument lies outside the mathematical domain of the operation, a
    pole included."""


class NumericalError(ZetascopeError):
    """A computation failed on an accepted argument: a sum overflowed or
    diverged, a value leaked or vanished, or the zero count did not back the
    scan."""
