"""Exception types shared across the package."""


class ZetascopeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ZetascopeError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """The requested point is a pole of the function being evaluated."""


class ConfigError(ZetascopeError, ValueError):
    """A configuration value violates its documented range."""


class WindowError(ZetascopeError, ValueError):
    """The (z, n) pair violates the Hardy-Littlewood validity window."""


class PrecisionNotReachedError(ZetascopeError):
    """The asymptotic series started diverging before the accuracy target.

    Carries the best achieved truncation bound in ``bound`` and the partial
    value accumulated so far in ``value``.
    """

    def __init__(self, message: str, value: complex, bound: float):
        super().__init__(message)
        self.value = value
        self.bound = bound


class SumOverflowError(ZetascopeError, OverflowError):
    """A partial sum left the finite floats."""


class PrecisionError(ZetascopeError):
    """A quantity that must be real carries too much imaginary leakage."""


class DegenerateRatioError(ZetascopeError, ZeroDivisionError):
    """The denominator of a ratio fell below functional_eq.DENOMINATOR_FLOOR in modulus."""


class DegenerateSeriesError(ZetascopeError, ValueError):
    """A convergence series cannot be fitted or extrapolated (zero modulus or too few points)."""
