"""The functional-equation factor and its finite-n ratio companions.

Covers the exact factor 2 Gamma(1-z) (2 pi)^(z-1) sin(pi z / 2), the
regularized and raw finite-n ratios, and the composite sums h_2n and g_2n
built from the alternating and regularized partial sums.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import DegenerateRatioError, DomainError, NearZeroWarning, PoleError
from .series import xi_partial, zeta_hat_partial, zeta_partial
from .special import LN_TWO_PI, complex_pow_base_real, log_gamma

LN_2 = math.log(2.0)

#: ratios evaluated with |Im z - t_zero| below this are flagged, not trusted
NEAR_ZERO_T_WINDOW = 1e-3

#: denominator moduli below this raise DegenerateRatioError
DENOMINATOR_FLOOR = 1e-300


class RatioKind(Enum):
    H_HAT_EXACT = "H_hat"
    H_HAT_N = "H_hat_n"
    H_N = "H_n"
    SMALL_H_2N = "h_2n"
    SMALL_G_2N = "g_2n"


@dataclass(frozen=True)
class RatioEvaluation:
    """Value of one ratio-family quantity at (z, n); n = 0 for the exact factor."""

    kind: RatioKind
    z: complex
    n: int
    value: complex

    def __post_init__(self):
        if self.kind is RatioKind.H_HAT_EXACT:
            if self.n != 0:
                raise ValueError("the exact factor carries n = 0")
        elif self.n < 1:
            raise ValueError(f"{self.kind.value} requires n >= 1")


def h_hat_exact(z: complex) -> complex:
    """2 Gamma(1-z) (2 pi)^(z-1) sin(pi z / 2), accumulated in log space.

    The log-space route keeps |Im z| ~ 50 safe, where Gamma(1-z) and the
    sine factor have huge opposing moduli. Exact even-integer arguments are
    special-cased: the sine zero makes the factor exactly 0 for z <= 0, and
    for positive even z it cancels the Gamma pole, leaving the finite limit
    (-1)^(z/2) (2 pi)^(z-1) pi / (z-1)!.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"H_hat needs a finite z, got {z}")
    if z == 1:
        raise PoleError("Gamma(1-z) has a pole at z=1")
    if z.imag == 0.0 and z.real == int(z.real) and int(z.real) % 2 == 0:
        m = int(z.real)
        if m <= 0:
            return 0.0 + 0.0j
        sign = -1.0 if (m // 2) % 2 else 1.0
        return complex(
            sign
            * math.exp((m - 1) * LN_TWO_PI + math.log(math.pi) - math.lgamma(m)),
            0.0,
        )
    s = cmath.sin(0.5 * cmath.pi * z)
    return cmath.exp(LN_2 + log_gamma(1.0 - z) + (z - 1.0) * LN_TWO_PI + cmath.log(s))


def _flag_near_zero(z: complex, zero_ordinates: Sequence[float] | None) -> None:
    if not zero_ordinates:
        return
    t = abs(complex(z).imag)
    if min(abs(t - t0) for t0 in zero_ordinates) <= NEAR_ZERO_T_WINDOW:
        warnings.warn(
            f"ratio evaluated within {NEAR_ZERO_T_WINDOW} (in t) of a zero of "
            "the denominator; the quotient is delicate there",
            NearZeroWarning,
            stacklevel=3,
        )


def _guarded_ratio(num: complex, den: complex, name: str) -> complex:
    if abs(den) < DENOMINATOR_FLOOR:
        raise DegenerateRatioError(f"{name}: denominator modulus below 1e-300")
    return num / den


def h_hat_n(
    z: complex, n: int, zero_ordinates: Sequence[float] | None = None
) -> complex:
    """Regularized finite-n ratio: zeta_hat_n(z) / zeta_hat_n(1-z)."""
    _flag_near_zero(z, zero_ordinates)
    return _guarded_ratio(
        zeta_hat_partial(z, n), zeta_hat_partial(1.0 - z, n), "H_hat_n"
    )


def h_n(z: complex, n: int, zero_ordinates: Sequence[float] | None = None) -> complex:
    """Raw finite-n ratio: zeta_n(z) / zeta_n(1-z)."""
    _flag_near_zero(z, zero_ordinates)
    return _guarded_ratio(zeta_partial(z, n), zeta_partial(1.0 - z, n), "H_n")


def small_h_2n(z: complex, n: int) -> complex:
    """xi_2n(z) + zeta_hat_2n(z); decays one power of n faster than either."""
    return xi_partial(z, 2 * n) + zeta_hat_partial(z, 2 * n)


def small_g_2n(z: complex, n: int) -> complex:
    """First-order average of the alternating sum: xi_2n(z) + (2n)^(-z) / 2."""
    return xi_partial(z, 2 * n) + 0.5 * complex_pow_base_real(2 * n, z)
