"""The finite-n quantity registry and the functional-equation factor.

Each finite-n quantity the claims study is one row of ``_value``, which reads
sums tables at rho and at 1 - rho; ``_tables`` builds the smallest tables a
quantity reads, and ``_mirror`` is the one rule for the table at 1 - rho. The
sweeps and claims in ``convergence`` and the one-point functions below all
read these, so each formula is written once; the Euler-Maclaurin terms they
read are ``euler_maclaurin._leading_terms``'s. h_hat_exact is the exact
factor H_hat_n tends to.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from enum import Enum

from .errors import DegenerateRatioError, DomainError, PoleError
from .euler_maclaurin import _leading_terms
from .series import RawSums, _hat, _hat_prime, raw_sums_at
from .special import LN_TWO_PI, log_gamma

LN_2 = math.log(2.0)

#: denominator moduli below this raise DegenerateRatioError
DENOMINATOR_FLOOR = 1e-300


class Quantity(Enum):
    ZETA_HAT_AT_RHO = "zeta_hat_at_rho"
    H_HAT_N = "H_hat_n"
    H_N = "H_n"
    SMALL_H_2N = "h_2n"
    SMALL_G_2N = "g_2n"
    DERIV_RATIO = "deriv_ratio"
    DERIV_RATIO_CORRECTED = "deriv_ratio_corrected"


#: quantities that read the sums at 2n as well as at n
_READS_2N = (Quantity.SMALL_H_2N, Quantity.SMALL_G_2N)
#: quantities that read the derivative sums
_READS_DERIV = (Quantity.DERIV_RATIO, Quantity.DERIV_RATIO_CORRECTED)
#: quantities that read the table at 1 - rho: all but three
_READS_MIRROR = set(Quantity) - {Quantity.ZETA_HAT_AT_RHO, Quantity.SMALL_H_2N, Quantity.SMALL_G_2N}


def _mirror(
    rho: complex, at_rho: dict[int, RawSums], ns: Sequence[int], derivative: bool
) -> dict[int, RawSums]:
    """The sums table at 1 - rho for each n of ``ns``: on the critical line,
    where 1 - rho = conj(rho), the conjugate of ``at_rho``, bit for bit (the
    pass is sign-symmetric; see ``series``); off it, a pass of its own."""
    if rho.real == 0.5:
        return {n: RawSums(*(None if v is None else v.conjugate() for v in at_rho[n])) for n in ns}
    return raw_sums_at(1.0 - rho, ns, include_derivative=derivative)


def _tables(
    quantity: Quantity, rho: complex, ns: Sequence[int]
) -> tuple[dict[int, RawSums], dict[int, RawSums] | None]:
    """The sums tables ``quantity`` reads at every n of ``ns``: one pass at
    rho and, if it reads one, the table at 1 - rho."""
    checkpoints = sorted(set(ns) | {2 * n for n in ns}) if quantity in _READS_2N else ns
    deriv = quantity in _READS_DERIV
    at_rho = raw_sums_at(rho, checkpoints, include_derivative=deriv)
    at_mirror = _mirror(rho, at_rho, checkpoints, deriv) if quantity in _READS_MIRROR else None
    return at_rho, at_mirror


def _ratio(num: complex, den: complex, quantity: Quantity) -> complex:
    if abs(den) < DENOMINATOR_FLOOR:
        raise DegenerateRatioError(
            f"{quantity.value}: denominator modulus below {DENOMINATOR_FLOOR:g}"
        )
    return num / den


def _corrected_prime(sums: RawSums, z: complex, n: int) -> complex:
    """zeta'(z) from the partial sums to n: zeta_hat_n'(z) minus the
    z-derivative of the n^(-z)/2 Euler-Maclaurin boundary term. The first
    term it omits is the derivative of the first Bernoulli term."""
    lead = _leading_terms(z, n, derivative=True)
    return sums.zeta_prime - lead.tail_prime_log - lead.tail_prime_pole - lead.boundary_prime


def _value(
    quantity: Quantity,
    rho: complex,
    n: int,
    at_rho: dict[int, RawSums],
    at_mirror: dict[int, RawSums] | None,
) -> complex:
    """``quantity`` at n, read from sums tables at rho and at 1 - rho."""
    if quantity is Quantity.ZETA_HAT_AT_RHO:
        return _hat(at_rho[n], rho, n)
    if quantity is Quantity.H_HAT_N:
        return _ratio(_hat(at_rho[n], rho, n), _hat(at_mirror[n], 1.0 - rho, n), quantity)
    if quantity is Quantity.H_N:
        return _ratio(at_rho[n].zeta, at_mirror[n].zeta, quantity)
    if quantity is Quantity.SMALL_H_2N:
        return at_rho[2 * n].xi + _hat(at_rho[2 * n], rho, 2 * n)
    if quantity is Quantity.SMALL_G_2N:
        return at_rho[2 * n].xi + _leading_terms(rho, 2 * n, tail=False).boundary
    if quantity in _READS_DERIV:
        prime = _hat_prime if quantity is Quantity.DERIV_RATIO else _corrected_prime
        return _ratio(prime(at_rho[n], rho, n), prime(at_mirror[n], 1.0 - rho, n), quantity)
    raise DomainError(f"unknown quantity {quantity}")


def _at(quantity: Quantity, z: complex, n: int) -> complex:
    """``quantity`` at one point (z, n), from the smallest tables it reads."""
    return _value(quantity, z, n, *_tables(quantity, z, (n,)))


def h_hat_exact(z: complex) -> complex:
    """2 Gamma(1-z) (2 pi)^(z-1) sin(pi z / 2), accumulated in log space.

    The log-space route keeps large |Im z| safe, where Gamma(1-z) and the
    sine factor have huge opposing moduli. Beyond |Im z| = 100 log sin w,
    w = pi z / 2, is taken as -iw + log(i/2) + log(1 - e^(2iw)) for
    Im w > 0 and as its mirror below, since sin w itself overflows from
    |Im z| ~ 453; any branch of the log serves, as the sum is exponentiated.
    Exact even-integer arguments are
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
    w = 0.5 * cmath.pi * z
    if abs(z.imag) <= 100.0:
        log_sin = cmath.log(cmath.sin(w))
    else:
        sign = 1.0 if w.imag > 0 else -1.0
        log_sin = (
            -sign * 1j * w + cmath.log(sign * 0.5j) + cmath.log(1.0 - cmath.exp(2j * sign * w))
        )
    return cmath.exp(LN_2 + log_gamma(1.0 - z) + (z - 1.0) * LN_TWO_PI + log_sin)


def h_hat_n(z: complex, n: int) -> complex:
    """Regularized finite-n ratio: zeta_hat_n(z) / zeta_hat_n(1-z)."""
    return _at(Quantity.H_HAT_N, z, n)


def h_n(z: complex, n: int) -> complex:
    """Raw finite-n ratio: zeta_n(z) / zeta_n(1-z)."""
    return _at(Quantity.H_N, z, n)


def small_h_2n(z: complex, n: int) -> complex:
    """xi_2n(z) + zeta_hat_2n(z); decays one power of n faster than either."""
    return _at(Quantity.SMALL_H_2N, z, n)


def small_g_2n(z: complex, n: int) -> complex:
    """First-order average of the alternating sum: xi_2n(z) + (2n)^(-z) / 2."""
    return _at(Quantity.SMALL_G_2N, z, n)
