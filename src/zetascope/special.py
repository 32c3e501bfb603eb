"""Complex elementary and special functions used by every other module.

Everything here is a pure function of its arguments: complex powers of a
positive real base, the log-gamma function, Bernoulli numbers from integer
tangent numbers, and h_hat_exact, the functional-equation factor H_hat. It
also holds N_CAP, the cap on every n, the checks of one n and of the dyadic
grid a sweep sums to, and the zero scan's T_CEILING and ZeroRecord. So the
modules without numpy (the reference evaluator, the zero scan, the CLI) read
them without loading the partial sums, and the claims read the zeros' record
without loading the scan. Every refused argument raises DomainError.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import DomainError, PoleError

#: hard cap on n; keeps every sum at desk scale
N_CAP = 2**24

#: the largest t that hardy_z, the zero count and a scan accept
T_CEILING = 100

TWO_PI = 2.0 * math.pi
LN_TWO_PI = math.log(TWO_PI)
LN_2 = math.log(2.0)
#: the most unit steps log_gamma lifts a point by; bounds its work
_MAX_LIFT = 2**12

# Lanczos approximation, g = 607/128, 15 terms (Godfrey's coefficient set).
# Gives ~14 significant digits for Re z >= 0.5, |z| <= a few hundred.
_LANCZOS_G = 4.7421875
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)


def _check_n(n: int) -> None:
    """DomainError unless n is a positive int no larger than N_CAP."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if n > N_CAP:
        raise DomainError(f"n={n} exceeds the cap {N_CAP}")


def _check_grid(n0: int, doublings: int) -> None:
    """DomainError unless n0 is a positive int, doublings an int >= 4 and
    n0 * 2^doublings <= N_CAP, the dyadic grid a sweep sums to; 2^doublings
    is never built."""
    if not isinstance(n0, int) or isinstance(n0, bool) or n0 < 1:
        raise DomainError(f"n0 must be a positive integer, got {n0!r}")
    if not isinstance(doublings, int) or isinstance(doublings, bool) or doublings < 4:
        raise DomainError(f"a sweep needs at least 4 doublings, got {doublings!r}")
    if n0 > N_CAP >> doublings:
        raise DomainError(f"n0={n0} doubled {doublings} times exceeds the cap {N_CAP}")


class ZeroRecord(namedtuple("ZeroRecord", ("index", "t", "rho", "bracket", "residual"))):
    """A refined on-line zero rho = 1/2 + i t: its 1-based index (int), t
    (float), rho (complex), bracket (lo, hi) and residual |zeta(rho)| (float)."""

    __slots__ = ()


def complex_pow_base_real(k: float, z: complex) -> complex:
    """k**(-z) for real k > 0, via exp(-z ln k) on the principal branch."""
    if k <= 0:
        raise DomainError(f"base must be positive, got {k}")
    z = complex(z)
    if k == 1.0 or z == 0:
        return 1.0 + 0.0j
    return cmath.exp(-z * math.log(k))


def log_gamma(z: complex) -> complex:
    """log Gamma(z) on the standard branch, by a 15-term Lanczos sum.

    A point with Re z < 0.5 is lifted by m = ceil(0.5 - Re z) through
    Gamma(z) = Gamma(z+m) / [z (z+1) ... (z+m-1)], which keeps the branch
    consistent for the desk-scale domain |z| <= 100 used here. A lift takes
    one step per unit of m, so m is bounded by 2^12: z with Re z < 0.5 - 2^12
    raises DomainError before any work, as does z with a NaN or infinite
    part. Raises PoleError at a non-positive integer.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"log_gamma needs a finite z, got {z}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise PoleError(f"log_gamma pole at non-positive integer z={z.real}")
    m = math.ceil(0.5 - z.real) if z.real < 0.5 else 0
    if m > _MAX_LIFT:
        raise DomainError(
            f"log_gamma needs Re z >= {0.5 - _MAX_LIFT} (a lift of at most {_MAX_LIFT} "
            f"steps), got z={z}"
        )
    shift = 0j
    for j in range(m):
        shift += cmath.log(z + j)
    w = z + m
    s = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[i] / (w - 1.0 + i)
    t = w + (_LANCZOS_G - 0.5)
    return 0.5 * LN_TWO_PI + (w - 0.5) * cmath.log(t) - t + cmath.log(s) - shift


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
    (-1)^(z/2) (2 pi)^(z-1) pi / (z-1)!, which is 0 in floats from z = 272
    on, also where (z-1)! itself passes them. Raises DomainError where the
    value overflows the floats, as it does on the real axis from about
    z = -260.2 leftwards, and where log_gamma refuses 1 - z.
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
        try:
            log_mod = (m - 1) * LN_TWO_PI + math.log(math.pi) - math.lgamma(m)
        except OverflowError:  # (m-1)! passes the floats: the value is far below them
            log_mod = -math.inf
        return complex(sign * math.exp(log_mod), 0.0)
    # first, so that log_gamma refuses a large Re z before the sine's phase overflows
    log_gamma_1mz = log_gamma(1.0 - z)
    w = 0.5 * cmath.pi * z
    try:
        if abs(z.imag) <= 100.0:
            log_sin = cmath.log(cmath.sin(w))
        else:
            sign = 1.0 if w.imag > 0 else -1.0
            log_sin = (
                -sign * 1j * w + cmath.log(sign * 0.5j) + cmath.log(1.0 - cmath.exp(2j * sign * w))
            )
        return cmath.exp(LN_2 + log_gamma_1mz + (z - 1.0) * LN_TWO_PI + log_sin)
    except (OverflowError, ValueError) as exc:
        raise DomainError(f"H_hat overflows the floats at z={z}") from exc


def bernoulli_numbers(m: int) -> tuple[float, ...]:
    """(B_2, B_4, ..., B_{2m}), exact then rounded once: B_2k = (-1)^(k-1) 2k
    T_k / (4^k (4^k - 1)), one int/int division, with the tangent numbers T_k
    by Brent and Harvey's integer recurrence (2013). m reaches 31 because a
    30-term remainder bounds its error with term 31. DomainError unless m
    is an int in [1, 31]; a bool is refused."""
    if isinstance(m, bool) or not isinstance(m, int) or not 1 <= m <= 31:
        raise DomainError(f"bernoulli depth must be an integer in [1, 31], got {m!r}")
    t = [0, *(math.factorial(k - 1) for k in range(1, m + 1))]  # (k-1)!; the sweeps make T_k
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple((-1) ** (k - 1) * 2 * k * t[k] / (4**k * (4**k - 1)) for k in range(1, m + 1))
