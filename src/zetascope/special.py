"""Complex elementary and special functions used by every other module.

Everything here is a pure function of its arguments: complex powers of a
positive real base, the log-gamma function, and exact Bernoulli numbers.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError, PoleError

TWO_PI = 2.0 * math.pi
LN_TWO_PI = math.log(TWO_PI)
#: the most unit steps log_gamma_array lifts an element by; bounds its work
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


def complex_pow_base_real(k: float, z: complex) -> complex:
    """k**(-z) for real k > 0, via exp(-z ln k) on the principal branch."""
    if k <= 0:
        raise DomainError(f"base must be positive, got {k}")
    z = complex(z)
    if k == 1.0 or z == 0:
        return 1.0 + 0.0j
    return cmath.exp(-z * math.log(k))


def _lanczos_log_gamma(z: np.ndarray) -> np.ndarray:
    # valid for Re z >= 0.5
    s = np.full(z.shape, _LANCZOS_C[0], dtype=complex)
    for i in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[i] / (z - 1.0 + i)
    t = z + (_LANCZOS_G - 0.5)
    return 0.5 * LN_TWO_PI + (z - 0.5) * np.log(t) - t + np.log(s)


def log_gamma_array(z) -> np.ndarray:
    """log Gamma(z) elementwise over a 1-d array, on the standard branch.

    Each element with Re z < 0.5 is lifted by its own m = ceil(0.5 - Re z)
    through Gamma(z) = Gamma(z+m) / [z (z+1) ... (z+m-1)], which keeps the
    branch consistent for the desk-scale domain |z| <= 100 used here. A lift
    takes one step per unit of m, so m is bounded by 2^12: an element with
    Re z < 0.5 - 2^12 (or an infinite one) raises DomainError before any
    work. Raises PoleError at a non-positive integer.
    """
    z = np.asarray(z, dtype=complex)
    pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
    if pole.any():
        raise PoleError(f"log_gamma pole at non-positive integer z={z.real[pole][0]}")
    lift = np.where(z.real < 0.5, np.ceil(0.5 - z.real), 0.0)
    far = lift > _MAX_LIFT
    if far.any():
        raise DomainError(
            f"log_gamma needs Re z >= {0.5 - _MAX_LIFT} (a lift of at most {_MAX_LIFT} "
            f"steps), got z={z[far][0]}"
        )
    m = lift.astype(np.int64)
    shift = np.zeros(z.shape, dtype=complex)
    for j in range(int(m.max(initial=0))):
        lifted = j < m
        shift[lifted] += np.log(z[lifted] + j)
    return _lanczos_log_gamma(z + m) - shift


def log_gamma(z: complex) -> complex:
    """log Gamma(z) at one point; see log_gamma_array."""
    return complex(log_gamma_array([complex(z)])[0])


@lru_cache(maxsize=None)
def _bernoulli_fractions(count: int) -> tuple[Fraction, ...]:
    # B_0 .. B_count via the exact recurrence
    # sum_{k=0}^{j} C(j+1, k) B_k = 0  (j >= 1), B_1 = -1/2 convention.
    b = [Fraction(1)]
    for j in range(1, count + 1):
        s = sum(Fraction(math.comb(j + 1, k)) * b[k] for k in range(j))
        b.append(-s / (j + 1))
    return tuple(b)


def bernoulli_numbers(m: int) -> tuple[float, ...]:
    """(B_2, B_4, ..., B_{2m}), exact over the rationals then rounded once. m
    reaches 31 because a 30-term remainder bounds its error with term 31."""
    if not isinstance(m, int) or not 1 <= m <= 31:
        raise ConfigError(f"bernoulli depth must be an integer in [1, 31], got {m}")
    b = _bernoulli_fractions(2 * m)
    return tuple(float(b[2 * k]) for k in range(1, m + 1))
