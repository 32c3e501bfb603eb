"""The Euler-Maclaurin expansion, written once, and a reference zeta value.

zeta(z) = zeta_n(z) - n^(1-z)/(1-z) - n^(-z)/2 + R_n(z) (Edwards, "Riemann's
Zeta Function", ch. 6): _leading_terms writes the tail and boundary terms and
their z-derivatives, remainder_with_bound the Bernoulli remainder R_n(z), and
zeta_hat_reference adds them up, a regularized zeta value in Re z > 0. The
Hardy-Littlewood window |Im z| <= 2 pi n / C that gates the last two is written
once, as ``max_im``; the convergence sweeps read it too. N_BASE, WINDOW_C and
TARGET_REL_ERROR, the reference's least n, the window's C and the
remainder's relative target, are constants: only remainder_with_bound takes
the remainder's depth as an argument.

All three are plain math/cmath code at one z: the zero scan calls them a few
hundred times on sums of at most a few hundred terms, where numpy's per-call
cost would outweigh the sums, and a process that only scans never loads
numpy. The reference's partial sum computes each term k^(-z) once, in
chunks of _CHUNK terms, and sums each part by math.fsum: up to _CHUNK terms
that is one correctly rounded fsum per part, and past it the chunks' fsums
are summed by one more. Memory stays at one chunk at any n, and n is
refused past N_CAP, so no z can start an unbounded sum.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from operator import mul

from .errors import DomainError, NumericalError
from .special import N_CAP, TWO_PI, _check_n, bernoulli_numbers, complex_pow_base_real

#: terms per chunk of the reference's partial sum; bounds its memory at any n
_CHUNK = 2**12


#: the reference's least n: it sums at least this many terms at any |Im z|
N_BASE = 50

#: C of the Hardy-Littlewood window |Im z| <= 2 pi n / C (Edwards, ch. 6)
WINDOW_C = 2.0

#: the remainder returns once its last term is at most this share of its sum
TARGET_REL_ERROR = 1e-12


def max_im(n: int) -> float:
    """The largest |Im z| of the validity window at n: 2 pi n / C."""
    return TWO_PI * n / WINDOW_C


def reference_n(im: float) -> int:
    """The n the reference evaluator sums to at |Im z| = |im|: the
    window met with a 4x margin, at least N_BASE. DomainError, before the
    rounding up, if that passes N_CAP (as it does for an infinite im)."""
    n = 4.0 * WINDOW_C * abs(im) / TWO_PI
    if not n <= N_CAP:
        raise DomainError(f"n={n:g} exceeds the cap {N_CAP}")
    return max(N_BASE, math.ceil(n))


class RemainderResult(namedtuple("RemainderResult", ("value", "bound", "terms_used"))):
    """Truncated Bernoulli remainder (complex) plus the modulus of the first
    omitted term (float) and the number of terms added (int)."""

    __slots__ = ()


#: B_2k / (2k)! for k = 1 .. 31: a depth-30 sum's bound reads term 31
_COEFFICIENTS = tuple(
    b / math.factorial(2 * k) for k, b in enumerate(bernoulli_numbers(31), start=1)
)


class _Leading(
    namedtuple(
        "_Leading",
        ("boundary", "tail", "tail_prime_log", "tail_prime_pole", "boundary_prime",
         "bernoulli_prime_mod"),
        defaults=(None,) * 5,
    )
):
    """The expansion's terms before R_n at (z, n); see _leading_terms.

    boundary             n^(-z)/2
    tail                 n^(1-z)/(1-z), computed as n * n^(-z) / (1-z)
    tail_prime_log       -(ln n) n^(1-z)/(1-z)
    tail_prime_pole      n^(1-z)/(1-z)^2
    boundary_prime       -(ln n) n^(-z)/2
    bernoulli_prime_mod  |d/dz z n^(-z-1)/12| = |n^(-z-1) (1 - z ln n)|/12, a float

    Every field but the boundary is None unless _leading_terms computed it.
    """

    __slots__ = ()


def _leading_terms(z: complex, n: int, derivative: bool = False, tail: bool = True) -> _Leading:
    """The boundary term at (z, n), the tail unless ``tail`` is False, and
    with ``derivative`` the z-derivatives; tail' comes in two parts so that
    ``series._hat_prime`` keeps its operation order. DomainError at z = 1, the
    tail's pole, unless ``tail`` is False."""
    pow_neg = complex_pow_base_real(n, z)
    if not tail:
        return _Leading(0.5 * pow_neg)
    if z == 1:
        raise DomainError("the tail term n^(1-z)/(1-z) has a pole at z=1")
    p = n * pow_neg
    if not derivative:
        return _Leading(0.5 * pow_neg, p / (1.0 - z))
    ln_n = math.log(n)
    return _Leading(
        0.5 * pow_neg, p / (1.0 - z), -(ln_n * p / (1.0 - z)), p / (1.0 - z) ** 2,
        -(0.5 * ln_n * pow_neg), abs(pow_neg / n * (1.0 - z * ln_n)) / 12.0,
    )


def remainder_with_bound(z: complex, n: int, *, depth: int = 10) -> RemainderResult:
    """R_n(z) = sum_k B_{2k}/(2k)! (z)(z+1)...(z+2k-2) n^(1-z-2k), truncated.

    Terms are added while they keep shrinking, up to ``depth`` of them; the
    sum returns once the last term added is at most TARGET_REL_ERROR of it.
    The reported bound is the modulus of the first term not added (standard
    practice for a divergent asymptotic series). A term whose modulus does
    not shrink, or term depth + 1, stops the sum unadded. Raises DomainError
    unless depth is an int in [1, 30] (a bool is refused), for an n
    _check_n refuses, unless 0 < Re z < inf, and outside the validity
    window; and NumericalError if the series grows. Growth is read from the
    exact ratio of the terms, c_k / c_(k-1) (z+2k-3)(z+2k-2) / n^2, not from
    their rounded moduli: a term whose power of n is a subnormal of a few
    units can round up past the one before it while the series shrinks.
    """
    if isinstance(depth, bool) or not isinstance(depth, int):
        raise DomainError(f"depth must be an integer, got {depth!r}")
    if not 1 <= depth <= 30:
        raise DomainError(f"depth must be in [1, 30], got {depth}")
    _check_n(n)
    z = complex(z)
    if not z.real > 0:
        raise DomainError(f"remainder requires Re z > 0, got {z}")
    if not abs(z.imag) <= max_im(n):
        raise DomainError(
            f"|Im z|={abs(z.imag):.6g} exceeds the window 2*pi*{n}/{WINDOW_C}"
        )
    if z.real == math.inf:  # each term would be nan
        raise DomainError(f"remainder needs a finite z, got {z}")
    coeff = _COEFFICIENTS
    ln_n = math.log(n)
    acc, poch, prev, k = 0j, z, math.inf, 1
    while True:
        term = coeff[k - 1] * poch * cmath.exp(-(z + (2 * k - 1)) * ln_n)
        mod = abs(term)
        if mod >= prev or k > depth:
            # prev > TARGET_REL_ERROR * |acc| here, so a growing term is past the target
            if mod >= prev and abs(
                coeff[k - 1] / coeff[k - 2] * (z + (2 * k - 3)) * (z + (2 * k - 2))
            ) >= n * n:
                raise NumericalError(f"remainder series diverges at k={k} with bound {mod:.3e}")
            return RemainderResult(value=acc, bound=mod, terms_used=k - 1)
        acc += term
        if mod <= TARGET_REL_ERROR * abs(acc):
            return RemainderResult(value=acc, bound=mod, terms_used=k)
        prev = mod
        poch *= (z + (2 * k - 1)) * (z + 2 * k)
        k += 1


def remainder(z: complex, n: int) -> complex:
    """Truncated Bernoulli remainder R_n(z) at the default depth, 10; see
    remainder_with_bound."""
    return remainder_with_bound(z, n).value


#: ln k and k^(-1/2) at index k - 1, for k up to the largest n the first
#: chunk has needed (at most _CHUNK); grown by _first_chunk_tables
_LOGS: list[float] = []
_HALF_POWERS: list[float] = []


def _first_chunk_tables(m: int) -> None:
    """Grow _LOGS and _HALF_POWERS to k = m."""
    have = len(_LOGS)
    if have < m:
        logs = list(map(math.log, range(have + 1, m + 1)))
        _LOGS.extend(logs)
        _HALF_POWERS.extend(map(math.exp, map((-0.5).__mul__, logs)))


def _partial_sum(z: complex, n: int) -> complex:
    """sum_{k=1..n} k^(-z) for a finite z with Re z > 0: each term once,
    each part one math.fsum per chunk of _CHUNK terms, and the chunks'
    fsums fsummed.

    A term is exp(-sigma ln k) (cos(-t ln k), sin(-t ln k)), which is how
    cmath.exp evaluates exp(-z ln k) for Re z > 0, so the real-valued
    form is bit for bit the complex one. The first chunk reads ln k, and on
    the critical line also k^(-1/2), from tables shared by every call."""
    minus_sigma, minus_t = -z.real, -z.imag
    re, im = [], []
    for lo in range(1, n + 1, _CHUNK):
        hi = min(lo + _CHUNK, n + 1)
        if lo == 1:
            _first_chunk_tables(hi - 1)
            logs = _LOGS[: hi - 1]
        else:
            logs = list(map(math.log, range(lo, hi)))
        if lo == 1 and minus_sigma == -0.5:
            amps = _HALF_POWERS[: hi - 1]
        else:
            amps = list(map(math.exp, map(minus_sigma.__mul__, logs)))
        phases = list(map(minus_t.__mul__, logs))
        re.append(math.fsum(map(mul, amps, map(math.cos, phases))))
        im.append(math.fsum(map(mul, amps, map(math.sin, phases))))
    return complex(math.fsum(re), math.fsum(im))


def zeta_hat_reference(z: complex) -> complex:
    """High-accuracy regularized zeta value in Re z > 0, z != 1.

    Evaluates zeta_n(z) - n^(1-z)/(1-z) - 1/(2 n^z) + R_n(z) at n =
    reference_n(Im z), with R_n at its default depth; the result is
    n-independent up to TARGET_REL_ERROR, 1e-12. In the strip this equals
    the analytic continuation of zeta. Raises DomainError at the pole z = 1
    and, before any sum, if n exceeds N_CAP. The remainder cannot diverge
    at that n (DESIGN.md, "The reference sums once").
    """
    z = complex(z)
    if not (cmath.isfinite(z) and z.real > 0):
        raise DomainError(
            f"reference evaluator requires a finite z with Re z > 0, got {z}"
        )
    if z == 1:
        raise DomainError("zeta has its pole at z=1")
    n = reference_n(z.imag)
    rem = remainder_with_bound(z, n).value
    lead = _leading_terms(z, n)
    return _partial_sum(z, n) - lead.tail - lead.boundary + rem
