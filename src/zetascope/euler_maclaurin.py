"""The Euler-Maclaurin expansion, written once, and a reference zeta value.

zeta(z) = zeta_n(z) - n^(1-z)/(1-z) - n^(-z)/2 + R_n(z) (Edwards, "Riemann's
Zeta Function", ch. 6): _leading_terms writes the tail and boundary terms and
their z-derivatives, remainder_with_bound the Bernoulli remainder R_n(z), and
zeta_hat_reference adds them up, a regularized zeta value in Re z > 0. The
Hardy-Littlewood window |Im z| <= 2 pi n / C that gates the last two is written
once, as ``max_im``; the convergence sweeps read it too. N_BASE and WINDOW_C,
the reference's least n and the window's C, are constants: only
remainder_with_bound takes the remainder's depth and target as arguments.

All three are plain math/cmath code at one z: the zero scan calls them a few
hundred times on sums of at most a few hundred terms, where numpy's per-call
cost would outweigh the sums, and a process that only scans never loads
numpy. The reference's partial sum computes each term k^(-z) once, in
chunks of _CHUNK terms, and sums each part by math.fsum: up to _CHUNK terms
that is one correctly rounded fsum per part, and past it the chunks' fsums
are summed by one more. Memory stays at one chunk at any n, and the start n
is refused past N_CAP, so no z can start an unbounded sum.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from operator import mul

from .errors import DomainError, PoleError, PrecisionNotReachedError
from .special import N_CAP, TWO_PI, bernoulli_numbers, complex_pow_base_real

#: terms per chunk of the reference's partial sum; bounds its memory at any n
_CHUNK = 2**12


#: the reference's least n: it sums at least this many terms at any |Im z|
N_BASE = 50

#: C of the Hardy-Littlewood window |Im z| <= 2 pi n / C (Edwards, ch. 6)
WINDOW_C = 2.0


def max_im(n: int) -> float:
    """The largest |Im z| of the validity window at n: 2 pi n / C."""
    return TWO_PI * n / WINDOW_C


def reference_n(im: float) -> int:
    """The n the reference evaluator starts from at |Im z| = |im|: the
    window met with a 4x margin, at least N_BASE. DomainError, before the
    rounding up, if that passes N_CAP (as it does for an infinite im)."""
    n = 4.0 * WINDOW_C * abs(im) / TWO_PI
    if not n <= N_CAP:
        raise DomainError(f"n={n:g} exceeds the cap {N_CAP}")
    return max(N_BASE, math.ceil(n))


def _check_truncation(depth: int, target_rel_error: float) -> None:
    """DomainError unless depth is an int in [1, 30] and target_rel_error a
    positive, finite int or float; a bool, though Python counts it an int,
    is refused."""
    if isinstance(depth, bool) or not isinstance(depth, int):
        raise DomainError(f"depth must be an integer, got {depth!r}")
    if isinstance(target_rel_error, bool) or not isinstance(target_rel_error, (int, float)):
        raise DomainError(f"target_rel_error must be a number, got {target_rel_error!r}")
    if not 1 <= depth <= 30:
        raise DomainError(f"depth must be in [1, 30], got {depth}")
    if not 0 < target_rel_error < math.inf:
        raise DomainError(
            f"target_rel_error must be positive and finite, got {target_rel_error}"
        )


class RemainderResult(namedtuple("RemainderResult", ("value", "bound", "terms_used"))):
    """Truncated Bernoulli remainder (complex) plus the modulus of the first
    omitted term (float) and the number of terms added (int)."""

    __slots__ = ()


#: depth -> B_2k / (2k)! for k = 1 .. depth + 1; at most 30 entries (the depth range)
_COEFFICIENTS: dict[int, tuple[float, ...]] = {}


def _coefficients(depth: int) -> tuple[float, ...]:
    """B_2k / (2k)! for k = 1 .. depth + 1: the bound reads one term past depth."""
    if depth not in _COEFFICIENTS:
        b2k = bernoulli_numbers(depth + 1)
        _COEFFICIENTS[depth] = tuple(b / math.factorial(2 * k) for k, b in enumerate(b2k, start=1))
    return _COEFFICIENTS[depth]


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
    ``series._hat_prime`` keeps its operation order. PoleError at z = 1, the
    tail's pole, unless ``tail`` is False."""
    pow_neg = complex_pow_base_real(n, z)
    if not tail:
        return _Leading(0.5 * pow_neg)
    if z == 1:
        raise PoleError("the tail term n^(1-z)/(1-z) has a pole at z=1")
    p = n * pow_neg
    if not derivative:
        return _Leading(0.5 * pow_neg, p / (1.0 - z))
    ln_n = math.log(n)
    return _Leading(
        0.5 * pow_neg, p / (1.0 - z), -(ln_n * p / (1.0 - z)), p / (1.0 - z) ** 2,
        -(0.5 * ln_n * pow_neg), abs(pow_neg / n * (1.0 - z * ln_n)) / 12.0,
    )


def remainder_with_bound(
    z: complex, n: int, *, depth: int = 10, target_rel_error: float = 1e-12
) -> RemainderResult:
    """R_n(z) = sum_k B_{2k}/(2k)! (z)(z+1)...(z+2k-2) n^(1-z-2k), truncated.

    Terms are added while they keep shrinking and stay above the relative
    target_rel_error; the reported bound is the modulus of the first term
    not added (standard practice for a divergent asymptotic series). A term
    that does not shrink, or term depth + 1, stops the sum unadded. Raises
    DomainError for a depth or target _check_truncation refuses, unless
    0 < Re z < inf, and outside the validity window; and
    PrecisionNotReachedError, carrying the partial value and its bound, if
    the series starts growing before the target accuracy is met.
    """
    _check_truncation(depth, target_rel_error)
    z = complex(z)
    if not z.real > 0:
        raise DomainError(f"remainder requires Re z > 0, got {z}")
    if not abs(z.imag) <= max_im(n):
        raise DomainError(
            f"|Im z|={abs(z.imag):.6g} exceeds the window 2*pi*{n}/{WINDOW_C}"
        )
    if z.real == math.inf:  # each term would be nan
        raise DomainError(f"remainder needs a finite z, got {z}")
    coeff = _coefficients(depth)
    ln_n = math.log(n)
    acc, poch, prev, k = 0j, z, math.inf, 1
    while True:
        term = coeff[k - 1] * poch * cmath.exp(-(z + (2 * k - 1)) * ln_n)
        mod = abs(term)
        if mod >= prev or k > depth:
            if mod >= prev and mod > target_rel_error * abs(acc):
                raise PrecisionNotReachedError(
                    f"remainder series diverges at k={k} with bound {mod:.3e}",
                    value=acc,
                    bound=mod,
                )
            return RemainderResult(value=acc, bound=mod, terms_used=k - 1)
        acc += term
        if mod <= target_rel_error * abs(acc):
            return RemainderResult(value=acc, bound=mod, terms_used=k)
        prev = mod
        poch *= (z + (2 * k - 1)) * (z + 2 * k)
        k += 1


def remainder(z: complex, n: int) -> complex:
    """Truncated Bernoulli remainder R_n(z); see remainder_with_bound."""
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
    reference_n(Im z); the result is n-independent up to the remainder's
    default target, 1e-12. In the strip this equals the analytic
    continuation of zeta. Where the remainder diverges, n is doubled, up to
    N_CAP. Raises DomainError, before any sum, if the start n (reference_n)
    exceeds N_CAP.
    """
    z = complex(z)
    if not (cmath.isfinite(z) and z.real > 0):
        raise DomainError(
            f"reference evaluator requires a finite z with Re z > 0, got {z}"
        )
    if z == 1:
        raise PoleError("zeta has its pole at z=1")
    n = reference_n(z.imag)
    while True:
        try:
            rem = remainder_with_bound(z, n).value
            break
        except PrecisionNotReachedError:
            if 2 * n > N_CAP:
                raise
            n *= 2
    lead = _leading_terms(z, n)
    return _partial_sum(z, n) - lead.tail - lead.boundary + rem
