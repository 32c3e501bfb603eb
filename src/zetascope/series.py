"""Finite-n zeta sums: plain, alternating, regularized, and their z-derivatives.

One function, ``_sums``, computes every partial sum: one z, summed to one or
more n in a single ascending pass. Terms k**(-z) are evaluated with numpy on
a fixed grid of chunks of 2^12 terms, [j C + 1, (j + 1) C]; the last chunk
is evaluated whole even where the pass stops inside it. Each chunk holds the
real and imaginary parts of zeta's terms (and of zeta''s), odd k first, then
even k, so xi, the alternating sum, is the odd half minus the even half.

A chunk is summed by error-free extraction (Rump, Ogita and Oishi, "Accurate
floating-point summation part I: faithful rounding", SIAM J. Sci. Comput.
31(1), 2008). Each row is split as x = q + r without error: q = fl(x + sigma)
- sigma with sigma = 1.5 * 2**e, 2**e at least 2 (C + 2) times the row's
largest |x| over the whole fixed chunk. The q are multiples of one ulp, so
every sum of them is exact in any order; the small r are summed in one fixed
order per n. The chunk's sum to n joins the pass's total so far, carried
from chunk to chunk as a double-double (TwoSum). Beyond its last rounding
the sum errs by less than 2^-74 of each chunk's largest term, which is
within 1 ulp of the correctly rounded sum unless the terms cancel to below
about 2^-20 of those terms. Nothing in the sum at n depends on the other n of
the pass: sigma comes from the fixed chunk, not from where the pass stops.
Memory is a few chunk-sized arrays at any n. Everything is a pure function
of (z, n) and safe to call concurrently. raw_sums_at reads one z at many n,
as the sweeps and claims need. The zero scan does not come here: its short
sums are plain Python (euler_maclaurin), so a scan never loads numpy.

The pass is sign-symmetric: numpy's cos is even and its sin odd, a row and
its negation get the same sigma, fl(x + sigma) rounds every x of the row on
one grid, to nearest with ties to even, which is odd-symmetric, and float
addition commutes with negation. So the sums at conj(z) are the conjugates
of the sums at z, bit for bit (up to the sign of an exact zero). On the
critical line 1 - rho = conj(rho), so the sweeps and claims read the table
at 1 - rho as the conjugate of the one at rho (functional_eq._mirror).

``_hat`` and ``_hat_prime`` give the regularized sum and its z-derivative
over a RawSums, with the tail read from ``euler_maclaurin._leading_terms``;
the quantities built from them are the registry in functional_eq.
"""

from __future__ import annotations

import cmath
from collections import namedtuple
from collections.abc import Iterable

import numpy as np

from .errors import DomainError, SumOverflowError
from .euler_maclaurin import _leading_terms
from .special import N_CAP, _check_n


class RawSums(namedtuple("RawSums", ("zeta", "xi", "zeta_prime"))):
    """Plain, alternating, and derivative sums sharing one pass over k; each
    complex, zeta_prime None where the pass left the derivative out."""

    __slots__ = ()


#: terms per summation chunk; bounds the kernel's memory at any n
_CHUNK = 2**12
#: 2**_HEADROOM >= 2 (_CHUNK + 2), the extraction constant's margin over a row's max
_HEADROOM = 14


def _chunk_terms(z: complex, lo: int, x: np.ndarray) -> None:
    """Write the terms k = lo+1..lo+_CHUNK of a fixed chunk into ``x``: the
    odd k in the first half of the columns, then the even k, one row per
    real component of zeta and (with four rows) of zeta'. ``lo`` is a
    multiple of _CHUNK. xi needs no rows: it is the odd half minus the even.
    """
    k = np.arange(lo + 1, lo + _CHUNK + 1, dtype=np.float64).reshape(-1, 2).T.ravel()
    lk = np.log(k)
    phase = -z.imag * lk
    np.cos(phase, out=x[0])
    np.sin(phase, out=x[1])
    x[0:2] *= np.exp(-z.real * lk)
    if x.shape[0] > 2:
        np.multiply(-lk, x[0:2], out=x[2:4])


def _halves(y: np.ndarray, cuts: list[int]) -> np.ndarray:
    """y's rows summed over the odd k and over the even k up to each cut c,
    as [odd or even, row, cut]; a function of c alone, in a fixed order."""
    half = _CHUNK // 2
    return np.array(
        [[y[:, : (c + 1) // 2].sum(axis=1), y[:, half : half + c // 2].sum(axis=1)] for c in cuts]
    ).transpose(1, 2, 0)


def _components(halves: np.ndarray) -> np.ndarray:
    """The components (zeta, xi, then zeta') of sums by halves, per cut:
    zeta and zeta' add the halves, xi subtracts the even from the odd."""
    odd, even = halves
    plain = odd + even
    return np.concatenate((plain[:2], odd[:2] - even[:2], plain[2:]))


def _chunk_sums(
    x: np.ndarray, q: np.ndarray, cuts: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The chunk ``x`` of _chunk_terms summed to each c of ``cuts``
    (increasing, the last _CHUNK) as (component, cut) arrays of an exact
    part and a small rest. ``x`` and ``q``, of one shape, are overwritten.

    Error-free extraction: with sigma = 1.5 * 2**e and 2**e >= 2 (_CHUNK + 2)
    max|x| over the row, q = fl(x + sigma) - sigma is x rounded to a multiple
    of ulp(sigma), and r = x - q is exact. Any sum of a row's q, with any
    signs, is exact, so the q are summed in any order; the r, each at most
    ulp(sigma) / 2, are summed in one fixed order per cut. A row whose sigma
    would overflow is scaled by an exact power of two.
    """
    e = np.frexp(np.maximum(x.max(axis=1), -x.min(axis=1)))[1] + _HEADROOM
    scale = np.maximum(e - 1023, 0)[:, None]
    if scale.any():
        np.ldexp(x, -scale, out=x)
    # row by row: a scalar sigma takes numpy's fast path, a broadcast column does not
    for row, q_row, sigma in zip(x, q, np.ldexp(1.5, e - scale[:, 0]).tolist()):
        np.add(row, sigma, out=q_row)
        q_row -= sigma
        row -= q_row
    exact, rest = _halves(q, cuts), _halves(x, cuts)
    if scale.any():
        exact, rest = np.ldexp(exact, scale), np.ldexp(rest, scale)
    return _components(exact), _components(rest)


def _sums(z: complex, ns: np.ndarray, components: int) -> np.ndarray:
    """The first ``components`` (4 or 6) real sums of z to each n of ``ns``,
    sorted, unique, positive and at most N_CAP, as out[j]. Each chunk is
    summed at the n it holds and at its end, and its end carries the pass
    into the next chunk as a double-double. Raises SumOverflowError (an
    OverflowError) if a sum leaves the finite floats.
    """
    out = np.empty((ns.size, components))
    top = int(ns.max())
    carry, carry_err = np.zeros((2, components, 1))
    # one chunk's terms (then their rests) and rounded parts, reused by every
    # chunk: a fresh array costs more in page faults than the sums over it
    x, q = np.empty((2, components - 2, _CHUNK))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, top, _CHUNK):
            j = np.nonzero((lo < ns) & (ns <= lo + _CHUNK))[0]  # the n this chunk holds
            cuts = (ns[j] - lo).tolist()
            if not cuts or cuts[-1] != _CHUNK:
                cuts.append(_CHUNK)
            _chunk_terms(z, lo, x)
            exact, rest = _chunk_sums(x, q, cuts)
            # TwoSum(carry, exact), then the small parts in one fixed order
            s = carry + exact
            virtual = s - carry
            small = ((carry - (s - virtual)) + (exact - virtual)) + (carry_err + rest)
            total = s + small
            out[j] = total[:, : j.size].T
            s, small, carry = s[:, -1:], small[:, -1:], total[:, -1:]
            virtual = carry - s
            carry_err = (s - (carry - virtual)) + (small - virtual)
    if not np.isfinite(out).all():
        raise SumOverflowError(f"partial sum overflowed at z={z}")
    return out


def raw_sums_at(
    z: complex, checkpoints: Iterable[int], include_derivative: bool = False
) -> dict[int, RawSums]:
    """The sums at each checkpoint, from one ascending pass.

    ``checkpoints`` must be positive integers; they are deduplicated and
    visited in increasing order. Raises SumOverflowError (an OverflowError)
    if a sum leaves the finite floats.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"partial sums need a finite z, got {z}")
    ns = sorted(set(checkpoints))
    if not ns:
        raise DomainError("raw_sums_at needs at least one checkpoint")
    for n in ns:
        _check_n(n)
    components = 6 if include_derivative else 4
    v = _sums(z, np.array(ns), components)
    return {
        n: RawSums(
            zeta=complex(s[0], s[1]),
            xi=complex(s[2], s[3]),
            zeta_prime=complex(s[4], s[5]) if include_derivative else None,
        )
        for n, s in zip(ns, v.tolist())
    }


def _hat(sums: RawSums, z: complex, n: int) -> complex:
    """The regularized sum zeta_n(z) - n**(1-z)/(1-z) from the sums to n."""
    return sums.zeta - _leading_terms(z, n).tail


def _hat_prime(sums: RawSums, z: complex, n: int) -> complex:
    """The exact z-derivative of ``_hat`` from the sums to n (with zeta')."""
    lead = _leading_terms(z, n, derivative=True)
    return sums.zeta_prime - lead.tail_prime_log - lead.tail_prime_pole


def zeta_partial(z: complex, n: int) -> complex:
    """Sum_{k=1..n} k**(-z)."""
    return raw_sums_at(z, (n,))[n].zeta


def xi_partial(z: complex, n: int) -> complex:
    """Alternating sum_{k=1..n} (-1)**(k-1) k**(-z)."""
    return raw_sums_at(z, (n,))[n].xi


def zeta_hat_partial(z: complex, n: int) -> complex:
    """Regularized partial sum: zeta_partial(z, n) - n**(1-z)/(1-z)."""
    return _hat(raw_sums_at(z, (n,))[n], z, n)


def zeta_partial_derivative(z: complex, n: int) -> complex:
    """Term-wise z-derivative: -sum_{k=1..n} ln(k) k**(-z)."""
    return raw_sums_at(z, (n,), include_derivative=True)[n].zeta_prime


def zeta_hat_partial_derivative(z: complex, n: int) -> complex:
    """Exact z-derivative of the regularized partial sum."""
    return _hat_prime(raw_sums_at(z, (n,), include_derivative=True)[n], z, n)
