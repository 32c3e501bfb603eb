"""Finite-n zeta sums: plain, alternating, regularized, and their z-derivatives.

One function, ``_sums``, computes every partial sum: one z, summed to one or
more n in a single ascending pass. Terms k**(-z) are evaluated with numpy on
a fixed grid of chunks of at most 2^12 terms, [j C + 1, (j + 1) C]. The four
or six real components (zeta, xi and zeta', real and imaginary) are summed
with Sum2 of Ogita, Rump and Oishi, "Accurate sum and dot product" (SIAM J.
Sci. Comput. 26(6), 2005): a running float sum plus the running sum of its
error-free TwoSum corrections, which is as accurate as summing in twice the
working precision. A chunk takes both running sums from the chunk before in
a leading column, so one Sum2 runs over the whole pass and the sum at n is
p + e at n's column, in any chunk; it does not depend on the other n of the
pass. Memory is a few chunk-sized arrays at any n. Everything is a pure
function of (z, n) and safe to call concurrently. raw_sums_at reads one z at
many n, as the sweeps and claims need. The zero scan does not come here: its
short sums are plain Python (euler_maclaurin), so a scan never loads numpy.

The pass is sign-symmetric: numpy's cos is even and its sin odd, and Sum2
commutes with negation, so the sums at conj(z) are the conjugates of the
sums at z, bit for bit. On the critical line 1 - rho = conj(rho), so the
sweeps and claims read the table at 1 - rho as the conjugate of the one at
rho (functional_eq._mirror).

``_tail``, ``_hat`` and ``_hat_prime`` write the regularized sum and its
z-derivative once, over a RawSums; the quantities built from them are the
registry in functional_eq.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DomainError, PoleError, SumOverflowError
from .special import N_CAP, _check_n, complex_pow_base_real


class RawSums(NamedTuple):
    """Plain, alternating, and derivative sums sharing one pass over k."""

    zeta: complex
    xi: complex
    zeta_prime: complex | None


#: terms per summation chunk; bounds the kernel's memory at any n
_CHUNK = 2**12


def _chunk_prefix_sums(
    z: complex, lo: int, hi: int, p0: np.ndarray, e0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum2 prefix sums of the terms k = lo+1..hi, carried on from the
    running sum ``p0`` and running error ``e0``.

    Axis 0 runs over the components of ``p0`` (4 or 6): the real components
    Re/Im of zeta, xi and zeta'. Column i of the running sum ``p`` and of the
    running TwoSum error ``e`` together hold the sum through k = lo+i; column
    0 is the carry. ``lo`` is a multiple of _CHUNK, so the even columns are
    the even k that xi subtracts.
    """
    components = p0.size
    lk = np.log(np.arange(lo + 1, hi + 1, dtype=np.float64))
    x = np.empty((components, hi - lo + 1))
    terms = x[:, 1:]
    phase = -z.imag * lk
    np.cos(phase, out=terms[0])
    np.sin(phase, out=terms[1])
    terms[0:2] *= np.exp(-z.real * lk)
    terms[2:4] = terms[0:2]
    terms[2:4, 1::2] *= -1.0
    if components > 4:
        np.multiply(-lk, terms[0:2], out=terms[4:6])
    x[:, 0] = p0
    p = np.cumsum(x, axis=1)
    # TwoSum of (p[i-1], x[i]) -> p[i], in place: x becomes each add's exact
    # error (b - b_virtual) + (a - a_virtual), with one scratch array
    s, a, b = p[:, 1:], p[:, :-1], x[:, 1:]
    virtual = s - a  # b_virtual
    b -= virtual
    np.subtract(s, virtual, out=virtual)  # a_virtual
    np.subtract(a, virtual, out=virtual)
    b += virtual
    x[:, 0] = e0
    return p, np.cumsum(x, axis=1, out=x)


def _sums(z: complex, ns: np.ndarray, components: int) -> np.ndarray:
    """The first ``components`` (4 or 6) real sums of z to each n of ``ns``,
    checked positive and at most N_CAP, as out[j]. Each chunk reads the n
    it holds through one mask. Raises SumOverflowError (an OverflowError)
    if a sum leaves the finite floats.
    """
    out = np.empty((ns.size, components))
    top = int(ns.max())
    carry = np.zeros((2, components))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, top, _CHUNK):
            p, e = _chunk_prefix_sums(z, lo, min(lo + _CHUNK, top), *carry)
            j = np.nonzero((lo < ns) & (ns <= lo + _CHUNK))[0]  # the n this chunk holds
            out[j] = (p[:, ns[j] - lo] + e[:, ns[j] - lo]).T
            # copies, so the next chunk is built with this one freed
            carry = p[:, -1].copy(), e[:, -1].copy()
            del p, e
    if not np.isfinite(out).all():
        raise SumOverflowError(f"partial sum overflowed at z={z}")
    return out


def raw_sums_at(
    z: complex, checkpoints: Iterable[int], include_derivative: bool = False
) -> dict[int, RawSums]:
    """The sums at each checkpoint, from one ascending compensated pass.

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


def _pow_n(n: int, z: complex) -> complex:
    """n**(1-z) computed as n * n**(-z), exact when z = 0; raises PoleError at
    z = 1, the pole of the tail model n**(1-z)/(1-z) it is the numerator of."""
    if z == 1:
        raise PoleError("the tail term n^(1-z)/(1-z) has a pole at z=1")
    return n * complex_pow_base_real(n, z)


def _tail(z: complex, n: int) -> complex:
    """The divergent-tail model n**(1-z) / (1-z)."""
    return _pow_n(n, z) / (1.0 - z)


def _hat(sums: RawSums, z: complex, n: int) -> complex:
    """The regularized sum zeta_n(z) - n**(1-z)/(1-z) from the sums to n."""
    return sums.zeta - _tail(z, n)


def _hat_prime(sums: RawSums, z: complex, n: int) -> complex:
    """The exact z-derivative of ``_hat`` from the sums to n (with zeta')."""
    p = _pow_n(n, z)
    ln_n = math.log(n)
    return sums.zeta_prime + ln_n * p / (1.0 - z) - p / (1.0 - z) ** 2


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
