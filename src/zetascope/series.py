"""Finite-n zeta sums: plain, alternating, regularized, and their z-derivatives.

One function, ``_sums``, computes every partial sum: rows of z, each summed to
one or more n. Terms k**(-z) are evaluated with numpy on a fixed grid of
chunks of at most 2^12 terms, [j C + 1, (j + 1) C], for a block of rows at
once (32 rows at n = 128). Each row's six real components (zeta, xi and
zeta', real and imaginary) are summed with Sum2 of Ogita, Rump and Oishi,
"Accurate sum and dot product" (SIAM J. Sci. Comput. 26(6), 2005): a running
float sum plus the running sum of its error-free TwoSum corrections, which is
as accurate as summing in twice the working precision. A chunk takes both
running sums from the chunk before in a leading column, so one Sum2 runs over
the whole row and the sum at n is p + e at n's column, in any chunk. It
depends neither on the other n of its row nor on the other rows of its
block; a row shorter than its block is just not read past its n. Memory is
a few chunk-sized arrays at any n. Everything is a pure function of (z, n)
and safe to call concurrently. raw_sums_at reads one row at many n, as the
sweeps and claims need; zeta_partial_array reads many rows at one n each, as
the zero scan does.

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

import math
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DomainError, PoleError, SumOverflowError
from .special import complex_pow_base_real

#: hard cap on n; keeps every sum at desk scale
N_CAP = 2**24


class RawSums(NamedTuple):
    """Plain, alternating, and derivative sums sharing one pass over k."""

    zeta: complex
    xi: complex
    zeta_prime: complex | None


#: terms per summation chunk; bounds the kernel's memory at any n
_CHUNK = 2**12


def _check_n(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if n > N_CAP:
        raise DomainError(f"n={n} exceeds the configured cap {N_CAP}")


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


def _chunk_prefix_sums(
    z: np.ndarray, lo: int, hi: int, p0: np.ndarray, e0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum2 prefix sums of the terms k = lo+1..hi for each z of a 1-d array,
    carried on from the running sum ``p0`` and running error ``e0``.

    Axis 0 runs over z; axis 1 over the components of ``p0`` (2, 4 or 6):
    the real components Re/Im of zeta, xi and zeta'. Column i of the running
    sum ``p`` and of the running TwoSum error ``e`` together hold the sum
    through k = lo+i; column 0 is the carry. ``lo`` is a multiple of _CHUNK,
    so the even columns are the even k that xi subtracts.
    """
    components = p0.shape[1]
    lk = np.log(np.arange(lo + 1, hi + 1, dtype=np.float64))
    x = np.empty((z.size, components, hi - lo + 1))
    terms = x[..., 1:]
    phase = -z.imag[:, None] * lk
    np.cos(phase, out=terms[:, 0])
    np.sin(phase, out=terms[:, 1])
    terms[:, 0:2] *= np.exp(-z.real[:, None] * lk)[:, None]
    if components > 2:
        terms[:, 2:4] = terms[:, 0:2]
        terms[:, 2:4, 1::2] *= -1.0
    if components > 4:
        np.multiply(-lk, terms[:, 0:2], out=terms[:, 4:6])
    x[..., 0] = p0
    p = np.cumsum(x, axis=2)
    # TwoSum of (p[i-1], x[i]) -> p[i], in place: x becomes each add's exact
    # error (b - b_virtual) + (a - a_virtual), with one scratch array
    s, a, b = p[..., 1:], p[..., :-1], x[..., 1:]
    virtual = s - a  # b_virtual
    b -= virtual
    np.subtract(s, virtual, out=virtual)  # a_virtual
    np.subtract(a, virtual, out=virtual)
    b += virtual
    x[..., 0] = e0
    return p, np.cumsum(x, axis=2, out=x)


def _sums(z: np.ndarray, n: np.ndarray, components: int) -> np.ndarray:
    """The first ``components`` real sums of z[r] to n[r, j], as out[r, j].

    ``z`` has shape (rows,) and ``n`` shape (rows, m); each row's n may come
    in any order and repeat. Each chunk reads the entries whose n it holds
    through one mask. Raises SumOverflowError (an OverflowError) naming the
    z of the first row whose sum leaves the finite floats.
    """
    if not np.isfinite(z).all():
        raise DomainError(f"partial sums need a finite z, got {complex(z[~np.isfinite(z)][0])}")
    n_max = int(n.max(initial=1))
    if not (n.min(initial=1) >= 1 and n_max <= N_CAP):
        raise DomainError(f"each n must lie in [1, {N_CAP}], got {n.min()}..{n.max()}")
    out = np.empty((*n.shape, components))
    rows = max(1, _CHUNK // min(n_max, _CHUNK))
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, z.size, rows):
            zb, nb = z[s : s + rows], n[s : s + rows]
            top = int(nb.max())
            carry = np.zeros((2, zb.size, components))
            for lo in range(0, top, _CHUNK):
                p, e = _chunk_prefix_sums(zb, lo, min(lo + _CHUNK, top), *carry)
                r, j = np.nonzero((lo < nb) & (nb <= lo + _CHUNK))  # the n this chunk holds
                out[s + r, j] = p[r, :, nb[r, j] - lo] + e[r, :, nb[r, j] - lo]
                # copies, so the next chunk is built with this one freed
                carry = p[..., -1].copy(), e[..., -1].copy()
                del p, e
    bad = ~np.isfinite(out).all(axis=(1, 2))
    if bad.any():
        raise SumOverflowError(f"partial sum overflowed at z={complex(z[bad][0])}")
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
    ns = sorted(set(checkpoints))
    if not ns:
        raise DomainError("raw_sums_at needs at least one checkpoint")
    for n in ns:
        _check_n(n)
    components = 6 if include_derivative else 4
    v = _sums(np.array([z]), np.array([ns]), components)[0]
    return {
        n: RawSums(
            zeta=complex(s[0], s[1]),
            xi=complex(s[2], s[3]),
            zeta_prime=complex(s[4], s[5]) if include_derivative else None,
        )
        for n, s in zip(ns, v.tolist())
    }


def zeta_partial_array(z, n) -> np.ndarray:
    """Sum_{k=1..n_i} k**(-z_i) for each pair of two equal-length 1-d arrays.

    Each row's value is bit-identical to ``zeta_partial(z_i, n_i)``,
    whatever rows share its block.
    """
    z = np.asarray(z, dtype=complex)
    n = np.asarray(n, dtype=np.int64)
    if z.ndim != 1 or n.shape != z.shape:
        raise DomainError(f"z and n must be 1-d of equal length, got {z.shape} and {n.shape}")
    # each (real, imag) pair of the (rows, 1, 2) result is one complex in memory
    return _sums(z, n[:, None], 2).view(complex).reshape(z.shape)


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
