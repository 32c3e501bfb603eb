"""Finite-n zeta sums: plain, alternating, regularized, and their z-derivatives.

Terms k**(-z) are evaluated with numpy on a fixed grid of chunks of at most
2^12 terms, [j C + 1, (j + 1) C], the last one cut short at the largest
checkpoint. Each chunk sums its six real components (zeta, xi and zeta',
real and imaginary) with Sum2 of Ogita, Rump and Oishi, "Accurate sum and
dot product" (SIAM J. Sci. Comput. 26(6), 2005): a running float sum plus
the running sum of its error-free TwoSum corrections, which is as accurate
as summing in twice the working precision. A snapshot at a checkpoint joins
the completed chunks and the current chunk's prefix with ``math.fsum``,
which is correctly rounded, so the value at n does not depend on which other
checkpoints share the pass. Memory is a few chunk-sized arrays at any n.
Everything is a pure function of (z, n) and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DomainError, PoleError
from .special import complex_pow_base_real

#: hard cap on n; keeps every sum at desk scale
N_CAP = 2**24


class SeriesKind(Enum):
    ZETA_N = "zeta_n"
    XI_N = "xi_n"
    ZETA_HAT_N = "zeta_hat_n"
    ZETA_N_PRIME = "zeta_n_prime"
    ZETA_HAT_N_PRIME = "zeta_hat_n_prime"


@dataclass(frozen=True)
class SeriesEvaluation:
    """Value of one named finite sum at (z, n)."""

    kind: SeriesKind
    z: complex
    n: int
    value: complex


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


def _chunk_prefix_sums(
    z: complex, lo: int, hi: int, include_derivative: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Sum2 prefix sums of the terms k = lo+1..hi, one row per real component.

    Rows are Re/Im of zeta, xi and (optionally) zeta'. Column i of the
    running sum ``p`` and of the running TwoSum error ``e`` together hold
    the row's sum through k = lo+1+i. ``lo`` is a multiple of _CHUNK, so the
    odd columns are the even k that xi subtracts.
    """
    lk = np.log(np.arange(lo + 1, hi + 1, dtype=np.float64))
    mag = np.exp(-z.real * lk)
    phase = -z.imag * lk
    x = np.empty((6 if include_derivative else 4, hi - lo))
    np.multiply(mag, np.cos(phase), out=x[0])
    np.multiply(mag, np.sin(phase), out=x[1])
    x[2:4] = x[0:2]
    x[2:4, 1::2] *= -1.0
    if include_derivative:
        np.multiply(-lk, x[0:2], out=x[4:6])
    p = np.cumsum(x, axis=1)
    # TwoSum of (p[i-1], x[i]) -> p[i], in place: x becomes each add's exact error
    s, a, b = p[:, 1:], p[:, :-1], x[:, 1:]
    b_virtual = s - a
    a_virtual = s - b_virtual
    np.subtract(a, a_virtual, out=a_virtual)
    b -= b_virtual
    b += a_virtual
    x[:, 0] = 0.0
    return p, np.cumsum(x, axis=1)


def _snapshot(
    z: complex, done: list[list[float]], p: np.ndarray, e: np.ndarray
) -> RawSums:
    """Correctly rounded join of the completed chunks and one prefix column."""
    try:
        v = [
            math.fsum([*row, pi, ei])
            for row, pi, ei in zip(done, p.tolist(), e.tolist())
        ]
    except (OverflowError, ValueError):  # intermediate overflow or inf - inf
        v = [math.inf]
    if not all(map(math.isfinite, v)):
        raise OverflowError(f"partial sum overflowed at z={z}")
    return RawSums(
        zeta=complex(v[0], v[1]),
        xi=complex(v[2], v[3]),
        zeta_prime=complex(v[4], v[5]) if len(v) == 6 else None,
    )


def raw_sums_at(
    z: complex, checkpoints: Iterable[int], include_derivative: bool = False
) -> dict[int, RawSums]:
    """One ascending compensated pass, snapshotting the sums at each checkpoint.

    ``checkpoints`` must be positive integers; they are deduplicated and
    visited in increasing order. Raises OverflowError if a sum leaves the
    finite floats.
    """
    z = complex(z)
    ns = sorted(set(checkpoints))
    if not ns:
        raise DomainError("raw_sums_at needs at least one checkpoint")
    for n in ns:
        _check_n(n)
    out: dict[int, RawSums] = {}
    done: list[list[float]] = [[] for _ in range(6 if include_derivative else 4)]
    pending = iter(ns)
    next_cp = next(pending)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, ns[-1], _CHUNK):
            hi = min(lo + _CHUNK, ns[-1])
            p, e = _chunk_prefix_sums(z, lo, hi, include_derivative)
            while next_cp is not None and next_cp <= hi:
                i = next_cp - lo - 1
                out[next_cp] = _snapshot(z, done, p[:, i], e[:, i])
                next_cp = next(pending, None)
            for row, pj, ej in zip(done, p[:, -1].tolist(), e[:, -1].tolist()):
                row += (pj, ej)
    return out


def _pow_n(n: int, z: complex) -> complex:
    """n**(1-z) computed as n * n**(-z); exact when z = 0."""
    return n * complex_pow_base_real(n, z)


def _tail(z: complex, n: int) -> complex:
    """The divergent-tail model n**(1-z) / (1-z)."""
    if z == 1:
        raise PoleError("the tail term n^(1-z)/(1-z) has a pole at z=1")
    return _pow_n(n, z) / (1.0 - z)


def zeta_partial(z: complex, n: int) -> complex:
    """Sum_{k=1..n} k**(-z)."""
    return raw_sums_at(z, (n,))[n].zeta


def xi_partial(z: complex, n: int) -> complex:
    """Alternating sum_{k=1..n} (-1)**(k-1) k**(-z)."""
    return raw_sums_at(z, (n,))[n].xi


def zeta_hat_partial(z: complex, n: int) -> complex:
    """Regularized partial sum: zeta_partial(z, n) - n**(1-z)/(1-z)."""
    return zeta_partial(z, n) - _tail(z, n)


def zeta_partial_derivative(z: complex, n: int) -> complex:
    """Term-wise z-derivative: -sum_{k=1..n} ln(k) k**(-z)."""
    return raw_sums_at(z, (n,), include_derivative=True)[n].zeta_prime


def zeta_hat_partial_derivative(z: complex, n: int) -> complex:
    """Exact z-derivative of the regularized partial sum."""
    if z == 1:
        raise PoleError("the tail term n^(1-z)/(1-z) has a pole at z=1")
    p = _pow_n(n, z)
    ln_n = math.log(n)
    return (
        zeta_partial_derivative(z, n)
        + ln_n * p / (1.0 - z)
        - p / (1.0 - z) ** 2
    )


_DISPATCH = {
    SeriesKind.ZETA_N: zeta_partial,
    SeriesKind.XI_N: xi_partial,
    SeriesKind.ZETA_HAT_N: zeta_hat_partial,
    SeriesKind.ZETA_N_PRIME: zeta_partial_derivative,
    SeriesKind.ZETA_HAT_N_PRIME: zeta_hat_partial_derivative,
}


def evaluate(kind: SeriesKind, z: complex, n: int) -> SeriesEvaluation:
    """Evaluate one named sum and wrap it with its truncation metadata."""
    return SeriesEvaluation(kind=kind, z=complex(z), n=n, value=_DISPATCH[kind](z, n))
