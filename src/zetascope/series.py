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

zeta_partial_array sums many short rows (z_i, n_i) at once, as the zero
scan needs: the same kernel runs with a leading z axis over blocks of at
most 2^12 terms per chunk (32 rows at n = 128), each row zero-padded past
its own n. Adding +0.0 is exact and leaves no TwoSum error, so a row's sum
never depends on its block-mates.

The pass is sign-symmetric: numpy's cos is even and its sin odd, and Sum2
and fsum commute with negation, so the sums at conj(z) are the conjugates
of the sums at z, bit for bit. On the critical line 1 - rho = conj(rho),
and the claims read the table at 1 - rho as the conjugate of the one at rho
(convergence._zero_table).

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


def _chunk_prefix_sums(
    z: np.ndarray,
    lo: int,
    hi: int,
    components: int,
    ends: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum2 prefix sums of the terms k = lo+1..hi for each z of a 1-d array.

    Axis 0 runs over z; axis 1 over the first ``components`` (2, 4 or 6) of
    the real components Re/Im of zeta, xi and zeta'. Column i of the running
    sum ``p`` and of the running TwoSum error ``e`` together hold the sum
    through k = lo+1+i. ``lo`` is a multiple of _CHUNK, so the odd columns
    are the even k that xi subtracts. Terms with k > ends[j] are zero in
    row j: adding +0.0 is exact and its TwoSum error is 0, so the sums past
    ends[j] repeat the sum at ends[j] bit for bit.
    """
    lk = np.log(np.arange(lo + 1, hi + 1, dtype=np.float64))
    x = np.empty((z.size, components, hi - lo))
    phase = -z.imag[:, None] * lk
    np.cos(phase, out=x[:, 0])
    np.sin(phase, out=x[:, 1])
    x[:, 0:2] *= np.exp(-z.real[:, None] * lk)[:, None]
    if components > 2:
        x[:, 2:4] = x[:, 0:2]
        x[:, 2:4, 1::2] *= -1.0
    if components > 4:
        np.multiply(-lk, x[:, 0:2], out=x[:, 4:6])
    if ends is not None and ends.min() < hi:
        past = np.arange(lo + 1, hi + 1) > ends[:, None]
        np.copyto(x, 0.0, where=past[:, None, :])
    p = np.cumsum(x, axis=2)
    # TwoSum of (p[i-1], x[i]) -> p[i], in place: x becomes each add's exact
    # error (b - b_virtual) + (a - a_virtual), with one scratch array
    s, a, b = p[..., 1:], p[..., :-1], x[..., 1:]
    virtual = s - a  # b_virtual
    b -= virtual
    np.subtract(s, virtual, out=virtual)  # a_virtual
    np.subtract(a, virtual, out=virtual)
    b += virtual
    x[..., 0] = 0.0
    return p, np.cumsum(x, axis=2, out=x)


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
        raise SumOverflowError(f"partial sum overflowed at z={z}")
    return RawSums(
        zeta=complex(v[0], v[1]),
        xi=complex(v[2], v[3]),
        zeta_prime=complex(v[4], v[5]) if len(v) == 6 else None,
    )


def _check_z(z: np.ndarray) -> None:
    if not np.isfinite(z).all():
        raise DomainError(f"partial sums need a finite z, got {complex(z[~np.isfinite(z)][0])}")


def raw_sums_at(
    z: complex, checkpoints: Iterable[int], include_derivative: bool = False
) -> dict[int, RawSums]:
    """One ascending compensated pass, snapshotting the sums at each checkpoint.

    ``checkpoints`` must be positive integers; they are deduplicated and
    visited in increasing order. Raises SumOverflowError (an OverflowError)
    if a sum leaves the finite floats.
    """
    z = complex(z)
    zs = np.array([z])
    _check_z(zs)
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
            (p,), (e,) = _chunk_prefix_sums(zs, lo, hi, len(done))
            while next_cp is not None and next_cp <= hi:
                i = next_cp - lo - 1
                out[next_cp] = _snapshot(z, done, p[:, i], e[:, i])
                next_cp = next(pending, None)
            for row, pj, ej in zip(done, p[:, -1].tolist(), e[:, -1].tolist()):
                row += (pj, ej)
    return out


def zeta_partial_array(z, n) -> np.ndarray:
    """Sum_{k=1..n_i} k**(-z_i) for each pair of two equal-length 1-d arrays.

    Rows are summed together in blocks of at most _CHUNK terms per chunk
    (32 rows at n = 128), each row zero-padded past its own n, and
    each row's chunk sums are joined as in raw_sums_at. A row's value is
    therefore bit-identical to ``zeta_partial(z_i, n_i)`` whatever rows
    share its block.
    """
    z = np.asarray(z, dtype=complex)
    n = np.asarray(n, dtype=np.int64)
    _check_z(z)
    if not ((n >= 1) & (n <= N_CAP)).all():
        raise DomainError(f"each n must lie in [1, {N_CAP}], got {n.min()}..{n.max()}")
    out = np.empty(z.shape, dtype=complex)
    rows = max(1, _CHUNK // min(int(n.max(initial=1)), _CHUNK))
    with np.errstate(over="ignore", invalid="ignore"):
        for r0 in range(0, z.size, rows):
            zb, nb = z[r0 : r0 + rows], n[r0 : r0 + rows]
            top = int(nb.max())
            parts = []  # each chunk's final p and e, shape (rows, 2)
            for lo in range(0, top, _CHUNK):
                p, e = _chunk_prefix_sums(zb, lo, min(lo + _CHUNK, top), 2, nb)
                parts += (p[..., -1], e[..., -1])
            if len(parts) == 2:
                v = parts[0] + parts[1]  # the exact sum rounded once, as fsum gives
            else:
                flat = np.stack(parts, axis=-1).reshape(-1, len(parts))
                try:
                    v = np.array([math.fsum(q) for q in flat.tolist()]).reshape(-1, 2)
                except (OverflowError, ValueError):  # intermediate overflow or inf - inf
                    v = np.full((zb.size, 2), math.inf)
            bad = ~np.isfinite(v).all(axis=1)
            if bad.any():
                raise SumOverflowError(f"partial sum overflowed at z={complex(zb[bad][0])}")
            block = out[r0 : r0 + rows]
            block.real, block.imag = v.T
    return out


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
