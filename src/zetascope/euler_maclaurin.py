"""Euler-Maclaurin reference evaluator for the regularized zeta value.

Provides the Bernoulli remainder R_n(z) and a high-accuracy reference value of
the regularized zeta function in Re z > 0. The Hardy-Littlewood validity
window |Im z| <= 2 pi n / C that gates both is written once, as
``EulerMaclaurinConfig.max_im``; the convergence sweeps read it too.

The remainder and the reference are written once, over 1-d arrays of z. The
remainder builds one table of every element's depth + 1 terms per call and
reads each element's stop, value and bound from it by index; the reference
doubles the n of each element whose remainder diverges. remainder_with_bound
and zeta_hat_reference are one-element calls into that code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    PoleError,
    PrecisionNotReachedError,
    WindowError,
)
from .series import N_CAP, zeta_partial_array
from .special import TWO_PI, bernoulli_numbers


@dataclass(frozen=True)
class EulerMaclaurinConfig:
    """Truncation depth, base summation length, accuracy target, window constant."""

    depth: int = 10
    n_base: int = 50
    target_rel_error: float = 1e-12
    window_C: float = 2.0

    def __post_init__(self):
        if not 1 <= self.depth <= 30:
            raise ConfigError(f"depth must be in [1, 30], got {self.depth}")
        if not 10 <= self.n_base <= N_CAP:
            raise ConfigError(f"n_base must be in [10, {N_CAP}], got {self.n_base}")
        if not self.target_rel_error > 0:
            raise ConfigError("target_rel_error must be positive")
        if not self.window_C > 1:
            raise ConfigError(f"window constant C must exceed 1, got {self.window_C}")

    def max_im(self, n):
        """The largest |Im z| of the validity window at n: 2 pi n / C (n may
        be an array)."""
        return TWO_PI * n / self.window_C

    def reference_n(self, im):
        """The n the reference evaluator starts from at |Im z| = |im|: the
        window met with a 4x margin, at least n_base (im may be an array)."""
        return np.maximum(
            self.n_base, np.ceil(4.0 * self.window_C * np.abs(im) / TWO_PI)
        ).astype(np.int64)


DEFAULT_CONFIG = EulerMaclaurinConfig()


@dataclass(frozen=True)
class RemainderResult:
    """Truncated Bernoulli remainder plus the modulus of the first omitted term."""

    value: complex
    bound: float
    terms_used: int


def _pow_neg(ln_n: np.ndarray, z: np.ndarray) -> np.ndarray:
    """n**(-z) elementwise from ln n, via exp(-z ln n)."""
    return np.exp(-z * ln_n)


def _remainder_rows(
    z: np.ndarray, n: np.ndarray, cfg: EulerMaclaurinConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """R_n(z) for each row (z_i, n_i): value, bound, terms used, diverged.

    Each row stops by the rule of remainder_with_bound, read off one table
    of its depth + 1 terms; a row whose series grew before meeting the
    target is flagged as diverged, with its partial value and bound. Raises
    DomainError or WindowError naming the first offending row.
    """
    bad = ~(z.real > 0)
    if bad.any():
        raise DomainError(f"remainder requires Re z > 0, got {complex(z[bad][0])}")
    outside = ~(np.abs(z.imag) <= cfg.max_im(n))
    if outside.any():
        i = np.flatnonzero(outside)[0]
        raise WindowError(
            f"|Im z|={abs(z[i].imag):.6g} exceeds the window 2*pi*{n[i]}/{cfg.window_C}"
        )
    b2k = bernoulli_numbers(cfg.depth + 1)  # the bound reads one term past depth
    coeff = np.array([b / math.factorial(2 * j) for j, b in enumerate(b2k, start=1)])
    k = np.arange(1, cfg.depth + 2)
    ln_n = np.log(n.astype(np.float64))
    # columns past a row's stop may overflow at large |z|; they are never read
    with np.errstate(over="ignore", invalid="ignore"):
        # (z)(z+1)...(z+2k-2), one elementwise product per column: np.cumprod
        # can round complex products differently
        poch = [z]
        for j in range(1, cfg.depth + 1):
            poch.append(poch[-1] * ((z + (2 * j - 1)) * (z + 2 * j)))
        term = coeff * np.stack(poch, axis=1) * _pow_neg(ln_n[:, None], z[:, None] + (2 * k - 1))
        mod = np.abs(term)
        first = np.zeros((z.size, 1))
        acc = np.cumsum(np.concatenate((first, term), axis=1), axis=1)  # acc[:, k]: terms 1..k
        # a term that does not shrink, or term depth + 1, stops its row
        # unadded; else the row stops once an added term meets the target
        growing = mod >= np.concatenate((first + math.inf, mod[:, :-1]), axis=1)
        stop = growing | (k > cfg.depth)
        met = ~stop & (mod <= cfg.target_rel_error * np.abs(acc[:, 1:]))
    rows = np.arange(z.size)
    last = np.argmax(stop | met, axis=1)  # the column each row stops at
    terms = last + met[rows, last]
    value, bound = acc[rows, terms], mod[rows, last]
    diverged = growing[rows, last] & (bound > cfg.target_rel_error * np.abs(value))
    return value, bound, terms, diverged


def _diverged_error(row: int, acc, bound, terms) -> PrecisionNotReachedError:
    return PrecisionNotReachedError(
        f"remainder series diverges at k={terms[row] + 1} with bound {bound[row]:.3e}",
        value=complex(acc[row]),
        bound=float(bound[row]),
    )


def remainder_with_bound(
    z: complex, n: int, cfg: EulerMaclaurinConfig = DEFAULT_CONFIG
) -> RemainderResult:
    """R_n(z) = sum_k B_{2k}/(2k)! (z)(z+1)...(z+2k-2) n^(1-z-2k), truncated.

    Terms are added while they keep shrinking and stay above the relative
    target; the reported bound is the modulus of the first term not added
    (standard practice for a divergent asymptotic series). Raises
    PrecisionNotReachedError if the series starts growing before the target
    accuracy is met.
    """
    acc, bound, terms, diverged = _remainder_rows(
        np.array([complex(z)]), np.array([n]), cfg
    )
    if diverged[0]:
        raise _diverged_error(0, acc, bound, terms)
    return RemainderResult(
        value=complex(acc[0]), bound=float(bound[0]), terms_used=int(terms[0])
    )


def remainder(z: complex, n: int, cfg: EulerMaclaurinConfig = DEFAULT_CONFIG) -> complex:
    """Truncated Bernoulli remainder R_n(z); see remainder_with_bound."""
    return remainder_with_bound(z, n, cfg).value


def zeta_hat_reference_array(z, cfg: EulerMaclaurinConfig = DEFAULT_CONFIG) -> np.ndarray:
    """zeta_hat_reference elementwise over a 1-d array of z.

    Each row gets its own n from the config; rows whose remainder diverges
    double their own n up to N_CAP. The partial sums of all rows share
    blocked passes (series.zeta_partial_array).
    """
    z = np.asarray(z, dtype=complex)
    bad = ~(np.isfinite(z) & (z.real > 0))
    if bad.any():
        raise DomainError(
            f"reference evaluator requires a finite z with Re z > 0, got {complex(z[bad][0])}"
        )
    if (z == 1).any():
        raise PoleError("zeta has its pole at z=1")
    n = cfg.reference_n(z.imag)
    rem = np.empty(z.shape, dtype=complex)
    rows = np.arange(z.size)
    while rows.size:
        acc, bound, terms, diverged = _remainder_rows(z[rows], n[rows], cfg)
        rem[rows] = acc
        at_cap = diverged & (2 * n[rows] > N_CAP)
        if at_cap.any():
            raise _diverged_error(np.flatnonzero(at_cap)[0], acc, bound, terms)
        rows = rows[diverged]
        n[rows] *= 2
    ln_n = np.log(n.astype(np.float64))
    pow_neg = _pow_neg(ln_n, z)
    return zeta_partial_array(z, n) - n * pow_neg / (1.0 - z) - 0.5 * pow_neg + rem


def zeta_hat_reference(
    z: complex, cfg: EulerMaclaurinConfig = DEFAULT_CONFIG
) -> complex:
    """High-accuracy regularized zeta value in Re z > 0, z != 1.

    Evaluates zeta_n(z) - n^(1-z)/(1-z) - 1/(2 n^z) + R_n(z) at an n chosen
    from the config; the result is n-independent up to target_rel_error. In
    the strip this equals the analytic continuation of zeta.
    """
    return complex(zeta_hat_reference_array([complex(z)], cfg)[0])
