"""Euler-Maclaurin reference evaluator for the regularized zeta value.

Provides the Bernoulli remainder R_n(z) and a high-accuracy reference value of
the regularized zeta function in Re z > 0. The Hardy-Littlewood validity
window |Im z| <= 2 pi n / C that gates both is written once, as
``EulerMaclaurinConfig.max_im``; the convergence sweeps read it too.

The remainder and the reference are written once, over 1-d arrays of z:
every element runs its own stopping rule, window check and n-doubling in
lockstep with the others. remainder_with_bound and zeta_hat_reference are
one-element calls into that code.
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
        if self.n_base < 10:
            raise ConfigError(f"n_base must be >= 10, got {self.n_base}")
        if not self.target_rel_error > 0:
            raise ConfigError("target_rel_error must be positive")
        if not self.window_C > 1:
            raise ConfigError(f"window constant C must exceed 1, got {self.window_C}")

    def max_im(self, n):
        """The largest |Im z| of the validity window at n: 2 pi n / C (n may
        be an array)."""
        return TWO_PI * n / self.window_C


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

    Every row runs the recurrence of remainder_with_bound with its own
    stopping rule and leaves the lockstep loop when that rule fires; a row
    whose series grew before meeting the target is flagged as diverged,
    with its partial value and bound. Raises DomainError or WindowError
    naming the first offending row.
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
    ln_n = np.log(n.astype(np.float64))
    acc = np.zeros(z.shape, dtype=complex)
    poch = z.copy()  # (z)(z+1)...(z+2k-2), grown incrementally
    prev_mod = np.full(z.shape, math.inf)
    bound = np.zeros(z.shape)
    terms = np.zeros(z.shape, dtype=np.int64)
    diverged = np.zeros(z.shape, dtype=bool)
    active = np.ones(z.shape, dtype=bool)
    k = 1
    while active.any():
        coeff = b2k[k - 1] / math.factorial(2 * k)
        term = coeff * poch * _pow_neg(ln_n, z + (2 * k - 1))
        mod = np.abs(term)
        # asymptotic divergence onset, or depth exhausted: stop before this term
        growing = active & (mod >= prev_mod)
        stop = growing | (active & (k > cfg.depth))
        diverged |= growing & (mod > cfg.target_rel_error * np.abs(acc))
        bound[stop], terms[stop] = mod[stop], k - 1
        active &= ~stop
        acc = np.where(active, acc + term, acc)
        prev_mod = mod
        # converged; next term is smaller still, so mod is a safe bound
        met = active & (mod <= cfg.target_rel_error * np.abs(acc))
        bound[met], terms[met] = mod[met], k
        active &= ~met
        poch = poch * ((z + (2 * k - 1)) * (z + 2 * k))
        k += 1
    return acc, bound, terms, diverged


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
    # meet the window with a 4x margin
    n = np.maximum(
        cfg.n_base, np.ceil(4.0 * cfg.window_C * np.abs(z.imag) / TWO_PI)
    ).astype(np.int64)
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
    tail = n * _pow_neg(ln_n, z) / (1.0 - z)
    half = 0.5 * _pow_neg(ln_n, z)
    return zeta_partial_array(z, n) - tail - half + rem


def zeta_hat_reference(
    z: complex, cfg: EulerMaclaurinConfig = DEFAULT_CONFIG
) -> complex:
    """High-accuracy regularized zeta value in Re z > 0, z != 1.

    Evaluates zeta_n(z) - n^(1-z)/(1-z) - 1/(2 n^z) + R_n(z) at an n chosen
    from the config; the result is n-independent up to target_rel_error. In
    the strip this equals the analytic continuation of zeta.
    """
    return complex(zeta_hat_reference_array([complex(z)], cfg)[0])
