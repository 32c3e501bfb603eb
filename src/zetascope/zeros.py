"""Critical-line zero location via the Hardy Z function.

Z(t) = Re[exp(i theta(t)) zeta(1/2 + i t)] is real up to rounding leakage;
its sign changes bracket the on-line zeros, which bisection then refines.

Z is evaluated over whole arrays of ordinates (hardy_z_array): theta, the
Euler-Maclaurin reference and the leakage check each run once per array,
and the partial sums of all ordinates share blocked numpy passes
(series.zeta_partial_array). find_zeros builds the scan grid one step at a
time, evaluates Z on it one call per block of _SCAN_BLOCK steps, then
bisects every bracket in lockstep: each step is one call over the brackets
still open, each bracket stops by its own rules, and one more call takes
the residuals. A row's value never depends on the other
rows of its array, so the scalar hardy_z (a one-element call) and the scan
agree bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PossiblyMissedZeroWarning, PrecisionError
from .euler_maclaurin import DEFAULT_CONFIG, EulerMaclaurinConfig, zeta_hat_reference_array
from .special import log_gamma_array

#: maximum tolerated |Im(exp(i theta) zeta)| before hardy_z refuses the value
IM_LEAK_LIMIT = 1e-9

#: bisection refines brackets below this width (tighter than strictly needed,
#: so downstream identity checks are not limited by the zero residual)
BRACKET_WIDTH = 1e-12

#: scan steps per hardy_z_array call: bounds the scan's memory at any step
#: while keeping the per-call cost of the remainder loop small (the partial
#: sums inside a call are blocked separately, 32 rows at n = 128)
_SCAN_BLOCK = 256

#: warn when consecutive zeros sit closer than this many scan steps
_MIN_SEPARATION_STEPS = 4


@dataclass(frozen=True)
class ZeroRecord:
    """A refined on-line zero rho = 1/2 + i t with its bracket and residual."""

    index: int
    t: float
    rho: complex
    bracket: tuple[float, float]
    residual: float


def _at_height(sigma: float, t: np.ndarray) -> np.ndarray:
    """sigma + i t for each t, set part by part."""
    z = np.empty(t.shape, dtype=complex)
    z.real, z.imag = sigma, t
    return z


def riemann_siegel_theta_array(t) -> np.ndarray:
    """theta(t) = Im log Gamma(1/4 + i t / 2) - (t / 2) ln pi, for each t > 0."""
    t = np.asarray(t, dtype=np.float64)
    bad = ~(t > 0)
    if bad.any():
        raise DomainError(f"theta requires t > 0, got {t[bad][0]}")
    return log_gamma_array(_at_height(0.25, 0.5 * t)).imag - 0.5 * t * math.log(math.pi)


def riemann_siegel_theta(t: float) -> float:
    """theta at one t; see riemann_siegel_theta_array."""
    return float(riemann_siegel_theta_array([t])[0])


def hardy_z_array(t, cfg: EulerMaclaurinConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Z(t) = Re[exp(i theta(t)) zeta(1/2 + i t)] for each t, leakage checked.

    Raises DomainError or PrecisionError naming the first offending t.
    """
    t = np.asarray(t, dtype=np.float64)
    bad = ~((t > 0) & (t <= 100))
    if bad.any():
        raise DomainError(f"hardy_z is supported for t in (0, 100], got {t[bad][0]}")
    zeta_val = zeta_hat_reference_array(_at_height(0.5, t), cfg)
    w = np.exp(1j * riemann_siegel_theta_array(t)) * zeta_val
    leak = np.abs(w.imag) > IM_LEAK_LIMIT
    if leak.any():
        i = np.flatnonzero(leak)[0]
        raise PrecisionError(
            f"imaginary leakage {abs(w[i].imag):.3e} exceeds {IM_LEAK_LIMIT} at t={t[i]}"
        )
    return w.real


def hardy_z(t: float, cfg: EulerMaclaurinConfig = DEFAULT_CONFIG) -> float:
    """Z at one t; see hardy_z_array."""
    return float(hardy_z_array([t], cfg)[0])


def _bisect(
    t_lo: np.ndarray,
    z_lo: np.ndarray,
    t_hi: np.ndarray,
    cfg: EulerMaclaurinConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Refine every sign-change bracket in lockstep; returns (lo, hi) arrays.

    z_lo is Z at t_lo; Z changes sign or vanishes on each (t_lo, t_hi].
    Each step evaluates Z once over the brackets still open. A bracket
    closes when it is narrower than BRACKET_WIDTH, when its midpoint hits
    float spacing, or when Z vanishes exactly at its midpoint (then it
    becomes a small bracket around that midpoint).
    """
    t_lo, z_lo, t_hi = t_lo.copy(), z_lo.copy(), t_hi.copy()
    open_ = t_hi - t_lo > BRACKET_WIDTH
    while True:
        mid = 0.5 * (t_lo + t_hi)
        open_ &= (mid > t_lo) & (mid < t_hi)  # else: hit float spacing
        rows = np.flatnonzero(open_)
        if not rows.size:
            return t_lo, t_hi
        m = mid[rows]
        z_mid = hardy_z_array(m, cfg)
        exact = z_mid == 0.0
        half = np.maximum(BRACKET_WIDTH / 4, (t_hi[rows] - t_lo[rows]) * 1e-6)
        left = (z_lo[rows] < 0) != (z_mid < 0)
        t_hi[rows] = np.where(exact, m + half, np.where(left, m, t_hi[rows]))
        t_lo[rows] = np.where(exact, m - half, np.where(left, t_lo[rows], m))
        z_lo[rows] = np.where(left, z_lo[rows], z_mid)
        open_[rows] = ~exact & (t_hi[rows] - t_lo[rows] > BRACKET_WIDTH)


def _scan_blocks(t_min: float, t_max: float, step: float):
    """The scan grid t_min, t_min + step, ... capped at t_max, built one step
    at a time, in arrays of at most _SCAN_BLOCK + 1 points that each start
    at the previous array's last point."""
    block = [t_min]
    while block[-1] < t_max:
        block.append(min(block[-1] + step, t_max))
        if len(block) > _SCAN_BLOCK:
            yield np.array(block)
            block = block[-1:]
    if len(block) > 1:
        yield np.array(block)


def _check_scan(t_min: float, t_max: float, step: float) -> None:
    """DomainError unless 0 < t_min < t_max <= 100 and 0 < step <= 0.25
    (a NaN fails the comparisons)."""
    if not 0 < t_min < t_max <= 100:
        raise DomainError(f"need 0 < t_min < t_max <= 100, got ({t_min}, {t_max})")
    if not 0 < step <= 0.25:
        raise DomainError(f"scan step must be in (0, 0.25], got {step}")


def find_zeros(
    t_min: float,
    t_max: float,
    step: float = 0.05,
    cfg: EulerMaclaurinConfig = DEFAULT_CONFIG,
) -> list[ZeroRecord]:
    """Scan Z on a grid over (t_min, t_max), bracket sign changes, bisect.

    Returns records ordered and 1-indexed by increasing t. Deterministic for
    identical inputs. Warns if found zeros sit suspiciously close relative
    to the scan step (a coarser scan could have missed a pair).
    """
    _check_scan(t_min, t_max, step)
    t_lo, z_lo, t_hi = [], [], []
    for t in _scan_blocks(t_min, t_max, step):
        z = hardy_z_array(t, cfg)
        # a grid point exactly on a zero belongs to the bracket that ends there
        prev, cur = z[:-1], z[1:]
        i = np.flatnonzero((prev != 0.0) & ((cur == 0.0) | ((prev < 0) != (cur < 0))))
        t_lo.append(t[i])
        z_lo.append(z[i])
        t_hi.append(t[i + 1])
    t_lo, z_lo, t_hi = map(np.concatenate, (t_lo, z_lo, t_hi))
    lo, hi = _bisect(t_lo, z_lo, t_hi, cfg)
    t_zero = 0.5 * (lo + hi)
    residual = np.abs(zeta_hat_reference_array(_at_height(0.5, t_zero), cfg))
    records = [
        ZeroRecord(index=k, t=tz, rho=complex(0.5, tz), bracket=(a, b), residual=r)
        for k, (tz, a, b, r) in enumerate(
            zip(t_zero.tolist(), lo.tolist(), hi.tolist(), residual.tolist()), start=1
        )
    ]

    for a, b in zip(records, records[1:]):
        if b.t - a.t < _MIN_SEPARATION_STEPS * step:
            warnings.warn(
                f"zeros at t={a.t:.4f} and t={b.t:.4f} are within "
                f"{_MIN_SEPARATION_STEPS} scan steps; a coarser feature may "
                "have been missed",
                PossiblyMissedZeroWarning,
            )
            break
    return records
