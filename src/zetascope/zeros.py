"""Critical-line zero location via the Hardy Z function.

Z(t) = Re[exp(i theta(t)) zeta(1/2 + i t)] is real up to rounding leakage.
A bracket (t_lo, t_hi] holds a zero when Z(t_lo) != 0 and Z changes sign or
vanishes on it (_holds_zero): the grid scan finds such brackets, and ITP
(_bisect) refines them by the same rule.

Z is evaluated over whole arrays of ordinates (hardy_z_array): theta, the
Euler-Maclaurin reference and the leakage check each run once per array,
and the partial sums of all ordinates share blocked numpy passes
(series.zeta_partial_array). find_zeros builds the scan grid as one running
sum of the step, bounded before any work, evaluates Z on it one call per
block of _SCAN_BLOCK points, refines every bracket in lockstep (one call per
step over the open brackets) and takes the residuals in one more call. A
row's value never depends on the other rows of its array, so the scalar
hardy_z (a one-element call) and the scan agree bit for bit.
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

#: _bisect refines brackets below this width (tighter than strictly needed,
#: so downstream identity checks are not limited by the zero residual)
BRACKET_WIDTH = 1e-12

#: ITP's truncation factor kappa_1 and slack steps n_0, with kappa_2 = 2 and
#: epsilon = BRACKET_WIDTH / 2; DESIGN.md records the measured choice
_ITP_K1 = 0.01
_ITP_N0 = 1

#: scan points per hardy_z_array call: bounds each call's rows x (depth + 1)
#: Bernoulli remainder table (the partial sums inside a call are blocked
#: separately, 32 rows at n = 128)
_SCAN_BLOCK = 256

#: the most points a scan grid may hold: bounds the scan's work before it starts
_MAX_SCAN_POINTS = 2**20

#: the most terms a scan grid may sum, points x the reference's n at t_max:
#: 128 is that n at t = 100 under the default config, so every scan the
#: defaults allow fits, and a large n_base or window_C cannot hang a scan
_MAX_SCAN_TERMS = _MAX_SCAN_POINTS * 128

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


def _holds_zero(z_lo: np.ndarray, z_hi: np.ndarray) -> np.ndarray:
    """Whether (t_lo, t_hi] holds a zero: Z(t_lo) != 0, and Z changes sign or vanishes."""
    return (z_lo != 0) & ((z_hi == 0) | ((z_lo < 0) != (z_hi < 0)))


def _bisect(
    t_lo: np.ndarray,
    z_lo: np.ndarray,
    t_hi: np.ndarray,
    z_hi: np.ndarray,
    cfg: EulerMaclaurinConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Refine every bracket in lockstep by ITP; returns (lo, hi) arrays.

    z_lo and z_hi are Z at t_lo and t_hi, and each (t_lo, t_hi] holds a zero
    (_holds_zero). Each step evaluates Z once at one point of every open
    bracket and keeps the part that holds the zero, (t_lo, x] if Z(x) = 0.
    The point is ITP's (Oliveira and Takahashi, ACM TOMS 47(1), 2020): the
    regula falsi point, moved _ITP_K1 * width^2 towards the midpoint and
    kept within r of it, where r lets no bracket take more than bisection's
    steps plus _ITP_N0 (one more where rounding leaves a width a few ulps
    over BRACKET_WIDTH); then clipped strictly inside the bracket. A bracket
    stops, for good, once it is no wider than BRACKET_WIDTH or holds no
    float inside.
    """
    t_lo, z_lo, t_hi, z_hi = t_lo.copy(), z_lo.copy(), t_hi.copy(), z_hi.copy()
    # bisection's step count to BRACKET_WIDTH, plus the slack ITP may spend
    n_max = np.ceil(np.log2((t_hi - t_lo) / BRACKET_WIDTH)) + _ITP_N0
    step = 0
    while True:
        rows = np.flatnonzero((t_hi - t_lo > BRACKET_WIDTH) & (np.nextafter(t_lo, t_hi) < t_hi))
        if not rows.size:
            return t_lo, t_hi
        a, b, za, zb = t_lo[rows], t_hi[rows], z_lo[rows], z_hi[rows]
        width = b - a
        mid = 0.5 * (a + b)
        falsi = a + width * (za / (za - zb))
        sigma = np.sign(mid - falsi)
        delta = _ITP_K1 * width * width
        x = np.where(delta <= np.abs(mid - falsi), falsi + sigma * delta, mid)
        r = 0.5 * BRACKET_WIDTH * 2.0 ** (n_max[rows] - step) - 0.5 * width
        x = np.where(np.abs(x - mid) <= r, x, mid - sigma * r)
        x = np.clip(x, np.nextafter(a, b), np.nextafter(b, a))
        zx = hardy_z_array(x, cfg)
        left = _holds_zero(za, zx)
        t_hi[rows], z_hi[rows] = np.where(left, x, b), np.where(left, zx, zb)
        t_lo[rows], z_lo[rows] = np.where(left, a, x), np.where(left, za, zx)
        step += 1


def _check_scan(
    t_min: float, t_max: float, step: float, cfg: EulerMaclaurinConfig = DEFAULT_CONFIG
) -> int:
    """A bound on the scan grid's points; DomainError unless 0 < t_min <
    t_max <= 100, 0 < step <= 0.25 (a NaN fails the comparisons), the step is
    at least twice the float spacing u at t_max, the bound is at most
    _MAX_SCAN_POINTS and the bound times the reference's n at t_max is at
    most _MAX_SCAN_TERMS. An add that stays below t_max rounds by at most
    u / 2, so it moves t by more than step - u; the second extra point
    absorbs the bound's own rounding."""
    if not 0 < t_min < t_max <= 100:
        raise DomainError(f"need 0 < t_min < t_max <= 100, got ({t_min}, {t_max})")
    if not 0 < step <= 0.25:
        raise DomainError(f"scan step must be in (0, 0.25], got {step}")
    if not step >= 2 * math.ulp(t_max):
        raise DomainError(f"scan step {step} is below twice the float spacing at t_max={t_max}")
    points = math.ceil((t_max - t_min) / (step - math.ulp(t_max))) + 2
    if points > _MAX_SCAN_POINTS:
        raise DomainError(
            f"scan step {step} from {t_min} to {t_max} may need over {_MAX_SCAN_POINTS} points"
        )
    n = int(cfg.reference_n(t_max))
    if points * n > _MAX_SCAN_TERMS:
        raise DomainError(
            f"a scan of {points} points at n={n} may sum over {_MAX_SCAN_TERMS} terms"
        )
    return points


def _scan_grid(
    t_min: float, t_max: float, step: float, cfg: EulerMaclaurinConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """t_min, t_min + step, ... as running sums, cut before the first that
    reaches t_max, then t_max: the points of adding step one at a time."""
    t = np.full(_check_scan(t_min, t_max, step, cfg), step)
    t[0] = t_min
    np.cumsum(t, out=t)
    return np.append(t[: np.argmax(t >= t_max)], t_max)


def find_zeros(
    t_min: float,
    t_max: float,
    step: float = 0.05,
    cfg: EulerMaclaurinConfig = DEFAULT_CONFIG,
) -> list[ZeroRecord]:
    """Scan Z on a grid over (t_min, t_max], bracket sign changes, refine them.

    A zero exactly at t_min is not reported. Returns records ordered and
    1-indexed by increasing t. Deterministic for identical inputs. Warns if
    found zeros sit suspiciously close relative to the scan step (a coarser
    scan could have missed a pair).
    """
    t = _scan_grid(t_min, t_max, step, cfg)
    z = np.empty_like(t)
    for s in range(0, t.size, _SCAN_BLOCK):
        z[s : s + _SCAN_BLOCK] = hardy_z_array(t[s : s + _SCAN_BLOCK], cfg)
    i = np.flatnonzero(_holds_zero(z[:-1], z[1:]))
    lo, hi = _bisect(t[i], z[i], t[i + 1], z[i + 1], cfg)
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
