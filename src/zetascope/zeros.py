"""Critical-line zero location via the Hardy Z function, checked by a zero count.

Z(t) = Re[exp(i theta(t)) zeta(1/2 + i t)] is real up to rounding leakage.
find_zeros evaluates Z at t_min, at each Gram point inside the window and at
t_max. The Gram points g_j solve theta(g_j) = j pi on theta's rising branch,
t > 6.29; below t = 100 each Gram interval holds exactly one zero (Gram's law
first fails at g_126, near t = 282.5; Brent, Math. Comp. 33, 1979), so about
30 points stand in for a grid. Nothing rests on Gram's law, though: the
sign changes found must number N(t_max) - N(t_min), where N is the zero
count by the argument principle (zero_count; Backlund, see Edwards,
Riemann's Zeta Function, ch. 6), and a mismatch raises DomainError. So a
close pair of zeros inside one interval, or a lost sign change, fails
loudly instead of going missing. ITP (_bisect) then refines each bracket
(t_lo, t_hi] that holds a zero (_holds_zero), one bracket at a time.

Everything here is plain math/cmath code at one t, so a scan never loads
numpy.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import DomainError, PrecisionError
from .euler_maclaurin import DEFAULT_CONFIG, EulerMaclaurinConfig, zeta_hat_reference
from .special import TWO_PI, log_gamma

#: the largest t that hardy_z, the zero count and a scan accept
T_CEILING = 100

#: maximum tolerated |Im(exp(i theta) zeta)| before hardy_z refuses the value;
#: a scan point whose |Z| is not above it has no sign that a count could back
IM_LEAK_LIMIT = 1e-9

#: _bisect refines brackets below this width (tighter than strictly needed,
#: so downstream identity checks are not limited by the zero residual)
BRACKET_WIDTH = 1e-12

#: ITP's truncation factor kappa_1 and slack steps n_0, with kappa_2 = 2 and
#: epsilon = BRACKET_WIDTH / 2; DESIGN.md records the measured choice
_ITP_K1 = 0.01
_ITP_N0 = 1

#: theta falls to its minimum near t = 6.2898, then rises and is convex:
#: above this, theta(t) = j pi has one root per j
_THETA_RISES = 6.29

#: Newton on theta stops once a step is this small, or after _GRAM_STEPS
_GRAM_TOL = 1e-12
_GRAM_STEPS = 32

#: the zero count's sigma path runs from 2, where Re zeta > 0, to 1/2 in
#: _COUNT_STEPS equal steps; a step whose change of argument exceeds
#: _COUNT_ARG_STEP is halved, and a count may evaluate zeta at most
#: _COUNT_EVALS times. Five steps put no point at sigma = 1, where the
#: reference's tail n^(1-z)/(1-z) overflows for a subnormal t
_COUNT_STEPS = 5
_COUNT_ARG_STEP = math.pi / 4
_COUNT_EVALS = 64

#: a zero count farther than this from an integer is refused
_COUNT_TOL = 1e-6

#: the most terms a scan may sum: its Z and zeta evaluations (_check_scan)
#: times the reference's n at t_max. The widest scan under the default
#: config needs under 2^18, and a large n_base or window_C cannot hang one
_MAX_SCAN_TERMS = 2**27


class ZeroRecord(namedtuple("ZeroRecord", ("index", "t", "rho", "bracket", "residual"))):
    """A refined on-line zero rho = 1/2 + i t: its 1-based index (int), t
    (float), rho (complex), bracket (lo, hi) and residual |zeta(rho)| (float)."""

    __slots__ = ()


def riemann_siegel_theta(t: float) -> float:
    """theta(t) = Im log Gamma(1/4 + i t / 2) - (t / 2) ln pi, for t > 0."""
    if not t > 0:
        raise DomainError(f"theta requires t > 0, got {t}")
    return log_gamma(complex(0.25, 0.5 * t)).imag - 0.5 * t * math.log(math.pi)


def hardy_z(t: float, cfg: EulerMaclaurinConfig = DEFAULT_CONFIG) -> float:
    """Z(t) = Re[exp(i theta(t)) zeta(1/2 + i t)], leakage checked.

    Raises DomainError unless 0 < t <= T_CEILING, and PrecisionError if the
    imaginary part exceeds IM_LEAK_LIMIT.
    """
    if not 0 < t <= T_CEILING:
        raise DomainError(f"hardy_z is supported for t in (0, {T_CEILING}], got {t}")
    w = cmath.exp(1j * riemann_siegel_theta(t)) * zeta_hat_reference(complex(0.5, t), cfg)
    if abs(w.imag) > IM_LEAK_LIMIT:
        raise PrecisionError(
            f"imaginary leakage {abs(w.imag):.3e} exceeds {IM_LEAK_LIMIT} at t={t}"
        )
    return w.real


def zero_count(t: float, cfg: EulerMaclaurinConfig = DEFAULT_CONFIG) -> float:
    """N(t), the number of zeros with 0 < Im rho <= t, unrounded.

    N(t) = theta(t) / pi + 1 + arg zeta(1/2 + i t) / pi, the argument
    followed continuously along sigma + i t from sigma = 2, where Re zeta > 0
    so it starts at the principal value, to sigma = 1/2. The path follows
    f = (z - 1) zeta(z), which has no pole, so a small t costs no more steps
    than a large one, and takes arg(z - 1), which stays in (0, pi), back out
    exactly. Each step's change of argument is the principal argument of
    f(next) / f(previous), and a step is halved while that exceeds
    _COUNT_ARG_STEP. The result is an integer up to rounding wherever
    zeta(1/2 + i t) != 0. Raises DomainError unless 0 < t <= T_CEILING, if zeta
    vanishes on the path, or if the steps need more than _COUNT_EVALS
    evaluations.
    """
    if not 0 < t <= T_CEILING:
        raise DomainError(f"the zero count is supported for t in (0, {T_CEILING}], got {t}")

    def f(sigma: float) -> complex:
        z = complex(sigma, t)
        value = (z - 1.0) * zeta_hat_reference(z, cfg)
        if value == 0:
            raise DomainError(f"zeta vanishes on the zero count's path at z={z}")
        return value

    width = (2.0 - 0.5) / _COUNT_STEPS
    pending = [(0.5 + width * k, None) for k in range(_COUNT_STEPS)]  # next on top
    sigma, value = 2.0, f(2.0)
    evals, arg = 1, cmath.phase(value)
    while pending:
        s, v = pending.pop()
        if v is None:
            if evals == _COUNT_EVALS:
                raise DomainError(
                    f"the zero count at t={t} needs over {_COUNT_EVALS} evaluations"
                )
            v, evals = f(s), evals + 1
        step = cmath.phase(v / value)
        if abs(step) > _COUNT_ARG_STEP:
            pending += [(s, v), (0.5 * (sigma + s), None)]
            continue
        sigma, value, arg = s, v, arg + step
    arg_zeta = arg - math.atan2(t, -0.5)
    return riemann_siegel_theta(t) / math.pi + 1.0 + arg_zeta / math.pi


def _checked_count(t: float, cfg: EulerMaclaurinConfig) -> int:
    """zero_count(t), refused with DomainError unless within _COUNT_TOL of an integer."""
    count = zero_count(t, cfg)
    if not (math.isfinite(count) and abs(count - round(count)) <= _COUNT_TOL):
        raise DomainError(f"the zero count at t={t} is {count!r}, not an integer")
    return round(count)


def _theta_slope(t: float) -> float:
    """theta'(t) by its asymptotic series, accurate to about 1e-9 from t = 9."""
    return 0.5 * math.log(t / TWO_PI) - 1.0 / (48.0 * t**2) - 7.0 / (1920.0 * t**4)


def _gram_indices(t_min: float, t_max: float) -> range:
    """The j whose Gram point g_j lies in (t_min, t_max): j pi strictly
    between theta's values at the window's ends on the rising branch."""
    lo = max(t_min, _THETA_RISES)
    if not lo < t_max:
        return range(0)
    j_first = math.floor(riemann_siegel_theta(lo) / math.pi) + 1
    return range(j_first, math.ceil(riemann_siegel_theta(t_max) / math.pi))


def _gram_points(t_min: float, t_max: float) -> list[float]:
    """The Gram points in (t_min, t_max), increasing: theta(g_j) = j pi on
    theta's rising branch, each by Newton from the one above it (the highest
    from t_max). theta is convex there, so every Newton step from the right
    stays right of its root; a point that does not land strictly between
    t_min and the point above it is left out."""
    points, t = [], t_max
    for j in reversed(_gram_indices(t_min, t_max)):
        for _ in range(_GRAM_STEPS):
            dt = (riemann_siegel_theta(t) - j * math.pi) / _theta_slope(t)
            t -= dt
            if abs(dt) <= _GRAM_TOL:
                break
        if t_min < t < (points[-1] if points else t_max):
            points.append(t)
    return points[::-1]


def _holds_zero(z_lo: float, z_hi: float) -> bool:
    """Whether (t_lo, t_hi] holds a zero: Z(t_lo) != 0, and Z changes sign or vanishes."""
    return z_lo != 0 and (z_hi == 0 or (z_lo < 0) != (z_hi < 0))


def _itp_steps(width: float) -> int:
    """The most Z evaluations _bisect takes on a bracket of this width:
    bisection's steps to BRACKET_WIDTH, plus _ITP_N0, plus one for rounding."""
    return max(0, math.ceil(math.log2(width / BRACKET_WIDTH)) + _ITP_N0 + 1)


def _bisect(
    t_lo: float, z_lo: float, t_hi: float, z_hi: float, cfg: EulerMaclaurinConfig
) -> tuple[float, float]:
    """Refine one bracket by ITP; returns (lo, hi).

    z_lo and z_hi are Z at t_lo and t_hi, and (t_lo, t_hi] holds a zero
    (_holds_zero). Each step evaluates Z once and keeps the part that holds
    the zero, (t_lo, x] if Z(x) = 0. The point is ITP's (Oliveira and
    Takahashi, ACM TOMS 47(1), 2020): the regula falsi point, moved
    _ITP_K1 * width^2 towards the midpoint and kept within r of it, where r
    lets the bracket take no more than bisection's steps plus _ITP_N0 (one
    more where rounding leaves a width a few ulps over BRACKET_WIDTH; see
    _itp_steps); then clipped strictly inside the bracket. The bracket
    stops once it is no wider than BRACKET_WIDTH or holds no float inside.
    """
    # bisection's step count to BRACKET_WIDTH, plus the slack _ITP_N0
    n_max = _itp_steps(t_hi - t_lo) - 1
    step = 0
    while t_hi - t_lo > BRACKET_WIDTH and math.nextafter(t_lo, t_hi) < t_hi:
        width = t_hi - t_lo
        mid = 0.5 * (t_lo + t_hi)
        falsi = t_lo + width * (z_lo / (z_lo - z_hi))
        sigma = float((mid > falsi) - (mid < falsi))
        delta = _ITP_K1 * width * width
        x = falsi + sigma * delta if delta <= abs(mid - falsi) else mid
        r = 0.5 * BRACKET_WIDTH * 2.0 ** (n_max - step) - 0.5 * width
        if not abs(x - mid) <= r:
            x = mid - sigma * r
        x = min(max(x, math.nextafter(t_lo, t_hi)), math.nextafter(t_hi, t_lo))
        z_x = hardy_z(x, cfg)
        if _holds_zero(z_lo, z_x):
            t_hi, z_hi = x, z_x
        else:
            t_lo, z_lo = x, z_x
        step += 1
    return t_lo, t_hi


def _check_scan(t_min: float, t_max: float, cfg: EulerMaclaurinConfig = DEFAULT_CONFIG) -> int:
    """A bound on the scan's Z and zeta evaluations; DomainError unless
    0 < t_min < t_max <= T_CEILING (a NaN fails the comparisons) and the bound
    times the reference's n at t_max is at most _MAX_SCAN_TERMS.

    The bound counts the two ends, the Gram points, ITP's steps plus the
    residual for each bracket (a bracket lies between neighbouring scan
    points, so it is at most t_max - t_min wide, and there is at most one
    per gap) and the step limit of both zero counts. It reads theta but
    evaluates no Z.
    """
    if not 0 < t_min < t_max <= T_CEILING:
        raise DomainError(f"need 0 < t_min < t_max <= {T_CEILING}, got ({t_min}, {t_max})")
    gram = len(_gram_indices(t_min, t_max))
    evaluations = 2 + gram + (gram + 1) * (_itp_steps(t_max - t_min) + 1) + 2 * _COUNT_EVALS
    n = cfg.reference_n(t_max)
    if evaluations * n > _MAX_SCAN_TERMS:
        raise DomainError(
            f"a scan of up to {evaluations} evaluations at n={n} may sum over "
            f"{_MAX_SCAN_TERMS} terms"
        )
    return evaluations


def find_zeros(
    t_min: float, t_max: float, cfg: EulerMaclaurinConfig = DEFAULT_CONFIG
) -> list[ZeroRecord]:
    """The zeros rho = 1/2 + i t with t in (t_min, t_max], each refined by ITP.

    Z is evaluated at t_min, the Gram points between and t_max. Each sign
    change between neighbours is a bracket, and there must be
    N(t_max) - N(t_min) of them (zero_count). Raises DomainError, before
    any Z evaluation, for a window or config _check_scan refuses, and after
    the scan if |Z| at a scan point is not above IM_LEAK_LIMIT (its sign
    backs no count), if a count is not an integer or if the brackets do not
    match the count. Returns records ordered and 1-indexed by increasing t.
    Deterministic for identical inputs.
    """
    _check_scan(t_min, t_max, cfg)
    t = [t_min, *_gram_points(t_min, t_max), t_max]
    z = [hardy_z(x, cfg) for x in t]
    for x, z_x in zip(t, z):
        if not abs(z_x) > IM_LEAK_LIMIT:
            raise DomainError(
                f"|Z({x})| = {abs(z_x):.3e} is not above the leakage limit "
                f"{IM_LEAK_LIMIT}, so its sign backs no zero count"
            )
    brackets = [
        (a, z_a, b, z_b) for a, z_a, b, z_b in zip(t, z, t[1:], z[1:]) if _holds_zero(z_a, z_b)
    ]
    count = _checked_count(t_max, cfg) - _checked_count(t_min, cfg)
    if len(brackets) != count:
        raise DomainError(
            f"Z changes sign {len(brackets)} times on ({t_min}, {t_max}], but the "
            f"zero count N(t_max) - N(t_min) is {count}"
        )
    records = []
    for k, bracket in enumerate(brackets, start=1):
        lo, hi = _bisect(*bracket, cfg)
        t_zero = 0.5 * (lo + hi)
        rho = complex(0.5, t_zero)
        residual = abs(zeta_hat_reference(rho, cfg))
        records.append(ZeroRecord(k, t_zero, rho, (lo, hi), residual))
    return records
