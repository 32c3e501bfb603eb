"""Dyadic-n sweeps, power-law slope fits, ratio-limit extrapolation, and the
claim-verification report.

Each sweep evaluates one named quantity at n = n0, 2 n0, ..., n0 2^d from a
table of partial sums built by one compensated pass per argument point, then
the fitting/extrapolation helpers quantify the convergence order or limit.
verify_claims runs one claim loop per zero: ``_claims_for_zero`` builds every
report row, each of the nine checks returns only what it measured (expected,
measured, tolerance, pass, detail), and an exception inside a check becomes
that claim's failed row. All nine read one table per zero.

No quantity's formula lives here: ``Quantity``, ``_tables`` and ``_value``
are the registry in ``functional_eq``. This module owns the n grid and its
check, the validity-window shift, the n^(1-2 rho) normalization, the fits
and the claims.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateSeriesError, DomainError
from .euler_maclaurin import EulerMaclaurinConfig, _diverged_error, _remainder_rows
from .functional_eq import (
    Quantity,
    _corrected_prime,
    _corrected_prime_bound,
    _mirror,
    _ratio,
    _tables,
    _value,
    h_hat_exact,
)
from .series import N_CAP, RawSums, raw_sums_at
from .special import complex_pow_base_real
from .zeros import ZeroRecord


@dataclass(frozen=True)
class ConvergenceSeries:
    quantity: Quantity
    rho: complex
    points: tuple[tuple[int, complex], ...]

    def ns(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.points)

    def values(self) -> tuple[complex, ...]:
        return tuple(v for _, v in self.points)


@dataclass(frozen=True)
class SlopeFit:
    exponent: float
    intercept: float
    max_abs_residual: float
    points_used: int


@dataclass(frozen=True)
class RatioLimit:
    limit: complex
    last_delta: float
    points_used: int


@dataclass(frozen=True)
class DerivativeRatioLimit(RatioLimit):
    """The boundary-corrected derivative ratio at the last n of a sweep.

    raw is the uncorrected zeta_hat_n'(rho) / zeta_hat_n'(1-rho) at that n;
    bound is the first omitted Euler-Maclaurin term of each derivative,
    carried to the ratio to first order.
    """

    n: int
    raw: complex
    bound: float


@dataclass(frozen=True)
class SweepPlan:
    """Sweep geometry plus the Euler-Maclaurin config of the window shift."""

    n0: int = 64
    doublings: int = 10
    cfg: EulerMaclaurinConfig = field(default_factory=EulerMaclaurinConfig)

    def __post_init__(self):
        _check_grid(self.n0, self.doublings)


#: the n values of the identity checks (C7, C8)
IDENTITY_NS = (2**8, 2**10, 2**12)
#: the identity checks keep the remainder truncation shallow, so its reported
#: bound dominates rounding and zero-residual floors
IDENTITY_CFG = EulerMaclaurinConfig(depth=1, target_rel_error=0.5)


def _check_grid(n0: int, doublings: int) -> None:
    """DomainError unless n0 is a positive int, doublings an int >= 4 and
    n0 * 2^doublings <= N_CAP; 2^doublings is never built."""
    if not isinstance(n0, int) or isinstance(n0, bool) or n0 < 1:
        raise DomainError(f"n0 must be a positive integer, got {n0!r}")
    if not isinstance(doublings, int) or isinstance(doublings, bool) or doublings < 4:
        raise DomainError(f"a sweep needs at least 4 doublings, got {doublings!r}")
    if n0 > N_CAP >> doublings:
        raise DomainError(f"n0={n0} doubled {doublings} times exceeds the cap {N_CAP}")


def _pow_1_minus_2rho(n: int, rho: complex) -> complex:
    # n^(1-2 rho) = n * n^(-2 rho), exact integer factor up front
    return n * complex_pow_base_real(n, 2.0 * rho)


def _normalized(series: ConvergenceSeries) -> ConvergenceSeries:
    """``series`` with each value divided by n^(1-2 rho), the growth H_hat_n
    and H_n share; DegenerateRatioError where n^(1-2 rho) underflows."""
    points = tuple(
        (n, _ratio(v, _pow_1_minus_2rho(n, series.rho), series.quantity))
        for n, v in series.points
    )
    return ConvergenceSeries(quantity=series.quantity, rho=series.rho, points=points)


def _derivative_ratio(
    rho: complex,
    ns: Sequence[int],
    at_rho: dict[int, RawSums],
    at_mirror: dict[int, RawSums],
) -> DerivativeRatioLimit:
    """``ratio_limit`` of the corrected derivative ratio over ``ns``, with the
    raw ratio and the truncation bound at the last n.

    The bound carries each derivative's omitted term to the ratio to first
    order.
    """
    lim = ratio_limit(
        _series_from_table(Quantity.DERIV_RATIO_CORRECTED, rho, ns, at_rho, at_mirror)
    )
    n = ns[-1]
    rel_err = sum(
        _corrected_prime_bound(z, n) / abs(_corrected_prime(sums[n], z, n))
        for z, sums in ((rho, at_rho), (1.0 - rho, at_mirror))
    )
    return DerivativeRatioLimit(
        limit=lim.limit,
        last_delta=lim.last_delta,
        points_used=lim.points_used,
        n=n,
        raw=_value(Quantity.DERIV_RATIO, rho, n, at_rho, at_mirror),
        bound=abs(lim.limit) * rel_err,
    )


def _window_n0(rho: complex, n0: int, cfg: EulerMaclaurinConfig, stacklevel: int) -> int:
    """Smallest n0 * 2^j that meets the validity window at rho, with one
    warning when j > 0. ``stacklevel`` counts the frames from here to the
    caller of the public function, so the warning names the caller's line.

    Raises DomainError if no such n stays within N_CAP (as for a NaN or
    infinite Im rho).
    """
    n = n0
    while not abs(rho.imag) <= cfg.max_im(n):
        n *= 2
        if n > N_CAP:
            raise DomainError(
                f"no n0 * 2^j <= {N_CAP} meets the validity window for Im z={rho.imag}"
            )
    if n != n0:
        warnings.warn(
            f"n0={n0} violates the validity window for Im z={rho.imag}; "
            f"shifted to n0={n}",
            stacklevel=stacklevel,
        )
    return n


def _dyadic_ns(n0: int, doublings: int) -> list[int]:
    return [n0 * 2**k for k in range(doublings + 1)]


def _series_from_table(
    quantity: Quantity,
    rho: complex,
    ns: Sequence[int],
    at_rho: dict[int, RawSums],
    at_mirror: dict[int, RawSums] | None,
) -> ConvergenceSeries:
    return ConvergenceSeries(
        quantity=quantity,
        rho=rho,
        points=tuple((n, _value(quantity, rho, n, at_rho, at_mirror)) for n in ns),
    )


def sweep(
    quantity: Quantity,
    rho: complex,
    n0: int = 64,
    doublings: int = 10,
    cfg: EulerMaclaurinConfig | None = None,
) -> ConvergenceSeries:
    """Evaluate ``quantity`` at n = n0 * 2^k for k = 0..doublings."""
    return _series_from_table(quantity, *_sweep_table(quantity, rho, n0, doublings, cfg))


def _sweep_table(
    quantity: Quantity,
    rho: complex,
    n0: int,
    doublings: int,
    cfg: EulerMaclaurinConfig | None,
) -> tuple[complex, list[int], dict[int, RawSums], dict[int, RawSums] | None]:
    """rho, the window-shifted dyadic ns, and the sums tables ``quantity``
    reads at rho and, if it needs them, at 1 - rho."""
    _check_grid(n0, doublings)
    rho = complex(rho)
    # the warning's frames: _window_n0, _sweep_table, sweep (or
    # derivative_ratio_limit) and its caller
    ns = _dyadic_ns(_window_n0(rho, n0, cfg or EulerMaclaurinConfig(), 4), doublings)
    return (rho, ns, *_tables(quantity, rho, ns))


def fit_power_law(series: ConvergenceSeries) -> SlopeFit:
    """Least-squares slope of ln|value| against ln n."""
    if len(series.points) < 4:
        raise DegenerateSeriesError("power-law fit needs at least 4 points")
    mods = [abs(v) for v in series.values()]
    if any(m == 0.0 for m in mods):
        raise DegenerateSeriesError("power-law fit hit a zero-modulus point")
    x = np.log(np.array(series.ns(), dtype=float))
    y = np.log(np.array(mods))
    slope, intercept = np.polyfit(x, y, 1)
    resid = np.max(np.abs(y - (slope * x + intercept)))
    return SlopeFit(
        exponent=float(slope),
        intercept=float(intercept),
        max_abs_residual=float(resid),
        points_used=len(series.points),
    )


def ratio_limit(series: ConvergenceSeries) -> RatioLimit:
    """Last-point extrapolation of the series.

    last_delta is the relative change over the final doubling and is always
    reported, however large.
    """
    if len(series.points) < 4:
        raise DegenerateSeriesError("ratio limit needs at least 4 points")
    (_, prev), (_, last) = series.points[-2:]
    denom = abs(last)
    delta = abs(last - prev) / denom if denom > 0 else math.inf
    return RatioLimit(limit=last, last_delta=delta, points_used=len(series.points))


def derivative_ratio_limit(
    rho: complex,
    n0: int = 64,
    doublings: int = 10,
    cfg: EulerMaclaurinConfig | None = None,
) -> DerivativeRatioLimit:
    """Limit of zeta_hat_n'(rho) / zeta_hat_n'(1-rho); compare to -H_hat(rho).

    Each derivative gets the boundary correction of ``_corrected_prime``
    before the ratio is formed; without it the ratio at n carries an
    O((ln n) n^(-1/2)) error, about 1e-2 at n = 2^16.
    """
    return _derivative_ratio(
        *_sweep_table(Quantity.DERIV_RATIO_CORRECTED, rho, n0, doublings, cfg)
    )


@dataclass(frozen=True)
class ClaimResult:
    zero_index: int
    claim: str
    expected: str
    measured: str
    tolerance: float
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "zero_index": self.zero_index,
            "claim": self.claim,
            "expected": self.expected,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "detail": self.detail,
        }


CLAIM_IDS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9")

#: exponent window for the h_2n decay order (target -(1 + sigma) = -3/2)
C1_EXPONENT_RANGE = (-1.65, -1.35)
#: limit tolerances at the sweep's final n
LIMIT_TOL = 1e-3
#: |2^(1-2 rho)| for an on-line zero
C9_TOL = 1e-12
#: identity checks pass within this multiple of the reported truncation bound
IDENTITY_BOUND_FACTOR = 10.0
#: the fit for C1 stops at this n (values beyond it add no order information)
C1_FIT_MAX_N = 2**14


def _fmt(v: complex | float) -> str:
    if isinstance(v, complex):
        return f"{v.real:.9g}{v.imag:+.9g}i"
    return f"{v:.9g}"


def _monotone_final_decrease(devs: Sequence[float], window: int = 4) -> bool:
    # allow one non-monotone step for rounding
    tail = devs[-(window + 1):]
    violations = sum(1 for a, b in zip(tail, tail[1:]) if b >= a)
    return violations <= 1


def verify_claims(
    zeros: Sequence[ZeroRecord], plan: SweepPlan | None = None
) -> list[ClaimResult]:
    """Run the nine convergence/identity claims at every supplied zero.

    Any error inside one claim becomes a failed row carrying the message;
    it never aborts the rest of the report.
    """
    if not zeros:
        raise DomainError("verify_claims needs at least one zero")
    plan = plan or SweepPlan()
    results: list[ClaimResult] = []
    for zr in zeros:
        results.extend(_claims_for_zero(zr, plan))
    return results


def _zero_table(
    rho: complex, plan: SweepPlan
) -> tuple[int, dict[int, RawSums], dict[int, RawSums]]:
    """The window-shifted n0 and every partial sum the claims read at one zero.

    One pass at rho, with the derivative, reaches the dyadic ns and the 2n
    of the C1 fit points (n <= C1_FIT_MAX_N) and of the identity checks;
    the table at 1 - rho (``_mirror``) covers the ns.
    """
    # the warning's frames: _window_n0, _zero_table, _claims_for_zero,
    # verify_claims and its caller
    n0 = _window_n0(rho, plan.n0, plan.cfg, 5)
    ns = _dyadic_ns(n0, plan.doublings)
    doubled = [n for n in ns if n <= C1_FIT_MAX_N] + list(IDENTITY_NS)
    at_rho = raw_sums_at(rho, {*ns, *(2 * n for n in doubled)}, True)
    return n0, at_rho, _mirror(rho, at_rho, ns, True)


#: what one check measured: expected, measured, tolerance, passed, detail
_Measured = tuple[str, str, float, bool, str]


def _within(target: complex | float, value: complex | float, detail: str) -> _Measured:
    """A limit claim: value passes within LIMIT_TOL of target."""
    return _fmt(target), _fmt(value), LIMIT_TOL, abs(value - target) <= LIMIT_TOL, detail


def _claims_for_zero(zr: ZeroRecord, plan: SweepPlan) -> list[ClaimResult]:
    rho = zr.rho
    try:
        built = _zero_table(rho, plan)
    except Exception as exc:  # every check that reads the table reports it
        built = exc

    def table() -> tuple[int, dict[int, RawSums], dict[int, RawSums]]:
        if isinstance(built, Exception):
            raise built
        return built

    def series(quantity: Quantity, doublings: int) -> ConvergenceSeries:
        n0, at_rho, at_mirror = table()
        return _series_from_table(quantity, rho, _dyadic_ns(n0, doublings), at_rho, at_mirror)

    def c1() -> _Measured:
        n0, at_rho, at_mirror = table()
        ns = [n for n in _dyadic_ns(n0, plan.doublings) if n <= C1_FIT_MAX_N]
        fit = fit_power_law(
            _series_from_table(Quantity.SMALL_H_2N, rho, ns, at_rho, at_mirror)
        )
        lo, hi = C1_EXPONENT_RANGE
        detail = f"|h_2n| decay exponent over n<=2^14; max fit residual {fit.max_abs_residual:.2e}"
        return "-1.5", _fmt(fit.exponent), 0.15, lo <= fit.exponent <= hi, detail

    def c2() -> _Measured:
        n_last, v_last = series(Quantity.H_HAT_DOUBLING_RATIO, plan.doublings - 1).points[-1]
        return _within(1.0, abs(v_last), f"|H_hat_2n/H_hat_n| at n={n_last}")

    def c3() -> _Measured:
        ser = _normalized(series(Quantity.H_HAT_N, plan.doublings))
        devs = [abs(v - 1.0) for v in ser.values()]
        n_last, v_last = ser.points[-1]
        ok = devs[-1] <= LIMIT_TOL and _monotone_final_decrease(devs)
        detail = (
            f"H_hat_n/n^(1-2rho) at n={n_last}; deviation {devs[-1]:.3e}; "
            f"final-doubling deviations {['%.2e' % d for d in devs[-5:]]}"
        )
        return "1", _fmt(v_last), LIMIT_TOL, ok, detail

    def c4() -> _Measured:
        ser = series(Quantity.H_N, plan.doublings)
        lim = ratio_limit(_normalized(ser))
        detail = f"H_n/n^(1-2rho) at n={ser.points[-1][0]}; last_delta {lim.last_delta:.3e}"
        return _within(rho / (1.0 - rho), lim.limit, detail)

    def c5() -> _Measured:
        n_last, v_last = series(Quantity.H_N, plan.doublings).points[-1]  # n_last is 2n
        target = rho / (1.0 - rho) * _pow_1_minus_2rho(n_last, rho)
        return _within(target, v_last, f"H_2n vs (rho/(1-rho))(2n)^(1-2rho) at 2n={n_last}")

    def c6() -> _Measured:
        n0, at_rho, at_mirror = table()
        lim = _derivative_ratio(rho, _dyadic_ns(n0, plan.doublings), at_rho, at_mirror)
        target = -h_hat_exact(rho)
        detail = (
            f"boundary-corrected zeta_hat_n'(rho)/zeta_hat_n'(1-rho) at n={lim.n}; "
            f"deviation {abs(lim.limit - target):.3e}; "
            f"raw deviation {abs(lim.raw - target):.3e}; "
            f"truncation bound {lim.bound:.3e}; last_delta {lim.last_delta:.3e}"
        )
        return _within(target, lim.limit, detail)

    @functools.cache  # C7 and C8 share one remainder pass over the (n, 2n) rows
    def remainders() -> tuple[list[list[complex]], list[list[float]]]:
        ns = [m for n in IDENTITY_NS for m in (n, 2 * n)]
        acc, bound, terms, diverged = _remainder_rows(
            np.full(len(ns), rho), np.array(ns), IDENTITY_CFG
        )
        if diverged.any():
            raise _diverged_error(np.flatnonzero(diverged)[0], acc, bound, terms)
        return acc.reshape(-1, 2).tolist(), bound.reshape(-1, 2).tolist()

    def identity(quantity: Quantity, weight: int) -> _Measured:
        """quantity(n) = -weight R_2n + 2^(1-rho) R_n at each identity n."""
        values, bounds = remainders()
        _, at_rho, at_mirror = table()
        two_pow = complex_pow_base_real(2.0, rho - 1.0)  # 2^(1-rho)
        worst = 0.0
        details = []
        for n, (r_n, r_2n), (b_n, b_2n) in zip(IDENTITY_NS, values, bounds):
            lhs = _value(quantity, rho, n, at_rho, at_mirror)
            rhs = -weight * r_2n + two_pow * r_n
            tol = IDENTITY_BOUND_FACTOR * (b_2n + abs(two_pow) * b_n)
            err = abs(lhs - rhs)
            worst = max(worst, err / tol)
            details.append(f"n={n}: err {err:.2e} vs tol {tol:.2e}")
        return "0", _fmt(worst), 1.0, worst <= 1.0, "max |lhs-rhs|/tol; " + "; ".join(details)

    def c9() -> _Measured:
        mod = abs(complex_pow_base_real(2.0, 2.0 * rho - 1.0))  # |2^(1-2rho)|
        ok = abs(mod - 1.0) <= C9_TOL
        return "1", _fmt(mod), C9_TOL, ok, "|2^(1-2rho)| from the located zero"

    c7 = functools.partial(identity, Quantity.SMALL_G_2N, 1)
    c8 = functools.partial(identity, Quantity.SMALL_H_2N, 2)
    rows = []
    for claim, check in zip(CLAIM_IDS, (c1, c2, c3, c4, c5, c6, c7, c8, c9)):
        try:
            measured = check()
        except Exception as exc:  # per-claim containment
            measured = ("", "error", math.nan, False, f"{type(exc).__name__}: {exc}")
        rows.append(ClaimResult(zr.index, claim, *measured))
    return rows
