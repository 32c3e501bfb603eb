"""Dyadic-n sweeps, power-law slope fits, ratio-limit extrapolation, and the
claim-verification report.

Each sweep evaluates one named quantity at n = n0, 2 n0, ..., n0 2^d from a
table of partial sums built by one compensated pass per argument point, then
the fitting/extrapolation helpers quantify the convergence order or limit.
verify_claims aggregates the nine per-zero checks into one report record;
all nine read one table per zero.

No quantity's formula lives here: ``Quantity``, ``_tables`` and ``_value``
are the registry in ``functional_eq``. This module owns the n grid, the
validity-window shift, the fits and the claims.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DegenerateRatioError, DegenerateSeriesError, DomainError
from .euler_maclaurin import (
    EulerMaclaurinConfig,
    ValidityWindow,
    _diverged_error,
    _remainder_rows,
    check_window,
)
from .functional_eq import (
    Quantity,
    _corrected_prime,
    _corrected_prime_bound,
    _tables,
    _value,
    h_hat_exact,
)
from .series import N_CAP, RawSums, raw_sums_at
from .special import complex_pow_base_real
from .zeros import ZeroRecord


class Normalizer(Enum):
    NONE = "none"
    N_POW_1_MINUS_2RHO = "n_pow_1_minus_2rho"


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
    """Sweep geometry plus the two Euler-Maclaurin configs used by claims.

    identity_cfg keeps the remainder truncation shallow so its reported
    bound dominates rounding and zero-residual floors in the identity
    checks; identity_ns are the n values those checks run at.
    """

    n0: int = 64
    doublings: int = 10
    cfg: EulerMaclaurinConfig = field(default_factory=EulerMaclaurinConfig)
    identity_cfg: EulerMaclaurinConfig = field(
        default_factory=lambda: EulerMaclaurinConfig(depth=1, target_rel_error=0.5)
    )
    identity_ns: tuple[int, ...] = (2**8, 2**10, 2**12)


def _pow_1_minus_2rho(n: int, rho: complex) -> complex:
    # n^(1-2 rho) = n * n^(-2 rho), exact integer factor up front
    return n * complex_pow_base_real(n, 2.0 * rho)


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


def _window_n0(rho: complex, n0: int, cfg: EulerMaclaurinConfig) -> int:
    """Smallest n0 * 2^j that meets the validity window at rho, with one
    warning when j > 0.

    Raises DomainError if n0 is not a positive integer or no such n stays
    within N_CAP (as for a NaN or infinite Im rho).
    """
    if not isinstance(n0, int) or isinstance(n0, bool) or n0 < 1:
        raise DomainError(f"n0 must be a positive integer, got {n0!r}")
    window = ValidityWindow(cfg.window_C)
    n = n0
    while not check_window(rho, n, window):
        n *= 2
        if n > N_CAP:
            raise DomainError(
                f"no n0 * 2^j <= {N_CAP} meets the validity window for Im z={rho.imag}"
            )
    if n != n0:
        warnings.warn(
            f"n0={n0} violates the validity window for Im z={rho.imag}; "
            f"shifted to n0={n}",
            stacklevel=4,
        )
    return n


def _dyadic_ns(n0: int, doublings: int) -> list[int]:
    if doublings < 4:
        raise DomainError(f"a sweep needs at least 4 doublings, got {doublings}")
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
    rho = complex(rho)
    ns = _dyadic_ns(_window_n0(rho, n0, cfg or EulerMaclaurinConfig()), doublings)
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


def doubling_ratio(series: ConvergenceSeries) -> ConvergenceSeries:
    """(n, value(2n) / value(n)) for every n whose double is also present."""
    by_n = dict(series.points)
    pairs = [
        (n, by_n[2 * n] / by_n[n]) for n in series.ns() if 2 * n in by_n
    ]
    if len(pairs) < 4:
        raise DegenerateSeriesError(
            "doubling ratio needs n and 2n entries for at least 4 values of n"
        )
    mapped = {
        Quantity.H_HAT_N: Quantity.H_HAT_DOUBLING_RATIO,
        Quantity.H_N: Quantity.H_DOUBLING_RATIO,
    }.get(series.quantity, series.quantity)
    return ConvergenceSeries(quantity=mapped, rho=series.rho, points=tuple(pairs))


def ratio_limit(
    series: ConvergenceSeries, normalizer: Normalizer = Normalizer.NONE
) -> RatioLimit:
    """Last-point extrapolation of the (optionally normalized) series.

    last_delta is the relative change over the final doubling and is always
    reported, however large.
    """
    if len(series.points) < 4:
        raise DegenerateSeriesError("ratio limit needs at least 4 points")
    if normalizer is Normalizer.N_POW_1_MINUS_2RHO:
        scaled = []
        for n, v in series.points:
            w = _pow_1_minus_2rho(n, series.rho)
            if abs(w) < 1e-300:
                raise DegenerateRatioError("normalizer underflowed")
            scaled.append(v / w)
    else:
        scaled = [v for _, v in series.points]
    last, prev = scaled[-1], scaled[-2]
    denom = abs(last)
    delta = abs(last - prev) / denom if denom > 0 else math.inf
    return RatioLimit(limit=last, last_delta=delta, points_used=len(scaled))


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


def _conjugate(sums: RawSums) -> RawSums:
    return RawSums(*(None if v is None else v.conjugate() for v in sums))


def _zero_table(
    rho: complex, plan: SweepPlan
) -> tuple[int, dict[int, RawSums], dict[int, RawSums]]:
    """The window-shifted n0 and every partial sum the claims read at one zero.

    One pass at rho, with the derivative, reaches the dyadic ns and the 2n
    of the C1 fit points (n <= C1_FIT_MAX_N) and of the identity checks.
    On the critical line 1 - rho is exactly conj(rho), and every term of the
    pass is conjugated exactly (cos is even, sin odd, Sum2 and fsum are
    sign-symmetric), so the table at 1 - rho is the conjugate of the one at
    rho; off the line 1 - rho gets its own pass over the ns.
    """
    n0 = _window_n0(rho, plan.n0, plan.cfg)
    ns = [n0 * 2**k for k in range(plan.doublings + 1)]
    doubled = [n for n in ns if n <= C1_FIT_MAX_N] + list(plan.identity_ns)
    at_rho = raw_sums_at(rho, {*ns, *(2 * n for n in doubled)}, True)
    if rho.real == 0.5:
        at_mirror = {n: _conjugate(at_rho[n]) for n in ns}
    else:
        at_mirror = raw_sums_at(1.0 - rho, ns, True)
    return n0, at_rho, at_mirror


def _claims_for_zero(zr: ZeroRecord, plan: SweepPlan) -> list[ClaimResult]:
    rho = zr.rho
    rows: list[ClaimResult] = []
    try:
        n0, at_rho, at_mirror = _zero_table(rho, plan)
        table_error = None
    except Exception as exc:  # every claim that reads the table reports it
        table_error = exc

    @functools.cache  # C4 and C5 share one H_n series
    def series(quantity: Quantity, doublings: int) -> ConvergenceSeries:
        if table_error is not None:
            raise table_error
        ns = _dyadic_ns(n0, doublings)
        return _series_from_table(quantity, rho, ns, at_rho, at_mirror)

    def run(claim: str, fn) -> None:
        try:
            rows.append(fn())
        except Exception as exc:  # per-claim containment
            rows.append(
                ClaimResult(
                    zero_index=zr.index,
                    claim=claim,
                    expected="",
                    measured="error",
                    tolerance=math.nan,
                    passed=False,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )

    def c1() -> ClaimResult:
        if table_error is not None:
            raise table_error
        ns = [n for n in _dyadic_ns(n0, plan.doublings) if n <= C1_FIT_MAX_N]
        fit = fit_power_law(
            _series_from_table(Quantity.SMALL_H_2N, rho, ns, at_rho, at_mirror)
        )
        lo, hi = C1_EXPONENT_RANGE
        return ClaimResult(
            zero_index=zr.index,
            claim="C1",
            expected="-1.5",
            measured=_fmt(fit.exponent),
            tolerance=0.15,
            passed=lo <= fit.exponent <= hi,
            detail=f"|h_2n| decay exponent over n<=2^14; max fit residual {fit.max_abs_residual:.2e}",
        )

    def c2() -> ClaimResult:
        ratios = series(Quantity.H_HAT_DOUBLING_RATIO, plan.doublings - 1)
        n_last, v_last = ratios.points[-1]
        dev = abs(abs(v_last) - 1.0)
        return ClaimResult(
            zero_index=zr.index,
            claim="C2",
            expected="1",
            measured=_fmt(abs(v_last)),
            tolerance=LIMIT_TOL,
            passed=dev <= LIMIT_TOL,
            detail=f"|H_hat_2n/H_hat_n| at n={n_last}",
        )

    def c3() -> ClaimResult:
        ser = series(Quantity.H_HAT_N, plan.doublings)
        devs = [
            abs(v / _pow_1_minus_2rho(n, rho) - 1.0) for n, v in ser.points
        ]
        n_last = ser.points[-1][0]
        ok = devs[-1] <= LIMIT_TOL and _monotone_final_decrease(devs)
        return ClaimResult(
            zero_index=zr.index,
            claim="C3",
            expected="1",
            measured=_fmt(ser.points[-1][1] / _pow_1_minus_2rho(n_last, rho)),
            tolerance=LIMIT_TOL,
            passed=ok,
            detail=(
                f"H_hat_n/n^(1-2rho) at n={n_last}; deviation {devs[-1]:.3e}; "
                f"final-doubling deviations {['%.2e' % d for d in devs[-5:]]}"
            ),
        )

    def c4() -> ClaimResult:
        ser = series(Quantity.H_N, plan.doublings)
        lim = ratio_limit(ser, Normalizer.N_POW_1_MINUS_2RHO)
        target = rho / (1.0 - rho)
        dev = abs(lim.limit - target)
        return ClaimResult(
            zero_index=zr.index,
            claim="C4",
            expected=_fmt(target),
            measured=_fmt(lim.limit),
            tolerance=LIMIT_TOL,
            passed=dev <= LIMIT_TOL,
            detail=f"H_n/n^(1-2rho) at n={ser.points[-1][0]}; last_delta {lim.last_delta:.3e}",
        )

    def c5() -> ClaimResult:
        ser = series(Quantity.H_N, plan.doublings)
        n_last, v_last = ser.points[-1]  # n_last plays the role of 2n
        target = rho / (1.0 - rho) * _pow_1_minus_2rho(n_last, rho)
        dev = abs(v_last - target)
        return ClaimResult(
            zero_index=zr.index,
            claim="C5",
            expected=_fmt(target),
            measured=_fmt(v_last),
            tolerance=LIMIT_TOL,
            passed=dev <= LIMIT_TOL,
            detail=f"H_2n vs (rho/(1-rho))(2n)^(1-2rho) at 2n={n_last}",
        )

    def c6() -> ClaimResult:
        if table_error is not None:
            raise table_error
        lim = _derivative_ratio(
            rho, _dyadic_ns(n0, plan.doublings), at_rho, at_mirror
        )
        target = -h_hat_exact(rho)
        dev = abs(lim.limit - target)
        return ClaimResult(
            zero_index=zr.index,
            claim="C6",
            expected=_fmt(target),
            measured=_fmt(lim.limit),
            tolerance=LIMIT_TOL,
            passed=dev <= LIMIT_TOL,
            detail=(
                f"boundary-corrected zeta_hat_n'(rho)/zeta_hat_n'(1-rho) at n={lim.n}; "
                f"deviation {dev:.3e}; raw deviation {abs(lim.raw - target):.3e}; "
                f"truncation bound {lim.bound:.3e}; last_delta {lim.last_delta:.3e}"
            ),
        )

    @functools.cache  # C7 and C8 share one remainder pass over the (n, 2n) rows
    def remainders() -> tuple[list[list[complex]], list[list[float]]]:
        ns = [m for n in plan.identity_ns for m in (n, 2 * n)]
        acc, bound, terms, diverged = _remainder_rows(
            np.full(len(ns), rho), np.array(ns), plan.identity_cfg
        )
        if diverged.any():
            raise _diverged_error(np.flatnonzero(diverged)[0], acc, bound, terms)
        return acc.reshape(-1, 2).tolist(), bound.reshape(-1, 2).tolist()

    def _identity_claim(claim: str, quantity: Quantity, rhs_fn) -> ClaimResult:
        worst = 0.0
        details = []
        values, bounds = remainders()
        if table_error is not None:
            raise table_error
        for n, (r_n, r_2n), (b_n, b_2n) in zip(plan.identity_ns, values, bounds):
            lhs = _value(quantity, rho, n, at_rho, at_mirror)
            rhs = rhs_fn(r_n, r_2n)
            tol = IDENTITY_BOUND_FACTOR * (
                b_2n + abs(complex_pow_base_real(2.0, rho - 1.0)) * b_n
            )
            err = abs(lhs - rhs)
            worst = max(worst, err / tol)
            details.append(f"n={n}: err {err:.2e} vs tol {tol:.2e}")
        return ClaimResult(
            zero_index=zr.index,
            claim=claim,
            expected="0",
            measured=_fmt(worst),
            tolerance=1.0,
            passed=worst <= 1.0,
            detail="max |lhs-rhs|/tol; " + "; ".join(details),
        )

    def c7() -> ClaimResult:
        two_pow = complex_pow_base_real(2.0, rho - 1.0)  # 2^(1-rho)
        return _identity_claim(
            "C7",
            Quantity.SMALL_G_2N,
            lambda r_n, r_2n: -r_2n + two_pow * r_n,
        )

    def c8() -> ClaimResult:
        two_pow = complex_pow_base_real(2.0, rho - 1.0)
        return _identity_claim(
            "C8",
            Quantity.SMALL_H_2N,
            lambda r_n, r_2n: -2.0 * r_2n + two_pow * r_n,
        )

    def c9() -> ClaimResult:
        mod = abs(complex_pow_base_real(2.0, 2.0 * rho - 1.0))  # |2^(1-2rho)|
        return ClaimResult(
            zero_index=zr.index,
            claim="C9",
            expected="1",
            measured=_fmt(mod),
            tolerance=C9_TOL,
            passed=abs(mod - 1.0) <= C9_TOL,
            detail="|2^(1-2rho)| from the located zero",
        )

    for claim, fn in zip(CLAIM_IDS, (c1, c2, c3, c4, c5, c6, c7, c8, c9)):
        run(claim, fn)
    return rows
