"""Dyadic-n sweeps, power-law slope fits, ratio-limit extrapolation, and the
claim-verification report.

Each sweep evaluates one named quantity at n = n0, 2 n0, ..., n0 2^d from a
table of partial sums built by one compensated pass per argument point, then
the fitting/extrapolation helpers quantify the convergence order or limit.
One rule, ``_sweep_ns``, sets a sweep's reach for ``sweep`` and
``verify_claims`` alike: n0 doubled until the Hardy-Littlewood window
|Im rho| <= 2 pi n0 / C holds, then doubled d times, refused before any work
if that passes N_CAP.

verify_claims sets every zero's sweep first, then runs one claim loop per
zero: ``_claims_for_zero`` builds every report row, each of the nine checks
returns only what it measured (expected, measured, tolerance, pass, detail),
and an exception inside a check becomes that claim's failed row. All nine
read one table per zero.

No quantity's formula lives here: ``Quantity``, ``_tables`` and ``_value``
are the registry in ``functional_eq``. This module owns the sweep's reach,
the n^(1-2 rho) normalization, the fits and the claims.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import namedtuple
from collections.abc import Sequence

from .errors import DomainError, NumericalError
from .euler_maclaurin import _leading_terms, max_im, remainder_with_bound
from .functional_eq import (
    Quantity,
    _corrected_prime,
    _mirror,
    _ratio,
    _tables,
    _value,
)
from .series import RawSums, raw_sums_at
from .special import N_CAP, ZeroRecord, complex_pow_base_real, h_hat_exact


class ConvergenceSeries(namedtuple("ConvergenceSeries", ("quantity", "rho", "points"))):
    """A Quantity at rho (complex) and its points, a tuple of (n, value) pairs."""

    __slots__ = ()

    def ns(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.points)

    def values(self) -> tuple[complex, ...]:
        return tuple(v for _, v in self.points)


class SlopeFit(namedtuple("SlopeFit", ("exponent", "max_abs_residual"))):
    """The fitted exponent and the largest |residual| of the fit, both floats."""

    __slots__ = ()


class RatioLimit(namedtuple("RatioLimit", ("limit", "last_delta"))):
    """The extrapolated limit (complex) and its last relative change (float)."""

    __slots__ = ()


class SweepPlan(namedtuple("SweepPlan", ("n0", "doublings"), defaults=(64, 10))):
    """Sweep geometry: n0 and doublings (ints), checked by the sweep that reads them."""

    __slots__ = ()


#: the n values of the identity checks (C7, C8)
IDENTITY_NS = (2**8, 2**10, 2**12)


def _pow_1_minus_2rho(n: int, rho: complex) -> complex:
    # n^(1-2 rho) = n * n^(-2 rho), exact integer factor up front
    return n * complex_pow_base_real(n, 2.0 * rho)


def _normalized(series: ConvergenceSeries) -> ConvergenceSeries:
    """``series`` with each value divided by n^(1-2 rho), the growth H_hat_n
    and H_n share; NumericalError where n^(1-2 rho) underflows."""
    points = tuple(
        (n, _ratio(v, _pow_1_minus_2rho(n, series.rho), series.quantity))
        for n, v in series.points
    )
    return series._replace(points=points)


def _c6_bound(
    rho: complex, n: int, at_rho: dict[int, RawSums], at_mirror: dict[int, RawSums], limit: complex
) -> float:
    """The truncation bound of the corrected derivative ratio ``limit`` at n:
    the first omitted Euler-Maclaurin term of each derivative, carried to the
    ratio to first order."""
    rel_err = sum(
        _leading_terms(z, n, derivative=True).bernoulli_prime_mod
        / abs(_corrected_prime(sums[n], z, n))
        for z, sums in ((rho, at_rho), (1.0 - rho, at_mirror))
    )
    return abs(limit) * rel_err


def _check_grid(plan: SweepPlan) -> None:
    """DomainError unless n0 is a positive int, doublings an int >= 4 and
    n0 * 2^doublings <= N_CAP, the dyadic grid a sweep sums to; 2^doublings
    is never built."""
    n0, doublings = plan
    if not isinstance(n0, int) or isinstance(n0, bool) or n0 < 1:
        raise DomainError(f"n0 must be a positive integer, got {n0!r}")
    if not isinstance(doublings, int) or isinstance(doublings, bool) or doublings < 4:
        raise DomainError(f"a sweep needs at least 4 doublings, got {doublings!r}")
    if n0 > N_CAP >> doublings:
        raise DomainError(f"n0={n0} doubled {doublings} times exceeds the cap {N_CAP}")


def _sweep_ns(rho: complex, plan: SweepPlan) -> list[int]:
    """The n of a sweep at rho, for a plan _check_grid passed (n0 = 0 would
    never meet the window): n0 doubled until |Im rho| <= 2 pi n0 / C, the
    validity window, then doubled ``plan.doublings`` times.

    Raises DomainError, before any work, once the shifted n0 passes
    N_CAP >> doublings (as it does for a NaN or infinite Im rho). Warns once
    when n0 moves; only the public functions call this, so the warning names
    their caller's line.
    """
    n0 = plan.n0
    while not abs(rho.imag) <= max_im(n0):
        n0 *= 2
        if n0 > N_CAP >> plan.doublings:
            raise DomainError(
                f"n0={plan.n0} must shift to at least n0={n0} to meet the validity "
                f"window for Im z={rho.imag}; doubled {plan.doublings} times that "
                f"exceeds the cap {N_CAP}"
            )
    if n0 != plan.n0:
        warnings.warn(
            f"n0={plan.n0} violates the validity window for Im z={rho.imag}; "
            f"shifted to n0={n0}",
            stacklevel=3,
        )
    return [n0 << k for k in range(plan.doublings + 1)]


def _series_from_table(
    quantity: Quantity,
    rho: complex,
    ns: Sequence[int],
    at_rho: dict[int, RawSums],
    at_mirror: dict[int, RawSums] | None,
) -> ConvergenceSeries:
    points = tuple((n, _value(quantity, rho, n, at_rho, at_mirror)) for n in ns)
    return ConvergenceSeries(quantity, rho, points)


def sweep(
    quantity: Quantity,
    rho: complex,
    n0: int = 64,
    doublings: int = 10,
) -> ConvergenceSeries:
    """Evaluate ``quantity`` at n = n0 * 2^k for k = 0..doublings."""
    rho = complex(rho)
    plan = SweepPlan(n0, doublings)
    _check_grid(plan)
    ns = _sweep_ns(rho, plan)
    return _series_from_table(quantity, rho, ns, *_tables(quantity, rho, ns))


def fit_power_law(series: ConvergenceSeries) -> SlopeFit:
    """Least-squares slope of ln|value| against ln n, in closed form from the
    centred sums: slope = sum(dx dy) / sum(dx^2), with dx = x - mean(x) and
    dy = y - mean(y). math.log and math.fsum only: no numpy, and each sum is
    correctly rounded, so the fit rounds alike on every Python."""
    if len(series.points) < 4:
        raise DomainError("power-law fit needs at least 4 points")
    mods = [abs(v) for v in series.values()]
    if any(m == 0.0 for m in mods):
        raise NumericalError("power-law fit hit a zero-modulus point")
    if not all(map(math.isfinite, mods)):
        raise NumericalError("power-law fit hit a non-finite point")
    x = [math.log(n) for n in series.ns()]
    y = [math.log(m) for m in mods]
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [v - x_mean for v in x]
    dy = [v - y_mean for v in y]
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / math.fsum(a * a for a in dx)
    resid = max(abs(b - slope * a) for a, b in zip(dx, dy))
    return SlopeFit(slope, resid)


def ratio_limit(series: ConvergenceSeries) -> RatioLimit:
    """Last-point extrapolation of the series.

    last_delta is the relative change over the final doubling and is always
    reported, however large.
    """
    if len(series.points) < 4:
        raise DomainError("ratio limit needs at least 4 points")
    (_, prev), (_, last) = series.points[-2:]
    denom = abs(last)
    delta = abs(last - prev) / denom if denom > 0 else math.inf
    return RatioLimit(limit=last, last_delta=delta)


class ClaimResult(
    namedtuple(
        "ClaimResult",
        ("zero_index", "claim", "expected", "measured", "tolerance", "passed", "detail"),
        defaults=("",),
    )
):
    """One report row: the zero's index (int), the claim id, expected and
    measured as text, the tolerance (float), passed (bool) and a detail text."""

    __slots__ = ()

    def as_dict(self) -> dict:
        """The report row: the fields in order, with passed under the key "pass"."""
        return {("pass" if k == "passed" else k): v for k, v in self._asdict().items()}


CLAIM_IDS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9")

#: the h_2n decay order, -(1 + sigma) = -3/2, and the half-width of its window
C1_EXPONENT, C1_EXPONENT_TOL = -1.5, 0.15
#: exponent window for the h_2n decay order: exactly (-1.65, -1.35) in floats
C1_EXPONENT_RANGE = (C1_EXPONENT - C1_EXPONENT_TOL, C1_EXPONENT + C1_EXPONENT_TOL)
#: limit tolerances at the sweep's final n
LIMIT_TOL = 1e-3
#: |2^(1-2 rho)| for an on-line zero
C9_TOL = 1e-12
#: identity checks pass within this multiple of the reported truncation bound
IDENTITY_BOUND_FACTOR = 10.0
#: the fit for C1 stops at this n (values beyond it add no order information)
C1_FIT_MAX_N = 2**14
#: C3's deviations must fall over the sweep's last this many doublings
C3_WINDOW = 4


def _fmt(v: complex | float) -> str:
    if isinstance(v, complex):
        return f"{v.real:.9g}{v.imag:+.9g}i"
    return f"{v:.9g}"


def _monotone_final_decrease(devs: Sequence[float]) -> bool:
    # allow one non-monotone step for rounding
    tail = devs[-(C3_WINDOW + 1):]
    violations = sum(1 for a, b in zip(tail, tail[1:]) if b >= a)
    return violations <= 1


def verify_claims(
    zeros: Sequence[ZeroRecord], plan: SweepPlan | None = None
) -> list[ClaimResult]:
    """Run the nine convergence/identity claims at every supplied zero.

    The sweep is checked first: a grid _check_grid refuses raises
    DomainError, and so does a zero that no sweep within N_CAP reaches,
    naming the zero, before any work. After that,
    any error inside one claim becomes a failed row carrying the message; it
    never aborts the rest of the report.
    """
    if not zeros:
        raise DomainError("verify_claims needs at least one zero")
    plan = plan or SweepPlan()
    _check_grid(plan)
    sweeps = []
    for zr in zeros:  # not a comprehension: before 3.12 it adds a frame to the warning's stack
        try:
            sweeps.append(_sweep_ns(zr.rho, plan))
        except DomainError as exc:
            raise DomainError(f"zero {zr.index} at t={zr.t}: {exc}") from exc
    return [row for zr, ns in zip(zeros, sweeps) for row in _claims_for_zero(zr, ns)]


def _zero_table(rho: complex, ns: list[int]) -> tuple[dict[int, RawSums], dict[int, RawSums]]:
    """Every partial sum the claims read at one zero, whose sweep is ``ns``.

    One pass at rho, with the derivative, reaches the ns and the 2n of the
    C1 fit points (n <= C1_FIT_MAX_N) and of the identity checks; the table
    at 1 - rho (``_mirror``) covers the ns.
    """
    doubled = [n for n in ns if n <= C1_FIT_MAX_N] + list(IDENTITY_NS)
    at_rho = raw_sums_at(rho, {*ns, *(2 * n for n in doubled)}, True)
    return at_rho, _mirror(rho, at_rho, ns, True)


#: what one check measured: expected, measured, tolerance, passed, detail
_Measured = tuple[str, str, float, bool, str]


def _within(target: complex | float, value: complex | float, detail: str) -> _Measured:
    """A limit claim: value passes within LIMIT_TOL of target."""
    return _fmt(target), _fmt(value), LIMIT_TOL, abs(value - target) <= LIMIT_TOL, detail


def _claims_for_zero(zr: ZeroRecord, ns: list[int]) -> list[ClaimResult]:
    rho = zr.rho
    try:
        built = _zero_table(rho, ns)
    except Exception as exc:  # every check that reads the table reports it
        built = exc

    def table() -> tuple[dict[int, RawSums], dict[int, RawSums]]:
        if isinstance(built, Exception):
            raise built
        return built

    def series(quantity: Quantity, over: list[int] = ns) -> ConvergenceSeries:
        return _series_from_table(quantity, rho, over, *table())

    def c1() -> _Measured:
        fit = fit_power_law(series(Quantity.SMALL_H_2N, [n for n in ns if n <= C1_FIT_MAX_N]))
        lo, hi = C1_EXPONENT_RANGE
        detail = (
            f"|h_2n| decay exponent over n<=2^{C1_FIT_MAX_N.bit_length() - 1}; "
            f"max fit residual {fit.max_abs_residual:.2e}"
        )
        ok = lo <= fit.exponent <= hi
        return _fmt(C1_EXPONENT), _fmt(fit.exponent), C1_EXPONENT_TOL, ok, detail

    def c2() -> _Measured:
        (n, h_n), (_, h_2n) = series(Quantity.H_HAT_N, ns[-2:]).points
        ratio = _ratio(h_2n, h_n, Quantity.H_HAT_N)
        return _within(1.0, abs(ratio), f"|H_hat_2n/H_hat_n| at n={n}")

    def c3() -> _Measured:
        ser = _normalized(series(Quantity.H_HAT_N))
        devs = [abs(v - 1.0) for v in ser.values()]
        n_last, v_last = ser.points[-1]
        ok = devs[-1] <= LIMIT_TOL and _monotone_final_decrease(devs)
        detail = (
            f"H_hat_n/n^(1-2rho) at n={n_last}; deviation {devs[-1]:.3e}; "
            f"final-doubling deviations {['%.2e' % d for d in devs[-(C3_WINDOW + 1):]]}"
        )
        return "1", _fmt(v_last), LIMIT_TOL, ok, detail

    def c4() -> _Measured:
        ser = series(Quantity.H_N)
        lim = ratio_limit(_normalized(ser))
        detail = f"H_n/n^(1-2rho) at n={ser.points[-1][0]}; last_delta {lim.last_delta:.3e}"
        return _within(rho / (1.0 - rho), lim.limit, detail)

    def c5() -> _Measured:
        n_last, v_last = series(Quantity.H_N).points[-1]  # n_last is 2n
        target = rho / (1.0 - rho) * _pow_1_minus_2rho(n_last, rho)
        return _within(target, v_last, f"H_2n vs (rho/(1-rho))(2n)^(1-2rho) at 2n={n_last}")

    def c6() -> _Measured:
        # each derivative is boundary-corrected (_corrected_prime) before the
        # ratio is formed; the raw ratio at n errs by O((ln n) n^(-1/2))
        lim = ratio_limit(series(Quantity.DERIV_RATIO_CORRECTED))
        n = ns[-1]
        bound = _c6_bound(rho, n, *table(), lim.limit)
        raw = _value(Quantity.DERIV_RATIO, rho, n, *table())
        target = -h_hat_exact(rho)
        detail = (
            f"boundary-corrected zeta_hat_n'(rho)/zeta_hat_n'(1-rho) at n={n}; "
            f"deviation {abs(lim.limit - target):.3e}; "
            f"raw deviation {abs(raw - target):.3e}; "
            f"truncation bound {bound:.3e}; last_delta {lim.last_delta:.3e}"
        )
        return _within(target, lim.limit, detail)

    @functools.cache  # C7 and C8 share the remainders at each (n, 2n) pair
    def remainders():
        # the truncation is kept shallow, so its reported bound dominates
        # rounding and zero-residual floors
        return [
            tuple(remainder_with_bound(rho, m, depth=1) for m in (n, 2 * n))
            for n in IDENTITY_NS
        ]

    def identity(quantity: Quantity, weight: int) -> _Measured:
        """quantity(n) = -weight R_2n + 2^(1-rho) R_n at each identity n."""
        pairs = remainders()
        at_rho, at_mirror = table()
        two_pow = complex_pow_base_real(2.0, rho - 1.0)  # 2^(1-rho)
        worst = 0.0
        details = []
        for n, (r_n, r_2n) in zip(IDENTITY_NS, pairs):
            lhs = _value(quantity, rho, n, at_rho, at_mirror)
            rhs = -weight * r_2n.value + two_pow * r_n.value
            tol = IDENTITY_BOUND_FACTOR * (r_2n.bound + abs(two_pow) * r_n.bound)
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
