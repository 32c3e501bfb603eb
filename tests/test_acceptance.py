"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line before asserting, so the suite
output doubles as the acceptance report. Criterion 6 measures the limit of
the derivative ratio: each regularized derivative gets the derivative of the
n^(-z)/2 Euler-Maclaurin boundary term before the ratio is formed. The raw
ratio still carries that term and is off by 9.1e-3 to 3.1e-2 at n = 2^16
(4.3e-4 to 2.9e-3 at n = 2^24); the claim row reports it alongside.
DESIGN.md gives the reasons for checking the corrected ratio.
"""

import math
import time

import pytest

from zetascope.convergence import (
    ConvergenceSeries,
    Quantity,
    fit_power_law,
    sweep,
)
from zetascope.euler_maclaurin import zeta_hat_reference
from zetascope.series import zeta_hat_partial
from zetascope.special import complex_pow_base_real, h_hat_exact

from conftest import KNOWN_ZERO_T

PI2_6 = math.pi**2 / 6.0


def _announce(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _claim_rows(report, claim):
    return [r for r in report if r.claim == claim]


def _strip_grid(count: int = 200):
    """Deterministic strip points, excluding 0.05-neighborhoods of zeros."""
    res = [0.1 + 0.08 * k for k in range(11)]
    ims = [-49.7 + 4.03 * k for k in range(25)]
    pts = []
    for im in ims:
        if min(abs(abs(im) - t0) for t0 in KNOWN_ZERO_T) <= 0.05:
            continue
        for re in res:
            pts.append(complex(re, im))
            if len(pts) == count:
                return pts
    return pts


def test_criterion_1_functional_equation_residual():
    start = time.perf_counter()
    pts = _strip_grid()
    assert len(pts) == 200
    worst = 0.0
    for z in pts:
        lhs = zeta_hat_reference(z)
        rhs = h_hat_exact(z) * zeta_hat_reference(1.0 - z)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed <= 30.0
    _announce(1, ok, f"worst residual {worst:.2e} over 200 points in {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed <= 30.0


def test_criterion_2_zero_scan(scanned_zeros):
    records, elapsed = scanned_zeros
    residuals = [
        max(abs(zeta_hat_reference(r.rho)), abs(zeta_hat_reference(1.0 - r.rho)))
        for r in records
    ]
    ok = len(records) == 10 and max(residuals) <= 1e-8 and elapsed <= 60.0
    _announce(
        2,
        ok,
        f"{len(records)} zeros in (10, 50), worst residual "
        f"{max(residuals):.2e}, scan {elapsed:.1f}s",
    )
    assert len(records) == 10
    assert max(residuals) <= 1e-8
    assert elapsed <= 60.0


def test_criterion_3_h2n_decay_exponent(claim_report):
    rows = _claim_rows(claim_report, "C1")
    exps = [float(r.measured) for r in rows]
    ok = len(rows) == 10 and all(r.passed for r in rows)
    _announce(3, ok, f"|h_2n| exponents in [{min(exps):.3f}, {max(exps):.3f}], "
                     "target window [-1.65, -1.35]")
    assert ok, rows


def test_criterion_4_regularized_ratio_limit(claim_report):
    rows = _claim_rows(claim_report, "C3")
    ok = len(rows) == 10 and all(r.passed for r in rows)
    _announce(4, ok, "H_hat_n / n^(1-2rho) within 1e-3 of 1 at n=2^16, "
                     "monotone over the final doublings, at all 10 zeros")
    assert ok, [r.detail for r in rows if not r.passed]


def test_criterion_5_raw_ratio_limit(claim_report):
    rows = _claim_rows(claim_report, "C4")
    ok = len(rows) == 10 and all(r.passed for r in rows)
    _announce(5, ok, "H_n / n^(1-2rho) within 1e-3 of rho/(1-rho) at n=2^16 "
                     "at all 10 zeros")
    assert ok, [r.detail for r in rows if not r.passed]


def test_criterion_6_derivative_ratio(claim_report):
    rows = _claim_rows(claim_report, "C6")
    devs = []
    for r in rows:
        # deviation is embedded in the detail string; recover the number
        frag = r.detail.split("deviation ")[1].split(";")[0]
        devs.append(float(frag))
    ok = all(r.passed for r in rows)
    _announce(
        6,
        ok,
        f"derivative ratio vs -H_hat(rho): deviations "
        f"[{min(devs):.2e}, {max(devs):.2e}] at n=2^16 against tolerance 1e-3 "
        "(boundary-corrected ratio)",
    )
    assert ok, [r.detail for r in rows if not r.passed]


def test_criterion_7_doubling_ratio(claim_report):
    rows = _claim_rows(claim_report, "C2")
    ok = len(rows) == 10 and all(r.passed for r in rows)
    _announce(7, ok, "|H_hat_2n / H_hat_n| within 1e-3 of 1 at n=2^15 "
                     "at all 10 zeros")
    assert ok, [r.detail for r in rows if not r.passed]


def test_criterion_8_identities_within_bound(claim_report):
    rows = _claim_rows(claim_report, "C7") + _claim_rows(claim_report, "C8")
    ok = len(rows) == 20 and all(r.passed for r in rows)
    _announce(8, ok, "g_2n and h_2n remainder identities within 10x the "
                     "reported truncation bound at n in {2^8, 2^10, 2^12}")
    assert ok, [r.detail for r in rows if not r.passed]


def test_criterion_9_negative_control():
    z = complex(0.5, 13.0)  # on the line, not a zero
    ser = sweep(Quantity.ZETA_HAT_AT_RHO, z, 64, 10)
    exponent = fit_power_law(ser).exponent
    n_last, v_last = ser.points[-1]
    # the criterion-4 style check must fail here
    mirror = zeta_hat_partial(1.0 - z, n_last)
    norm = n_last * complex_pow_base_real(n_last, 2.0 * z)
    dev = abs((v_last / mirror) / norm - 1.0)
    ok = exponent >= -0.1 and dev > 1e-3
    _announce(9, ok, f"non-zero point: sweep exponent {exponent:.3f} (>= -0.1), "
                     f"limit-check deviation {dev:.2e} (> 1e-3 as required)")
    assert exponent >= -0.1
    assert dev > 1e-3


def test_criterion_10_oracle_equivalence():
    a = abs(zeta_hat_reference(2.0 + 0.0j) - PI2_6)
    b = abs(h_hat_exact(0.5 + 0.0j) - 1.0)
    exact = all(zeta_hat_partial(0.0 + 0.0j, n) == 0.0 + 0.0j for n in (1, 10, 1000))
    ok = a <= 1e-12 and b <= 1e-12 and exact
    _announce(10, ok, f"reference at 2 off by {a:.1e}, factor at 1/2 off by "
                      f"{b:.1e}, regularized sum exactly 0 at the origin")
    assert a <= 1e-12
    assert b <= 1e-12
    assert exact
