import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from zetascope.convergence import (
    C1_FIT_MAX_N,
    CLAIM_IDS,
    IDENTITY_CFG,
    IDENTITY_NS,
    LIMIT_TOL,
    ClaimResult,
    ConvergenceSeries,
    Quantity,
    SlopeFit,
    SweepPlan,
    fit_power_law,
    ratio_limit,
    sweep,
    verify_claims,
    _c6_bound,
    _claims_for_zero,
    _monotone_final_decrease,
    _normalized,
    _series_from_table,
    _sweep_ns,
    _value,
    _zero_table,
)
from zetascope import convergence, functional_eq, series
from zetascope.cli import read_zeros_csv
from zetascope.errors import DegenerateRatioError, DegenerateSeriesError, DomainError
from zetascope.euler_maclaurin import remainder_with_bound
from zetascope.functional_eq import h_hat_exact, h_hat_n, small_g_2n, small_h_2n
from zetascope.series import N_CAP, raw_sums_at, zeta_hat_partial
from zetascope.special import complex_pow_base_real
from zetascope.zeros import ZeroRecord

from conftest import KNOWN_ZERO_T, RHO_1

GOLDEN = Path(__file__).resolve().parent / "golden"


def synthetic_series(exponent: float, n0: int = 64, count: int = 8):
    pts = tuple(
        (n0 * 2**k, complex((n0 * 2**k) ** exponent, 0.0)) for k in range(count)
    )
    return ConvergenceSeries(quantity=Quantity.SMALL_H_2N, rho=RHO_1, points=pts)


class TestSweep:
    def test_geometry(self):
        ser = sweep(Quantity.ZETA_HAT_AT_RHO, RHO_1, n0=64, doublings=5)
        assert ser.ns() == tuple(64 * 2**k for k in range(6))

    def test_matches_direct_evaluation(self):
        ser = sweep(Quantity.ZETA_HAT_AT_RHO, RHO_1, n0=64, doublings=4)
        for n, v in ser.points:
            assert v == pytest.approx(zeta_hat_partial(RHO_1, n), rel=1e-13)

    def test_composite_matches_direct(self):
        ser = sweep(Quantity.SMALL_H_2N, RHO_1, n0=64, doublings=4)
        for n, v in ser.points:
            assert v == pytest.approx(small_h_2n(RHO_1, n), rel=1e-12)

    def test_requires_four_doublings(self):
        with pytest.raises(DomainError):
            sweep(Quantity.H_N, RHO_1, n0=64, doublings=3)

    def test_window_violation_shifts_n0(self):
        with pytest.warns(UserWarning, match="validity window"):
            ser = sweep(Quantity.ZETA_HAT_AT_RHO, complex(0.5, 40.0), n0=2, doublings=4)
        # 2 pi n / C >= 40 with C = 2 first holds at n = 16
        assert ser.ns()[0] == 16

    def test_window_shift_warns_once(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep(Quantity.ZETA_HAT_AT_RHO, complex(0.5, 40.0), n0=2, doublings=4)
        assert len(caught) == 1
        assert "shifted to n0=16" in str(caught[0].message)

    @pytest.mark.parametrize("im", [math.nan, math.inf, -math.inf])
    def test_non_finite_ordinate_stops_at_cap(self, im):
        with pytest.raises(DomainError, match="validity window"):
            sweep(Quantity.ZETA_HAT_AT_RHO, complex(0.5, im), n0=64, doublings=4)

    @pytest.mark.parametrize("n0", [0, -4, True])
    def test_bad_n0_rejected(self, n0):
        with pytest.raises(DomainError):
            sweep(Quantity.ZETA_HAT_AT_RHO, RHO_1, n0=n0, doublings=4)

    @pytest.mark.parametrize("n0,doublings", [(64, 100_000), (64, 19), (N_CAP, 4), (64, 4.0)])
    def test_grid_checked_before_any_work(self, n0, doublings):
        # 2^100000 is never built: the check compares n0 with N_CAP >> doublings
        with pytest.raises(DomainError):
            sweep(Quantity.ZETA_HAT_AT_RHO, RHO_1, n0=n0, doublings=doublings)
        with pytest.raises(DomainError):
            SweepPlan(n0=n0, doublings=doublings)

    def test_grid_reaching_the_cap_is_accepted(self):
        assert SweepPlan(n0=64, doublings=18).doublings == 18
        assert _sweep_ns(RHO_1, SweepPlan(n0=N_CAP >> 4, doublings=4))[-1] == N_CAP


class TestFitting:
    def test_exact_power_law_recovered(self):
        fit = fit_power_law(synthetic_series(-1.5))
        assert fit.exponent == pytest.approx(-1.5, abs=1e-12)
        assert fit.max_abs_residual < 1e-12

    def test_too_few_points(self):
        short = ConvergenceSeries(
            quantity=Quantity.H_N, rho=RHO_1, points=((64, 1.0 + 0.0j),) * 3
        )
        with pytest.raises(DegenerateSeriesError):
            fit_power_law(short)

    def test_zero_modulus_rejected(self):
        pts = ((64, 1.0 + 0.0j), (128, 0.0 + 0.0j), (256, 1.0 + 0.0j), (512, 1.0 + 0.0j))
        bad = ConvergenceSeries(quantity=Quantity.H_N, rho=RHO_1, points=pts)
        with pytest.raises(DegenerateSeriesError):
            fit_power_law(bad)

    def test_observed_order_at_first_zero(self):
        ser = sweep(Quantity.SMALL_H_2N, RHO_1, n0=64, doublings=8)
        fit = fit_power_law(ser)
        assert -1.65 <= fit.exponent <= -1.35

    @pytest.mark.parametrize("t", KNOWN_ZERO_T)
    def test_closed_form_agrees_with_polyfit(self, t):
        # C1's series: |h_2n| at n = 64 .. 2^14; np.polyfit is the reference
        ser = sweep(Quantity.SMALL_H_2N, complex(0.5, t), n0=64, doublings=8)
        x = np.log(np.array(ser.ns(), dtype=float))
        y = np.log(np.array([abs(v) for v in ser.values()]))
        slope, intercept = np.polyfit(x, y, 1)
        fit = fit_power_law(ser)
        assert fit.exponent == pytest.approx(slope, rel=0, abs=1e-12)
        resid = np.max(np.abs(y - (slope * x + intercept)))
        assert fit.max_abs_residual == pytest.approx(resid, rel=0, abs=1e-12)

    def test_c1_passes_without_lapack(self, monkeypatch):
        # the fit is closed form, so a verify process never initialises LAPACK
        def no_lapack(*args, **kwargs):
            raise AssertionError("the C1 fit called LAPACK")

        monkeypatch.setattr(np, "polyfit", no_lapack)
        monkeypatch.setattr(np.linalg, "lstsq", no_lapack)
        t = KNOWN_ZERO_T[0]
        rows = verify_claims([ZeroRecord(1, t, RHO_1, (t, t), 0.0)])
        assert rows[0].claim == "C1"
        assert rows[0].passed, rows[0].detail


class TestRatioLimit:
    def test_plain_last_point(self):
        pts = tuple(
            (64 * 2**k, complex(1.0 + 2.0**-k, 0.0)) for k in range(6)
        )
        ser = ConvergenceSeries(quantity=Quantity.H_N, rho=RHO_1, points=pts)
        lim = ratio_limit(ser)
        assert lim.limit == pts[-1][1]
        assert lim.last_delta == pytest.approx(2.0**-5 / (1.0 + 2.0**-5), rel=1e-12)

    def test_normalized_limit_at_first_zero(self):
        ser = sweep(Quantity.H_N, RHO_1, n0=64, doublings=10)
        lim = ratio_limit(_normalized(ser))
        target = RHO_1 / (1.0 - RHO_1)
        assert abs(lim.limit - target) < 1e-3

    def test_normalization_underflow_is_guarded(self):
        # n^(1-2 rho) underflows to 0 at rho = 300, n = 2^24
        ser = ConvergenceSeries(quantity=Quantity.H_N, rho=300 + 0j, points=((2**24, 1 + 0j),))
        with pytest.raises(DegenerateRatioError):
            _normalized(ser)

    def test_too_few_points(self):
        ser = ConvergenceSeries(
            quantity=Quantity.H_N, rho=RHO_1, points=((64, 1.0 + 0.0j),)
        )
        with pytest.raises(DegenerateSeriesError):
            ratio_limit(ser)


class TestDerivativeRatio:
    """C6's values at n = 2^16: the limit of the corrected ratio's sweep, the
    raw ratio's last point and the truncation bound."""

    def test_limit_near_negated_factor(self):
        # the boundary-corrected ratio meets the claim tolerance at n = 2^16
        ser = sweep(Quantity.DERIV_RATIO_CORRECTED, RHO_1, 64, 10)
        assert ser.ns()[-1] == 2**16
        assert abs(ratio_limit(ser).limit - (-h_hat_exact(RHO_1))) <= LIMIT_TOL

    def test_error_within_truncation_bound(self):
        # the Euler-Maclaurin error model: the first omitted term accounts
        # for the deviation, which the raw ratio exceeds by orders
        ns = _sweep_ns(RHO_1, SweepPlan())
        table = _zero_table(RHO_1, ns)
        n = ns[-1]
        limit = _value(Quantity.DERIV_RATIO_CORRECTED, RHO_1, n, *table)
        raw = _value(Quantity.DERIV_RATIO, RHO_1, n, *table)
        bound = _c6_bound(RHO_1, n, *table, limit)
        target = -h_hat_exact(RHO_1)
        assert abs(limit - target) <= bound < 1e-5
        assert abs(raw - target) > 1e3 * bound

    def test_raw_ratio_misses_the_claim_tolerance(self):
        # the uncorrected ratio keeps its (ln n) n^(-1/2) envelope, about
        # 1e-2 at n = 2^16, so it cannot meet C6's tolerance there
        n, raw = sweep(Quantity.DERIV_RATIO, RHO_1, 64, 10).points[-1]
        assert n == 2**16
        assert abs(raw - (-h_hat_exact(RHO_1))) > 5 * LIMIT_TOL

    def test_c6_row_reads_the_sweeps_and_the_bound(self):
        lim = ratio_limit(sweep(Quantity.DERIV_RATIO_CORRECTED, RHO_1, 64, 10))
        raw = sweep(Quantity.DERIV_RATIO, RHO_1, 64, 10).points[-1][1]
        ns = _sweep_ns(RHO_1, SweepPlan())
        bound = _c6_bound(RHO_1, ns[-1], *_zero_table(RHO_1, ns), lim.limit)
        target = -h_hat_exact(RHO_1)
        row = _claims_for_zero(_zero(RHO_1.imag), ns)[CLAIM_IDS.index("C6")]
        assert row.passed
        assert row.measured == convergence._fmt(lim.limit)
        assert row.detail == (
            f"boundary-corrected zeta_hat_n'(rho)/zeta_hat_n'(1-rho) at n={2**16}; "
            f"deviation {abs(lim.limit - target):.3e}; "
            f"raw deviation {abs(raw - target):.3e}; "
            f"truncation bound {bound:.3e}; last_delta {lim.last_delta:.3e}"
        )


class TestVerifyClaims:
    def test_report_shape(self, claim_report, scanned_zeros):
        records, _ = scanned_zeros
        assert len(claim_report) == 9 * len(records)
        for i, rec in enumerate(records):
            chunk = claim_report[9 * i : 9 * (i + 1)]
            assert [row.claim for row in chunk] == list(CLAIM_IDS)
            assert all(row.zero_index == rec.index for row in chunk)

    def test_rows_carry_detail(self, claim_report):
        assert all(row.detail for row in claim_report)
        assert all(row.measured for row in claim_report)

    def test_unit_modulus_claim_everywhere(self, claim_report):
        assert all(row.passed for row in claim_report if row.claim == "C9")

    def test_identity_claims_within_bounds(self, claim_report):
        for row in claim_report:
            if row.claim in ("C7", "C8"):
                assert row.passed, row.detail

    def test_as_dict_keys(self, claim_report):
        d = claim_report[0].as_dict()
        assert set(d) == {
            "zero_index", "claim", "expected", "measured",
            "tolerance", "pass", "detail",
        }

    def test_as_dict_is_the_report_row_in_field_order(self, claim_report):
        row = claim_report[0]
        d = row.as_dict()
        assert list(d) == [
            "zero_index", "claim", "expected", "measured", "tolerance", "pass", "detail",
        ]
        assert (d["claim"], d["pass"], d["detail"]) == (row.claim, row.passed, row.detail)

    def test_requires_zeros(self):
        with pytest.raises(DomainError):
            verify_claims([])

    def test_error_containment(self, scanned_zeros, monkeypatch):
        # a table build that raises must yield failed rows, not an exception
        def broken(rho, ns):
            raise DomainError("table build failed")

        monkeypatch.setattr(convergence, "_zero_table", broken)
        records, _ = scanned_zeros
        rows = verify_claims(records[:1])
        assert len(rows) == 9
        assert all(isinstance(r, ClaimResult) for r in rows)
        assert all(
            (r.passed, r.measured, r.detail) == (False, "error", "DomainError: table build failed")
            for r in rows[:8]
        )
        assert rows[8].passed

    def test_c2_at_four_doublings_measures_the_ratio(self, scanned_zeros):
        # C2 reads H_hat at the sweep's last two n and names the lower, n0 * 2^3
        records, _ = scanned_zeros
        rows = verify_claims(records[:1], SweepPlan(n0=64, doublings=4))
        c2 = rows[CLAIM_IDS.index("C2")]
        assert c2.measured != "error"
        assert c2.detail == f"|H_hat_2n/H_hat_n| at n={64 * 2**3}"
        assert abs(float(c2.measured) - 1.0) <= LIMIT_TOL


def _zero(t: float, index: int = 1) -> ZeroRecord:
    return ZeroRecord(index=index, t=t, rho=complex(0.5, t), bracket=(t, t), residual=0.0)


def _count_passes(monkeypatch) -> list[complex]:
    """The z of every raw_sums_at pass from here on, in every module that
    binds the function."""
    calls = []

    def counting(z, checkpoints, include_derivative=False):
        calls.append(z)
        return raw_sums_at(z, checkpoints, include_derivative)

    for module in (series, functional_eq, convergence):
        monkeypatch.setattr(module, "raw_sums_at", counting)
    return calls


class TestSharedTable:
    def test_table_series_equal_standalone_sweeps(self):
        plan = SweepPlan()
        ns = _sweep_ns(RHO_1, plan)
        at_rho, at_mirror = _zero_table(RHO_1, ns)
        n0 = ns[0]
        assert max(at_rho) == n0 * 2**plan.doublings
        doubled = (Quantity.SMALL_H_2N, Quantity.SMALL_G_2N)
        for quantity in Quantity:
            # the table holds 2n at rho only up to C1's fit range
            last = plan.doublings
            if quantity in doubled:
                last = (C1_FIT_MAX_N // n0).bit_length() - 1
            for doublings in (last - 1, last):
                shared = _series_from_table(
                    quantity, RHO_1, ns[: doublings + 1], at_rho, at_mirror
                )
                alone = sweep(quantity, RHO_1, plan.n0, doublings, plan.cfg)
                assert shared == alone, (quantity, doublings)

    @pytest.mark.parametrize("t", [14.134725141734694, 49.773832477672302, 77.1448400688748])
    def test_mirror_table_is_the_conjugate_bit_for_bit(self, t):
        rho = complex(0.5, t)
        ns = _sweep_ns(rho, SweepPlan())
        at_rho, at_mirror = _zero_table(rho, ns)
        alone = raw_sums_at(1 - rho, ns, True)
        assert sorted(at_mirror) == ns
        for n in ns:
            for got, want in zip(at_mirror[n], alone[n]):
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    @pytest.mark.parametrize("rho,passes", [(RHO_1, 1), (complex(0.6, 20.0), 2)])
    def test_passes_per_zero(self, monkeypatch, rho, passes):
        calls = _count_passes(monkeypatch)
        at_rho, at_mirror = _zero_table(rho, _sweep_ns(rho, SweepPlan()))
        assert calls == [rho, 1.0 - rho][:passes]
        assert at_mirror[1024] == raw_sums_at(1.0 - rho, (1024,), True)[1024]

    @pytest.mark.parametrize("rho,passes", [(RHO_1, 1), (complex(0.6, 20.0), 2)])
    def test_sweep_passes(self, monkeypatch, rho, passes):
        calls = _count_passes(monkeypatch)
        ser = sweep(Quantity.H_HAT_N, rho, 64, 10)
        assert calls == [rho, 1.0 - rho][:passes]
        del calls[:]
        h_hat_n(rho, 1024)
        assert calls == [rho, 1.0 - rho][:passes]
        ns = ser.ns()
        at_rho, at_mirror = raw_sums_at(rho, ns), raw_sums_at(1.0 - rho, ns)
        for n, v in ser.points:
            want = _value(Quantity.H_HAT_N, rho, n, at_rho, at_mirror)
            assert (v.real.hex(), v.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_identity_claims_share_one_remainder_call(self, monkeypatch):
        # C7 and C8 share one remainder per (n, 2n) identity point
        calls = []

        def counting(z, n, cfg):
            calls.append(n)
            return remainder_with_bound(z, n, cfg)

        monkeypatch.setattr(convergence, "remainder_with_bound", counting)
        rows = _claims_for_zero(_zero(RHO_1.imag), _sweep_ns(RHO_1, SweepPlan()))
        assert calls == [256, 512, 1024, 2048, 4096, 8192]
        assert [r.passed for r in rows if r.claim in ("C7", "C8")] == [True, True]

    def test_identity_sums_equal_standalone(self):
        at_rho, at_mirror = _zero_table(RHO_1, _sweep_ns(RHO_1, SweepPlan()))
        for n in IDENTITY_NS:
            g = _value(Quantity.SMALL_G_2N, RHO_1, n, at_rho, at_mirror)
            h = _value(Quantity.SMALL_H_2N, RHO_1, n, at_rho, at_mirror)
            assert g == small_g_2n(RHO_1, n)
            assert h == small_h_2n(RHO_1, n)

    def test_window_shift_warns_once_per_zero(self):
        plan = SweepPlan(n0=2, doublings=6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = verify_claims([_zero(40.0, 1), _zero(45.0, 2)], plan)
        shifts = [w for w in caught if "validity window" in str(w.message)]
        assert len(shifts) == 2
        assert all(r.measured != "error" for r in rows if r.claim != "C6")

    def test_window_shift_warning_names_the_caller(self):
        rho = complex(0.5, 40.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep(Quantity.ZETA_HAT_AT_RHO, rho, n0=2, doublings=4)
            verify_claims([_zero(40.0)], SweepPlan(n0=2, doublings=4))
        shifts = [w for w in caught if "validity window" in str(w.message)]
        assert [w.filename for w in shifts] == [__file__] * 2

    @pytest.mark.parametrize("t,n0,doublings", [(14.13, 2, 23), (math.nan, 64, 10)])
    @pytest.mark.parametrize("call", ["sweep", "verify_claims"])
    def test_unreachable_sweep_refused(self, monkeypatch, call, t, n0, doublings):
        # refused before any work: n0 shifted to the window at t passes
        # N_CAP >> doublings (a NaN t never meets the window); verify_claims
        # checks every zero before its first pass, so the reachable zero 1 is
        # not summed either
        calls = _count_passes(monkeypatch)
        rho = complex(0.5, t)
        runs = {
            "sweep": lambda: sweep(Quantity.H_HAT_N, rho, n0, doublings),
            "verify_claims": lambda: verify_claims(
                [_zero(5.0, 1), _zero(t, 2)], SweepPlan(n0=n0, doublings=doublings)
            ),
        }
        with pytest.raises(DomainError, match="validity window") as refused:
            runs[call]()
        assert calls == []
        message = str(refused.value)
        assert f"n0={n0} must shift to at least n0=" in message
        assert message.endswith(f"doubled {doublings} times that exceeds the cap {N_CAP}")
        if call == "verify_claims":
            assert message.startswith(f"zero 2 at t={t}: ")

    def test_off_line_point_fails_all_but_c2(self):
        rho = complex(0.6, 20.0)
        rows = _claims_for_zero(
            ZeroRecord(index=7, t=20.0, rho=rho, bracket=(20.0, 20.0), residual=0.0),
            _sweep_ns(rho, SweepPlan()),
        )
        assert [r.claim for r in rows if r.passed] == ["C2"]
        assert all(r.zero_index == 7 for r in rows)
        assert rows[8].measured == "0.870550563"


#: claims that pass at points that are not zeros, and why (ROADMAP item 14)
NON_DISCRIMINATING = {
    "C2": "|H_hat_2n/H_hat_n| tends to 1 at a zero, but also wherever H_hat_n "
    "tends to a non-zero constant, that is, at almost every point",
    "C9": "|2^(1-2 rho)| is 1 for every rho with Re rho = 1/2, and the scan "
    "writes Re rho = 0.5 exactly",
}


class TestNegativeControls:
    def test_only_the_non_discriminating_claims_pass_between_zeros(self):
        # the midpoints between consecutive zeros below t = 50 are on the
        # line but are not zeros: C1 and C3-C8 must fail at each. C2 and C9
        # pass there (NON_DISCRIMINATING); a change that makes one of them
        # fail at the controls moves it out of that table
        zeros = read_zeros_csv(GOLDEN / "zeros_50.csv")
        midpoints = [0.5 * (a.t + b.t) for a, b in zip(zeros, zeros[1:])]
        controls = [
            ZeroRecord(k, t, complex(0.5, t), (t, t), math.nan)  # no residual: not a zero
            for k, t in enumerate(midpoints, start=1)
        ]
        assert len(controls) == 9
        rows = verify_claims(controls)
        for zr in controls:
            passed = {r.claim for r in rows if r.zero_index == zr.index and r.passed}
            assert passed == set(NON_DISCRIMINATING), f"midpoint t={zr.t}"


class TestGateMargins:
    """The C1, C3, identity and C9 gates fail just outside their tolerance
    and pass just inside it."""

    @pytest.mark.parametrize(
        "exponent,passes", [(-1.70, False), (-1.60, True), (-1.40, True), (-1.30, False)]
    )
    def test_c1_exponent_window(self, monkeypatch, exponent, passes):
        # the gate is [-1.65, -1.35] about the target -3/2
        monkeypatch.setattr(convergence, "fit_power_law", lambda ser: SlopeFit(exponent, 0.0))
        row = _claims_for_zero(_zero(RHO_1.imag), _sweep_ns(RHO_1, SweepPlan()))[0]
        assert (row.claim, row.passed) == ("C1", passes)

    def test_c1_fits_the_sweep_up_to_2_14(self, monkeypatch):
        # the fit reads every sweep point from n0 to n = 2^14, the range its
        # detail names, and no others
        fitted = []

        def capture(ser):
            fitted.append(ser)
            return SlopeFit(-1.5, 0.0)

        monkeypatch.setattr(convergence, "fit_power_law", capture)
        ns = _sweep_ns(RHO_1, SweepPlan())
        row = _claims_for_zero(_zero(RHO_1.imag), ns)[0]
        assert (row.claim, row.passed) == ("C1", True)
        [ser] = fitted
        assert ser.quantity is Quantity.SMALL_H_2N
        assert ser.ns() == tuple(64 << k for k in range(9))  # n0 = 64 to 2^14

    #: deviations whose last five hold two rises, and one
    TWO_RISES = (8e-4, 4e-4, 5e-4, 2e-4, 3e-4, 1e-4)
    ONE_RISE = (8e-4, 4e-4, 5e-4, 2e-4, 1.5e-4, 1e-4)

    def test_monotone_final_decrease_allows_one_rise(self):
        assert _monotone_final_decrease(self.ONE_RISE)
        assert not _monotone_final_decrease(self.TWO_RISES)
        # a rise before the window of four steps does not count
        assert _monotone_final_decrease((1e-4, 2e-4, *self.ONE_RISE[1:]))

    @pytest.mark.parametrize("devs,passes", [(TWO_RISES, False), (ONE_RISE, True)])
    def test_c3_needs_a_final_decrease(self, monkeypatch, devs, passes):
        # every deviation is under LIMIT_TOL, so only the decrease can fail C3
        real = convergence._normalized

        def normalized(ser):
            if ser.quantity is not Quantity.H_HAT_N:
                return real(ser)
            return ser._replace(points=tuple((64 * 2**k, 1.0 + d) for k, d in enumerate(devs)))

        monkeypatch.setattr(convergence, "_normalized", normalized)
        row = _claims_for_zero(_zero(RHO_1.imag), _sweep_ns(RHO_1, SweepPlan()))[2]
        assert (row.claim, row.passed) == ("C3", passes)

    @pytest.mark.parametrize("claim,at,weight", [("C7", small_g_2n, 1), ("C8", small_h_2n, 2)])
    @pytest.mark.parametrize("multiple,passes", [(11.0, False), (9.0, True)])
    def test_identity_error_against_its_bound(self, monkeypatch, claim, at, weight, multiple, passes):
        # stub the remainder bounds so that at each identity n the error is
        # ``multiple`` times the bound sum; the gate allows 10 times it
        two_pow = complex_pow_base_real(2.0, RHO_1 - 1.0)
        bound_at = {}
        for n in IDENTITY_NS:
            r_n, r_2n = (remainder_with_bound(RHO_1, m, IDENTITY_CFG).value for m in (n, 2 * n))
            err = abs(at(RHO_1, n) - (-weight * r_2n + two_pow * r_n))
            bound_at[2 * n] = err / multiple

        def stub(z, m, cfg):
            return remainder_with_bound(z, m, cfg)._replace(bound=bound_at.get(m, 0.0))

        monkeypatch.setattr(convergence, "remainder_with_bound", stub)
        row = _claims_for_zero(_zero(RHO_1.imag), _sweep_ns(RHO_1, SweepPlan()))[
            CLAIM_IDS.index(claim)
        ]
        assert row.passed is passes
        assert float(row.measured) == pytest.approx(multiple / 10.0, rel=1e-6)

    @pytest.mark.parametrize("offset,failing", [(1e-12, ["C9"]), (5e-13, [])])
    def test_c9_just_off_the_critical_line(self, offset, failing):
        # |2^(1-2rho)| = 2^(-2 offset): 1 - 1.4e-12 and 1 - 6.9e-13 against 1e-12
        t = 14.134725141734693
        rho = complex(0.5 + offset, t)
        zero = ZeroRecord(index=1, t=t, rho=rho, bracket=(t, t), residual=0.0)
        rows = _claims_for_zero(zero, _sweep_ns(rho, SweepPlan()))
        assert [r.claim for r in rows if not r.passed] == failing
