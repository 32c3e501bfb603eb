import math
import warnings

import pytest

from zetascope.convergence import (
    C1_FIT_MAX_N,
    CLAIM_IDS,
    IDENTITY_NS,
    LIMIT_TOL,
    ClaimResult,
    ConvergenceSeries,
    Quantity,
    SweepPlan,
    derivative_ratio_limit,
    fit_power_law,
    ratio_limit,
    sweep,
    verify_claims,
    _claims_for_zero,
    _dyadic_ns,
    _normalized,
    _series_from_table,
    _value,
    _zero_table,
)
from zetascope import convergence, functional_eq, series
from zetascope.errors import DegenerateRatioError, DegenerateSeriesError, DomainError
from zetascope.euler_maclaurin import _remainder_rows
from zetascope.functional_eq import h_hat_exact, h_hat_n, small_g_2n, small_h_2n
from zetascope.series import N_CAP, raw_sums_at, zeta_hat_partial
from zetascope.zeros import ZeroRecord

from conftest import RHO_1


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
            derivative_ratio_limit(RHO_1, n0, doublings)
        with pytest.raises(DomainError):
            SweepPlan(n0=n0, doublings=doublings)

    def test_grid_reaching_the_cap_is_accepted(self):
        assert SweepPlan(n0=64, doublings=18).doublings == 18
        assert _dyadic_ns(N_CAP >> 4, 4)[-1] == N_CAP


class TestFitting:
    def test_exact_power_law_recovered(self):
        fit = fit_power_law(synthetic_series(-1.5))
        assert fit.exponent == pytest.approx(-1.5, abs=1e-12)
        assert fit.max_abs_residual < 1e-12
        assert fit.points_used == 8

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
    def test_limit_near_negated_factor(self):
        # the boundary-corrected ratio meets the claim tolerance at n = 2^16
        lim = derivative_ratio_limit(RHO_1, 64, 10)
        assert lim.n == 2**16
        assert abs(lim.limit - (-h_hat_exact(RHO_1))) <= LIMIT_TOL

    def test_error_within_truncation_bound(self):
        # the Euler-Maclaurin error model: the first omitted term accounts
        # for the deviation, which the raw ratio exceeds by orders
        lim = derivative_ratio_limit(RHO_1, 64, 10)
        target = -h_hat_exact(RHO_1)
        assert abs(lim.limit - target) <= lim.bound < 1e-5
        assert abs(lim.raw - target) > 1e3 * lim.bound

    def test_raw_equals_sweep_last_point(self):
        lim = derivative_ratio_limit(RHO_1, 64, 10)
        assert lim.raw == sweep(Quantity.DERIV_RATIO, RHO_1, 64, 10).points[-1][1]

    def test_raw_ratio_misses_the_claim_tolerance(self):
        # the uncorrected ratio keeps its (ln n) n^(-1/2) envelope, about
        # 1e-2 at n = 2^16, so it cannot meet C6's tolerance there
        lim = derivative_ratio_limit(RHO_1, 64, 10)
        assert abs(lim.raw - (-h_hat_exact(RHO_1))) > 5 * LIMIT_TOL

    def test_limit_is_ratio_limit_of_corrected_sweep(self):
        lim = derivative_ratio_limit(RHO_1, 64, 10)
        expected = ratio_limit(sweep(Quantity.DERIV_RATIO_CORRECTED, RHO_1, 64, 10))
        assert (lim.limit, lim.last_delta, lim.points_used) == (
            expected.limit,
            expected.last_delta,
            expected.points_used,
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

    def test_requires_zeros(self):
        with pytest.raises(DomainError):
            verify_claims([])

    def test_error_containment(self, scanned_zeros, monkeypatch):
        # a table build that raises must yield failed rows, not an exception
        def broken(rho, plan):
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
        # C2 reads its ratio series one doubling short, at n0 * 2^3
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
        n0, at_rho, at_mirror = _zero_table(RHO_1, plan)
        assert max(at_rho) == n0 * 2**plan.doublings
        ratios = (Quantity.H_HAT_DOUBLING_RATIO, Quantity.H_DOUBLING_RATIO)
        doubled = (Quantity.SMALL_H_2N, Quantity.SMALL_G_2N)
        for quantity in Quantity:
            # the table holds 2n at 1 - rho only below the last n, as C2 needs,
            # and 2n at rho only up to C1's fit range
            last = plan.doublings - (quantity in ratios)
            if quantity in doubled:
                last = (C1_FIT_MAX_N // n0).bit_length() - 1
            for doublings in (last - 1, last):
                shared = _series_from_table(
                    quantity, RHO_1, _dyadic_ns(n0, doublings), at_rho, at_mirror
                )
                alone = sweep(quantity, RHO_1, plan.n0, doublings, plan.cfg)
                assert shared == alone, (quantity, doublings)

    @pytest.mark.parametrize("t", [14.134725141734694, 49.773832477672302, 77.1448400688748])
    def test_mirror_table_is_the_conjugate_bit_for_bit(self, t):
        rho = complex(0.5, t)
        n0, at_rho, at_mirror = _zero_table(rho, SweepPlan())
        ns = _dyadic_ns(n0, SweepPlan().doublings)
        alone = raw_sums_at(1 - rho, ns, True)
        assert sorted(at_mirror) == ns
        for n in ns:
            for got, want in zip(at_mirror[n], alone[n]):
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    @pytest.mark.parametrize("rho,passes", [(RHO_1, 1), (complex(0.6, 20.0), 2)])
    def test_passes_per_zero(self, monkeypatch, rho, passes):
        calls = _count_passes(monkeypatch)
        _, at_rho, at_mirror = _zero_table(rho, SweepPlan())
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
        calls = []

        def counting(z, n, cfg):
            calls.append(n.tolist())
            return _remainder_rows(z, n, cfg)

        monkeypatch.setattr(convergence, "_remainder_rows", counting)
        rows = _claims_for_zero(_zero(RHO_1.imag), SweepPlan())
        assert calls == [[256, 512, 1024, 2048, 4096, 8192]]
        assert [r.passed for r in rows if r.claim in ("C7", "C8")] == [True, True]

    def test_identity_sums_equal_standalone(self):
        plan = SweepPlan()
        _, at_rho, at_mirror = _zero_table(RHO_1, plan)
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
            derivative_ratio_limit(rho, 2, 4)
            verify_claims([_zero(40.0)], SweepPlan(n0=2, doublings=4))
        shifts = [w for w in caught if "validity window" in str(w.message)]
        assert [w.filename for w in shifts] == [__file__] * 3

    def test_non_finite_zero_gives_failed_rows(self):
        rows = _claims_for_zero(_zero(math.nan), SweepPlan())
        assert [r.claim for r in rows] == list(CLAIM_IDS)
        assert all(not r.passed for r in rows)
        assert all("DomainError" in r.detail for r in rows[:6])
        # C7/C8 ask for the remainders before the table
        assert all(r.detail.startswith("WindowError: ") for r in rows[6:8])
        assert all(
            (r.expected, r.measured, math.isnan(r.tolerance)) == ("", "error", True)
            for r in rows[:8]
        )
        assert rows[8].measured == "nan"

    def test_off_line_point_fails_all_but_c2(self):
        rows = _claims_for_zero(
            ZeroRecord(index=7, t=20.0, rho=complex(0.6, 20.0), bracket=(20.0, 20.0), residual=0.0),
            SweepPlan(),
        )
        assert [r.claim for r in rows if r.passed] == ["C2"]
        assert all(r.zero_index == 7 for r in rows)
        assert rows[8].measured == "0.870550563"
