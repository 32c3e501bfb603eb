import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zetascope import zeros
from zetascope.errors import DomainError, PrecisionError
from zetascope.euler_maclaurin import DEFAULT_CONFIG, EulerMaclaurinConfig
from zetascope.zeros import (
    BRACKET_WIDTH,
    ZeroRecord,
    _bisect,
    find_zeros,
    hardy_z,
    hardy_z_array,
    riemann_siegel_theta,
)

from conftest import KNOWN_ZERO_T


class TestTheta:
    def test_frozen_value_at_twenty(self):
        assert riemann_siegel_theta(20.0) == pytest.approx(
            1.186894808444484044812757, rel=1e-13
        )

    def test_frozen_value_at_fifty(self):
        assert riemann_siegel_theta(50.0) == pytest.approx(
            26.46136607016140964745495, rel=1e-13
        )

    def test_asymptotic_expansion(self):
        # theta(t) = (t/2) ln(t/2pi) - t/2 - pi/8 + 1/(48t) + O(t^-3)
        for t in (20.0, 35.0, 50.0):
            approx = (
                0.5 * t * math.log(t / (2.0 * math.pi))
                - 0.5 * t
                - math.pi / 8.0
                + 1.0 / (48.0 * t)
            )
            assert riemann_siegel_theta(t) == pytest.approx(approx, abs=1e-5)

    def test_derivative_matches_log_growth(self):
        # theta'(t) = ln(t/2pi)/2 + 1/(48 t^2) + O(t^-4); the finite
        # difference must land within that correction's size
        t, h = 30.0, 1e-5
        fd = (riemann_siegel_theta(t + h) - riemann_siegel_theta(t - h)) / (2.0 * h)
        assert fd == pytest.approx(0.5 * math.log(t / (2.0 * math.pi)), abs=3e-5)

    def test_requires_positive_t(self):
        with pytest.raises(DomainError):
            riemann_siegel_theta(0.0)


class TestHardyZ:
    def test_frozen_value_at_twenty(self):
        assert hardy_z(20.0) == pytest.approx(1.147842412185197277635034, rel=1e-11)

    def test_tiny_at_first_zero(self):
        assert abs(hardy_z(KNOWN_ZERO_T[0])) < 1e-9

    def test_sign_change_across_first_zero(self):
        assert hardy_z(14.0) * hardy_z(14.3) < 0

    @pytest.mark.parametrize("t", [0.0, -3.0, 100.5])
    def test_domain_enforced(self, t):
        with pytest.raises(DomainError):
            hardy_z(t)


ordinates = st.floats(10.0, 100.0)


class TestHardyZArray:
    @given(
        t=st.lists(ordinates, min_size=1, max_size=40),
        pad=st.lists(ordinates, max_size=90),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_equals_scalar_bit_for_bit(self, t, pad, seed):
        # any length, order and padding: a row never depends on its block-mates
        arr = np.array(t + pad)
        order = np.random.default_rng(seed).permutation(arr.size)
        got = hardy_z_array(arr[order])
        scalar = {v: hardy_z(v).hex() for v in t}
        for v, g in zip(arr[order].tolist(), got.tolist()):
            if v in scalar:
                assert g.hex() == scalar[v], v

    @given(t=st.lists(st.floats(1.0, 100.0), min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_against_mpmath_siegelz(self, t):
        mpmath = pytest.importorskip("mpmath")
        got = hardy_z_array(t)
        with mpmath.workdps(30):
            for v, g in zip(t, got.tolist()):
                ref = float(mpmath.siegelz(v))
                assert abs(g - ref) <= 1e-13 * (1.0 + abs(g)), v

    def test_domain_error_names_the_row(self):
        with pytest.raises(DomainError, match="100.5"):
            hardy_z_array([20.0, 100.5, 30.0])
        with pytest.raises(DomainError, match="got 0.0"):
            hardy_z_array([0.0, 20.0])

    def test_leakage_error_names_the_row(self, monkeypatch):
        reference = zeros.zeta_hat_reference_array

        def leaky(z, cfg):
            values = reference(z, cfg)
            values[z.imag == 30.0] *= 1.0 + 1e-6j
            return values

        monkeypatch.setattr(zeros, "zeta_hat_reference_array", leaky)
        with pytest.raises(PrecisionError, match=r"at t=30\.0$"):
            hardy_z_array([20.0, 30.0, 40.0])
        assert hardy_z_array([20.0, 40.0]).shape == (2,)

    def test_scalar_keeps_its_type(self):
        assert type(hardy_z(20.0)) is float
        assert type(riemann_siegel_theta(20.0)) is float


@st.composite
def _roots(draw):
    """Per bracket (j, d, sign, odd power): a root j / 2^d into the unit
    bracket (0, 1], the sign of Z's slope there and Z's power of (t - root)."""
    out = []
    for _ in range(draw(st.integers(1, 8))):
        d = draw(st.integers(1, 40))
        out.append(
            (
                draw(st.integers(1, 2**d)),
                d,
                draw(st.sampled_from([1.0, -1.0])),
                draw(st.sampled_from([1, 3, 5])),
            )
        )
    return out


def _reference_itp(lo: float, hi: float, z) -> tuple[float, float]:
    """ITP on one bracket (lo, hi] of the scalar function z, a step at a time,
    in Python floats, with _bisect's constants and bracket rule."""
    z_lo, z_hi = z(lo), z(hi)
    n_max = math.ceil(math.log2((hi - lo) / BRACKET_WIDTH)) + zeros._ITP_N0
    step = 0
    while hi - lo > BRACKET_WIDTH and math.nextafter(lo, hi) < hi:
        width = hi - lo
        mid = 0.5 * (lo + hi)
        falsi = lo + width * (z_lo / (z_lo - z_hi))
        sigma = float((mid > falsi) - (mid < falsi))
        delta = zeros._ITP_K1 * width * width
        x = falsi + sigma * delta if delta <= abs(mid - falsi) else mid
        r = 0.5 * BRACKET_WIDTH * 2.0 ** (n_max - step) - 0.5 * width
        if not abs(x - mid) <= r:
            x = mid - sigma * r
        x = min(max(x, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        z_x = z(x)
        if z_lo != 0 and (z_x == 0 or (z_lo < 0) != (z_x < 0)):
            hi, z_hi = x, z_x
        else:
            lo, z_lo = x, z_x
        step += 1
    return lo, hi


def _scan_brackets(t_min: float, t_max: float):
    """The scan's brackets over (t_min, t_max] as find_zeros hands them to _bisect."""
    t = zeros._scan_grid(t_min, t_max, 0.05)
    z = hardy_z_array(t)
    i = np.flatnonzero(zeros._holds_zero(z[:-1], z[1:]))
    return t[i], z[i], t[i + 1], z[i + 1]


class TestLockstepBisection:
    def test_each_bracket_stops_by_its_own_rules(self):
        # a bracket already narrower than BRACKET_WIDTH is returned as is,
        # while its neighbour is refined around the first zero
        t_lo = np.array([14.0, 20.0])
        t_hi = np.array([14.3, 20.0 + BRACKET_WIDTH / 2])
        lo, hi = _bisect(t_lo, hardy_z_array(t_lo), t_hi, hardy_z_array(t_hi), DEFAULT_CONFIG)
        assert (lo[1], hi[1]) == (t_lo[1], t_hi[1])
        assert hi[0] - lo[0] <= BRACKET_WIDTH
        assert 0.5 * (lo[0] + hi[0]) == pytest.approx(KNOWN_ZERO_T[0], abs=1e-9)

    def test_no_brackets(self):
        empty = np.array([])
        lo, hi = _bisect(empty, empty, empty, empty, DEFAULT_CONFIG)
        assert lo.size == hi.size == 0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_zero_at_a_midpoint_keeps_halving(self, sign, monkeypatch):
        # Z = +-(t - 1.5) vanishes at the first point of (1, 2], its midpoint
        # and its regula falsi point: the bracket keeps (1, 1.5] and ends as
        # narrow as any other
        monkeypatch.setattr(zeros, "hardy_z_array", lambda t, cfg: sign * (t - 1.5))
        lo, hi = _bisect(
            np.array([1.0]),
            np.array([-0.5 * sign]),
            np.array([2.0]),
            np.array([0.5 * sign]),
            DEFAULT_CONFIG,
        )
        assert lo[0] < 1.5 <= hi[0]
        assert hi[0] - lo[0] <= BRACKET_WIDTH

    @given(brackets=_roots())
    @settings(max_examples=50, deadline=None)
    def test_lockstep_equals_one_bracket_at_a_time(self, brackets):
        # bracket k is (10 + 2k, 11 + 2k] with one root on a dyadic point;
        # Z is an odd power of (t - root) with either sign on [10 + 2k, 12 + 2k),
        # so the brackets close after different numbers of steps
        t_lo = 10.0 + 2.0 * np.arange(len(brackets))
        t_hi = t_lo + 1.0
        roots = t_lo + [j / 2.0**d for j, d, _, _ in brackets]
        signs = np.array([s for _, _, s, _ in brackets])
        powers = np.array([p for _, _, _, p in brackets])

        def z_of(t, cfg=None):
            k = ((t - 10.0) // 2.0).astype(int)
            d = t - roots[k]
            odd = np.where(powers[k] == 1, 1.0, np.where(powers[k] == 3, d * d, d * d * d * d))
            return signs[k] * d * odd

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zeros, "hardy_z_array", z_of)
            lo, hi = _bisect(t_lo, z_of(t_lo), t_hi, z_of(t_hi), DEFAULT_CONFIG)
        for k, (a, b) in enumerate(zip(t_lo.tolist(), t_hi.tolist())):
            want = _reference_itp(a, b, lambda t: float(z_of(np.array([t]))[0]))
            assert (lo[k].hex(), hi[k].hex()) == (want[0].hex(), want[1].hex())
            assert lo[k] < roots[k] <= hi[k]
            assert hi[k] - lo[k] <= BRACKET_WIDTH

    def test_few_steps_on_the_scan_brackets(self, monkeypatch):
        # bisection takes 36 lockstep calls to narrow the 0.05-wide brackets
        # below t = 100 to BRACKET_WIDTH
        t_lo, z_lo, t_hi, z_hi = _scan_brackets(10.0123, 100.0)
        assert t_lo.size == 29
        calls = []
        hardy = zeros.hardy_z_array

        def counted(t, cfg):
            calls.append(len(t))
            return hardy(t, cfg)

        monkeypatch.setattr(zeros, "hardy_z_array", counted)
        lo, hi = _bisect(t_lo, z_lo, t_hi, z_hi, DEFAULT_CONFIG)
        assert len(calls) <= 12
        assert (hi - lo <= BRACKET_WIDTH).all()

    @pytest.mark.parametrize(
        "z",
        [
            lambda t: np.where(t < 1.3, -1e-300, 1.0),
            lambda t: (t - 1.3) ** 3,
            lambda t: np.expm1(40.0 * (t - 1.9)),
        ],
        ids=["step", "cube", "exp"],
    )
    def test_steps_bounded_where_interpolation_fails(self, z, monkeypatch):
        # regula falsi crawls on these; ITP's projection keeps each bracket
        # to bisection's 40 steps on (1, 2] plus _ITP_N0, plus one step where
        # rounding leaves the last width a few ulps above BRACKET_WIDTH
        calls = []

        def counted(t, cfg):
            calls.append(len(t))
            if len(calls) > 100:
                raise AssertionError("regula falsi crawls: the projection does not bound it")
            return z(t)

        monkeypatch.setattr(zeros, "hardy_z_array", counted)
        t_lo, t_hi = np.array([1.0]), np.array([2.0])
        lo, hi = _bisect(t_lo, z(t_lo), t_hi, z(t_hi), DEFAULT_CONFIG)
        assert len(calls) <= 40 + zeros._ITP_N0 + 1
        assert lo[0] < hi[0] and hi[0] - lo[0] <= BRACKET_WIDTH


def _loop_grid(t_min: float, t_max: float, step: float) -> list[float]:
    """The scan grid one step at a time: t_min, t_min + step, ... capped at t_max."""
    grid = [t_min]
    while grid[-1] < t_max:
        grid.append(min(grid[-1] + step, t_max))
    return grid


@st.composite
def _scans(draw):
    """(t_min, t_max, step) with steps from 4 ulp(t_max), twice the smallest
    step _check_scan accepts, and at most a few thousand points."""
    t_max = draw(st.floats(1e-3, 100.0))
    step = min(0.25, 4 * math.ulp(t_max) * 2.0 ** draw(st.floats(0.0, 60.0)))
    t_min = t_max - step * draw(st.floats(0.5, 3000.0))
    assume(t_min > 0)
    return t_min, t_max, step


class TestFindZeros:
    def test_count_and_ordering(self, scanned_zeros):
        records, _ = scanned_zeros
        assert len(records) == 10
        assert [r.index for r in records] == list(range(1, 11))
        assert all(a.t < b.t for a, b in zip(records, records[1:]))

    def test_ordinates_match_references(self, scanned_zeros):
        records, _ = scanned_zeros
        for rec, t_ref in zip(records, KNOWN_ZERO_T):
            assert rec.t == pytest.approx(t_ref, abs=1e-9)

    def test_rho_on_the_line(self, scanned_zeros):
        records, _ = scanned_zeros
        for rec in records:
            assert rec.rho == complex(0.5, rec.t)

    def test_brackets_tight_and_containing(self, scanned_zeros):
        records, _ = scanned_zeros
        for rec in records:
            lo, hi = rec.bracket
            assert lo <= rec.t <= hi
            assert hi - lo <= 2.0 * BRACKET_WIDTH

    def test_residuals_small(self, scanned_zeros):
        records, _ = scanned_zeros
        assert all(rec.residual <= 1e-10 for rec in records)

    def test_deterministic(self, scanned_zeros):
        records, _ = scanned_zeros
        again = find_zeros(10.0, 50.0, 0.05)
        assert [r.t for r in again] == [r.t for r in records]
        assert [r.bracket for r in again] == [r.bracket for r in records]

    def test_sub_interval_consistency(self, scanned_zeros):
        records, _ = scanned_zeros
        some = find_zeros(20.0, 35.0, 0.05)
        inside = [r for r in records if 20.0 < r.t < 35.0]
        assert len(some) == len(inside)
        for a, b in zip(some, inside):
            assert a.t == pytest.approx(b.t, abs=1e-11)

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 50.0, 0.05),
            (50.0, 10.0, 0.05),
            (10.0, 101.0, 0.05),
            (10.0, 50.0, 0.0),
            (10.0, 50.0, 0.3),
        ],
    )
    def test_argument_validation(self, args):
        with pytest.raises(DomainError):
            find_zeros(*args)

    @pytest.mark.parametrize(
        "args",
        [
            (10.0, 11.0, 1e-300),
            (10.0, 11.0, math.ulp(11.0)),
            (10.0, 50.0, 1e-9),
            (10.0, 12.0, 1e-6),
        ],
    )
    def test_unbounded_grid_refused(self, args):
        # called on the check alone: a regression must not start the scan
        with pytest.raises(DomainError, match="float spacing|points"):
            zeros._check_scan(*args)

    @pytest.mark.parametrize(
        "cfg", [EulerMaclaurinConfig(n_base=2**24), EulerMaclaurinConfig(window_C=1e5)]
    )
    def test_unbounded_scan_work_refused(self, cfg, monkeypatch):
        # 803 points, each summing 2^24 or about 3.2e6 terms
        with pytest.raises(DomainError, match="may sum over 134217728 terms"):
            zeros._check_scan(10.0, 50.0, 0.05, cfg)

        def no_work(t, cfg):
            raise AssertionError("the scan's work was not bounded first")

        monkeypatch.setattr(zeros, "hardy_z_array", no_work)
        with pytest.raises(DomainError, match="terms"):
            find_zeros(10.0, 50.0, 0.05, cfg)

    def test_largest_default_scan_work_allowed(self):
        # 2^20 points at n = 128, the reference's n at t = 100
        assert DEFAULT_CONFIG.reference_n(100.0) == 128
        step = 0.25 / 2**18
        assert zeros._check_scan(100.0 - step * (2**20 - 3), 100.0, step) == 2**20

    @given(scan=_scans())
    @example(scan=(100.0 - 1e-11, 100.0, 4 * math.ulp(100.0)))
    @example(scan=(1e-3, 100.0, 0.25))
    @settings(max_examples=200, deadline=None)
    def test_grid_is_the_one_step_loop(self, scan):
        assert zeros._scan_grid(*scan).tolist() == _loop_grid(*scan)

    def test_scan_evaluates_each_grid_point_once(self, monkeypatch):
        rows = []
        hardy = zeros.hardy_z_array

        def counted(t, cfg):
            rows.append(len(t))
            return hardy(t, cfg)

        monkeypatch.setattr(zeros, "hardy_z_array", counted)
        monkeypatch.setattr(zeros, "_bisect", lambda t_lo, z_lo, t_hi, z_hi, cfg: (t_lo, t_hi))
        find_zeros(10.0123, 100.0)
        assert sum(rows) == zeros._scan_grid(10.0123, 100.0, 0.05).size == 1801

    def test_empty_window(self):
        # no zeros below t = 14; an empty scan is a valid result
        assert find_zeros(2.0, 13.0, 0.05) == []

    def test_record_type(self, scanned_zeros):
        records, _ = scanned_zeros
        assert all(isinstance(r, ZeroRecord) for r in records)
