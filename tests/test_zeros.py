import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetascope import zeros
from zetascope.cli import EXIT_MODULE_ERROR, main
from zetascope.errors import DomainError, NumericalError
from zetascope.zeros import (
    BRACKET_WIDTH,
    ZeroRecord,
    _bisect,
    find_zeros,
    hardy_z,
    riemann_siegel_theta,
    zero_count,
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

    def test_infinite_t_is_refused(self):
        # log_gamma refuses a non-finite point before any work
        with pytest.raises(DomainError, match="finite"):
            riemann_siegel_theta(math.inf)


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

    def test_one_ceiling_for_z_the_count_and_the_scan(self, monkeypatch):
        # T_CEILING is the only place the t <= 100 limit is written
        assert type(zeros.T_CEILING) is int and zeros.T_CEILING == 100
        monkeypatch.setattr(zeros, "T_CEILING", 50)
        with pytest.raises(DomainError, match=r"\(0, 50\], got 60"):
            hardy_z(60.0)
        with pytest.raises(DomainError, match=r"\(0, 50\], got 60"):
            zeros.zero_count(60.0)
        with pytest.raises(DomainError, match=r"t_max <= 50, got \(10, 60\)"):
            zeros._check_scan(10, 60)


class TestHardyZArray:
    """hardy_z point by point: oracle, errors naming the offending t, types."""

    @given(t=st.lists(st.floats(1.0, 100.0), min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_against_mpmath_siegelz(self, t):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for v in t:
                g = hardy_z(v)
                ref = float(mpmath.siegelz(v))
                assert abs(g - ref) <= 1e-13 * (1.0 + abs(g)), v

    def test_domain_error_names_the_row(self):
        with pytest.raises(DomainError, match="100.5"):
            hardy_z(100.5)
        with pytest.raises(DomainError, match="got 0.0"):
            hardy_z(0.0)

    def test_leakage_error_names_the_row(self, monkeypatch):
        reference = zeros.zeta_hat_reference

        def leaky(z):
            value = reference(z)
            return value * (1.0 + 1e-6j) if z.imag == 30.0 else value

        monkeypatch.setattr(zeros, "zeta_hat_reference", leaky)
        with pytest.raises(NumericalError, match=r"at t=30\.0$"):
            hardy_z(30.0)
        assert type(hardy_z(20.0)) is float

    def test_scalar_keeps_its_type(self):
        assert type(hardy_z(20.0)) is float
        assert type(riemann_siegel_theta(20.0)) is float


class TestZeroCount:
    @pytest.mark.parametrize("t", [14.0, 20.0, 50.0, 60.0, 99.9, 100.0])
    def test_against_mpmath_nzeros(self, t):
        mpmath = pytest.importorskip("mpmath")
        count = zero_count(t)
        assert abs(count - round(count)) < 1e-6
        assert round(count) == mpmath.nzeros(t)

    @pytest.mark.parametrize("t", [5e-324, 1e-300, 1e-3, 0.5, 6.29, 13.9])
    def test_nothing_below_the_first_zero(self, t):
        # the path follows (z - 1) zeta(z), so passing the pole at z = 1 as
        # close as t costs no extra steps, and no step lands on sigma = 1
        count = zero_count(t)
        assert abs(count) < 1e-6

    def test_count_off_an_integer_is_refused(self, monkeypatch):
        # a stubbed count half-way between 9 and 10 at t_max, and a NaN one
        for stub in (9.5, math.nan):
            monkeypatch.setattr(zeros, "zero_count", lambda t, stub=stub: stub if t == 50 else 0.0)
            with pytest.raises(NumericalError, match="not an integer"):
                find_zeros(10.0, 50.0)

    @pytest.mark.parametrize("off", [1e-5, -1e-5])
    def test_count_just_outside_the_tolerance_is_refused(self, off, monkeypatch):
        # N(50) = 10; a count 1e-5 from it is 10 times _COUNT_TOL away
        monkeypatch.setattr(zeros, "zero_count", lambda t: 10.0 + off if t == 50 else 0.0)
        with pytest.raises(NumericalError, match="not an integer"):
            find_zeros(10.0, 50.0)

    @pytest.mark.parametrize("off", [1e-7, -1e-7])
    def test_count_just_inside_the_tolerance_is_accepted(self, off, monkeypatch):
        monkeypatch.setattr(zeros, "zero_count", lambda t: 10.0 + off if t == 50 else 0.0)
        assert len(find_zeros(10.0, 50.0)) == 10

    @pytest.mark.parametrize("t", [0.0, -1.0, 100.5, math.nan, math.inf])
    def test_domain_enforced(self, t):
        with pytest.raises(DomainError):
            zero_count(t)

    def test_steps_are_limited(self, monkeypatch):
        # an argument that turns faster than any step can follow
        monkeypatch.setattr(zeros, "zeta_hat_reference", lambda z: cmath.exp(1e3j * z.real**2))
        with pytest.raises(NumericalError, match="needs over 64 evaluations"):
            zero_count(20.0)


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
    t = [t_min, *zeros._gram_points(t_min, t_max), t_max]
    z = [hardy_z(x) for x in t]
    return [
        (a, z_a, b, z_b)
        for a, z_a, b, z_b in zip(t, z, t[1:], z[1:])
        if zeros._holds_zero(z_a, z_b)
    ]


def _counted(monkeypatch, z):
    """Replace Z by z, recording each point it is evaluated at."""
    calls = []

    def counted(t):
        calls.append(t)
        return z(t)

    monkeypatch.setattr(zeros, "hardy_z", counted)
    return calls


class TestLockstepBisection:
    """ITP on one bracket at a time: the stopping rules and the step bound."""

    def test_each_bracket_stops_by_its_own_rules(self):
        # a bracket already narrower than BRACKET_WIDTH is returned as is,
        # while another is refined around the first zero
        narrow = (20.0, 20.0 + BRACKET_WIDTH / 2)
        assert _bisect(narrow[0], hardy_z(narrow[0]), narrow[1], hardy_z(narrow[1])) == narrow
        lo, hi = _bisect(14.0, hardy_z(14.0), 14.3, hardy_z(14.3))
        assert hi - lo <= BRACKET_WIDTH
        assert 0.5 * (lo + hi) == pytest.approx(KNOWN_ZERO_T[0], abs=1e-9)

    def test_no_brackets(self, monkeypatch):
        # no zero below t = 14: the scan hands nothing to _bisect

        def no_bracket(*args):
            raise AssertionError("a window without a sign change was refined")

        monkeypatch.setattr(zeros, "_bisect", no_bracket)
        assert find_zeros(2.0, 13.0) == []

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_zero_at_a_midpoint_keeps_halving(self, sign, monkeypatch):
        # Z = +-(t - 1.5) vanishes at the first point of (1, 2], its midpoint
        # and its regula falsi point: the bracket keeps (1, 1.5] and ends as
        # narrow as any other
        _counted(monkeypatch, lambda t: sign * (t - 1.5))
        lo, hi = _bisect(1.0, -0.5 * sign, 2.0, 0.5 * sign)
        assert lo < 1.5 <= hi
        assert hi - lo <= BRACKET_WIDTH

    @given(brackets=_roots())
    @settings(max_examples=50, deadline=None)
    def test_lockstep_equals_one_bracket_at_a_time(self, brackets):
        # bracket k is (10 + 2k, 11 + 2k] with one root on a dyadic point; Z
        # is an odd power of (t - root) with either sign there, so brackets
        # close after different numbers of steps. _bisect takes the same
        # points as the reference ITP loop, bit for bit
        for k, (j, d, sign, power) in enumerate(brackets):
            a = 10.0 + 2.0 * k
            root = a + j / 2.0**d

            def z_of(t, root=root, sign=sign, power=power):
                return sign * (t - root) ** power

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(zeros, "hardy_z", z_of)
                lo, hi = _bisect(a, z_of(a), a + 1.0, z_of(a + 1.0))
            want = _reference_itp(a, a + 1.0, z_of)
            assert (lo.hex(), hi.hex()) == (want[0].hex(), want[1].hex())
            assert lo < root <= hi
            assert hi - lo <= BRACKET_WIDTH

    def test_few_steps_on_the_scan_brackets(self, monkeypatch):
        # bisection takes 42 or 43 steps to narrow the 2.3-7.8 wide Gram
        # brackets below t = 100 to BRACKET_WIDTH; ITP takes at most 10
        brackets = _scan_brackets(10.0123, 100.0)
        assert len(brackets) == 29
        calls = _counted(monkeypatch, hardy_z)
        for bracket in brackets:
            del calls[:]
            lo, hi = _bisect(*bracket)
            assert len(calls) <= 10
            assert hi - lo <= BRACKET_WIDTH

    @pytest.mark.parametrize(
        "z",
        [
            lambda t: -1e-300 if t < 1.3 else 1.0,
            lambda t: (t - 1.3) ** 3,
            lambda t: math.expm1(40.0 * (t - 1.9)),
        ],
        ids=["step", "cube", "exp"],
    )
    def test_steps_bounded_where_interpolation_fails(self, z, monkeypatch):
        # regula falsi crawls on these; ITP's projection keeps the bracket
        # to bisection's 40 steps on (1, 2] plus _ITP_N0, plus one step where
        # rounding leaves the last width a few ulps above BRACKET_WIDTH, the
        # bound _itp_steps gives
        def bounded(t):
            if len(calls) > 100:
                raise AssertionError("regula falsi crawls: the projection does not bound it")
            return z(t)

        calls = _counted(monkeypatch, bounded)
        lo, hi = _bisect(1.0, z(1.0), 2.0, z(2.0))
        assert len(calls) <= 40 + zeros._ITP_N0 + 1 == zeros._itp_steps(1.0)
        assert lo < hi and hi - lo <= BRACKET_WIDTH


def _with_pair(monkeypatch, a: float, b: float) -> None:
    """Z times (t - a)(t - b), two more zeros on the line, and the zero count
    that sees them."""
    hardy, count = zeros.hardy_z, zeros.zero_count
    monkeypatch.setattr(zeros, "hardy_z", lambda t: hardy(t) * (t - a) * (t - b))
    monkeypatch.setattr(zeros, "zero_count", lambda t: count(t) + (t > a) + (t > b))


def _with_lost_sign_change(monkeypatch) -> None:
    """Z with its sign flipped above t = 24, inside (g_1, g_2), which holds
    the zero at 25.01: the Gram points see one sign change fewer."""
    hardy = zeros.hardy_z
    monkeypatch.setattr(zeros, "hardy_z", lambda t: hardy(t) * (1 if t < 24 else -1))


class TestGramScan:
    def test_gram_points_solve_theta(self):
        points = zeros._gram_points(10.0123, 100.0)
        assert len(points) == 29
        assert all(a < b for a, b in zip(points, points[1:]))
        for j, g in enumerate(points):
            assert riemann_siegel_theta(g) == pytest.approx(j * math.pi, abs=1e-11)
            # Gram's law holds below t = 100: (-1)^j Z(g_j) > 0
            assert (-1) ** j * hardy_z(g) > 0

    def test_first_gram_point_on_the_rising_branch(self):
        # theta = -pi also near t = 3.4, on its falling branch; only the
        # rising branch's g_-1 near 9.667 is a scan point
        points = zeros._gram_points(0.5, 20.0)
        assert [round(g, 3) for g in points] == [9.667, 17.846]

    def test_close_pair_in_one_gram_interval_is_refused(self, monkeypatch):
        # 20 and 20.01 sit with the zero at 21.02 in (g_0, g_1) = (17.85, 23.17):
        # no sign change at the Gram points shows them, but the count does
        _with_pair(monkeypatch, 20.0, 20.01)
        with pytest.raises(NumericalError, match="changes sign 10 times .* count .* is 12"):
            find_zeros(10.0, 50.0)

    def test_pair_in_two_scan_gaps_is_found(self, monkeypatch):
        # (2, 13] has no zero and one Gram point, g_-1 = 9.667: a pair split
        # across it adds one sign change to each gap, and the count agrees
        _with_pair(monkeypatch, 8.0, 11.0)
        records = find_zeros(2.0, 13.0)
        assert [r.t for r in records] == [pytest.approx(8.0, abs=1e-11), pytest.approx(11.0, abs=1e-11)]

    def test_lost_sign_change_is_refused(self, monkeypatch):
        _with_lost_sign_change(monkeypatch)
        with pytest.raises(NumericalError, match="changes sign 9 times .* count .* is 10"):
            find_zeros(10.0, 50.0)

    @pytest.mark.parametrize("stub", ["pair", "lost"])
    def test_cli_exits_2_on_a_count_mismatch(self, stub, monkeypatch, tmp_path, capsys):
        if stub == "pair":
            _with_pair(monkeypatch, 20.0, 20.01)
        else:
            _with_lost_sign_change(monkeypatch)
        out = tmp_path / "zeros.csv"
        code = main(["zeros", "--t-min", "10", "--t-max", "50", "--out", str(out)])
        assert code == EXIT_MODULE_ERROR
        assert "zero count" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "z_lo,z_hi,holds",
        [(0.0, 1.0, False), (0.0, -1.0, False), (0.0, 0.0, False),
         (1.0, 0.0, True), (-1.0, 1.0, True), (1.0, -1.0, True), (1.0, 2.0, False)],
    )
    def test_a_bracket_needs_a_nonzero_start(self, z_lo, z_hi, holds):
        # (t_lo, t_hi] with Z(t_lo) = 0 holds no zero inside: that zero is at
        # t_lo, and the bracket to its left holds it
        assert zeros._holds_zero(z_lo, z_hi) is holds

    def test_unbacked_sign_is_refused(self, monkeypatch):
        # |Z| at a scan point within the leakage limit backs no count
        hardy = zeros.hardy_z
        monkeypatch.setattr(zeros, "hardy_z", lambda t: 1e-10 if t == 50.0 else hardy(t))
        with pytest.raises(NumericalError, match=r"\|Z\(50.0\)\| = 1.000e-10 is not above"):
            find_zeros(10.0, 50.0)

    @pytest.mark.parametrize("window", [(10.0, KNOWN_ZERO_T[0]), (KNOWN_ZERO_T[0], 20.0)])
    def test_window_ending_on_a_zero_is_refused(self, window, tmp_path, capsys):
        # N(t) is not an integer at a zero, so an end there backs no count;
        # a window must end off the zeros it is to report
        match = rf"\|Z\({KNOWN_ZERO_T[0]}\)\| = .* is not above the leakage limit"
        with pytest.raises(NumericalError, match=match):
            find_zeros(*window)
        out = tmp_path / "zeros.csv"
        args = ["--t-min", repr(window[0]), "--t-max", repr(window[1]), "--out", str(out)]
        assert main(["zeros", *args]) == EXIT_MODULE_ERROR
        assert "is not above the leakage limit" in capsys.readouterr().err
        assert not out.exists()


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
        assert all(abs(zeros.zeta_hat_reference(rec.rho)) <= 1e-10 for rec in records)

    def test_deterministic(self, scanned_zeros):
        records, _ = scanned_zeros
        again = find_zeros(10.0, 50.0)
        assert [r.t for r in again] == [r.t for r in records]
        assert [r.bracket for r in again] == [r.bracket for r in records]

    def test_sub_interval_consistency(self, scanned_zeros):
        records, _ = scanned_zeros
        some = find_zeros(20.0, 35.0)
        inside = [r for r in records if 20.0 < r.t < 35.0]
        assert len(some) == len(inside)
        for a, b in zip(some, inside):
            assert a.t == pytest.approx(b.t, abs=1e-11)

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 50.0),
            (50.0, 10.0),
            (10.0, 101.0),
            (math.nan, 50.0),
            (10.0, math.nan),
        ],
    )
    def test_argument_validation(self, args):
        with pytest.raises(DomainError):
            find_zeros(*args)

    @pytest.mark.parametrize(
        "args",
        [
            (10.0, math.inf),
            (-math.inf, 50.0),
            (10.0, 1e300),
            (-1e300, 50.0),
        ],
    )
    def test_unbounded_grid_refused(self, args, monkeypatch):
        # a window no scan can cover is refused on the check alone, before
        # theta or Z is evaluated
        def no_work(*args):
            raise AssertionError("the window was not checked first")

        monkeypatch.setattr(zeros, "riemann_siegel_theta", no_work)
        with pytest.raises(DomainError, match=r"need 0 < t_min < t_max <= 100"):
            zeros._check_scan(*args)

    def test_widest_window_is_checked_without_theta(self, monkeypatch):
        # the check is the window's bounds alone: it reads no theta and no Z
        def no_work(*args):
            raise AssertionError("the check evaluated theta")

        monkeypatch.setattr(zeros, "riemann_siegel_theta", no_work)
        assert zeros._check_scan(1e-300, 100.0) is None

    def test_scan_evaluates_each_grid_point_once(self, monkeypatch):
        calls = _counted(monkeypatch, hardy_z)
        monkeypatch.setattr(zeros, "_bisect", lambda t_lo, z_lo, t_hi, z_hi: (t_lo, t_hi))
        find_zeros(10.0123, 100.0)
        assert calls == [10.0123, *zeros._gram_points(10.0123, 100.0), 100.0]
        assert len(calls) == 31

    def test_empty_window(self):
        # no zeros below t = 14; an empty scan is a valid result
        assert find_zeros(2.0, 13.0) == []

    def test_window_below_the_rising_branch(self):
        # theta falls below t = 6.29: the window holds no Gram point at all
        assert zeros._gram_points(0.5, 5.0) == []
        assert find_zeros(0.5, 5.0) == []

    def test_record_type(self, scanned_zeros):
        records, _ = scanned_zeros
        assert all(isinstance(r, ZeroRecord) for r in records)
        assert ZeroRecord._fields == ("index", "t", "rho", "bracket")

    def test_no_reference_call_after_the_brackets_are_refined(self, monkeypatch):
        # a zero is its ordinate and its bracket: once the last bracket is
        # refined the scan evaluates nothing more
        events = []
        reference, bisect = zeros.zeta_hat_reference, zeros._bisect

        def counted_reference(z):
            events.append("reference")
            return reference(z)

        def counted_bisect(*bracket):
            lo_hi = bisect(*bracket)
            events.append("bisect")
            return lo_hi

        monkeypatch.setattr(zeros, "zeta_hat_reference", counted_reference)
        monkeypatch.setattr(zeros, "_bisect", counted_bisect)
        assert len(find_zeros(10.0123, 100.0)) == 29
        assert events.count("reference") == 291
        assert events.count("bisect") == 29
        assert events[-1] == "bisect"
