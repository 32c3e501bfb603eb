import cmath
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetascope.errors import DomainError, NumericalError
from zetascope import euler_maclaurin
from zetascope.euler_maclaurin import (
    N_BASE,
    TARGET_REL_ERROR,
    WINDOW_C,
    _leading_terms,
    _partial_sum,
    max_im,
    reference_n,
    remainder,
    remainder_with_bound,
    zeta_hat_reference,
)
from zetascope.series import xi_partial, zeta_hat_partial, zeta_partial
from zetascope.special import bernoulli_numbers, complex_pow_base_real

from conftest import RHO_1

PI2_6 = math.pi**2 / 6.0
ZETA_HALF = -1.46035450880958681288949915252  # frozen high-precision value


class TestTruncationArguments:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"depth": 0},
            {"depth": 31},
            {"depth": "10"},
            {"depth": None},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            remainder_with_bound(2.0, 10, **kwargs)

    @pytest.mark.parametrize("depth", [2.5, True])
    def test_rejects_non_integer_depth(self, depth):
        # refused by type, not only by range: True would run as depth 1
        with pytest.raises(DomainError, match=f"depth must be an integer, got {depth!r}"):
            remainder_with_bound(2.0, 10, depth=depth)

    @pytest.mark.parametrize("depth", [0, 31])
    def test_rejects_depth_outside_its_range(self, depth):
        with pytest.raises(DomainError, match=rf"depth must be in \[1, 30\], got {depth}$"):
            remainder_with_bound(2.0, 10, depth=depth)

    def test_truncation_is_keyword_only(self):
        with pytest.raises(TypeError):
            remainder_with_bound(2.0, 10, 4)

    def test_truncation_takes_only_depth(self):
        # the relative target is the constant TARGET_REL_ERROR, not an argument
        with pytest.raises(TypeError):
            remainder_with_bound(2.0, 10, target_rel_error=1e-12)

    @pytest.mark.parametrize(
        "n,match",
        [
            (0, "n must be a positive integer, got 0"),
            (2.5, "n must be a positive integer, got 2.5"),
            (True, "n must be a positive integer, got True"),
            (10**30, "exceeds the cap 16777216"),
        ],
    )
    def test_n_is_checked_as_everywhere(self, n, match):
        with pytest.raises(DomainError, match=match):
            remainder_with_bound(2, n)


class TestWindow:
    def test_real_axis_always_inside(self):
        assert 0.0 <= max_im(10)

    def test_high_ordinate_outside(self):
        assert not 100.0 <= max_im(10)

    def test_first_zero_ordinate_inside_small_n(self):
        assert 14.13 <= max_im(5)

    def test_window_constant(self):
        assert max_im(10) == 2.0 * math.pi * 10 / WINDOW_C and WINDOW_C == 2.0

    def test_reference_n(self):
        # the window met 4x over, at least N_BASE: 128 at t = 100, the scan's top
        assert reference_n(0.0) == reference_n(-39.0) == N_BASE == 50
        assert reference_n(100.0) == reference_n(-100.0) == 128
        assert reference_n(2**24 * math.pi / 4) == 2**24

    @pytest.mark.parametrize("im", [2**24 * math.pi / 4 * (1 + 1e-15), 1e300, math.inf, math.nan])
    def test_reference_n_past_the_cap_refused_before_rounding(self, im):
        with pytest.raises(DomainError, match=r"^n=\S+ exceeds the cap 16777216$"):
            reference_n(im)


class TestRemainder:
    def test_single_leading_term(self):
        r = remainder_with_bound(2.0 + 0.0j, 10, depth=1).value
        assert r.real == pytest.approx((2.0 / 12.0) * 10.0**-3, rel=1e-13)

    def test_closes_the_summation_formula(self):
        # zeta(2) = zeta_n(2) - n^(1-z)/(1-z) - n^(-z)/2 + R_n(2)
        z, n = 2.0 + 0.0j, 100
        tail = n * complex_pow_base_real(n, z) / (1.0 - z)
        half = 0.5 * complex_pow_base_real(n, z)
        value = zeta_partial(z, n) - tail - half + remainder(z, n)
        assert value.real == pytest.approx(PI2_6, abs=1e-12)

    def test_leading_term_bound_at_first_zero(self):
        n = 2**6
        r = abs(remainder(RHO_1, n))
        assert r <= 2.0 * abs(RHO_1 / 12.0) * n**-1.5

    def test_depth_stability(self):
        # two adjacent depths agree to the reported bound
        a = remainder_with_bound(RHO_1, 2**8, depth=4)
        b = remainder_with_bound(RHO_1, 2**8, depth=5)
        assert abs(a.value - b.value) <= 2.0 * a.bound

    def test_requires_positive_real_part(self):
        with pytest.raises(DomainError):
            remainder(complex(-0.5, 3.0), 100)

    def test_infinite_real_part_is_refused(self):
        # every term was nan, and the sum returned nan
        with pytest.raises(DomainError, match=r"needs a finite z, got \(inf\+0j\)"):
            remainder(complex(math.inf, 0.0), 100)

    def test_window_enforced(self):
        with pytest.raises(DomainError):
            remainder(complex(0.5, 90.0), 10)

    def test_deepest_truncation_bounds_with_the_next_term(self):
        # R_15(32) adds all 30 terms above the target, and its bound is the
        # 31st term, B_62 (32)(33)...(92) / 62! 15^(-93)
        r = remainder_with_bound(32.0, 15, depth=30)
        assert r.terms_used == 30
        want = abs(bernoulli_numbers(31)[30]) * math.prod(range(32, 93)) / math.factorial(62)
        assert r.bound == pytest.approx(want * 15.0**-93, rel=1e-12)

    def test_divergence_before_target_reported(self):
        with pytest.raises(NumericalError, match=r"diverges at k=\d+ with bound \S+$") as exc:
            remainder_with_bound(complex(0.5, 30.0), 10, depth=30)
        assert float(str(exc.value).rsplit(" ", 1)[1]) > 0

    def test_a_rounded_term_is_not_a_divergence(self):
        # at n = 50 the ninth term's n^(-z-17) is 5e-324 in each part, one
        # subnormal unit, so its modulus reads above the eighth's though the
        # exact ratio is about 0.36: the sum stops there unadded
        z = complex(173.46872943434443, -7.796921500829548)
        r = remainder_with_bound(z, 50)
        want = _loop_remainder(z, 50, 10)
        assert (r.terms_used, r.bound) == (8, want[1]) and not want[3]
        assert r.value == want[0]

    def test_growth_with_a_subnormal_power_is_a_divergence(self):
        # R_20(240): both terms' n-powers are subnormal, and the second term
        # is 2.4 times the first, exactly
        with pytest.raises(NumericalError, match="diverges at k=2 with bound 1.375e-312"):
            remainder_with_bound(240.0, 20)

    def test_order_tracks_minus_one_minus_re_z(self):
        prev = abs(remainder(RHO_1, 2**6))
        for k in range(7, 17):
            cur = abs(remainder(RHO_1, 2**k))
            ratio = cur / prev
            assert 2.0**-1.7 <= ratio <= 2.0**-1.3
            prev = cur


class TestLeadingTerms:
    """The expansion's one writer against mpmath at 30 digits."""

    #: n^(-z) errs by the rounding of its phase |Im z| ln n, at most 1.1e3
    #: here, whose half ulp is 1.1e-13; the roundings after it add a few 2^-53
    REL = 2e-13

    @pytest.mark.parametrize("z", [RHO_1, complex(2.5, -100.0)])
    @pytest.mark.parametrize("n", [64, 2**16])
    def test_against_mpmath(self, z, n):
        mpmath = pytest.importorskip("mpmath")
        lead = _leading_terms(z, n, derivative=True)
        # the shorter requests give the same leading fields and no others
        for request, kept in (({}, 2), ({"tail": False}, 1)):
            unset = dict.fromkeys(lead._fields[kept:])
            assert _leading_terms(z, n, **request) == lead._replace(**unset)
        with mpmath.workdps(30):
            w = mpmath.mpc(z.real, z.imag)
            ln_n = mpmath.log(n)
            tail = lambda s: mpmath.mpf(n) ** (1 - s) / (1 - s)
            boundary = lambda s: mpmath.mpf(n) ** (-s) / 2
            bernoulli = lambda s: s * mpmath.mpf(n) ** (-s - 1) / 12
            want = {
                "boundary": boundary(w),
                "tail": tail(w),
                "tail_prime_log": -ln_n * tail(w),
                "tail_prime_pole": tail(w) / (1 - w),
                "boundary_prime": mpmath.diff(boundary, w),
                "bernoulli_prime_mod": abs(mpmath.diff(bernoulli, w)),
            }
            tail_prime = mpmath.diff(tail, w)
        for name, value in want.items():
            got = getattr(lead, name)
            assert abs(got - complex(value)) <= self.REL * abs(complex(value)), name
        got = lead.tail_prime_log + lead.tail_prime_pole
        assert abs(got - complex(tail_prime)) <= self.REL * abs(complex(tail_prime))

    def test_pole_only_for_the_tail(self):
        with pytest.raises(DomainError, match="pole at z=1"):
            _leading_terms(1.0 + 0.0j, 10)
        boundary = _leading_terms(1.0 + 0.0j, 10, tail=False).boundary
        assert boundary == 0.5 * complex_pow_base_real(10, 1.0)


class TestReference:
    def test_basel_value(self):
        assert zeta_hat_reference(2.0 + 0.0j).real == pytest.approx(PI2_6, abs=1e-12)

    def test_at_one_half(self):
        assert zeta_hat_reference(0.5 + 0.0j).real == pytest.approx(
            ZETA_HALF, abs=1e-10
        )

    def test_one_half_against_alternating_series(self):
        # xi(1/2) estimated by the first-order average of the alternating sum
        n = 2**17
        g = xi_partial(0.5 + 0.0j, 2 * n) + 0.5 * complex_pow_base_real(
            2.0 * n, 0.5 + 0.0j
        )
        est = g.real / (1.0 - 2.0**0.5)
        assert zeta_hat_reference(0.5 + 0.0j).real == pytest.approx(est, abs=1e-5)

    def test_vanishes_at_first_zero(self):
        assert abs(zeta_hat_reference(RHO_1)) <= 1e-9

    def test_frozen_point_in_strip(self):
        ref = complex(0.196074009790992344308383474566, 0.5046200468402479633862347155)
        assert zeta_hat_reference(complex(0.75, 33.3)) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize(
        "z",
        [0.1 + 0.0j, 0.5 + 14.0j, 2.5 - 37.0j, 0.9 + 50.0j, 3.0 + 0.0j],
    )
    def test_n_independence(self, z):
        # the expansion summed at n = 113 and 400 gives the reference's value
        # (at n = 50 or 64 here) to its target, 1e-12
        a = zeta_hat_reference(z)
        scale = max(abs(a), 1e-6)
        for n in (113, 400):
            lead = _leading_terms(z, n)
            b = _partial_sum(z, n) - lead.tail - lead.boundary + remainder(z, n)
            assert abs(a - b) <= 10.0 * 1e-12 * scale, n

    def test_pole_and_domain(self):
        with pytest.raises(DomainError, match="pole"):
            zeta_hat_reference(1.0 + 0.0j)
        with pytest.raises(DomainError):
            zeta_hat_reference(complex(-0.2, 5.0))

    @pytest.mark.parametrize("z", [0.5 + 1e9j, 0.5 - 1e300j, 360 + 1e308j])
    def test_start_n_past_the_cap_refused_before_any_sum(self, z, monkeypatch):
        def no_work(*args):
            raise AssertionError("summed past the cap check")

        monkeypatch.setattr(euler_maclaurin, "_partial_sum", no_work)
        monkeypatch.setattr(euler_maclaurin, "remainder_with_bound", no_work)
        with pytest.raises(DomainError, match="exceeds the cap 16777216"):
            zeta_hat_reference(z)

    @pytest.mark.parametrize("z,n", [(2.0 + 0.0j, 64), (0.5 + 14.0j, 128), (0.7 - 25.0j, 256)])
    def test_difference_identity(self, z, n):
        # reference - hat partial = -1/(2 n^z) + R_n
        lhs = zeta_hat_reference(z) - zeta_hat_partial(z, n)
        rhs = -0.5 * complex_pow_base_real(n, z) + remainder(z, n)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("z", [0.6 + 0.0j, 2.0 + 0.0j])
    def test_alternating_relation(self, z):
        # limit of the alternating series equals (1 - 2^(1-z)) * reference
        n = 2**19
        g = xi_partial(z, 2 * n) + 0.5 * complex_pow_base_real(2.0 * n, z)
        rhs = (1.0 - complex_pow_base_real(2.0, z - 1.0)) * zeta_hat_reference(z)
        assert g == pytest.approx(rhs, rel=1e-9)


class TestReferenceArray:
    """The reference's errors, and its one remainder sum at reference_n."""

    def test_errors_name_the_row(self):
        with pytest.raises(DomainError, match=r"-0\.2"):
            zeta_hat_reference(complex(-0.2, 5.0))
        with pytest.raises(DomainError, match="nan"):
            zeta_hat_reference(complex(0.5, math.nan))
        with pytest.raises(DomainError, match="pole"):
            zeta_hat_reference(1.0)

    def test_a_diverged_remainder_is_raised_at_once(self, monkeypatch):
        # a real divergence, R_10(100), stands in for one at the reference's
        # n, 51 at t = 40: it is raised after that one call, not retried
        remainder_at = euler_maclaurin.remainder_with_bound
        seen = []

        def diverge(z, n):
            seen.append(n)
            return remainder_at(100.0, 10)

        monkeypatch.setattr(euler_maclaurin, "remainder_with_bound", diverge)
        with pytest.raises(NumericalError, match="remainder series diverges at k=2"):
            zeta_hat_reference(complex(0.5, 40.0))
        assert seen == [51]

    @given(
        re=st.one_of(st.floats(1e-300, 1e308), st.floats(150.0, 300.0)),
        im=st.one_of(
            st.floats(0.0, 2**24 * math.pi / 4),
            st.integers(50, 5000).map(lambda n: n * math.pi / 4),
        ),
        sign=st.sampled_from((1.0, -1.0)),
    )
    @example(re=185.0, im=50 * math.pi / 4, sign=1.0)
    @example(re=189.5, im=50 * math.pi / 4, sign=-1.0)
    @example(re=200.0, im=0.0, sign=1.0)
    @example(re=291.5, im=50 * math.pi / 4, sign=1.0)
    @example(re=300.0, im=50 * math.pi / 4, sign=-1.0)
    # at n = 50 a subnormal n-power rounds a term of these up past the one before
    @example(re=173.46872943434443, im=7.796921500829548, sign=-1.0)
    @example(re=183.46367838986134, im=37.98584811769998, sign=-1.0)
    @example(re=175.46918221662827, im=33.56134454997537, sign=1.0)
    @settings(max_examples=300, deadline=None)
    def test_the_remainder_never_diverges_at_the_reference_n(self, re, im, sign):
        """The terms shrink by less than |z+2k-1||z+2k| / (2 pi n)^2, so
        growth needs |z| >= 2 pi n - 20, Re z >= 291 at n = 50, where every
        term's n-power is 0 (DESIGN.md, "The reference sums once")."""
        z = complex(re, sign * im)
        remainder_with_bound(z, reference_n(z.imag))

    def test_window_error_names_the_row(self):
        with pytest.raises(DomainError, match=r"2\*pi\*10/"):
            remainder_with_bound(complex(0.5, 90.0), 10)


def _complex_partial_sum(z: complex, n: int) -> complex:
    """sum_{k<=n} k^(-z) with each term as cmath.exp(-z ln k), fsummed per
    part and chunk as _partial_sum does."""
    chunk = euler_maclaurin._CHUNK
    re, im = [], []
    for lo in range(1, n + 1, chunk):
        terms = [cmath.exp(-z * math.log(k)) for k in range(lo, min(lo + chunk, n + 1))]
        re.append(math.fsum(t.real for t in terms))
        im.append(math.fsum(t.imag for t in terms))
    return complex(math.fsum(re), math.fsum(im))


def _bits(v: complex) -> tuple[str, str]:
    return v.real.hex(), v.imag.hex()


class TestPartialSumAgainstComplexExp:
    """The real-valued terms and the shared first-chunk tables give the
    complex-exp sum bit for bit, however the tables grew."""

    @given(
        sigma=st.one_of(st.just(0.5), st.floats(1e-3, 3.0)),
        t=st.one_of(st.floats(-200.0, 200.0), st.sampled_from([0.0, -0.0, 1e-300])),
        n=st.one_of(st.integers(1, 300), st.sampled_from([4095, 4096, 4097, 8193])),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_for_bit(self, sigma, t, n):
        z = complex(sigma, t)
        assert _bits(euler_maclaurin._partial_sum(z, n)) == _bits(_complex_partial_sum(z, n))

    def test_tables_grow_in_any_order(self, monkeypatch):
        monkeypatch.setattr(euler_maclaurin, "_LOGS", [])
        monkeypatch.setattr(euler_maclaurin, "_HALF_POWERS", [])
        z = complex(0.5, 14.134725141734693)
        for n in (3, 1, 128, 50, 5000, 4096):
            assert _bits(euler_maclaurin._partial_sum(z, n)) == _bits(_complex_partial_sum(z, n))
        assert len(euler_maclaurin._LOGS) == euler_maclaurin._CHUNK


def _loop_remainder(z: complex, n: int, depth: int):
    """The recurrence written out, one term at a time: (value, bound, terms,
    diverged). A term that does not shrink is a divergence only where it
    exceeds the target share of the sum and the exact ratio B_2k (2k-2)! /
    (B_(2k-2) (2k)!) (z+2k-3)(z+2k-2) / n^2 says so; remainder_with_bound
    tests only the ratio, as the first condition always holds there."""
    b2k = bernoulli_numbers(depth + 1)
    acc, poch, prev_mod, k = 0j, z, math.inf, 1
    while True:
        term = b2k[k - 1] / math.factorial(2 * k) * poch * cmath.exp(-(z + 2 * k - 1) * math.log(n))
        mod = abs(term)
        if mod >= prev_mod or k > depth:
            diverged = (
                mod >= prev_mod
                and mod > TARGET_REL_ERROR * abs(acc)
                and abs(b2k[k - 1] / b2k[k - 2] / (2 * k * (2 * k - 1)) * (z + 2 * k - 3) * (z + 2 * k - 2))
                >= n**2
            )
            return acc, mod, k - 1, diverged
        acc += term
        prev_mod = mod
        if mod <= TARGET_REL_ERROR * abs(acc):
            return acc, mod, k, False
        poch *= (z + (2 * k - 1)) * (z + 2 * k)
        k += 1


def _remainder_parts(z: complex, n: int, depth: int):
    """remainder_with_bound as (value, bound, terms, diverged). A diverged
    sum raises, so it must diverge where the loop does, at term terms + 1,
    with the loop's bound to the %.3e its message prints; it then reports
    the loop's value and bound."""
    try:
        r = remainder_with_bound(z, n, depth=depth)
    except NumericalError as exc:
        value, bound, terms, diverged = _loop_remainder(z, n, depth)
        assert diverged
        assert str(exc) == f"remainder series diverges at k={terms + 1} with bound {bound:.3e}"
        return value, bound, terms, True
    return r.value, r.bound, r.terms_used, False


class TestRemainderRowsAgainstLoop:
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(0.05, 3.0),
                st.floats(-60.0, 60.0),
                st.sampled_from((10, 20, 50, 64, 128, 4096)),
            ),
            min_size=1,
            max_size=16,
        ),
        depth=st.integers(1, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_row_follows_its_own_stopping_rule(self, rows, depth):
        rows = [(complex(re, im), n) for re, im, n in rows if abs(im) <= math.pi * n]
        for zi, ni in rows:
            got = _remainder_parts(zi, ni, depth)
            want = _loop_remainder(zi, ni, depth)
            assert got[2:] == want[2:]
            assert got[0] == pytest.approx(want[0], rel=1e-13, abs=1e-300)
            assert got[1] == pytest.approx(want[1], rel=1e-13)

    @given(
        rows=st.lists(
            st.tuples(
                st.floats(0.05, 3.0),
                st.sampled_from((-1.0, 1.0)),
                st.sampled_from((10, 64, 1000, 4096, 2**14, 2**16)),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @example(rows=[(0.5, 1.0, 10), (0.5, -1.0, 4096), (3.0, 1.0, 2**16)])
    @settings(max_examples=30, deadline=None)
    def test_window_edge_rows_at_full_depth(self, rows):
        """At |Im z| = pi n and depth 30 the Pochhammer product grows fast
        from n = 2^16 on; no warning escapes, and each sum stops as the
        written-out loop does."""
        for re, sign, n in rows:
            z = complex(re, sign * max_im(n))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _remainder_parts(z, n, 30)
            want = _loop_remainder(z, n, 30)
            assert got[2:] == want[2:]
            assert got[0] == pytest.approx(want[0], rel=1e-13, abs=1e-300)
            assert got[1] == pytest.approx(want[1], rel=1e-13)
