import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zetascope.errors import DomainError, PoleError
from zetascope.special import (
    bernoulli_numbers,
    complex_pow_base_real,
    log_gamma,
)

strip_z = st.builds(
    complex,
    st.floats(0.05, 0.95),
    st.floats(-50.0, 50.0),
)


class TestComplexPow:
    def test_base_one(self):
        assert complex_pow_base_real(1.0, complex(3.7, -2.2)) == 1.0 + 0.0j

    def test_four_to_minus_half(self):
        assert complex_pow_base_real(4.0, 0.5 + 0.0j) == pytest.approx(0.5, rel=1e-15)

    def test_modulus_law_on_the_line(self):
        z = complex(0.5, 14.134725)
        v = complex_pow_base_real(2.0, z)
        assert abs(v) == pytest.approx(2.0**-0.5, rel=1e-13)
        # direct exp/log cross-check
        direct = cmath.exp(-z * cmath.log(2.0))
        assert v == pytest.approx(direct, rel=1e-13)

    @given(k=st.floats(0.1, 1000.0), z=strip_z)
    @settings(max_examples=200)
    def test_modulus_law_property(self, k, z):
        assert abs(complex_pow_base_real(k, z)) == pytest.approx(
            k**-z.real, rel=1e-13
        )

    @pytest.mark.parametrize("k", [0.0, -1.0, -0.5])
    def test_nonpositive_base_rejected(self, k):
        with pytest.raises(DomainError):
            complex_pow_base_real(k, 1.0 + 0.0j)


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0 + 0.0j)) < 1e-14

    def test_at_half(self):
        assert log_gamma(0.5 + 0.0j).real == pytest.approx(
            0.5 * math.log(math.pi), rel=1e-14
        )
        assert abs(log_gamma(0.5 + 0.0j).imag) < 1e-14

    def test_frozen_reference_point(self):
        # independent high-precision oracle value, frozen
        ref = complex(-10.6705811992551269951863982776, 6.36084198456499410568951122031)
        got = log_gamma(complex(0.25, 7.067))
        assert got == pytest.approx(ref, rel=1e-12)

    def test_frozen_reference_on_line(self):
        ref = complex(-46.2049512706422258351593210128, 72.0373104288057932152703929447)
        assert log_gamma(complex(0.5, 30.0)) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_poles_rejected(self, z):
        with pytest.raises(PoleError):
            log_gamma(complex(z, 0.0))

    @pytest.mark.parametrize(
        "z",
        [
            complex(math.nan, 1.0),
            complex(1.0, math.nan),
            complex(math.inf, 1.0),
            complex(1.0, math.inf),
        ],
        ids=["nan+1j", "1+nanj", "inf+1j", "1+infj"],
    )
    def test_non_finite_rejected(self, z):
        # refused before any work: no NaN result and no RuntimeWarning
        with pytest.raises(DomainError, match="finite"):
            log_gamma(z)

    @given(z=strip_z)
    @settings(max_examples=150)
    def test_reflection(self, z):
        s = cmath.sin(cmath.pi * z)
        if abs(s) < 1e-6:
            return
        lhs = cmath.exp(log_gamma(z)) * cmath.exp(log_gamma(1.0 - z))
        rhs = cmath.pi / s
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @given(z=strip_z)
    @settings(max_examples=150)
    def test_recurrence(self, z):
        if abs(z) < 1e-3:
            return
        lhs = cmath.exp(log_gamma(z + 1.0))
        rhs = z * cmath.exp(log_gamma(z))
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestLogGammaArray:
    """The lift below Re z = 0.5 and its bound."""

    def test_per_element_shift(self):
        # each point lifts by its own m = ceil(0.5 - Re z), 0 for Re z >= 0.5
        for v in (complex(-3.7, 2.0), complex(0.75, -9.0), complex(-0.2, 0.0), 0.5 + 0j):
            assert cmath.exp(log_gamma(v)) == pytest.approx(complex(mpmath_gamma(v)), rel=1e-12)

    def test_pole_in_one_element(self):
        with pytest.raises(PoleError, match="-2.0"):
            log_gamma(complex(-2.0, 0.0))

    @pytest.mark.parametrize("re", [-4095.6, -1e5, -math.inf])
    def test_lift_past_two_to_the_twelve_is_refused_at_once(self, re):
        # one Python step per unit of lift: at -1e9 that would be hours; an
        # infinite real part is refused as non-finite
        match = r"Re z >= -4095.5" if math.isfinite(re) else "finite"
        with pytest.raises(DomainError, match=match):
            log_gamma(complex(re, 1.0))

    def test_longest_lift_meets_the_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        z = complex(-4095.5, 1.0)  # m = 2^12 exactly
        got = log_gamma(z)
        with mpmath.workdps(30):
            ref = mpmath.loggamma(mpmath.mpc(z.real, z.imag))
            assert abs(mpmath.mpc(got.real, got.imag) - ref) <= 1e-14 * abs(ref)


#: the strip of the mpmath oracle test: Re z in [-5, 5], |Im z| <= 1000
wide_z = st.builds(complex, st.floats(-5.0, 5.0), st.floats(-1000.0, 1000.0))


class TestLogGammaOracle:
    @given(zs=st.lists(wide_z, min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_against_mpmath(self, zs):
        mpmath = pytest.importorskip("mpmath")
        assume(not any(z.imag == 0.0 and z.real == math.floor(z.real) <= 0.0 for z in zs))
        for z in zs:
            got = log_gamma(z)
            with mpmath.workdps(30):
                ref = mpmath.loggamma(mpmath.mpc(z.real, z.imag))
                err = abs(mpmath.mpc(got.real, got.imag) - ref)
                assert err <= 1e-14 * max(1, abs(ref)), z


def mpmath_gamma(z: complex):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return mpmath.gamma(mpmath.mpc(z.real, z.imag))


def _bernoulli_by_recurrence(m: int) -> tuple[float, ...]:
    # the exact rational recurrence sum_{k=0}^{j} C(j+1, k) B_k = 0 (j >= 1),
    # then each B_2k rounded once by Fraction.__float__
    b = [Fraction(1)]
    for j in range(1, 2 * m + 1):
        b.append(-sum(math.comb(j + 1, k) * b[k] for k in range(j)) / (j + 1))
    return tuple(float(b[2 * k]) for k in range(1, m + 1))


def _zeta_even(two_k: int) -> float:
    # summation oracle for zeta at even integers >= 2: direct sum plus the
    # integral tail model and midpoint correction (no Bernoulli terms, so
    # the check stays independent of the recurrence under test)
    n = 2000
    total = 0.0
    for k in range(1, n + 1):
        total += k**-two_k
    return total + n ** (1 - two_k) / (two_k - 1) - 0.5 * n**-two_k


class TestBernoulli:
    def test_first_value(self):
        assert bernoulli_numbers(1) == (pytest.approx(1.0 / 6.0, rel=1e-15),)

    def test_first_two(self):
        t = bernoulli_numbers(2)
        assert t[0] == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert t[1] == pytest.approx(-1.0 / 30.0, rel=1e-15)

    @pytest.mark.parametrize("m", [0, -1, 32, True, 2.0])
    def test_depth_out_of_range(self, m):
        # True is refused by type: it would run as depth 1
        with pytest.raises(DomainError, match=f"got {m!r}$"):
            bernoulli_numbers(m)

    def test_against_zeta_oracle(self):
        # B_2k = (-1)^(k+1) 2 (2k)! / (2 pi)^(2k) * zeta(2k)
        table = bernoulli_numbers(5)
        for k in range(1, 6):
            expected = (
                (-1) ** (k + 1)
                * 2.0
                * math.factorial(2 * k)
                / (2.0 * math.pi) ** (2 * k)
                * _zeta_even(2 * k)
            )
            assert table[k - 1] == pytest.approx(expected, rel=1e-9)

    def test_sign_alternation_and_growth(self):
        t = bernoulli_numbers(10)
        for k in range(2, 11):
            assert t[k - 1] * t[k - 2] < 0
        mods = [abs(v) for v in t]
        assert mods[5] > mods[4] > mods[3]  # growth sets in past k ~ 4

    @pytest.mark.parametrize("m", range(1, 32))
    def test_bit_for_bit_the_rational_recurrence(self, m):
        got = [b.hex() for b in bernoulli_numbers(m)]
        assert got == [b.hex() for b in _bernoulli_by_recurrence(m)]
