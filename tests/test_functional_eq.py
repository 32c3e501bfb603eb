import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetascope import functional_eq
from zetascope.convergence import sweep
from zetascope.errors import DegenerateRatioError, PoleError
from zetascope.functional_eq import (
    Quantity,
    _ratio,
    _value,
    h_hat_exact,
    h_hat_n,
    h_n,
    small_g_2n,
    small_h_2n,
)
from zetascope.series import RawSums, xi_partial, zeta_hat_partial, zeta_partial
from zetascope.special import complex_pow_base_real

from conftest import RHO_1


class TestExactFactor:
    def test_fixed_point_at_one_half(self):
        # the functional equation forces the factor to equal 1 at z = 1/2
        assert h_hat_exact(0.5 + 0.0j) == pytest.approx(1.0 + 0.0j, rel=1e-14)

    def test_at_minus_one(self):
        # ratio of the classical values at -1 and 2: (-1/12) / (pi^2/6)
        expected = -1.0 / (2.0 * math.pi**2)
        assert h_hat_exact(-1.0 + 0.0j).real == pytest.approx(expected, rel=1e-13)

    def test_frozen_value_at_first_zero(self):
        ref = complex(-0.950564419986351732313806816969, -0.310527427864288205961081743505)
        assert h_hat_exact(RHO_1) == pytest.approx(ref, rel=1e-12)

    def test_frozen_value_in_strip(self):
        ref = complex(0.766019517618818858255452130466, 0.570415961917553859424963169708)
        assert h_hat_exact(complex(0.3, 5.0)) == pytest.approx(ref, rel=1e-12)

    def test_frozen_value_off_line(self):
        ref = complex(-0.564455392121557977578406068006, -0.340256121097148639257921793285)
        assert h_hat_exact(complex(0.75, 33.3)) == pytest.approx(ref, rel=1e-12)

    @given(t=st.floats(0.5, 60.0))
    @settings(max_examples=100)
    def test_unit_modulus_on_the_line(self, t):
        assert abs(h_hat_exact(complex(0.5, t))) == pytest.approx(1.0, rel=1e-11)

    @given(
        x=st.floats(-3.3, 2.5),
        t=st.floats(1.0, 1000.0),
        lower=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_against_mpmath_up_to_t_1000(self, x, t, lower):
        # sin(pi z / 2) alone overflows from |Im z| ~ 453; the factor must not
        mpmath = pytest.importorskip("mpmath")
        z = complex(x, -t if lower else t)
        with mpmath.workdps(40):
            w = mpmath.mpc(z.real, z.imag)
            ref = complex(
                2 * mpmath.gamma(1 - w) * (2 * mpmath.pi) ** (w - 1) * mpmath.sin(mpmath.pi * w / 2)
            )
        assert abs(h_hat_exact(z) - ref) <= 5e-12 * abs(ref)

    def test_zero_at_negative_even_integers(self):
        assert h_hat_exact(-2.0 + 0.0j) == 0.0 + 0.0j
        assert h_hat_exact(-6.0 + 0.0j) == 0.0 + 0.0j

    def test_finite_limit_at_positive_even_integers(self):
        # the sine zero cancels the Gamma pole; at z=2 the limit is the
        # ratio of the classical values (pi^2/6) / (-1/12)
        assert h_hat_exact(2.0 + 0.0j).real == pytest.approx(
            -2.0 * math.pi**2, rel=1e-13
        )

    def test_pole_at_one(self):
        with pytest.raises(PoleError):
            h_hat_exact(1.0 + 0.0j)

    @given(t=st.floats(1.0, 45.0))
    @settings(max_examples=60)
    def test_conjugate_symmetry(self, t):
        z = complex(0.4, t)
        assert h_hat_exact(z.conjugate()) == pytest.approx(
            h_hat_exact(z).conjugate(), rel=1e-11
        )


class TestFiniteRatios:
    def test_h_hat_n_definition(self):
        z, n = complex(0.3, 5.0), 777
        expected = zeta_hat_partial(z, n) / zeta_hat_partial(1.0 - z, n)
        assert h_hat_n(z, n) == expected

    def test_h_n_definition(self):
        z, n = complex(0.3, 5.0), 777
        assert h_n(z, n) == zeta_partial(z, n) / zeta_partial(1.0 - z, n)

    def test_h_hat_n_converges_off_zero(self):
        # away from zeros both regularized sums converge in the strip, so
        # the finite ratio approaches the exact factor
        # slowest piece converges like n^(-min(sigma, 1-sigma)), so the
        # rate here is n^(-0.3); check the value and that the error shrinks
        z = complex(0.3, 5.0)
        exact = h_hat_exact(z)
        assert h_hat_n(z, 2**16) == pytest.approx(exact, rel=5e-2)
        err_small = abs(h_hat_n(z, 2**10) - exact)
        err_large = abs(h_hat_n(z, 2**16) - exact)
        assert err_large < err_small


class TestCompositeSums:
    def test_small_h_definition(self):
        z, n = RHO_1, 300
        expected = xi_partial(z, 2 * n) + zeta_hat_partial(z, 2 * n)
        assert small_h_2n(z, n) == expected

    def test_small_g_definition(self):
        z, n = RHO_1, 300
        expected = xi_partial(z, 2 * n) + 0.5 * complex_pow_base_real(2 * n, z)
        assert small_g_2n(z, n) == expected

    def test_small_g_at_the_tail_pole(self):
        # g_2n reads only the boundary term, which stays finite at z = 1
        z, n = 1.0 + 0.0j, 300
        expected = xi_partial(z, 2 * n) + 0.5 * complex_pow_base_real(2 * n, z)
        assert small_g_2n(z, n) == expected

    def test_small_h_decay_order(self):
        # |h_2n| falls by about 2^(3/2) per doubling at an on-line zero
        a = abs(small_h_2n(RHO_1, 2**9))
        b = abs(small_h_2n(RHO_1, 2**10))
        assert 2.0**-1.8 <= b / a <= 2.0**-1.2

    def test_small_g_decay_order(self):
        # |g_2n| carries the slower n^(-1/2 - 1) envelope than h_2n at rho,
        # but still decays; check it shrinks monotonically over doublings
        mods = [abs(small_g_2n(RHO_1, 2**k)) for k in range(8, 12)]
        assert all(b < a for a, b in zip(mods, mods[1:]))


def _bits(v: complex) -> tuple[str, str]:
    return v.real.hex(), v.imag.hex()


class TestSinglePath:
    """Sweeps and the one-point functions read the same registry formula."""

    @pytest.mark.parametrize("z", [RHO_1, complex(0.75, 33.3)])
    @pytest.mark.parametrize(
        "quantity,fn",
        [
            (Quantity.ZETA_HAT_AT_RHO, zeta_hat_partial),
            (Quantity.H_HAT_N, h_hat_n),
            (Quantity.H_N, h_n),
            (Quantity.SMALL_H_2N, small_h_2n),
            (Quantity.SMALL_G_2N, small_g_2n),
        ],
    )
    def test_sweep_last_point_is_the_function(self, quantity, fn, z):
        n, v = sweep(quantity, z, n0=64, doublings=4).points[-1]
        assert n == 1024
        assert _bits(v) == _bits(fn(z, 1024))

    @pytest.mark.parametrize("quantity", [Quantity.H_N])
    def test_degenerate_denominator_guarded_in_the_formula(self, quantity):
        sums = RawSums(zeta=1.0 + 0.0j, xi=0j, zeta_prime=None)
        vanishing = RawSums(zeta=0j, xi=0j, zeta_prime=None)
        with pytest.raises(DegenerateRatioError):
            _value(quantity, RHO_1, 4, {4: sums, 8: sums}, {4: vanishing, 8: vanishing})

    def test_denominator_floor_near_miss(self):
        # the floor is 1e-300: a denominator of modulus 1e-250 divides, and
        # one of 1e-301 is refused
        num, den = 3e-250 + 1e-250j, 1e-250j
        assert _ratio(num, den, Quantity.H_N) == num / den
        with pytest.raises(DegenerateRatioError, match="H_n: denominator modulus below 1e-300"):
            _ratio(num, 1e-301 + 0j, Quantity.H_N)

    def test_refusal_names_the_floor(self, monkeypatch):
        monkeypatch.setattr(functional_eq, "DENOMINATOR_FLOOR", 1e-200)
        with pytest.raises(DegenerateRatioError, match="H_n: denominator modulus below 1e-200"):
            _ratio(1.0 + 0j, 1e-250 + 0j, Quantity.H_N)
