import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetascope.errors import (
    ConfigError,
    DomainError,
    PoleError,
    PrecisionNotReachedError,
    WindowError,
)
from zetascope import euler_maclaurin
from zetascope.euler_maclaurin import (
    EulerMaclaurinConfig,
    remainder,
    remainder_with_bound,
    zeta_hat_reference,
    zeta_hat_reference_array,
)
from zetascope.series import xi_partial, zeta_hat_partial, zeta_partial
from zetascope.special import bernoulli_numbers, complex_pow_base_real

from conftest import RHO_1

PI2_6 = math.pi**2 / 6.0
ZETA_HALF = -1.46035450880958681288949915252  # frozen high-precision value


class TestConfig:
    def test_defaults_valid(self):
        cfg = EulerMaclaurinConfig()
        assert cfg.depth == 10 and cfg.n_base == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"depth": 0},
            {"depth": 31},
            {"n_base": 5},
            {"target_rel_error": 0.0},
            {"window_C": 1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            EulerMaclaurinConfig(**kwargs)


class TestWindow:
    def test_real_axis_always_inside(self):
        assert 0.0 <= EulerMaclaurinConfig(window_C=2.0).max_im(10)

    def test_high_ordinate_outside(self):
        assert not 100.0 <= EulerMaclaurinConfig(window_C=2.0).max_im(10)

    def test_first_zero_ordinate_inside_small_n(self):
        assert 14.13 <= EulerMaclaurinConfig(window_C=2.0).max_im(5)


class TestRemainder:
    def test_single_leading_term(self):
        r = remainder(2.0 + 0.0j, 10, EulerMaclaurinConfig(depth=1))
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
        a = remainder_with_bound(RHO_1, 2**8, EulerMaclaurinConfig(depth=4))
        b = remainder_with_bound(RHO_1, 2**8, EulerMaclaurinConfig(depth=5))
        assert abs(a.value - b.value) <= 2.0 * a.bound

    def test_requires_positive_real_part(self):
        with pytest.raises(DomainError):
            remainder(complex(-0.5, 3.0), 100)

    def test_window_enforced(self):
        with pytest.raises(WindowError):
            remainder(complex(0.5, 90.0), 10)

    def test_deepest_truncation_bounds_with_the_next_term(self):
        # at depth 30 the bound is the 31st term, B_62 (2)(3)...(62) / 62! 10^(-63)
        cfg = EulerMaclaurinConfig(depth=30, target_rel_error=1e-300)
        r = remainder_with_bound(2.0, 10, cfg)
        assert r.terms_used == 30
        assert r.bound == pytest.approx(abs(bernoulli_numbers(31)[30]) * 1e-63, rel=1e-12)

    def test_divergence_before_target_reported(self):
        with pytest.raises(PrecisionNotReachedError) as exc:
            remainder(complex(0.5, 30.0), 10, EulerMaclaurinConfig(depth=30))
        assert exc.value.bound > 0

    def test_order_tracks_minus_one_minus_re_z(self):
        prev = abs(remainder(RHO_1, 2**6))
        for k in range(7, 17):
            cur = abs(remainder(RHO_1, 2**k))
            ratio = cur / prev
            assert 2.0**-1.7 <= ratio <= 2.0**-1.3
            prev = cur


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
        cfg = EulerMaclaurinConfig()
        a = zeta_hat_reference(z, cfg)
        b = zeta_hat_reference(z, EulerMaclaurinConfig(n_base=113))
        c = zeta_hat_reference(z, EulerMaclaurinConfig(n_base=400))
        scale = max(abs(a), 1e-6)
        assert abs(a - b) <= 10.0 * cfg.target_rel_error * scale
        assert abs(a - c) <= 10.0 * cfg.target_rel_error * scale

    def test_pole_and_domain(self):
        with pytest.raises(PoleError):
            zeta_hat_reference(1.0 + 0.0j)
        with pytest.raises(DomainError):
            zeta_hat_reference(complex(-0.2, 5.0))

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
    def test_rows_equal_scalar_bit_for_bit(self):
        z = np.array([2.0 + 0j, complex(0.75, 33.3), complex(0.5, -90.0), 0.1 + 0j])
        got = zeta_hat_reference_array(z)
        assert [complex(g) for g in got] == [zeta_hat_reference(complex(v)) for v in z]

    def test_errors_name_the_row(self):
        with pytest.raises(DomainError, match=r"-0\.2"):
            zeta_hat_reference_array([2.0, complex(-0.2, 5.0)])
        with pytest.raises(DomainError, match="nan"):
            zeta_hat_reference_array([complex(0.5, math.nan)])
        with pytest.raises(PoleError):
            zeta_hat_reference_array([2.0, 1.0])

    def test_diverged_row_doubles_its_own_n(self, monkeypatch):
        # the remainder is flagged diverged for the second row on the first
        # try only: that row alone is redone, at twice its n
        rows = euler_maclaurin._remainder_rows
        seen = []

        def flag_once(z, n, cfg):
            acc, bound, terms, diverged = rows(z, n, cfg)
            seen.append(n.tolist())
            if len(seen) == 1:
                diverged[1] = True
            return acc, bound, terms, diverged

        monkeypatch.setattr(euler_maclaurin, "_remainder_rows", flag_once)
        z = [complex(0.5, 14.0), complex(0.5, 40.0), complex(0.5, 60.0)]
        got = zeta_hat_reference_array(z)
        assert seen == [[50, 51, 77], [102]]
        assert got[1] == pytest.approx(zeta_hat_reference(z[1]), rel=1e-11)

    def test_diverged_row_at_the_cap_raises(self, monkeypatch):
        def always(z, n, cfg):
            return np.zeros_like(z), np.ones(z.shape), np.zeros(z.shape, int), n > 60

        monkeypatch.setattr(euler_maclaurin, "_remainder_rows", always)
        monkeypatch.setattr(euler_maclaurin, "N_CAP", 200)
        with pytest.raises(PrecisionNotReachedError):
            zeta_hat_reference_array([complex(0.5, 14.0), complex(0.5, 60.0)])

    def test_window_error_names_the_row(self):
        with pytest.raises(WindowError, match=r"2\*pi\*10/"):
            euler_maclaurin._remainder_rows(
                np.array([complex(0.5, 1.0), complex(0.5, 90.0)]),
                np.array([100, 10]),
                EulerMaclaurinConfig(),
            )


def _loop_remainder(z: complex, n: int, cfg: EulerMaclaurinConfig):
    """The scalar recurrence, one term at a time: (value, bound, terms, diverged)."""
    b2k = bernoulli_numbers(cfg.depth + 1)
    acc, poch, prev_mod, k = 0j, z, math.inf, 1
    while True:
        term = b2k[k - 1] / math.factorial(2 * k) * poch * cmath.exp(-(z + 2 * k - 1) * math.log(n))
        mod = abs(term)
        if mod >= prev_mod or k > cfg.depth:
            diverged = mod >= prev_mod and mod > cfg.target_rel_error * abs(acc)
            return acc, mod, k - 1, diverged
        acc += term
        prev_mod = mod
        if mod <= cfg.target_rel_error * abs(acc):
            return acc, mod, k, False
        poch *= (z + (2 * k - 1)) * (z + 2 * k)
        k += 1


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
        target=st.sampled_from((1e-12, 1e-6, 0.5)),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_row_follows_its_own_stopping_rule(self, rows, depth, target):
        cfg = EulerMaclaurinConfig(depth=depth, target_rel_error=target)
        rows = [(complex(re, im), n) for re, im, n in rows if abs(im) <= math.pi * n]
        if not rows:
            return
        z = np.array([r[0] for r in rows])
        n = np.array([r[1] for r in rows])
        acc, bound, terms, diverged = euler_maclaurin._remainder_rows(z, n, cfg)
        for i, (zi, ni) in enumerate(rows):
            want = _loop_remainder(zi, ni, cfg)
            assert (terms[i], diverged[i]) == (want[2], want[3])
            assert acc[i] == pytest.approx(want[0], rel=1e-13, abs=1e-300)
            assert bound[i] == pytest.approx(want[1], rel=1e-13)
