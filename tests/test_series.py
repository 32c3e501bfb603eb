import cmath
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from zetascope.errors import DomainError, PoleError, SumOverflowError
from zetascope.series import (
    N_CAP,
    raw_sums_at,
    xi_partial,
    zeta_hat_partial,
    zeta_hat_partial_derivative,
    zeta_partial,
    zeta_partial_array,
    zeta_partial_derivative,
)
from zetascope.special import complex_pow_base_real

from conftest import RHO_1

strip_z = st.builds(complex, st.floats(0.1, 0.9), st.floats(-30.0, 30.0))
PI2_6 = math.pi**2 / 6.0


class TestZetaPartial:
    def test_three_terms_at_two(self):
        assert zeta_partial(2.0 + 0.0j, 3) == pytest.approx(49.0 / 36.0, rel=1e-15)

    def test_all_ones_at_zero(self):
        assert zeta_partial(0.0 + 0.0j, 7) == 7.0 + 0.0j

    def test_million_terms_against_tail_bound(self):
        n = 10**6
        v = zeta_partial(2.0 + 0.0j, n).real
        # integral tail bounds: 1/(n+1) < zeta(2) - zeta_n(2) < 1/n
        assert v + 1.0 / (n + 1) < PI2_6 < v + 1.0 / n
        assert v == pytest.approx(PI2_6, abs=1e-6)

    def test_n_validation(self):
        with pytest.raises(DomainError):
            zeta_partial(2.0 + 0.0j, 0)
        with pytest.raises(DomainError):
            zeta_partial(2.0 + 0.0j, N_CAP + 1)

    def test_bool_n_rejected(self):
        with pytest.raises(DomainError):
            zeta_partial(2.0 + 0.0j, True)
        with pytest.raises(DomainError):
            raw_sums_at(2.0 + 0.0j, (4, True))

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            zeta_partial(-300.0 + 0.0j, 50)

    def test_overflow_raises_no_numpy_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                zeta_partial(-300.0 + 0.0j, 50)


class TestXiPartial:
    def test_three_terms_at_one(self):
        assert xi_partial(1.0 + 0.0j, 3) == pytest.approx(5.0 / 6.0, rel=1e-15)

    @pytest.mark.parametrize("m", [1, 5, 32])
    def test_even_count_cancels_at_zero(self, m):
        assert xi_partial(0.0 + 0.0j, 2 * m) == 0.0 + 0.0j

    def test_limit_at_two(self):
        # eta(2) = (1 - 2^(1-2)) zeta(2) = pi^2 / 12; alternating tail < next term
        assert xi_partial(2.0 + 0.0j, 10**5).real == pytest.approx(
            PI2_6 / 2.0, abs=1e-9
        )


class TestZetaHatPartial:
    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_exact_zero_at_origin(self, n):
        assert zeta_hat_partial(0.0 + 0.0j, n) == 0.0 + 0.0j

    def test_definitional_identity_at_two(self):
        # tail model at z=2 is 100^(-1)/(1-2) = -0.01, so the hat adds 0.01
        v = zeta_hat_partial(2.0 + 0.0j, 100)
        assert v == pytest.approx(zeta_partial(2.0 + 0.0j, 100) + 0.01, rel=1e-14)

    def test_pole_at_one(self):
        with pytest.raises(PoleError):
            zeta_hat_partial(1.0 + 0.0j, 10)

    def test_modulus_at_first_zero(self):
        n = 2**10
        v = abs(zeta_hat_partial(RHO_1, n))
        leading = 0.5 * n**-0.5
        assert leading / 2.0 <= v <= leading * 2.0

    def test_conjugate_symmetry(self):
        z = complex(0.5, 21.0)
        assert zeta_hat_partial(z, 512) == zeta_hat_partial(z.conjugate(), 512).conjugate()


class TestDerivatives:
    def test_single_term_is_zero(self):
        assert zeta_partial_derivative(3.3 + 1.1j, 1) == 0.0 + 0.0j

    def test_two_terms_at_two(self):
        assert zeta_partial_derivative(2.0 + 0.0j, 2).real == pytest.approx(
            -math.log(2.0) / 4.0, rel=1e-15
        )

    def test_hat_derivative_at_origin_n1(self):
        assert zeta_hat_partial_derivative(0.0 + 0.0j, 1) == -1.0 + 0.0j

    def test_hat_derivative_closed_form(self):
        z, n = 2.0 + 0.0j, 1000
        p = n * complex_pow_base_real(n, z)
        expected = (
            zeta_partial_derivative(z, n)
            + math.log(n) * p / (1.0 - z)
            - p / (1.0 - z) ** 2
        )
        assert zeta_hat_partial_derivative(z, n) == expected

    @pytest.mark.parametrize(
        "z,n",
        [
            (2.0 + 0.0j, 10**4),
            (0.5 + 14.0j, 2000),
            (0.8 - 3.0j, 500),
        ],
    )
    def test_plain_derivative_matches_finite_difference(self, z, n):
        h = 1e-5
        fd = (zeta_partial(z + h, n) - zeta_partial(z - h, n)) / (2.0 * h)
        assert zeta_partial_derivative(z, n) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize(
        "z,n",
        [
            (2.0 + 0.0j, 1000),
            (0.5 + 14.0j, 2000),
            (0.3 + 5.0j, 500),
        ],
    )
    def test_hat_derivative_matches_finite_difference(self, z, n):
        h = 1e-5
        fd = (zeta_hat_partial(z + h, n) - zeta_hat_partial(z - h, n)) / (2.0 * h)
        assert zeta_hat_partial_derivative(z, n) == pytest.approx(fd, rel=1e-6)


class TestSplittingIdentities:
    @given(z=strip_z, log2_n=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_raw_splitting(self, z, log2_n):
        n = 2**log2_n
        lhs = xi_partial(z, 2 * n)
        rhs = zeta_partial(z, 2 * n) - complex_pow_base_real(
            2.0, z - 1.0
        ) * zeta_partial(z, n)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale

    @given(z=strip_z, log2_n=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_regularized_splitting(self, z, log2_n):
        n = 2**log2_n
        lhs = xi_partial(z, 2 * n)
        rhs = zeta_hat_partial(z, 2 * n) - complex_pow_base_real(
            2.0, z - 1.0
        ) * zeta_hat_partial(z, n)
        # the tail models cancel analytically but not term-by-term in floats,
        # so rounding level is relative to the cancelled tail magnitude
        tail = (2 * n) ** (1.0 - z.real) / abs(1.0 - z)
        scale = max(abs(zeta_hat_partial(z, 2 * n)), abs(lhs), tail, 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale


def _mpmath_sums(z: complex, n: int):
    """zeta_n, xi_n and zeta_n' at z to 30 digits, through the Hurwitz zeta:
    zeta_n(s) = zeta(s) - zeta(s, n+1), xi_n(s) = zeta_n(s) - 2^(1-s) zeta_{n//2}(s),
    and zeta_n'(s) = zeta'(s) - zeta'(s, n+1)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        s = mpmath.mpc(z.real, z.imag)
        zeta_n = mpmath.zeta(s) - mpmath.zeta(s, n + 1)
        zeta_half = mpmath.zeta(s) - mpmath.zeta(s, n // 2 + 1)
        xi_n = zeta_n - mpmath.power(2, 1 - s) * zeta_half
        prime_n = mpmath.zeta(s, 1, 1) - mpmath.zeta(s, n + 1, 1)
        return [complex(v) for v in (zeta_n, xi_n, prime_n)]


class TestMpmathOracle:
    @pytest.mark.parametrize("n", [4097, 2**16])
    @pytest.mark.parametrize("z", [RHO_1, 1.0 - RHO_1], ids=["rho1", "1-rho1"])
    def test_sums_at_first_zero(self, z, n):
        zeta_n, xi_n, prime_n = _mpmath_sums(z, n)
        got = raw_sums_at(z, (n,), include_derivative=True)[n]
        assert abs(got.zeta - zeta_n) <= 2e-14
        assert abs(got.xi - xi_n) <= 2e-14
        assert abs(got.zeta_prime - prime_n) <= 1e-13


def _bits(sums) -> tuple[str, ...]:
    parts = (sums.zeta, sums.xi, sums.zeta_prime)
    return tuple(x.hex() for c in parts if c is not None for x in (c.real, c.imag))


#: checkpoints on both sides of the first two summation-chunk boundaries
_STRADDLE = (1, 2, 4095, 4096, 4097, 8191, 8192, 8193)


class TestCheckpointIndependence:
    @given(
        z=strip_z,
        straddle=st.sets(st.sampled_from(_STRADDLE), min_size=1, max_size=5),
        n=st.integers(1, 9000),
    )
    @settings(max_examples=30, deadline=None)
    def test_snapshot_ignores_other_checkpoints(self, z, straddle, n):
        checkpoints = straddle | {n}
        shared = raw_sums_at(z, checkpoints, include_derivative=True)
        for m in checkpoints:
            alone = raw_sums_at(z, (m,), include_derivative=True)[m]
            assert _bits(shared[m]) == _bits(alone)
            assert _bits(raw_sums_at(z, (m,))[m]) == _bits(alone)[:4]
            # the array wrapper reads the same chunked sums: the same bits for zeta
            (row,) = zeta_partial_array([z], [m]).tolist()
            assert (row.real.hex(), row.imag.hex()) == _bits(alone)[:2]


class TestZetaPartialArray:
    @given(
        rows=st.lists(
            st.tuples(strip_z, st.sampled_from((1, 50, 128, 4095, 4097, 9000))),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_rows_equal_scalar_sums_bit_for_bit(self, rows):
        z = np.array([r[0] for r in rows])
        n = np.array([r[1] for r in rows])
        got = zeta_partial_array(z, n)
        for zi, ni, gi in zip(z.tolist(), n.tolist(), got.tolist()):
            assert gi.real.hex() == zeta_partial(zi, ni).real.hex()
            assert gi.imag.hex() == zeta_partial(zi, ni).imag.hex()

    def test_non_finite_z_rejected(self):
        with pytest.raises(DomainError, match="nan"):
            zeta_partial_array([2.0, complex(math.nan, 1.0)], [4, 4])
        with pytest.raises(DomainError):
            raw_sums_at(complex(0.5, math.inf), (4,))

    def test_overflow_names_the_row(self):
        with pytest.raises(SumOverflowError, match=r"-800"):
            zeta_partial_array([2.0, -800.0], [10, 10**5])

    def test_n_validation(self):
        with pytest.raises(DomainError):
            zeta_partial_array([2.0], [0])
        with pytest.raises(DomainError):
            zeta_partial_array([2.0], [N_CAP + 1])
