import cmath
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from zetascope.errors import DomainError, NumericalError
from zetascope.series import (
    N_CAP,
    _CHUNK,
    _chunk_sums,
    _sums,
    raw_sums_at,
    xi_partial,
    zeta_hat_partial,
    zeta_hat_partial_derivative,
    zeta_partial,
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
        with pytest.raises(NumericalError):
            zeta_partial(-300.0 + 0.0j, 50)

    def test_overflow_raises_no_numpy_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
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
        with pytest.raises(DomainError, match="pole"):
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


class TestZetaPartialArray:
    """_sums: one z, its partial sums at an array of n in one pass."""

    @given(
        z=strip_z,
        ns=st.sets(st.integers(1, 13000) | st.sampled_from(_STRADDLE), min_size=1, max_size=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_rows_equal_scalar_sums_bit_for_bit(self, z, ns):
        ns = np.array(sorted(ns))
        got = _sums(z, ns, 4)
        assert got.shape == (ns.size, 4)
        assert got.tolist() == _sums(z, ns, 6)[:, :4].tolist()
        for n, row in zip(ns.tolist(), got.tolist()):
            expect = (zeta_partial(z, n), xi_partial(z, n))
            assert [x.hex() for x in row] == [x.hex() for c in expect for x in (c.real, c.imag)]

    def test_non_finite_z_rejected(self):
        with pytest.raises(DomainError, match="nan"):
            raw_sums_at(complex(math.nan, 1.0), (4,))
        with pytest.raises(DomainError):
            raw_sums_at(complex(0.5, math.inf), (4,))

    def test_overflow_names_the_row(self):
        with pytest.raises(NumericalError, match=r"-800"):
            raw_sums_at(-800.0 + 0j, (10, 10**5))

    def test_n_validation(self):
        # one bad checkpoint refuses the whole pass
        for bad in (0, N_CAP + 1, 2.5):
            with pytest.raises(DomainError):
                raw_sums_at(2.0 + 0j, (4, bad))

    def test_no_checkpoint_rejected(self):
        with pytest.raises(DomainError, match="needs at least one checkpoint"):
            raw_sums_at(2, [])


class TestSumsByMask:
    @given(
        z=strip_z,
        ns=st.lists(st.integers(1, 9000) | st.sampled_from(_STRADDLE), min_size=1, max_size=6),
    )
    @settings(max_examples=12, deadline=None)
    def test_unsorted_repeated_n_equal_one_row_sums_bit_for_bit(self, z, ns):
        ns = ns + ns[:1]  # a repeated n in every pass, in the order drawn
        got = raw_sums_at(z, iter(ns), include_derivative=True)
        assert list(got) == sorted(set(ns))
        for n in ns:
            alone = raw_sums_at(z, (n,), include_derivative=True)[n]
            assert _bits(got[n]) == _bits(alone)


class TestSum2AgainstFsum:
    @given(
        sigma=st.floats(-1.0, 3.0),
        t=st.floats(-200.0, 200.0),
        n=st.one_of(
            st.sampled_from((4095, 4096, 4097, 8191, 8192, 8193)), st.integers(1, 20000)
        ),
    )
    @settings(max_examples=40, deadline=None)
    # a row far smaller than k**(-Re z): its sigma must come from its own max
    @example(sigma=0.0, t=1.43277244866829e-196, n=4095)
    def test_each_component_within_one_ulp_of_fsum(self, sigma, t, n):
        """The pass over the kernel's own float terms, carried across chunk
        edges, is within 1 ulp of their correctly rounded sum."""
        lk = np.log(np.arange(1, n + 1, dtype=np.float64))
        scale = np.exp(-sigma * lk)
        re, im = np.cos(-t * lk) * scale, np.sin(-t * lk) * scale
        sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)  # (-1)**(k-1)
        terms = (re, im, sign * re, sign * im, -lk * re, -lk * im)
        s = raw_sums_at(complex(sigma, t), (n,), include_derivative=True)[n]
        got = (s.zeta, s.xi, s.zeta_prime)
        for value, want in zip([c for v in got for c in (v.real, v.imag)], terms):
            exact = math.fsum(want.tolist())
            assert abs(value - exact) <= math.ulp(exact)


def _unsigned_zero_hex(values) -> list[str]:
    """Each real and imaginary part as hex, with an exact zero's sign dropped."""
    return [(x + 0.0).hex() for c in values if c is not None for x in (c.real, c.imag)]


class TestConjugateSymmetry:
    @given(
        z=st.builds(complex, st.floats(-1.0, 3.0), st.floats(-200.0, 200.0)),
        ns=st.sets(st.integers(1, 13000) | st.sampled_from(_STRADDLE), min_size=1, max_size=4),
        derivative=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_sums_at_conjugate_are_conjugates_bit_for_bit(self, z, ns, derivative):
        """functional_eq._mirror reads the table at conj(z) off the one at z."""
        at_z = raw_sums_at(z, ns, include_derivative=derivative)
        at_conj = raw_sums_at(z.conjugate(), ns, include_derivative=derivative)
        for n in ns:
            mirrored = (None if c is None else c.conjugate() for c in at_conj[n])
            assert _unsigned_zero_hex(mirrored) == _unsigned_zero_hex(at_z[n])


class TestCutInsideChunk:
    """The last chunk is summed whole, so a pass that stops inside it gives
    the same bits as one that goes on past it."""

    @pytest.mark.parametrize("n", [777, 4095])
    @pytest.mark.parametrize("others", [(), (4097,), (8193,), (12000,), (4097, 8193, 12000)])
    # terms that shrink with k, and terms that grow, so a chunk's largest
    # term lies past n
    @pytest.mark.parametrize("z", [RHO_1, complex(-0.5, 14.134725141734693)])
    def test_sum_ignores_later_checkpoints(self, n, others, z):
        alone = raw_sums_at(z, (n,), include_derivative=True)[n]
        shared = raw_sums_at(z, (n, *others), include_derivative=True)[n]
        assert _bits(shared) == _bits(alone)

    @given(
        cut=st.integers(1, _CHUNK),
        others=st.sets(st.integers(1, _CHUNK), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunk_parts_ignore_other_cuts(self, cut, others, seed):
        """A cut's exact part and rest, not only the sum they round to, are
        the same bits whatever other cuts share the chunk. The terms span
        2^-40..1, so the rests are not exact and their order shows."""
        rng = np.random.default_rng(seed)
        terms = rng.standard_normal((4, _CHUNK)) * 2.0 ** rng.uniform(-40, 0, (4, _CHUNK))
        cuts = sorted({cut, *others, _CHUNK})
        alone = _chunk_sums(terms.copy(), np.empty_like(terms), sorted({cut, _CHUNK}))
        shared = _chunk_sums(terms.copy(), np.empty_like(terms), cuts)
        for a, b in zip(alone, shared):
            assert [x.hex() for x in a[:, 0].tolist()] == [
                x.hex() for x in b[:, cuts.index(cut)].tolist()
            ]


class TestBookkeepingInPython:
    def test_pass_needs_no_small_array_numpy_paths(self, monkeypatch):
        """Which n a chunk holds, each row's sigma and the overflow check are
        Python arithmetic: numpy only computes and sums the chunks' terms."""
        ns = (1, 4095, 4096, 4097, 8192, 65536)
        want = raw_sums_at(RHO_1, ns, include_derivative=True)

        def refused(*args, **kwargs):
            raise AssertionError("the pass ran a numpy path on its bookkeeping")

        for name in ("nonzero", "isfinite", "frexp"):
            monkeypatch.setattr(np, name, refused)
        got = raw_sums_at(RHO_1, ns, include_derivative=True)
        assert {n: _bits(s) for n, s in got.items()} == {n: _bits(s) for n, s in want.items()}


class TestOverflowEdge:
    def test_sigma_past_the_floats_is_scaled_not_overflowed(self):
        # 1.5 * 2**e overflows for the derivative row here; the sums do not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = raw_sums_at(complex(-84.0, 0.3), (4096,), include_derivative=True)[4096]
        assert s.zeta.real.hex() == "-0x1.3625569d3f1bcp+1013"
        assert all(cmath.isfinite(v) for v in s)

    def test_sum_past_the_floats_still_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                raw_sums_at(complex(-84.7, 0.3), (4096,), include_derivative=True)
