"""Two kinds of failure: a refused argument is a DomainError (a ValueError),
a computation that failed on an accepted argument a NumericalError."""

import cmath

import pytest

from zetascope import errors, zeros
from zetascope.convergence import ConvergenceSeries, fit_power_law, ratio_limit
from zetascope.errors import DomainError, NumericalError
from zetascope.euler_maclaurin import remainder_with_bound
from zetascope.functional_eq import Quantity, _ratio
from zetascope.series import raw_sums_at
from zetascope.special import complex_pow_base_real, h_hat_exact

RHO_1 = complex(0.5, 14.134725141734693)


def test_three_types():
    defined = sorted(n for n, v in vars(errors).items() if isinstance(v, type))
    assert defined == ["DomainError", "NumericalError", "ZetascopeError"]
    assert issubclass(DomainError, errors.ZetascopeError)
    assert issubclass(NumericalError, errors.ZetascopeError)


def _leaky(monkeypatch):
    reference = zeros.zeta_hat_reference
    monkeypatch.setattr(zeros, "zeta_hat_reference", lambda z: reference(z) * (1.0 + 1e-6j))
    return zeros.hardy_z(30.0)


def _vanishing(monkeypatch):
    monkeypatch.setattr(zeros, "zeta_hat_reference", lambda z: 0j)
    return zeros.zero_count(20.0)


def _spinning(monkeypatch):
    monkeypatch.setattr(zeros, "zeta_hat_reference", lambda z: cmath.exp(1e3j * z.real**2))
    return zeros.zero_count(20.0)


def _count_off_an_integer(monkeypatch):
    monkeypatch.setattr(zeros, "zero_count", lambda t: 9.5 if t == 50 else 0.0)
    return zeros.find_zeros(10.0, 50.0)


def _unbacked_sign(monkeypatch):
    hardy = zeros.hardy_z
    monkeypatch.setattr(zeros, "hardy_z", lambda t: 1e-10 if t == 50.0 else hardy(t))
    return zeros.find_zeros(10.0, 50.0)


def _count_mismatch(monkeypatch):
    # N(50) = 10, so a count of 12 leaves two zeros without a sign change
    monkeypatch.setattr(zeros, "zero_count", lambda t: 12.0 if t == 50 else 0.0)
    return zeros.find_zeros(10.0, 50.0)


def _zero_modulus(monkeypatch):
    points = ((64, 1 + 0j), (128, 0j), (256, 1 + 0j), (512, 1 + 0j))
    return fit_power_law(ConvergenceSeries(Quantity.H_N, RHO_1, points))


def _infinite_point(monkeypatch):
    points = ((64, 1 + 0j), (128, complex(float("inf"), 0.0)), (256, 1 + 0j), (512, 1 + 0j))
    return fit_power_law(ConvergenceSeries(Quantity.H_N, RHO_1, points))


@pytest.mark.parametrize(
    "failure,match",
    [
        (lambda mp: raw_sums_at(-800.0 + 0j, (10,)), "partial sum overflowed"),
        (_leaky, "imaginary leakage"),
        (lambda mp: _ratio(1 + 0j, 1e-301 + 0j, Quantity.H_N), "denominator modulus"),
        (_zero_modulus, "zero-modulus point"),
        (_infinite_point, "non-finite point"),
        (_vanishing, "zeta vanishes on the zero count's path"),
        (_spinning, "needs over 64 evaluations"),
        (_count_off_an_integer, "not an integer"),
        (_unbacked_sign, "is not above the leakage limit"),
        (_count_mismatch, "changes sign 10 times .* count .* is 12"),
        (lambda mp: h_hat_exact(-22241.0 + 0j), "H_hat overflows the floats"),
        (lambda mp: complex_pow_base_real(2.0, -2000), r"overflows the floats at k=2.0, z=\(-2000"),
        (lambda mp: remainder_with_bound(100.0, 10), "remainder series diverges at k=2"),
    ],
)
def test_a_failed_computation_is_a_numerical_error(failure, match, monkeypatch):
    with pytest.raises(NumericalError, match=match) as exc:
        failure(monkeypatch)
    assert not isinstance(exc.value, (DomainError, ValueError))


@pytest.mark.parametrize("fn", [fit_power_law, ratio_limit])
def test_a_short_series_is_a_refused_argument(fn):
    short = ConvergenceSeries(Quantity.H_N, RHO_1, ((64, 1 + 0j),) * 3)
    with pytest.raises(DomainError, match="needs at least 4 points"):
        fn(short)


@pytest.mark.parametrize(
    "refused,match",
    [
        (lambda: complex_pow_base_real(float("inf"), -0.5 + 1j), "positive and finite, got inf"),
        (lambda: complex_pow_base_real(float("nan"), 0.5 + 1j), "positive and finite, got nan"),
        (lambda: complex_pow_base_real(2.0, complex(0, float("inf"))), r"needs a finite z, got infj"),
        (lambda: complex_pow_base_real(2.0, complex(float("nan"), 1)), r"needs a finite z, got \(nan\+1j\)"),
    ],
)
def test_a_refused_argument_is_a_domain_error(refused, match):
    with pytest.raises(DomainError, match=match):
        refused()
