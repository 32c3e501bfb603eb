"""Desk-scale numerical workbench for zeta partial sums, the functional
equation, critical-line zeros, and convergence-order measurement."""

from .convergence import (
    ConvergenceSeries,
    DerivativeRatioLimit,
    RatioLimit,
    SlopeFit,
    SweepPlan,
    derivative_ratio_limit,
    fit_power_law,
    ratio_limit,
    sweep,
    verify_claims,
)
from .euler_maclaurin import (
    EulerMaclaurinConfig,
    remainder,
    remainder_with_bound,
    zeta_hat_reference,
)
from .functional_eq import Quantity, h_hat_exact, h_hat_n, h_n, small_g_2n, small_h_2n
from .series import (
    xi_partial,
    zeta_hat_partial,
    zeta_hat_partial_derivative,
    zeta_partial,
    zeta_partial_derivative,
)
from .special import bernoulli_numbers, complex_pow_base_real, log_gamma
from .zeros import ZeroRecord, find_zeros, hardy_z, riemann_siegel_theta

__version__ = "0.1.0"

__all__ = [
    "ConvergenceSeries",
    "DerivativeRatioLimit",
    "EulerMaclaurinConfig",
    "Quantity",
    "RatioLimit",
    "SlopeFit",
    "SweepPlan",
    "ZeroRecord",
    "bernoulli_numbers",
    "complex_pow_base_real",
    "derivative_ratio_limit",
    "find_zeros",
    "fit_power_law",
    "h_hat_exact",
    "h_hat_n",
    "h_n",
    "hardy_z",
    "log_gamma",
    "ratio_limit",
    "remainder",
    "remainder_with_bound",
    "riemann_siegel_theta",
    "small_g_2n",
    "small_h_2n",
    "sweep",
    "verify_claims",
    "xi_partial",
    "zeta_hat_partial",
    "zeta_hat_partial_derivative",
    "zeta_hat_reference",
    "zeta_partial",
    "zeta_partial_derivative",
]
