"""Desk-scale numerical workbench for zeta partial sums, the functional
equation, critical-line zeros, and convergence-order measurement.

The package loads on use: ``import zetascope`` imports no module (and no
numpy), and each public name below imports its defining module the first
time it is read (PEP 562), so a process pays only for what it calls.
"""

import importlib

__version__ = "0.1.0"

#: public name -> the module that defines it
_EXPORTS = {
    "ConvergenceSeries": "convergence",
    "RatioLimit": "convergence",
    "SlopeFit": "convergence",
    "SweepPlan": "convergence",
    "fit_power_law": "convergence",
    "ratio_limit": "convergence",
    "sweep": "convergence",
    "verify_claims": "convergence",
    "remainder": "euler_maclaurin",
    "remainder_with_bound": "euler_maclaurin",
    "zeta_hat_reference": "euler_maclaurin",
    "Quantity": "functional_eq",
    "h_hat_n": "functional_eq",
    "h_n": "functional_eq",
    "small_g_2n": "functional_eq",
    "small_h_2n": "functional_eq",
    "xi_partial": "series",
    "zeta_hat_partial": "series",
    "zeta_hat_partial_derivative": "series",
    "zeta_partial": "series",
    "zeta_partial_derivative": "series",
    "bernoulli_numbers": "special",
    "complex_pow_base_real": "special",
    "h_hat_exact": "special",
    "log_gamma": "special",
    "ZeroRecord": "special",
    "find_zeros": "zeros",
    "hardy_z": "zeros",
    "riemann_siegel_theta": "zeros",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
