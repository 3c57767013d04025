"""Numerical library for products of parabolic cylinder functions with
unrelated arguments, built so that every identity it implements can be
confirmed through at least two independent evaluation routes.

Each public name is imported from its submodule on first access (PEP 562),
so ``import pcfprod`` and the command line load only the modules they use."""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    "ConvergenceError": "errors", "DomainError": "errors",
    "LaplaceParams": "glasser", "ProductQuery": "glasser", "laplace_I": "glasser",
    "params_from_xy": "glasser", "product_reference": "glasser",
    "product_via_integral": "glasser", "xy_from_params": "glasser",
    "GreenQuery": "green", "eigenfunction": "green", "green_closed": "green",
    "green_ode_oracle": "green", "green_spectral": "green",
    "SeriesResult": "hermsum",
    "HyperbolicQuery": "hyperbolic", "erfc_identity_13a": "hyperbolic",
    "erfc_identity_13b": "hyperbolic", "k_identity_14": "hyperbolic", "lhs_13a": "hyperbolic",
    "lhs_13b": "hyperbolic", "lhs_14": "hyperbolic",
    "MehlerPoint": "mehler", "SumRuleQuery": "mehler", "mehler_kernel_closed": "mehler",
    "mehler_kernel_series": "mehler", "series_for_I": "mehler", "sum_rule_lhs": "mehler",
    "QuadratureResult": "quadrature", "integrate_finite": "quadrature",
    "integrate_semi_infinite": "quadrature",
    "VerificationRecord": "report",
    "bessel_k_quarter": "specfun", "gamma": "specfun", "hermite": "specfun", "pcf_d": "specfun",
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # bound as an eager import would bind it; later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
