"""The package's public names, which load from their submodules on first access."""

import importlib

import pytest

import pcfprod

# every name the package exported when it imported all its submodules up front
EXPORTED = {
    "errors": ["ConvergenceError", "DomainError"],
    "glasser": ["LaplaceParams", "ProductQuery", "laplace_I", "params_from_xy",
                "product_reference", "product_via_integral", "xy_from_params"],
    "green": ["GreenQuery", "eigenfunction", "green_closed", "green_ode_oracle",
              "green_spectral"],
    "hermsum": ["SeriesResult"],
    "hyperbolic": ["HyperbolicQuery", "erfc_identity_13a", "erfc_identity_13b",
                   "k_identity_14", "lhs_13a", "lhs_13b", "lhs_14"],
    "mehler": ["MehlerPoint", "SumRuleQuery", "mehler_kernel_closed", "mehler_kernel_series",
               "series_for_I", "sum_rule_lhs"],
    "quadrature": ["QuadratureResult", "integrate_finite", "integrate_semi_infinite"],
    "report": ["VerificationRecord"],
    "specfun": ["bessel_k_quarter", "gamma", "hermite", "pcf_d"],
}
PAIRS = [(module, name) for module, names in EXPORTED.items() for name in names]


@pytest.mark.parametrize("module, name", PAIRS, ids=[name for _, name in PAIRS])
def test_name_is_its_modules_object(module, name):
    assert getattr(pcfprod, name) is getattr(importlib.import_module(f"pcfprod.{module}"), name)


def test_star_import_gives_every_name():
    namespace = {}
    exec("from pcfprod import *", namespace)
    for module, name in PAIRS:
        assert namespace[name] is getattr(importlib.import_module(f"pcfprod.{module}"), name)
    assert sorted(pcfprod.__all__) == sorted(name for _, name in PAIRS)


def test_dir_lists_every_name_and_unknown_names_raise():
    assert {name for _, name in PAIRS} <= set(dir(pcfprod))
    assert pcfprod.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pcfprod.no_such_name  # noqa: B018
