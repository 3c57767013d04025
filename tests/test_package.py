"""The package's public names, which load from their submodules on first access."""

import importlib
import inspect
import math
import re

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


# the tolerance each public route takes where its caller gives none
DEFAULT_TOLS = {
    "integrate_semi_infinite": 1e-10, "integrate_finite": 1e-10, "laplace_I": 1e-10,
    "product_via_integral": 1e-10, "lhs_13a": 1e-10, "lhs_13b": 1e-10, "lhs_14": 1e-10,
    "erfc_identity_13a": 1e-10, "erfc_identity_13b": 1e-10, "k_identity_14": 1e-9,
    "mehler_kernel_series": 1e-12, "series_for_I": 1e-8, "sum_rule_lhs": 5e-7,
    "green_spectral": 5e-7,
}


def test_default_tolerances():
    assert {name: inspect.signature(getattr(pcfprod, name)).parameters["tol"].default
            for name in DEFAULT_TOLS} == DEFAULT_TOLS


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


# each result and query record: its fields in order with a valid value each, its
# defaults, and for a query one field out of its domain with the DomainError it gives
RECORDS = [
    ("QuadratureResult", {"value": 1.5, "error_estimate": 1e-12, "evaluations": 40}, {}, None),
    ("SeriesResult", {"value": 1.5, "terms_used": 3, "tail_bound": 1e-12}, {}, None),
    ("VerificationRecord", {"identity_id": "EQ10", "params": {"nu": 1.0}, "lhs": 1.5,
                            "rhs": 1.5, "abs_err": 0.0, "rel_err": 0.0, "passed": True,
                            "evaluations": 40, "skipped": False, "note": ""},
     {"skipped": False, "note": ""}, None),
    ("HyperbolicQuery", {"alpha": 1.0, "a": 1.0, "phi": 1.0},
     {"alpha": 1.0, "a": 1.0, "phi": 1.0}, ("phi", 800.0, "phi must lie in (0, 700], got 800.0")),
    ("ProductQuery", {"nu": 1.0, "x": 2.0, "y": 1.0}, {},
     ("nu", -1.0, "order nu must be positive, got -1.0")),
    ("LaplaceParams", {"nu": 1.0, "a": 2.5, "b": 2.0}, {},
     ("a", math.inf, "a and b must be finite, got a=inf, b=2.0")),
    ("MehlerPoint", {"X": 1.0, "Y": 0.5, "u": 0.3}, {},
     ("u", 1.0, "Mehler kernel requires |u| < 1, got u=1.0")),
    ("SumRuleQuery", {"nu": 1.0, "x": 2.0, "y": 1.0}, {},
     ("y", 3.0, "sum rule requires x > y, got x=2.0, y=3.0")),
    ("GreenQuery", {"lam": 0.5, "x": 1.0, "xprime": 0.0}, {},
     ("lam", math.nan, "Green function needs finite lambda, x, x', got lambda=nan, x=1.0, "
                       "x'=0.0")),
]


@pytest.mark.parametrize("name, values, defaults, bad", RECORDS, ids=[r[0] for r in RECORDS])
def test_record_is_an_immutable_named_tuple(name, values, defaults, bad):
    cls = getattr(pcfprod, name)
    assert cls._fields == tuple(values)
    assert cls._field_defaults == defaults
    assert not cls.__doc__.startswith(f"{name}(")  # its own docstring, not the generated one
    record = cls(**values)
    assert record == cls(*values.values()) == tuple(values.values())
    assert repr(record) == f"{name}({', '.join(f'{k}={v!r}' for k, v in values.items())})"
    first = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, values[first])
    with pytest.raises(AttributeError):
        record.other = 0
    if bad is not None:
        field, value, message = bad
        for build in (lambda: cls(**{**values, field: value}),
                      lambda: record._replace(**{field: value})):
            with pytest.raises(pcfprod.DomainError, match=re.escape(message)):
                build()
