"""Numerical library for products of parabolic cylinder functions with
unrelated arguments, built so that every identity it implements can be
confirmed through at least two independent evaluation routes."""

from .errors import ConvergenceError, DomainError
from .glasser import (
    LaplaceParams,
    ProductQuery,
    laplace_I,
    params_from_xy,
    product_reference,
    product_via_integral,
    xy_from_params,
)
from .green import GreenQuery, eigenfunction, green_closed, green_ode_oracle, green_spectral
from .hermsum import SeriesResult
from .hyperbolic import (
    HyperbolicQuery,
    erfc_identity_13a,
    erfc_identity_13b,
    k_identity_14,
    lhs_13a,
    lhs_13b,
    lhs_14,
)
from .mehler import (
    MehlerPoint,
    SumRuleQuery,
    mehler_kernel_closed,
    mehler_kernel_series,
    series_for_I,
    sum_rule_lhs,
)
from .quadrature import QuadratureResult, integrate_finite, integrate_semi_infinite
from .report import VerificationRecord
from .specfun import bessel_k_quarter, gamma, hermite, pcf_d

__version__ = "0.1.0"
