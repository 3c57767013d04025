"""Product of two parabolic cylinder functions with unrelated arguments.

The central identity evaluated here: for x > y > 0 and nu > 0,

    D_{-nu}(x) D_{-nu}(-y)
      = e^{-(x^2+y^2)/4} / (2 Gamma(nu))
        * int_0^inf t^{nu/2-1} (t+1)^{-(nu+1)/2}
                   e^{-(x^2+y^2)t/2 + x y sqrt(t(t+1))} dt,

together with its two Laplace-transform forms

    int_0^inf t^{nu/2-1}(1+t)^{-(nu+1)/2} e^{-a t} e^{+-b sqrt(t(t+1))} dt
      = 2 e^{a/2} Gamma(nu) D_{-nu}(x) D_{-nu}(-+y),

where x = sqrt(a + sqrt(a^2-b^2)), y = sqrt(a - sqrt(a^2-b^2)); the plus
exponent sign pairs with the -y argument (valid for a > b > 0) and the
minus sign with +y (valid for a + b > 0).

The map (x, y) <-> (a, b) is a = (x^2+y^2)/2, b = x y, a bijection
between {x > y > 0} and {a > b > 0}.

The integral's exponential tail rate is a - b = (x-y)^2/2, which
vanishes as x -> y; accuracy and cost degrade accordingly.  At x = y
the tail is only algebraic (~ t^{-3/2} e^{b/2}) yet still integrable:
``product_via_integral`` accepts ``allow_equal_args=True`` as an
exploratory mode for probing that boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .quadrature import QuadratureResult, integrate_semi_infinite
from .specfun import gamma, pcf_d

__all__ = [
    "ProductQuery",
    "LaplaceParams",
    "params_from_xy",
    "xy_from_params",
    "product_reference",
    "product_via_integral",
    "laplace_I",
]


@dataclass(frozen=True)
class ProductQuery:
    """The triple (nu, x, y) addressing D_{-nu}(x) * D_{-nu}(-y)."""

    nu: float
    x: float
    y: float

    def __post_init__(self):
        if not self.nu > 0.0:
            raise DomainError(f"order nu must be positive, got {self.nu}")


@dataclass(frozen=True)
class LaplaceParams:
    """The triple (nu, a, b) of the Laplace-transform forms."""

    nu: float
    a: float
    b: float

    def __post_init__(self):
        if not self.nu > 0.0:
            raise DomainError(f"order nu must be positive, got {self.nu}")


def params_from_xy(q: ProductQuery) -> LaplaceParams:
    """Map (x, y) with x > y > 0 to (a, b) = ((x^2+y^2)/2, x*y)."""
    if not (q.x > q.y > 0.0):
        raise DomainError(f"map requires x > y > 0, got x={q.x}, y={q.y}")
    return LaplaceParams(q.nu, 0.5 * (q.x * q.x + q.y * q.y), q.x * q.y)


def xy_from_params(p: LaplaceParams) -> ProductQuery:
    """Inverse map: x = sqrt(a + sqrt(a^2-b^2)), y = sqrt(a - sqrt(a^2-b^2))."""
    if not p.b > 0.0:
        raise DomainError(f"map requires b > 0, got b={p.b}")
    if p.a < abs(p.b):
        raise DomainError(
            f"a < |b| makes the D arguments complex (a={p.a}, b={p.b}); out of scope"
        )
    disc = math.sqrt((p.a - p.b) * (p.a + p.b))
    x = math.sqrt(p.a + disc)
    # a - disc suffers cancellation when b << a; b^2/(a+disc) is exact algebra
    y = p.b / math.sqrt(p.a + disc)
    return ProductQuery(p.nu, x, y)


def product_reference(q: ProductQuery) -> float:
    """D_{-nu}(x) * D_{-nu}(-y) via two independent pcf_d evaluations.

    This is the oracle side of every identity involving the product;
    it is defined for all real x, y (no x > y restriction).
    """
    return pcf_d(-q.nu, q.x) * pcf_d(-q.nu, -q.y)


def _laplace_integrand(nu: float, a: float, b: float, sign: float):
    half_nu = 0.5 * nu

    def f(t: float) -> float:
        expo = -a * t + sign * b * math.sqrt(t * (t + 1.0))
        if expo < -745.0:
            return 0.0
        if t > 1e15:
            # algebraic factors in log form; they cancel to ~ t^{-3/2}
            expo += (half_nu - 1.0) * math.log(t) - 0.5 * (nu + 1.0) * math.log1p(t)
            return math.exp(expo) if expo > -745.0 else 0.0
        return t ** (half_nu - 1.0) * (1.0 + t) ** (-(nu + 1.0) / 2.0) * math.exp(expo)

    return f


def laplace_I(p: LaplaceParams, sign: int, tol: float = 1e-10) -> QuadratureResult:
    """The Laplace-form integral with e^{sign * b * sqrt(t(t+1))}.

    sign=+1 requires a > b > 0 and equals
    2 e^{a/2} Gamma(nu) D_{-nu}(x) D_{-nu}(-y); sign=-1 requires
    a + b > 0 and equals 2 e^{a/2} Gamma(nu) D_{-nu}(x) D_{-nu}(+y).
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    if sign == 1 and not (p.a > p.b > 0.0):
        raise DomainError(f"sign=+1 requires a > b > 0, got a={p.a}, b={p.b}")
    if sign == -1 and not p.a + p.b > 0.0:
        raise DomainError(f"sign=-1 requires a + b > 0, got a={p.a}, b={p.b}")
    decay = p.a - sign * p.b
    return integrate_semi_infinite(_laplace_integrand(p.nu, p.a, p.b, float(sign)), decay, tol)


def product_via_integral(
    q: ProductQuery, tol: float = 1e-10, allow_equal_args: bool = False
) -> QuadratureResult:
    """Evaluate D_{-nu}(x) D_{-nu}(-y) through the integral representation.

    Valid for x > y > 0.  With ``allow_equal_args`` the boundary x = y
    is evaluated anyway (algebraic-tail quadrature, exploratory use
    only); everything outside x >= y > 0 is always rejected.
    """
    if allow_equal_args:
        if not (q.x >= q.y > 0.0):
            raise DomainError(f"requires x >= y > 0, got x={q.x}, y={q.y}")
    elif not (q.x > q.y > 0.0):
        raise DomainError(f"representation requires x > y > 0, got x={q.x}, y={q.y}")
    a = 0.5 * (q.x * q.x + q.y * q.y)
    b = q.x * q.y
    decay = 0.5 * (q.x - q.y) ** 2
    pref = math.exp(-0.5 * a) / (2.0 * gamma(q.nu))
    return integrate_semi_infinite(_laplace_integrand(q.nu, a, b, 1.0), decay, tol, factor=pref)
