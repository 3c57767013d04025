"""Product of two parabolic cylinder functions with unrelated arguments.

The central identity evaluated here: for x >= y > 0 and nu > 0,

    D_{-nu}(x) D_{-nu}(-y)
      = e^{-(x^2+y^2)/4} / (2 Gamma(nu))
        * int_0^inf t^{nu/2-1} (t+1)^{-(nu+1)/2}
                   e^{-(x^2+y^2)t/2 + x y sqrt(t(t+1))} dt,

together with its two Laplace-transform forms

    int_0^inf t^{nu/2-1}(1+t)^{-(nu+1)/2} e^{-a t} e^{+-b sqrt(t(t+1))} dt
      = 2 e^{a/2} Gamma(nu) D_{-nu}(x) D_{-nu}(-+y),

where x = sqrt(a + sqrt(a^2-b^2)), y = sqrt(a - sqrt(a^2-b^2)); the plus
exponent sign pairs with the -y argument (valid for a >= b > 0) and the
minus sign with +y (valid for a + b > 0).

The map (x, y) <-> (a, b) is a = (x^2+y^2)/2, b = x y, a bijection
between {x >= y > 0} and {a >= b > 0}.

The integral's exponential tail rate is a - b = (x-y)^2/2, which
vanishes as x -> y; that costs evaluations, not accuracy, for the
integrand's exponent holds no terms that cancel.  Nor does it send the
quadrature's walk out into the tail: each walk is centred at
min(1/decay, body), body where the integrand's mass sits (see
:func:`_body`), so x = y centres at max(1, x y/4), not at the clamp 1e4.
The paper states the representation for x > y and says it diverges at
x = y, but there the tail is only algebraic (~ t^{-3/2}) and integrable:
at x = y, and at a = b for the plus form, the quadrature walks that
algebraic tail (decay rate 0) like any other point of the domain.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, checked
from .quadrature import QuadratureResult, integrate_semi_infinite
from .specfun import gamma, pcf_d_product

__all__ = [
    "ProductQuery",
    "LaplaceParams",
    "params_from_xy",
    "xy_from_params",
    "product_reference",
    "product_via_integral",
    "laplace_I",
]


@checked
class ProductQuery(NamedTuple):
    """The triple (nu, x, y) addressing D_{-nu}(x) * D_{-nu}(-y)."""

    nu: float
    x: float
    y: float

    def _check(self):
        if not self.nu > 0.0:
            raise DomainError(f"order nu must be positive, got {self.nu}")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError(f"x and y must be finite, got x={self.x}, y={self.y}")


@checked
class LaplaceParams(NamedTuple):
    """The triple (nu, a, b) of the Laplace-transform forms."""

    nu: float
    a: float
    b: float

    def _check(self):
        if not self.nu > 0.0:
            raise DomainError(f"order nu must be positive, got {self.nu}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"a and b must be finite, got a={self.a}, b={self.b}")


def params_from_xy(q: ProductQuery) -> LaplaceParams:
    """Map (x, y) with x >= y > 0 to (a, b) = ((x^2+y^2)/2, x*y)."""
    if not (q.x >= q.y > 0.0):
        raise DomainError(f"map requires x >= y > 0, got x={q.x}, y={q.y}")
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
    if disc == math.inf:
        raise DomainError(f"a^2 - b^2 overflows a double (a={p.a}, b={p.b})")
    x = math.sqrt(p.a + disc)
    # a - disc suffers cancellation when b << a; b^2/(a+disc) is exact algebra
    y = p.b / math.sqrt(p.a + disc)
    return ProductQuery(p.nu, x, y)


def product_reference(q: ProductQuery) -> float:
    """D_{-nu}(x) * D_{-nu}(-y) via two independent pcf_d evaluations.

    This is the oracle side of every identity involving the product;
    it is defined for all real x, y (no x > y restriction).  The factors
    come from :func:`pcfprod.specfun.pcf_d_product`, which sums series, a
    continued fraction and Poincare expansions and runs no quadrature, so
    it shares no code with the integral side.  Each factor is kept as a
    fraction and a binary exponent, so a subnormal factor
    (D_{-1}(54) = 4.6e-319) or one that underflows costs no digits where
    the product is a normal double.
    Where the product overflows a double (large y, or x and -y both far
    below 0), or x or -y is below about -2410, it raises :class:`DomainError`.
    """
    return pcf_d_product(q.nu, q.x, q.x * q.x, -q.y, q.y * q.y)


def _laplace_integrand(nu: float, decay: float, b: float, sign: int, shift: float):
    """t^{nu/2-1} (1+t)^{-(nu+1)/2} e^{shift - decay t - (q + c t)/(t + g + r)},
    r = sqrt(t(t+1)), decay = a - sign b: -a t + sign b r with no two terms
    that cancel.  For sign +1, (q, c, g) = (b/4, 0, 1/2), as -a t + b r =
    b/2 - decay t - (b/4)/(t + 1/2 + r); for sign -1, (0, b, 0), as
    -a t - b r = -decay t - b t/(t + r).  A Laplace form passes shift = b/2
    for sign +1 and 0 for -1; the product -decay/2 - ln(2 Gamma(nu)), b/2 plus
    the exponent of its prefactor e^{-a/2}/(2 Gamma(nu)).  The factor
    (t/(1+t))^{nu/2-1} (1+t)^{-3/2} is never inf * 0.  Where the exponential
    overflows a double (a Laplace form whose integral is past a double, as at
    a = 1500, b = 1499) the integrand raises :class:`DomainError`."""
    p = 0.5 * nu - 1.0
    q, c, g = (0.25 * b, 0.0, 0.5) if sign == 1 else (0.0, b, 0.0)

    def f(t: float) -> float:
        u = 1.0 + t
        expo = shift - decay * t - (q + c * t) / (t + g + math.sqrt(t * u))
        try:
            scale = math.exp(expo)
        except OverflowError:
            raise DomainError(f"the Laplace integrand's e^{{{expo}}} overflows a double "
                              f"at t = {t}") from None
        return scale * (t / u) ** p / (u * math.sqrt(u))

    return f


def _body(decay: float, b: float) -> float:
    """Where the mass of a plus-form integrand with decay rate ``decay`` and
    exponent term -(b/4)/(t + 1/2 + r) sits: max(1, t_peak), with
    t_peak = b/(2 + 2 sqrt(1 + 2 decay b)) the peak in log t of the mass per
    unit log t at large t, t^{-1/2} e^{-decay t - b/(8t)}, and 1 the body of
    the factor (t/(1+t))^{nu/2-1} near the origin."""
    return max(1.0, b / (2.0 + 2.0 * math.sqrt(1.0 + 2.0 * decay * b)))


def laplace_I(p: LaplaceParams, sign: int, tol: float = 1e-10) -> QuadratureResult:
    """The Laplace-form integral with e^{sign * b * sqrt(t(t+1))}.

    sign=+1 requires a >= b > 0 and equals
    2 e^{a/2} Gamma(nu) D_{-nu}(x) D_{-nu}(-y); at a = b its decay rate
    a - b is 0 and the tail ~ t^{-3/2} is walked as it stands.  sign=-1
    requires a + b > 0 and equals 2 e^{a/2} Gamma(nu) D_{-nu}(x) D_{-nu}(+y).
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    if sign == 1 and not (p.a >= p.b > 0.0):
        raise DomainError(f"sign=+1 requires a >= b > 0, got a={p.a}, b={p.b}")
    if sign == -1 and not p.a + p.b > 0.0:
        raise DomainError(f"sign=-1 requires a + b > 0, got a={p.a}, b={p.b}")
    decay = p.a - sign * p.b
    shift = 0.5 * p.b if sign == 1 else 0.0
    # the minus form's exponent -decay t - b t/(t + r) has no peak of its own: body 1
    return integrate_semi_infinite(_laplace_integrand(p.nu, decay, p.b, sign, shift), decay, tol,
                                   _body(decay, p.b) if sign == 1 else 1.0)


def product_via_integral(q: ProductQuery, tol: float = 1e-10) -> QuadratureResult:
    """Evaluate D_{-nu}(x) D_{-nu}(-y) through the integral representation.

    Valid for x >= y > 0: at x = y the integrand's tail is ~ t^{-3/2},
    which the quadrature walks with decay rate 0.
    """
    if not (q.x >= q.y > 0.0):
        raise DomainError(f"representation requires x >= y > 0, got x={q.x}, y={q.y}")
    gap = q.x - q.y
    decay = 0.5 * (gap * gap)  # ** raises where it overflows
    shift = -0.5 * decay - math.log(2.0 * gamma(q.nu))
    b = q.x * q.y
    return integrate_semi_infinite(_laplace_integrand(q.nu, decay, b, 1, shift), decay, tol,
                                   _body(decay, b))
