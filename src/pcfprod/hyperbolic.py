"""Hyperbolic integral identities obtained from the nu=1 and nu=1/2
closed forms of D_{-nu}.

Each identity is verified through two fully independent routes: the
left side by direct theta-quadrature (never touching erfc, K_{1/4} or
pcf_d), the right side from the erfc / K_{1/4} closed forms (never
touching the theta-quadrature).  Each function returns the
verification record, judged at the caller's ``tol``.  A point where the
right side's exponential overflows (13a, 13b) raises :class:`DomainError`.

* 13a:  int_0^inf sech(th) e^{-alpha^2 sinh(th) sinh(th+phi)} dth
          = (pi/2) e^{alpha^2 cosh(phi)} erfc(alpha sinh(phi/2)) erfc(alpha cosh(phi/2))
* 13b:  same exponential against sinh(th), with an erfc bracket on the right
* 14:   int_0^inf (sinh th)^{-1/2} e^{-a cosh(th+phi)} dth
          = sqrt(a sinh(phi)/pi) K_{1/4}(a cosh^2(phi/2)) K_{1/4}(a sinh^2(phi/2))
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .quadrature import integrate_finite
from .report import VerificationRecord, make_record
from .specfun import bessel_k_quarter, erfc

__all__ = [
    "HyperbolicQuery",
    "erfc_identity_13a",
    "erfc_identity_13b",
    "k_identity_14",
]

_EXP_CUTOFF = 745.0  # e^{-x} underflows to 0 below this
_MIN_PHI_14 = 0.05   # K_{1/4} argument underflow guard


@dataclass(frozen=True)
class HyperbolicQuery:
    """Parameters of the hyperbolic identities.

    ``alpha`` feeds the two erfc identities, ``a`` the K_{1/4} identity;
    ``phi`` is the hyperbolic shift shared by all three.
    """

    alpha: float = 1.0
    a: float = 1.0
    phi: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not self.a > 0.0:
            raise DomainError(f"a must be positive, got {self.a}")
        if not self.phi > 0.0:
            raise DomainError(f"phi must be positive, got {self.phi}")


def _theta_star_sinh(alpha: float, phi: float) -> float:
    """Smallest theta with alpha^2 sinh(th) sinh(th+phi) past the exp cutoff."""
    th = 1.0
    while alpha * alpha * math.sinh(th) * math.sinh(th + phi) < _EXP_CUTOFF + 40.0:
        th *= 1.5
    return th


def _theta_star_cosh(a: float, phi: float) -> float:
    th = 1.0
    while a * math.cosh(th + phi) < _EXP_CUTOFF + 40.0:
        th *= 1.5
    return th


def _damped_exp(expo: float) -> float:
    return math.exp(expo) if expo > -_EXP_CUTOFF else 0.0


def _closed_form_exp(expo: float, q: HyperbolicQuery) -> float:
    """e^expo in a closed-form right side; :class:`DomainError` if it overflows."""
    try:
        return math.exp(expo)
    except OverflowError:
        raise DomainError(f"closed form overflows at alpha={q.alpha}, phi={q.phi}") from None


def erfc_identity_13a(q: HyperbolicQuery, tol: float = 1e-10) -> VerificationRecord:
    a2 = q.alpha * q.alpha
    rhs = (
        0.5 * math.pi
        * _closed_form_exp(a2 * math.cosh(q.phi), q)
        * erfc(q.alpha * math.sinh(0.5 * q.phi))
        * erfc(q.alpha * math.cosh(0.5 * q.phi))
    )
    cut = _theta_star_sinh(q.alpha, q.phi)

    def lhs_integrand(th: float) -> float:
        return _damped_exp(-a2 * math.sinh(th) * math.sinh(th + q.phi)) / math.cosh(th)

    lhs = integrate_finite(lhs_integrand, 0.0, cut, min(tol, 1e-10))
    return make_record(
        "EQ13A",
        {"alpha": q.alpha, "phi": q.phi},
        lhs.value,
        rhs,
        tol,
        lhs.evaluations,
    )


def erfc_identity_13b(q: HyperbolicQuery, tol: float = 1e-10) -> VerificationRecord:
    a2 = q.alpha * q.alpha
    ch, sh = math.cosh(0.5 * q.phi), math.sinh(0.5 * q.phi)
    rhs = (
        math.sqrt(math.pi) / (2.0 * q.alpha)
        * (
            _closed_form_exp(a2 * ch * ch, q) * ch * erfc(q.alpha * ch)
            - _closed_form_exp(a2 * sh * sh, q) * sh * erfc(q.alpha * sh)
        )
    )
    cut = _theta_star_sinh(q.alpha, q.phi)

    def lhs_integrand(th: float) -> float:
        return math.sinh(th) * _damped_exp(-a2 * math.sinh(th) * math.sinh(th + q.phi))

    lhs = integrate_finite(lhs_integrand, 0.0, cut, min(tol, 1e-10))
    return make_record(
        "EQ13B",
        {"alpha": q.alpha, "phi": q.phi},
        lhs.value,
        rhs,
        tol,
        lhs.evaluations,
    )


def k_identity_14(q: HyperbolicQuery, tol: float = 1e-9) -> VerificationRecord:
    if q.phi < _MIN_PHI_14:
        raise DomainError(
            f"phi >= {_MIN_PHI_14} required: K_{{1/4}}(a sinh^2(phi/2)) is "
            "numerically delicate as phi -> 0"
        )
    cut = max(_theta_star_cosh(q.a, q.phi), 2.0)

    def lhs_integrand(th: float) -> float:
        return _damped_exp(-q.a * math.cosh(th + q.phi)) / math.sqrt(math.sinh(th))

    # endpoint-singular panel [0, 1], then the smooth decaying remainder
    inner = integrate_finite(lhs_integrand, 0.0, 1.0, min(tol, 1e-10))
    outer = integrate_finite(lhs_integrand, 1.0, cut, min(tol, 1e-10))
    lhs_value = inner.value + outer.value

    ch, sh = math.cosh(0.5 * q.phi), math.sinh(0.5 * q.phi)
    rhs = (
        math.sqrt(q.a * math.sinh(q.phi) / math.pi)
        * bessel_k_quarter(q.a * ch * ch)
        * bessel_k_quarter(q.a * sh * sh)
    )
    return make_record(
        "EQ14",
        {"a": q.a, "phi": q.phi},
        lhs_value,
        rhs,
        tol,
        inner.evaluations + outer.evaluations,
    )
