"""Hyperbolic integral identities obtained from the nu=1 and nu=1/2
closed forms of D_{-nu}.

Each identity is verified through two fully independent routes: the
left side by direct theta-quadrature (never touching erfc, K_{1/4} or
pcf_d), the right side from the erfc / K_{1/4} closed forms (never
touching the theta-quadrature).  :func:`lhs_13a`, :func:`lhs_13b` and
:func:`lhs_14` return the left sides alone, as quadrature results at
the caller's ``tol``.  Each identity function computes its right side
first, so that a point where the right side's exponential overflows
(13a, 13b) raises :class:`DomainError` before any quadrature, then
returns the verification record, judged at the caller's ``tol``; its
left side runs at min(tol, 1e-10), clamped to the engines' range, and
the record's note says when the clamp changed it.

* 13a:  int_0^inf sech(th) e^{-alpha^2 sinh(th) sinh(th+phi)} dth
          = (pi/2) e^{alpha^2 cosh(phi)} erfc(alpha sinh(phi/2)) erfc(alpha cosh(phi/2))
* 13b:  same exponential against sinh(th), with an erfc bracket on the right
* 14:   int_0^inf (sinh th)^{-1/2} e^{-a cosh(th+phi)} dth
          = sqrt(a sinh(phi)/pi) K_{1/4}(a cosh^2(phi/2)) K_{1/4}(a sinh^2(phi/2))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError
from .quadrature import QuadratureResult, clamp_tol, integrate_finite
from .report import VerificationRecord, make_record
from .specfun import bessel_k_quarter

__all__ = [
    "HyperbolicQuery",
    "lhs_13a",
    "lhs_13b",
    "lhs_14",
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


def _theta_star(expo: Callable[[float], float]) -> float:
    """Smallest theta in 1, 1.5, 1.5^2, ... with expo(theta) past the exp cutoff."""
    th = 1.0
    while expo(th) < _EXP_CUTOFF + 40.0:
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


def lhs_13a(q: HyperbolicQuery, tol: float = 1e-10) -> QuadratureResult:
    """Left side of 13a by tanh-sinh quadrature at ``tol``, cut where the
    integrand underflows."""
    a2 = q.alpha * q.alpha
    cut = _theta_star(lambda th: a2 * math.sinh(th) * math.sinh(th + q.phi))

    def integrand(th: float) -> float:
        return _damped_exp(-a2 * math.sinh(th) * math.sinh(th + q.phi)) / math.cosh(th)

    return integrate_finite(integrand, 0.0, cut, tol)


def lhs_13b(q: HyperbolicQuery, tol: float = 1e-10) -> QuadratureResult:
    """Left side of 13b, as :func:`lhs_13a`."""
    a2 = q.alpha * q.alpha
    cut = _theta_star(lambda th: a2 * math.sinh(th) * math.sinh(th + q.phi))

    def integrand(th: float) -> float:
        return math.sinh(th) * _damped_exp(-a2 * math.sinh(th) * math.sinh(th + q.phi))

    return integrate_finite(integrand, 0.0, cut, tol)


def lhs_14(q: HyperbolicQuery, tol: float = 1e-10) -> QuadratureResult:
    """Left side of 14 by tanh-sinh quadrature at ``tol``: the
    endpoint-singular panel [0, 1], then the smooth decaying remainder.
    The value is their sum, and so are the estimate and the evaluations."""
    cut = max(_theta_star(lambda th: q.a * math.cosh(th + q.phi)), 2.0)

    def integrand(th: float) -> float:
        return _damped_exp(-q.a * math.cosh(th + q.phi)) / math.sqrt(math.sinh(th))

    inner = integrate_finite(integrand, 0.0, 1.0, tol)
    outer = integrate_finite(integrand, 1.0, cut, tol)
    return QuadratureResult(inner.value + outer.value,
                            inner.error_estimate + outer.error_estimate,
                            inner.evaluations + outer.evaluations)


def _record(identity: str, params: dict, lhs, q: HyperbolicQuery, rhs: float,
            tol: float) -> VerificationRecord:
    """The record of ``lhs(q)`` against ``rhs``, judged at ``tol``; the
    quadrature runs at min(tol, 1e-10), clamped to the engines' range."""
    quad_tol, note = clamp_tol(min(tol, 1e-10))
    left = lhs(q, quad_tol)
    return make_record(identity, params, left.value, rhs, tol, left.evaluations, note=note)


def erfc_identity_13a(q: HyperbolicQuery, tol: float = 1e-10) -> VerificationRecord:
    rhs = (
        0.5 * math.pi
        * _closed_form_exp(q.alpha * q.alpha * math.cosh(q.phi), q)
        * math.erfc(q.alpha * math.sinh(0.5 * q.phi))
        * math.erfc(q.alpha * math.cosh(0.5 * q.phi))
    )
    return _record("EQ13A", {"alpha": q.alpha, "phi": q.phi}, lhs_13a, q, rhs, tol)


def erfc_identity_13b(q: HyperbolicQuery, tol: float = 1e-10) -> VerificationRecord:
    a2 = q.alpha * q.alpha
    ch, sh = math.cosh(0.5 * q.phi), math.sinh(0.5 * q.phi)
    rhs = (
        math.sqrt(math.pi) / (2.0 * q.alpha)
        * (
            _closed_form_exp(a2 * ch * ch, q) * ch * math.erfc(q.alpha * ch)
            - _closed_form_exp(a2 * sh * sh, q) * sh * math.erfc(q.alpha * sh)
        )
    )
    return _record("EQ13B", {"alpha": q.alpha, "phi": q.phi}, lhs_13b, q, rhs, tol)


def k_identity_14(q: HyperbolicQuery, tol: float = 1e-9) -> VerificationRecord:
    if q.phi < _MIN_PHI_14:
        raise DomainError(
            f"phi >= {_MIN_PHI_14} required: K_{{1/4}}(a sinh^2(phi/2)) is "
            "numerically delicate as phi -> 0"
        )
    ch, sh = math.cosh(0.5 * q.phi), math.sinh(0.5 * q.phi)
    rhs = (
        math.sqrt(q.a * math.sinh(q.phi) / math.pi)
        * bessel_k_quarter(q.a * ch * ch)
        * bessel_k_quarter(q.a * sh * sh)
    )
    return _record("EQ14", {"a": q.a, "phi": q.phi}, lhs_14, q, rhs, tol)
