"""Hyperbolic integral identities obtained from the nu=1 and nu=1/2
closed forms of D_{-nu}.

Each identity is verified through two fully independent routes: the
left side by direct theta-quadrature (never touching erfc, K_{1/4} or
pcf_d), the right side from the erfc / K_{1/4} closed forms (never
touching the theta-quadrature).  :func:`lhs_13a`, :func:`lhs_13b` and
:func:`lhs_14` return the left sides alone, as quadrature results at
the caller's ``tol``.  Each identity function returns the verification
record, judged at the caller's ``tol``; its left side runs at
min(tol, 1e-10), clamped to the engines' range, and the record's note
says when the clamp changed it.

* 13a:  int_0^inf sech(th) e^{-alpha^2 sinh(th) sinh(th+phi)} dth
          = (pi/2) e^{alpha^2 cosh(phi)} erfc(alpha sinh(phi/2)) erfc(alpha cosh(phi/2))
          = (pi/2) erfcx(alpha sinh(phi/2)) erfcx(alpha cosh(phi/2))
* 13b:  int_0^inf sinh(th) e^{-alpha^2 sinh(th) sinh(th+phi)} dth
          = (sqrt(pi)/(2 alpha)) [ch erfcx(alpha ch) - sh erfcx(alpha sh)],
        ch, sh = cosh(phi/2), sinh(phi/2)
* 14:   int_0^inf (sinh th)^{-1/2} e^{-a cosh(th+phi)} dth
          = sqrt(a sinh(phi)/pi) K_{1/4}(a cosh^2(phi/2)) K_{1/4}(a sinh^2(phi/2))
          = sqrt(2 pi) D_{-1/2}(2 sqrt(a) cosh(phi/2)) D_{-1/2}(2 sqrt(a) sinh(phi/2))

Each left side is one tanh-sinh quadrature over [0, cut], the cut being
the theta where the exponent has risen E = 50 above its value at
theta = 0, so the tail it drops is below about e^{-50} = 2e-22 of the
integral.  For 13a and 13b the exponent is
alpha^2 (cosh(2 th + phi) - cosh(phi))/2, so 2 cut = delta with
cosh(delta + phi) = cosh(phi) + 2E/alpha^2; for 14 it is
a cosh(th + phi), measured from its own e^{-a cosh(phi)}, so
cut = delta with cosh(delta + phi) = cosh(phi) + E/a.  Where the cut
underflows to 0 (large alpha or a, the sooner the larger phi) the
integrand is 0 at every node and [0, 1] serves.  :class:`HyperbolicQuery`
keeps the cuts, and cosh and sinh of phi and of theta + phi, finite.

The right sides of 13a and 13b carry e^{alpha^2 cosh(phi)} =
e^{alpha^2 sh^2} e^{alpha^2 ch^2} inside the erfc each factor scales, as
:func:`pcfprod.specfun.erfcx`, which lies in (0, 1]: they are doubles
for every valid query, and 0.0 only where they underflow.  13b's bracket
cancels as phi grows (ch and sh near e^{phi/2}/2, and erfcx(x) near
1/(x sqrt(pi))), so its relative error grows with phi.

The right side of 14 is computed in its second form, from
K_{1/4}(z) = sqrt(pi/sqrt z) D_{-1/2}(2 sqrt z) (DLMF 12.7.10), whose
prefactors cancel sqrt(a sinh(phi)/pi).  D_{-1/2} is finite at 0, and
:func:`pcfprod.specfun.pcf_d_product` keeps each factor as a fraction
and a binary exponent, and a factor past z = 2411 is 0.0 and underflows
any product with the other, so the right side is a double wherever the query
is valid: as phi -> 0, where a sinh^2(phi/2) underflows, and at large
a cosh^2(phi/2), where it overflows.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, checked
from .quadrature import QuadratureResult, clamp_tol, integrate_finite
from .report import VerificationRecord, make_record
from .specfun import erfcx, pcf_d_product

__all__ = [
    "HyperbolicQuery",
    "lhs_13a",
    "lhs_13b",
    "lhs_14",
    "erfc_identity_13a",
    "erfc_identity_13b",
    "k_identity_14",
]

# each theta panel ends where its exponent has risen this far above its value at
# theta = 0: the tail it drops is below about e^{-50} = 2e-22 of the integral
_RISE = 50.0


@checked
class HyperbolicQuery(NamedTuple):
    """Parameters of the hyperbolic identities.

    ``alpha`` feeds the two erfc identities, ``a`` the K_{1/4} identity;
    ``phi`` is the hyperbolic shift shared by all three.  alpha >= 1e-150,
    a >= 1e-300 and phi <= 700 keep the theta integrals' cuts, and cosh and
    sinh of phi, finite.
    """

    alpha: float = 1.0
    a: float = 1.0
    phi: float = 1.0

    def _check(self):
        for name, value, low in (("alpha", self.alpha, 1e-150), ("a", self.a, 1e-300)):
            if not low <= value < math.inf:
                raise DomainError(f"{name} must be finite and at least {low}, got {value}")
        if not 0.0 < self.phi <= 700.0:
            raise DomainError(f"phi must lie in (0, 700], got {self.phi}")


def _theta_integral(integrand, cut: float, tol: float) -> QuadratureResult:
    """``integrand`` over [0, cut], or over [0, 1] where the cut is not
    positive and the integrand is 0 at every node."""
    return integrate_finite(integrand, 0.0, cut if cut > 0.0 else 1.0, tol)


def _cut(phi: float, d: float) -> float:
    """The delta >= 0 with cosh(delta + phi) = cosh(phi) + d, d >= 0, written as
    the log1p of positive terms, so it does not cancel to 0 where d << cosh(phi)."""
    c, s = math.cosh(phi), math.sinh(phi)
    # sinh(delta + phi) = sqrt(sinh^2(phi) + d (2 cosh(phi) + d)), which neither
    # cancels where d << 1 nor overflows where phi is near 700
    r = math.hypot(s, math.sqrt(d) * math.sqrt(2.0 * c + d))
    return math.log1p(d * (1.0 + (2.0 * c + d) / (r + s)) * math.exp(-phi))


def _cut_13(q: HyperbolicQuery) -> float:
    """The theta where alpha^2 sinh(th) sinh(th+phi) = alpha^2 (cosh(2 th + phi)
    - cosh(phi))/2 reaches _RISE."""
    return 0.5 * _cut(q.phi, 2.0 * _RISE / (q.alpha * q.alpha))


def lhs_13a(q: HyperbolicQuery, tol: float = 1e-10) -> QuadratureResult:
    """Left side of 13a by tanh-sinh quadrature at ``tol``, over [0, cut]."""
    a2, phi = q.alpha * q.alpha, q.phi

    def integrand(th: float) -> float:
        return math.exp(-a2 * math.sinh(th) * math.sinh(th + phi)) / math.cosh(th)

    return _theta_integral(integrand, _cut_13(q), tol)


def lhs_13b(q: HyperbolicQuery, tol: float = 1e-10) -> QuadratureResult:
    """Left side of 13b, as :func:`lhs_13a`."""
    a2, phi = q.alpha * q.alpha, q.phi

    def integrand(th: float) -> float:
        s = math.sinh(th)
        return s * math.exp(-a2 * s * math.sinh(th + phi))

    return _theta_integral(integrand, _cut_13(q), tol)


def lhs_14(q: HyperbolicQuery, tol: float = 1e-10) -> QuadratureResult:
    """Left side of 14 by tanh-sinh quadrature at ``tol``, over [0, cut], where
    a cosh(th + phi) has risen _RISE above a cosh(phi); the rule's endpoint
    clustering takes the (sinh th)^{-1/2} singularity at 0."""
    a, phi = q.a, q.phi

    def integrand(th: float) -> float:
        return math.exp(-a * math.cosh(th + phi)) / math.sqrt(math.sinh(th))

    return _theta_integral(integrand, _cut(phi, _RISE / a), tol)


def _record(identity: str, params: dict, lhs, q: HyperbolicQuery, rhs: float,
            tol: float) -> VerificationRecord:
    """The record of ``lhs(q)`` against ``rhs``, judged at ``tol``; the
    quadrature runs at min(tol, 1e-10), clamped to the engines' range."""
    quad_tol, note = clamp_tol(min(tol, 1e-10))
    left = lhs(q, quad_tol)
    return make_record(identity, params, left.value, rhs, tol, left.evaluations, note=note)


def erfc_identity_13a(q: HyperbolicQuery, tol: float = 1e-10) -> VerificationRecord:
    """13a, its right side (pi/2) erfcx(alpha sh) erfcx(alpha ch): the
    e^{alpha^2 cosh(phi)} of the erfc form, split as e^{alpha^2 sh^2}
    e^{alpha^2 ch^2}, inside the two erfc values it scales.  A double for
    every valid query, 0.0 only where it underflows."""
    ch, sh = math.cosh(0.5 * q.phi), math.sinh(0.5 * q.phi)
    rhs = 0.5 * math.pi * erfcx(q.alpha * sh) * erfcx(q.alpha * ch)
    return _record("EQ13A", {"alpha": q.alpha, "phi": q.phi}, lhs_13a, q, rhs, tol)


def erfc_identity_13b(q: HyperbolicQuery, tol: float = 1e-10) -> VerificationRecord:
    """13b, its right side (sqrt(pi)/(2 alpha)) [ch erfcx(alpha ch) -
    sh erfcx(alpha sh)], each exponential inside the erfc it scales: a
    double for every valid query.  The bracket cancels as phi grows, by
    about alpha^2 sinh^2(phi) where alpha ch is large and e^phi where it
    is small, and its relative error grows with that cancellation."""
    ch, sh = math.cosh(0.5 * q.phi), math.sinh(0.5 * q.phi)
    rhs = (math.sqrt(math.pi) / (2.0 * q.alpha)
           * (ch * erfcx(q.alpha * ch) - sh * erfcx(q.alpha * sh)))
    return _record("EQ13B", {"alpha": q.alpha, "phi": q.phi}, lhs_13b, q, rhs, tol)


def k_identity_14(q: HyperbolicQuery, tol: float = 1e-9) -> VerificationRecord:
    """14, its right side sqrt(2 pi) D_{-1/2}(2 sqrt(a) ch)
    D_{-1/2}(2 sqrt(a) sh): the K_{1/4} form with its prefactors
    cancelled, the two D values taken from the exact squares 4a ch^2 and
    4a sh^2.  A double for every valid query, 0.0 only where it
    underflows.  The default tol is 1e-9, not the 1e-10 of 13a and 13b."""
    ch, sh = math.cosh(0.5 * q.phi), math.sinh(0.5 * q.phi)
    root, four_a = 2.0 * math.sqrt(q.a), 4.0 * q.a
    # the squared arguments are passed exactly, not as squares of rounded ones
    rhs = pcf_d_product(0.5, root * ch, four_a * ch * ch, root * sh, four_a * sh * sh,
                        factor=math.sqrt(2.0 * math.pi))
    return _record("EQ14", {"a": q.a, "phi": q.phi}, lhs_14, q, rhs, tol)
