"""Scalar special functions: Gamma, Hermite, K_{1/4}, and the
parabolic cylinder function D of real order.

D is evaluated through two genuinely independent routes so the rest of
the library can cross-validate against it:

* negative real order -nu (nu > 0): the defining integral
  D_{-nu}(z) = e^{-z^2/4}/Gamma(nu) * int_0^inf t^{nu-1} e^{-z t - t^2/2} dt,
  a smooth, exponentially decaying integrand handled by the
  semi-infinite quadrature engine;
* nonnegative integer order n: D_n(z) = 2^{-n/2} e^{-z^2/4} H_n(z/sqrt 2).

Other orders are rejected explicitly.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .hermsum import scaled_hermite
from .quadrature import integrate_semi_infinite

__all__ = [
    "hermite",
    "gamma",
    "bessel_k_quarter",
    "pcf_d",
]

_ORDER_LIMIT = 20.0
_INT_EPS = 1e-12
_K_QUARTER_TOL = 1e-12


def hermite(n: int, x: float) -> float:
    """Physicists' Hermite polynomial H_n(x) = sqrt(2^n n!) h_n(x), with h_n
    from :func:`pcfprod.hermsum.scaled_hermite` and the norm rounded once.

    Where H_n(x) overflows a double the result is signed infinity; it is
    never nan for |x| < 37, where h_n(x) <= 1.0865 e^{x^2/2} is finite.
    The degree is capped at 2^19: a larger n raises :class:`DomainError`.
    """
    frac, expo = math.frexp(scaled_hermite(n, x))  # checks the degree
    # the top 212 or 213 bits of 2^n n! (an even shift): isqrt leaves 106 exact bits of
    # the norm; from n = 512 on any nonzero h_n overflows, so n need go no further
    norm_sq = math.factorial(min(int(n), 512)) << (min(int(n), 512) + 212)
    shift = (norm_sq.bit_length() - 212) & ~1
    try:
        return math.ldexp(float(math.isqrt(norm_sq >> shift)) * frac, expo + shift // 2 - 106)
    except OverflowError:
        return math.copysign(math.inf, frac)


def gamma(nu: float) -> float:
    """Gamma function for positive real argument."""
    if not nu > 0.0:
        raise DomainError(f"gamma requires a positive argument, got {nu}")
    return math.gamma(nu)


def bessel_k_quarter(z: float) -> float:
    """Modified Bessel function K_{1/4}(z) for z > 0.

    Uses K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt.
    """
    if not z > 0.0:
        raise DomainError(f"bessel_k_quarter requires z > 0, got {z}")

    def integrand(t: float) -> float:
        if t > 700.0:
            return 0.0
        e = z * math.cosh(t)
        if e > 700.0:
            return 0.0
        return math.exp(-e) * math.cosh(0.25 * t)

    return integrate_semi_infinite(integrand, 1.0, _K_QUARTER_TOL).value


def _pcf_d_negative_order(nu: float, z: float, tol: float) -> float:
    # defining integral; exponent -z t - t^2/2 peaks at t = -z for z < 0
    def integrand(t: float) -> float:
        expo = -z * t - 0.5 * t * t
        if expo < -745.0:
            return 0.0
        return t ** (nu - 1.0) * math.exp(expo)

    factor = math.exp(-0.25 * z * z) / math.gamma(nu)
    return integrate_semi_infinite(integrand, 1.0 + max(z, 0.0), tol, factor=factor).value


def pcf_d(nu_order: float, z: float, tol: float = 1e-12) -> float:
    """Parabolic cylinder function D_order(z) for real order.

    Supported orders: any negative real order in [-20, 0), and
    nonnegative integers up to 20, at any finite z.  Anything else raises
    :class:`DomainError` -- there is no silent fallback.
    """
    if not abs(nu_order) <= _ORDER_LIMIT:
        raise DomainError(f"order {nu_order} outside supported range [-20, 20]")
    if not math.isfinite(z):
        raise DomainError(f"pcf_d needs a finite argument z, got z={z}")
    if nu_order < 0.0:
        return _pcf_d_negative_order(-nu_order, z, tol)
    n = round(nu_order)
    if abs(nu_order - n) > _INT_EPS:
        raise DomainError(
            f"positive non-integer order {nu_order} is unsupported "
            "(only negative real orders and nonnegative integers)"
        )
    return 2.0 ** (-0.5 * n) * math.exp(-0.25 * z * z) * hermite(n, z / math.sqrt(2.0))
