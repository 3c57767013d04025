"""Green function of the quantum-oscillator Sturm-Liouville operator.

The operator is L = d^2/dx^2 + (lambda - x^2) on the real line with
decay at both infinities; eigenvalues lambda_n = 2n+1, normalized
eigenfunctions y_n(x) = (2^n n! sqrt(pi))^{-1/2} e^{-x^2/2} H_n(x).

Three independent evaluations of the Green function:

* :func:`green_spectral` -- the eigenfunction expansion
  (1/sqrt(pi)) e^{-(x^2+x'^2)/2} sum_n H_n(x)H_n(x')/(2^n n!(lambda_n-lambda));
* :func:`green_closed` -- the Titchmarsh product form
  (1/(2 sqrt(pi))) Gamma((1-lambda)/2) D_{(lambda-1)/2}(x sqrt2) D_{(lambda-1)/2}(-x' sqrt2)
  for x > x';
* :func:`green_ode_oracle` -- direct numerical construction from two
  shooting solutions joined through their Wronskian.

Sign convention: applying L term-by-term to the spectral sum produces
-delta(x - x'), not +delta.  The Wronskian construction therefore
carries an explicit minus sign (G = -u(x<) v(x>)/W with
W = u v' - u' v), which is what matches the other two routes
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .hermsum import bilinear_hermite_sum
from .specfun import SeriesResult, gamma, pcf_d

__all__ = [
    "GreenQuery",
    "eigenfunction",
    "green_spectral",
    "green_closed",
    "green_ode_oracle",
]

_SPECTRAL_POLE_GUARD = 1e-6
_ORACLE_POLE_GUARD = 0.1
_SHOOT_FROM = 8.0  # e^{-x^2/2} ~ 1e-14 there, below identity tolerances
_ORACLE_RANGE = 6.0


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first use.

    Only :func:`green_ode_oracle` integrates ODEs, and importing
    ``scipy.integrate`` costs about half a second, so importing this
    module (and the CLI) does not pay for it up front.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


@dataclass(frozen=True)
class GreenQuery:
    """Spectral parameter and the two space points (lambda, x, x')."""

    lam: float
    x: float
    xprime: float


def _eigen_distance(lam: float) -> float:
    if lam < 1.0:
        return 1.0 - lam
    n = round((lam - 1.0) / 2.0)
    return abs(lam - (2.0 * n + 1.0))


def eigenfunction(n: int, x: float) -> float:
    """Normalized oscillator eigenfunction y_n(x), log-scaled recurrence."""
    if n < 0 or n != int(n):
        raise DomainError(f"eigenfunction index must be a nonnegative integer, got {n}")
    h0 = 1.0
    if n >= 1:
        h1 = x * math.sqrt(2.0)
        for k in range(1, n):
            h0, h1 = h1, x * math.sqrt(2.0 / (k + 1)) * h1 - math.sqrt(k / (k + 1.0)) * h0
        h0 = h1
    return math.pi ** -0.25 * math.exp(-0.5 * x * x) * h0


def green_spectral(q: GreenQuery, tol: float = 5e-7) -> SeriesResult:
    """The eigenfunction expansion, windowed summation."""
    if _eigen_distance(q.lam) < _SPECTRAL_POLE_GUARD:
        raise DomainError(f"lambda={q.lam} within {_SPECTRAL_POLE_GUARD} of an eigenvalue")
    # 2n+1-lambda = 2(n + s) with s = (1-lambda)/2
    s = 0.5 * (1.0 - q.lam)
    inner = bilinear_hermite_sum(q.x, q.xprime, s, 0.5 * tol)
    pref = math.exp(-0.5 * (q.x * q.x + q.xprime * q.xprime)) / (2.0 * math.sqrt(math.pi))
    return SeriesResult(pref * inner.value, inner.terms_used, pref * inner.tail_bound)


def green_closed(q: GreenQuery) -> float:
    """Titchmarsh closed form, valid for x > x' and lambda < 1."""
    if not q.x > q.xprime:
        raise DomainError(f"closed form requires x > x', got x={q.x}, x'={q.xprime}")
    half = 0.5 * (1.0 - q.lam)
    if not half > 0.0:
        raise DomainError(f"closed form requires lambda < 1, got {q.lam}")
    order = 0.5 * (q.lam - 1.0)
    rt2 = math.sqrt(2.0)
    return (
        gamma(half)
        / (2.0 * math.sqrt(math.pi))
        * pcf_d(order, q.x * rt2)
        * pcf_d(order, -q.xprime * rt2)
    )


def green_ode_oracle(q: GreenQuery, rtol: float = 1e-11) -> float:
    """Wronskian construction from two shooting solutions.

    Integrates the left-decaying solution from -L and the right-decaying
    solution from +L (L = 8) with WKB-normalized starting slopes
    y'/y = +-sqrt(L^2 - lambda).  Any admixture of the wrong solution in
    the starting data decays by ~ e^{-2 int sqrt(x^2-lambda)} on the way
    in, which is < 1e-12 by |x| = 6; the construction is scale-invariant
    so the arbitrary starting amplitude drops out.
    """
    if max(abs(q.x), abs(q.xprime)) > _ORACLE_RANGE:
        raise DomainError(f"oracle supports |x|, |x'| <= {_ORACLE_RANGE}")
    if _eigen_distance(q.lam) < _ORACLE_POLE_GUARD:
        raise DomainError(
            f"lambda={q.lam} within {_ORACLE_POLE_GUARD} of an eigenvalue; "
            "the oracle is ill-conditioned there"
        )
    lam = q.lam
    L = _SHOOT_FROM
    xlo, xhi = min(q.x, q.xprime), max(q.x, q.xprime)

    def rhs(t, y):
        return [y[1], (t * t - lam) * y[0]]

    def shoot(t0, t1, y0):
        sol = solve_ivp(rhs, [t0, t1], y0, method="DOP853", rtol=rtol, atol=1e-14)
        if not sol.success:
            raise ConvergenceError(f"shooting integration failed: {sol.message}")
        return sol.y[0, -1], sol.y[1, -1]

    slope = math.sqrt(L * L - lam)
    u, up = shoot(-L, xlo, [1.0, slope])          # decays toward -inf
    v_hi, vp_hi = shoot(L, xhi, [1.0, -slope])    # decays toward +inf
    if xhi > xlo:
        v, vp = shoot(xhi, xlo, [v_hi, vp_hi])
    else:
        v, vp = v_hi, vp_hi
    wronskian = u * vp - up * v
    return -u * v_hi / wronskian
