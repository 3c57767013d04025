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
* :func:`green_ode_oracle` -- direct numerical construction from the
  solutions that decay at -inf and at +inf, joined through their
  Wronskian; the potential being even, the second is the mirror image of
  the first, so one shoot by the in-module Taylor-series shooter
  :func:`solve_ivp` (plain Python floats; no ODE library is needed) gives
  both.

All three take a :class:`GreenQuery`, which rejects a non-finite lambda,
x or x' with :class:`DomainError`.

Sign convention: applying L term-by-term to the spectral sum produces
-delta(x - x'), not +delta.  The Wronskian construction therefore
carries an explicit minus sign (G = -u(x<) v(x>)/W with
W = u v' - u' v), which is what matches the other two routes
numerically; with v(t) = u(-t) it reads G = u(x<) u(-x>)/(2 u(0) u'(0)).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConvergenceError, DomainError, checked
from .hermsum import SeriesResult, bilinear_hermite_sum, scaled_hermite_frexp
from .specfun import _times_exp, gamma, pcf_d_product

__all__ = [
    "GreenQuery",
    "eigenfunction",
    "green_spectral",
    "green_closed",
    "green_ode_oracle",
]

_ORACLE_POLE_GUARD = 0.1
_SHOOT_FROM = 8.0  # e^{-x^2/2} ~ 1e-14 there, below identity tolerances
_ORACLE_RANGE = 6.0
_ORACLE_RTOL = 1e-11  # local relative error allowed per step of solve_ivp

# Taylor shooter: fixed order, step-size safety factor, the most radians
# of oscillation one step may span, and a cap on the steps of one solve_ivp
# call (a whole oracle call takes 8-17 at lambda < 1 and at most 44 for lambda < 64)
_TAYLOR_ORDER = 36
_STEP_SAFETY = 0.7
_MAX_PHASE = 2.5
_MAX_STEPS = 1000
# 1/((k+2)(k+1)), the divisor of the coefficient recurrence
_RECUR = tuple(1.0 / ((k + 2) * (k + 1)) for k in range(_TAYLOR_ORDER - 1))


def solve_ivp(lam: float, t0: float, t1: float, y: float, yp: float) -> tuple[float, float]:
    """Integrate y'' = (t^2 - lambda) y from t0 to t1; return (y(t1), y'(t1)).

    A fixed-order Taylor method (Corliss & Chang 1982; Jorba & Zou 2005).
    About the current point t0 the solution is sum_k c_k h^k with
    c_0 = y, c_1 = y' and, since t^2 - lambda = a + b h + h^2 with
    a = t0^2 - lambda, b = 2 t0,

        (k+2)(k+1) c_{k+2} = a c_k + b c_{k-1} + c_{k-2}.

    Each step is sized from the last four coefficients so that the dropped
    terms stay below ``_ORACLE_RTOL`` times the state max(|y|, |y'|), shrunk
    by a safety factor; the last step is clipped to land exactly on t1, and y
    and y' there come from Horner evaluation.  Four, not two: at t0 = 0
    with lambda = 0 the recurrence links only every fourth coefficient,
    so when y or y' is zero there three of every four vanish while the
    dropped terms do not.  Where the solution oscillates (a < 0) a step also
    spans at most ``_MAX_PHASE`` radians of sqrt(-a) t: a longer one sums
    Taylor terms far larger than the state, of alternating sign, and loses
    digits to their rounding.  The order is the one that costs least per
    oracle call under these two rules: 36 halves the steps of order 24.
    A shoot that needs more than ``_MAX_STEPS``
    steps, or whose state stops being finite, raises
    :class:`ConvergenceError` naming the interval, the t reached and the
    step count.
    """
    n = _TAYLOR_ORDER
    recur = _RECUR
    t, steps = t0, 0
    while t != t1:
        if steps >= _MAX_STEPS:
            raise ConvergenceError(
                f"Taylor shoot from t={t0} to t={t1} stopped at t={t} "
                f"after {steps} steps: step cap reached")
        a = t * t - lam
        b = 2.0 * t
        c = [y, yp, 0.5 * a * y, (a * yp + b * y) / 6.0]
        for k in range(2, n - 1):
            c.append((a * c[k] + b * c[k - 1] + c[k - 2]) * recur[k])
        bound = _ORACLE_RTOL * max(abs(y), abs(yp))
        h = math.inf
        for k in range(n - 3, n + 1):
            if c[k]:
                h = min(h, (bound / abs(c[k])) ** (1.0 / k))
        h *= _STEP_SAFETY
        if a < 0.0:
            h = min(h, _MAX_PHASE / math.sqrt(-a))
        if h < abs(t1 - t):
            h = math.copysign(h, t1 - t)
            t_next = t + h
        else:
            h = t1 - t
            t_next = t1
        y, yp = c[n], n * c[n]
        for k in range(n - 1, 0, -1):
            y = y * h + c[k]
            yp = yp * h + k * c[k]
        y = y * h + c[0]
        t = t_next
        steps += 1
        if not (math.isfinite(y) and math.isfinite(yp)):
            raise ConvergenceError(
                f"Taylor shoot from t={t0} to t={t1} stopped at t={t} "
                f"after {steps} steps: state is not finite (y={y}, y'={yp})")
    return y, yp


@checked
class GreenQuery(NamedTuple):
    """Spectral parameter and the two space points (lambda, x, x'), all finite."""

    lam: float
    x: float
    xprime: float

    def _check(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.x) and math.isfinite(self.xprime)):
            raise DomainError(f"Green function needs finite lambda, x, x', got "
                              f"lambda={self.lam}, x={self.x}, x'={self.xprime}")


def _eigen_distance(lam: float) -> float:
    if lam < 1.0:
        return 1.0 - lam
    n = round((lam - 1.0) / 2.0)
    return abs(lam - (2.0 * n + 1.0))


def eigenfunction(n: int, x: float) -> float:
    """Normalized oscillator eigenfunction pi^{-1/4} e^{-x^2/2} h_n(x), with
    e^{-x^2/2} applied to h_n's binary exponent: it is 0.0 only where it
    underflows, never nan.  The degree is capped at 2^19: a larger n raises
    :class:`DomainError`."""
    frac, expo = scaled_hermite_frexp(n, x)
    return _times_exp(math.pi ** -0.25 * frac, -0.5 * x * x, expo)


def green_spectral(q: GreenQuery, tol: float = 5e-7) -> SeriesResult:
    """The eigenfunction expansion, summed with Abel weights.

    Valid for any x, x' and any lambda but an eigenvalue 2n+1 itself, where
    :func:`pcfprod.hermsum.bilinear_hermite_sum` raises :class:`DomainError`
    on the series' pole.  Beside one (lambda = 3 + 1e-14, say) the pole's
    term dominates and the sum is evaluated like any other: at 200 seeded
    points within 1e-14 to 1e-7 of lambda = 1, 3, 5 and 11 it agrees with
    40-digit mpmath to 6.3e-10 relative at tol 1e-8.  The terms needed grow
    like 1/(x-x')^2.  At x = x', and where x - x' is too small to reach
    ``tol`` within 2^19 terms, it raises :class:`ConvergenceError` after
    that one capped pass, with the partial sum and its tail bound attached;
    so it does where every term underflows to 0.0.  lambda below about
    -3e12, a shift (1-lambda)/2 the series' tails cannot resolve, raises
    :class:`DomainError`.
    """
    # 2n+1-lambda = 2(n + s) with s = (1-lambda)/2
    s = 0.5 * (1.0 - q.lam)
    pref = math.exp(-0.5 * (q.x * q.x + q.xprime * q.xprime)) / (2.0 * math.sqrt(math.pi))
    return bilinear_hermite_sum(q.x, q.xprime, s, 0.5 * tol, factor=pref)


def green_closed(q: GreenQuery) -> float:
    """Titchmarsh closed form, valid for x > x' and lambda < 1, evaluated by
    :func:`pcfprod.specfun.pcf_d_product`, so a subnormal or underflowing
    factor costs no digits where G is a double.  It raises
    :class:`DomainError` for lambda < -39 (an order below -20), for x' above
    about 1704 (-x' sqrt 2 below -2410) and where the product overflows a
    double.  Past x of about 1705 (x sqrt 2 past 2411) G is 0.0.
    """
    if not q.x > q.xprime:
        raise DomainError(f"closed form requires x > x', got x={q.x}, x'={q.xprime}")
    nu = 0.5 * (1.0 - q.lam)
    if not nu > 0.0:
        raise DomainError(f"closed form requires lambda < 1, got {q.lam}")
    rt2 = math.sqrt(2.0)
    return pcf_d_product(nu, q.x * rt2, 2.0 * q.x * q.x, -q.xprime * rt2, 2.0 * q.xprime * q.xprime,
                         factor=gamma(nu) / (2.0 * math.sqrt(math.pi)))


def green_ode_oracle(q: GreenQuery) -> float:
    """Wronskian construction from one mirrored shooting solution.

    Integrates the left-decaying solution u from -L, L = max(8, 7 +
    sqrt(lambda)), with the WKB-normalized starting slope u'/u =
    sqrt(L^2 - lambda).  As t^2 is even, the right-decaying solution is
    v(t) = u(-t), so one shoot through the sorted distinct stops
    {x<, -x>, 0} gives u(x<), v(x>) = u(-x>) and, at t = 0, the Wronskian
    W = u v' - u' v = -2 u(0) u'(0), a product that cannot cancel, so
    G = u(x<) u(-x>)/(2 u(0) u'(0)).  The shoot covers L + max(x<, -x>, 0),
    where shooting from both ends covered 2L.  Any admixture of the wrong
    solution in the starting data decays by ~ e^{-2 int sqrt(x^2-lambda)} on
    the way in: below 1e-12 by |x| = 6 at L = 8, and below e^{-49} past the
    turning point sqrt(lambda) at L = 7 + sqrt(lambda).  The construction is
    scale-invariant so the arbitrary starting amplitude drops out.  It takes
    lambda < 64, the range it is checked on; a larger lambda raises
    :class:`DomainError`.  Against 30-digit mpmath over 100 seeded points
    with lambda in (-10, 1) or (1, 64) and |x|, |x'| <= 6 the worst relative
    error is 6.9e-14, and at x = 1, x' = 0 it is at most 3.6e-15 at
    lambda = 20.5, 40.5, 60.5, 63.5.  Beside an eigenvalue, where u(0) or
    u'(0) is small, it stays within 6.7e-14 at lambda 0.1 and 0.15 from 3,
    5, ..., 11.  Next to a zero of G (lambda > 1) the error grows like
    that of any double-precision route, about eps times
    the condition number sum |v d(log G)/dv| over v = lambda, x, x'; the
    seeded points keep that number below 500.
    """
    if max(abs(q.x), abs(q.xprime)) > _ORACLE_RANGE:
        raise DomainError(f"oracle supports |x|, |x'| <= {_ORACLE_RANGE}")
    if not q.lam < _SHOOT_FROM ** 2:
        raise DomainError(f"oracle requires lambda < {_SHOOT_FROM ** 2:g}, the range it is "
                          f"checked on, got lambda={q.lam}")
    if _eigen_distance(q.lam) < _ORACLE_POLE_GUARD:
        raise DomainError(
            f"lambda={q.lam} within {_ORACLE_POLE_GUARD} of an eigenvalue; "
            "the oracle is ill-conditioned there"
        )
    lam = q.lam
    L = max(_SHOOT_FROM, 7.0 + math.sqrt(max(lam, 0.0)))
    xlo, xhi = min(q.x, q.xprime), max(q.x, q.xprime)
    t, y, yp = -L, 1.0, math.sqrt(L * L - lam)  # decays toward -inf
    u = {}
    for stop in sorted({xlo, -xhi, 0.0}):
        y, yp = u[stop] = solve_ivp(lam, t, stop, y, yp)
        t = stop
    u0, up0 = u[0.0]
    return u[xlo][0] * u[-xhi][0] / (2.0 * u0 * up0)
