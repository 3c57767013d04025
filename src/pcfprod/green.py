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
  shooting solutions joined through their Wronskian, integrated by the
  in-module Taylor-series shooter :func:`solve_ivp` (plain Python
  floats; no ODE library is needed).

All three take a :class:`GreenQuery`, which rejects a non-finite lambda,
x or x' with :class:`DomainError`.

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
from .hermsum import SeriesResult, bilinear_hermite_sum, scaled_hermite
from .specfun import gamma, pcf_d

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
_ORACLE_RTOL = 1e-11  # local relative error allowed per step of solve_ivp

# Taylor shooter: fixed order, step-size safety factor, and a cap on the
# steps of one shoot (a whole oracle call, 16 units of t, takes 31-56)
_TAYLOR_ORDER = 24
_STEP_SAFETY = 0.7
_MAX_STEPS = 1000
# 1/((k+2)(k+1)), the divisor of the coefficient recurrence
_RECUR = tuple(1.0 / ((k + 2) * (k + 1)) for k in range(_TAYLOR_ORDER - 1))


def solve_ivp(lam: float, t0: float, t1: float, y: float, yp: float,
              rtol: float) -> tuple[float, float]:
    """Integrate y'' = (t^2 - lambda) y from t0 to t1; return (y(t1), y'(t1)).

    A fixed-order Taylor method (Corliss & Chang 1982; Jorba & Zou 2005).
    About the current point t0 the solution is sum_k c_k h^k with
    c_0 = y, c_1 = y' and, since t^2 - lambda = a + b h + h^2 with
    a = t0^2 - lambda, b = 2 t0,

        (k+2)(k+1) c_{k+2} = a c_k + b c_{k-1} + c_{k-2}.

    Each step is sized from the last four coefficients so that the dropped
    terms stay below ``rtol`` times the state max(|y|, |y'|), shrunk by a
    safety factor; the last step is clipped to land exactly on t1, and y
    and y' there come from Horner evaluation.  Four, not two: at t0 = 0
    with lambda = 0 the recurrence links only every fourth coefficient,
    so when y or y' is zero there two neighbouring ones vanish while the
    dropped terms do not.  A shoot that needs more than ``_MAX_STEPS``
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
        bound = rtol * max(abs(y), abs(yp))
        h = math.inf
        for k in range(n - 3, n + 1):
            if c[k]:
                h = min(h, (bound / abs(c[k])) ** (1.0 / k))
        h *= _STEP_SAFETY
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


@dataclass(frozen=True)
class GreenQuery:
    """Spectral parameter and the two space points (lambda, x, x'), all finite."""

    lam: float
    x: float
    xprime: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.x) and math.isfinite(self.xprime)):
            raise DomainError(f"Green function needs finite lambda, x, x', got "
                              f"lambda={self.lam}, x={self.x}, x'={self.xprime}")


def _eigen_distance(lam: float) -> float:
    if lam < 1.0:
        return 1.0 - lam
    n = round((lam - 1.0) / 2.0)
    return abs(lam - (2.0 * n + 1.0))


def eigenfunction(n: int, x: float) -> float:
    """Normalized oscillator eigenfunction pi^{-1/4} e^{-x^2/2} h_n(x), not log-scaled:
    the two factors leave floating range for |x| beyond about 37."""
    return math.pi ** -0.25 * math.exp(-0.5 * x * x) * scaled_hermite(n, x)


def green_spectral(q: GreenQuery, tol: float = 5e-7) -> SeriesResult:
    """The eigenfunction expansion, summed with Abel weights.

    Valid for any x, x'; the terms needed grow like 1/(x-x')^2.  At
    x = x', and where x - x' is too small to reach ``tol`` within 2^19
    terms, it raises :class:`ConvergenceError` after that one capped
    pass, with the partial sum and its tail bound attached.
    """
    if _eigen_distance(q.lam) < _SPECTRAL_POLE_GUARD:
        raise DomainError(f"lambda={q.lam} within {_SPECTRAL_POLE_GUARD} of an eigenvalue")
    # 2n+1-lambda = 2(n + s) with s = (1-lambda)/2
    s = 0.5 * (1.0 - q.lam)
    pref = math.exp(-0.5 * (q.x * q.x + q.xprime * q.xprime)) / (2.0 * math.sqrt(math.pi))
    return bilinear_hermite_sum(q.x, q.xprime, s, 0.5 * tol, factor=pref)


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


def green_ode_oracle(q: GreenQuery) -> float:
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

    slope = math.sqrt(L * L - lam)
    u, up = solve_ivp(lam, -L, xlo, 1.0, slope, _ORACLE_RTOL)       # decays toward -inf
    v_hi, vp_hi = solve_ivp(lam, L, xhi, 1.0, -slope, _ORACLE_RTOL)  # decays toward +inf
    if xhi > xlo:
        v, vp = solve_ivp(lam, xhi, xlo, v_hi, vp_hi, _ORACLE_RTOL)
    else:
        v, vp = v_hi, vp_hi
    wronskian = u * vp - up * v
    return -u * v_hi / wronskian
