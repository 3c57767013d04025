"""Adaptive double-exponential quadrature.

Two engines, both deterministic for fixed inputs:

* :func:`integrate_semi_infinite` -- trapezoid rule after the exp-sinh
  substitution t = c*exp(s - exp(-s)), which absorbs power-law endpoint
  singularities t^p (p > -1) at the origin and follows exponential tails.
* :func:`integrate_finite` -- classic tanh-sinh rule with nodes generated
  as exact distances from the nearer endpoint, so integrable endpoint
  singularities are resolved down to the floating-point limit.

Both run on one trapezoid-refinement driver (Takahasi & Mori 1974;
Bailey, Jeyabalan & Li, Exp. Math. 2005).  Level 0 sums the nodes k*h
at the starting step h; each later level halves h, walks only the new
odd multiples of it and adds their sum to the total carried from the
coarser levels, so every abscissa is evaluated exactly once.  A walk
outward from the center stops after more than ``_CONSEC_DEAD``
consecutive terms that are negligible against the partial sum of the
current level's own new nodes (never against the carried total, which
would stop a walk before it reaches a peak far from the center).

The step is halved until two successive levels agree to ``tol``
relative.  The error estimate reported is the difference between the
last two levels; the returned value comes from the finer level, whose
true error is in practice far smaller than the estimate.  A
:class:`ConvergenceError` lists the change at every level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureResult",
    "IntegrandSpec",
    "integrate_semi_infinite",
    "integrate_finite",
]

_TINY = 1e-300
# relative size below which trapezoid terms are considered dead
_TERM_CUTOFF = 1e-20
_CONSEC_DEAD = 10
# dead-term truncation is only trusted beyond this distance in the
# transformed variable; integrands that are exactly zero near the start
# of the node walk (underflow guards, compact support) must not stop it
_MIN_TRUNC_T = 3.0
_MAX_STEPS_PER_SIDE = 2_000_000


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral together with convergence metadata."""

    value: float
    error_estimate: float
    evaluations: int

    def scaled(self, factor: float) -> QuadratureResult:
        """The result for ``factor`` (> 0) times the integrand."""
        return QuadratureResult(factor * self.value, factor * self.error_estimate,
                                self.evaluations)


@dataclass(frozen=True)
class IntegrandSpec:
    """Endpoint and tail behavior of a semi-infinite integrand.

    ``endpoint_exponent`` is the power p in the t^p behavior at the
    origin (must exceed -1 for integrability).  ``decay_rate`` is the
    coefficient of the asymptotic exponential decay; 0 selects the
    algebraic-tail fallback (tails like t^{-3/2}), which converges more
    slowly but remains integrable.
    """

    endpoint_exponent: float
    decay_rate: float

    def __post_init__(self):
        if not self.endpoint_exponent > -1.0:
            raise DomainError(
                f"endpoint exponent must exceed -1, got {self.endpoint_exponent}"
            )
        if self.decay_rate < 0.0:
            raise DomainError(f"decay rate must be >= 0, got {self.decay_rate}")


def _check_tol(tol: float) -> None:
    if not 1e-14 <= tol <= 1e-2:
        raise DomainError(f"tol must lie in [1e-14, 1e-2], got {tol}")


def _refine(
    center: float,
    walks: tuple[Callable[[float], float | None], ...],
    h: float,
    scale: float,
    tol: float,
    max_level: int,
    calls: Callable[[], int],
    what: str,
) -> QuadratureResult:
    """Nested trapezoid refinement of a double-exponential sum.

    ``center`` is the weighted term at t = 0.  Each walk maps a node
    t = k*h > 0 to its weighted term, or to None past the representable
    range, which ends the walk.  The integral at step h is
    scale * h * (sum of all terms).  ``calls`` counts the integrand
    evaluations so far; ``what`` names the integral in the error.
    """
    total = 0.0
    prev = None
    diff = math.inf
    changes = []
    for level in range(max_level):
        # level 0 takes every k; later levels only the odd k, new at this h
        new, dk = (center, 1) if level == 0 else (0.0, 2)
        for walk in walks:
            k = 1
            dead = 0
            while k < _MAX_STEPS_PER_SIDE:
                t = k * h
                term = walk(t)
                if term is None:
                    break
                new += term
                if abs(term) <= _TERM_CUTOFF * max(abs(new), _TINY):
                    dead += 1
                    if dead > _CONSEC_DEAD and t >= _MIN_TRUNC_T:
                        break
                else:
                    dead = 0
                k += dk
        total += new
        value = total * h * scale
        if prev is not None:
            diff = abs(value - prev)
            if diff <= tol * max(abs(value), _TINY):
                return QuadratureResult(value, diff, calls())
            changes.append(f"h={h!r} {diff:.3e}")
        prev = value
        h *= 0.5
    raise ConvergenceError(
        f"{what} did not reach tol={tol} (best estimate {prev!r}, last "
        f"refinement change {diff:.3e}); changes between successive levels: "
        f"{', '.join(changes) or 'none'}",
        partial=QuadratureResult(prev, diff, calls()),
    )


def integrate_semi_infinite(
    f: Callable[[float], float],
    spec: IntegrandSpec,
    tol: float = 1e-10,
    max_level: int = 13,
) -> QuadratureResult:
    """Integrate ``f`` over (0, inf).

    The substitution t = c*exp(s - exp(-s)) with c ~ 1/decay_rate turns
    both the origin singularity and the exponential tail into
    double-exponentially decaying contributions of the trapezoid sum in
    s.  The step is halved until two successive levels agree to ``tol``
    relative.
    """
    _check_tol(tol)
    scale = 1.0 / min(max(spec.decay_rate, 1e-4), 1e4)
    calls = 0

    def side(sgn: float):
        def walk(k_h: float) -> float | None:
            nonlocal calls
            s = sgn * k_h
            es = math.exp(-s)
            arg = s - es
            if arg > 690.0:
                return None
            t = scale * math.exp(arg)
            if t == 0.0:
                return None
            calls += 1
            v = f(t)
            if math.isnan(v):
                raise ConvergenceError(f"integrand returned NaN at t={t!r}")
            return v * t * (1.0 + es)
        return walk

    right = side(1.0)
    return _refine(right(0.0), (right, side(-1.0)), 0.5, 1.0, tol, max_level,
                   lambda: calls, "semi-infinite quadrature")


def integrate_finite(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_level: int = 12,
) -> QuadratureResult:
    """Integrate ``f`` over [lo, hi] with the tanh-sinh rule.

    Nodes cluster double-exponentially at both endpoints, so power-law
    integrable singularities at lo or hi are handled without any help
    from the caller.  Node positions near an endpoint are computed as
    the endpoint plus/minus an exactly evaluated small distance, keeping
    singular integrands accurate until the distance underflows the
    spacing of floats around the endpoint itself.
    """
    _check_tol(tol)
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")

    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    piov2 = 0.5 * math.pi
    calls = 0

    def eval_at(x: float) -> float:
        nonlocal calls
        calls += 1
        v = f(x)
        if math.isnan(v):
            raise ConvergenceError(f"integrand returned NaN at x={x!r}")
        return v

    def walk(k_h: float) -> float | None:
        # both nodes at distance half*(1 - tanh u), u = (pi/2)*sinh(kh),
        # from the endpoints, weighted by (pi/2)*cosh(kh)*sech^2(u)
        u = piov2 * math.sinh(k_h)
        if u > 350.0:
            return None
        d = half * 2.0 / (1.0 + math.exp(2.0 * u))
        if d == 0.0:
            return None
        sech = 2.0 * math.exp(-u) / (1.0 + math.exp(-2.0 * u))
        # nodes that round onto an endpoint cannot be represented;
        # their true contribution is below double resolution
        term = 0.0
        xh = hi - d
        if xh < hi:
            term += eval_at(xh)
        xl = lo + d
        if xl > lo:
            term += eval_at(xl)
        return term * (piov2 * math.cosh(k_h) * (sech * sech))

    # k = 0 node, sech^2(0) = 1
    return _refine(eval_at(mid) * piov2, (walk,), 1.0, half, tol, max_level,
                   lambda: calls, f"tanh-sinh quadrature on [{lo}, {hi}]")
