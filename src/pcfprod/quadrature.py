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

Everything at a node that depends only on k*h comes from a per-level
node table, one per engine side and filled once per process: rows
(k*h, exp(s - e^{-s}), 1 + e^{-s}) for each exp-sinh side and
(k*h, 1 + exp(2u), (pi/2)*cosh(k*h)*sech^2(u)) with u = (pi/2)*sinh(k*h)
for tanh-sinh.  A walk then only scales the row to the caller's
interval or decay rate, evaluates the integrand and weights it.  Tables
grow lazily, a chunk of rows at a time, as far as some walk has gone
and never to the representable range (the right exp-sinh side would
run to s = 690).  A row takes about 160 bytes and is kept for the life
of the process, so a call that walks a million nodes leaves about
160 MB of table behind.

The step is halved until two successive levels agree to ``tol``
relative.  The error estimate reported is the difference between the
last two levels; the returned value comes from the finer level, whose
true error is in practice far smaller than the estimate.  A
:class:`ConvergenceError` lists the change at every level.  A caller's
prefactor, ``factor``, multiplies the result and every number of the
error, never the stopping test.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import chain
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
# the floor of the dead-term test, _TERM_CUTOFF * _TINY, precomputed
_DEAD_FLOOR = _TERM_CUTOFF * _TINY
_CONSEC_DEAD = 10
# dead-term truncation is only trusted beyond this distance in the
# transformed variable; integrands that are exactly zero near the start
# of the node walk (underflow guards, compact support) must not stop it
_MIN_TRUNC_T = 3.0
_MAX_STEPS_PER_SIDE = 2_000_000
_CHUNK = 16
_PIOV2 = 0.5 * math.pi


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral together with convergence metadata."""

    value: float
    error_estimate: float
    evaluations: int


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


class _NodeTable:
    """Rows of one walk of a DE rule, per refinement level, in walk order.

    Level L holds the nodes k*h with h = step/2^L, for k = 1, 2, 3, ...
    at level 0 and the odd k after.  ``row`` maps k*h to the row of
    everything the walk needs that depends only on k*h, or to None past
    the representable range, which ends the level.  Rows are built in
    chunks of ``_CHUNK``, only when a walk reaches the end of what is
    built, and kept for the rest of the process: a level grows about as
    far as the longest walk over it, never to the representable range.
    Growth only appends, under ``_GROW_LOCK``, rows that depend on
    nothing but k*h, so a walk stays valid while a nested integral (an
    integrand that integrates) or another thread grows the same table.
    """

    def __init__(self, step: float, row: Callable[[float], tuple | None]):
        self.step = step
        self._row = row
        self._levels: list[list[tuple]] = []

    def rows(self, level: int):
        """Iterator over the rows of ``level``, grown as it is consumed."""
        return chain.from_iterable(self._chunks(level))

    def _chunks(self, level: int):
        with _GROW_LOCK:
            while len(self._levels) <= level:
                self._levels.append([])
        chunks = self._levels[level]
        h = self.step * 0.5**level
        dk = 1 if level == 0 else 2
        i = 0
        while i < len(chunks) or self._grow(chunks, i, h, dk):
            yield chunks[i]
            i += 1

    def _grow(self, chunks: list, i: int, h: float, dk: int) -> bool:
        """Make chunk ``i`` of a level; False once the level has ended."""
        with _GROW_LOCK:
            if i < len(chunks):  # another thread made it meanwhile
                return True
            if chunks and len(chunks[-1]) < _CHUNK:
                return False
            first = 1 + i * _CHUNK * dk
            chunk = []
            for k in range(first, min(first + _CHUNK * dk, _MAX_STEPS_PER_SIDE), dk):
                row = self._row(k * h)
                if row is None:
                    break
                chunk.append(row)
            chunks.append(tuple(chunk))
            return True


def _exp_sinh_row(sgn: float) -> Callable[[float], tuple | None]:
    """Rows (k*h, exp(s - e^{-s}), 1 + e^{-s}) at s = sgn*k*h."""
    def row(k_h: float) -> tuple | None:
        s = sgn * k_h
        es = math.exp(-s)
        arg = s - es
        if arg > 690.0:
            return None
        u = math.exp(arg)
        # u == 0 makes every scaled node t = scale*u zero
        return (k_h, u, 1.0 + es) if u > 0.0 else None
    return row


def _tanh_sinh_row(k_h: float) -> tuple | None:
    """Rows (k*h, 1 + exp(2u), (pi/2)*cosh(k*h)*sech^2(u)), u = (pi/2)*sinh(k*h).

    The nodes lie at distance (half-width)*2/(1 + exp(2u)) =
    (half-width)*(1 - tanh u) from both endpoints.
    """
    u = _PIOV2 * math.sinh(k_h)
    if u > 350.0:
        return None
    sech = 2.0 * math.exp(-u) / (1.0 + math.exp(-2.0 * u))
    return (k_h, 1.0 + math.exp(2.0 * u), _PIOV2 * math.cosh(k_h) * (sech * sech))


_GROW_LOCK = threading.Lock()
_EXP_SINH_RIGHT = _NodeTable(0.5, _exp_sinh_row(1.0))
_EXP_SINH_LEFT = _NodeTable(0.5, _exp_sinh_row(-1.0))
_TANH_SINH = _NodeTable(1.0, _tanh_sinh_row)


def _refine(
    center: float,
    walks: tuple[tuple[_NodeTable, Callable[[float, float], float | None]], ...],
    scale: float,
    tol: float,
    max_level: int,
    calls: Callable[[], int],
    what: str,
    factor: float,
) -> QuadratureResult:
    """Nested trapezoid refinement of a double-exponential sum.

    ``center`` is the weighted term at t = 0.  Each walk pairs a node
    table with a function that maps the last two entries of a row to the
    node's weighted term, or to None where the node cannot be
    represented, which ends the walk.  The integral at step h is
    scale * h * (sum of all terms), with h halved from the tables' step.
    ``calls`` counts the integrand evaluations so far; ``what`` names the
    integral in the error, whose numbers, like the result, are ``factor``
    times the integral's.
    """
    h = walks[0][0].step
    cut, neg_cut, floor = _TERM_CUTOFF, -_TERM_CUTOFF, _DEAD_FLOOR
    total = 0.0
    prev = math.nan
    diff = math.inf
    changes = []
    for level in range(max_level):
        # level 0 takes every k; later levels only the odd k, new at this h
        new = center if level == 0 else 0.0
        for table, walk in walks:
            dead = 0
            for t, a, b in table.rows(level):
                term = walk(a, b)
                if term is None:
                    break
                new += term
                # abs(term) <= cut * max(abs(new), _TINY) without the builtins;
                # a nan partial sum leaves lim nan, and no term dead, alike
                lim = new * cut if new >= 0.0 else new * neg_cut
                if lim < floor:
                    lim = floor
                if -lim <= term <= lim:
                    dead += 1
                    if dead > _CONSEC_DEAD and t >= _MIN_TRUNC_T:
                        break
                else:
                    dead = 0
        total += new
        value = total * h * scale
        if level:
            diff = abs(value - prev)
            if diff <= tol * max(abs(value), _TINY):
                return QuadratureResult(factor * value, factor * diff, calls())
            changes.append((h, diff))
        prev = value
        h *= 0.5
    levels = ", ".join(f"h={h!r} {factor * d:.3e}" for h, d in changes) or "none"
    raise ConvergenceError(
        f"{what} did not reach tol={tol} (best estimate {factor * prev!r}, last refinement "
        f"change {factor * diff:.3e}); changes between successive levels: {levels}",
        partial=QuadratureResult(factor * prev, factor * diff, calls()))


def integrate_semi_infinite(
    f: Callable[[float], float],
    spec: IntegrandSpec,
    tol: float = 1e-10,
    max_level: int = 13,
    factor: float = 1.0,
) -> QuadratureResult:
    """``factor`` (> 0) times the integral of ``f`` over (0, inf).

    The substitution t = c*exp(s - exp(-s)) with c ~ 1/decay_rate turns
    both the origin singularity and the exponential tail into
    double-exponentially decaying contributions of the trapezoid sum in
    s.  The step is halved until two successive levels agree to ``tol``
    relative; the result, or an error's partial and numbers, are then
    multiplied by ``factor``.
    """
    _check_tol(tol)
    scale = 1.0 / min(max(spec.decay_rate, 1e-4), 1e4)
    calls = 0

    def walk(u: float, g: float) -> float | None:
        nonlocal calls
        t = scale * u
        if t == 0.0:
            return None
        calls += 1
        v = f(t)
        if v != v:
            raise ConvergenceError(f"integrand returned NaN at t={t!r}")
        return v * t * g

    _, u0, g0 = _exp_sinh_row(1.0)(0.0)
    return _refine(walk(u0, g0), ((_EXP_SINH_RIGHT, walk), (_EXP_SINH_LEFT, walk)),
                   1.0, tol, max_level, lambda: calls, "semi-infinite quadrature", factor)


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
    width = half * 2.0
    mid = 0.5 * (hi + lo)
    calls = 0

    def eval_at(x: float) -> float:
        nonlocal calls
        calls += 1
        v = f(x)
        if v != v:
            raise ConvergenceError(f"integrand returned NaN at x={x!r}")
        return v

    def walk(den: float, w: float) -> float | None:
        # both nodes at distance half*(1 - tanh u) from the endpoints
        d = width / den
        if d == 0.0:
            return None
        # nodes that round onto an endpoint cannot be represented;
        # their true contribution is below double resolution
        term = 0.0
        xh = hi - d
        if xh < hi:
            term += eval_at(xh)
        xl = lo + d
        if xl > lo:
            term += eval_at(xl)
        return term * w

    # k = 0 node, sech^2(0) = 1
    return _refine(eval_at(mid) * _PIOV2, ((_TANH_SINH, walk),), half, tol, max_level,
                   lambda: calls, f"tanh-sinh quadrature on [{lo}, {hi}]", 1.0)
