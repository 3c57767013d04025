"""Adaptive double-exponential quadrature.

Two engines, both deterministic for fixed inputs:

* :func:`integrate_semi_infinite` -- trapezoid rule after the exp-sinh
  substitution t = c*exp(s - exp(-s)), which absorbs power-law endpoint
  singularities t^p (p > -1) at the origin and follows exponential tails
  at the caller's ``decay_rate``, the one fact it needs of the integrand.
* :func:`integrate_finite` -- classic tanh-sinh rule with nodes generated
  as exact distances from their endpoint.  An integrable singularity is
  resolved at an endpoint at 0 alone, where a node is its distance; at
  any other endpoint, nodes within a few ulps of it round onto the same
  floats, and what they miss does not show in the error estimate.

Both run on one trapezoid-refinement driver (Takahasi & Mori 1974;
Bailey, Jeyabalan & Li, Exp. Math. 2005) over the *sides* of a rule,
its walks outward from the center.  A side (table, origin, scale) takes
each row (k*h, a, w) of its node table as the node x = origin + scale*a
with the term f(x)*w; the integral at step h is h*scale*(sum of the
terms), scale that of the first side, whose row at k*h = 0 is the
center term.  Exp-sinh has the sides (right, 0, c) and (left, 0, c),
rows (k*h, u, u*(1 + e^{-s})) with u = exp(s - e^{-s}) at s = +-k*h;
tanh-sinh walks one table of rows (k*h, 2/(1 + e^{2u}),
(pi/2)*cosh(k*h)*sech^2(u)), u = (pi/2)*sinh(k*h), from lo with scale
+half-width and from hi with -half-width, so a node is its endpoint
plus or minus an exactly evaluated distance.

Level 0 sums the nodes k*h at the starting step h; each later level
halves h, walks only the new odd multiples of it and adds their sum to
the total carried from the coarser levels, so every abscissa is
evaluated exactly once.  A walk ends at the end of its table or at the
first node that rounds onto its origin, whose true contribution is
below double resolution, and each side ends on its own.  A term is dead
below 1e-20 of the partial sum of the current level's own new nodes
(never of the carried total, which would stop a walk before it reaches
a peak far from the center).  On every level, level 0 included, a side
stops at its first dead term beyond its reach, the largest k*h of a
live term it has met so far, on any level, the current one included,
even below k*h = ``_MIN_TRUNC_T``.  A side that has met no live term
yet stops only after more than ``_CONSEC_DEAD`` consecutive dead terms,
and not before k*h = ``_MIN_TRUNC_T``: an integrand that is exactly 0
near the center (an underflow guard, a compact support) must not end
its walk there.  Skipping a dead term cannot change the sum (it is
below half an ulp of a partial sum above 1e-300), but stopping at it
gives up whatever lies past it on the side's walk: a second mass region
beyond a dead node is not integrated, whether on the same level or at a
finer one between dead nodes of a coarser one.  The rule trusts that
the mass sits where the decay rate puts the nodes; against a level 0
that ran 11 dead nodes past its live ones, it changed no value or error
estimate on 5,895 walks (the benchmark's ``quad_points`` seeds 11-15
and frozen points) and took 16% fewer exp-sinh and 3% fewer tanh-sinh
evaluations.

The node tables hold everything at a node that depends only on k*h, so
a walk only places the node, evaluates the integrand and weights it,
all in the refinement loop itself: a node costs no Python call but the
integrand.  A level is built lazily, a chunk of ``_CHUNK`` rows at a
time, as far as some walk has gone and never to the representable range
(the right exp-sinh side would run to s = 690).  The chunks are one
``functools.cache``, :func:`_chunk`, keyed on the table itself, and
``_chunk.cache_info()`` shows how many the process keeps.  A row takes
about 160 bytes and is kept for the life of the process, and nothing
bounds the cache: a walk over 100,000 nodes leaves about 16 MB of table
behind.

The step is halved, within 13 levels (semi-infinite) or 12 (finite), until
d_k, the change between two levels and the error estimate, is below
``tol`` relative.  The convergence being quadratic, from level 2 on a walk
also stops on the next change it predicts, d_k^2/d_{k-1} <= tol/10, and
reports it, where d_{k-1}^2.5 <= d_k <= d_{k-1}^1.8 (relative) and d_{k-1}
fell: a steeper fall or a rise is a coarse level that landed near another
by chance.  The changes it reads, d_{k-1} and d_{k-2}, must also be at
most ``_SETTLED`` = 5% of the value: a level that moved the value more
had not yet resolved the integrand, and orders read across it mislead
(a theta integral whose changes fell from 10% with orders 2.37 and 2.40
fell with order 1.33 next, and the prediction hid an error of 1.4 tol).
Exp-sinh at decay rate 0 converges algebraically and never stops so.
A :class:`ConvergenceError` lists the change at every level.
The engines take no prefactor: an integrand carries its own, so a result
and an error's numbers are in the integral's units.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, count
from typing import Callable, NamedTuple

from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureResult",
    "clamp_tol",
    "integrate_semi_infinite",
    "integrate_finite",
]

_TINY = 1e-300
# relative size below which trapezoid terms are considered dead
_TERM_CUTOFF = 1e-20
# the floor of the dead-term test, _TERM_CUTOFF * _TINY, precomputed
_DEAD_FLOOR = _TERM_CUTOFF * _TINY
_CONSEC_DEAD = 10
# the consecutive-dead rule, that of a side with no live term yet, is only
# trusted beyond this distance in the transformed variable; integrands that
# are exactly zero near the start of the node walk (underflow guards, compact
# support) must not stop it
_MIN_TRUNC_T = 3.0
_MAX_STEPS_PER_SIDE = 2_000_000
_CHUNK = 16
_TOL_MIN, _TOL_MAX = 1e-14, 1e-2  # the tolerances the engines accept
_SEMI_INFINITE_LEVELS, _FINITE_LEVELS = 13, 12  # refinement levels at most
_PIOV2 = 0.5 * math.pi
_PREDICT_MARGIN, _MIN_ORDER, _MAX_ORDER = 0.1, 1.8, 2.5  # the early stop's bounds
# the largest relative change the early stop reads: a level that moves the value
# more has not yet resolved the integrand, and orders measured across it mislead
_SETTLED = 0.05


class QuadratureResult(NamedTuple):
    """Value of an integral together with convergence metadata."""

    value: float
    error_estimate: float
    evaluations: int


def _check_tol(tol: float) -> None:
    if not _TOL_MIN <= tol <= _TOL_MAX:
        raise DomainError(f"tol must lie in [1e-14, 1e-2], got {tol}")


def clamp_tol(tol: float) -> tuple[float, str]:
    """``tol`` moved into the engines' range [1e-14, 1e-2], with a note
    saying so ("" where it was already inside)."""
    used = min(max(tol, _TOL_MIN), _TOL_MAX)
    return used, "" if used == tol else f"quadrature tol clamped to {used!r}"


class _NodeTable:
    """Rows (k*h, a, w) of the walks of a DE rule, per refinement level,
    in walk order; a side places the node at origin + scale*a and weights
    f there by w.

    Level L holds the nodes k*h with h = step/2^L, for k = 1, 2, 3, ...
    at level 0 and the odd k after; ``center`` is the row at k*h = 0.
    ``row`` maps k*h to its row, or to None past the representable
    range, which ends the level.
    """

    def __init__(self, step: float, row: Callable[[float], tuple | None]):
        self.step = step
        self.center = row(0.0)
        self.row = row

    def rows(self, level: int):
        """Iterator over the rows of ``level``, built as it is consumed."""
        return chain.from_iterable(self._chunks(level))

    def _chunks(self, level: int):
        """The chunks of ``level`` up to the first short one, which ends it."""
        for i in count():
            chunk = _chunk(self, level, i)
            yield chunk
            if len(chunk) < _CHUNK:
                return


@functools.cache
def _chunk(table: _NodeTable, level: int, i: int) -> tuple:
    """Chunk ``i`` of ``level`` of ``table``: its rows ``i*_CHUNK`` on, at
    most ``_CHUNK`` of them, fewer where the level ends.  A chunk is built once
    per process, when a walk first reaches it, and depends on nothing but its
    arguments, so a walk stays valid while a nested integral (an integrand that
    integrates) or another thread builds chunks of the same level."""
    h = table.step * 0.5**level
    dk = 1 if level == 0 else 2
    first = 1 + i * _CHUNK * dk
    chunk = []
    for k in range(first, min(first + _CHUNK * dk, _MAX_STEPS_PER_SIDE), dk):
        row = table.row(k * h)
        if row is None:
            break
        chunk.append(row)
    return tuple(chunk)


def _exp_sinh_row(sgn: float) -> Callable[[float], tuple | None]:
    """Rows (k*h, u, u*(1 + e^{-s})), u = exp(s - e^{-s}), at s = sgn*k*h."""
    def row(k_h: float) -> tuple | None:
        s = sgn * k_h
        es = math.exp(-s)
        arg = s - es
        if arg > 690.0:
            return None
        u = math.exp(arg)
        # u == 0 puts every node of the walk on to its origin
        return (k_h, u, u * (1.0 + es)) if u > 0.0 else None
    return row


def _tanh_sinh_row(k_h: float) -> tuple | None:
    """Rows (k*h, 1 - tanh u, (pi/2)*cosh(k*h)*sech^2(u)), u = (pi/2)*sinh(k*h),
    with 1 - tanh u, the nodes' distance from an endpoint in half-widths,
    formed as 2/(1 + exp(2u))."""
    u = _PIOV2 * math.sinh(k_h)
    if u > 350.0:
        return None
    sech = 2.0 * math.exp(-u) / (1.0 + math.exp(-2.0 * u))
    return (k_h, 2.0 / (1.0 + math.exp(2.0 * u)), _PIOV2 * math.cosh(k_h) * (sech * sech))


_EXP_SINH_RIGHT = _NodeTable(0.5, _exp_sinh_row(1.0))
_EXP_SINH_LEFT = _NodeTable(0.5, _exp_sinh_row(-1.0))
_TANH_SINH = _NodeTable(1.0, _tanh_sinh_row)


def _refine(f: Callable[[float], float], sides: tuple, levels: int, what: str,
            tol: float, quadratic: bool) -> QuadratureResult:
    """Nested trapezoid refinement of ``f`` over the ``sides`` of a DE rule
    (see the module docstring), within ``levels`` levels; ``what`` names
    the rule in a :class:`ConvergenceError`; ``quadratic`` allows the early stop."""
    table, origin, unit = sides[0]
    _, a, w = table.center
    x = origin + unit * a
    v = f(x)
    if v != v:
        raise ConvergenceError(f"integrand returned NaN at x={x!r}")
    center = v * w
    calls = 1
    cut, neg_cut, floor, tiny = _TERM_CUTOFF, -_TERM_CUTOFF, _DEAD_FLOOR, _TINY
    # per side, the largest k*h of a live term on any level so far, this one
    # included; while it is 0 (none yet) only the consecutive rule stops the walk
    reach = [0.0] * len(sides)
    h = table.step
    total = 0.0
    prev = math.nan
    diff = math.inf
    changes = []
    for level in range(levels):
        # level 0 takes every k; later levels only the odd k, new at this h
        new = center if level == 0 else 0.0
        for i, (table, origin, scale) in enumerate(sides):
            far = reach[i]
            # a side sums its own terms, which rounds them less than the level's sum
            part, dead = 0.0, 0
            for t, a, w in table.rows(level):
                x = origin + scale * a
                if x == origin:
                    break
                calls += 1
                v = f(x)
                term = v * w
                part += term
                # abs(term) <= cut * max(abs(s), _TINY), s the level's partial
                # sum, without the builtins; a nan term is never dead
                s = new + part
                if s >= tiny:
                    lim = s * cut
                elif s <= -tiny:
                    lim = s * neg_cut
                else:
                    lim = floor
                if term <= lim and -lim <= term:
                    dead += 1
                    if 0.0 < far < t or dead > _CONSEC_DEAD and t >= _MIN_TRUNC_T:
                        break
                else:
                    if v != v:
                        raise ConvergenceError(f"integrand returned NaN at x={x!r}")
                    dead = 0
                    if t > far:
                        far = t
            new += part
            reach[i] = far
        total += new
        value = total * h * unit
        if level:
            diff = abs(value - prev)
            mag = max(abs(value), _TINY)
            if diff <= tol * mag:
                return QuadratureResult(value, diff, calls)
            # nan: no prediction before level 2, after a change that rose or from
            # a change above _SETTLED; changes[-2:][0] is d_{k-2}, or d_{k-1} at
            # level 2, and d_{k-1} is below it where it fell
            fell = quadratic and changes and changes[-2:][0][1] <= _SETTLED * mag and (
                len(changes) < 2 or changes[-1][1] < changes[-2][1])
            predicted = diff * (diff / changes[-1][1]) if fell else math.nan
            if predicted <= _PREDICT_MARGIN * tol * mag:
                last = math.log(changes[-1][1] / mag)  # orders in logs cannot overflow
                if _MAX_ORDER * last <= math.log(diff / mag) <= _MIN_ORDER * last:
                    return QuadratureResult(value, predicted, calls)
            changes.append((h, diff))
        prev = value
        h *= 0.5
    levels = ", ".join(f"h={h!r} {d:.3e}" for h, d in changes) or "none"
    raise ConvergenceError(
        f"{what} did not reach tol={tol} (best estimate {prev!r}, last refinement "
        f"change {diff:.3e}); changes between successive levels: {levels}",
        partial=QuadratureResult(prev, diff, calls))


def integrate_semi_infinite(f: Callable[[float], float], decay_rate: float,
                            tol: float = 1e-10, body: float = math.inf) -> QuadratureResult:
    """Integrate ``f`` over (0, inf).

    The substitution t = c*exp(s - exp(-s)) turns both the origin singularity
    and the exponential tail into double-exponentially decaying contributions
    of the trapezoid sum in s; ``decay_rate`` 0 selects the algebraic tail (like
    t^{-3/2}), which converges more slowly but remains integrable.  The walk is
    centred at c = min(1/decay_rate, body), kept in [1e-150, 1e4].  ``body``
    is the t up to which the caller knows the integrand's mass to sit; the
    default inf leaves c = 1/decay_rate, which lies out in the tail where
    the decay rate is small (the clamp 1e4 at decay rate 0).  The step is
    halved until two levels agree to ``tol`` relative or, where
    ``decay_rate`` > 0, the quadratic convergence puts the next change below
    it.  A prefactor belongs in ``f``, best in its exponent: nothing scales
    the result.  The walk ends at t = c e^690: a tail t^-p heavier than about t^-1.053
    loses the (c e^690)^{1-p}/(p-1) past it, unseen by the error estimate.
    """
    _check_tol(tol)
    if not decay_rate >= 0.0:
        raise DomainError(f"decay rate must be >= 0, got {decay_rate}")
    if not body > 0.0:
        raise DomainError(f"body must be > 0, got {body}")
    # up to decay_rate 1e150 c puts the nodes where the mass is; past it (inf where x - y
    # passes 1.3e154) the library's integrands are 0 at every node, the walk reaches
    # 1e-109 c, and c = 1e-150 keeps those nodes normal; 1/decay_rate is at most 1e4,
    # so no body moves c past that clamp
    c = max(min(1.0 / max(decay_rate, 1e-4), body), 1e-150)
    return _refine(f, ((_EXP_SINH_RIGHT, 0.0, c), (_EXP_SINH_LEFT, 0.0, c)),
                   _SEMI_INFINITE_LEVELS, "semi-infinite quadrature", tol, decay_rate > 0.0)


def integrate_finite(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Integrate ``f`` over [lo, hi] with the tanh-sinh rule.

    Nodes cluster double-exponentially at both endpoints.  Node positions
    near an endpoint are computed as the endpoint plus/minus an exactly
    evaluated small distance, so an integrable power-law singularity is
    resolved where that endpoint is 0: there a node is its distance, exact
    down to the smallest double.  At a nonzero endpoint the nodes within a
    few ulps of it round onto the same floats, and the part of the integral
    they miss does not show in the error estimate:
    ``integrate_finite(lambda x: (3 - x)**-0.5, 1, 3, 1e-10)`` is off by
    3.1e-8 against an estimate of 2.7e-10, after 12,957 evaluations, and
    (x - 1)**-0.5 on [1, 3] by 2.2e-8 against 9.6e-11.  No
    :class:`ConvergenceError` is promised there.  Every integrand the
    library integrates is singular, if at all, only at 0.
    """
    _check_tol(tol)
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    half = 0.5 * (hi - lo)
    return _refine(f, ((_TANH_SINH, lo, half), (_TANH_SINH, hi, -half)),
                   _FINITE_LEVELS, f"tanh-sinh quadrature on [{lo}, {hi}]", tol, True)
