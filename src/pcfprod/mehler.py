"""Mehler's bilinear generating function and the Hermite series built on it.

Three series live here:

* the Mehler kernel itself, summed to a Cramer bound on its geometric
  tail, with its closed exponential form as oracle;
* the Laplace-transform value I(nu, X, Y) = 2*sum H_n(X)H_n(Y)/(2^n n! (2nu+n)),
  obtained from the kernel by a term-by-term u-integration;
* the product sum rule sum_n D_n(x)D_n(y)/(n!(n+nu)) = Gamma(nu) D_{-nu}(x) D_{-nu}(-y),
  valid for x > y.

The last two have algebraically decaying oscillatory terms and are summed
with Abel weights u^n by :mod:`pcfprod.hermsum`, whose error the closed
kernel bounds.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConvergenceError, DomainError, checked
from .hermsum import (_EPS, _LOG_CRAMER_SQ, _MAX_PRODUCTS, SeriesResult, bilinear_hermite_sum,
                      scaled_hermite_products)

__all__ = [
    "MehlerPoint",
    "SumRuleQuery",
    "mehler_kernel_closed",
    "mehler_kernel_series",
    "series_for_I",
    "sum_rule_lhs",
    "sum_rule_term_decay_exponent",
]

_DECAY_FIT = (100, 20000, 20)  # n_lo, n_hi and the log-spaced bins between them


@checked
class MehlerPoint(NamedTuple):
    """Arguments (X, Y, u) of the Mehler kernel; requires finite X, Y and |u| < 1."""

    X: float
    Y: float
    u: float

    def _check(self):
        if not (math.isfinite(self.X) and math.isfinite(self.Y)):
            raise DomainError(f"Mehler kernel requires finite X, Y, got X={self.X}, Y={self.Y}")
        if not abs(self.u) < 1.0:
            raise DomainError(f"Mehler kernel requires |u| < 1, got u={self.u}")


@checked
class SumRuleQuery(NamedTuple):
    """Parameters (nu, x, y) of the product sum rule; requires x > y, nu > 0.

    Negative y is admitted; only the ordering x > y matters.
    """

    nu: float
    x: float
    y: float

    def _check(self):
        if not self.nu > 0.0:
            raise DomainError(f"sum rule requires nu > 0, got {self.nu}")
        if not self.x > self.y:
            raise DomainError(f"sum rule requires x > y, got x={self.x}, y={self.y}")


def mehler_kernel_closed(p: MehlerPoint) -> float:
    """exp[(2XYu - (X^2+Y^2)u^2) / (1-u^2)]; :class:`DomainError` if it overflows.

    The exponent is formed as 2u[m^2/(1+u) - d^2/(1-u)], m = X/2 + Y/2 and
    d = X/2 - Y/2, two terms of one sign, with m and d scaled by a power of
    two s into (-2, 2) and s^2 applied last: no square overflows, so the
    exponent is a number or an infinity, never nan, for any finite X, Y.
    """
    m, d = 0.5 * p.X + 0.5 * p.Y, 0.5 * p.X - 0.5 * p.Y
    s = math.ldexp(1.0, math.frexp(max(abs(m), abs(d)))[1] - 1)
    m, d = m / s, d / s
    expo = 2.0 * p.u * (m * m / (1.0 + p.u) - d * d / (1.0 - p.u)) * s * s
    try:
        return math.exp(min(expo, 710.0))  # exp(inf) is inf, exp(710) raises
    except OverflowError:
        raise DomainError(f"Mehler kernel overflows at X={p.X}, Y={p.Y}, u={p.u}") from None


def mehler_kernel_series(p: MehlerPoint, tol: float = 1e-12) -> SeriesResult:
    """sqrt(1-u^2) * sum_n h_n(X) h_n(Y) u^n, with h_n = H_n/sqrt(2^n n!), for |u| < 1.

    By Cramer's inequality
    |h_n(X) h_n(Y)| <= 1.0865^2 e^{(X^2+Y^2)/2}, the terms from n = N on add
    at most that times sqrt(1-u^2)|u|^N/(1-|u|): the least N that holds
    this below ``tol`` is fixed first, then the sum is one
    :func:`scaled_hermite_products` call dotted with the powers u^n.
    ``tail_bound`` is that truncation bound plus the rounding allowance
    sqrt(N)*eps*sum|terms| that :func:`bilinear_hermite_sum` carries too.
    The terms reach e^{(X^2+Y^2)/2} where the kernel may be exponentially
    small, so where the allowance alone exceeds tol*(1+|value|), the mixed
    rule EQ3 is judged by, it raises :class:`ConvergenceError` with the sum
    as partial; so it does where N exceeds the cap of 2^19 products or the
    sum is not finite (the terms overflow as X^2 + Y^2 nears 1400).  N
    grows like (ln(1/tol) + (X^2+Y^2)/2)/(1-|u|) as |u| -> 1: the cap and
    the allowance decide how near 1 the series reaches, and nothing else
    bounds u.  At u = 0 the sum is its one term, with no tail.

    Checked against 40-digit mpmath over 12,000 seeded points, half with
    |X|, |Y| <= 6 and half with |X|, |Y| <= 12, |u| <= 0.95 and tol in
    [1e-12, 1e-6], and over 1,200 with |X|, |Y| <= 6 and 0.95 < |u| < 0.9999
    (685 returned, 515 raised): no returned value was farther from the
    kernel K than tol*(1+|K|) or than ``tail_bound`` + 64 eps (1+|K|), and
    4 of 3,546 returned at |X|, |Y| <= 12 exceeded ``tail_bound`` alone.  The allowance is
    conservative: where it raises at tol 1e-12 on a grid with |X|, |Y| <= 3, the error is at
    most 0.05 of the bound (ROADMAP, "Error estimates that bound the error from both sides").
    """
    if not tol > 0.0:
        raise DomainError(f"Mehler series needs tol > 0, got {tol}")
    root = math.sqrt((1.0 - p.u) * (1.0 + p.u))
    log_amp = 0.5 * (p.X * p.X + p.Y * p.Y) + _LOG_CRAMER_SQ + math.log(root / (1.0 - abs(p.u)))
    # at u = 0, u^N is 0 for every N >= 1: one term and no tail, also where log_amp is inf
    log_u = math.log(abs(p.u)) if p.u else -math.inf
    need = (log_amp - math.log(tol)) / -log_u if p.u else 1.0
    # min(cap, nan) is the cap: a huge X or Y takes the capped pass and raises
    count = math.ceil(max(1.0, min(_MAX_PRODUCTS, need)))
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum raises below
        products, powers = scaled_hermite_products(p.X, p.Y, count), p.u ** np.arange(count)
        total = root * float(products @ powers)
        rounding = math.sqrt(count) * _EPS * root * float(np.abs(products) @ np.abs(powers))
    log_tail = log_amp + count * log_u if p.u else -math.inf
    tail = math.exp(log_tail) if log_tail < 709.0 else math.inf
    result = SeriesResult(total, count, tail + rounding)
    if not (need <= count and math.isfinite(total) and rounding <= tol * (1.0 + abs(total))):
        raise ConvergenceError(f"Mehler series at X={p.X}, Y={p.Y}, u={p.u}, tol={tol}: "
                               f"{count} terms ({need:.0f} needed) sum to {total}, with rounding "
                               f"{rounding:.3e} against tol*(1+|value|) "
                               f"{tol * (1.0 + abs(total)):.3e}", partial=result)
    return result


def series_for_I(nu: float, X: float, Y: float, tol: float = 1e-8) -> SeriesResult:
    """The u-integrated Mehler series 2*sum_n H_n(X)H_n(Y)/(2^n n!(2nu+n)).

    Equals the Laplace-transform integral with a = X^2+Y^2, b = 2XY.
    The terms needed grow like 1/(X-Y)^2 as X -> Y, mirroring the
    a -> b boundary of the integral form.  At X = Y, and where X-Y is too
    small to reach ``tol`` within 2^19 terms (below about 0.035 at tol
    1e-9), it raises :class:`ConvergenceError` with the capped partial sum.
    """
    if not nu > 0.0:
        raise DomainError(f"series_for_I requires nu > 0, got {nu}")
    return bilinear_hermite_sum(X, Y, 2.0 * nu, 0.5 * tol, factor=2.0)


def sum_rule_lhs(q: SumRuleQuery, tol: float = 5e-7) -> SeriesResult:
    """sum_n D_n(x)D_n(y)/(n!(n+nu)), summed in scaled form.

    With D_n(x) = 2^{-n/2} e^{-x^2/4} H_n(x/sqrt2) the terms reduce to
    e^{-(x^2+y^2)/4} h_n(x/sqrt2) h_n(y/sqrt2)/(n+nu).
    """
    pref = math.exp(-0.25 * (q.x * q.x + q.y * q.y))
    rt2 = math.sqrt(2.0)
    return bilinear_hermite_sum(q.x / rt2, q.y / rt2, q.nu, 0.5 * tol, factor=pref)


def sum_rule_term_decay_exponent(q: SumRuleQuery) -> float:
    """Empirical decay exponent p of the term envelope |t_n| ~ n^{-p}.

    Fits a log-log line through the per-bin maxima of the absolute
    sum-rule terms (binned logarithmically over n in [100, 20000]), which
    tracks the envelope rather than the oscillating terms themselves.
    """
    import numpy as np
    n_lo, n_hi, bins = _DECAY_FIT
    rt2 = math.sqrt(2.0)
    prods = scaled_hermite_products(q.x / rt2, q.y / rt2, n_hi)
    n = np.arange(n_hi, dtype=np.float64)
    t = np.abs(prods / (n + q.nu))
    edges = np.unique(np.geomspace(n_lo, n_hi - 1, bins + 1).astype(int))  # no empty bin
    peaks = [t[a:b].max() for a, b in zip(edges[:-1], edges[1:])]
    # the least-squares slope through the points (log of each bin's centre, log of its peak)
    x, y = np.log(np.sqrt(edges[:-1] * edges[1:])), np.log(peaks)
    x -= x.mean()
    return -float(x @ y / (x @ x))
