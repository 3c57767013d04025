"""Mehler's bilinear generating function and the Hermite series built on it.

Three series live here:

* the Mehler kernel itself, with its closed exponential form as oracle;
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
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .hermsum import bilinear_series, scaled_hermite_products
from .specfun import SeriesResult

__all__ = [
    "MehlerPoint",
    "SumRuleQuery",
    "mehler_kernel_closed",
    "mehler_kernel_series",
    "series_for_I",
    "sum_rule_lhs",
    "sum_rule_term_decay_exponent",
]

_SERIES_U_LIMIT = 0.95
_KERNEL_MAX_TERMS = 5000


@dataclass(frozen=True)
class MehlerPoint:
    """Arguments (X, Y, u) of the Mehler kernel; requires |u| < 1."""

    X: float
    Y: float
    u: float

    def __post_init__(self):
        if not abs(self.u) < 1.0:
            raise DomainError(f"Mehler kernel requires |u| < 1, got u={self.u}")


@dataclass(frozen=True)
class SumRuleQuery:
    """Parameters (nu, x, y) of the product sum rule; requires x > y, nu > 0.

    Negative y is admitted; only the ordering x > y matters.
    """

    nu: float
    x: float
    y: float

    def __post_init__(self):
        if not self.nu > 0.0:
            raise DomainError(f"sum rule requires nu > 0, got {self.nu}")
        if not self.x > self.y:
            raise DomainError(f"sum rule requires x > y, got x={self.x}, y={self.y}")


def mehler_kernel_closed(p: MehlerPoint) -> float:
    """exp[(2XYu - (X^2+Y^2)u^2) / (1-u^2)]."""
    one_minus = (1.0 - p.u) * (1.0 + p.u)
    expo = (2.0 * p.X * p.Y * p.u - (p.X * p.X + p.Y * p.Y) * p.u * p.u) / one_minus
    return math.exp(expo)


def mehler_kernel_series(p: MehlerPoint, tol: float = 1e-12) -> SeriesResult:
    """sqrt(1-u^2) * sum_n H_n(X)H_n(Y) u^n / (2^n n!), summed directly.

    Convergence is geometric in |u|; the practical domain is
    |u| <= 0.95.  The tail bound uses the running amplitude of the
    scaled bilinear terms against the geometric envelope u^n/(1-u).
    """
    if abs(p.u) > _SERIES_U_LIMIT:
        raise DomainError(
            f"series form needs |u| <= {_SERIES_U_LIMIT} in double precision, got {p.u}"
        )
    root = math.sqrt((1.0 - p.u) * (1.0 + p.u))
    absu = abs(p.u)

    h0x, h0y = 1.0, 1.0
    total = 1.0  # n = 0 term
    if p.u == 0.0:
        return SeriesResult(root * total, 1, 0.0)
    h1x = p.X * math.sqrt(2.0)
    h1y = p.Y * math.sqrt(2.0)
    upow = p.u
    total += h1x * h1y * upow
    amp = max(1.0, abs(h1x * h1y))
    for n in range(1, _KERNEL_MAX_TERMS):
        c1 = math.sqrt(2.0 / (n + 1))
        c2 = math.sqrt(n / (n + 1.0))
        h2x = p.X * c1 * h1x - c2 * h0x
        h2y = p.Y * c1 * h1y - c2 * h0y
        upow *= p.u
        total += h2x * h2y * upow
        amp = max(abs(h2x * h2y), 0.9 * amp)  # slowly forgetting running envelope
        tail = amp * absu ** (n + 2) / (1.0 - absu)
        if tail < tol * (1.0 + abs(total)):
            return SeriesResult(root * total, n + 2, root * tail)
        h0x, h1x = h1x, h2x
        h0y, h1y = h1y, h2y
    raise ConvergenceError(
        f"Mehler series did not converge within {_KERNEL_MAX_TERMS} terms at u={p.u}",
        partial=SeriesResult(root * total, _KERNEL_MAX_TERMS, math.nan),
    )


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
    return bilinear_series(2.0, X, Y, 2.0 * nu, 0.5 * tol)


def sum_rule_lhs(q: SumRuleQuery, tol: float = 5e-7) -> SeriesResult:
    """sum_n D_n(x)D_n(y)/(n!(n+nu)), summed in scaled form.

    With D_n(x) = 2^{-n/2} e^{-x^2/4} H_n(x/sqrt2) the terms reduce to
    e^{-(x^2+y^2)/4} h_n(x/sqrt2) h_n(y/sqrt2)/(n+nu).
    """
    pref = math.exp(-0.25 * (q.x * q.x + q.y * q.y))
    rt2 = math.sqrt(2.0)
    return bilinear_series(pref, q.x / rt2, q.y / rt2, q.nu, 0.5 * tol)


def sum_rule_term_decay_exponent(
    q: SumRuleQuery, n_lo: int = 100, n_hi: int = 20000, bins: int = 20
) -> float:
    """Empirical decay exponent p of the term envelope |t_n| ~ n^{-p}.

    Fits a log-log line through the per-bin maxima of the absolute
    sum-rule terms (binned logarithmically over [n_lo, n_hi]), which
    tracks the envelope rather than the oscillating terms themselves.
    """
    rt2 = math.sqrt(2.0)
    prods = scaled_hermite_products(q.x / rt2, q.y / rt2, n_hi)
    n = np.arange(n_hi, dtype=np.float64)
    t = np.abs(prods / (n + q.nu))
    edges = np.unique(np.geomspace(n_lo, n_hi - 1, bins + 1).astype(int))
    centers, peaks = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        block = t[a:b]
        if block.size == 0:
            continue
        peaks.append(block.max())
        centers.append(math.sqrt(a * b))
    slope = np.polyfit(np.log(centers), np.log(peaks), 1)[0]
    return -float(slope)
