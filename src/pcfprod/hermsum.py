"""Scaled Hermite polynomials and the Abel-weighted bilinear Hermite summer.

This module owns the orthonormally scaled polynomials
h_n(x) = H_n(x)/sqrt(2^n n!), which stay in floating range for any n
(the raw H_n overflow near n ~ 300) and obey

    h_{n+1}(x) = x*sqrt(2/(n+1))*h_n(x) - sqrt(n/(n+1))*h_{n-1}(x).

No other module runs this recurrence: :func:`scaled_hermite` gives one
h_n(x) by a scalar loop, cheaper than a numpy call for single-index
callers, and :func:`scaled_hermite_products` the products h_n(X) h_n(Y)
of a whole index range, for the series.  numpy is imported on the first
series call, so a caller of :func:`scaled_hermite` alone never loads it.

The series B(X, Y, s) = sum_{n>=0} h_n(X) h_n(Y)/(n+s) has terms that
decay only like n^{-3/2}.  Mehler's kernel K(v) = sum_n h_n(X) h_n(Y) v^n
= (1-v^2)^{-1/2} exp[(2XYv - (X^2+Y^2)v^2)/(1-v^2)] gives
B = int_0^1 v^{s-1} K(v) dv, and the Abel weights u^{n+s} stop that
integral at u:

    B_u = sum_n h_n(X) h_n(Y) u^{n+s}/(n+s),   B - B_u = int_u^1 v^{s-1} K(v) dv.

For X != Y, K(v) ~ exp(-(X-Y)^2/(2(1-v))) as v -> 1, so a u a little
below 1 leaves an error far below tol, and the weights cut the sum off
after about ln(1/tol)/(1-u) terms.  :func:`bilinear_hermite_sum` takes
the first u of a ladder whose error integral, from the closed form, is
below tol/4 times a lower bound on |B| (for s <= 0 the terms n < -s can
cancel B, so it aims at the rounding level instead), computes enough
products once for Cramer's inequality |h_n(x)| <= 1.0865 e^{x^2/2} to
bound the dropped terms by tol/8 of it, and returns B_u as one dot
product.  ``tail_bound`` is the error integral plus that bound plus a
rounding allowance sqrt(N)*eps*sum|weighted terms|, at least three times
the rounding error measured in sums of 80 to 20,000 terms at
|X|, |Y| <= 6 (N*eps*sum was up to 2*10^5 times it).  The closed form
only chooses u and bounds the error: the value comes from the products
alone, so comparing it with a closed form (EQ15, EQ8_EQ9, the
series-vs-quadrature check) still tests two independent routes, with
no ``pcf_d`` or quadrature inside.  At X = Y the error integral falls
only like sqrt(1-u): no u within the cap of 2^19 products reaches a
useful tol, and the sum raises :class:`ConvergenceError` after one pass.
Callers want a prefactor times B, given as ``factor``: it multiplies the
value, ``tail_bound`` and an error's partial and numbers, never u, the
term count or the stopping test.

The recurrence is run blocked rather than term by term (the classical
splitting of a linear recurrence, Kogge & Stone 1973).  The ``count``
indices are cut into about sqrt(count) blocks.  Inside every block two
fundamental solutions, started from the unit vectors (h_{s-1}, h_s) =
(1, 0) and (0, 1) at the block start s, are advanced together: one
numpy step per offset covers all blocks, at X and at Y.  A short loop
over Python floats then chains the true block starts through each
block's end values, and h_n = h_{s-1}*P_n + h_s*Q_n fills the block.
Forward recurrence is stable here because h_n is the dominant solution
where it grows and an oscillatory one beyond its turning point
(Gautschi, SIAM Review 1967).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConvergenceError, DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SeriesResult", "scaled_hermite", "scaled_hermite_products",
           "bilinear_hermite_sum"]

_MAX_PRODUCTS = 524_288  # 2^19
_LOG_CRAMER_SQ = 2.0 * math.log(1.086435)  # |h_n(X) h_n(Y)| <= e^this e^{(X^2+Y^2)/2}
_EPS = 2.0 ** -52
_TINY = 1e-300


@functools.cache
def _rules() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ladder of weights 1 - u and the Gauss-Legendre nodes and weights
    of :func:`_tails`, built on the first series call."""
    import numpy as np
    # candidate weights 1 - u = 2^{-1-k/2}, each needing about sqrt(2) times the terms of
    # the last; at tol 1e-6 and below the 34th needs more than the cap
    ladder = 0.5 * 2.0 ** (-0.5 * np.arange(34))
    # 12-point Gauss-Legendre rule on [-1/2, 1/2] from its Jacobi matrix (Golub & Welsch 1969)
    t, v = np.linalg.eigh(
        np.diag([k / math.sqrt(4.0 * k * k - 1.0) for k in range(1, 12)], 1), UPLO="U")
    return ladder, 0.5 * t, v[0] ** 2


@dataclass(frozen=True)
class SeriesResult:
    """A truncated series' value; ``tail_bound`` bounds its absolute error
    (of truncation, and for :func:`bilinear_hermite_sum` of rounding too)."""

    value: float
    terms_used: int
    tail_bound: float


def scaled_hermite(n: int, x: float) -> float:
    """h_n(x) = H_n(x)/sqrt(2^n n!) for one degree n, by the scalar recurrence.

    The loop runs n steps, so n is capped at 2^19, the series' own cap on
    the products it computes; a larger degree raises :class:`DomainError`.
    """
    if not n >= 0 or n % 1:
        raise DomainError(f"Hermite degree must be a nonnegative integer, got {n}")
    if n > _MAX_PRODUCTS:
        raise DomainError(f"Hermite degree must be at most 2^19 = {_MAX_PRODUCTS}, got {n}")
    if not math.isfinite(x):
        raise DomainError(f"Hermite argument must be finite, got x={x}")
    prev, h = 0.0, 1.0
    for k in range(int(n)):
        prev, h = h, x * math.sqrt(2.0 / (k + 1)) * h - math.sqrt(k / (k + 1.0)) * prev
    return h


def _chain(ends: list[list[float]]) -> list[list[float]]:
    """True (h_{s-1}, h_s) at every block start, from (h_{-1}, h_0) = (0, 1).

    ``ends`` lists, per block, (P, Q) at the block's last offset and at
    the next block's start, as [P_last, Q_last, P_next, Q_next] rows.
    """
    a, b = 0.0, 1.0
    alpha, beta = [a], [b]
    for p1, q1, p2, q2 in zip(*ends):
        a, b = a * p1 + b * q1, a * p2 + b * q2
        alpha.append(a)
        beta.append(b)
    return [alpha, beta]


def scaled_hermite_products(X: float, Y: float, count: int) -> np.ndarray:
    """Array of h_n(X)*h_n(Y) for n = 0 .. count-1."""
    import numpy as np
    size = math.isqrt(count - 1) + 1  # ceil(sqrt(count))
    blocks = -(-count // size)
    # coefficients of the step from offset j to j + 1, laid out (offset, block)
    n = np.arange(size, dtype=np.float64)[:, None] + size * np.arange(blocks, dtype=np.float64)
    a = np.sqrt(2.0 / (n + 1.0))
    b = np.sqrt(n / (n + 1.0))
    xy = np.array([X, X, Y, Y])[:, None]
    # sol[j + 1] = rows P(X), Q(X), P(Y), Q(Y) at offset j of every block
    sol = np.empty((size + 2, 4, blocks))
    sol[0] = np.array([1.0, 0.0, 1.0, 0.0])[:, None]
    sol[1] = np.array([0.0, 1.0, 0.0, 1.0])[:, None]
    step = np.empty((4, blocks))
    for j in range(size):
        np.multiply(xy, a[j], out=step)
        step *= sol[j + 1]
        np.multiply(b[j], sol[j], out=sol[j + 2])
        np.subtract(step, sol[j + 2], out=sol[j + 2])

    # true (h_{s-1}, h_s) of every block, then h at offsets 0 .. size-1
    ends = sol[size:, :, :-1]
    ax, bx = map(np.array, _chain(ends[:, 0:2].reshape(4, blocks - 1).tolist()))
    ay, by = map(np.array, _chain(ends[:, 2:4].reshape(4, blocks - 1).tolist()))
    body = sol[1:size + 1]
    products = (body[:, 0] * ax + body[:, 1] * bx) * (body[:, 2] * ay + body[:, 3] * by)
    return products.T.reshape(-1)[:count]


def _tails(X: float, Y: float, shift: float) -> np.ndarray:
    """int_u^1 v^{s-1} K(v) dv at every ladder weight u, from the closed form.

    Gauss-Legendre panels in w = sqrt(1-v), between successive ladder
    points and from the last to 0; the exponent of K is written in w,
    free of the cancellation of the v form near v = 1.
    """
    import numpy as np
    ladder, gl_t, gl_w = _rules()
    edges = np.append(np.sqrt(ladder), 0.0)
    width = edges[:-1] - edges[1:]
    w = 0.5 * (edges[:-1] + edges[1:])[:, None] + width[:, None] * gl_t
    v = 1.0 - w * w
    expo = -v * ((X - Y) ** 2 - (X * X + Y * Y) * w * w) / (w * w * (2.0 - w * w))
    f = 2.0 * np.exp((shift - 1.0) * np.log(v) + expo) / np.sqrt(2.0 - w * w)
    return np.cumsum((f @ gl_w * width)[::-1])[::-1]


def bilinear_hermite_sum(X: float, Y: float, shift: float, tol: float,
                         factor: float = 1.0) -> SeriesResult:
    """``factor`` (> 0) times sum_{n>=0} h_n(X)h_n(Y)/(n+shift), to relative ``tol``.

    X, Y and ``shift`` must be finite and ``tol`` positive, and ``shift``
    must not be zero or a negative integer (series poles).
    Returns ``factor`` times the Abel-weighted sum B_u of ``terms_used``
    products, with ``tail_bound`` bounding its error.  When the bound
    exceeds tol*|B_u|, raises :class:`ConvergenceError` with that partial
    result, its message in the same units, listing each candidate u with
    its closed-form tail.
    """
    if not (math.isfinite(X) and math.isfinite(Y) and math.isfinite(shift) and tol > 0.0):
        raise DomainError(f"bilinear Hermite sum needs finite X, Y and shift and tol > 0, "
                          f"got X={X}, Y={Y}, shift={shift}, tol={tol}")
    if shift == round(shift) and shift <= 0.0:
        raise DomainError(f"shift {shift} sits on a pole of the series")

    import numpy as np
    ladder = _rules()[0]
    tails = _tails(X, Y, shift)
    if shift > 0.0:
        # v^{s-1} K(v) > 0, and on [0, 1/2] K >= min(K(0), K(1/2)) as its
        # exponent is concave in v, so this is at most B
        low = min(0.0, (X * Y - 0.25 * (X * X + Y * Y)) / 0.75)
        target = tol * max(tails[0] + 0.5 ** shift / shift * math.exp(low), _TINY)
    else:
        # the terms n < -s can cancel B down to the rounding level of its
        # terms, so aim the tail and the dropped terms at that level
        target = _EPS * max(tails[0], _TINY)
    # the dropped terms are at most e^{log_amp} u^{N+s}/((N+s)(1-u)); the
    # least N+s = x holding that below target/8 solves x ln(1/u) + ln x = drop,
    # and x -> (drop - ln x)/ln(1/u) maps a point above it below, then just above
    log_amp = 0.5 * (X * X + Y * Y) + _LOG_CRAMER_SQ
    drop, rate = log_amp - np.log(target / 8.0 * ladder), -np.log1p(-ladder)
    x = np.maximum((drop - np.log(np.maximum(drop, 1.0) / rate)) / rate, 1.0)
    counts = np.maximum(np.ceil((drop - np.log(x)) / rate - shift), math.floor(-shift) + 2)
    # the first candidate whose tail is below target/4, or the last within the cap
    reachable = int(np.searchsorted(counts, _MAX_PRODUCTS, side="right"))
    k = max(min(int(np.searchsorted(-tails, -0.25 * target)), reachable - 1), 0)
    count, log_u = min(int(counts[k]), _MAX_PRODUCTS), float(-rate[k])

    exponent = np.arange(count, dtype=np.float64) + shift
    weighted = scaled_hermite_products(X, Y, count) / exponent * np.exp(exponent * log_u)
    value = float(np.sum(weighted))
    dropped = math.exp(log_amp + (count + shift) * log_u) / ((count + shift) * ladder[k])
    rounding = math.sqrt(count) * _EPS * float(np.sum(np.abs(weighted)))
    bound = float(tails[k] + dropped + rounding)
    if bound <= tol * abs(value):
        return SeriesResult(factor * value, count, factor * bound)
    tails *= factor
    tried = ", ".join(f"1-u={ladder[j]:.4g} tail {tails[j]:.2e}" for j in range(k + 1))
    raise ConvergenceError(
        f"bilinear Hermite sum missed tol={tol} at {count} terms (X={X}, Y={Y}, shift={shift}): "
        f"bound {factor * bound:.3e} = tail {tails[k]:.3e} + dropped {factor * dropped:.3e} "
        f"+ rounding {factor * rounding:.3e} > tol*|value| {tol * abs(factor * value):.3e}; "
        f"candidates: {tried}",
        partial=SeriesResult(factor * value, count, factor * bound))
