"""Scaled Hermite polynomials and the Abel-weighted bilinear Hermite summer.

This module owns the orthonormally scaled polynomials
h_n(x) = H_n(x)/sqrt(2^n n!), which stay in floating range for any n
(the raw H_n overflow near n ~ 300) and obey

    h_{n+1}(x) = x*sqrt(2/(n+1))*h_n(x) - sqrt(n/(n+1))*h_{n-1}(x).

No other module runs this recurrence: :func:`scaled_hermite_frexp` gives
one h_n(x) by a scalar loop, cheaper than a numpy call for single-index
callers, as a mantissa and a binary exponent, so that it is finite at
any finite x, and :func:`scaled_hermite_products` the products h_n(X) h_n(Y) of a whole
index range, for the series.  numpy is imported on the first series
call, so a caller of the scalar loop alone never loads it.

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
So does a sum of 0.0, as the tails may have underflowed with its terms;
past s = 1.5e12 they underflow at every node, a :class:`DomainError`.
Callers want a prefactor times B, given as ``factor``: it multiplies the
value, ``tail_bound`` and an error's partial and numbers, never u, the
term count or the stopping test.

The recurrence is run blocked rather than term by term (the classical
splitting of a linear recurrence, Kogge & Stone 1973).  Inside every
block two fundamental solutions, started from the unit vectors
(h_{s-1}, h_s) = (1, 0) and (0, 1) at the block start s, are advanced
together: one numpy step per offset covers all blocks, at X and at Y.
A short loop over Python floats then chains the true block starts
through each block's end values, and h_n = h_{s-1}*P_n + h_s*Q_n fills
the block.  Up to 2048 products the blocks are 16 wide.  As h_n then
depends only on the blocks up to its own, a shorter array is a prefix
of a longer one at the same (X, Y), bit for bit, and no value depends
on how many products an earlier call asked for.  Past 2048 the blocks
are ceil(sqrt(count)) wide, as blocks of 16 there take 1.6 times as
long at 20,000 products and 4 times at the cap, where the chain runs
once a block.  Forward recurrence is stable here because h_n is the
dominant solution where it grows and an oscillatory one beyond its
turning point (Gautschi, SIAM Review 1967).

Built once per process: the ladder and the tails' panel geometry (under
30 kB), and rows of the step coefficients, rebuilt to the longest grid
used so far (at most 2 x 725 x 724 doubles, 8.4 MB, for a capped pass).
The product arrays of up to 2048 terms at the last 4 pairs (X, Y) are
kept, read-only (at most 64 kB), because a verify grid walks its other
axes (u, nu, lambda) at each pair: a call no longer than a kept array
gets a slice of it, and a longer one computes and keeps its own.  Four
pairs are few enough that one ``verify all`` sweep reuses nothing of the
one before it.  The ladder and the kept arrays are ``functools`` caches,
:func:`_rules` and :func:`_memo` (whose ``cache_info()`` shows the pairs
kept).  The rows are one module global, rebuilt only for a longer grid: a
rule no ``functools`` cache gives without keeping every length.  A call
pays one exp over the 408 panel nodes, the ladder choice in scalar math,
one multiply for every x*sqrt(2/(n+1)), three in-place numpy steps per
offset and the weighted sum.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConvergenceError, DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SeriesResult", "scaled_hermite_frexp", "scaled_hermite_products",
           "bilinear_hermite_sum"]

_MAX_PRODUCTS = 524_288  # 2^19
_LOG_CRAMER_SQ = 2.0 * math.log(1.086435)  # |h_n(X) h_n(Y)| <= e^this e^{(X^2+Y^2)/2}
_EPS = 2.0 ** -52
_TINY = 1e-300
_STEPS = None  # the step coefficients of _blocked_products
# up to _FIXED_UP_TO products the blocks are _FIXED_WIDTH wide, and the arrays
# of the last _MEMO_PAIRS pairs (X, Y) are kept, at most 64 kB
_FIXED_WIDTH = 16
_FIXED_UP_TO = 2048
_MEMO_PAIRS = 4
# the scalar recurrence scales its pair down once it passes 2^_RESCALE
_RESCALE = 600


@functools.cache
def _rules() -> tuple[list[float], float, tuple[np.ndarray, ...]]:
    """The ladder of weights 1 - u, the largest shift and :func:`_tails`' panels."""
    import numpy as np
    # candidate weights 1 - u = 2^{-1-k/2}, each needing about sqrt(2) times the terms of
    # the last; at tol 1e-6 and below the 34th needs more than the cap
    ladder = 0.5 * 2.0 ** (-0.5 * np.arange(34))
    # 12-point Gauss-Legendre rule on [-1/2, 1/2] from its Jacobi matrix (Golub & Welsch 1969)
    t, vec = np.linalg.eigh(
        np.diag([k / math.sqrt(4.0 * k * k - 1.0) for k in range(1, 12)], 1), UPLO="U")
    # panels in w = sqrt(1-v) between successive ladder points and from the last to 0
    edges = np.append(np.sqrt(ladder), 0.0)
    width = edges[:-1] - edges[1:]
    w = 0.5 * (edges[:-1] + edges[1:])[:, None] + width[:, None] * (0.5 * t)
    v = 1.0 - w * w
    # past the largest shift v^{s-1} < e^{-700} at every node, the one nearest v = 1 too
    return ladder.tolist(), -700.0 / float(np.log(v).max()), (
        w, -v, w * w * (2.0 - w * w), np.log(v), np.sqrt(2.0 - w * w), vec[0] ** 2, width)


class SeriesResult(NamedTuple):
    """A truncated series' value; ``tail_bound`` bounds its absolute error,
    of truncation and of rounding."""

    value: float
    terms_used: int
    tail_bound: float


def scaled_hermite_frexp(n: int, x: float) -> tuple[float, int]:
    """h_n(x) = H_n(x)/sqrt(2^n n!) for one degree n, by the scalar recurrence,
    as ``math.frexp`` would split it: (mantissa, binary exponent).

    A step multiplies the pair (h_{k-1}, h_k) by at most sqrt(2)|x| + 1.  Once
    h_k passes 2^600 (less where |x| passes 2^419, so that the next step stays
    finite) the pair is scaled down by a power of two and the exponent kept, so
    the result is finite at any finite x; below that nothing is scaled.  The
    loop runs n steps, so n is capped at 2^19, the series' own cap on the
    products it computes; a larger degree raises :class:`DomainError`.
    """
    if not n >= 0 or n % 1:
        raise DomainError(f"Hermite degree must be a nonnegative integer, got {n}")
    if n > _MAX_PRODUCTS:
        raise DomainError(f"Hermite degree must be at most 2^19 = {_MAX_PRODUCTS}, got {n}")
    if not math.isfinite(x):
        raise DomainError(f"Hermite argument must be finite, got x={x}")
    if n == 0:
        return 0.5, 1
    lim = min(2.0**_RESCALE, 2.0**1019 / (0.75 * abs(x) + 0.5))
    top = min(0, math.frexp(lim)[1] - 1)  # a scaled h_k lies in [2^(top-1), 2^top)
    # (h_0, h_1) = (1, sqrt(2) x), each times 2^top
    prev, h, m = math.ldexp(1.0, top), math.sqrt(2.0) * math.ldexp(x, top), -top
    for k in range(1, int(n)):
        if not -lim <= h <= lim:
            e = math.frexp(h)[1] - top
            prev, h, m = math.ldexp(prev, -e), math.ldexp(h, -e), m + e
        prev, h = h, x * math.sqrt(2.0 / (k + 1)) * h - math.sqrt(k / (k + 1.0)) * prev
    frac, e = math.frexp(h)
    return frac, e + m


def _chain(last: list[list[float]], nxt: list[list[float]]) -> list[float]:
    """True (h_{s-1}(X), h_s(X), h_{s-1}(Y), h_s(Y)) at every block start s, one
    flat list (a flat list converts to an array twice as fast as tuples), from
    (h_{-1}, h_0) = (0, 1) and the rows P(X), Q(X), P(Y), Q(Y), over blocks, at
    each block's last offset (``last``) and at the next block's start (``nxt``)."""
    ax, bx, ay, by = 0.0, 1.0, 0.0, 1.0
    starts = [ax, bx, ay, by]
    for px, qx, py, qy, px2, qx2, py2, qy2 in zip(*last, *nxt):
        ax, bx = ax * px + bx * qx, ax * px2 + bx * qx2
        ay, by = ay * py + by * qy, ay * py2 + by * qy2
        starts += ax, bx, ay, by
    return starts


def scaled_hermite_products(X: float, Y: float, count: int) -> np.ndarray:
    """Read-only array of h_n(X)*h_n(Y) for n = 0 .. count-1.

    Up to ``_FIXED_UP_TO`` products the array is a prefix of any longer one
    at the same (X, Y), bit for bit, and is served from the arrays of the
    last ``_MEMO_PAIRS`` pairs (keyed on the bits of X and Y, so -0.0 is not
    0.0) where one is long enough; past it every call computes afresh.
    A ``count`` that is not an integer >= 1 raises :class:`DomainError`.
    """
    if not (hasattr(count, "__index__") and count >= 1):
        raise DomainError(f"product count must be an integer >= 1, got {count!r}")
    if count > _FIXED_UP_TO:
        return _blocked_products(X, Y, count, math.isqrt(count - 1) + 1)[:count]
    box = _memo(struct.pack("dd", X, Y))  # now the most recent pair
    kept = box[0]  # read once: another thread may store a shorter array
    if kept is None or len(kept) < count:
        # within the first block only the offsets asked for are stepped: the
        # same values, as no offset depends on a later one
        kept = box[0] = _blocked_products(X, Y, count, min(count, _FIXED_WIDTH))
    return kept[:count]


@functools.lru_cache(maxsize=_MEMO_PAIRS)
def _memo(key: bytes) -> list:
    """The one-slot box of the product array kept for the pair (X, Y) whose
    bits ``key`` packs, empty ([None]) until the pair's first call fills it."""
    return [None]


def _blocked_products(X: float, Y: float, count: int, size: int) -> np.ndarray:
    """Read-only h_n(X)*h_n(Y) for n = 0 .. blocks*size - 1, in blocks of
    ``size``: at least the ``count`` first."""
    import numpy as np
    blocks = -(-count // size)
    # rows a = sqrt(2/(n+1)) and b = sqrt(n/(n+1)), kept between calls and
    # rebuilt when a call needs a longer grid
    global _STEPS
    rows = _STEPS
    if rows is None or rows.shape[1] < size * blocks:
        n = np.arange(size * blocks, dtype=np.float64)
        rows = _STEPS = np.stack([np.sqrt(2.0 / (n + 1.0)), np.sqrt(n / (n + 1.0))])
    a, b = rows[:, :size * blocks].reshape(2, blocks, size).transpose(0, 2, 1)
    # sol[j + 1] = rows P(X), Q(X), P(Y), Q(Y) at offset j of every block;
    # sol[j + 2] holds X a, X a, Y a, Y a, the step from offset j, until the
    # step overwrites it, and back[j] = b four times
    sol = np.empty((size + 2, 4, blocks))
    sol[:2] = [[[1.0], [0.0], [1.0], [0.0]], [[0.0], [1.0], [0.0], [1.0]]]
    np.multiply(a[:, None], np.array([X, X, Y, Y])[:, None], sol[2:])
    back = np.repeat(b[:, None], 4, axis=1)
    sols = list(sol)
    for b_j, s0, s1, s2 in zip(back, sols, sols[1:], sols[2:]):
        np.multiply(s2, s1, s2)
        np.multiply(b_j, s0, b_j)
        np.subtract(s2, b_j, s2)

    # true (h_{s-1}, h_s) of every block, then h at offsets 0 .. size-1, in place
    body = sol[1:size + 1]
    body *= np.array(_chain(*sol[size:, :, :-1].tolist())).reshape(blocks, 4).T
    hx, qx, hy, qy = body.transpose(1, 0, 2)
    products = np.empty((blocks, size))
    np.multiply(np.add(hx, qx, hx), np.add(hy, qy, hy), products.T)
    products = products.reshape(-1)
    products.flags.writeable = False
    return products


def _tails(X: float, Y: float, shift: float) -> list[float]:
    """int_u^1 v^{s-1} K(v) dv at every ladder weight u, from the closed form.

    Gauss-Legendre panels in w = sqrt(1-v), summed from the last; the exponent
    of K is written in w, free of the cancellation of the v form near v = 1.
    """
    import numpy as np
    w, minus_v, den, log_v, root, weights, width = _rules()[2]
    d2 = (X - Y) ** 2 if abs(X - Y) < 1e154 else math.inf  # ** raises where it overflows
    expo = minus_v * (d2 - (X * X + Y * Y) * w * w) / den
    f = 2.0 * np.exp((shift - 1.0) * log_v + expo) / root
    return list(itertools.accumulate((f @ weights * width)[::-1].tolist()))[::-1]


def bilinear_hermite_sum(X: float, Y: float, shift: float, tol: float,
                         factor: float = 1.0) -> SeriesResult:
    """``factor`` (> 0) times sum_{n>=0} h_n(X)h_n(Y)/(n+shift), to relative ``tol``.

    X, Y and ``shift`` must be finite and ``tol`` positive, and ``shift``
    must not be zero or a negative integer (series poles) nor above about
    1.5e12, where the closed-form tails underflow (:class:`DomainError`).
    Returns ``factor`` times the Abel-weighted sum B_u of ``terms_used``
    products, with ``tail_bound`` bounding its error.  When the bound
    exceeds tol*|B_u|, or is not finite, or B_u is 0.0, raises :class:`ConvergenceError`
    with that partial result, its message in the same units, listing each
    candidate u with its closed-form tail.
    """
    if not (math.isfinite(X) and math.isfinite(Y) and math.isfinite(shift) and tol > 0.0):
        raise DomainError(f"bilinear Hermite sum needs finite X, Y and shift and tol > 0, "
                          f"got X={X}, Y={Y}, shift={shift}, tol={tol}")
    if shift == round(shift) and shift <= 0.0:
        raise DomainError(f"shift {shift} sits on a pole of the series")

    import numpy as np
    ladder, max_shift = _rules()[:2]
    if shift > max_shift:
        raise DomainError(f"shift {shift} is past {max_shift:.3g}: v^(shift-1) underflows at "
                          f"every node of the closed-form tails, which then bound nothing")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum raises below
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
        # the first candidate whose tail is below target/4, stepped back while its
        # count exceeds the cap; at least the terms n < -s and one more
        k = next((j for j, t in enumerate(tails) if t <= 0.25 * target), len(tails) - 1)
        fewest = max(math.floor(-shift), -1) + 2
        log_amp = 0.5 * (X * X + Y * Y) + _LOG_CRAMER_SQ
        while True:
            # the dropped terms are at most e^{log_amp} u^{N+s}/((N+s)(1-u)); the
            # least N+s = x holding that below target/8 solves x ln(1/u) + ln x = drop,
            # and x -> (drop - ln x)/ln(1/u) maps a point above it below, then just above
            rate = -math.log1p(-ladder[k])
            drop = log_amp - math.log(max(target / 8.0 * ladder[k], 5e-324))
            x = max((drop - math.log(max(drop, 1.0) / rate)) / rate, 1.0)
            need = max((drop - math.log(x)) / rate - shift, fewest)
            if need <= _MAX_PRODUCTS or not k:
                break
            k -= 1
        # a nan count, from an overflowing X or Y, is the cap
        count, log_u = math.ceil(min(_MAX_PRODUCTS, need)), -rate

        exponent = np.arange(count, dtype=np.float64) + shift
        weighted = scaled_hermite_products(X, Y, count) / exponent * np.exp(exponent * log_u)
        value = float(weighted.sum())
        rounding = math.sqrt(count) * _EPS * float(np.abs(weighted).sum())
    log_drop = log_amp + (count + shift) * log_u
    dropped = math.exp(log_drop) / ((count + shift) * ladder[k]) if log_drop < 709.0 else math.inf
    bound = tails[k] + dropped + rounding
    if value and bound <= tol * abs(value) and math.isfinite(bound):
        return SeriesResult(factor * value, count, factor * bound)
    test = f"> tol*|value| {tol * abs(factor * value):.3e}" if value else "with a sum of 0.0"
    tried = ", ".join(f"1-u={ladder[j]:.4g} tail {factor * tails[j]:.2e}" for j in range(k + 1))
    raise ConvergenceError(
        f"bilinear Hermite sum missed tol={tol} at {count} terms (X={X}, Y={Y}, shift={shift}): "
        f"bound {factor * bound:.3e} = tail {factor * tails[k]:.3e} "
        f"+ dropped {factor * dropped:.3e} + rounding {factor * rounding:.3e} {test}; "
        f"candidates: {tried}",
        partial=SeriesResult(factor * value, count, factor * bound))
