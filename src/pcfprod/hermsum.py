"""Windowed summation engine for bilinear Hermite series.

Everything here works with the orthonormally scaled polynomials
h_n(x) = H_n(x)/sqrt(2^n n!), which stay in floating range for any n
(the raw H_n overflow near n ~ 300) and obey

    h_{n+1}(x) = x*sqrt(2/(n+1))*h_n(x) - sqrt(n/(n+1))*h_{n-1}(x).

The series of interest all have the shape

    B(X, Y, s) = sum_{n>=0} h_n(X) h_n(Y) / (n + s),

whose terms decay only like n^{-3/2} with slowly varying oscillation.
Truncating at a hard cutoff therefore stalls around 1e-4..1e-5 accuracy
no matter how many terms are taken.  Multiplying the terms by a smooth
window that descends from 1 to 0 over n in [N, 2N] suppresses the
oscillatory truncation error by several further orders, and doubling N
until two successive window sizes agree gives a reliable error
estimate.  N is capped so that at most 2^19 terms are ever summed.

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

The recurrence state (n, h_{n-1}, h_n) at X and at Y can be kept in a
:class:`RecurrenceState` and passed back, so that
:func:`bilinear_hermite_sum` computes each product once: a window
doubling adds only the products it has not seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .specfun import SeriesResult

__all__ = ["RecurrenceState", "scaled_hermite_products", "bilinear_hermite_sum"]

N_CAP = 262_144  # window extends to 2*N_CAP terms
_TINY = 1e-300


@dataclass
class RecurrenceState:
    """Where a run of :func:`scaled_hermite_products` stopped.

    ``n`` is the index of the next product; ``x`` and ``y`` hold
    (h_{n-1}, h_n) at X and at Y.  The default is the start, n = 0 with
    h_{-1} = 0 and h_0 = 1.  A state belongs to one (X, Y) pair.
    """

    n: int = 0
    x: tuple[float, float] = (0.0, 1.0)
    y: tuple[float, float] = (0.0, 1.0)


def _chain(starts: tuple[float, float], ends: list[list[float]]) -> list[list[float]]:
    """True (h_{s-1}, h_s) at every block start from the first block's.

    ``ends`` lists, per block, (P, Q) at the block's last offset and at
    the next block's start, as [P_last, Q_last, P_next, Q_next] rows.
    """
    a, b = starts
    alpha, beta = [a], [b]
    for p1, q1, p2, q2 in zip(*ends):
        a, b = a * p1 + b * q1, a * p2 + b * q2
        alpha.append(a)
        beta.append(b)
    return [alpha, beta]


def scaled_hermite_products(
    X: float, Y: float, count: int, state: RecurrenceState | None = None
) -> np.ndarray:
    """Array of h_n(X)*h_n(Y) for the next ``count`` indices n.

    Without ``state`` these are n = 0 .. count-1.  With it they start
    at ``state.n``, and ``state`` is advanced in place to n + count.
    """
    if state is None:
        state = RecurrenceState()
    n0 = state.n
    size = math.isqrt(count - 1) + 1  # ceil(sqrt(count))
    blocks = -(-count // size)
    # coefficients of the step from offset j to j + 1, laid out (offset, block)
    n = n0 + np.arange(size, dtype=np.float64)[:, None] + size * np.arange(blocks, dtype=np.float64)
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
    ax, bx = map(np.array, _chain(state.x, ends[:, 0:2].reshape(4, blocks - 1).tolist()))
    ay, by = map(np.array, _chain(state.y, ends[:, 2:4].reshape(4, blocks - 1).tolist()))
    body = sol[1:size + 1]
    products = (body[:, 0] * ax + body[:, 1] * bx) * (body[:, 2] * ay + body[:, 3] * by)

    # the run ends inside the last block, at offset `last`
    last = count - (blocks - 1) * size
    tail = sol[last:last + 2, :, -1]
    state.n = n0 + count
    state.x = tuple((ax[-1] * tail[:, 0] + bx[-1] * tail[:, 1]).tolist())
    state.y = tuple((ay[-1] * tail[:, 2] + by[-1] * tail[:, 3]).tolist())
    return products.T.reshape(-1)[:count]


def _descent(ncut: int) -> np.ndarray:
    """Window weights at n = ncut .. 2*ncut-1, falling smoothly from 1 to 0.

    The window is 1 at n <= ncut and 0 at n >= 2*ncut.
    """
    z = np.arange(ncut, dtype=np.float64) / float(ncut)
    w = np.ones(ncut)
    zm = z[1:]
    # logistic bump in 1/z - 1/(1-z); C-infinity at both edges
    w[1:] = 1.0 / (1.0 + np.exp(np.clip(1.0 / (1.0 - zm) - 1.0 / zm, -700, 700)))
    return w


def bilinear_hermite_sum(
    X: float,
    Y: float,
    shift: float,
    tol: float,
    n_start: int = 2048,
    n_cap: int = N_CAP,
) -> SeriesResult:
    """Evaluate sum_{n>=0} h_n(X)h_n(Y)/(n+shift) to relative ``tol``.

    ``shift`` must not be zero or a negative integer (series poles).
    Raises :class:`ConvergenceError` with the partial result attached
    when the window cap is reached before two successive window sizes
    agree; its message lists the change at every window level.
    """
    if shift == round(shift) and shift <= 0.0:
        raise DomainError(f"shift {shift} sits on a pole of the series")

    ncut = min(n_start, n_cap)
    state = RecurrenceState()
    # terms below `start` all have window weight 1 and are summed into
    # `head`; `tail` holds the terms from `start` on
    head = 0.0
    start = 0
    tail = np.empty(0)
    prev = None
    diff = np.inf
    changes = []
    while True:
        end = state.n
        new = scaled_hermite_products(X, Y, 2 * ncut - end, state)
        new /= np.arange(end, 2 * ncut, dtype=np.float64) + shift
        below = max(ncut - end, 0)  # only the first level's new terms reach below ncut
        head += float(np.sum(tail[:ncut - start])) + float(np.sum(new[:below]))
        rest = tail[ncut - start:]  # left over only when the cap stopped a doubling
        tail = np.concatenate((rest, new[below:])) if rest.size else new[below:]
        start = ncut
        value = head + float(np.sum(tail * _descent(ncut)))
        if prev is not None:
            diff = abs(value - prev)
            if diff <= tol * max(abs(value), _TINY):
                return SeriesResult(value, 2 * ncut, diff)
            changes.append(f"{2 * ncut} terms {diff:.3e}")
        prev = value
        if ncut >= n_cap:
            raise ConvergenceError(
                f"bilinear Hermite sum stalled at {2 * ncut} terms "
                f"(X={X}, Y={Y}, shift={shift}, tol={tol}); "
                f"changes between successive windows: {', '.join(changes) or 'none'}",
                partial=SeriesResult(value, 2 * ncut, diff),
            )
        ncut = min(2 * ncut, n_cap)
