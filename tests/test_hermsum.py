"""Blocked scaled-Hermite recurrence and the windowed bilinear summer."""

import mpmath as mp
import numpy as np
import pytest

from pcfprod import hermsum
from pcfprod.errors import ConvergenceError
from pcfprod.hermsum import RecurrenceState, bilinear_hermite_sum, scaled_hermite_products

POINTS = [(1.3, 0.4), (5.0, -4.9), (0.01, 3.0)]
ORACLE_N = [3, 57, 700, 5000, 65537, 300001, 524287]


def scaled_hermite(n, x):
    """h_n(x) = H_n(x)/sqrt(2^n n!) at 40 digits."""
    with mp.workdps(40):
        return mp.hermite(n, x) / mp.sqrt(mp.mpf(2) ** n * mp.factorial(n))


def oracle_products(X, Y, ns):
    return np.array([float(scaled_hermite(n, X) * scaled_hermite(n, Y)) for n in ns])


def sequential_products(X, Y, count):
    """The term-by-term recurrence in Python floats."""
    out, hx, hy = [1.0], (0.0, 1.0), (0.0, 1.0)
    for n in range(count - 1):
        a, b = (2.0 / (n + 1.0)) ** 0.5, (n / (n + 1.0)) ** 0.5
        hx = hx[1], X * a * hx[1] - b * hx[0]
        hy = hy[1], Y * a * hy[1] - b * hy[0]
        out.append(hx[1] * hy[1])
    return np.array(out)


@pytest.mark.parametrize("X,Y", POINTS)
@pytest.mark.parametrize("count", [9, 100, 4097, 20000])
def test_products_match_sequential_recurrence(X, Y, count):
    # blocking only regroups the rounding: a few ulp of the array scale
    want = sequential_products(X, Y, count)
    got = scaled_hermite_products(X, Y, count)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps * scale


@pytest.mark.parametrize("X,Y", POINTS)
def test_products_match_mpmath(X, Y):
    prods = scaled_hermite_products(X, Y, ORACLE_N[-1] + 1)
    scale = np.max(np.abs(prods))
    err = np.abs(prods[ORACLE_N] - oracle_products(X, Y, ORACLE_N))
    assert np.all(err <= 1e-13 * scale)


@pytest.mark.parametrize("X,Y", POINTS)
def test_resumed_products_match_one_shot(X, Y):
    state = RecurrenceState()
    parts = np.concatenate([scaled_hermite_products(X, Y, k, state)
                            for k in (4096, 4096, 8192)])
    whole = scaled_hermite_products(X, Y, 16384)
    assert state.n == 16384
    assert np.max(np.abs(parts - whole)) <= 4 * np.spacing(np.max(np.abs(whole)))


@pytest.mark.parametrize("X,Y", POINTS)
@pytest.mark.parametrize("count", [1, 2, 3, 5, 10, 4097, 4099])
def test_edge_counts_end_at_the_requested_index(X, Y, count):
    # 3, 5, 10, 4097 and 4099 are not multiples of their block size
    # (ceil(sqrt(count))); the state must sit at count, not at a block edge
    state = RecurrenceState()
    first = scaled_hermite_products(X, Y, count, state)
    assert first.shape == (count,)
    assert state.n == count
    for x, pair in ((X, state.x), (Y, state.y)):
        want = np.array([float(scaled_hermite(count - 1, x)), float(scaled_hermite(count, x))])
        assert np.all(np.abs(np.array(pair) - want) <= 1e-13 * max(1.0, *np.abs(want)))
    more = scaled_hermite_products(X, Y, 7, state)
    ns = list(range(count - 3, count)) if count >= 3 else list(range(count))
    checked = np.concatenate([first[ns], more])
    want = oracle_products(X, Y, ns + list(range(count, count + 7)))
    scale = np.max(np.abs(want))
    assert np.all(np.abs(checked - want) <= 1e-13 * scale)


def test_small_counts_are_exact():
    assert scaled_hermite_products(1.3, 0.4, 1).tolist() == [1.0]
    p = scaled_hermite_products(1.3, 0.4, 2)
    assert p[0] == 1.0 and p[1] == pytest.approx(2.0 * 1.3 * 0.4, rel=1e-15)


def test_converged_sum_computes_only_the_terms_it_uses(monkeypatch):
    counts = []
    inner = hermsum.scaled_hermite_products

    def counting(X, Y, count, state=None):
        counts.append(count)
        return inner(X, Y, count, state)

    monkeypatch.setattr(hermsum, "scaled_hermite_products", counting)
    r = bilinear_hermite_sum(1.0, 0.2, 2.0, 1e-9)
    assert len(counts) >= 3
    assert sum(counts) == r.terms_used


def test_convergence_error_lists_every_window_level():
    with pytest.raises(ConvergenceError) as info:
        bilinear_hermite_sum(2.0 / np.sqrt(2.0), 1.9 / np.sqrt(2.0), 1.0, 1.25e-7)
    msg = str(info.value)
    levels = [8192 * 2 ** k for k in range(7)]
    for terms in levels:
        assert f"{terms} terms " in msg
    assert info.value.partial.terms_used == levels[-1]
