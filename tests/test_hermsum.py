"""Blocked scaled-Hermite recurrence and the Abel-weighted bilinear summer."""

import re

import mpmath as mp
import numpy as np
import pytest

from pcfprod import hermsum
from pcfprod.errors import ConvergenceError, DomainError
from pcfprod.hermsum import SeriesResult, bilinear_hermite_sum, scaled_hermite_products

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


@pytest.mark.parametrize("X,Y,shift,tol", [
    (np.inf, 0.0, 1.0, 1e-9), (2.0, np.nan, 1.0, 1e-9), (2.0, 1.0, np.inf, 1e-9),
    (2.0, 1.0, 1.0, np.nan), (2.0, 1.0, 1.0, 0.0),
])
def test_invalid_input_is_a_domain_error(X, Y, shift, tol):
    # not a ValueError from the term count, nor a sum at a nan tolerance
    with pytest.raises(DomainError, match="bilinear Hermite sum needs finite"):
        bilinear_hermite_sum(X, Y, shift, tol)


@pytest.mark.parametrize("X,Y", POINTS)
def test_products_match_mpmath(X, Y):
    prods = scaled_hermite_products(X, Y, ORACLE_N[-1] + 1)
    scale = np.max(np.abs(prods))
    err = np.abs(prods[ORACLE_N] - oracle_products(X, Y, ORACLE_N))
    assert np.all(err <= 1e-13 * scale)


@pytest.mark.parametrize("X,Y", POINTS)
def test_scalar_helper_matches_products_and_mpmath(X, Y):
    # the single-index loop and the blocked array are the same h_n
    ns = [0, 1, 2, 57, 700]
    prods = scaled_hermite_products(X, Y, ns[-1] + 1)
    scale = np.max(np.abs(prods))
    got = np.array([hermsum.scaled_hermite(n, X) * hermsum.scaled_hermite(n, Y) for n in ns])
    assert np.all(np.abs(got - prods[ns]) <= 16 * np.finfo(float).eps * scale)
    assert np.all(np.abs(got - oracle_products(X, Y, ns)) <= 1e-13 * scale)


@pytest.mark.parametrize("X,Y", POINTS)
@pytest.mark.parametrize("count", [1, 2, 3, 5, 10, 4097, 4099])
def test_edge_counts_end_at_the_requested_index(X, Y, count):
    # 3, 5, 10, 4097 and 4099 are not multiples of their block size
    # (ceil(sqrt(count))); the array must end at n = count - 1, not at a
    # block edge, and the next 7 products must follow on
    first = scaled_hermite_products(X, Y, count)
    assert first.shape == (count,)
    more = scaled_hermite_products(X, Y, count + 7)[count:]
    ns = list(range(count - 3, count)) if count >= 3 else list(range(count))
    checked = np.concatenate([first[ns], more])
    want = oracle_products(X, Y, ns + list(range(count, count + 7)))
    scale = np.max(np.abs(want))
    assert np.all(np.abs(checked - want) <= 1e-13 * scale)


def test_small_counts_are_exact():
    assert scaled_hermite_products(1.3, 0.4, 1).tolist() == [1.0]
    p = scaled_hermite_products(1.3, 0.4, 2)
    assert p[0] == 1.0 and p[1] == pytest.approx(2.0 * 1.3 * 0.4, rel=1e-15)


def count_products(monkeypatch):
    """Record the ``count`` of every scaled_hermite_products call."""
    counts = []
    inner = hermsum.scaled_hermite_products

    def counting(X, Y, count):
        counts.append(count)
        return inner(X, Y, count)

    monkeypatch.setattr(hermsum, "scaled_hermite_products", counting)
    return counts


def test_converged_sum_computes_only_the_terms_it_uses(monkeypatch):
    counts = count_products(monkeypatch)
    r = bilinear_hermite_sum(1.0, 0.2, 2.0, 1e-9)
    assert counts == [r.terms_used]


@pytest.mark.parametrize("X,Y", [(1.0, 0.2), (1.0, 1.0)])
def test_factor_scales_the_result_only(X, Y):
    # value and bound, of a result or of an error's partial, are the
    # factor times the bare sum's, bit for bit; the weight, the term count
    # and the stopping test do not depend on it (X = Y raises)
    def run(**factor):
        try:
            return bilinear_hermite_sum(X, Y, 0.5, 1e-9, **factor)
        except ConvergenceError as exc:
            return exc.partial

    bare, scaled = run(), run(factor=0.37)
    assert scaled == SeriesResult(0.37 * bare.value, bare.terms_used, 0.37 * bare.tail_bound)


def test_convergence_error_lists_every_candidate_weight(monkeypatch):
    # at X = Y the tail integral falls only like sqrt(1-u): every weight
    # up to the 2^19-product cap is tried against it, in one capped pass
    counts = count_products(monkeypatch)
    tol = 1.25e-7
    with pytest.raises(ConvergenceError) as info:
        bilinear_hermite_sum(1.0, 1.0, 0.5, tol)
    listed = re.findall(r"1-u=([^,\s]+) tail ([^,\s]+)", str(info.value))
    assert len(listed) >= 25
    assert [float(c) for c, _ in listed] == pytest.approx(
        [0.5 * 2.0 ** (-0.5 * k) for k in range(len(listed))], rel=1e-3)
    tails = [float(t) for _, t in listed]
    assert all(a > b > tol for a, b in zip(tails, tails[1:]))
    partial = info.value.partial
    assert counts == [partial.terms_used]
    assert 2 ** 18 < partial.terms_used <= 2 ** 19
    assert partial.tail_bound >= tails[-1] > tol * abs(partial.value)


def sum_rule_oracle(X, Y, s):
    """B(X, Y, s) for X > Y through the sum rule, at 30 digits:
    e^{(X^2+Y^2)/2} Gamma(s) D_{-s}(sqrt2 X) D_{-s}(-sqrt2 Y)."""
    with mp.workdps(30):
        X, Y, rt2 = mp.mpf(X), mp.mpf(Y), mp.sqrt(2)
        return float(mp.exp((X * X + Y * Y) / 2) * mp.gamma(s)
                     * mp.pcfd(-s, rt2 * X) * mp.pcfd(-s, -rt2 * Y))


def sweep_points(count, seed):
    """X - Y log-uniform in [0.05, 4], Y uniform in [-1.5, 1.5], s
    log-uniform in [0.25, 20], tol log-uniform in [1e-10, 1e-6]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d, s, tol = np.exp(rng.uniform(np.log([0.05, 0.25, 1e-10]), np.log([4.0, 20.0, 1e-6])))
        y = rng.uniform(-1.5, 1.5)
        yield float(y + d), float(y), float(s), float(tol)


# float(reference) may sit half an ulp from the 30-digit value
ROUNDING_ALLOWANCE = 2 * np.finfo(float).eps


def test_tail_bound_holds_against_mpmath_sweep():
    raised = 0
    for X, Y, s, tol in sweep_points(80, 2026):
        ref = sum_rule_oracle(X, Y, s)
        try:
            r = bilinear_hermite_sum(X, Y, s, tol)
        except ConvergenceError as exc:
            # only where the sum's own rounding, not the choice of u,
            # exceeds the tolerance
            raised += 1
            r = exc.partial
            rounding = float(re.search(r"rounding (\S+)", str(exc)).group(1))
            assert rounding > 0.5 * tol * abs(r.value), (X, Y, s, tol)
        else:
            assert abs(r.value - ref) <= tol * abs(ref), (X, Y, s, tol)
        assert abs(r.value - ref) <= r.tail_bound + ROUNDING_ALLOWANCE * abs(ref), (X, Y, s, tol)
    assert raised <= 4


@pytest.mark.parametrize("s", [-0.5, -1.3, -2.5, -3.9995])
def test_negative_shift_against_mpmath(s):
    # the sum rule continues analytically to s < 0 between the poles
    for X, Y, tol in ((1.0, 0.2, 1e-8), (0.9, -0.6, 1e-10), (2.0, 1.5, 1e-9)):
        ref = sum_rule_oracle(X, Y, s)
        r = bilinear_hermite_sum(X, Y, s, tol)
        assert abs(r.value - ref) <= tol * abs(ref)
        assert abs(r.value - ref) <= r.tail_bound + ROUNDING_ALLOWANCE * abs(ref)
