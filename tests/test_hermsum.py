"""Blocked scaled-Hermite recurrence and the Abel-weighted bilinear summer."""

import math
import re
import sys
import threading
import warnings

import mpmath as mp
import numpy as np
import pytest

import mpmath_refs
from pcfprod import hermsum
from pcfprod.errors import ConvergenceError, DomainError
from pcfprod.green import GreenQuery, green_spectral
from pcfprod.hermsum import SeriesResult, bilinear_hermite_sum, scaled_hermite_products
from pcfprod.mehler import (MehlerPoint, SumRuleQuery, mehler_kernel_series, series_for_I,
                            sum_rule_lhs)

POINTS = mpmath_refs.HERMITE_PAIRS
ORACLE_N = list(mpmath_refs.HERMITE_DEGREES)


def oracle_products(X, Y, ns):
    return np.array([float(mpmath_refs.hermite_product(n, X, Y)) for n in ns])


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


def scaled_hermite(n, x):
    """h_n(x) as a double, rounded once from its mantissa and binary exponent."""
    return math.ldexp(*hermsum.scaled_hermite_frexp(n, x))


def test_scalar_degree_is_capped():
    # the scalar loop stops at the series' own cap of 2^19 products
    assert math.isfinite(scaled_hermite(2 ** 19, 0.3))
    with pytest.raises(DomainError, match=r"at most 2\^19 = 524288, got 524289"):
        scaled_hermite(2 ** 19 + 1, 0.3)


@pytest.mark.parametrize("n", mpmath_refs.SCALED_HERMITE_DEGREES)
def test_scalar_mantissa_and_exponent_match_mpmath(n):
    # past 2^600 the pair is scaled down and the exponent kept: h_2985(40) is
    # about 2^1149, and the error stays within a few eps of Cramer's scale
    for (m, x), exact in mpmath_refs.points("scaled_hermite", exact=True):
        if m != n:
            continue
        frac, expo = hermsum.scaled_hermite_frexp(n, x)
        assert frac == 0.0 or 0.5 <= abs(frac) < 1.0
        with mp.workdps(40):
            err = abs(mp.ldexp(frac, expo) - exact) / mp.exp(mp.mpf(x) ** 2 / 2)
        assert err <= 8 * 2.0**-52 * (1.0 + abs(x)), (n, x)


def test_scalar_pair_is_scaled_only_past_its_limit():
    # below 2^600 the pair is never scaled: the value is the plain recurrence's
    # bit for bit; past it the mantissa is never nan
    for n, x in [(700, 1.3), (3000, 20.0), (57, -4.9)]:
        prev, h = 0.0, 1.0
        for k in range(n):
            prev, h = h, x * math.sqrt(2.0 / (k + 1)) * h - math.sqrt(k / (k + 1.0)) * prev
        assert scaled_hermite(n, x) == h
    for x in (1e200, -1.7e308, 2.0**500):
        for n in (0, 1, 2, 3, 1000):
            frac, expo = hermsum.scaled_hermite_frexp(n, x)
            assert not math.isnan(frac)


@pytest.mark.parametrize("X,Y", POINTS)
def test_products_match_mpmath(X, Y):
    prods = scaled_hermite_products(X, Y, ORACLE_N[-1] + 1)
    scale = np.max(np.abs(prods))
    oracle = [ref for (pair, _), ref in mpmath_refs.points("hermite_products") if pair == (X, Y)]
    err = np.abs(prods[ORACLE_N] - oracle)
    assert np.all(err <= 1e-13 * scale)


@pytest.mark.parametrize("X,Y", POINTS)
def test_scalar_helper_matches_products_and_mpmath(X, Y):
    # the single-index loop and the blocked array are the same h_n
    ns = [0, 1, 2, 57, 700]
    prods = scaled_hermite_products(X, Y, ns[-1] + 1)
    scale = np.max(np.abs(prods))
    got = np.array([scaled_hermite(n, X) * scaled_hermite(n, Y) for n in ns])
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


@pytest.mark.parametrize("count", [0, -3, 2.0, 2.5, float("nan"), "2"])
def test_product_count_outside_its_domain(count):
    # a count below 1 or not an integer, not a ZeroDivisionError or TypeError
    with pytest.raises(DomainError, match="product count must be an integer >= 1"):
        scaled_hermite_products(1.3, 0.4, count)


def test_small_counts_are_exact():
    assert scaled_hermite_products(1.3, 0.4, 1).tolist() == [1.0]
    p = scaled_hermite_products(1.3, 0.4, 2)
    assert p[0] == 1.0 and p[1] == pytest.approx(2.0 * 1.3 * 0.4, rel=1e-15)


W, BOUND = 16, 2048  # the block width and the longest kept array, as documented
PREFIX_COUNTS = [1, W - 1, W, W + 1, 2 * W, BOUND]


def fresh_products(X, Y, count):
    """scaled_hermite_products with no array kept from an earlier call."""
    hermsum._memo.cache_clear()
    return scaled_hermite_products(X, Y, count)


def count_computed(monkeypatch):
    """Record the ``count`` of every product array computed, not served kept."""
    counts = []
    inner = hermsum._blocked_products

    def counting(X, Y, count, size):
        counts.append(count)
        return inner(X, Y, count, size)

    monkeypatch.setattr(hermsum, "_blocked_products", counting)
    hermsum._memo.cache_clear()
    return counts


@pytest.mark.parametrize("X,Y", [(0.0, 1.3), (-0.0, 1.3), (0.7, -0.0), (5.0, -4.9),
                                 (-6.5, 0.2), (1e-3, 8.0)])
def test_products_are_prefix_stable(X, Y):
    # up to the bound a shorter array is a prefix of a longer one, bit for bit,
    # whether it is computed afresh or sliced from the array of a longer call
    for i, n in enumerate(PREFIX_COUNTS):
        longer = fresh_products(X, Y, n)
        for m in PREFIX_COUNTS[:i + 1]:
            want = fresh_products(X, Y, m).tobytes()
            assert longer[:m].tobytes() == want, (n, m)
            scaled_hermite_products(X, Y, n)
            assert scaled_hermite_products(X, Y, m).tobytes() == want, (n, m)


def test_kept_arrays_are_keyed_on_the_bits():
    # h_1(-0.0) h_1(1.3) is -0.0: an array kept for X = -0.0 must not serve 0.0
    negative = fresh_products(-0.0, 1.3, BOUND)
    positive = scaled_hermite_products(0.0, 1.3, 2)
    assert math.copysign(1.0, negative[1]) == -1.0
    assert math.copysign(1.0, positive[1]) == 1.0


@pytest.mark.parametrize("count", [1, W + 1, BOUND, BOUND + 1, 20000])
def test_returned_arrays_are_read_only(count):
    # a caller writing into a kept array would change every later call's terms
    hermsum._memo.cache_clear()
    for _ in range(2):  # computed, then kept where count is at most the bound
        products = scaled_hermite_products(0.3, -0.8, count)
        with pytest.raises(ValueError, match="read-only"):
            products[-1] = 2.0


def test_only_the_last_four_pairs_are_kept(monkeypatch):
    computed = count_computed(monkeypatch)
    pairs = [(0.5 * k, -1.0) for k in range(5)]
    for X, Y in pairs[:4]:
        scaled_hermite_products(X, Y, 100)
    for X, Y in pairs[:4]:
        scaled_hermite_products(X, Y, 60)  # served, and now the most recent
    assert computed == [100] * 4
    scaled_hermite_products(*pairs[1], 100)
    scaled_hermite_products(*pairs[4], 100)  # evicts pairs[0], the least recent
    scaled_hermite_products(*pairs[1], 200)  # longer: computed and kept instead
    scaled_hermite_products(*pairs[1], 200)
    scaled_hermite_products(*pairs[0], 100)
    assert computed == [100] * 4 + [100, 200, 100]
    # past the bound nothing is kept
    scaled_hermite_products(0.3, 0.1, BOUND + 1)
    scaled_hermite_products(0.3, 0.1, BOUND + 1)
    scaled_hermite_products(0.3, 0.1, 5)
    assert computed[7:] == [BOUND + 1] * 2 + [5]
    assert hermsum._memo.cache_info().currsize == 4


def test_blocks_past_the_bound_are_ceil_sqrt_wide(monkeypatch):
    # 46 wide up to 46^2 = 2116 products, then 47
    sizes = []
    inner = hermsum._blocked_products
    monkeypatch.setattr(hermsum, "_blocked_products",
                        lambda X, Y, count, size: sizes.append(size) or inner(X, Y, count, size))
    for count in (BOUND + 1, 2116, 2117):
        scaled_hermite_products(0.3, 0.1, count)
    assert sizes == [46, 46, 47]


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
    # the list ends at the weight whose tail the bound holds
    used = float(re.search(r"= tail (\S+) \+", str(info.value)).group(1))
    assert tails[-1] == pytest.approx(used, rel=1e-2)
    partial = info.value.partial
    assert counts == [partial.terms_used]
    assert 2 ** 18 < partial.terms_used <= 2 ** 19
    assert partial.tail_bound >= tails[-1] > tol * abs(partial.value)


# float(reference) may sit half an ulp from the 30-digit value
ROUNDING_ALLOWANCE = 2 * np.finfo(float).eps


def check_sweep(sweep, most_raised):
    raised = 0
    for (X, Y, s, tol), ref in mpmath_refs.points(sweep):
        try:
            r = bilinear_hermite_sum(X, Y, s, tol)
        except ConvergenceError as exc:
            # only where the sum's own rounding, not the choice of u, exceeds
            # the tolerance, or where no weight within the cap reaches it
            raised += 1
            r = exc.partial
            rounding = float(re.search(r"rounding (\S+)", str(exc)).group(1))
            assert rounding > 0.5 * tol * abs(r.value) or r.terms_used > 2 ** 18, (X, Y, s, tol)
        else:
            assert abs(r.value - ref) <= tol * abs(ref), (X, Y, s, tol)
        assert abs(r.value - ref) <= r.tail_bound + ROUNDING_ALLOWANCE * abs(ref), (X, Y, s, tol)
    assert raised <= most_raised


def test_tail_bound_holds_against_mpmath_sweep():
    check_sweep("sum_rule", 4)


def test_tail_bound_holds_at_low_tol_and_negative_shift():
    # 51 of the 120 raise; a larger sweep of this kind, 1,400 points at tol
    # in [1e-15, 1e-10] and 900 at s in (-6, 0), found no error above the
    # bound either
    check_sweep("sum_rule_low_tol", 80)


@pytest.mark.parametrize("s", [-0.5, -1.3, -2.5, -3.9995])
def test_negative_shift_against_mpmath(s):
    # the sum rule continues analytically to s < 0 between the poles
    for X, Y, tol in ((1.0, 0.2, 1e-8), (0.9, -0.6, 1e-10), (2.0, 1.5, 1e-9)):
        ref = float(mpmath_refs.sum_rule(X, Y, s))
        r = bilinear_hermite_sum(X, Y, s, tol)
        assert abs(r.value - ref) <= tol * abs(ref)
        assert abs(r.value - ref) <= r.tail_bound + ROUNDING_ALLOWANCE * abs(ref)


ROUTES = {
    "bilinear": lambda args: bilinear_hermite_sum(*args),
    "series_for_I": lambda args: series_for_I(*args),
    "sum_rule_lhs": lambda args: sum_rule_lhs(SumRuleQuery(*args[0]), args[1]),
    "green_spectral": lambda args: green_spectral(GreenQuery(*args[0]), args[1]),
    "mehler_kernel_series": lambda args: mehler_kernel_series(MehlerPoint(*args[0]), args[1]),
}


def run_route(name, args):
    """The result of a series route, or the partial of its ConvergenceError."""
    try:
        return ROUTES[name](args), False
    except ConvergenceError as exc:
        return exc.partial, True


class TestPinnedSeries:
    """Value and term count bit for bit, and the bound within 4 ulps, of the
    kernel that rebuilt its coefficients on every call, save that blocks
    of 16 up to 2048 products moved (1.43, -1.05, 3.42) by 8 ulps and
    (-2, 1.5, 0.9) by 1 (both as far from mpmath as before).  Counts 1 and
    2 take one short block, 169, 484 and 485 blocks of 16, and 4510 and
    up blocks of ceil(sqrt(count)); (4, -3, 12.5) fails on its rounding
    term and X = Y takes one capped pass.  The Mehler series' pinned bounds
    include its rounding allowance, which changes neither its value nor
    its term count."""

    # (route, arguments, raised, value.hex(), terms_used, tail_bound.hex())
    PINS = [
        ("bilinear", (0.5, 0.1, 1e-06, 0.001), False,
         "0x1.e847e9d1bd81fp+19", 1, "0x1.11a28c8bc05b2p+1"),
        ("bilinear", (0.5, 0.1, 1e-06, 1e-05), False,
         "0x1.e847eb6b56ee1p+19", 2, "0x1.212ed0b6ca48bp+0"),
        ("bilinear", (1.43, -1.05, 3.42, 1e-07), False,
         "0x1.7ba66898c42f9p-8", 169, "0x1.068d31ef93245p-35"),
        ("bilinear", (1.02, -0.47, 3.75, 1e-08), False,
         "0x1.9f99f1a23f9aep-6", 485, "0x1.cf47368324421p-36"),
        ("bilinear", (1.0, 0.2, 2.0, 1e-09), False,
         "0x1.67ca5f913f88cp-2", 1366, "0x1.bfcc106e95acdp-35"),
        ("bilinear", (1.5, -1.0, 0.5, 1e-09), False,
         "0x1.b7dbe8d769f0cp-1", 181, "0x1.90421766d137cp-37"),
        ("bilinear", (2.0, 0.5, 2.0, 1e-08), False,
         "0x1.089b733d916e4p-2", 470, "0x1.1b687f27bbda8p-32"),
        ("bilinear", (1.2, 0.95, 1.0, 1e-09), False,
         "0x1.55b8e958ee226p+1", 14687, "0x1.3c1a82d1772f0p-32"),
        ("bilinear", (4.0, -3.0, 12.5, 1e-10), True,
         "0x1.8e782c929bc0bp-38", 227, "0x1.b459421a5db0bp-43"),
        ("bilinear", (0.9, 0.6, -0.25, 1e-09), False,
         "-0x1.3159b195668b4p+1", 25273, "0x1.ea61c75180b67p-43"),
        ("bilinear", (1.0, 0.2, -1.3, 1e-08), False,
         "-0x1.84fdf014143b9p+1", 4510, "0x1.d3604545ce385p-45"),
        ("bilinear", (2.0, 1.5, -3.9995, 1e-09), False,
         "-0x1.74364e470d66cp+12", 8749, "0x1.104c1e2380780p-33"),
        ("bilinear", (1.0, 0.2, 0.5, 1e-09, 0.37), False,
         "0x1.63523adf253b0p-1", 1269, "0x1.62ebd568da2bep-34"),
        ("bilinear", (1.0, 1.0, 0.5, 1.25e-07), True,
         "0x1.315dadebaab4ep+2", 492352, "0x1.5bf1270c1d0bcp-6"),
        ("series_for_I", (1.0, 2.0, 0.5, 1e-08), False,
         "0x1.089b733d8c9a6p-1", 484, "0x1.25171b7058b34p-32"),
        ("series_for_I", (0.3, -1.0, 1.2, 1e-09), False,
         "0x1.5e8229cf29677p+0", 259, "0x1.ccdb2b5056255p-37"),
        ("sum_rule_lhs", ((1.0, 2.0, 1.0), 1e-09), False,
         "0x1.add6c9cfdc3dbp-2", 1948, "0x1.85ad497ddc06ap-36"),
        ("sum_rule_lhs", ((0.5, 1.5, -0.5), 1e-08), False,
         "0x1.60b1baa92f115p-1", 431, "0x1.d0236543b4054p-33"),
        ("green_spectral", ((0.0, 1.0, 0.0), 1e-09), False,
         "0x1.1bb79277526f6p-2", 936, "0x1.d6bec479bfd08p-37"),
        ("green_spectral", ((-2.5, 0.5, -1.0), 1e-08), False,
         "0x1.6773a114a9d43p-6", 470, "0x1.353984be64ab9p-37"),
        ("green_spectral", ((2.6, 1.2, -0.4), 1e-09), False,
         "-0x1.a3f1abbee7831p-1", 1185, "0x1.ed9bd8514b0a5p-48"),
        ("mehler_kernel_series", ((1.0, 0.5, 0.5), 1e-12), False,
         "0x1.48b5e3c3e817ap+0", 42, "0x1.ea08425b9165ap-41"),
        ("mehler_kernel_series", ((-2.0, 1.5, 0.9), 1e-10), False,
         "-0x1.3c7422e7f9261p-40", 264, "0x1.aca246489283ep-34"),
        # two seeded points whose weight u sits next to a candidate's edge: the
        # lower bound on |B|, or the tail's share of the target, moves it
        ("series_for_I", (0.483416365952863, 2.698525370492535, 0.4888745875568867, 1e-08),
         False, "0x1.4139a7c1c2964p+0", 251, "0x1.7866f2fc2bbfcp-32"),
        ("sum_rule_lhs", ((1.6442528693365628, 2.8990511802060337, 0.874556059536683), 2.5e-07),
         False, "0x1.77bd5660e39d8p-5", 409, "0x1.3717f1fbbbb65p-31"),
    ]

    @pytest.mark.parametrize("name,args,raised,value,terms,bound", PINS)
    def test_pinned(self, name, args, raised, value, terms, bound):
        r, failed = run_route(name, args)
        assert (failed, r.value.hex(), r.terms_used) == (raised, value, terms)
        want = float.fromhex(bound)
        assert abs(r.tail_bound - want) <= 4 * math.ulp(want)


class TestOverflowIsAnError:
    """Terms or bounds past the range of a double end in a ConvergenceError
    with the capped partial, and no numpy warning; so does a sum that
    underflows to 0.0, and a shift too large for the tails is a DomainError."""

    @pytest.mark.parametrize("name,args", [
        ("green_spectral", ((0.5, -2e6, 0.0), 1e-9)),
        ("series_for_I", (1.2, 47.0, -1e139, 1e-9)),
        ("sum_rule_lhs", ((39.0, 1e81, 17.0), 1e-9)),
        ("series_for_I", (1.0, 1e200, 0.0, 1e-9)),  # (X - Y)**2 overflows
        ("series_for_I", (1.0, 1e200, -1e200, 1e-9)),  # so it does where X + Y is 0
    ])
    def test_overflow_raises_convergence_error(self, name, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="bilinear Hermite sum missed") as info:
                ROUTES[name](args)
        assert info.value.partial.terms_used == hermsum._MAX_PRODUCTS
        assert not info.value.partial.tail_bound < math.inf

    @pytest.mark.parametrize("name,args", [
        ("series_for_I", (2.2250738585e-313, 15.0, 2.2250738585e-313, 0.0059)),  # 1/(2 nu)
        ("green_spectral", ((1e7, -2.7, -2.7), 1e300)),  # tol*|value| is inf too
    ])
    def test_infinite_sum_is_a_convergence_error(self, name, args):
        # a sum and bound of inf passed bound <= tol*|value| and were returned
        with pytest.raises(ConvergenceError, match="bound inf") as info:
            ROUTES[name](args)
        assert math.isinf(info.value.partial.value)

    @pytest.mark.parametrize("name,args", [
        ("green_spectral", ((-1e300, 15.0, 0.0), 1e-9)),
        ("green_spectral", ((-1e13, 1e-6, 0.0), 1e-9)),  # G about 6.7e-9
        ("series_for_I", (1e12, 1e-6, 0.0, 1e-9)),  # its n = 0 term alone is 1e-12
    ])
    def test_shift_past_the_panels_is_a_domain_error(self, name, args):
        # v^{s-1} underflows at every node of the tails, which then read 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="shift .* is past 1.53e\\+12"):
                ROUTES[name](args)

    def test_dropped_bound_past_a_double_is_inf(self):
        # at X = Y = 26.72 the tails overflow and one term is kept, whose dropped
        # bound, about e^713, is past a double: inf, not an OverflowError
        with pytest.raises(ConvergenceError, match=r"at 1 terms .* dropped inf \+"):
            bilinear_hermite_sum(26.72, 26.72, 1.0, 1e-9)

    def test_largest_shift_is_not_past_the_panels(self):
        # the bound itself is summed, and its sum is 0.0
        largest = hermsum._rules()[1]
        with pytest.raises(ConvergenceError, match="with a sum of 0.0"):
            bilinear_hermite_sum(1.0, 0.5, largest, 1e-9)

    @pytest.mark.parametrize("lam,x", [
        (-1e6, 15.0),  # G about e^{-15000}: 0.0 in a double
        (-2.5e11, 1e-3),  # G about e^{-500}/1e6 = 7e-224, the tails all 0.0
    ])
    def test_sum_of_zero_is_a_convergence_error(self, lam, x):
        # u^shift underflows in every term, and the tails underflow with it,
        # so a bound of 0.0 certifies nothing about G
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="with a sum of 0.0") as info:
                green_spectral(GreenQuery(lam, x, 0.0), 1e-9)
        assert info.value.partial == SeriesResult(0.0, 1, 0.0)

    def test_one_term_against_mpmath(self):
        # a count at the bottom of its range still returns the sum to tol
        s, tol = 1e-6, 1e-3
        r = bilinear_hermite_sum(0.5, 0.1, s, tol)
        ref = float(mpmath_refs.sum_rule(0.5, 0.1, s))
        assert r.terms_used == 1
        assert abs(r.value - ref) <= min(tol * abs(ref), r.tail_bound)


def test_threads_share_the_growing_rows(monkeypatch):
    # calls in several threads regrow the kept rows, and keep, serve and
    # evict the arrays of six pairs, under one another; each keeps the rows
    # it read, so every array equals a serial run's, bit for bit
    counts = [9, 100, 37, 4097, 640, 2, 20000, 1500]
    pairs = [(0.7, -1.1), (0.0, 1.3), (-0.0, 1.3), (5.0, -4.9), (0.2, 0.2), (-2.0, 1.5)]
    # keyed by position: (0.0, 1.3) == (-0.0, 1.3) as a dict key
    want = {(i, c): fresh_products(*p, c).tobytes() for i, p in enumerate(pairs) for c in counts}
    monkeypatch.setattr(hermsum, "_STEPS", None)
    hermsum._memo.cache_clear()
    bad = []

    def work(shift):
        for c in counts[shift:] + counts[:shift]:
            for k in range(len(pairs)):
                i = (shift + k) % len(pairs)
                if scaled_hermite_products(*pairs[i], c).tobytes() != want[i, c]:
                    bad.append((pairs[i], c))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_coefficient_rows_are_bounded():
    # a capped pass of 2^19 products takes 725 offsets of 724 blocks; the
    # kept rows grow to cover that grid (8.4 MB), and a smaller call reuses them
    scaled_hermite_products(0.3, 0.1, 2 ** 19)
    rows = hermsum._STEPS
    assert rows.shape[1] == 724 * 725
    scaled_hermite_products(0.3, 0.1, 7)
    assert hermsum._STEPS is rows
