"""Bilinear Hermite kernel and the series built on it."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfprod import (
    ConvergenceError,
    DomainError,
    MehlerPoint,
    ProductQuery,
    SumRuleQuery,
    gamma,
    integrate_semi_infinite,
    mehler_kernel_closed,
    mehler_kernel_series,
    pcf_d,
    product_reference,
    series_for_I,
    sum_rule_lhs,
)
from pcfprod.hermsum import bilinear_hermite_sum, scaled_hermite_products
from pcfprod.mehler import sum_rule_term_decay_exponent

PROD_1_2_1 = 0.4197646649478962796
EPS = np.finfo(float).eps


def kernel_oracle(X, Y, u):
    """The closed Mehler kernel at 30 digits."""
    with mp.workdps(30):
        X, Y, u = mp.mpf(X), mp.mpf(Y), mp.mpf(u)
        return mp.exp((2 * X * Y * u - (X * X + Y * Y) * u * u) / (1 - u * u))


class TestKernelClosed:
    def test_u_zero(self):
        assert mehler_kernel_closed(MehlerPoint(1.7, -0.4, 0.0)) == 1.0

    def test_arithmetic_point(self):
        assert mehler_kernel_closed(MehlerPoint(1.0, 1.0, 0.5)) == \
            pytest.approx(math.exp(2.0 / 3.0), rel=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3),
           st.floats(min_value=-0.95, max_value=0.95))
    def test_symmetry(self, X, Y, u):
        a = mehler_kernel_closed(MehlerPoint(X, Y, u))
        b = mehler_kernel_closed(MehlerPoint(Y, X, u))
        assert a == pytest.approx(b, rel=1e-13)

    @pytest.mark.parametrize("u", [1.0, -1.0, 1.5])
    def test_unit_disc_enforced(self, u):
        with pytest.raises(DomainError):
            MehlerPoint(0.0, 0.0, u)


class TestKernelSeries:
    def test_u_zero_single_term(self):
        r = mehler_kernel_series(MehlerPoint(2.0, -1.0, 0.0))
        assert r.value == 1.0
        assert r.terms_used == 1

    def test_matches_closed_form_on_random_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            X = rng.uniform(-3, 3)
            Y = rng.uniform(-3, 3)
            u = rng.uniform(-0.9, 0.9)
            s = mehler_kernel_series(MehlerPoint(X, Y, u), 1e-10).value
            c = mehler_kernel_closed(MehlerPoint(X, Y, u))
            # the series loses all relative accuracy to cancellation when
            # the kernel is exponentially small; its contract is mixed
            assert abs(s - c) <= 1e-9 * (1.0 + max(abs(s), abs(c))), (X, Y, u)

    def test_near_edge(self):
        p = MehlerPoint(2.0, 1.0, 0.9)
        s = mehler_kernel_series(p, 1e-10).value
        assert s == pytest.approx(mehler_kernel_closed(p), rel=1e-9)

    def test_practical_domain_bound(self):
        with pytest.raises(DomainError):
            mehler_kernel_series(MehlerPoint(1.0, 1.0, 0.96))

    def test_tail_bound_holds_against_mpmath_sweep(self):
        # the first point is a regression case: a running-envelope tail
        # estimate gave 1.06e-6 there, below the true error of 2.9e-6
        rng = np.random.default_rng(2718)
        points = [(-1.3, -2.92, 0.0157, 5e-7)] + [
            (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-0.95, 0.95),
             10 ** rng.uniform(-12, -6)) for _ in range(600)]
        for X, Y, u, tol in points:
            r = mehler_kernel_series(MehlerPoint(X, Y, u), tol)
            ref = kernel_oracle(X, Y, u)
            err, scale = float(abs(r.value - ref)), 1.0 + abs(float(ref))
            assert err <= r.tail_bound + 64 * EPS * scale, (X, Y, u, tol)
            assert err <= tol * scale, (X, Y, u, tol)

    def test_overflow_raises_library_errors(self):
        p = MehlerPoint(30.0, 30.0, 0.9)
        with pytest.raises(DomainError):
            mehler_kernel_closed(p)
        with pytest.raises((DomainError, ConvergenceError)):
            mehler_kernel_series(p)

    @pytest.mark.parametrize("X", [300.0, 1e200])
    def test_count_beyond_cap_raises_with_partial(self, X):
        # 1e200 makes the count itself inf
        with pytest.raises(ConvergenceError) as info:
            mehler_kernel_series(MehlerPoint(X, 300.0, 0.95))
        assert info.value.partial.terms_used == 2 ** 19

    @pytest.mark.parametrize("X,Y", [(math.nan, 300.0), (0.0, math.nan), (math.inf, 0.0),
                                     (0.0, -math.inf)])
    def test_non_finite_point_rejected(self, X, Y):
        # rejected at the point, before any capped pass of 2^19 products
        with pytest.raises(DomainError):
            MehlerPoint(X, Y, 0.95)

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(DomainError):
            mehler_kernel_series(MehlerPoint(1.0, 0.5, 0.5), 0.0)


class TestSeriesForI:
    @staticmethod
    def _integral(nu, a, b, tol=1e-11):
        def f(t):
            expo = -a * t + b * math.sqrt(t * (t + 1.0))
            if expo < -745.0:
                return 0.0
            return t**(nu - 1.0) * (1.0 + t)**(-nu - 0.5) * math.exp(expo)
        return integrate_semi_infinite(f, a - b, tol).value

    @pytest.mark.parametrize("nu,X,Y", [
        (1.0, math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
        (0.5, 1.5, 0.4),
        (2.5, 2.0, -0.3),
    ])
    def test_matches_integral_frame(self, nu, X, Y):
        s = series_for_I(nu, X, Y, 1e-8)
        a = X * X + Y * Y
        b = 2.0 * X * Y
        assert s.value == pytest.approx(self._integral(nu, a, b), rel=1e-8)

    def test_partial_sums_match_brute_force_at_origin(self):
        # at X = Y = 0 only even terms survive and have the elementary
        # ratio (2k-1)/(2k); full convergence there is out of reach
        # (monotone n^{-3/2} tail), so compare 200-term partial sums
        nu = 0.75
        prods = scaled_hermite_products(0.0, 0.0, 200)
        mine = 2.0 * sum(prods[n] / (n + 2.0 * nu) for n in range(200))
        term, brute = 1.0, 1.0 / (2.0 * nu)
        for k in range(1, 100):
            term *= (2.0 * k - 1.0) / (2.0 * k)
            brute += term / (2.0 * k + 2.0 * nu)
        assert mine == pytest.approx(2.0 * brute, rel=1e-12)

    def test_first_term_is_inverse_order(self):
        # H_0 = 1 makes the n = 0 contribution exactly 1/nu
        assert scaled_hermite_products(1.3, -0.2, 1)[0] == 1.0

    def test_requires_positive_order(self):
        with pytest.raises(DomainError):
            series_for_I(0.0, 1.0, 0.5)


class TestSumRule:
    def test_frozen_point(self):
        r = sum_rule_lhs(SumRuleQuery(1.0, 2.0, 1.0))
        assert r.value == pytest.approx(PROD_1_2_1, rel=5e-7)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("x,y", [(2.0, 1.0), (3.0, 0.5), (2.5, -0.5)])
    def test_matches_product_closed_form(self, nu, x, y):
        lhs = sum_rule_lhs(SumRuleQuery(nu, x, y))
        rhs = gamma(nu) * product_reference(ProductQuery(nu, x, y))
        assert lhs.value == pytest.approx(rhs, rel=5e-7)
        assert lhs.terms_used > 0

    @pytest.mark.parametrize("n", range(9))
    def test_term_construction_against_integer_orders(self, n):
        # the scaled summand must equal D_n(x)D_n(y)/(n!(n+nu)) built
        # from the raw Hermite branch
        nu, x, y = 1.5, 2.0, 1.0
        rt2 = math.sqrt(2.0)
        scaled = (math.exp(-0.25 * (x * x + y * y))
                  * scaled_hermite_products(x / rt2, y / rt2, 9)[n] / (n + nu))
        direct = pcf_d(float(n), x) * pcf_d(float(n), y) / (math.factorial(n) * (n + nu))
        assert scaled == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("nu,x,y", [(1.0, 2.0, 1.0), (0.5, 3.0, 0.5), (2.0, 2.5, -0.5)])
    def test_term_decay_exponent(self, nu, x, y):
        p = sum_rule_term_decay_exponent(SumRuleQuery(nu, x, y))
        assert 1.3 <= p <= 1.7

    def test_convergence_error_quotes_its_partial(self):
        # x - y = 0.01 misses tol within 2^19 terms; the message's numbers
        # are the sum rule's, e^{-(x^2+y^2)/4} times the bare Hermite sum's
        with pytest.raises(ConvergenceError) as info:
            sum_rule_lhs(SumRuleQuery(1.0, 2.0, 1.99), 1e-9)
        partial = info.value.partial
        assert f"bound {partial.tail_bound:.3e} = tail " in str(info.value)
        assert f"tol*|value| {5e-10 * abs(partial.value):.3e};" in str(info.value)

    def test_domain(self):
        with pytest.raises(DomainError):
            SumRuleQuery(1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            SumRuleQuery(1.0, 2.0, 2.0)
        with pytest.raises(DomainError):
            SumRuleQuery(0.0, 2.0, 1.0)


class TestBilinearEngine:
    def test_pole_shifts_rejected(self):
        for shift in (0.0, -1.0, -3.0):
            with pytest.raises(DomainError):
                bilinear_hermite_sum(1.0, 0.5, shift, 1e-8)

    def test_near_integer_negative_shift_allowed(self):
        r = bilinear_hermite_sum(1.0, 0.2, -2.5, 1e-8)
        assert math.isfinite(r.value)

    def test_scaled_products_stay_bounded(self):
        # raw H_n overflow near n ~ 300; the scaled products must not
        vals = scaled_hermite_products(5.0, 5.0, 4000)
        assert np.all(np.isfinite(vals))
