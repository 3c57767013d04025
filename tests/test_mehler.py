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
from pcfprod import mehler
from pcfprod.hermsum import SeriesResult, bilinear_hermite_sum, scaled_hermite_products
from pcfprod.mehler import sum_rule_term_decay_exponent

PROD_1_2_1 = 0.4197646649478962796
EPS = np.finfo(float).eps


def kernel_oracle(X, Y, u, dps=30):
    """The closed Mehler kernel at ``dps`` digits."""
    with mp.workdps(dps):
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
           st.floats(min_value=-1, max_value=1, exclude_min=True, exclude_max=True))
    def test_symmetry(self, X, Y, u):
        a = mehler_kernel_closed(MehlerPoint(X, Y, u))
        b = mehler_kernel_closed(MehlerPoint(Y, X, u))
        assert a == pytest.approx(b, rel=1e-13)

    @pytest.mark.parametrize("X,Y", [(-1e308, 1e308), (1e300, 1e299)])
    def test_both_squares_past_a_double(self, X, Y):
        # (X+Y)^2/4 and (X-Y)^2/4 both overflow a double, and the kernel
        # underflows: 0.0, where unscaled squares give inf - inf = nan
        assert mehler_kernel_closed(MehlerPoint(X, Y, 0.5)) == 0.0

    def test_accurate_as_u_nears_one(self):
        # the exponent 2u[m^2/(1+u) - d^2/(1-u)] rounds no difference of
        # 2XYu and (X^2+Y^2)u^2: at most 1.4e-13 relative here, where that
        # form lost up to 1.5e-11
        rng = np.random.default_rng(31)
        for _ in range(300):
            X, Y = rng.uniform(-3, 3, 2)
            u = rng.choice((-1.0, 1.0)) * (1.0 - 10 ** rng.uniform(-6, -2))
            ref = kernel_oracle(X, Y, u, dps=40)
            if ref > 1e-290:
                got = mehler_kernel_closed(MehlerPoint(X, Y, u))
                assert abs(got - ref) <= 1e-12 * ref, (X, Y, u)

    def test_scaling_changes_no_bit(self):
        # m and d are scaled by a power of two: where no square overflows, the kernel
        # is exp of the unscaled 2u[m^2/(1+u) - d^2/(1-u)] to the bit
        rng = np.random.default_rng(3)
        for _ in range(200):
            X, Y = (float(v) for v in rng.uniform(-3.0, 3.0, 2))
            u = float(rng.uniform(-0.9, 0.9))
            m, d = 0.5 * X + 0.5 * Y, 0.5 * X - 0.5 * Y
            direct = math.exp(2.0 * u * (m * m / (1.0 + u) - d * d / (1.0 - u)))
            assert mehler_kernel_closed(MehlerPoint(X, Y, u)) == direct, (X, Y, u)

    @pytest.mark.parametrize("u", [1.0, -1.0, 1.5])
    def test_unit_disc_enforced(self, u):
        with pytest.raises(DomainError):
            MehlerPoint(0.0, 0.0, u)


class TestKernelSeries:
    def test_tail_past_a_double_is_inf(self):
        # capped at 2^19 terms with u = 0.99999, the tail bound is about e^715:
        # inf, then a ConvergenceError, not an OverflowError from exp
        with pytest.raises(ConvergenceError, match="524288 terms") as info:
            mehler_kernel_series(MehlerPoint(26.72, 26.72, 0.99999), 1e-12)
        assert info.value.partial.tail_bound == math.inf

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

    @pytest.mark.parametrize("u", [0.96, -0.99, 0.999])
    def test_past_the_old_limit(self, u):
        # |u| <= 0.95 was a wall; the cap and the rounding allowance decide now
        p = MehlerPoint(1.0, 1.0, u)
        r = mehler_kernel_series(p, 1e-10)
        assert abs(r.value - float(kernel_oracle(1.0, 1.0, u, dps=40))) <= \
            1e-10 * (1.0 + abs(r.value))

    def test_near_one_sweep_against_mpmath(self):
        # 0.95 < |u| < 0.9999: no value it returns is outside tol*(1+|K|), and
        # every result, returned or raised, is within tail_bound + 64 eps (1+|K|)
        rng = np.random.default_rng(95)
        returned = 0
        for _ in range(400):
            X, Y = rng.uniform(-6, 6, 2)
            u = rng.choice((-1.0, 1.0)) * rng.uniform(0.95, 0.9999)
            tol = 10 ** rng.uniform(-12, -6)
            try:
                r, raised = mehler_kernel_series(MehlerPoint(X, Y, u), tol), False
            except ConvergenceError as exc:
                r, raised = exc.partial, True
            ref = kernel_oracle(X, Y, u, dps=40)
            err, scale = float(abs(r.value - ref)), 1.0 + abs(float(ref))
            assert err <= r.tail_bound + 64 * EPS * scale, (X, Y, u, tol)
            assert raised or err <= tol * scale, (X, Y, u, tol)
            returned += not raised
        assert returned >= 200

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

    def test_returned_values_meet_their_tolerance_sweep(self):
        # terms up to e^{(X^2+Y^2)/2} = e^144 sum to exponentially small
        # kernels: where their rounding exceeds tol*(1+|value|) the series
        # raises, and a value it returns is within tol*(1+|K|); 865 of these
        # points return, and with a bound of truncation alone 477 of them
        # missed silently
        rng = np.random.default_rng(1729)
        returned = 0
        for _ in range(1500):
            X, Y = rng.uniform(-12, 12, 2)
            u, tol = rng.uniform(-0.95, 0.95), 10 ** rng.uniform(-12, -6)
            try:
                r, raised = mehler_kernel_series(MehlerPoint(X, Y, u), tol), False
            except ConvergenceError as exc:
                r, raised = exc.partial, True
            ref = kernel_oracle(X, Y, u, dps=40)
            err, scale = float(abs(r.value - ref)), 1.0 + abs(float(ref))
            assert err <= r.tail_bound + 64 * EPS * scale, (X, Y, u, tol)
            assert raised or err <= tol * scale, (X, Y, u, tol)
            returned += not raised
        assert returned >= 750

    @pytest.mark.parametrize("X,Y,u,tol", [
        (6.0, -6.0, 0.5, 1e-9),
        (-11.11919796974277, -5.745092501383281, -0.6006125753766942, 1e-12),
        (6.0, -6.0, 0.5, 4.83e-5)])
    def test_rounding_past_tol_raises_with_partial(self, X, Y, u, tol):
        # the first two returned 1.65e-6 and -91697.67, with bounds of 9.1e-10 and
        # 7.8e-13, for kernels of 5.4e-32 and 3.0e-91; in the third the rounding,
        # 4.850e-5, is 0.4% past tol (1 + |value|)
        with pytest.raises(ConvergenceError, match="rounding") as info:
            mehler_kernel_series(MehlerPoint(X, Y, u), tol)
        partial = info.value.partial
        assert abs(partial.value - float(kernel_oracle(X, Y, u))) <= partial.tail_bound
        assert partial.tail_bound > tol * (1.0 + abs(partial.value))
        assert f"against tol*(1+|value|) {tol * (1.0 + abs(partial.value)):.3e}" \
            in str(info.value)

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
        with pytest.raises(DomainError, match="series_for_I requires nu > 0, got 0.0"):
            series_for_I(0.0, 1.0, 0.5)

    def test_sum_runs_at_half_the_tolerance(self, monkeypatch):
        # the factor 2 doubles the bare sum's error, so it aims at tol/2
        calls = []
        monkeypatch.setattr(mehler, "bilinear_hermite_sum", lambda *args, **kwargs:
                            calls.append((args, kwargs)) or SeriesResult(1.0, 1, 0.0))
        series_for_I(0.75, 2.0, 0.5, 1e-8)
        assert calls == [((2.0, 0.5, 1.5, 5e-9), {"factor": 2.0})]


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

    def test_term_decay_fit_is_pinned(self):
        # the fit's window, n in [100, 20000] in 20 bins, decides the estimate:
        # one more bin, or either end one term on, moves it by 5e-6 or more
        p = sum_rule_term_decay_exponent(SumRuleQuery(1.0, 2.0, 1.0))
        assert p == pytest.approx(1.43924526141084, rel=1e-12)

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
