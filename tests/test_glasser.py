"""Product representation, Laplace forms, and the (x, y) <-> (a, b) maps."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfprod import glasser, quadrature
from pcfprod import (
    ConvergenceError,
    DomainError,
    LaplaceParams,
    ProductQuery,
    QuadratureResult,
    gamma,
    laplace_I,
    params_from_xy,
    pcf_d,
    product_reference,
    product_via_integral,
    xy_from_params,
)

# frozen with an independent 30-digit oracle before the library was built
PROD_1_2_1 = 0.4197646649478962796
PROD_HALF_3_HALF = 0.08865044903152963367
PROD_2P5_3_0P4 = 0.006776734399916126918


class TestParameterMaps:
    def test_forward_example(self):
        p = params_from_xy(ProductQuery(1.0, 2.0, 1.0))
        assert p.a == 2.5
        assert p.b == 2.0

    def test_inverse_example(self):
        q = xy_from_params(LaplaceParams(1.0, 2.5, 2.0))
        assert q.x == pytest.approx(2.0, rel=1e-14)
        assert q.y == pytest.approx(1.0, rel=1e-14)

    def test_degenerate_equal_parameters(self):
        q = xy_from_params(LaplaceParams(1.0, 1.0, 1.0))
        assert q.x == pytest.approx(1.0, rel=1e-14)
        assert q.y == pytest.approx(1.0, rel=1e-14)

    def test_half_angle_parametrization(self):
        # a = alpha^2 cosh(phi), b = alpha^2 sinh(phi) pulls back to
        # x = alpha sqrt2 cosh(phi/2), y = alpha sqrt2 sinh(phi/2)
        alpha, phi = 1.3, 0.8
        q = xy_from_params(LaplaceParams(
            1.0, alpha * alpha * math.cosh(phi), alpha * alpha * math.sinh(phi)))
        rt2 = math.sqrt(2.0)
        assert q.x == pytest.approx(alpha * rt2 * math.cosh(0.5 * phi), rel=1e-13)
        assert q.y == pytest.approx(alpha * rt2 * math.sinh(0.5 * phi), rel=1e-13)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            y = rng.uniform(0.05, 3.0)
            x = y + rng.uniform(0.01, 3.0)
            p = params_from_xy(ProductQuery(1.0, x, y))
            q = xy_from_params(p)
            assert q.x == pytest.approx(x, rel=1e-12)
            assert q.y == pytest.approx(y, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.2, max_value=5.0), st.floats(min_value=0.01, max_value=5.0))
    def test_roundtrip_other_direction(self, b, gap):
        p = LaplaceParams(1.0, b + gap, b)
        back = params_from_xy(xy_from_params(p))
        assert back.a == pytest.approx(p.a, rel=1e-12)
        assert back.b == pytest.approx(p.b, rel=1e-12)

    def test_cancellation_safe_small_b(self):
        # naive a - sqrt(a^2-b^2) loses most digits when b << a
        p = LaplaceParams(1.0, 10.0, 1e-4)
        q = xy_from_params(p)
        assert q.x * q.y == pytest.approx(p.b, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            params_from_xy(ProductQuery(1.0, 1.0, 2.0))
        with pytest.raises(DomainError):
            params_from_xy(ProductQuery(1.0, 1.0, -0.5))
        with pytest.raises(DomainError):
            xy_from_params(LaplaceParams(1.0, 1.0, -1.0))
        with pytest.raises(DomainError):
            xy_from_params(LaplaceParams(1.0, 1.0, 2.0))
        with pytest.raises(DomainError):
            ProductQuery(0.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            LaplaceParams(-1.0, 2.0, 1.0)


class TestProductReference:
    def test_frozen_values(self):
        assert product_reference(ProductQuery(1.0, 2.0, 1.0)) == \
            pytest.approx(PROD_1_2_1, rel=1e-10)
        assert product_reference(ProductQuery(0.5, 3.0, 0.5)) == \
            pytest.approx(PROD_HALF_3_HALF, rel=1e-10)
        assert product_reference(ProductQuery(2.5, 3.0, 0.4)) == \
            pytest.approx(PROD_2P5_3_0P4, rel=1e-10)

    def test_overflow_is_a_domain_error(self):
        # each factor is finite, D_{-1}(-40) = 1.3e174, but not their product
        assert pcf_d(-1.0, -40.0) < 1e175
        with pytest.raises(DomainError, match="overflows a double"):
            product_reference(ProductQuery(1.0, -40.0, 40.0))
        with pytest.raises(DomainError, match="overflows a double"):
            product_reference(ProductQuery(20.0, 1.0, 53.0))

    def test_symmetric_at_origin(self):
        v = product_reference(ProductQuery(0.75, 0.0, 0.0))
        assert v == pytest.approx(pcf_d(-0.75, 0.0) ** 2, rel=1e-12)
        assert v > 0


class TestProductViaIntegral:
    def test_frozen_point(self):
        r = product_via_integral(ProductQuery(1.0, 2.0, 1.0), 1e-10)
        assert r.value == pytest.approx(PROD_1_2_1, rel=1e-10)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("x", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("y", [0.3, 0.7, 1.2])
    def test_matches_reference_on_sweep(self, nu, x, y):
        q = ProductQuery(nu, x, y)
        r = product_via_integral(q, 1e-9)
        assert r.value == pytest.approx(product_reference(q), rel=1e-8)

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            product_via_integral(ProductQuery(1.0, 1.0, 2.0))
        with pytest.raises(DomainError):
            product_via_integral(ProductQuery(1.0, 2.0, 2.0))

    def test_equal_args_flag(self):
        # the boundary case runs with the flag and is rejected without it
        r = product_via_integral(ProductQuery(1.0, 2.0, 2.0), 1e-6, allow_equal_args=True)
        assert math.isfinite(r.value)
        with pytest.raises(DomainError):
            product_via_integral(ProductQuery(1.0, 2.0, -2.0), 1e-6, allow_equal_args=True)

    def test_convergence_error_partial_is_scaled(self, monkeypatch):
        # the real engine, stopped after two levels, gets the prefactor
        # e^{-a/2}/(2 Gamma(nu)) as its factor: the partial result and the
        # message are the product's, as a converged value would be
        engine = glasser.integrate_semi_infinite
        seen = []

        def two_levels(f, decay_rate, tol, factor=1.0):
            with pytest.raises(ConvergenceError) as bare:
                engine(f, decay_rate, tol)
            seen.append((factor, bare.value))
            return engine(f, decay_rate, tol, factor=factor)

        monkeypatch.setattr(quadrature, "_SEMI_INFINITE_LEVELS", 2)
        monkeypatch.setattr(glasser, "integrate_semi_infinite", two_levels)
        with pytest.raises(ConvergenceError) as info:
            product_via_integral(ProductQuery(1.5, 2.0, 2.0), 1e-10, allow_equal_args=True)
        ((factor, bare),) = seen
        assert factor == math.exp(-2.0) / (2.0 * gamma(1.5))
        msg, partial, unscaled = str(info.value), info.value.partial, bare.partial
        assert partial == QuadratureResult(factor * unscaled.value,
                                           factor * unscaled.error_estimate, unscaled.evaluations)
        assert float(re.search(r"best estimate (\S+?),", msg).group(1)) == partial.value

        def level_changes(text):
            return [(float(h), float(d))
                    for h, d in re.findall(r"h=(\S+) (\S+?)(?:,|$)", text.split("levels: ")[1])]

        levels, bare_levels = level_changes(msg), level_changes(str(bare))
        assert [h for h, _ in levels] == [h for h, _ in bare_levels] and levels
        assert [d for _, d in levels] == pytest.approx([factor * d for _, d in bare_levels],
                                                       rel=1e-3)
        assert levels[-1][1] == pytest.approx(partial.error_estimate, rel=1e-3)


class TestLaplaceForms:
    def test_plus_sign_against_closed_form(self):
        # nu=1 reduces to erfc; both D factors have elementary values
        p = LaplaceParams(1.0, 2.5, 2.0)
        expected = 2.0 * math.exp(1.25) * pcf_d(-1.0, 2.0) * pcf_d(-1.0, -1.0)
        r = laplace_I(p, 1, 1e-10)
        assert r.value == pytest.approx(expected, rel=1e-10)

    def test_minus_sign_against_closed_form(self):
        p = LaplaceParams(1.0, 2.5, 2.0)
        expected = 2.0 * math.exp(1.25) * pcf_d(-1.0, 2.0) * pcf_d(-1.0, 1.0)
        r = laplace_I(p, -1, 1e-10)
        assert r.value == pytest.approx(expected, rel=1e-10)

    def test_vanishing_b_degenerates_cleanly(self):
        # at b = 0 the arguments collapse to sqrt(2a) and 0
        nu, a = 1.5, 2.0
        r = laplace_I(LaplaceParams(nu, a, 0.0), -1, 1e-10)
        expected = (2.0 * math.exp(0.5 * a) * gamma(nu)
                    * pcf_d(-nu, math.sqrt(2.0 * a)) * pcf_d(-nu, 0.0))
        assert r.value == pytest.approx(expected, rel=1e-9)

    def test_prefactor_consistency(self):
        # pure algebra ties the product form to the plus-sign transform
        q = ProductQuery(1.5, 2.2, 0.8)
        p = params_from_xy(q)
        lhs = (product_via_integral(q, 1e-11).value
               * 2.0 * gamma(q.nu) * math.exp(0.25 * (q.x**2 + q.y**2)))
        assert lhs == pytest.approx(laplace_I(p, 1, 1e-11).value, rel=1e-10)

    def test_sign_domains(self):
        with pytest.raises(DomainError):
            laplace_I(LaplaceParams(1.0, 2.0, 2.5), 1)   # needs a > b
        with pytest.raises(DomainError):
            laplace_I(LaplaceParams(1.0, 2.0, 0.0), 1)   # needs b > 0
        with pytest.raises(DomainError):
            laplace_I(LaplaceParams(1.0, 1.0, -2.0), -1)  # needs a + b > 0
        with pytest.raises(DomainError):
            laplace_I(LaplaceParams(1.0, 2.0, 1.0), 2)
