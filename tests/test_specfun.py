"""Scalar special functions: frozen high-precision values and recurrences."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfprod import DomainError, bessel_k_quarter, gamma, hermite, pcf_d

# frozen with an independent 30-digit oracle before the library was built
GAMMA_3_5 = 3.323350970447842551
K14_1 = 0.4307397744485855247
K14_2_5 = 0.06301715899861951558
D_M1_2 = 0.1550130765973308265
D_MHALF_3 = 0.05875654772929415284


class TestHermite:
    def test_low_orders(self):
        assert hermite(0, 0.7) == 1.0
        assert hermite(1, 0.7) == pytest.approx(1.4, rel=1e-15)
        assert hermite(2, 0.7) == pytest.approx(4 * 0.49 - 2, rel=1e-14)
        assert hermite(3, 0.7) == pytest.approx(8 * 0.7**3 - 12 * 0.7, rel=1e-14)

    @pytest.mark.parametrize("n", range(1, 16))
    def test_derivative_recurrence(self, n):
        # H_n'(x) = 2n H_{n-1}(x), checked by central differences
        h = 1e-5
        for x in (-3.0, -1.2, 0.4, 2.9):
            fd = (hermite(n, x + h) - hermite(n, x - h)) / (2 * h)
            exact = 2.0 * n * hermite(n - 1, x)
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-6)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            hermite(-1, 0.0)

    def test_matches_mpmath_sweep(self):
        # error in units of eps*sqrt(2^n n!) e^{x^2/2}, the scale Cramer's
        # bound gives H_n(x); 4.6 was the worst seen over 176 such x
        eps = np.finfo(float).eps
        rng = np.random.default_rng(17)
        worst = 0.0
        with mp.workdps(40):
            norms = [mp.sqrt(mp.mpf(2) ** n * mp.factorial(n)) * eps for n in range(200)]
            for x in [0.0, 6.0, -6.0, *rng.uniform(-6.0, 6.0, 13)]:
                growth = mp.exp(mp.mpf(x) ** 2 / 2)
                for n in range(200):
                    err = float(abs(hermite(n, x) - mp.hermite(n, x)) / (norms[n] * growth))
                    worst = max(worst, err)
                    assert err <= 6.0, (n, x, err)
        assert worst > 0.5  # the sweep reaches the rounding level it bounds

    @pytest.mark.parametrize("n,x", [(400, 0.0), (300, 1.0), (1000, 0.3), (401, 0.0),
                                     (601, -1.0)])
    def test_overflow_is_signed_infinity(self, n, x):
        # H_n(x) overflows a double (or is exactly 0) while h_n(x) stays finite
        got = hermite(n, x)
        with mp.workdps(40):
            ref = mp.hermite(n, x)
        if ref == 0:
            assert got == 0.0
        else:
            assert abs(ref) > sys.float_info.max
            assert got == math.copysign(math.inf, float(mp.sign(ref)))

    def test_never_nan(self):
        xs = np.linspace(-6.0, 6.0, 25)
        for n in range(0, 1500, 29):
            for x in xs:
                assert not math.isnan(hermite(n, float(x))), (n, x)


class TestGamma:
    def test_known_values(self):
        assert gamma(1.0) == 1.0
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert gamma(3.5) == pytest.approx(GAMMA_3_5, rel=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.01, max_value=19.0))
    def test_recurrence(self, nu):
        assert gamma(nu + 1.0) == pytest.approx(nu * gamma(nu), rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(DomainError):
            gamma(bad)


class TestBesselKQuarter:
    def test_frozen_values(self):
        assert bessel_k_quarter(1.0) == pytest.approx(K14_1, rel=1e-11)
        assert bessel_k_quarter(2.5) == pytest.approx(K14_2_5, rel=1e-11)

    def test_large_argument_asymptote(self):
        # K_nu(z) ~ sqrt(pi/(2z)) e^{-z} for large z
        z = 50.0
        ratio = bessel_k_quarter(z) / (math.sqrt(math.pi / (2 * z)) * math.exp(-z))
        assert abs(ratio - 1.0) < 0.01

    def test_monotone_decay(self):
        vals = [bessel_k_quarter(z) for z in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            bessel_k_quarter(0.0)


class TestPcfD:
    def test_order_zero(self):
        assert pcf_d(0.0, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_order_minus_one_at_zero(self):
        assert pcf_d(-1.0, 0.0) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-11)

    def test_frozen_negative_order_values(self):
        assert pcf_d(-1.0, 2.0) == pytest.approx(D_M1_2, rel=1e-11)
        assert pcf_d(-0.5, 3.0) == pytest.approx(D_MHALF_3, rel=1e-11)

    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.0, 4.0, 6.0])
    def test_erfc_closed_form_order_minus_one(self, z):
        closed = math.sqrt(math.pi / 2) * math.exp(0.25 * z * z) * math.erfc(z / math.sqrt(2))
        assert pcf_d(-1.0, z) == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.0, 4.0, 6.0])
    def test_bessel_closed_form_order_minus_half(self, z):
        closed = math.sqrt(z / (2 * math.pi)) * bessel_k_quarter(0.25 * z * z)
        assert pcf_d(-0.5, z) == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("n", range(9))
    def test_integer_order_oracle(self, n):
        # frozen 30-digit oracle values of D_n(1.3)
        oracle = [
            0.65540625432684049,
            0.85202813062489267,
            0.45223031548552002,
            -1.1161568511186093,
            -2.8076948529107522,
            0.81462409569045923,
            15.097485588951358,
            14.738986691494011,
            -86.521716423717291,
        ]
        assert pcf_d(float(n), 1.3) == pytest.approx(oracle[n], rel=1e-12)

    def test_step_recurrence_links_orders(self):
        # D_{nu+1}(z) = z D_nu(z) - nu D_{nu-1}(z) at nu = -1 ties the
        # integer branch to two negative-order integral evaluations
        z = 1.7
        lhs = pcf_d(0.0, z)
        rhs = z * pcf_d(-1.0, z) + pcf_d(-2.0, z)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_unsupported_orders_rejected(self):
        with pytest.raises(DomainError):
            pcf_d(0.5, 1.0)
        with pytest.raises(DomainError):
            pcf_d(21.0, 1.0)
        with pytest.raises(DomainError):
            pcf_d(-20.5, 1.0)
        with pytest.raises(DomainError):
            pcf_d(math.nan, 1.0)
