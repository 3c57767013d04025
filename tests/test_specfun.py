"""Scalar special functions: frozen high-precision values and recurrences."""

import inspect
import math
import random
import sys
import types

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath_refs
from pcfprod import (DomainError, bessel_k_quarter, cli, gamma, glasser, green, hermite, hyperbolic,
                     mehler, pcf_d, quadrature, specfun)

# frozen with an independent 30-digit oracle before the library was built
GAMMA_3_5 = 3.323350970447842551
K14_1 = 0.4307397744485855247
K14_2_5 = 0.06301715899861951558
D_M1_2 = 0.1550130765973308265
D_MHALF_3 = 0.05875654772929415284
EPS = 2.0**-52


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
        xs = [*np.linspace(-6.0, 6.0, 25), *np.linspace(-100.0, 100.0, 41)]
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

    @pytest.mark.parametrize("nu", [172.0, 200.0, 1e300, math.inf])
    def test_overflow_is_a_domain_error(self, nu):
        # Gamma(171.6...) is the largest double; beyond it math.gamma raises OverflowError
        assert gamma(171.0) < sys.float_info.max
        with pytest.raises(DomainError):
            gamma(nu)


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

    def test_matches_mpmath(self):
        # K_{1/4}(z) = sqrt(pi/sqrt z) D_{-1/2}(2 sqrt z), with (2 sqrt z)^2
        # taken as 4z, not rounded: the error stays flat in z
        zs = np.concatenate([np.geomspace(1e-4, 300.0, 61), [2.25, 9.0, 22.0]])
        with mp.workdps(30):
            for z in map(float, zs):
                ref = mp.besselk(0.25, z)
                err = float(abs(bessel_k_quarter(z) - ref) / ref)
                assert err <= 16 * EPS, (z, err)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            bessel_k_quarter(bad)


# pcf_d bits of each branch, both ends of the Taylor route and a subnormal value: for
# |z| < 15 frozen from the loops on int counters, before the anchor memo; for |z| >= 15
# from the Poincare expansions, which moved D_{-1/2}(-30) from 11 to 0.3 eps off
# 40-digit mpmath and left D_{-1}(53.5) as it was
FROZEN_BITS = [
    (-0.5, -30.0, "0x1.92b1bff225760p+322"),
    (-7.5, -15.0, "0x1.1524f8aaf1a33p+97"),
    (-2.5, -1.0, "0x1.b34cf03ae5bd9p+1"),
    (-12.0, 0.0, "0x1.937e11175f095p-14"),
    (-0.5, 1e-12, "0x1.375e23df01638p+0"),
    (-2.5, 0.5, "0x1.9138e06d4fda3p-2"),
    (-12.0, 1.7, "0x1.2bb9b4b82c6a0p-22"),
    (-20.0, 2.5, "0x1.75e049fc08671p-46"),
    (-0.03, 2.999999, "0x1.a118261b0f7e0p-4"),
    (-0.5, 3.0, "0x1.e155695d8ab3bp-5"),
    (-2.5, 4.25, "0x1.f6c510c6ef960p-13"),
    (-12.0, 10.0, "0x1.0c7f00931461dp-77"),
    (-20.0, 15.0, "0x1.63e95737257f2p-161"),
    (-2.5, 20.0, "0x1.e10d7dd7ec085p-156"),
    (-1.0, 53.5, "0x0.0000f21de4ce3p-1022"),
    # seeded points that the continued fraction's stop (through the anchor at z = 3
    # below it) or the Poincare series' stop move by an ulp or two
    (-8.672623229413997, 0.11378332931698609, "0x1.b965329982b93p-9"),
    (-8.16389851331964, 1.6934572760134543, "0x1.18a04bd7a7367p-14"),
    (-19.73955204020454, 15.06996619897983, "0x1.8f781d08cd5c5p-161"),
]


class TestPcfD:
    @pytest.mark.parametrize("order,z,bits", FROZEN_BITS)
    def test_frozen_bits(self, order, z, bits):
        assert pcf_d(order, z).hex() == bits

    def test_anchor_memo_changes_no_bit(self):
        # the Taylor route reads D and D_{-nu-1}/D at z = 3 from a memo of 8 orders
        assert specfun._anchor.cache_info().maxsize == 8
        for order, z, bits in FROZEN_BITS:
            if 0.0 < z < 3.0:
                specfun._anchor.cache_clear()
                assert pcf_d(order, z).hex() == bits
                assert pcf_d(order, z).hex() == bits
                assert specfun._anchor.cache_info()[:2] == (1, 1)  # (hits, misses)

    def test_anchor_memo_keeps_an_interleaved_order(self):
        # a fixed order between fresh ones (EQ14's 1/2 among other checks' orders)
        # is computed once; a memo of the last order alone computed all 5
        specfun._anchor.cache_clear()
        for nu in (0.5, 1.3, 0.5, 2.7, 0.5):
            pcf_d(-nu, 1.0)
        assert specfun._anchor.cache_info().misses == 3

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
        # D_{-1/2}(z) = sqrt(z/(2 pi)) K_{1/4}(z^2/4); bessel_k_quarter is
        # built on that identity, so each side is checked against mpmath
        closed = math.sqrt(z / (2 * math.pi)) * bessel_k_quarter(0.25 * z * z)
        with mp.workdps(30):
            assert pcf_d(-0.5, z) == pytest.approx(float(mp.pcfd(-0.5, z)), rel=1e-14)
            ref = mp.sqrt(z / (2 * mp.pi)) * mp.besselk(0.25, mp.mpf(z) ** 2 / 4)
        assert closed == pytest.approx(float(ref), rel=1e-14)

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

    @pytest.mark.parametrize("n", [0, 1, 14, 20])
    @pytest.mark.parametrize("z", [40.0, 55.0, 60.0, 1e3, 1e51])
    def test_integer_order_far_out_matches_mpmath(self, n, z):
        # e^{-z^2/4} underflows before e^{-z^2/4} H_n does: D_20(55) = 2.2e-294
        # is a double, and D_14(1e51) is 0.0, not 0 * inf
        for x in (z, -z):
            with mp.workdps(40):
                ref = float(2 ** (-mp.mpf(n) / 2) * mp.exp(-mp.mpf(x) ** 2 / 4)
                            * mp.hermite(n, mp.mpf(x) / mp.sqrt(2)))
            got = pcf_d(float(n), x)
            assert abs(got - ref) <= 16 * EPS * max(1.0, x * x / 2) * abs(ref), (n, x, got, ref)

    def test_step_recurrence_links_orders(self):
        # D_{nu+1}(z) = z D_nu(z) - nu D_{nu-1}(z) at nu = -1 ties the
        # integer branch to two negative-order integral evaluations
        z = 1.7
        lhs = pcf_d(0.0, z)
        rhs = z * pcf_d(-1.0, z) + pcf_d(-2.0, z)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_matches_mpmath_sweep(self):
        # orders in [-20, -1e-9), |z| <= 53.5, dense near 0 and near 3, where
        # the route changes (mpmath_refs.PCF_D_ORDERS and PCF_D_ARGUMENTS); z^2/2
        # is D's condition number in z
        huge = mp.mpf(1e307)
        with mp.workdps(40):
            for (nu, z), ref in mpmath_refs.points("pcf_d_grid", exact=True):
                if ref > huge:
                    if ref > mp.mpf(sys.float_info.max):
                        with pytest.raises(DomainError):
                            pcf_d(-nu, z)
                    continue
                got = pcf_d(-nu, z)
                assert math.isfinite(got), (nu, z)
                if ref < mp.mpf(sys.float_info.min):  # subnormal: absolute error
                    assert abs(got - ref) <= 2.0**-1070, (nu, z)
                    continue
                err = float(abs(got - ref) / ref)
                assert err <= 16 * EPS * max(1.0, z * z / 2), (nu, z, err)

    def test_fraction_and_exponent_sweep(self):
        # orders log-uniform in [1e-9, 20] and z in [-80, 1000]: the fraction and
        # binary exponent that pcf_d_product multiplies, also where D is past a double
        with mp.workdps(40):
            for (nu, z), ref in mpmath_refs.points("pcf_d_far", exact=True):
                frac, n = specfun._pcf_d_negative_order_frexp(nu, z, z * z, 0.0)
                err = float(abs(mp.ldexp(frac, n) - ref) / ref)
                assert err <= 16 * EPS * max(1.0, z * z / 2), (nu, z, err)

    @pytest.mark.parametrize("nu", [1e-9, 0.03, 0.5, 1.0, 2.5, 12.2209, 20.0])
    def test_poincare_crossover(self, nu):
        # z = +-15, where the Poincare expansions take over from the sums, and the
        # ulp on each side of it
        with mp.workdps(40):
            for edge in (15.0, -15.0):
                for z in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0 * edge)):
                    ref = mp.pcfd(-nu, z)
                    err = float(abs(pcf_d(-nu, z) - ref) / ref)
                    assert err <= 16 * EPS * z * z / 2, (nu, z, err)

    @pytest.mark.parametrize("nu", [5e-324, 1e-310])
    @pytest.mark.parametrize("z", [-15.0, -40.0, -60.0])
    def test_subnormal_order(self, nu, z):
        # 1/Gamma(nu) = nu/Gamma(nu+1) with nu's binary exponent kept apart; at z = -15
        # the term cos(pi nu) D_{-nu}(15) ~ e^{-56} outweighs the one of order nu
        with mp.workdps(30):  # at 40 digits mpmath takes seconds here
            ref = mp.pcfd(-nu, z)
        assert abs(pcf_d(-nu, z) - ref) <= 16 * EPS * z * z / 2 * ref, (nu, z)

    @pytest.mark.parametrize("nu,z", [(19.7, 5.5e15), (7.3, 1e43), (2.5, 1e150)])
    def test_subnormal_power_at_a_non_integer_order(self, nu, z):
        # as a double z^-nu is subnormal (below 2^-1030 and 2^-1042) or 0.0 (1e-375):
        # the Poincare route takes it as m^-nu 2^(-r/d) 2^-k, for z = m 2^e and
        # e nu = k + r/d, so the scaled e^{z^2/4} D_{-nu}(z) costs no digits.  An
        # integer order has r = 0
        frac, n = specfun._pcf_d_negative_order_frexp(nu, z, z * z, 0.25 * z * z)
        with mp.workdps(50):
            ref = scaled_far_factor(nu, mp.mpf(z))
        assert abs(mp.ldexp(frac, n) - ref) <= 2 * EPS * ref, (nu, z)

    @pytest.mark.parametrize("n,z", [(5, -55.72742438417141), (1, -54.9)])
    def test_negative_underflow_is_positive_zero(self, n, z):
        # D_5(-55.7) and D_1(-54.9) are negative and below e^-746: 0.0, not -0.0
        assert math.copysign(1.0, pcf_d(n, z)) == 1.0 and pcf_d(n, z) == 0.0

    def test_power_one_bit_below_normal(self):
        # z^-19.7 = 1.41 2^-1023 keeps 52 bits as a double, one short: taken
        # exactly, the scaled factor is within a quarter eps of 50-digit mpmath
        nu, z = 19.7, 4212369161768572.0
        frac, n = specfun._pcf_d_negative_order_frexp(nu, z, z * z, 0.25 * z * z)
        with mp.workdps(50):
            ref = scaled_far_factor(nu, mp.mpf(z))
        assert abs(mp.ldexp(frac, n) - ref) <= 0.25 * EPS * ref

    def test_far_limit(self):
        # e^expo is split exactly from -2^21 ln 2 to (2^21 - 2^11) ln 2; below it is
        # 0.0, above it or at a nan an OverflowError.  D itself is within its bound
        # at z = +-2410, 0.0 past z = 2411.3 and a DomainError below -2410.2
        lo, hi = -2.0**21 * math.log(2.0), (2.0**21 - 2.0**11) * math.log(2.0)
        with mp.workdps(40):
            for expo in (lo, math.nextafter(lo, 0.0), -1e6, 1e6, hi):
                frac, n = specfun._exp_frexp(0.75, expo, 3)
                ref = 6 * mp.exp(expo)
                assert abs(mp.ldexp(frac, n) - ref) <= 2 * EPS * ref, expo
            for z in (2410.0, -2410.0):
                frac, n = specfun._pcf_d_negative_order_frexp(2.5, z, z * z, 0.0)
                ref = mp.pcfd(-2.5, z)
                assert abs(mp.ldexp(frac, n) - ref) <= 16 * EPS * z * z / 2 * ref
        for expo in (math.nextafter(lo, -math.inf), -math.inf):
            assert specfun._exp_frexp(0.75, expo, 3) == (0.0, 0)
        for expo in (math.nextafter(hi, math.inf), math.inf, math.nan):
            with pytest.raises(OverflowError):
                specfun._exp_frexp(0.75, expo, 3)
        assert pcf_d(-2.5, 2411.4) == 0.0
        with pytest.raises(DomainError, match="overflows a double"):
            pcf_d(-1e-9, -2410.2)

    @pytest.mark.parametrize("order,z", [(-1.0, -40.0), (-0.5, -53.0), (-15.0, -51.0)])
    def test_large_finite_values(self, order, z):
        with mp.workdps(30):
            ref = float(mp.pcfd(order, z))
        assert pcf_d(order, z) == pytest.approx(ref, rel=16 * EPS * z * z / 2)

    @pytest.mark.parametrize("order,z", [(-20.0, -53.0), (-1.0, -54.0), (-1e-9, -80.5)])
    def test_overflow_is_a_domain_error(self, order, z):
        with pytest.raises(DomainError, match="overflows a double"):
            pcf_d(order, z)

    def test_runs_no_quadrature(self, monkeypatch):
        def stub(*args, **kwargs):
            raise AssertionError("quadrature called")

        for module in (quadrature, specfun):
            for name in ("integrate_semi_infinite", "integrate_finite"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, stub)
        for z in (-30.0, -1.0, 0.0, 0.5, 2.9, 3.0, 10.0):
            assert pcf_d(-2.5, z) > 0.0
        for z in (1e-4, 1.0, 50.0):
            assert bessel_k_quarter(z) > 0.0

    def test_unsupported_orders_rejected(self):
        with pytest.raises(DomainError):
            pcf_d(0.5, 1.0)
        with pytest.raises(DomainError):
            pcf_d(21.0, 1.0)
        with pytest.raises(DomainError):
            pcf_d(-20.5, 1.0)
        # the range ends at 20 exactly, on either side
        assert pcf_d(-20.0, 1.0) > 0.0 and pcf_d(20.0, 1.0) != 0.0
        with pytest.raises(DomainError, match=r"order -20.1 outside supported range \[-20, 20\]"):
            pcf_d(-20.1, 1.0)
        with pytest.raises(DomainError):
            pcf_d(math.nan, 1.0)
        # an order within 1e-12 of a nonnegative integer is that integer, at
        # 1e-12 itself too
        assert pcf_d(2.0 + 0.999e-12, 1.0) == pcf_d(2.0, 1.0)
        assert pcf_d(1e-12, 1.0) == pcf_d(0.0, 1.0)
        with pytest.raises(DomainError, match="positive non-integer order"):
            pcf_d(2.0 + 1.001e-12, 1.0)


# every closed-form right side that ends in a product of two D values, by its caller
ROUTES = ("product_reference", "EQ11", "EQ12", "EQ15", "EQ14", "green_closed")


def right_side(route, p):
    """The right side that ``route`` forms from its parameters ``p``, with every
    left side stubbed out, and the one call it made to pcf_d_product, its
    arguments bound by name."""
    calls = []
    inner = specfun.pcf_d_product

    def spy(*args, **kwargs):
        calls.append(inspect.signature(inner).bind(*args, **kwargs))
        calls[-1].apply_defaults()
        return inner(*args, **kwargs)

    side = types.SimpleNamespace(value=1.0, evaluations=0, terms_used=0)
    with pytest.MonkeyPatch.context() as patch:
        for module in (specfun, glasser, green, hyperbolic):
            patch.setattr(module, "pcf_d_product", spy)
        patch.setattr(glasser, "laplace_I", lambda *args: side)
        patch.setattr(mehler, "sum_rule_lhs", lambda *args: side)
        patch.setattr(hyperbolic, "_record", lambda identity, params, lhs, q, rhs, tol: rhs)
        if route == "product_reference":
            value = glasser.product_reference(glasser.ProductQuery(p["nu"], p["x"], p["y"]))
        elif route == "EQ14":
            value = hyperbolic.k_identity_14(hyperbolic.HyperbolicQuery(a=p["a"], phi=p["phi"]))
        elif route == "green_closed":
            value = green.green_closed(green.GreenQuery(p["lam"], p["x"], p["xprime"]))
        else:
            value = cli.IDENTITIES[route]["run"](p, 1e-8).rhs
    (call,) = calls
    return value, call.arguments


def scaled_far_factor(nu, x):
    """e^{x^2/4} D_{-nu}(x) for x >= 1e6 by the DLMF 12.9.1 sum
    x^-nu sum_s (nu)_{2s} (-1/(2 x^2))^s / s!, whose terms fall by about
    nu^2/x^2: at x = 1.4e75 mpmath's pcfd is off by a factor past e^{1e150}."""
    return x ** -nu * mp.fsum(mp.rf(nu, 2 * s) * (-1 / (2 * x * x)) ** s / mp.factorial(s)
                              for s in range(8))


def log_d_bound(nu, v, scaled=False):
    """An upper bound on log D_{-nu}(v), from D's integral (DLMF 12.5.1):
    v^-nu e^{-v^2/4} for v > 0, as e^{-t^2/2} < 1, and
    e^{3v^2/4} 2^{nu-1} Gamma(nu/2)/Gamma(nu) for v <= 0, as -vt <= v^2 + t^2/4;
    with ``scaled``, on log e^{v^2/4} D_{-nu}(v), the v^2/4 added exactly."""
    if v > 0:
        return -nu * mp.log(v) - (0 if scaled else v * v / 4)
    return ((v * v if scaled else 3 * v * v / 4) + (nu - 1) * mp.log(2)
            + mp.loggamma(nu / 2) - mp.loggamma(nu))


def assert_rounds_to_zero(args):
    """The product is below 2^-1075: by the bounds of :func:`log_d_bound`, or
    else with each factor up to z = 98 from 40-digit mpmath (which takes
    seconds at an order and a negative z both near 1e-300); a scaled factor
    with its own e^{v^2/4}."""
    with mp.workdps(40):
        nu, zw, scaled = mp.mpf(args["nu"]), (mp.mpf(args["z"]), mp.mpf(args["w"])), args["scaled"]
        prefactor, zero = mp.log(args["factor"]), -1075 * mp.log(2)
        if prefactor + sum(log_d_bound(nu, v, scaled) for v in zw) < zero:
            return
        exact = sum(log_d_bound(nu, v, scaled) if v > 98
                    else mp.log(mp.pcfd(-nu, v)) + (v * v / 4 if scaled else 0) for v in zw)
        assert prefactor + exact < zero, args


class TestErfcx:
    def test_against_mpmath(self):
        # e^{x^2} erfc(x) rounds x^2 in its exponential, up to x^2 = 112.5; the
        # Poincare expansion from there is within a few ulps
        rng = random.Random(7)
        points = [0.0, 1e-300, 10.6, 10.61, 15 / math.sqrt(2), 1e154, 1e200]
        points += [math.exp(rng.uniform(math.log(1e-3), math.log(1e6))) for _ in range(300)]
        for x in points:
            value = specfun.erfcx(x)
            with mp.workdps(40):
                # mpmath's erfc raises past about 1e150; there erfcx is 1/(x sqrt(pi))
                # to 1e-300
                ref = (mp.exp(mp.mpf(x) ** 2) * mp.erfc(x) if x < 1e100
                       else 1 / (mp.mpf(x) * mp.sqrt(mp.pi)))
                err = abs(value - ref) / ref
            # e^{x^2} erfc(x) at 10.61 would be 22 ulps off
            bound = EPS * (2 + x * x) if x * x < 112.5 else 2 * EPS
            assert 0.0 < value <= 1.0 and err <= bound, (x, value, ref)
        assert specfun.erfcx(math.inf) == 0.0


class TestPcfDProduct:
    @pytest.mark.parametrize("route", ["EQ11", "EQ12", "EQ15", "EQ14", "green_closed"])
    def test_against_mpmath(self, route):
        # within pcf_d's bound, 16 eps max(1, z^2/2), for each factor; a value
        # below the normal range within one subnormal step more
        for p, ref in mpmath_refs.points(f"right_side_{route}", exact=True):
            value, args = right_side(route, p)
            bound = 16 * EPS * sum(max(1.0, v * v / 2) for v in (args["z"], args["w"]))
            assert abs(value - ref) <= bound * abs(ref) + 2.0**-1074, (route, p, value, ref)

    def test_overflow_is_a_domain_error(self):
        # e^{750} D_{-1}(38.7) D_{-1}(-38.7) is past a double
        with pytest.raises(DomainError, match="overflows a double"):
            right_side("EQ11", {"nu": 1.0, "a": 1500.0, "b": 1499.0})
        # D_{-1}(-30)^2 is about e^{450}, and e^{900} with each factor scaled
        assert math.isfinite(specfun.pcf_d_product(1.0, -30.0, 900.0, -30.0, 900.0))
        with pytest.raises(DomainError, match="overflows a double"):
            specfun.pcf_d_product(1.0, -30.0, 900.0, -30.0, 900.0, scaled=True)
        with pytest.raises(DomainError, match="overflows a double"):
            specfun.pcf_d_product(1.0, -79.0, 6241.0, -79.0, 6241.0)

    def test_infinite_factor_is_a_domain_error(self):
        # 2 Gamma(nu) is inf below nu of about 1.1e-308: the product is past a
        # double, not inf
        with pytest.raises(DomainError, match="overflows a double"):
            specfun.pcf_d_product(1.0, 1.0, 1.0, 1.0, 1.0, factor=math.inf)
        with pytest.raises(DomainError, match="overflows a double"):
            right_side("EQ11", {"nu": 1.1125369292536007e-308, "a": 1500.0, "b": 1.0})

    @pytest.mark.parametrize("route,p", [
        # D_{-1}(-100) overflows a double, but not its product with D_{-1}(100.5)
        ("product_reference", {"nu": 1.0, "x": 100.5, "y": 100.0}),
        # x = 100 and 1414, and e^{a/2} lifts the product back into range
        ("EQ11", {"nu": 1.0, "a": 5000.0, "b": 10.0}),
        ("EQ11", {"nu": 1.0, "a": 1e6, "b": 10.0}),
        # factors past |z| = 1700: 4.7e-47, and G = 1.75e-134 at z = 2121
        ("product_reference", {"nu": 1.0, "x": 2000.0, "y": 1999.9}),
        ("green_closed", {"lam": -3.0, "x": 1500.0, "xprime": 1499.8}),
    ], ids=["EQ10-x=100.5", "EQ11-a=5000", "EQ11-a=1e6", "EQ10-x=2000", "green-x=1500"])
    def test_past_the_old_limits(self, route, p):
        # factors past z = 98 and below -80 were not evaluated, nor past |z| = 1700
        value, args = right_side(route, p)
        ref = mpmath_refs.right_side(route, p)
        bound = 16 * EPS * sum(max(1.0, v * v / 2) for v in (args["z"], args["w"]))
        assert abs(value - ref) <= bound * ref, (route, p, value, ref)

    @pytest.mark.parametrize("route", ["EQ11", "EQ12"])
    @pytest.mark.parametrize("nu,a,b", [(1.0, 1e6, 10.0), (11.2, 1385.0, 134.0),
                                        (1.0, 5000.0, 10.0)])
    def test_scaled_laplace_right_side(self, route, nu, a, b):
        # 2 Gamma(nu) [e^{x^2/4} D(x)] [e^{y^2/4} D(-+y)], as a/2 = (x^2 + y^2)/4:
        # e^{a/2} set against factors of a rounded x was off by 7.9e-11, 5.3e-14
        # and 2.5e-13 on EQ11
        p = {"nu": nu, "a": a, "b": b}
        value, args = right_side(route, p)
        assert args["scaled"]
        ref = mpmath_refs.right_side(route, p, dps=50)
        assert abs(value - ref) <= 1e-15 * ref, (route, p, value, ref)

    @pytest.mark.parametrize("route,a", [("EQ11", 2e6), ("EQ12", 2e6), ("EQ12", 1e20)])
    def test_laplace_right_side_past_the_old_bound(self, route, a):
        # x = 2000 and 1.4e10, where the scaled factor was bounded, not evaluated
        # (EQ11 at 1e20 below); within pcf_d's 16 eps, which D_{-1}(7.1e-10), the
        # other factor of EQ12 at a = 1e20, takes 5.4 eps of
        p = {"nu": 1.0, "a": a, "b": 10.0}
        value, args = right_side(route, p)
        ref = mpmath_refs.right_side(route, p, dps=50)
        assert abs(value - ref) <= 16 * EPS * ref, (route, p, value, ref)

    @pytest.mark.parametrize("a", [1e20, 1e150])
    def test_far_factor_under_a_large_prefactor(self, a):
        # x = 1.4e10 and 1.4e75, under e^{a/2}: the scaled factor x^-nu times its
        # Poincare sum has no exponential left, and is evaluated, not bounded
        p = {"nu": 1.0, "a": a, "b": 10.0}
        value, args = right_side("EQ11", p)
        with mp.workdps(50):
            big, b = mp.mpf(a), mp.mpf(10)
            x = mp.sqrt(big + mp.sqrt((big - b) * (big + b)))
            y = b / x
            ref = 2 * scaled_far_factor(1, x) * mp.exp(y * y / 4) * mp.pcfd(-1, -y)
        assert abs(value - ref) <= 1e-15 * ref, (a, value, ref)

    def test_subnormal_power_of_a_scaled_factor(self):
        # x^-20 = 1e-320 at x = 1e16 is subnormal: kept as a fraction and a binary
        # exponent it costs no digits (as a double it cost 1.1e-5 relative)
        value = specfun.pcf_d_product(20.0, 1e16, 1e32, 0.0, 0.0, factor=1e300, scaled=True)
        with mp.workdps(50):
            ref = 1e300 * scaled_far_factor(20, mp.mpf(1e16)) * mp.pcfd(-20, 0)
        assert abs(value - ref) <= 1e-15 * ref, (value, ref)

    def test_no_silent_zero_past_the_split(self):
        # D_{-1}(2411.5) is past the exact split, and D_{-1}(-2411) is not: their
        # product, 1.65e-265, is a DomainError, never 0.0
        with pytest.raises(DomainError, match="past the exact split"):
            right_side("product_reference", {"nu": 1.0, "x": 2411.5, "y": 2411.0})

    def test_far_factor_underflows(self):
        # a factor past 98 underflows with the other factor and the prefactor: 0.0
        # for the largest D_{-20}(-80) and Gamma(20); past z = 2411 (EQ14, where
        # 4a cosh^2(phi/2) overflows) the factor is 0.0 itself
        for route, p in (("green_closed", {"lam": -39.0, "x": 69.4, "xprime": 56.5}),
                         ("EQ15", {"nu": 20.0, "x": 98.01, "y": 80.0}),
                         ("EQ14", {"a": 1e5, "phi": 700.0})):
            value, args = right_side(route, p)
            assert value == 0.0 and max(args["z"], args["w"]) > 98.0
            assert_rounds_to_zero(args)

    def test_nan_argument_is_a_domain_error(self):
        with pytest.raises(DomainError):
            specfun.pcf_d_product(1.0, math.nan, math.nan, 1.0, 1.0)
        with pytest.raises(DomainError):
            specfun.pcf_d_product(1.0, 1.0, 1.0, math.nan, math.nan)

    @pytest.mark.parametrize("route", ROUTES)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_finite_value_or_domain_error(self, route, data):
        # any finite input: a finite value or a DomainError, and 0.0 only where the
        # product rounds to 0
        # a band of |v| in [1500, 2600] holds z = 1700, the old bound, and the ends of
        # the exact split at 2410.2 and 2411.3 (EQ11/EQ12 reach them from a = 1.1e6)
        real = st.one_of(st.floats(-120.0, 120.0), st.floats(1500.0, 2600.0),
                         st.floats(-2600.0, -1500.0), st.floats(1.1e6, 3.4e6),
                         st.floats(allow_nan=False, allow_infinity=False))
        nu = st.floats(0.0, 20.0, exclude_min=True)
        names = {"product_reference": ("nu", "x", "y"), "EQ11": ("nu", "a", "b"),
                 "EQ12": ("nu", "a", "b"), "EQ15": ("nu", "x", "y"), "EQ14": ("a", "phi"),
                 "green_closed": ("lam", "x", "xprime")}[route]
        p = data.draw(st.fixed_dictionaries({name: nu if name == "nu" else real for name in names}))
        try:
            value, args = right_side(route, p)
        except DomainError:
            return
        assert isinstance(value, float) and math.isfinite(value), (route, p, value)
        if value == 0.0:
            assert_rounds_to_zero(args)
