"""Oscillator Green function: spectral sum, closed form, ODE construction."""

import math

import mpmath as mp
import pytest

from pcfprod import (
    ConvergenceError,
    DomainError,
    GreenQuery,
    ProductQuery,
    eigenfunction,
    gamma,
    green,
    green_closed,
    green_ode_oracle,
    green_spectral,
    hermsum,
    integrate_finite,
    product_via_integral,
)

# frozen with an independent 30-digit oracle before the library was built
GREEN_0_1_0 = 0.2770674596149373465

BATTERY = [(lam, x, xp)
           for lam in (-3.0, -1.0, 0.0, 0.5)
           for x, xp in ((1.0, 0.0), (2.0, -1.0), (1.5, 0.5))]

# oracle edge points: the ends of its range, lambda just below the
# eigenvalue guard near the left end, a deep negative lambda, x = x'
ORACLE_EDGES = [(-4.0, 6.0, 0.0), (-4.0, 6.0, -6.0), (0.85, -5.4, -5.5),
                (0.85, 0.0, -5.5), (0.85, 6.0, -6.0), (-30.0, 1.0, 0.0),
                (-30.0, 6.0, -6.0), (0.0, 1.0, 1.0), (0.5, -6.0, -6.0)]


def green_closed_mp(lam, x, xp):
    """Titchmarsh closed form at 30 digits, x >= x'."""
    with mp.workdps(30):
        lam, x, xp = mp.mpf(lam), mp.mpf(x), mp.mpf(xp)
        nu = (lam - 1) / 2
        rt2 = mp.sqrt(2)
        return (mp.gamma((1 - lam) / 2) / (2 * mp.sqrt(mp.pi))
                * mp.pcfd(nu, x * rt2) * mp.pcfd(nu, -xp * rt2))


class TestEigenfunction:
    def test_ground_state_at_origin(self):
        assert eigenfunction(0, 0.0) == pytest.approx(math.pi**-0.25, rel=1e-14)

    def test_orthonormality(self):
        for m in range(7):
            for n in range(m, 7):
                # a zero integral cannot satisfy a relative tolerance;
                # the non-convergence partial still carries the value
                try:
                    v = integrate_finite(
                        lambda x: eigenfunction(m, x) * eigenfunction(n, x),
                        -10.0, 10.0, 1e-10).value
                except ConvergenceError as exc:
                    v = exc.partial.value
                expect = 1.0 if m == n else 0.0
                assert abs(v - expect) < 1e-9, (m, n)

    @pytest.mark.parametrize("n", [1, 4])
    def test_ode_residual(self, n):
        h = 1e-4
        for x in (-2.0, -0.5, 0.7, 1.8):
            y = eigenfunction(n, x)
            ypp = (eigenfunction(n, x + h) - 2 * y + eigenfunction(n, x - h)) / (h * h)
            assert abs(ypp + (2 * n + 1 - x * x) * y) < 1e-5

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            eigenfunction(-1, 0.0)


class TestThreeWayAgreement:
    def test_frozen_point(self):
        assert green_closed(GreenQuery(0.0, 1.0, 0.0)) == \
            pytest.approx(GREEN_0_1_0, rel=1e-10)

    @pytest.mark.parametrize("lam,x,xp", BATTERY)
    def test_spectral_vs_closed_vs_ode(self, lam, x, xp):
        q = GreenQuery(lam, x, xp)
        spectral = green_spectral(q, 5e-7).value
        closed = green_closed(q)
        ode = green_ode_oracle(q)
        assert spectral == pytest.approx(closed, rel=1e-6)
        assert ode == pytest.approx(closed, rel=1e-6)

    def test_spectral_symmetry(self):
        a = green_spectral(GreenQuery(-1.0, 1.2, 0.4), 1e-7).value
        b = green_spectral(GreenQuery(-1.0, 0.4, 1.2), 1e-7).value
        assert a == pytest.approx(b, rel=1e-12)


class TestShooter:
    @pytest.mark.parametrize("lam,x,xp", BATTERY + ORACLE_EDGES)
    def test_against_30_digit_closed_form(self, lam, x, xp):
        ode = green_ode_oracle(GreenQuery(lam, x, xp))
        ref = green_closed_mp(lam, x, xp)
        assert abs((ode - ref) / ref) < 1e-10

    @pytest.mark.parametrize("lam,t0,t1,y,yp", [
        (0.0, -8.0, 1.0, 1.0, 8.0),
        (-3.0, 8.0, -1.0, 1.0, -math.sqrt(67.0)),
        (0.85, 6.0, -5.5, 1e-3, -0.02),
        (-30.0, -8.0, 6.0, 1.0, math.sqrt(94.0)),
    ])
    def test_against_scipy_dop853(self, lam, t0, t1, y, yp):
        integrate = pytest.importorskip("scipy.integrate")
        sol = integrate.solve_ivp(lambda t, s: [s[1], (t * t - lam) * s[0]], [t0, t1],
                                  [y, yp], method="DOP853", rtol=1e-12, atol=1e-300)
        assert sol.success
        got = green.solve_ivp(lam, t0, t1, y, yp, 1e-11)
        assert got[0] == pytest.approx(sol.y[0, -1], rel=1e-9)
        assert got[1] == pytest.approx(sol.y[1, -1], rel=1e-9)

    def test_deterministic(self):
        q = GreenQuery(-1.3, 2.2, -0.7)
        assert green_ode_oracle(q) == green_ode_oracle(q)

    @pytest.mark.parametrize("x,xp,shoots", [(1.0, 0.0, 3), (0.0, 1.0, 3), (0.4, 0.4, 2)])
    def test_shoots_per_call(self, monkeypatch, x, xp, shoots):
        calls = []
        inner = green.solve_ivp

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(green, "solve_ivp", counting)
        green_ode_oracle(GreenQuery(0.0, x, xp))
        assert len(calls) == shoots

    def test_step_cap_is_a_convergence_error(self, monkeypatch):
        monkeypatch.setattr(green, "_MAX_STEPS", 3)
        with pytest.raises(ConvergenceError) as exc:
            green_ode_oracle(GreenQuery(0.0, 1.0, 0.0))
        msg = str(exc.value)
        assert "from t=-8.0 to t=0.0" in msg
        assert "after 3 steps" in msg and "step cap" in msg
        reached = float(msg.split("stopped at t=")[1].split()[0])
        assert -8.0 < reached < 0.0

    def test_non_finite_state_is_a_convergence_error(self):
        with pytest.raises(ConvergenceError, match=r"from t=0\.0 to t=1\.0 stopped at t=\S+ "
                                                    r"after \d+ steps: state is not finite"):
            green.solve_ivp(0.0, 0.0, 1.0, 1e308, 1e308, 1e-11)

    def test_step_rule_when_coefficients_vanish_in_pairs(self):
        # at t = 0 with lambda = 0 and y = 0 only c_1, c_5, c_9, ... are
        # nonzero, so c_23 = c_24 = 0 although the dropped terms are not
        with mp.workdps(30):
            ref = mp.odefun(lambda t, s: [s[1], t * t * s[0]], 0, [mp.mpf(0), mp.mpf(1)])(3)
        y, yp = green.solve_ivp(0.0, 0.0, 3.0, 0.0, 1.0, 1e-11)
        assert y == pytest.approx(float(ref[0]), rel=1e-12)
        assert yp == pytest.approx(float(ref[1]), rel=1e-12)


class TestStructure:
    def test_pole_residue(self):
        # near lambda_2 = 5 the sum is dominated by its n = 2 term;
        # averaging the two-sided samples cancels the regular part
        x, xp = 1.0, 0.3
        eps = 1e-3
        samples = [(5.0 - (5.0 + s)) * green_spectral(GreenQuery(5.0 + s, x, xp), 1e-8).value
                   for s in (eps, -eps)]
        residue = 0.5 * (samples[0] + samples[1])
        expected = eigenfunction(2, x) * eigenfunction(2, xp)
        assert residue == pytest.approx(expected, rel=1e-4)

    def test_derivative_jump_of_ode_solution(self):
        # unit negative slope jump across the source point, the
        # signature of the -delta convention the spectral sum obeys
        lam, xp, e = 0.0, 0.3, 1e-3
        g = lambda x: green_ode_oracle(GreenQuery(lam, x, xp))
        jump = (g(xp + e) - g(xp)) / e - (g(xp) - g(xp - e)) / e
        assert jump == pytest.approx(-1.0, abs=5e-3)

    def test_chain_to_product_representation(self):
        # lambda = 1 - 2 nu turns the closed form into the weighted
        # product; the spectral route must agree with the integral route
        nu = 0.75
        lam = 1.0 - 2.0 * nu
        x, xp = 1.4, 0.3
        spectral = green_spectral(GreenQuery(lam, x, xp), 5e-7).value
        rt2 = math.sqrt(2.0)
        prod = product_via_integral(ProductQuery(nu, x * rt2, xp * rt2), 1e-10).value
        assert spectral == pytest.approx(gamma(nu) / (2.0 * math.sqrt(math.pi)) * prod,
                                         rel=1e-6)


class TestGuards:
    def test_diagonal_spectral_sum_raises_after_one_capped_pass(self, monkeypatch):
        # x = x' is valid, but there the tail integral of the Abel-weighted
        # sum falls only like sqrt(1-u); one capped pass, then the error
        calls = []
        inner = hermsum.scaled_hermite_products
        monkeypatch.setattr(hermsum, "scaled_hermite_products",
                            lambda X, Y, count: calls.append(count) or inner(X, Y, count))
        with pytest.raises(ConvergenceError, match=r"candidates: 1-u=0\.5 tail ") as info:
            green_spectral(GreenQuery(0.0, 1.0, 1.0))
        partial = info.value.partial
        assert calls == [partial.terms_used]
        assert partial.terms_used <= 2 ** 19
        # the partial sum is in Green-function units, within its bound
        assert abs(partial.value - float(green_closed_mp(0.0, 1.0, 1.0))) <= partial.tail_bound

    @pytest.mark.parametrize("lam,x,xprime", [(math.nan, 1.0, 0.0), (0.0, math.inf, 0.0),
                                              (0.0, 1.0, math.nan)])
    def test_non_finite_query_is_rejected(self, lam, x, xprime):
        # max(1, nan) is 1, so a nan x' passed the oracle's range guard
        with pytest.raises(DomainError, match="needs finite lambda, x, x'"):
            GreenQuery(lam, x, xprime)

    def test_spectral_pole_guard(self):
        with pytest.raises(DomainError):
            green_spectral(GreenQuery(3.0 + 1e-8, 1.0, 0.0))

    def test_ode_guards(self):
        with pytest.raises(DomainError):
            green_ode_oracle(GreenQuery(1.05, 1.0, 0.0))  # too close to lambda_0
        with pytest.raises(DomainError):
            green_ode_oracle(GreenQuery(0.0, 7.0, 0.0))   # outside shooting range

    def test_closed_form_domain(self):
        with pytest.raises(DomainError):
            green_closed(GreenQuery(0.0, 0.0, 1.0))  # needs x > x'
        with pytest.raises(DomainError):
            green_closed(GreenQuery(1.5, 1.0, 0.0))  # needs lambda < 1
