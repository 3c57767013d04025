"""Oscillator Green function: spectral sum, closed form, ODE construction."""

import math
import re
import statistics
import sys

import mpmath as mp
import pytest

import mpmath_refs
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

# lambda near the oracle's limit of 64, and the x, x' each is checked at
NEAR_LIMIT = (20.5, 40.5, 60.5, 63.5)
NEAR_LIMIT_XS = ((1.0, 0.0), (4.0, -2.5), (6.0, -6.0))


def _beside(eigenvalue, d):
    """eigenvalue + d, moved outward by the ulps the oracle's guard needs
    (5 - 0.1 rounds to within 0.1 of 5)."""
    lam = eigenvalue + d
    while green._eigen_distance(lam) < 0.1:
        lam = math.nextafter(lam, math.copysign(math.inf, d))
    return lam


# lambda 0.1 and 0.15 from 3, 5, ..., 11, where u(0) (odd n) or u'(0) (even n)
# of the shot solution is small, and the x, x' each is checked at
BESIDE_EIGENVALUES = [_beside(2 * n + 1, d) for n in range(1, 6) for d in (-0.15, -0.1, 0.1, 0.15)]
BESIDE_EIGENVALUES_XS = ((1.0, 0.0), (2.0, 0.3), (0.0, -3.0))


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

    @pytest.mark.parametrize("n", mpmath_refs.EIGENFUNCTION_DEGREES)
    def test_large_degree_matches_mpmath(self, n):
        # e^{-x^2/2} is applied to h_n's binary exponent: y_2985(40) is
        # -0.0122842067, where e^{-800} underflows and h_2985(40) overflows
        for (m, x), exact in mpmath_refs.points("eigenfunction"):
            if m != n:
                continue
            err = abs(eigenfunction(n, x) - exact)
            assert err <= 8 * 2.0**-52 * (1.0 + abs(x)), (n, x, err)
        assert eigenfunction(2985, 40.0) == pytest.approx(-0.0122842067022129, rel=1e-13)

    def test_underflow_is_zero(self):
        # beyond every turning point the value underflows to 0.0, never nan
        assert eigenfunction(100, 45.0) == 0.0
        assert eigenfunction(5, 1e200) == 0.0 and eigenfunction(5, -1.7e308) == 0.0


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
        ref = mpmath_refs.green_closed(lam, x, xp)
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
        got = green.solve_ivp(lam, t0, t1, y, yp)
        assert got[0] == pytest.approx(sol.y[0, -1], rel=1e-9)
        assert got[1] == pytest.approx(sol.y[1, -1], rel=1e-9)

    @pytest.mark.parametrize("lam", NEAR_LIMIT)
    def test_near_the_lambda_limit(self, lam):
        # L = 7 + sqrt(lambda) keeps the shooting point 7 units past the turning point;
        # from L = 8 the error at x = 1, x' = 0 was 8e-7 at lambda = 40.5 and 4e-2 at 60.5
        for x, xp in NEAR_LIMIT_XS:
            ode = green_ode_oracle(GreenQuery(lam, x, xp))
            ref = mpmath_refs.green_closed(lam, x, xp)
            assert abs((ode - ref) / ref) < 1e-10, (lam, x, xp)

    @pytest.mark.parametrize("lam", BESIDE_EIGENVALUES)
    def test_beside_an_eigenvalue(self, lam):
        # W = -2 u(0) u'(0) is a product, so a small factor costs it no digits
        for x, xp in BESIDE_EIGENVALUES_XS:
            ode = green_ode_oracle(GreenQuery(lam, x, xp))
            ref = mpmath_refs.green_closed(lam, x, xp)
            assert abs((ode - ref) / ref) < 1e-10, (lam, x, xp)

    def test_error_over_a_seeded_sweep(self):
        # the README's bound: 3.0e-13 relative at worst; the worst here is
        # 6.9e-14 with one mirrored shoot (8.0e-14 shooting from both ends).
        # In units of eps times the condition number the lambda > 1 half errs
        # by 0.18 on average (0.19 from both ends, 0.23 at Taylor order 24)
        sweep = [(*p, ref, kappa) for p, (ref, kappa) in mpmath_refs.points("green_oracle")]
        errors = [abs(green_ode_oracle(GreenQuery(lam, x, xp)) / ref - 1.0)
                  for lam, x, xp, ref, _ in sweep]
        worst = max(zip(errors, sweep))
        assert worst[0] <= 3.0e-13, worst
        oscillating = [err / (sys.float_info.epsilon * kappa)
                       for err, (lam, *_, kappa) in zip(errors, sweep) if lam > 1.0]
        assert statistics.fmean(oscillating) < 0.3

    def test_step_count(self, monkeypatch):
        # the shooter's cost, counted without a clock: no shoot at the tested
        # points takes more than 28 steps (35 shooting from both ends, 53 at
        # Taylor order 24)
        monkeypatch.setattr(green, "_MAX_STEPS", 28)
        points = (BATTERY + ORACLE_EDGES
                  + [(lam, x, xp) for lam in NEAR_LIMIT for x, xp in NEAR_LIMIT_XS]
                  + [(lam, x, xp) for lam in BESIDE_EIGENVALUES for x, xp in BESIDE_EIGENVALUES_XS])
        for lam, x, xp in points:
            green_ode_oracle(GreenQuery(lam, x, xp))

    # the oracle's bits at three points: a change to the shooter's order, step
    # rule or Horner sum, or to the oracle's starting point or data, moves them by
    # a few ulps, inside every accuracy bound above; re-pin only with a change
    # that means to move them
    PINNED = [((0.10117506511623908, -1.6321047956231394, -2.9446886268357537),
               0.012943319032118027),
              ((-3.321236698897116, -2.3561868207200813, -3.983373634877064),
               0.00035941131025474677),
              ((40.5, 1.0, 0.0), 0.1861592300353727)]

    @pytest.mark.parametrize("args,value", PINNED, ids=[str(a[0]) for a, _ in PINNED])
    def test_pinned_bits(self, args, value):
        assert green_ode_oracle(GreenQuery(*args)) == value

    def test_deterministic(self):
        q = GreenQuery(-1.3, 2.2, -0.7)
        assert green_ode_oracle(q) == green_ode_oracle(q)

    # (x, x', the stops of the one shoot)
    SHOOTS = [(1.0, 0.0, [-1.0, 0.0]), (0.0, 1.0, [-1.0, 0.0]), (0.4, 0.4, [-0.4, 0.0, 0.4]),
              (2.0, -3.0, [-3.0, -2.0, 0.0]), (1.5, -1.5, [-1.5, 0.0]), (0.0, 0.0, [0.0]),
              (-0.5, -2.0, [-2.0, 0.0, 0.5])]

    @pytest.mark.parametrize("x,xp,stops", SHOOTS, ids=[f"{x}-{xp}" for x, xp, _ in SHOOTS])
    def test_shoots_per_call(self, monkeypatch, x, xp, stops):
        # one shoot from -L, in one solve_ivp call per distinct stop of
        # {x<, -x>, 0}, each from where the last one ended
        calls = []
        inner = green.solve_ivp

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(green, "solve_ivp", counting)
        green_ode_oracle(GreenQuery(0.0, x, xp))
        assert [t1 for _, _, t1, _, _ in calls] == stops
        assert [t0 for _, t0, _, _, _ in calls] == [-8.0] + stops[:-1]

    def test_step_cap_is_a_convergence_error(self, monkeypatch):
        monkeypatch.setattr(green, "_MAX_STEPS", 3)
        with pytest.raises(ConvergenceError) as exc:
            green_ode_oracle(GreenQuery(0.0, 1.0, 0.0))
        msg = str(exc.value)
        assert "from t=-8.0 to t=-1.0" in msg
        assert "after 3 steps" in msg and "step cap" in msg
        reached = float(msg.split("stopped at t=")[1].split()[0])
        assert -8.0 < reached < -1.0

    def test_step_cap_at_its_value(self):
        # 1000 steps of at most 2.5 radians each cover 2.5 of the 5 units at lambda 1e6
        with pytest.raises(ConvergenceError, match=r"at t=2\.\d+ after 1000 steps: step cap"):
            green.solve_ivp(1e6, 0.0, 5.0, 1.0, 0.0)

    def test_non_finite_state_is_a_convergence_error(self):
        with pytest.raises(ConvergenceError, match=r"from t=0\.0 to t=1\.0 stopped at t=\S+ "
                                                    r"after \d+ steps: state is not finite"):
            green.solve_ivp(0.0, 0.0, 1.0, 1e308, 1e308)

    def test_step_rule_when_coefficients_vanish_in_pairs(self):
        # at t = 0 with lambda = 0 and y = 0 only c_1, c_5, c_9, ... are
        # nonzero, so c_34 = c_35 = c_36 = 0 although the dropped terms are not;
        # with y' = 0 only c_0, c_4, ..., so c_33 = c_34 = c_35 = 0
        for y0, yp0 in ((0.0, 1.0), (1.0, 0.0)):
            with mp.workdps(30):
                ref = mp.odefun(lambda t, s: [s[1], t * t * s[0]], 0,
                                [mp.mpf(y0), mp.mpf(yp0)])(3)
            y, yp = green.solve_ivp(0.0, 0.0, 3.0, y0, yp0)
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
        assert abs(partial.value - float(mpmath_refs.green_closed(0.0, 1.0, 1.0))) <= partial.tail_bound

    @pytest.mark.parametrize("lam,x,xprime", [(math.nan, 1.0, 0.0), (0.0, math.inf, 0.0),
                                              (0.0, 1.0, math.nan)])
    def test_non_finite_query_is_rejected(self, lam, x, xprime):
        # max(1, nan) is 1, so a nan x' passed the oracle's range guard
        with pytest.raises(DomainError, match="needs finite lambda, x, x'"):
            GreenQuery(lam, x, xprime)

    def test_spectral_sum_runs_at_half_the_tolerance(self, monkeypatch):
        tols = []
        inner = green.bilinear_hermite_sum
        monkeypatch.setattr(green, "bilinear_hermite_sum",
                            lambda *args, **kwargs: tols.append(args[3]) or inner(*args, **kwargs))
        green_spectral(GreenQuery(0.0, 1.0, 0.0), 1e-6)
        assert tols == [5e-7]

    @pytest.mark.parametrize("lam", [1.0, 3.0, 5.0, 11.0])
    def test_spectral_sum_at_an_eigenvalue_is_a_pole(self, lam):
        with pytest.raises(DomainError, match="pole"):
            green_spectral(GreenQuery(lam, 1.0, 0.0))

    def test_spectral_sum_beside_an_eigenvalue(self):
        # within 1e-14 to 1e-7 of lambda = 1, 3, 5, on either side: the pole's
        # term dominates and the sum meets its tol against 40-digit mpmath
        tol = 1e-8
        for (lam, x, xp), exact in mpmath_refs.points("green_beside_eigenvalue"):
            got = green_spectral(GreenQuery(lam, x, xp), tol).value
            assert abs(got - exact) <= tol * abs(exact), (lam, x, xp)

    def test_ode_guards(self):
        with pytest.raises(DomainError):
            green_ode_oracle(GreenQuery(1.05, 1.0, 0.0))  # too close to lambda_0
        with pytest.raises(DomainError):
            green_ode_oracle(GreenQuery(0.0, 7.0, 0.0))   # outside shooting range

    def test_ode_guard_edges(self):
        # the range ends at |x| = 6, and the pole guard 0.1 from each eigenvalue
        green_ode_oracle(GreenQuery(0.0, 6.0, -6.0))
        with pytest.raises(DomainError, match=r"oracle supports \|x\|, \|x'\| <= 6\.0$"):
            green_ode_oracle(GreenQuery(0.0, 6.05, 0.0))
        for lam in (0.905, 1.095, 2.905, 3.095, 62.905):
            with pytest.raises(DomainError, match=f"lambda={lam} within 0.1 of an eigenvalue"):
                green_ode_oracle(GreenQuery(lam, 1.0, 0.0))
        for lam in (0.895, 1.105, 2.895, 3.105, 62.895):
            assert math.isfinite(green_ode_oracle(GreenQuery(lam, 1.0, 0.0)))

    @pytest.mark.parametrize("lam", [64.0, 700.0, 1e300])
    def test_ode_needs_lambda_below_shooting_point_squared(self, lam):
        # the oracle is checked below lambda = 64; a math ValueError once
        with pytest.raises(DomainError, match="requires lambda < 64, .*" + re.escape(f"={lam}")):
            green_ode_oracle(GreenQuery(lam, 1e-300, 2.2))

    def test_closed_form_domain(self):
        with pytest.raises(DomainError):
            green_closed(GreenQuery(0.0, 0.0, 1.0))  # needs x > x'
        for lam in (1.5, 1.0):  # needs lambda < 1
            with pytest.raises(DomainError, match="closed form requires lambda < 1"):
                green_closed(GreenQuery(lam, 1.0, 0.0))
