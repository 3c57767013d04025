"""Quadrature engines: closed-form integrals, frame invariance, determinism."""

import math
import re
import sys
import threading
from collections import Counter

import mpmath
import numpy as np
import pytest

from pcfprod import (
    ConvergenceError,
    DomainError,
    integrate_finite,
    integrate_semi_infinite,
    pcf_d,
    quadrature,
)

SQRT_PI = math.sqrt(math.pi)


def _set_levels(monkeypatch, levels):
    """Stop both engines after ``levels`` refinement levels."""
    monkeypatch.setattr(quadrature, "_SEMI_INFINITE_LEVELS", levels)
    monkeypatch.setattr(quadrature, "_FINITE_LEVELS", levels)


class TestSemiInfinite:
    def test_exponential(self):
        r = integrate_semi_infinite(lambda t: math.exp(-t),
                                    1.0, 1e-10)
        assert r.value == pytest.approx(1.0, rel=1e-12)
        assert r.error_estimate >= 0.0
        assert r.evaluations > 0

    def test_gamma_half_singular_endpoint(self):
        r = integrate_semi_infinite(lambda t: t**-0.5 * math.exp(-t),
                                    1.0, 1e-12)
        assert r.value == pytest.approx(SQRT_PI, rel=1e-12)

    def test_gaussian(self):
        r = integrate_semi_infinite(lambda t: math.exp(-t * t),
                                    1.0, 1e-12)
        assert r.value == pytest.approx(0.5 * SQRT_PI, rel=1e-12)

    def test_algebraic_tail_fallback(self):
        # decay_rate 0 selects the slow-tail transform; t^{-3/2} tail
        r = integrate_semi_infinite(lambda t: (1.0 + t)**-1.5,
                                    0.0, 1e-8)
        assert r.value == pytest.approx(2.0, rel=1e-7)


class TestFinite:
    def test_unit(self):
        r = integrate_finite(lambda x: 1.0, 0.0, 1.0, 1e-10)
        assert r.value == pytest.approx(1.0, rel=1e-13)

    def test_beta_half_half(self):
        # singular at both representable endpoints: accuracy is limited
        # by float resolution around the endpoints, about 2e-8 absolute
        r = integrate_finite(lambda u: u**-0.5 * (1.0 - u)**-0.5, 0.0, 1.0, 1e-6)
        assert abs(r.value - math.pi) < 1e-7

    def test_gaussian_window(self):
        exact = math.erf(4.0) * SQRT_PI
        r = integrate_finite(lambda x: math.exp(-x * x), -4.0, 4.0, 1e-12)
        assert r.value == pytest.approx(exact, rel=1e-12)


class TestFrameInvariance:
    """The semi-infinite integral and its u = sqrt(t/(1+t)) pullback to
    (0, 1) must agree; the finite frame carries the factor
    2 u^{2nu-1} (1-u^2)^{-1/2}, with the -1/2 exponent fixed by this
    very equivalence (a naive bookkeeping slip would give nu - 3/2)."""

    @staticmethod
    def _semi_inf(nu, a, b, tol):
        def f(t):
            expo = -a * t + b * math.sqrt(t * (t + 1.0))
            if expo < -745.0:
                return 0.0
            return t**(nu - 1.0) * (1.0 + t)**(-nu - 0.5) * math.exp(expo)
        return integrate_semi_infinite(f, a - b, tol).value

    @staticmethod
    def _finite(nu, a, b, tol, exponent=-0.5):
        def g(u):
            om = (1.0 - u) * (1.0 + u)
            expo = (-a * u * u + b * u) / om
            if expo < -745.0:
                return 0.0
            return 2.0 * u**(2.0 * nu - 1.0) * om**exponent * math.exp(expo)
        return integrate_finite(g, 0.0, 1.0, tol).value

    def test_random_parameter_sweep(self):
        rng = np.random.default_rng(20260824)
        for _ in range(50):
            nu = rng.uniform(0.5, 6.0)
            b = rng.uniform(0.1, 4.0)
            a = b + rng.uniform(0.05, 3.0)
            v1 = self._semi_inf(nu, a, b, 1e-11)
            v2 = self._finite(nu, a, b, 1e-11)
            assert v2 == pytest.approx(v1, rel=1e-8), (nu, a, b)

    def test_wrong_exponent_is_distinguishable(self):
        nu, a, b = 2.0, 2.5, 2.0
        right = self._finite(nu, a, b, 1e-11)
        wrong = self._finite(nu, a, b, 1e-11, exponent=nu - 1.5)
        truth = self._semi_inf(nu, a, b, 1e-11)
        assert right == pytest.approx(truth, rel=1e-9)
        assert abs(wrong - truth) / abs(truth) > 1e-2


class TestConvergenceBehavior:
    TOLS = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)

    def _errors(self, run, exact):
        return [abs(run(tol) - exact) for tol in self.TOLS]

    def test_tightening_tol_never_hurts(self):
        batteries = [
            (lambda tol: integrate_semi_infinite(
                lambda t: t**-0.5 * math.exp(-t), 1.0, tol).value,
             SQRT_PI),
            (lambda tol: integrate_semi_infinite(
                lambda t: math.exp(-t * t), 1.0, tol).value,
             0.5 * SQRT_PI),
            (lambda tol: integrate_finite(
                lambda x: math.exp(-x * x), -4.0, 4.0, tol).value,
             math.erf(4.0) * SQRT_PI),
        ]
        for run, exact in batteries:
            errs = self._errors(run, exact)
            for coarse, fine in zip(errs, errs[1:]):
                assert fine <= coarse + 1e-15  # slack for machine-level jitter
            for tol, err in zip(self.TOLS, errs):
                assert err <= tol * abs(exact) + 1e-15

    def test_determinism(self):
        def f(t):
            return t**0.3 * math.exp(-2.0 * t)
        a = integrate_semi_infinite(f, 2.0, 1e-11)
        b = integrate_semi_infinite(f, 2.0, 1e-11)
        assert a == b


class TestValidation:
    def test_tol_bounds(self):
        for bad in (1e-15, 0.5, 0.0, -1e-6):
            with pytest.raises(DomainError):
                integrate_semi_infinite(lambda t: math.exp(-t), 1.0, bad)
            with pytest.raises(DomainError):
                integrate_finite(lambda x: 1.0, 0.0, 1.0, bad)

    def test_spec_invariants(self):
        # the decay rate is all the engine is told of the integrand
        for bad in (-1.0, float("nan")):
            with pytest.raises(DomainError, match="decay rate must be >= 0"):
                integrate_semi_infinite(lambda t: math.exp(-t), bad, 1e-8)

    def test_interval_ordering(self):
        with pytest.raises(DomainError):
            integrate_finite(lambda x: 1.0, 1.0, 1.0, 1e-8)
        with pytest.raises(DomainError):
            integrate_finite(lambda x: 1.0, 2.0, 1.0, 1e-8)

    def test_nan_integrand_propagates(self):
        with pytest.raises(ConvergenceError):
            integrate_semi_infinite(lambda t: float("nan"), 1.0, 1e-8)
        with pytest.raises(ConvergenceError):
            integrate_finite(lambda x: float("nan"), 0.0, 1.0, 1e-8)

    def test_nonconvergence_carries_partial(self):
        # a step discontinuity defeats the endpoint-clustered rule at
        # tight tolerance; the partial estimate must still be sensible
        with pytest.raises(ConvergenceError) as exc:
            integrate_finite(lambda x: 1.0 if x < 0.3 else 0.0, 0.0, 1.0, 1e-12)
        assert exc.value.partial is not None
        assert exc.value.partial.value == pytest.approx(0.3, abs=5e-3)

    def test_zero_plateau_inside_support_is_not_truncated(self):
        # exactly-zero values around the interval midpoint (underflow
        # guards do this) must not stop the node walk early
        def bump(x):
            z = (x - 1.0) / 0.1
            e = -z * z
            return math.exp(e) if e > -745.0 else 0.0

        r = integrate_finite(bump, 0.0, 40.0, 1e-8)
        assert r.value == pytest.approx(0.1 * SQRT_PI, rel=1e-8)


class TestNestedRefinement:
    """Each level adds only the new odd nodes, so no abscissa is
    evaluated twice, and ``evaluations`` counts the integrand calls."""

    @staticmethod
    def _recorded(f):
        seen = []

        def g(x):
            seen.append(x)
            return f(x)
        return g, seen

    @pytest.mark.parametrize("run", [
        lambda g: integrate_semi_infinite(g, 2.0, 1e-12),
        lambda g: integrate_semi_infinite(g, 0.0, 1e-9),
        lambda g: integrate_finite(g, 0.0, 3.0, 1e-12),
    ])
    def test_every_abscissa_once(self, run):
        g, seen = self._recorded(lambda t: abs(t)**0.3 * math.exp(-2.0 * abs(t)))
        r = run(g)
        assert r.evaluations == len(seen) == len(set(seen))

    @pytest.mark.parametrize("f,lo,hi", [
        (lambda t: abs(t)**0.3 * math.exp(-2.0 * abs(t)), -4.0, 4.0),
        (lambda x: 1.0 if x < 0.3 else 0.0, 0.0, 1.0),
    ])
    def test_repeats_only_where_nodes_round_together(self, f, lo, hi):
        # tanh-sinh nodes within a few ulps of an endpoint lie at distinct
        # distances that round to the same float; no other x repeats
        g, seen = self._recorded(f)
        try:
            r = integrate_finite(g, lo, hi, 1e-12)
        except ConvergenceError as exc:
            r = exc.partial
        assert r.evaluations == len(seen)
        ulp = math.ulp(max(abs(lo), abs(hi)))
        repeated = {x for x, n in Counter(seen).items() if n > 1}
        assert all(min(x - lo, hi - x) <= 32 * ulp for x in repeated)

    @pytest.mark.parametrize("engine,first_h", [
        (lambda tol: integrate_semi_infinite(
            lambda t: math.exp(-t) * math.cos(40.0 * t), 1.0, tol),
         0.5),
        (lambda tol: integrate_finite(lambda x: math.cos(200.0 * x), 0.0, 1.0, tol), 1.0),
    ])
    def test_convergence_error_lists_every_level(self, engine, first_h, monkeypatch):
        _set_levels(monkeypatch, 4)
        with pytest.raises(ConvergenceError) as exc:
            engine(1e-12)
        levels = re.findall(r"h=(\S+) (\S+?)(?:,|$)", str(exc.value).split("levels: ")[1])
        assert [float(h) for h, _ in levels] == [first_h / 2, first_h / 4, first_h / 8]
        assert float(levels[-1][1]) == pytest.approx(exc.value.partial.error_estimate, rel=1e-3)
        _set_levels(monkeypatch, 1)
        with pytest.raises(ConvergenceError) as exc:
            engine(1e-12)
        assert str(exc.value).endswith("changes between successive levels: none")

    @pytest.mark.parametrize("order,z", [(-20.0, -30.0), (-20.0, 30.5)])
    def test_peak_far_from_center(self, order, z):
        # the integrand of D_{-20}(-30) peaks near t = 30, far from the
        # center of the node walk: truncation must not stop short of it
        with mpmath.workdps(30):
            exact = mpmath.pcfd(order, z)
        assert pcf_d(order, z) == pytest.approx(float(exact), rel=1e-12)


class TestErrorEstimateBoundsTrueError:
    """``error_estimate`` against 30-digit mpmath values.  The estimate is
    a difference of two levels, so rounding in the sums themselves (a
    few ulps of the value) comes on top of it."""

    TOLS = (1e-6, 1e-8, 1e-10, 1e-12)

    @staticmethod
    def _assert_bound(r, exact):
        exact = float(exact)
        assert abs(r.value - exact) <= r.error_estimate + 8 * 2.0**-52 * abs(exact)

    # spec: what the engine is told of the integrand, as keyword arguments
    @pytest.mark.parametrize("f,spec,exact", [
        (lambda t: t**-0.8 * math.exp(-t), {"decay_rate": 1.0}, mpmath.gamma(0.2)),
        (lambda t: (1.0 + t)**-1.5, {"decay_rate": 0.0}, 2),
        (lambda t: t**-0.5 / (1.0 + t)**2, {"decay_rate": 0.0}, mpmath.pi / 2),
        (lambda t: t**0.2 * math.exp(-t * t), {"decay_rate": 1.0}, mpmath.gamma(0.6) / 2),
    ])
    def test_semi_infinite(self, f, spec, exact):
        with mpmath.workdps(30):
            exact = mpmath.mpf(exact)
        for tol in self.TOLS:
            self._assert_bound(integrate_semi_infinite(f, tol=tol, **spec), exact)

    @pytest.mark.parametrize("f,lo,hi,exact", [
        (lambda x: x**-0.5 * math.cos(x), 0.0, 1.0,
         lambda: mpmath.quad(lambda x: x**-0.5 * mpmath.cos(x), [0, 1])),
        (lambda x: math.log(x) * math.exp(x), 0.0, 2.0,
         lambda: mpmath.quad(lambda x: mpmath.log(x) * mpmath.exp(x), [0, 2])),
        (lambda x: x**-0.9 * math.exp(-x), 0.0, 5.0, lambda: mpmath.gammainc(0.1, 0, 5)),
    ])
    def test_finite_singular_lower_endpoint(self, f, lo, hi, exact):
        with mpmath.workdps(30):
            exact = exact()
        for tol in self.TOLS:
            self._assert_bound(integrate_finite(f, lo, hi, tol), exact)

    def test_finite_singular_at_both_endpoints(self):
        # nodes near hi are hi - d rounded to the floats around hi, which
        # limits the accuracy to about 2e-10 here; the loose tolerance
        # keeps the estimate above that floor
        with mpmath.workdps(30):
            exact = mpmath.beta(0.7, 0.6)
        r = integrate_finite(lambda x: x**-0.3 * (1.0 - x)**-0.4, 0.0, 1.0, 1e-6)
        self._assert_bound(r, exact)


class TestPinnedPanel:
    """Values, error estimates and evaluation counts of both engines, bit
    for bit, on a fixed panel: endpoint singularities, the algebraic-tail
    fallback, the decay-rate scale at both clamps, symmetric and offset
    windows and three failures with the engines stopped after four levels
    (the ``*_max_level_4`` cases).  A change to the
    order of the floating-point operations in a table row or a walk
    shows here."""

    SEMI = {
        "gamma_half": (lambda t: t**-0.5 * math.exp(-t), 1.0),
        "algebraic_tail": (lambda t: (1.0 + t)**-1.5, 0.0),
        # decay rates outside [1e-4, 1e4] use the scale of the nearer clamp
        "scale_clamp_low": (lambda t: math.exp(-1e-5 * t), 1e-5),
        "scale_clamp_high": (lambda t: math.exp(-1e5 * t), 1e5),
        "semi_max_level_4": (lambda t: math.exp(-t) * math.cos(40.0 * t), 1.0),
    }
    FINITE = {
        "inv_sqrt_cos": (lambda x: x**-0.5 * math.cos(x), 0.0, 1.0),
        "gaussian_window": (lambda x: math.exp(-x * x), -4.0, 4.0),
        "finite_max_level_4": (lambda x: math.cos(200.0 * x), 0.0, 1.0),
        # widths that are not powers of two expose the rounding of every
        # operation on the half-width
        "inv_sqrt_cos_wide": (lambda x: x**-0.5 * math.cos(x), 0.0, 3.7),
        "gaussian_offset": (lambda x: math.exp(-x * x), -1.3, 2.9),
        "oscillating_max_level_4": (lambda x: math.cos(200.0 * x), -0.3, 2.2),
    }
    # (case, tol, outcome, value.hex(), error_estimate.hex(), evaluations)
    PANEL = [
        ("gamma_half", 1e-06, "ok", "0x1.c5bf891b4ef6bp+0", "0x1.f80ba50000000p-27", 64),
        ("algebraic_tail", 1e-06, "ok", "0x1.fffffffffffeep+0", "0x1.393006b000000p-23", 1524),
        ("scale_clamp_low", 1e-06, "ok", "0x1.86a0000000000p+16", "0x1.699a214000000p-10", 73),
        ("scale_clamp_high", 1e-06, "ok", "0x1.4f8b588e368f2p-17", "0x1.7058000000000p-56", 100),
        ("inv_sqrt_cos", 1e-06, "ok", "0x1.cf1dcd0871260p+0", "0x1.9450000000000p-38", 74),
        ("gaussian_window", 1e-06, "ok", "0x1.c5bf88a5f14afp+0", "0x0.0p+0", 205),
        ("gamma_half", 1e-10, "ok", "0x1.c5bf891b4ef6ap+0", "0x1.0000000000000p-52", 116),
        ("algebraic_tail", 1e-10, "ok", "0x1.fffffffffffffp+0", "0x1.1000000000000p-48", 2956),
        ("scale_clamp_low", 1e-10, "ok", "0x1.86a0000000000p+16", "0x0.0p+0", 135),
        ("scale_clamp_high", 1e-10, "ok", "0x1.4f8b588e368f2p-17", "0x1.7058000000000p-56", 100),
        ("inv_sqrt_cos", 1e-10, "ok", "0x1.cf1dcd0871260p+0", "0x1.9450000000000p-38", 74),
        ("gaussian_window", 1e-10, "ok", "0x1.c5bf88a5f14afp+0", "0x0.0p+0", 205),
        ("gamma_half", 1e-14, "ok", "0x1.c5bf891b4ef6ap+0", "0x1.0000000000000p-52", 116),
        ("algebraic_tail", 1e-14, "ok", "0x1.fffffffffffffp+0", "0x1.1000000000000p-48", 2956),
        ("scale_clamp_low", 1e-14, "ok", "0x1.86a0000000000p+16", "0x0.0p+0", 135),
        ("scale_clamp_high", 1e-14, "ok", "0x1.4f8b588e368f2p-17", "0x0.0p+0", 167),
        ("inv_sqrt_cos", 1e-14, "ok", "0x1.cf1dcd087125ep+0", "0x1.0000000000000p-51", 143),
        ("gaussian_window", 1e-14, "ok", "0x1.c5bf88a5f14afp+0", "0x0.0p+0", 205),
        ("semi_max_level_4", 1e-12, "raises", "0x1.2ce84fdf5cc9ep-4", "0x1.22a13b61fbe08p-6", 201),
        ("finite_max_level_4", 1e-12, "raises", "0x1.e69dd13d59903p-4", "0x1.3b195f9dce089p-2", 74),
        ("inv_sqrt_cos_wide", 1e-06, "ok", "0x1.09e92e758ac0cp+0", "0x1.f5f0f68000000p-26", 74),
        ("gaussian_offset", 1e-06, "ok", "0x1.b6c4586b18200p+0", "0x1.572a000000000p-37", 102),
        ("inv_sqrt_cos_wide", 1e-10, "ok", "0x1.09e92e758ac0dp+0", "0x1.0000000000000p-52", 143),
        ("gaussian_offset", 1e-10, "ok", "0x1.b6c4586b18200p+0", "0x1.572a000000000p-37", 102),
        ("inv_sqrt_cos_wide", 1e-14, "ok", "0x1.09e92e758ac0dp+0", "0x1.0000000000000p-52", 143),
        ("gaussian_offset", 1e-14, "ok", "0x1.b6c4586b181ffp+0", "0x1.0000000000000p-52", 204),
        ("oscillating_max_level_4", 1e-12, "raises", "0x1.4e900c658b530p-5", "0x1.4719993345fe4p-4", 51),
    ]

    def _run(self, case, tol):
        if case in self.SEMI:
            f, decay_rate = self.SEMI[case]
            return integrate_semi_infinite(f, decay_rate, tol)
        f, lo, hi = self.FINITE[case]
        return integrate_finite(f, lo, hi, tol)

    @pytest.mark.parametrize("case,tol,outcome,value,error,evaluations", PANEL,
                             ids=[f"{p[0]}-{p[1]:g}" for p in PANEL])
    def test_pinned(self, case, tol, outcome, value, error, evaluations, monkeypatch):
        if case.endswith("max_level_4"):
            _set_levels(monkeypatch, 4)
        if outcome == "ok":
            r = self._run(case, tol)
        else:
            with pytest.raises(ConvergenceError) as exc:
                self._run(case, tol)
            r = exc.value.partial
            # the message quotes the partial result it carries
            best = re.search(r"best estimate (\S+?),", str(exc.value)).group(1)
            assert float(best) == r.value
        assert (r.value.hex(), r.error_estimate.hex(), r.evaluations) == (value, error, evaluations)


class TestNodeTables:
    """The per-level node tables grow only as far as the walks go, and
    growth by nested or concurrent walks leaves every row in place."""

    TABLES = (quadrature._EXP_SINH_RIGHT, quadrature._EXP_SINH_LEFT, quadrature._TANH_SINH)

    @staticmethod
    def _level_rows(table):
        return [[row for chunk in chunks for row in chunk] for chunks in table._levels]

    @pytest.fixture
    def empty_tables(self, monkeypatch):
        for table in self.TABLES:
            monkeypatch.setattr(table, "_levels", [])

    def test_rows_bounded_by_nodes_walked(self, empty_tables):
        right, left = self.TABLES[:2]
        r = integrate_semi_infinite(lambda t: (1.0 + t)**-1.5, 0.0, 1e-10)
        levels = self._level_rows(right)
        rows = sum(map(len, levels + self._level_rows(left)))
        # every built row but the last chunk of each level and side was walked
        assert rows <= r.evaluations + 2 * len(levels) * quadrature._CHUNK
        assert rows <= 2 * r.evaluations
        # the right side could run to s = 690: far more rows than were built
        for level, built in enumerate(levels):
            h = right.step * 0.5**level
            assert len(built) < 0.25 * 690.0 / (h if level == 0 else 2.0 * h)
        # the same call again builds nothing
        again = integrate_semi_infinite(lambda t: (1.0 + t)**-1.5, 0.0, 1e-10)
        assert again == r
        assert sum(map(len, self._level_rows(right) + self._level_rows(left))) == rows

    def test_nested_integrals_share_a_growing_table(self, empty_tables):
        # the inner integral grows the table the outer walk is reading;
        # int_0^inf e^{-t} int_0^inf e^{-s(1+t)} ds dt = e E_1(1)
        def outer(t):
            return math.exp(-t) * integrate_semi_infinite(
                lambda s: math.exp(-s * (1.0 + t)), 1.0 + t, 1e-12).value

        cold = integrate_semi_infinite(outer, 1.0, 1e-10)
        warm = integrate_semi_infinite(outer, 1.0, 1e-10)
        assert cold == warm
        with mpmath.workdps(30):
            exact = float(mpmath.e * mpmath.e1(1))
        assert cold.value == pytest.approx(exact, rel=1e-10)

    def test_concurrent_growth(self, empty_tables):
        # threads that grow the same levels at once must neither lose nor
        # repeat a chunk: row i of a level sits at k*h, k = 1 + i*dk
        def runs():
            return [integrate_semi_infinite(lambda t: t**-0.5 * math.exp(-t),
                                            1.0, 1e-12),
                    integrate_semi_infinite(lambda t: (1.0 + t)**-1.5, 0.0,
                                            1e-10),
                    integrate_finite(lambda x: x**-0.5 * math.cos(x), 0.0, 3.7, 1e-12)]

        results = []
        threads = [threading.Thread(target=lambda: results.append(runs())) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert results == [runs()] * len(threads)
        for table in self.TABLES:
            for level, rows in enumerate(self._level_rows(table)):
                h, dk = table.step * 0.5**level, 1 if level == 0 else 2
                assert [row[0] for row in rows] == [(1 + i * dk) * h for i in range(len(rows))]
