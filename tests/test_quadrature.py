"""Quadrature engines: closed-form integrals, frame invariance, determinism."""

import functools
import math
import re
import sys
import threading
from collections import Counter

import mpmath
import numpy as np
import pytest

import mpmath_refs
from pcfprod import (
    ConvergenceError,
    DomainError,
    HyperbolicQuery,
    LaplaceParams,
    ProductQuery,
    integrate_finite,
    integrate_semi_infinite,
    laplace_I,
    lhs_13a,
    lhs_13b,
    lhs_14,
    product_via_integral,
    quadrature,
)

SQRT_PI = math.sqrt(math.pi)


def _set_levels(monkeypatch, levels):
    """Stop both engines after ``levels`` refinement levels."""
    monkeypatch.setattr(quadrature, "_SEMI_INFINITE_LEVELS", levels)
    monkeypatch.setattr(quadrature, "_FINITE_LEVELS", levels)


@pytest.fixture
def built(monkeypatch):
    """The node-table chunks built from here on, as {(table, level, i): rows}:
    a fresh chunk cache that records what it builds, the process's own
    cache restored after."""
    chunks = {}
    make = quadrature._chunk.__wrapped__

    def chunk(table, level, i):
        chunks[table, level, i] = rows = make(table, level, i)
        return rows

    monkeypatch.setattr(quadrature, "_chunk", functools.cache(chunk))
    return chunks


def _level_rows(built, table):
    """The rows ``built`` holds of ``table``, per level, in walk order."""
    levels = {}
    for (owner, level, _), rows in sorted(built.items(), key=lambda item: item[0][1:]):
        if owner is table:
            levels.setdefault(level, []).extend(rows)
    return [levels.get(level, []) for level in range(max(levels, default=-1) + 1)]


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

    def test_table_end_bounds_a_heavy_tail(self):
        # the right walk ends at s = 690, t = c e^690 with c = 1e4 at decay rate 0: a
        # tail t^-p loses (c e^690)^(1-p)/(p-1) past it, below rounding from p = 1.053 on
        r = integrate_semi_infinite(lambda t: (1.0 + t)**-1.05, 0.0, 1e-10)
        assert r.value == pytest.approx(20.0, rel=1e-10)
        p = 1.02
        r = integrate_semi_infinite(lambda t: (1.0 + t)**-p, 0.0, 1e-10)
        lost = (1e4 * math.exp(690.0))**(1.0 - p) / (p - 1.0)
        assert 1.0 / (p - 1.0) - r.value == pytest.approx(lost, rel=0.02)

    def test_body_centres_the_walk(self):
        # the same tail with its mass near t = 1: centred there, not at the
        # clamp 1/decay = 1e4, the walk takes 753 evaluations, not 2,893
        f = lambda t: (1.0 + t)**-1.5
        far, near = (integrate_semi_infinite(f, 0.0, 1e-10, body) for body in (math.inf, 1.0))
        assert near.evaluations < far.evaluations / 3
        for r in (far, near):
            assert abs(r.value - 2.0) <= r.error_estimate + 8 * 2.0**-52 * 2.0


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

    def test_no_early_stop_at_decay_rate_zero(self):
        # the algebraic-tail walk stops only where two levels agree; on
        # 1/(1+t^2) a predicted next change would stop it after 1,530
        r = integrate_semi_infinite(lambda t: 1.0 / (1.0 + t * t), 0.0, 1e-8)
        assert r == (1.5707963267948966, 2.220446049250313e-16, 2999)

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
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError, match="body must be > 0"):
                integrate_semi_infinite(lambda t: math.exp(-t), 1.0, 1e-8, bad)

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

    def test_nan_past_the_center_propagates(self):
        # the center is finite: the NaN is met on a side's walk
        with pytest.raises(ConvergenceError,
                           match=r"^integrand returned NaN at x=0\.9756839820363734$"):
            integrate_finite(lambda x: math.nan if x > 0.7 else 1.0, 0.0, 1.0, 1e-10)

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
        # live at lo and 0.0 near hi: each side ends on its own
        (lambda x: x**-0.5 * math.exp(-1.0 / (1.0 - x)), 0.0, 1.0),
        # lo != 0, and the hi side is live until its nodes round onto hi
        (lambda x: math.sqrt(x - 2.0) * math.exp(-x), 2.0, 5.0),
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

    @pytest.mark.parametrize("engine,first_h,changes", [
        (lambda f: integrate_semi_infinite(f, 1.0, 1e-12), 0.5, 12),
        (lambda f: integrate_finite(f, 0.0, 1.0, 1e-12), 1.0, 11),
    ], ids=["semi_infinite", "finite"])
    def test_level_caps(self, engine, first_h, changes):
        # at most 13 levels (semi-infinite) and 12 (finite): a step they never
        # resolve lists a change at each level after the first
        with pytest.raises(ConvergenceError) as exc:
            engine(lambda t: 1.0 if t < 0.3 else 0.0)
        levels = re.findall(r"h=(\S+) ", str(exc.value).split("levels: ")[1])
        assert [float(h) for h in levels] == [first_h / 2**k for k in range(1, changes + 1)]

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
        # the defining integral of D_{-20}(-30), whose integrand peaks near
        # t = 30, far from the center of the node walk: truncation must not
        # stop short of it
        nu = -order

        # the prefactor e^{-z^2/4}/Gamma(nu) in the exponent
        def integrand(t):
            expo = -z * t - 0.5 * t * t - 0.25 * z * z - math.lgamma(nu)
            return 0.0 if expo < -745.0 else t ** (nu - 1.0) * math.exp(expo)

        got = integrate_semi_infinite(integrand, 1.0 + max(z, 0.0), 1e-12)
        with mpmath.workdps(30):
            exact = mpmath.pcfd(order, z)
        assert got.value == pytest.approx(float(exact), rel=1e-12)


class TestReach:
    """On every level, level 0 included, a side stops at its first dead
    term beyond its reach, the largest k*h of a live term it has met on
    any level, the current one included; a live term past the reach
    extends it, and a side with no live term yet keeps the
    consecutive-dead rule."""

    def test_terms_below_tiny_are_judged_against_the_floor(self):
        # a partial sum below 1e-300 judges its terms against 1e-20 * 1e-300, so
        # 1e-305 e^{-t} has live terms and its walks end on the reach rule
        r = integrate_semi_infinite(lambda t: 1e-305 * math.exp(-t), 1.0, 1e-10)
        assert r == (1.0000000000000005e-305, 4.9349774829e-313, 33)

    @staticmethod
    def _last_right_nodes(built, seen):
        # decay rate 1: every right exp-sinh node t is the row's u itself
        rows = {row[1]: (level, row[0])
                for level, level_rows in enumerate(_level_rows(built, quadrature._EXP_SINH_RIGHT))
                for row in level_rows}
        last = {}
        for level, kh in (rows[t] for t in seen if t in rows):
            last[level] = max(last.get(level, 0.0), kh)
        return last

    def test_live_term_past_the_reach_is_followed(self, built):
        # e^{-t} cut off at t = 45: level 0 is live to s = 3.5 (t = 32.1) and
        # ends at its first dead node, s = 4.0 (t = 53.6; it ran on to 9.0
        # while level 0 had no reach); the level-1 node s = 3.75 (t = 41.5) is
        # live past that reach, so the walk goes on to s = 4.25, the first
        # dead node past the new reach, and level 2 stops at s = 3.875 (t = 47.2)
        seen = []

        def f(t):
            seen.append(t)
            return math.exp(-t) if t < 45.0 else 0.0

        r = integrate_semi_infinite(f, 1.0, 1e-12)
        assert r.value == pytest.approx(1.0, rel=1e-12)
        last = self._last_right_nodes(built, seen)
        assert (last[0], last[1], last[2]) == (4.0, 4.25, 3.875)

    def test_walk_without_live_term_keeps_the_consecutive_rule(self, built, monkeypatch):
        # every level-0 node is 0; the box holds the level-1 node s = 3.75
        # (t = 41.5), which only the consecutive rule reaches: stopping at the
        # first dead node past s = 3 would return 0.0 with estimate 0.  Once
        # s = 3.75 is live, level 1 ends at its next node, s = 4.25, where the
        # consecutive rule ran on to s = 9.25 in 129 evaluations.  The partial
        # is the one pinned before the reach rule existed.
        _set_levels(monkeypatch, 4)
        seen = []

        def box(t):
            seen.append(t)
            return 1.0 if 40.0 < t < 43.0 else 0.0

        with pytest.raises(ConvergenceError) as exc:
            integrate_semi_infinite(box, 1.0, 1e-10)
        r = exc.value.partial
        assert (r.value.hex(), r.error_estimate.hex(), r.evaluations) == (
            "0x1.541377d0a7454p+1", "0x1.541377d0a7454p+1", 119)
        assert self._last_right_nodes(built, seen)[1] == 4.25

    def test_first_dead_term_past_the_reach_ends_the_walk_below_min_trunc_t(self, built):
        # e^{-t^2}: level 0 is live to s = 2 (t = 6.4) and ends at its first
        # dead node, s = 2.5 (it ran 11 dead nodes on, to s = 7.5, in 116
        # evaluations while level 0 had no reach).  Each later level stops at
        # its first dead node past that reach, at s = 2.25, 2.125 and 2.0625,
        # below k*h = _MIN_TRUNC_T; a walk that could not stop there before
        # s = 3 went on to 3.25, 3.125 and 3.0625 and took 130 evaluations for
        # the same value
        seen = []

        def f(t):
            seen.append(t)
            return math.exp(-t * t)

        r = integrate_semi_infinite(f, 1.0, 1e-12)
        assert r.value == pytest.approx(0.5 * SQRT_PI, rel=1e-15)
        assert r.evaluations == 101
        last = self._last_right_nodes(built, seen)
        assert (last[0], last[1], last[2], last[3]) == (2.5, 2.25, 2.125, 2.0625)
        assert all(last[level] < quadrature._MIN_TRUNC_T for level in last)

    def test_exactly_zero_start_is_walked_through(self, monkeypatch):
        # 0 on [0, 5] and smooth after: the right side's first nodes on each
        # level are dead, and only _MIN_TRUNC_T keeps 11 of them (s = 1/16 to
        # 21/16 on level 3) from ending that walk short of the support, which
        # starts at s = 1.77
        def f(t):
            return 0.0 if t <= 5.0 else math.exp(-1.0 / (t - 5.0) - t)

        with mpmath.workdps(30):
            exact = float(2 * mpmath.besselk(1, 2) * mpmath.exp(-5))
        r = integrate_semi_infinite(f, 1.0, 1e-6)
        assert abs(r.value - exact) <= 1e-6 * exact
        monkeypatch.setattr(quadrature, "_MIN_TRUNC_T", 0.0)
        with pytest.raises(ConvergenceError):
            integrate_semi_infinite(f, 1.0, 1e-6)


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
        # live at lo and 0.0 near hi: each side ends on its own
        (lambda x: x**-0.5 * math.exp(-1.0 / (1.0 - x)), 0.0, 1.0,
         lambda: mpmath.quad(lambda x: x**-0.5 * mpmath.exp(-1 / (1 - x)),
                             [0, 0.25, 0.5, 0.75, 1])),
        # lo != 0, and the hi side is live until its nodes round onto hi
        (lambda x: math.sqrt(x - 2.0) * math.exp(-x), 2.0, 5.0,
         lambda: mpmath.exp(-2) * mpmath.gammainc(1.5, 0, 3)),
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

    # walks that stop on the next change they predict: (run at tol, exact)
    EARLY = {
        "inv_sqrt_cos": (lambda tol: integrate_finite(lambda x: x**-0.5 * math.cos(x), 0.0, 1.0, tol),
                         lambda: mpmath.quad(lambda x: x**-0.5 * mpmath.cos(x), [0, 1])),
        "gamma_inc": (lambda tol: integrate_finite(lambda x: x**-0.9 * math.exp(-x), 0.0, 5.0, tol),
                      lambda: mpmath.gammainc(0.1, 0, 5)),
        "dead_near_hi": (lambda tol: integrate_finite(lambda x: x**-0.5 * math.exp(-1.0 / (1.0 - x)),
                                                      0.0, 1.0, tol),
                         lambda: mpmath.quad(lambda x: x**-0.5 * mpmath.exp(-1 / (1 - x)),
                                             [0, 0.25, 0.5, 0.75, 1])),
        "gaussian_power": (lambda tol: integrate_semi_infinite(lambda t: t**0.2 * math.exp(-t * t),
                                                               1.0, tol),
                           lambda: mpmath.gamma(0.6) / 2),
    }

    @staticmethod
    def _evaluations_without_early_stop(monkeypatch, run):
        with monkeypatch.context() as patch:
            patch.setattr(quadrature, "_PREDICT_MARGIN", 0.0)
            return run().evaluations

    @pytest.mark.parametrize("case,tol", [
        ("inv_sqrt_cos", 1e-6), ("inv_sqrt_cos", 1e-14), ("gamma_inc", 1e-6),
        ("gamma_inc", 1e-13), ("dead_near_hi", 1e-6), ("gaussian_power", 1e-8),
        ("gaussian_power", 1e-14),
    ])
    def test_early_stop(self, case, tol, monkeypatch):
        run, exact = self.EARLY[case]
        with mpmath.workdps(30):
            exact = exact()
        r = run(tol)
        assert r.evaluations < self._evaluations_without_early_stop(monkeypatch, lambda: run(tol))
        self._assert_bound(r, exact)
        assert abs(r.value - float(exact)) <= tol * abs(float(exact))

    # the closed forms of 13a, 13b and 14; each left side's cut drops below e^{-785} of it
    EXACT = {lhs_13a: mpmath_refs.closed_13a, lhs_13b: mpmath_refs.closed_13b,
             lhs_14: mpmath_refs.closed_14}

    @pytest.mark.parametrize("lhs,x,phi,tol", [
        (lhs_13a, 0.5, 2.0, 1e-13), (lhs_13a, 2.0, 0.5, 1e-13), (lhs_13a, 2.0, 1.0, 1e-13),
        (lhs_13b, 0.1, 0.05, 1e-13), (lhs_13b, 0.5, 0.1, 1e-9), (lhs_13b, 0.5, 0.25, 1e-8),
        (lhs_14, 0.5, 0.5, 1e-13), (lhs_14, 0.5, 1.0, 1e-13), (lhs_14, 1.0, 1.0, 1e-13),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_hyperbolic_left_sides_stop_early(self, lhs, x, phi, tol, monkeypatch):
        # points of verify's EQ13A and EQ14 grids at --tol 1e-13; no point of
        # EQ13B's grid stops early there (its last change falls faster than
        # d_{k-1}^2.5, or predicts more than tol/10)
        q = HyperbolicQuery(alpha=x, a=x, phi=phi)
        r = lhs(q, tol)
        assert r.evaluations < self._evaluations_without_early_stop(monkeypatch,
                                                                    lambda: lhs(q, tol))
        exact = self.EXACT[lhs](x, phi)
        self._assert_bound(r, exact)
        assert abs(r.value - float(exact)) <= tol * float(exact)

    @pytest.mark.parametrize("run,exact,tol", [
        (lambda tol: lhs_14(HyperbolicQuery(a=17.91942666335425, phi=0.010681753360747772), tol),
         lambda: mpmath_refs.closed_14(17.91942666335425, 0.010681753360747772), 4e-8),
        (lambda tol: product_via_integral(
            ProductQuery(8.1044441678548, 20.91625384302966, 20.885439553931683), tol),
         lambda: mpmath.pcfd(-8.1044441678548, 20.91625384302966)
         * mpmath.pcfd(-8.1044441678548, -20.885439553931683), 1e-13),
    ], ids=["lhs_14", "product"])
    def test_coincident_level_does_not_stop(self, run, exact, tol, monkeypatch):
        # a coarse level that lands near the last one: its change falls like
        # d_{k-1}^3.7 (lhs_14) and ^3.05 (product), not ^2, and predicts a next
        # change far below tol that the true error is not.  Without the upper
        # order the walk stops there, off by 4.1e3 and 2.8e2 times tol
        with mpmath.workdps(40):
            exact = float(exact())
        assert abs(run(tol).value - exact) <= tol * abs(exact)
        monkeypatch.setattr(quadrature, "_MAX_ORDER", math.inf)
        assert abs(run(tol).value - exact) > 100 * tol * abs(exact)

    def test_unsettled_level_does_not_stop(self, monkeypatch):
        # lhs_14 at a = 1.1e-4 changes by 9.9e-2, 4.3e-3 and 2.0e-6 relative,
        # orders 2.37 and 2.40, and predicts 9.5e-10; the next change is 2.6e-8
        # (order 1.33).  Orders read across a level that moved the value by 10%
        # mislead: without _SETTLED the walk stops there, 1.4 tol off
        a, phi, tol = 0.00011121178591706416, 0.0002964902384015909, 1.9129623550048243e-08
        q = HyperbolicQuery(a=a, phi=phi)
        exact = float(self.EXACT[lhs_14](a, phi))
        assert abs(lhs_14(q, tol).value - exact) <= tol * exact
        monkeypatch.setattr(quadrature, "_SETTLED", math.inf)
        assert abs(lhs_14(q, tol).value - exact) > tol * exact

    def test_rising_change_does_not_stop(self):
        # levels 2-4 change by 1.3e-5, 8.3e-4 and 4.7e-8 relative: level 2 landed
        # near level 1 by chance, and level 4's prediction, 2.7e-12, hid an
        # error of 3.3e-10
        q = HyperbolicQuery(alpha=0.22844582165978508, phi=0.20541816521944636)
        exact = float(self.EXACT[lhs_13a](q.alpha, q.phi))
        assert abs(lhs_13a(q, 1e-10).value - exact) <= 1e-10 * exact

    def test_rise_is_read_at_level_3(self):
        # a dip 0.37 deep and 0.062 wide: levels 1 and 2 change by 1.56e-2 and
        # 3.86e-2 relative, a rise, so level 3 (2.26e-3, order 1.87) must not
        # stop on its prediction of 1.3e-4.  A walk that read rises from level 4
        # on stopped there after 57 evaluations, with an estimate of 1.27e-4
        # against a true error of 9.2e-4
        A, c, w = -0.3708403993878493, 0.3572379759726317, 0.06220527675176622
        r = integrate_finite(lambda x: 1.0 + A * math.exp(-((x - c) / w) ** 2),
                             0.0, 1.0, 0.0017315134905111277)
        exact = 1.0 + A * w * 0.5 * SQRT_PI * (math.erf((1.0 - c) / w) + math.erf(c / w))
        assert r.evaluations == 110
        assert abs(r.value - exact) <= r.error_estimate

    @pytest.mark.parametrize("tol,evaluations", [(1e-6, 1471), (1e-10, 2893)])
    def test_algebraic_tail_never_stops_early(self, tol, evaluations, monkeypatch):
        # decay rate 0 converges algebraically: even a rule that would stop every
        # other walk at its third level leaves the count as it was
        f, _ = TestPinnedPanel.SEMI["algebraic_tail"]
        monkeypatch.setattr(quadrature, "_PREDICT_MARGIN", math.inf)
        monkeypatch.setattr(quadrature, "_MIN_ORDER", 0.0)
        monkeypatch.setattr(quadrature, "_MAX_ORDER", math.inf)
        r = integrate_semi_infinite(f, 0.0, tol)
        assert r.evaluations == evaluations
        self._assert_bound(r, 2)
        # the same rule at a positive decay rate does stop the walk early
        assert integrate_semi_infinite(f, 1.0, tol).evaluations < evaluations


class TestPinnedPanel:
    """Values, error estimates and evaluation counts of both engines, bit
    for bit, on a fixed panel: endpoint singularities, the algebraic-tail
    fallback, the decay-rate scale at both clamps, symmetric and offset
    windows and three failures with the engines stopped after four levels
    (the ``*_max_level_4`` cases).  A change to the
    order of the floating-point operations in a table row or a walk
    shows here.  inv_sqrt_cos at 1e-6 and 1e-14 and scale_clamp_high at
    1e-14 are re-pinned for the walk that stops on a predicted next change:
    against 50-digit mpmath each new value is within its tol and its new
    estimate + 8 eps.  scale_clamp_high takes 64 evaluations, not 71, since a
    walk stops at its first dead term past its reach below k*h = 3 too; its
    values are unchanged.  The counts are re-pinned, with no value or
    estimate changed, for level 0 stopping at its first dead term past the
    live ones too, where it ran 11 dead terms on."""

    SEMI = {
        "gamma_half": (lambda t: t**-0.5 * math.exp(-t), 1.0),
        "algebraic_tail": (lambda t: (1.0 + t)**-1.5, 0.0),
        # decay rates outside [1e-4, 1e150] use the scale of the nearer clamp
        "scale_clamp_low": (lambda t: math.exp(-1e-5 * t), 1e-5),
        "scale_clamp_high": (lambda t: math.exp(-1e151 * t), 1e151),
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
        ("gamma_half", 1e-06, "ok", "0x1.c5bf891b4ef6bp+0", "0x1.f80ba48000000p-27", 38),
        ("algebraic_tail", 1e-06, "ok", "0x1.fffffffffffefp+0", "0x1.393006b800000p-23", 1471),
        ("scale_clamp_low", 1e-06, "ok", "0x1.86a0000000000p+16", "0x1.699a218000000p-10", 44),
        ("scale_clamp_high", 1e-06, "ok", "0x1.4f31f8832dd2bp-502", "0x1.6ff0000000000p-541", 51),
        ("inv_sqrt_cos", 1e-06, "ok", "0x1.cf1dcd0877772p+0", "0x1.a462d7dbfb65fp-26", 32),
        ("gaussian_window", 1e-06, "ok", "0x1.c5bf88a5f14afp+0", "0x0.0p+0", 201),
        ("gamma_half", 1e-10, "ok", "0x1.c5bf891b4ef6ap+0", "0x1.0000000000000p-52", 73),
        ("algebraic_tail", 1e-10, "ok", "0x1.0000000000001p+1", "0x1.3000000000000p-48", 2893),
        ("scale_clamp_low", 1e-10, "ok", "0x1.86a0000000000p+16", "0x0.0p+0", 86),
        ("scale_clamp_high", 1e-10, "ok", "0x1.4f31f8832dd2bp-502", "0x1.6ff0000000000p-541", 51),
        ("inv_sqrt_cos", 1e-10, "ok", "0x1.cf1dcd0871260p+0", "0x1.9448000000000p-38", 63),
        ("gaussian_window", 1e-10, "ok", "0x1.c5bf88a5f14afp+0", "0x0.0p+0", 201),
        ("gamma_half", 1e-14, "ok", "0x1.c5bf891b4ef6ap+0", "0x1.0000000000000p-52", 73),
        ("algebraic_tail", 1e-14, "ok", "0x1.0000000000001p+1", "0x1.3000000000000p-48", 2893),
        ("scale_clamp_low", 1e-14, "ok", "0x1.86a0000000000p+16", "0x0.0p+0", 86),
        ("scale_clamp_high", 1e-14, "ok", "0x1.4f31f8832dd2bp-502", "0x1.90f66faa2ca4dp-564", 51),
        ("inv_sqrt_cos", 1e-14, "ok", "0x1.cf1dcd0871260p+0", "0x1.5b5ce2e449f03p-59", 63),
        ("gaussian_window", 1e-14, "ok", "0x1.c5bf88a5f14afp+0", "0x0.0p+0", 201),
        ("semi_max_level_4", 1e-12, "raises", "0x1.2ce84fdf5cc9ep-4", "0x1.22a13b61fbe08p-6", 132),
        ("finite_max_level_4", 1e-12, "raises", "0x1.e69dd13d59900p-4", "0x1.3b195f9dce08ap-2", 57),
        ("inv_sqrt_cos_wide", 1e-06, "ok", "0x1.09e92e758ac0ep+0", "0x1.f5f0f6c000000p-26", 63),
        ("gaussian_offset", 1e-06, "ok", "0x1.b6c4586b18201p+0", "0x1.5728000000000p-37", 102),
        ("inv_sqrt_cos_wide", 1e-10, "ok", "0x1.09e92e758ac0cp+0", "0x1.0000000000000p-51", 122),
        ("gaussian_offset", 1e-10, "ok", "0x1.b6c4586b18201p+0", "0x1.5728000000000p-37", 102),
        ("inv_sqrt_cos_wide", 1e-14, "ok", "0x1.09e92e758ac0cp+0", "0x1.0000000000000p-51", 122),
        ("gaussian_offset", 1e-14, "ok", "0x1.b6c4586b18202p+0", "0x1.0000000000000p-52", 204),
        ("oscillating_max_level_4", 1e-12, "raises", "0x1.4e900c658b52cp-5", "0x1.4719993345fe5p-4", 51),
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


class TestPinnedRoutes:
    """Values and error estimates of the library's quadrature routes, bit
    for bit, pinned before the reach rule; their evaluation counts are
    bounds, tightened to the counts of the walks whose every level, level 0
    included, stops at its first dead term past the reach; the walks that
    let level 0 run on took 101, 143, 78, 101, 80, 85, 139 and 95 for the
    same values and estimates.  The
    product rows are re-pinned for the integrand that holds its prefactor
    in the exponent: against 30-digit mpmath each is as close as before or
    within 2 eps (3.5e-10, the small-nu loss, 2.0e-16 and 2.7e-16).
    product_gap_0.02, product_nu_4, laplace_minus and lhs_13b are re-pinned
    for the walks that sum each side apart and place a node at origin +
    scale*a: against 40-digit mpmath they are 1.06, 2.89, 0.06 and 0.32 eps
    off, from 0.91, 1.22, 0.69 and 0.86 eps, a move within the rounding of
    their sums.  lhs_13b and lhs_14 are re-pinned, with their counts, for
    the walk that stops on a predicted next change: 0.32 and 2.21 eps off
    50-digit mpmath, from 0.32 and 0.74 eps.  lhs_13a, lhs_13b and lhs_14 are
    re-pinned, with their counts, for the theta panels that end where the
    exponent has risen 50 and the walks that stop at their first dead term
    past the reach: 0.94, 0.75 and 1.48 eps off 50-digit mpmath, from 0.79,
    0.32 and 2.21 eps.  product_nu_0.06, product_gap_0.02 and laplace_plus are
    re-pinned for the exp-sinh centre at min(1/decay, body), body the peak
    the caller names: against 40-digit mpmath they are 3.45e-10 (the
    small-nu loss), 0.91 eps and 3.45e-10 off, from 3.53e-10, 1.06 eps and
    3.53e-10; product_gap_0.02 takes 143 evaluations, not 277 (349 when
    pinned)."""

    ROUTES = {
        "product_nu_0.06": lambda tol: product_via_integral(ProductQuery(0.06, 2.0, 1.0), tol),
        "product_gap_0.02": lambda tol: product_via_integral(ProductQuery(1.5, 3.02, 3.0), tol),
        "product_nu_4": lambda tol: product_via_integral(ProductQuery(4.0, 6.0, 2.5), tol),
        "laplace_plus": lambda tol: laplace_I(LaplaceParams(0.06, 2.5, 2.0), 1, tol),
        "laplace_minus": lambda tol: laplace_I(LaplaceParams(2.5, 3.0, 1.0), -1, tol),
        "lhs_13a": lambda tol: lhs_13a(HyperbolicQuery(alpha=1.5, phi=0.7), tol),
        "lhs_13b": lambda tol: lhs_13b(HyperbolicQuery(alpha=0.3, phi=2.0), tol),
        "lhs_14": lambda tol: lhs_14(HyperbolicQuery(a=0.5, phi=0.05), tol),
        # seeded theta walks that the early stop's bounds decide: a change to
        # _MIN_ORDER, _MAX_ORDER, _SETTLED or the order test moves their bits
        "lhs_14_slow_fall": lambda tol: lhs_14(
            HyperbolicQuery(a=1.1421903672281193, phi=1.439134873496479), tol),
        "lhs_14_min_order": lambda tol: lhs_14(
            HyperbolicQuery(a=1.2371448500511772, phi=0.3689261640813915), tol),
        "lhs_13b_max_order": lambda tol: lhs_13b(
            HyperbolicQuery(alpha=1.448101812836023, phi=0.7967607128582873), tol),
        "lhs_13b_settled": lambda tol: lhs_13b(
            HyperbolicQuery(alpha=1.2697574279246089, phi=1.1297281330573574), tol),
    }
    # (route, tol, value.hex(), error_estimate.hex(), evaluations at most)
    PANEL = [
        ("product_nu_0.06", 1e-09, "0x1.45a9f9761c6dcp-2", "0x1.b062c00000000p-34", 91),
        ("product_gap_0.02", 1e-12, "0x1.842354b26d6acp-1", "0x1.be00000000000p-45", 129),
        ("product_nu_4", 1e-09, "0x1.cd8dc3434df8fp-19", "0x1.1000000000000p-66", 61),
        ("laplace_plus", 1e-08, "0x1.1ec20843317e5p+5", "0x1.7cbb000000000p-27", 91),
        ("laplace_minus", 1e-10, "0x1.5388fed5560ebp-4", "0x1.0000000000000p-56", 65),
        ("lhs_13a", 1e-12, "0x1.27393eeef7488p-2", "0x1.850f449dfb411p-51", 82),
        ("lhs_13b", 1e-10, "0x1.dcff8e2627e90p-2", "0x1.0000000000000p-53", 135),
        ("lhs_14", 1e-12, "0x1.5d6e0aefedbc6p+0", "0x1.10d5b954c038dp-43", 93),
        ("lhs_14_slow_fall", 1e-11, "0x1.4c19e51b6d0dbp-4", "0x1.0000000000000p-55", 173),
        ("lhs_14_min_order", 1e-10, "0x1.b66a158229a9ap-2", "0x1.4d912c17c8a27p-49", 93),
        ("lhs_13b_max_order", 1e-10, "0x1.017a21957538ap-4", "0x1.0000000000000p-56", 134),
        ("lhs_13b_settled", 1e-10, "0x1.be25db26b6742p-5", "0x0.0p+0", 134),
    ]

    @pytest.mark.parametrize("route,tol,value,error,evaluations", PANEL,
                             ids=[p[0] for p in PANEL])
    def test_pinned(self, route, tol, value, error, evaluations):
        r = self.ROUTES[route](tol)
        assert (r.value.hex(), r.error_estimate.hex()) == (value, error)
        assert r.evaluations <= evaluations


class TestNodeTables:
    """The per-level node tables grow only as far as the walks go, and
    growth by nested or concurrent walks leaves every row in place."""

    TABLES = quadrature._EXP_SINH_RIGHT, quadrature._EXP_SINH_LEFT, quadrature._TANH_SINH

    def test_rows_bounded_by_nodes_walked(self, built):
        right, left = self.TABLES[:2]
        r = integrate_semi_infinite(lambda t: (1.0 + t)**-1.5, 0.0, 1e-10)
        levels = _level_rows(built, right)
        rows = sum(map(len, levels + _level_rows(built, left)))
        # every built row but the last chunk of each level and side was walked
        assert rows <= r.evaluations + 2 * len(levels) * quadrature._CHUNK
        assert rows <= 2 * r.evaluations
        # the right side could run to s = 690: far more rows than were built
        for level, level_rows in enumerate(levels):
            h = right.step * 0.5**level
            assert len(level_rows) < 0.25 * 690.0 / (h if level == 0 else 2.0 * h)
        # the same call again builds nothing
        again = integrate_semi_infinite(lambda t: (1.0 + t)**-1.5, 0.0, 1e-10)
        assert again == r
        assert sum(map(len, _level_rows(built, right) + _level_rows(built, left))) == rows

    def test_nested_integrals_share_a_growing_table(self, built):
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

    def test_concurrent_growth(self, built):
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
            for level, rows in enumerate(_level_rows(built, table)):
                h, dk = table.step * 0.5**level, 1 if level == 0 else 2
                assert [row[0] for row in rows] == [(1 + i * dk) * h for i in range(len(rows))]
