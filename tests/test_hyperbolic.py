"""Hyperbolic integral identities: theta-quadrature vs closed forms."""

import math
import random

import mpmath as mp
import numpy as np
import pytest

import mpmath_refs
from pcfprod import (
    DomainError,
    HyperbolicQuery,
    LaplaceParams,
    erfc_identity_13a,
    erfc_identity_13b,
    hyperbolic,
    k_identity_14,
    laplace_I,
    lhs_13a,
    lhs_13b,
    lhs_14,
)

# frozen with an independent 30-digit oracle before the library was built
LHS_13A_1_1 = 0.3754716109187531143
LHS_13B_1_1 = 0.1154006746017534157
LHS_14_1_1 = 0.2793553684694326448

ALPHA_GRID = np.geomspace(0.3, 4.0, 5)
PHI_GRID = np.geomspace(0.1, 3.0, 5)


LEFT_SIDES = {"13a": lhs_13a, "13b": lhs_13b, "14": lhs_14}


def closed_form(lhs, x, phi):
    """The mpmath closed form of left side ``lhs``'s identity, as a double."""
    form = next(form for form, fn in LEFT_SIDES.items() if fn is lhs)
    return float(mpmath_refs.CLOSED_FORMS[form](x, phi))


class TestErfcIdentities:
    def test_frozen_point_13a(self):
        rec = erfc_identity_13a(HyperbolicQuery(alpha=1.0, phi=1.0))
        assert rec.lhs == pytest.approx(LHS_13A_1_1, rel=1e-9)
        assert rec.rhs == pytest.approx(LHS_13A_1_1, rel=1e-9)
        assert rec.passed

    def test_frozen_point_13b(self):
        rec = erfc_identity_13b(HyperbolicQuery(alpha=1.0, phi=1.0))
        assert rec.lhs == pytest.approx(LHS_13B_1_1, rel=1e-9)
        assert rec.rhs == pytest.approx(LHS_13B_1_1, rel=1e-9)
        assert rec.passed

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_grid_13a(self, alpha, phi):
        rec = erfc_identity_13a(HyperbolicQuery(alpha=alpha, phi=phi), 1e-8)
        assert rec.passed, (alpha, phi, rec.rel_err)
        assert rec.lhs > 0 and rec.rhs > 0

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_grid_13b(self, alpha, phi):
        rec = erfc_identity_13b(HyperbolicQuery(alpha=alpha, phi=phi), 1e-8)
        assert rec.passed, (alpha, phi, rec.rel_err)
        assert rec.lhs > 0 and rec.rhs > 0

    @pytest.mark.parametrize("phi", [0.1, 0.01])
    def test_small_shift_limit_persists(self, phi):
        rec = erfc_identity_13a(HyperbolicQuery(alpha=1.0, phi=phi), 1e-8)
        assert rec.passed, (phi, rec.rel_err)

    def test_monotone_damping(self):
        vals = [erfc_identity_13a(HyperbolicQuery(alpha=a, phi=1.0)).lhs
                for a in (2.0, 4.0, 8.0)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_reduction_to_laplace_transform(self):
        # t = sinh^2(theta) maps the 13a integral onto half the
        # minus-sign transform at unit order
        for alpha, phi in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5)):
            rec = erfc_identity_13a(HyperbolicQuery(alpha=alpha, phi=phi))
            a = alpha * alpha * math.cosh(phi)
            b = alpha * alpha * math.sinh(phi)
            lap = laplace_I(LaplaceParams(1.0, a, b), -1, 1e-11)
            assert rec.lhs == pytest.approx(0.5 * lap.value, rel=1e-9)


class TestErfcxRightSides:
    """The right sides of 13a and 13b, each exponential inside the erfcx it
    scales, against 50-digit mpmath of the erfc form."""

    @staticmethod
    def _points(count, seed):
        rng = random.Random(seed)

        def log_uniform(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        return [(log_uniform(0.01, 16.0), log_uniform(0.01, 12.0)) for _ in range(count)]

    def test_sweep_against_mpmath(self, monkeypatch):
        # 13a within 4 eps (2 + x_s^2 + x_c^2), each square capped at 113 where
        # erfcx leaves e^{x^2} erfc(x) for its expansion; 13b within
        # 4 eps kappa (2 + x_c^2), kappa = (A + B)/|A - B| the cancellation of
        # its bracket A - B = ch erfcx(x_c) - sh erfcx(x_s)
        monkeypatch.setattr(hyperbolic, "_record", lambda identity, params, lhs, q, rhs, tol: rhs)
        eps = 2.0**-53
        for alpha, phi in self._points(400, seed=24):
            q = HyperbolicQuery(alpha=alpha, phi=phi)
            r13a, r13b = erfc_identity_13a(q), erfc_identity_13b(q)
            x_s, x_c = alpha * math.sinh(phi / 2), alpha * math.cosh(phi / 2)
            with mp.workdps(50):
                al, ph = mp.mpf(alpha), mp.mpf(phi)
                sh, ch = mp.sinh(ph / 2), mp.cosh(ph / 2)
                big_a = ch * mp.exp((al * ch) ** 2) * mp.erfc(al * ch)
                big_b = sh * mp.exp((al * sh) ** 2) * mp.erfc(al * sh)
                ref_a = mp.pi / 2 * mp.exp(al**2 * mp.cosh(ph)) * mp.erfc(al * sh) * mp.erfc(al * ch)
                ref_b = mp.sqrt(mp.pi) / (2 * al) * (big_a - big_b)
                kappa = (big_a + big_b) / abs(big_a - big_b)
                err_a, err_b = abs(r13a - ref_a) / ref_a, abs(r13b - ref_b) / ref_b
            assert err_a <= 4 * eps * (2 + min(x_s**2, 113) + min(x_c**2, 113)), (alpha, phi)
            assert err_b <= 4 * eps * kappa * (2 + min(x_c**2, 113)), (alpha, phi)


class TestKIdentity:
    def test_frozen_point(self):
        rec = k_identity_14(HyperbolicQuery(a=1.0, phi=1.0))
        assert rec.lhs == pytest.approx(LHS_14_1_1, rel=1e-8)
        assert rec.rhs == pytest.approx(LHS_14_1_1, rel=1e-8)
        assert rec.passed

    @pytest.mark.parametrize("a", ALPHA_GRID)
    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_grid(self, a, phi):
        rec = k_identity_14(HyperbolicQuery(a=a, phi=phi), 1e-7)
        assert rec.passed, (a, phi, rec.rel_err)

    def test_monotone_in_a(self):
        vals = [k_identity_14(HyperbolicQuery(a=a, phi=1.0)).lhs for a in (1.0, 2.0, 4.0)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_small_shift_matches_mpmath(self):
        # no lower limit on phi: K_{1/4}(a sinh^2(phi/2)) ~ phi^{-1/2} is
        # accurate down to phi = 1e-8, and so is the theta quadrature
        for a in (0.2, 1.0, 4.0, 20.0):
            for phi in (0.04, 1e-3, 1e-6, 1e-8):
                rec = k_identity_14(HyperbolicQuery(a=a, phi=phi), 1e-9)
                assert rec.passed, (a, phi, rec.rel_err)
                exact = closed_form(lhs_14, a, phi)
                assert abs(rec.lhs - exact) <= 1e-9 * exact, (a, phi)
                assert abs(rec.rhs - exact) <= 1e-9 * exact, (a, phi)


class TestCallerTolerance:
    # (4, 3) has rel_err ~8e-12: it must fail at 1e-12, with no floor
    @pytest.mark.parametrize("fn, q", [
        (erfc_identity_13a, HyperbolicQuery(alpha=1.0, phi=1.0)),
        (erfc_identity_13b, HyperbolicQuery(alpha=1.0, phi=1.0)),
        (erfc_identity_13b, HyperbolicQuery(alpha=4.0, phi=3.0)),
        (k_identity_14, HyperbolicQuery(a=1.0, phi=1.0)),
    ])
    def test_record_judged_at_caller_tol(self, fn, q):
        tol = 1e-12
        rec = fn(q, tol)
        assert rec.passed == (rec.rel_err <= tol), rec


class TestLeftSides:
    """The theta quadratures on their own: the records' left sides, bit
    for bit, with no right side computed."""

    @pytest.mark.parametrize("lhs,identity,q", [
        (lhs_13a, erfc_identity_13a, HyperbolicQuery(alpha=1.0, phi=1.0)),
        (lhs_13b, erfc_identity_13b, HyperbolicQuery(alpha=4.0, phi=3.0)),
        (lhs_14, k_identity_14, HyperbolicQuery(a=1.0, phi=1.0)),
    ])
    def test_record_left_side(self, lhs, identity, q):
        r, rec = lhs(q, 1e-10), identity(q, 1e-8)
        assert (r.value, r.evaluations) == (rec.lhs, rec.evaluations)
        assert 0.0 <= r.error_estimate <= 1e-10 * r.value

    def test_one_panel_to_the_cut(self, monkeypatch):
        # each left side is one quadrature over [0, cut], and its exponent has
        # risen 50 above its value at theta = 0 at the cut
        calls = []
        inner = hyperbolic.integrate_finite

        def spy(f, lo, hi, tol):
            calls.append((lo, hi, inner(f, lo, hi, tol)))
            return calls[-1][2]

        monkeypatch.setattr(hyperbolic, "integrate_finite", spy)
        monkeypatch.setattr(hyperbolic, "pcf_d_product", None)  # the right side is not run
        # the rise of 14's exponent, a (cosh(th + phi) - cosh(phi)), as a product
        # that does not cancel
        rises = {
            lhs_13a: lambda q, th: q.alpha**2 * math.sinh(th) * math.sinh(th + q.phi),
            lhs_13b: lambda q, th: q.alpha**2 * math.sinh(th) * math.sinh(th + q.phi),
            lhs_14: lambda q, th: 2.0 * q.a * math.sinh(0.5 * th + q.phi) * math.sinh(0.5 * th),
        }
        for lhs, rise in rises.items():
            for x, phi in ((1e-3, 1e-8), (0.5, 0.5), (2.0, 3.0), (20.0, 0.01), (1.0, 40.0),
                           (800.0, 0.5)):
                q = HyperbolicQuery(alpha=x, a=x, phi=phi)
                calls.clear()
                r = lhs(q, 1e-10)
                ((lo, cut, result),) = calls
                assert lo == 0.0 and cut > 0.0 and result == r
                assert rise(q, cut) == pytest.approx(50.0, rel=1e-12), (lhs, x, phi, cut)

    def test_underflowing_exponent_integrates_to_zero(self):
        # e^{-a cosh(phi)} below the smallest double (14), or a cut that
        # underflows (13, on [0, 1]): the integrand is 0 at every node
        for r in (lhs_14(HyperbolicQuery(a=800.0, phi=0.5)),
                  lhs_14(HyperbolicQuery(a=1.0, phi=20.0)),
                  lhs_13a(HyperbolicQuery(alpha=1e200, phi=1.0)),
                  lhs_13b(HyperbolicQuery(alpha=1e100, phi=700.0))):
            assert (r.value, r.error_estimate) == (0.0, 0.0)

    @pytest.mark.parametrize("lhs", [lhs_13a, lhs_13b, lhs_14])
    def test_left_sides_match_mpmath(self, lhs):
        # a log grid over alpha or a in [1e-3, 20] and phi in [1e-8, 20]
        for x in np.geomspace(1e-3, 20.0, 7):
            for phi in np.geomspace(1e-8, 20.0, 8):
                q = HyperbolicQuery(alpha=x, a=x, phi=phi)
                r = lhs(q, 1e-10)
                ref = closed_form(lhs, x, phi)
                assert abs(r.value - ref) <= 1e-10 * ref, (x, phi, r.value, ref)

    def test_finite_where_the_closed_form_overflows(self):
        # e^{alpha^2 cosh(phi)}, about e^{9060}, is past a double, and the right side
        # carries it inside erfcx: the record passes on this left side
        q = HyperbolicQuery(alpha=30.0, phi=3.0)
        r, rec = lhs_13a(q), erfc_identity_13a(q)
        assert 0.0 < r.value < 1e-3
        assert rec.passed and rec.lhs == r.value, rec


class TestLeftSidesAgainstMpmath:
    """The three theta quadratures within the caller's tol of 40-digit
    mpmath, at named points and over a seeded log-uniform sweep."""

    @pytest.mark.parametrize("lhs,x,phi,tol", [
        # 2.4, 1.1, 9.2 and 2.6 tol off with the panel to an exponent of 785,
        # where the walk stopped on a prediction its levels had not earned
        (lhs_14, 0.0012801762904320086, 0.07290541443398982, 7.188083282892639e-07),
        (lhs_14, 0.009237346853904009, 2.3795433378376982, 4.331141726170695e-11),
        (lhs_13a, 0.006771113873604478, 0.09579700021250535, 1.6598540303824665e-07),
        (lhs_13a, 0.0036374272115944667, 1.3501391333716188, 6.16785562778349e-07),
        # 1.4 tol off on the panel to a rise of 50 before _SETTLED: its orders
        # 2.37 and 2.40 read across a level that moved the value by 10%
        (lhs_14, 0.00011121178591706416, 0.0002964902384015909, 1.9129623550048243e-08),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_named_points(self, lhs, x, phi, tol):
        r = lhs(HyperbolicQuery(alpha=x, a=x, phi=phi), tol)
        exact = closed_form(lhs, x, phi)
        assert abs(r.value - exact) <= tol * exact, (r, exact)

    @pytest.mark.parametrize("lhs,x,phi", [
        *((lhs, x, phi) for lhs in (lhs_13a, lhs_13b) for x in (1e-150, 1e150)
          for phi in (1e-300, 700.0)),
        *((lhs_14, x, phi) for x in (1e-300, 1e300) for phi in (1e-300, 700.0)),
        # a cosh(phi) of 700 to 745, where e^{-a cosh(phi)} leaves the doubles
        (lhs_14, 700.0, 1e-300), (lhs_14, 740.0, 1e-300), (lhs_14, 73.0, 3.0),
        (lhs_14, 482.8, 1.0),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_corners(self, lhs, x, phi):
        # the ends of the query's range: a value within tol, or 0.0 or a
        # subnormal where the integral leaves the doubles.  At alpha = 1e150 and
        # phi = 1e-300 the cut is 7e-150; sinh(delta + phi) as
        # sqrt(c + d - 1) sqrt(c + d + 1) cancelled to 0 and put it at 4.03,
        # where the walk raised ConvergenceError
        q = HyperbolicQuery(a=x, phi=phi) if lhs is lhs_14 else HyperbolicQuery(alpha=x, phi=phi)
        r = lhs(q, 1e-10)
        exponent = x * math.cosh(phi) * (1.0 if lhs is lhs_14 else x)
        # alpha = 1e150 at phi = 700: each side is below 1e-300
        exact = 0.0 if exponent == math.inf else closed_form(lhs, x, phi)
        if exact < 1e-290:
            assert abs(r.value - exact) <= 1e-300, (r, exact)
        else:
            assert abs(r.value - exact) <= 1e-10 * exact, (r, exact)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_sweep(self, seed):
        # alpha and a in [1e-4, 30], phi in [1e-4, 50] and tol in [1e-12, 1e-6],
        # log-uniform.  References below 1e-290 are skipped: the integrand is
        # subnormal there.  tol stops at 1e-12: below 1e-13 the rounding of an
        # exponent near 700, about 700 eps, exceeds tol where the change between
        # two levels, which share it, cannot see it (ROADMAP, "Error estimates that
        # bound the error from both sides").  The 1,500 points of each seed and
        # their references are those of mpmath_refs
        checked = 0
        for (form, x, phi, tol), exact in mpmath_refs.points(f"hyperbolic_left_sides_{seed}"):
            if exact < 1e-290:
                continue
            lhs = LEFT_SIDES[form]
            r = lhs(HyperbolicQuery(alpha=x, a=x, phi=phi), tol)
            assert abs(r.value - exact) <= tol * exact, (lhs.__name__, x, phi, tol, r, exact)
            checked += 1
        assert checked > 1300


class TestQueryValidation:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": -1.0}, {"a": 0.0}, {"phi": 0.0}, {"phi": -0.5},
    ])
    def test_positivity(self, kwargs):
        with pytest.raises(DomainError):
            HyperbolicQuery(**kwargs)

    @pytest.mark.parametrize("kwargs,limit", [
        ({"alpha": 1e-151}, "alpha must be finite and at least 1e-150"),
        ({"alpha": math.inf}, "alpha must be finite and at least 1e-150"),
        ({"a": 1e-301}, "a must be finite and at least 1e-300"),
        ({"phi": 700.5}, "phi must lie in (0, 700]"),
        ({"phi": math.nan}, "phi must lie in (0, 700]"),
    ])
    def test_range_names_its_limit(self, kwargs, limit):
        with pytest.raises(DomainError) as info:
            HyperbolicQuery(**kwargs)
        assert str(info.value).startswith(limit)

    def test_range_ends_are_accepted(self):
        # the cuts and every sinh and cosh stay finite at the ends
        for q in (HyperbolicQuery(alpha=1e-150, a=1e-300, phi=700.0),
                  HyperbolicQuery(alpha=1e-150, a=1e-300, phi=1.0)):
            for lhs in (lhs_13a, lhs_13b, lhs_14):
                r = lhs(q)
                assert math.isfinite(r.value) and r.value >= 0.0
        # K_{1/4} at a cosh^2(phi/2) = 1.3e-300 and a sinh^2(phi/2) = 2.7e-301
        rec = k_identity_14(HyperbolicQuery(a=1e-300, phi=1.0), 1e-9)
        assert rec.passed, rec

    @pytest.mark.parametrize("fn,alpha", [(erfc_identity_13a, 10.0), (erfc_identity_13a, 30.0),
                                          (erfc_identity_13b, 15.0), (erfc_identity_13a, 1e200),
                                          (erfc_identity_13b, 1e200)])
    def test_past_the_old_overflow(self, fn, alpha):
        # e^{alpha^2 cosh(phi)} (13a) and e^{alpha^2 cosh^2(phi/2)} (13b) leave
        # double range at phi = 3, and at alpha = 1e200 the exponent is inf; these
        # were DomainErrors.  Each exponential lives inside its erfcx, so the right
        # side is a value, 0.0 where both sides underflow
        rec = fn(HyperbolicQuery(alpha=alpha, phi=3.0))
        assert rec.passed, rec
        if alpha == 1e200:
            assert rec.lhs == rec.rhs == 0.0
        else:
            ref = closed_form(lhs_13a if fn is erfc_identity_13a else lhs_13b, alpha, 3.0)
            assert abs(rec.rhs - ref) <= 1e-11 * ref, (rec.rhs, ref)
