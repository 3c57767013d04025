"""Hyperbolic integral identities: theta-quadrature vs closed forms."""

import math

import numpy as np
import pytest

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

    def test_small_shift_guard(self):
        with pytest.raises(DomainError):
            k_identity_14(HyperbolicQuery(a=1.0, phi=0.01))


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

    def test_14_adds_its_two_panels(self, monkeypatch):
        panels = []
        inner = hyperbolic.integrate_finite

        def spy(f, lo, hi, tol):
            panels.append(inner(f, lo, hi, tol))
            return panels[-1]

        monkeypatch.setattr(hyperbolic, "integrate_finite", spy)
        monkeypatch.setattr(hyperbolic, "bessel_k_quarter", None)  # the right side is not run
        r = lhs_14(HyperbolicQuery(a=2.0, phi=0.5), 1e-10)
        a, b = panels
        assert (r.value, r.error_estimate, r.evaluations) == (
            a.value + b.value, a.error_estimate + b.error_estimate, a.evaluations + b.evaluations)

    def test_finite_where_the_closed_form_overflows(self):
        q = HyperbolicQuery(alpha=30.0, phi=3.0)
        with pytest.raises(DomainError, match="closed form overflows"):
            erfc_identity_13a(q)
        r = lhs_13a(q)
        assert 0.0 < r.value < 1e-3


class TestQueryValidation:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": -1.0}, {"a": 0.0}, {"phi": 0.0}, {"phi": -0.5},
    ])
    def test_positivity(self, kwargs):
        with pytest.raises(DomainError):
            HyperbolicQuery(**kwargs)

    @pytest.mark.parametrize("fn,alpha", [(erfc_identity_13a, 10.0), (erfc_identity_13a, 30.0),
                                          (erfc_identity_13b, 15.0)])
    def test_closed_form_overflow_is_out_of_domain(self, fn, alpha):
        # e^{alpha^2 cosh(phi)} (13a) and e^{alpha^2 cosh^2(phi/2)} (13b) leave
        # double range at phi = 3
        with pytest.raises(DomainError, match="closed form overflows"):
            fn(HyperbolicQuery(alpha=alpha, phi=3.0))
