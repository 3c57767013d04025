"""Acceptance battery: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines;
every criterion is also an ordinary assertion, so a silent run still
gates on all of them.
"""

import math
import time

import numpy as np
import pytest

import pcfprod as pp
from pcfprod.mehler import sum_rule_term_decay_exponent


def report(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_product_representation_grid():
    t0 = time.perf_counter()
    worst = 0.0
    points = 0
    for nu in (0.5, 1.0, 1.5, 2.5):
        for x in (1.5, 2.0, 3.0, 4.0):
            for y in (0.3, 0.7, 1.2):
                q = pp.ProductQuery(nu, x, y)
                got = pp.product_via_integral(q, 1e-9).value
                ref = pp.product_reference(q)
                worst = max(worst, abs(got - ref) / abs(ref))
                points += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed <= 60.0
    report(1, "integral representation of the product", ok,
           f"{points} grid points, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed <= 60.0


def test_criterion_2_laplace_transform_forms():
    rng = np.random.default_rng(101)
    worst = {1: 0.0, -1: 0.0}
    for sign in (1, -1):
        for _ in range(20):
            nu = rng.uniform(0.5, 4.0)
            b = rng.uniform(0.3, 3.0)
            a = b + rng.uniform(0.1, 2.5)
            p = pp.LaplaceParams(nu, a, b)
            got = pp.laplace_I(p, sign, 1e-10).value
            q = pp.xy_from_params(p)
            y_arg = -q.y if sign == 1 else q.y
            ref = (2.0 * math.exp(0.5 * a) * pp.gamma(nu)
                   * pp.pcf_d(-nu, q.x) * pp.pcf_d(-nu, y_arg))
            worst[sign] = max(worst[sign], abs(got - ref) / abs(ref))
    ok = max(worst.values()) <= 1e-8
    report(2, "Laplace-transform forms, both signs", ok,
           f"20 random sets per sign, worst rel err +:{worst[1]:.2e} -:{worst[-1]:.2e}")
    assert ok


def test_criterion_3_bilinear_kernel():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(200):
        p = pp.MehlerPoint(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-0.9, 0.9))
        s = pp.mehler_kernel_series(p, 1e-11).value
        c = pp.mehler_kernel_closed(p)
        worst = max(worst, abs(s - c) / (1.0 + max(abs(s), abs(c))))
    ok = worst <= 1e-9
    report(3, "kernel closed form vs series", ok,
           f"200 random points, worst mixed err {worst:.2e}")
    assert ok


def test_criterion_4_series_vs_quadrature():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(30):
        nu = rng.uniform(0.5, 6.0)
        b = rng.uniform(0.1, 4.0)
        a = b + rng.uniform(0.05, 3.0)
        X = 0.5 * (math.sqrt(a + b) + math.sqrt(a - b))
        Y = 0.5 * (math.sqrt(a + b) - math.sqrt(a - b))
        s = pp.series_for_I(nu, X, Y, 1e-8).value

        def f(t):
            expo = -a * t + b * math.sqrt(t * (t + 1.0))
            if expo < -745.0:
                return 0.0
            return t**(nu - 1.0) * (1.0 + t)**(-nu - 0.5) * math.exp(expo)

        ref = pp.integrate_semi_infinite(f, a - b, 1e-11).value
        worst = max(worst, abs(s - ref) / abs(ref))
    ok = worst <= 1e-8
    report(4, "Abel-weighted series vs direct quadrature", ok,
           f"30 random sets, worst rel err {worst:.2e}")
    assert ok


def test_criterion_5_green_three_way():
    worst = 0.0
    count = 0
    for lam in (-3.0, -1.0, 0.0, 0.5):
        for x, xp in ((1.0, 0.0), (2.0, -1.0), (1.5, 0.5)):
            q = pp.GreenQuery(lam, x, xp)
            spectral = pp.green_spectral(q, 5e-7).value
            closed = pp.green_closed(q)
            ode = pp.green_ode_oracle(q)
            worst = max(worst,
                        abs(spectral - closed) / abs(closed),
                        abs(ode - closed) / abs(closed))
            count += 1
    ok = worst <= 1e-6
    report(5, "Green function three-way agreement", ok,
           f"{count} battery points, worst rel err {worst:.2e}")
    assert ok


def test_criterion_6_hyperbolic_identities():
    worst_erfc, worst_k = 0.0, 0.0
    for alpha in np.geomspace(0.3, 4.0, 5):
        for phi in np.geomspace(0.1, 3.0, 5):
            ra = pp.erfc_identity_13a(pp.HyperbolicQuery(alpha=alpha, phi=phi), 1e-8)
            rb = pp.erfc_identity_13b(pp.HyperbolicQuery(alpha=alpha, phi=phi), 1e-8)
            rk = pp.k_identity_14(pp.HyperbolicQuery(a=alpha, phi=phi), 1e-7)
            assert ra.passed and rb.passed and rk.passed, (alpha, phi)
            worst_erfc = max(worst_erfc, ra.rel_err, rb.rel_err)
            worst_k = max(worst_k, rk.rel_err)
    ok = worst_erfc <= 1e-8 and worst_k <= 1e-7
    report(6, "hyperbolic integral identities", ok,
           f"5x5 grids, worst rel err erfc pair {worst_erfc:.2e}, K quarter {worst_k:.2e}")
    assert ok


def test_criterion_7_sum_rule():
    worst = 0.0
    terms = []
    for nu in (0.5, 1.0, 2.0):
        for x, y in ((2.0, 1.0), (3.0, 0.5), (2.5, -0.5)):
            lhs = pp.sum_rule_lhs(pp.SumRuleQuery(nu, x, y), 5e-7)
            rhs = pp.gamma(nu) * pp.product_reference(pp.ProductQuery(nu, x, y))
            worst = max(worst, abs(lhs.value - rhs) / abs(rhs))
            terms.append(lhs.terms_used)
    decay = sum_rule_term_decay_exponent(pp.SumRuleQuery(1.0, 2.0, 1.0))
    ok = worst <= 5e-7 and 1.3 <= decay <= 1.7
    report(7, "product sum rule", ok,
           f"9 triples, worst rel err {worst:.2e}, terms used {min(terms)}..{max(terms)}, "
           f"term decay exponent {decay:.3f}")
    assert worst <= 5e-7
    assert 1.3 <= decay <= 1.7


def test_criterion_8_equal_arguments_boundary():
    # the paper states the representation for x > y and asserts divergence
    # at x = y; the integrand tail there is ~ t^{-3/2}, which is integrable,
    # and x = y is in the library's domain: the integral meets its tol there
    worst = 0.0
    for nu, x in ((0.5, 0.3), (1.0, 2.0), (2.5, 4.0)):
        q = pp.ProductQuery(nu, x, x)
        got = pp.product_via_integral(q, 1e-9).value
        ref = pp.product_reference(q)
        worst = max(worst, abs(got - ref) / abs(ref))
    ok = worst <= 1e-8
    report(8, "equal-arguments boundary", ok,
           f"3 points at x = y, worst rel err {worst:.2e} against the direct product")
    assert ok


def test_criterion_9_cli_verification_deterministic(run_cli):
    a = run_cli(["verify", "all"])
    b = run_cli(["verify", "all"])
    summary = next(l for l in a.stdout.splitlines() if l.startswith("# summary"))
    ok = a.exit_code == 0 and b.exit_code == 0 and a == b
    report(9, "CLI full verification sweep", ok,
           f"exit {a.exit_code}, reruns byte-identical: {a == b}, {summary}")
    assert a.exit_code == 0
    assert a == b
    assert summary == "# summary: pass=136 fail=0 skip=0"
