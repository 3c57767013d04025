"""Command-line interface: evaluation, verification sweeps, determinism."""

import json
import math
import os
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner

import pcfprod
from pcfprod import ConvergenceError, SeriesResult, SumRuleQuery, sum_rule_lhs
from pcfprod.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def first_value(output):
    return float(output.splitlines()[0])


def strict_json(text):
    """Parse ``text`` as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("prefix, loaded_by_series", [("scipy.integrate", False),
                                                      ("numpy", True)])
def test_import_leaves_module_unloaded(runner, prefix, loaded_by_series):
    # only the ODE oracle needs scipy.integrate, which takes about half a
    # second to import, and only a Hermite series needs numpy, which takes
    # more than the rest of a launch: neither `import pcfprod.cli` nor a
    # scalar `eval` may pay for them; a series loads numpy on its first call
    src = os.path.dirname(os.path.dirname(pcfprod.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    scalar = ["eval", "pcf_d", "--nu", "-1", "--z", "0"]
    series = ["eval", "series_for_I", "--nu", "1", "--X", "2", "--Y", "1"]
    probe = (f"print(any((m + '.').startswith({prefix + '.'!r}) for m in sys.modules), "
             f"file=sys.stderr)")
    code = "\n".join(["import sys", "from pcfprod.cli import main", probe,
                      f"main({scalar!r}, standalone_mode=False)", probe,
                      f"main({series!r}, standalone_mode=False)", probe])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stderr == f"False\nFalse\n{loaded_by_series}\n"
    scalar_line, series_line = out.stdout.splitlines()[:2]
    assert scalar_line == runner.invoke(main, scalar).output.splitlines()[0]
    assert series_line == runner.invoke(main, series).output.splitlines()[0]


def test_runs_without_scipy(runner):
    # scipy is only a test dependency: with every scipy import made to
    # fail, the ODE oracle still runs and prints the in-process value
    args = ["eval", "green_ode", "--lam", "0", "--x", "1", "--xprime", "0"]
    src = os.path.dirname(os.path.dirname(pcfprod.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys; sys.modules['scipy'] = None; "
            f"from pcfprod.cli import main; main({args!r})")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    r = runner.invoke(main, args)
    assert r.exit_code == 0
    assert out.stdout.splitlines()[0] == r.output.splitlines()[0]


class TestEval:
    def test_pcf_d_closed_point(self, runner):
        r = runner.invoke(main, ["eval", "pcf_d", "--nu", "-1", "--z", "0"])
        assert r.exit_code == 0
        assert first_value(r.output) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-10)

    def test_mehler_kernel_trivial(self, runner):
        r = runner.invoke(main, ["eval", "mehler_kernel", "--X", "1", "--Y", "0.5", "--u", "0"])
        assert r.exit_code == 0
        assert first_value(r.output) == 1.0

    def test_integral_matches_reference(self, runner):
        args = ["--nu", "1", "--x", "2", "--y", "1"]
        a = runner.invoke(main, ["eval", "product_integral", *args])
        b = runner.invoke(main, ["eval", "product_reference", *args])
        assert a.exit_code == 0 and b.exit_code == 0
        assert first_value(a.output) == pytest.approx(first_value(b.output), rel=1e-8)

    def test_metadata_lines(self, runner):
        r = runner.invoke(main, ["eval", "product_integral",
                                 "--nu", "1", "--x", "2", "--y", "1"])
        assert any(line.startswith("# evaluations = ") for line in r.output.splitlines())

    def test_clamped_tolerance_is_reported(self, runner):
        # one floor, 1e-9, for every Hermite-series target
        for args in (["series_for_I", "--nu", "1", "--X", "1", "--Y", "0.2"],
                     ["sum_rule_lhs", "--nu", "1", "--x", "2", "--y", "1"],
                     ["green_spectral", "--lam", "0", "--x", "1", "--xprime", "0"]):
            r = runner.invoke(main, ["eval", *args, "--tol", "1e-12"])
            assert r.exit_code == 0
            assert "# tol_effective = 1e-09" in r.output.splitlines()
            for tol in ("1e-9", "1e-6"):
                r = runner.invoke(main, ["eval", *args, "--tol", tol])
                assert r.exit_code == 0
                assert "tol_effective" not in r.output

    def test_route_is_looked_up_at_call_time(self, runner, monkeypatch):
        # a patched module attribute, as the benchmark's tracer installs,
        # sees the call; the result prints its value, then its other fields
        monkeypatch.setattr("pcfprod.mehler.sum_rule_lhs",
                            lambda q, tol: SeriesResult(q.nu, 3, tol))
        r = runner.invoke(main, ["eval", "sum_rule_lhs", "--nu", "1.5", "--x", "2", "--y", "1",
                                 "--tol", "1e-12"])
        assert r.exit_code == 0
        assert r.output.splitlines() == ["1.5", "# terms_used = 3", "# tail_bound = 1e-09",
                                         "# tol_effective = 1e-09"]

    def test_unknown_target(self, runner):
        r = runner.invoke(main, ["eval", "nope", "--x", "1"])
        assert r.exit_code != 0
        assert "unknown target" in r.output

    def test_missing_parameter(self, runner):
        r = runner.invoke(main, ["eval", "pcf_d", "--nu", "-1"])
        assert r.exit_code != 0
        assert "--z" in r.output

    def test_domain_error_exit_code(self, runner):
        r = runner.invoke(main, ["eval", "pcf_d", "--nu", "0.5", "--z", "1"])
        assert r.exit_code == 2
        assert "domain error" in r.output

    def test_erfc_route(self, runner):
        # the route calls math.erfc; the value was frozen with a 30-digit oracle
        r = runner.invoke(main, ["eval", "erfc", "--x", "1"])
        assert r.exit_code == 0
        assert first_value(r.output) == pytest.approx(0.1572992070502851307, rel=1e-14)

    def test_hermite_overflow_prints_inf(self, runner):
        r = runner.invoke(main, ["eval", "hermite", "--n", "400", "--x", "0"])
        assert r.exit_code == 0
        assert r.output == "inf\n"

    @pytest.mark.parametrize("target,codes", [("mehler_kernel", (2,)),
                                              ("mehler_kernel_series", (2, 3))])
    def test_mehler_overflow_exits_cleanly(self, runner, target, codes):
        r = runner.invoke(main, ["eval", target, "--X", "30", "--Y", "30", "--u", "0.9"])
        assert r.exit_code in codes, r.output

    @pytest.mark.parametrize("target", ["hermite", "eigenfunction"])
    @pytest.mark.parametrize("n", ["2.5", "nan", "-1"])
    def test_non_integer_degree_is_domain_error(self, runner, target, n):
        # the degree is checked, not truncated: --n 2.5 is not H_2
        r = runner.invoke(main, ["eval", target, "--n", n, "--x", "1"])
        assert r.exit_code == 2
        assert "domain error" in r.output

    def test_nan_order_is_domain_error(self, runner):
        r = runner.invoke(main, ["eval", "pcf_d", "--nu", "nan", "--z", "1"])
        assert r.exit_code == 2
        assert "domain error" in r.output

    @pytest.mark.parametrize("args", [
        "series_for_I --nu 1 --X 2 --Y 1 --tol nan",
        "series_for_I --nu 1 --X inf --Y 0",
        "sum_rule_lhs --nu 1 --x inf --y 0",
        "green_spectral --lam nan --x 1 --xprime 0",
        "green_ode --lam nan --x 1 --xprime 0",
        # max(1, nan) is 1: this one used to print G at x = x'
        "green_ode --lam 0 --x 1 --xprime nan",
        # hermite and eigenfunction used to print nan, laplace_I 0.0, and
        # product_integral exit 3 on a NaN integrand; pcf_d named the
        # quadrature's decay rate rather than z
        "hermite --n 2 --x nan",
        "eigenfunction --n 2 --x nan",
        "laplace_I --nu 1 --a inf --b 1 --sign 1",
        "product_integral --nu 1 --x inf --y 1",
        "pcf_d --nu -1 --z nan",
        # a nan sign used to end in a ValueError traceback, and an infinite
        # phi in a left side of 0.0
        "laplace_I --nu 1 --a 2 --b 1 --sign nan",
        "hyperbolic_lhs_14 --a 1 --phi inf",
    ], ids=lambda a: a.replace(" --", "-").replace(" ", "="))
    def test_non_finite_input_is_domain_error(self, runner, args):
        r = runner.invoke(main, ["eval", *args.split()])
        assert r.exit_code == 2, r.output
        assert r.output.startswith("domain error: ")
        if args.startswith("pcf_d"):
            assert "z=nan" in r.output

    def test_hyperbolic_left_sides(self, runner):
        # the theta integral alone: its error estimate, and no right side,
        # so a point where e^{alpha^2 cosh(phi)} overflows still has one
        for args in (["hyperbolic_lhs_13a", "--alpha", "1", "--phi", "1"],
                     ["hyperbolic_lhs_13b", "--alpha", "1", "--phi", "1"],
                     ["hyperbolic_lhs_14", "--a", "1", "--phi", "1"],
                     ["hyperbolic_lhs_13a", "--alpha", "30", "--phi", "3"]):
            r = runner.invoke(main, ["eval", *args])
            assert r.exit_code == 0, r.output
            value, error, evaluations = r.output.splitlines()
            assert float(value) > 0.0
            assert error.startswith("# error_estimate = ")
            assert evaluations.startswith("# evaluations = ")


class TestVerify:
    def test_single_point_sum_rule(self, runner):
        r = runner.invoke(main, ["verify", "EQ15", "--nu", "1", "--x", "2", "--y", "1"])
        assert r.exit_code == 0
        lines = [l for l in r.output.splitlines() if l.startswith("EQ15")]
        assert len(lines) == 1
        assert lines[0].endswith("true")
        assert "pass=1 fail=0 skip=0" in r.output

    # one point per domain rule the library enforces for `verify`
    @pytest.mark.parametrize("args", [
        "EQ3 --X 1 --Y 0.5 --u 0.95",
        "EQ10 --nu 1 --x 1 --y 2",
        "EQ11 --nu 1 --a 1 --b 2",
        "EQ12 --nu 1 --a 1.5 --b -0.5",
        "EQ13A --alpha 10 --phi 3",
        "EQ13B --alpha 15 --phi 3",
        "EQ14 --a 1 --phi 0.01",
        "EQ15 --nu 1 --x 1 --y 2",
        "EQ8_EQ9 --lam 0.5 --x 0 --xprime 0",
        "EQ8_EQ9 --lam 1.5 --x 1 --xprime 0",
        # non-finite input is outside every domain
        "EQ15 --nu 1 --x inf --y 0",
        "EQ15 --nu 1 --x 2 --y 1 --tol nan",
        "EQ8_EQ9 --lam 0 --x inf --xprime 0",
    ], ids=lambda a: a.replace(" --", "-").replace(" ", "="))
    def test_out_of_domain_point_is_skipped(self, runner, args):
        r = runner.invoke(main, ["verify", *args.split()])
        assert r.exit_code == 0
        assert "skipped" in r.output
        assert "skip=1" in r.output

    def test_near_diagonal_sum_rule_passes(self, runner):
        # x - y = 0.1 (X - Y = 0.07) used to stall at 524,288 terms
        r = runner.invoke(main, ["verify", "EQ15", "--nu", "1", "--x", "2", "--y", "1.9"])
        assert r.exit_code == 0
        assert "pass=1 fail=0 skip=0" in r.stdout

    def test_convergence_error_is_a_failed_record(self, runner):
        # x - y = 0.01 needs more Abel-weighted terms than the 2^19 cap
        args = ["verify", "EQ15", "--nu", "1", "--x", "2", "--y", "1.99"]
        r = runner.invoke(main, args)
        assert r.exit_code == 1
        rows = [l for l in r.stdout.splitlines() if l.startswith("EQ15")]
        assert len(rows) == 1 and rows[0].endswith(",nan,nan,nan,false")
        assert "pass=0 fail=1 skip=0" in r.stdout
        # the note lists every candidate weight up to the cap, not just the last
        (note,) = r.stderr.splitlines()
        assert "bilinear Hermite sum missed tol=1.25e-07 at " in note
        listed = [float(c) for c in re.findall(r"1-u=([^,\s]+) tail ", note)]
        assert len(listed) >= 25
        assert listed == pytest.approx([0.5 * 2.0 ** (-0.5 * k) for k in range(len(listed))],
                                       rel=1e-3)
        # the record keeps the partial sum as lhs and its term count as cost
        with pytest.raises(ConvergenceError) as info:
            sum_rule_lhs(SumRuleQuery(1.0, 2.0, 1.99), 2.5e-7)
        partial = info.value.partial
        assert rows[0].split(",")[4] == repr(partial.value)
        (rec,) = strict_json(runner.invoke(main, [*args, "--format", "json"]).stdout)["records"]
        assert (rec["lhs"], rec["evaluations"]) == (partial.value, partial.terms_used)
        assert rec["rhs"] is rec["abs_err"] is rec["rel_err"] is None
        assert 2 ** 18 < rec["evaluations"] <= 2 ** 19

    def test_csv_reason_goes_to_stderr(self, runner):
        r = runner.invoke(main, ["verify", "EQ15", "--nu", "1", "--x", "1:2:2", "--y", "1.99"])
        assert r.exit_code == 1
        with pytest.raises(ConvergenceError) as info:
            sum_rule_lhs(SumRuleQuery(1.0, 2.0, 1.99), 2.5e-7)
        assert r.stdout.splitlines() == [
            "identity_id,nu,x,y,lhs,rhs,abs_err,rel_err,passed",
            "EQ15,1.0,1.0,1.99,nan,nan,nan,nan,skipped",
            f"EQ15,1.0,2.0,1.99,{info.value.partial.value!r},nan,nan,nan,false",
            "# summary: pass=0 fail=1 skip=1",
        ]
        notes = r.stderr.splitlines()
        assert len(notes) == 2
        assert notes[0] == "# EQ15 nu=1.0 x=1.0 y=1.99: sum rule requires x > y, got x=1.0, y=1.99"
        assert notes[1].startswith("# EQ15 nu=1.0 x=2.0 y=1.99: bilinear Hermite sum missed tol")
        # a deterministic miss: about 14x over its tolerance
        r = runner.invoke(main, ["verify", "EQ10", "--nu", "0.9985", "--x", "26.145",
                                 "--y", "26.0815", "--tol", "1e-12"])
        assert r.exit_code == 1
        assert r.stderr == "# EQ10 nu=0.9985 x=26.145 y=26.0815: error above tolerance\n"
        r = runner.invoke(main, ["verify", "EQ10", "--nu", "1", "--x", "2", "--y", "1",
                                 "--tol", "1e-16"])
        assert r.stderr == "# EQ10 nu=1.0 x=2.0 y=1.0: quadrature tol clamped to 1e-14\n"

    # tol 0.5 takes EQ10-EQ12, integrated at tol/10, above the engines'
    # range, but not the hyperbolic identities, integrated at min(tol, 1e-10)
    NOTE_AT_HALF = dict.fromkeys(("EQ10", "EQ11", "EQ12"), "quadrature tol clamped to 0.01")

    @pytest.mark.parametrize("identity,args", [
        ("EQ10", ["--nu", "1", "--x", "2", "--y", "1"]),
        ("EQ11", ["--nu", "1", "--a", "2", "--b", "1"]),
        ("EQ12", ["--nu", "1", "--a", "2", "--b", "1"]),
        ("EQ13A", ["--alpha", "1", "--phi", "1"]),
        ("EQ13B", ["--alpha", "1", "--phi", "1"]),
        ("EQ14", ["--a", "1", "--phi", "1"]),
    ])
    def test_quadrature_tol_clamp_is_noted(self, runner, identity, args):
        notes = {}
        for tol, fmt in (("1e-16", "json"), ("0.5", "json"), ("1e-8", "json"),
                         ("1e-16", "csv")):
            r = runner.invoke(main, ["verify", identity, *args, "--tol", tol, "--format", fmt])
            if fmt == "json":
                (rec,) = strict_json(r.stdout)["records"]
                assert rec["status"] != "skip"
                notes[tol] = rec["note"]
            else:
                assert r.stderr.endswith(" quadrature tol clamped to 1e-14\n")
        assert notes == {"1e-16": "quadrature tol clamped to 1e-14",
                         "0.5": self.NOTE_AT_HALF.get(identity, ""), "1e-8": ""}

    def test_clamped_failure_keeps_its_reason(self, runner):
        # rel_err about 3.7e-14, from the direct product at large x and y
        r = runner.invoke(main, ["verify", "EQ10", "--nu", "1", "--x", "15", "--y", "14",
                                 "--tol", "1e-15"])
        assert r.exit_code == 1
        assert r.stderr == ("# EQ10 nu=1.0 x=15.0 y=14.0: error above tolerance; "
                            "quadrature tol clamped to 1e-14\n")

    def test_identity_name_case_insensitive(self, runner):
        r = runner.invoke(main, ["verify", "eq13a", "--alpha", "1", "--phi", "1"])
        assert r.exit_code == 0
        assert "pass=1" in r.output

    def test_default_grid(self, runner):
        r = runner.invoke(main, ["verify", "EQ13A"])
        assert r.exit_code == 0
        assert "pass=9 fail=0 skip=0" in r.output

    def test_gridspec_expansion(self, runner):
        r = runner.invoke(main, ["verify", "EQ13A", "--alpha", "0.5:2:4", "--phi", "1"])
        assert r.exit_code == 0
        assert "pass=4 fail=0 skip=0" in r.output

    def test_log_gridspec(self, runner):
        r = runner.invoke(main, ["verify", "EQ13A", "--alpha", "log:0.5:2:3", "--phi", "1"])
        assert r.exit_code == 0
        assert "pass=3 fail=0 skip=0" in r.output

    def test_malformed_gridspec(self, runner):
        r = runner.invoke(main, ["verify", "EQ13A", "--alpha", "1:2", "--phi", "1"])
        assert r.exit_code != 0
        assert "malformed range spec" in r.output

    def test_unknown_identity(self, runner):
        r = runner.invoke(main, ["verify", "EQ99"])
        assert r.exit_code != 0
        assert "unknown identity" in r.output

    def test_json_has_no_nan(self, runner):
        # a skipped record has no numbers: JSON null, not the NaN literal
        r = runner.invoke(main, ["verify", "EQ10", "--nu", "1", "--x", "1", "--y", "2",
                                 "--format", "json"])
        assert r.exit_code == 0
        (rec,) = strict_json(r.stdout)["records"]
        assert rec["status"] == "skip"
        assert [rec[k] for k in ("lhs", "rhs", "abs_err", "rel_err")] == [None] * 4
        r = runner.invoke(main, ["verify", "EQ15", "--nu", "1", "--x", "inf", "--y", "0",
                                 "--format", "json"])
        assert strict_json(r.stdout)["records"][0]["params"] == {"nu": 1.0, "x": None, "y": 0.0}

    def test_json_format(self, runner):
        r = runner.invoke(main, ["verify", "EQ13B", "--format", "json",
                                 "--alpha", "1", "--phi", "0.5:1.5:2"])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["summary"] == {"pass": 2, "fail": 0, "skip": 0}
        assert len(doc["records"]) == 2
        assert all(rec["status"] == "pass" for rec in doc["records"])

    def test_csv_header(self, runner):
        r = runner.invoke(main, ["verify", "EQ14", "--a", "1", "--phi", "1"])
        assert r.output.splitlines()[0] == \
            "identity_id,a,phi,lhs,rhs,abs_err,rel_err,passed"

    def test_determinism(self, runner):
        cmd = ["verify", "EQ3", "--u", "-0.5:0.5:3"]
        a = runner.invoke(main, cmd)
        b = runner.invoke(main, cmd)
        assert a.exit_code == 0
        assert a.output == b.output


class TestExploreEqualArgs:
    def test_boundary_report(self, runner):
        r = runner.invoke(main, ["explore-equal-args", "--nu", "1", "--x", "2"])
        assert r.exit_code == 0
        assert "relative discrepancy" in r.output
        assert "finding:" in r.output

    def test_unconverged_integral_is_reported_as_the_product(self, runner):
        # at tol 1e-10 the quadrature raises; its partial must carry the
        # product's prefactor, not be the bare Laplace integral
        r = runner.invoke(main, ["explore-equal-args", "--nu", "1", "--x", "2",
                                 "--tol", "1e-10"])
        assert r.exit_code == 0
        rel = float(re.search(r"relative discrepancy:\s+(\S+)", r.output).group(1))
        assert rel <= 1e-4
        assert "finding: the integral converges" in r.output
