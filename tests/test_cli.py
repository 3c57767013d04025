"""Command-line interface: evaluation, verification sweeps, determinism."""

import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_cases
import pcfprod
from pcfprod import (ConvergenceError, DomainError, HyperbolicQuery, LaplaceParams,
                     ProductQuery, SeriesResult, SumRuleQuery, hermsum, laplace_I, lhs_14,
                     product_via_integral, quadrature, sum_rule_lhs)
from pcfprod.cli import EVAL_TARGETS, IDENTITIES, _evaluate_identity, _record_json
from pcfprod.report import make_record


def first_value(output):
    return float(output.splitlines()[0])


def strict_json(text):
    """Parse ``text`` as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def table_test(rows, ids=cli_cases.row_id):
    """A test that runs ``rows`` of the reproducer table in process; each
    row runs under exactly one such test.  A test whose rows came from one
    parametrized test keeps that test's name and ``ids``."""
    @pytest.mark.parametrize("row", rows, ids=ids)
    def test(self, run_cli, row):
        r = run_cli(row[0].split())
        why = cli_cases.failure(row, *r)
        assert not why, f"{why}; exit code {r.exit_code}, stderr {r.stderr!r}"
    test.rows = rows
    return test


def tree_pythonpath():
    """PYTHONPATH for a fresh interpreter that imports pcfprod from this tree."""
    src = os.path.dirname(os.path.dirname(pcfprod.__file__))
    return os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports pcfprod from this tree."""
    env = {**os.environ, "PYTHONPATH": tree_pythonpath()}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("prefix, loaded_by_series", [("scipy.integrate", False),
                                                      ("numpy", True),
                                                      ("click", False),
                                                      ("dataclasses", False),
                                                      ("inspect", True),
                                                      ("pcfprod.glasser", False),
                                                      ("pcfprod.green", False),
                                                      ("pcfprod.mehler", True)])
def test_import_leaves_module_unloaded(run_cli, prefix, loaded_by_series):
    # scipy.integrate, which takes about half a second to import, is only a
    # test dependency, and only a Hermite series needs numpy, which takes
    # more than the rest of a launch: neither `import pcfprod.cli` nor a
    # scalar or ODE `eval` may pay for them; a series loads numpy on its first
    # call. The command line is parsed without click, records are NamedTuples
    # (numpy, not pcfprod, imports inspect), and a library module loads
    # with the first route that uses it: the ODE eval loads pcfprod.green only
    scalar = ["eval", "pcf_d", "--nu", "-1", "--z", "0"]
    ode = ["eval", "green_ode", "--lam", "0", "--x", "1", "--xprime", "0"]
    series = ["eval", "series_for_I", "--nu", "1", "--X", "2", "--Y", "1"]
    loaded_by_ode = prefix == "pcfprod.green"
    probe = (f"print(any((m + '.').startswith({prefix + '.'!r}) for m in sys.modules), "
             f"file=sys.stderr)")
    out = run_python("\n".join(["import sys", "from pcfprod.cli import main", probe,
                                f"main({scalar!r}, standalone_mode=False)", probe,
                                f"main({ode!r}, standalone_mode=False)", probe,
                                f"main({series!r}, standalone_mode=False)", probe]))
    assert out.returncode == 0, out.stderr
    assert out.stderr == f"False\nFalse\n{loaded_by_ode}\n{loaded_by_ode or loaded_by_series}\n"
    scalar_line, ode_line, series_line = out.stdout.splitlines()[:3]
    assert scalar_line == run_cli(scalar).stdout.splitlines()[0]
    assert ode_line == run_cli(ode).stdout.splitlines()[0]
    assert series_line == run_cli(series).stdout.splitlines()[0]


def test_runs_without_scipy(run_cli):
    # scipy is only a test dependency: with every scipy import made to
    # fail, the ODE oracle still runs and prints the in-process value
    args = ["eval", "green_ode", "--lam", "0", "--x", "1", "--xprime", "0"]
    out = run_python(f"import sys; sys.modules['scipy'] = None; "
                     f"from pcfprod.cli import main; main({args!r})")
    assert out.returncode == 0, out.stderr
    r = run_cli(args)
    assert r.exit_code == 0
    assert out.stdout.splitlines()[0] == r.stdout.splitlines()[0]


@pytest.mark.parametrize("args", [
    ["eval", "pcf_d", "--nu", "-1", "--z", "0"],
    ["verify", "EQ15", "--nu", "1", "--x", "1:2:2", "--y", "0.5", "--format", "json"],
    ["eval", "nope"],
], ids=lambda a: "-".join(a[:2]))
def test_runs_without_click(run_cli, args):
    # no CLI dependency may come back: with every click import made to fail,
    # a command prints what it prints in process, with the same status
    out = run_python(f"import sys; sys.modules['click'] = None; "
                     f"from pcfprod.cli import main; main({args!r})")
    assert (out.returncode, out.stdout, out.stderr) == tuple(run_cli(args))


@pytest.mark.parametrize("command", [[], ["eval"], ["verify"]],
                         ids=lambda c: "-".join(c) or "top")
def test_help(run_cli, command):
    r = run_cli([*command, "--help"])
    assert r.exit_code == 0
    assert r.stdout.startswith(f"usage: {' '.join(['pcfprod', *command])} ")
    assert r.stderr == ""
    if command == ["verify"]:
        # the docstring's body, its common indentation removed
        assert "\n\nDefault grids are used for parameters without an explicit\n--name" in r.stdout


# each usage error's whole message, after argparse's usage line and "pcfprod <command>: error: "
USAGE_ERRORS = [
    ("eval nope --x 1", "unknown target 'nope'; known targets: bessel_k_quarter, "
                        "eigenfunction, gamma, green_closed, green_ode, green_spectral, "
                        "hermite, hyperbolic_lhs_13a, hyperbolic_lhs_13b, hyperbolic_lhs_14, "
                        "laplace_I, mehler_kernel, mehler_kernel_series, pcf_d, "
                        "product_integral, product_reference, series_for_I, sum_rule_lhs"),
    ("eval pcf_d --nu -1", "missing parameter(s): --z"),
    ("eval pcf_d --nu -1 --z", "missing value for --z"),
    ("eval pcf_d --nu -1 z 0", "expected --name, got 'z'"),
    ("eval pcf_d --nu abc --z 0", "invalid parameter value: could not convert string to "
                                  "float: 'abc'"),
    ("eval pcf_d --nu -1 --z 0 --tol abc", "Invalid value for '--tol': 'abc' is not a valid "
                                           "float."),
    ("verify EQ99", "unknown identity 'EQ99'; choose from EQ3, EQ10, EQ11, EQ12, EQ13A, "
                    "EQ13B, EQ14, EQ15, EQ8_EQ9 or 'all'"),
    ("verify EQ13A --alpha 1:2 --phi 1", "malformed range spec for --alpha: '1:2' "
                                         "(want lo:hi:count or log:lo:hi:count)"),
    ("verify EQ13A --alpha log:-1:2:3", "log spacing needs positive bounds in "
                                        "--alpha='log:-1:2:3'"),
    ("verify EQ13A --alpha log:0:2:3", "log spacing needs positive bounds in "
                                       "--alpha='log:0:2:3'"),
    ("verify EQ13A --alpha log:1:0:3", "log spacing needs positive bounds in "
                                       "--alpha='log:1:0:3'"),
    ("verify EQ13A --beta 1", "EQ13A takes parameters ('alpha', 'phi'), not ['beta']"),
    ("verify all --foo 1", "all takes parameters ('X', 'Y', 'u', 'nu', 'x', 'y', 'a', 'b', "
                           "'alpha', 'phi', 'lam', 'xprime'), not ['foo']"),
    ("verify EQ13A --format xml", "Invalid value for '--format': 'xml' is not one of "
                                  "'csv', 'json'."),
    # a parameter the target does not take, or one given twice, is not ignored
    ("eval product_integral --nu 1 --x 2 --y 1 --tool 1e-3",
     "product_integral takes parameters ('nu', 'x', 'y'), not ['tool']"),
    ("eval pcf_d --nu -1 --z 0 --nu 5", "--nu given more than once"),
    ("verify EQ10 --nu 1 --nu 2 --x 2 --y 1", "--nu given more than once"),
]


@pytest.mark.parametrize("args, message", USAGE_ERRORS,
                         ids=[a.replace(" --", "-").replace(" ", "=") for a, _ in USAGE_ERRORS])
def test_usage_error(run_cli, args, message):
    r = run_cli(args.split())
    assert r.exit_code == 2
    assert r.stdout == ""
    usage, error = r.stderr.splitlines()
    command = args.split()[0]
    assert usage.startswith(f"usage: pcfprod {command} ")
    assert error == f"pcfprod {command}: error: {message}"


class TestEval:
    def test_pcf_d_closed_point(self, run_cli):
        r = run_cli(["eval", "pcf_d", "--nu", "-1", "--z", "0"])
        assert r.exit_code == 0
        assert first_value(r.stdout) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-10)

    def test_mehler_kernel_trivial(self, run_cli):
        r = run_cli(["eval", "mehler_kernel", "--X", "1", "--Y", "0.5", "--u", "0"])
        assert r.exit_code == 0
        assert first_value(r.stdout) == 1.0

    test_green_spectral_beside_an_eigenvalue = table_test(
        cli_cases.BESIDE_AN_EIGENVALUE, ids=lambda row: f"{row[0].split()[3]}-{row[1]}")

    def test_integral_matches_reference(self, run_cli):
        args = ["--nu", "1", "--x", "2", "--y", "1"]
        a = run_cli(["eval", "product_integral", *args])
        b = run_cli(["eval", "product_reference", *args])
        assert a.exit_code == 0 and b.exit_code == 0
        assert first_value(a.stdout) == pytest.approx(first_value(b.stdout), rel=1e-8)

    def test_metadata_lines(self, run_cli):
        r = run_cli(["eval", "product_integral",
                                 "--nu", "1", "--x", "2", "--y", "1"])
        assert any(line.startswith("# evaluations = ") for line in r.stdout.splitlines())

    test_extreme_input_keeps_the_error_contract = table_test(
        cli_cases.EXTREME_INPUT,
        ids=[f"argv{i}-{row[1]}" for i, row in enumerate(cli_cases.EXTREME_INPUT)])

    def test_green_closed_keeps_an_underflowing_factor(self, run_cli):
        # D_{-15.5}(38 sqrt 2) = 3.7e-342 underflows; G does not (40-digit mpmath)
        r = run_cli(["eval", "green_closed", "--lam", "-30", "--x", "38", "--xprime", "10"])
        assert r.exit_code == 0
        assert first_value(r.stdout) == pytest.approx(1.115118243961698e-302, rel=1e-14)

    @pytest.mark.parametrize("tol", ["1e-12", "1e-14"])
    def test_series_tolerance_is_taken_as_given(self, run_cli, tol):
        # no floor: each Hermite series runs at --tol, and either its bound
        # meets it or it exits 3 with its best value and that value's bound
        for args in (["series_for_I", "--nu", "1", "--X", "1", "--Y", "0.2"],
                     ["sum_rule_lhs", "--nu", "1", "--x", "2", "--y", "1"],
                     ["green_spectral", "--lam", "0", "--x", "1", "--xprime", "0"]):
            r = run_cli(["eval", *args, "--tol", tol])
            value, terms, bound = r.stdout.splitlines()
            assert terms.startswith("# terms_used = ")
            assert bound.startswith("# tail_bound = ")
            within = float(bound.split(" = ")[1]) <= float(tol) * abs(float(value))
            assert (r.exit_code, within) in ((0, True), (3, False)), r.stderr
            assert r.stderr.startswith("convergence error: ") == (r.exit_code == 3)

    def test_convergence_error_prints_its_partial(self, run_cli):
        # the Mehler series' rounding alone exceeds tol*(1+|value|) here, where
        # the kernel is 5.4e-32: the best sum is shown, then why it missed.
        # The sum is rounding noise, so its value follows the block layout
        r = run_cli(["eval", "mehler_kernel_series", "--X", "6", "--Y", "-6", "--u", "0.5",
                     "--tol", "1e-9"])
        assert r.exit_code == 3
        value, terms, bound = r.stdout.splitlines()
        assert float(value) == pytest.approx(3.30e-6, rel=1e-2)
        assert terms == "# terms_used = 83"
        assert float(bound.split(" = ")[1]) >= abs(float(value))
        assert r.stderr.startswith("convergence error: Mehler series at X=6.0")
        assert len(r.stderr.splitlines()) == 1

    def test_route_is_looked_up_at_call_time(self, run_cli, monkeypatch):
        # a patched module attribute, as the benchmark's tracer installs,
        # sees the call; the result prints its value, then its other fields
        monkeypatch.setattr("pcfprod.mehler.sum_rule_lhs",
                            lambda q, tol: SeriesResult(q.nu, 3, tol))
        r = run_cli(["eval", "sum_rule_lhs", "--nu", "1.5", "--x", "2", "--y", "1",
                                 "--tol", "1e-12"])
        assert r.exit_code == 0
        assert r.stdout.splitlines() == ["1.5", "# terms_used = 3", "# tail_bound = 1e-12"]

    @pytest.mark.parametrize("target", sorted(EVAL_TARGETS))
    def test_names_are_the_routes_parameters(self, target, monkeypatch):
        # the name tuple is the route's parameters, in order, before tol, and each
        # value reaches the library under its own name: a swapped pair (a and b
        # of laplace_I) would pass one value as the other without any error
        names, route = EVAL_TARGETS[target]
        assert tuple(inspect.signature(route).parameters) == (*names, "tol")
        called = {}

        def recorder(function):
            def record(*args, **kwargs):
                bound = inspect.signature(function).bind(*args, **kwargs).arguments
                for name, value in bound.items():
                    called.update(value._asdict() if hasattr(value, "_asdict") else {name: value})
                raise StopIteration
            return record

        for module in ("specfun", "glasser", "green", "hyperbolic", "mehler"):
            library = importlib.import_module(f"pcfprod.{module}")
            for name in library.__all__:
                if inspect.isfunction(getattr(library, name)):
                    monkeypatch.setattr(library, name, recorder(getattr(library, name)))
        values = [len(names) - i - 0.25 for i in range(len(names))]  # 2.75, 1.75, 0.75: x > y
        with pytest.raises(StopIteration):
            route(*values, 1e-9)
        aliases = {"nu": "nu_order"} if target == "pcf_d" else {}
        assert {name: called[aliases.get(name, name)] for name in names} == dict(zip(names, values))
        assert called.get("tol", 1e-9) == 1e-9

    def test_overflow_is_domain_error(self, run_cli):
        # D_{-1}(-40) = 1.3e174 is finite; D_{-20}(-53) and Gamma(200) overflow a
        # double, a DomainError and not an OverflowError traceback
        r = run_cli(["eval", "pcf_d", "--nu", "-1", "--z", "-40"])
        assert r.exit_code == 0
        assert first_value(r.stdout) == pytest.approx(1.3088283559491562e174, rel=1e-14)
        for args in (["pcf_d", "--nu", "-20", "--z", "-53"], ["gamma", "--nu", "200"]):
            r = run_cli(["eval", *args])
            assert r.exit_code == 2
            assert r.stderr.startswith("domain error: ")
            assert r.stderr.endswith("overflows a double\n")

    def test_pcf_d_takes_no_tolerance(self, run_cli):
        # no quadrature: --tol does not reach pcf_d, even outside the engines' range
        outs = {run_cli(["eval", "pcf_d", "--nu", "-2.5", "--z", "1.3", "--tol", tol]).stdout
                for tol in ("1e-3", "1e-10", "1e-16")}
        assert len(outs) == 1
        assert "#" not in outs.pop()

    @pytest.mark.parametrize("target,codes", [("mehler_kernel", (2,)),
                                              ("mehler_kernel_series", (2, 3))])
    def test_mehler_overflow_exits_cleanly(self, run_cli, target, codes):
        r = run_cli(["eval", target, "--X", "30", "--Y", "30", "--u", "0.9"])
        assert r.exit_code in codes, r.stderr

    test_non_integer_degree_is_domain_error = table_test(
        cli_cases.HERMITE_DEGREE_NOT_INTEGER, ids=lambda row: "{3}-{1}".format(*row[0].split()))
    test_degree_above_cap_is_domain_error = table_test(
        cli_cases.HERMITE_DEGREE_CAP, ids=lambda row: "{3}-{1}".format(*row[0].split()))

    test_non_finite_input_is_domain_error = table_test(cli_cases.NON_FINITE)

    def test_hyperbolic_left_sides(self, run_cli):
        # the theta integral alone: its error estimate, and no right side,
        # so a point where e^{alpha^2 cosh(phi)} overflows still has one
        for args in (["hyperbolic_lhs_13a", "--alpha", "1", "--phi", "1"],
                     ["hyperbolic_lhs_13b", "--alpha", "1", "--phi", "1"],
                     ["hyperbolic_lhs_14", "--a", "1", "--phi", "1"],
                     ["hyperbolic_lhs_13a", "--alpha", "30", "--phi", "3"]):
            r = run_cli(["eval", *args])
            assert r.exit_code == 0, r.stderr
            value, error, evaluations = r.stdout.splitlines()
            assert float(value) > 0.0
            assert error.startswith("# error_estimate = ")
            assert evaluations.startswith("# evaluations = ")

    def test_hyperbolic_left_sides_take_tol_as_given(self, run_cli):
        # --tol reaches the quadrature as given: 1e-3 takes 45 evaluations
        # where 1e-10, the default, takes 82; outside the engines' range
        # [1e-14, 1e-2] it is a DomainError
        args = ["eval", "hyperbolic_lhs_13a", "--alpha", "1", "--phi", "1"]
        for tol, count in (("1e-3", 45), ("1e-10", 82)):
            r = run_cli([*args, "--tol", tol])
            assert r.exit_code == 0, r.stderr
            assert r.stdout.splitlines()[2] == f"# evaluations = {count}"
        assert run_cli(args).stdout == r.stdout
        q = HyperbolicQuery(a=1.0, phi=1.0)
        assert run_cli(["eval", "hyperbolic_lhs_14", "--a", "1", "--phi", "1", "--tol", "1e-6"]
                       ).stdout.splitlines()[0] == repr(lhs_14(q, 1e-6).value)
        for tol in ("0.05", "1e-15"):
            r = run_cli([*args, "--tol", tol])
            assert r.exit_code == 2
            assert r.stderr.startswith("domain error: tol must lie in [1e-14, 1e-2]")


# each identity's default grid and tolerance: `verify all` runs these 136 points, and
# the benchmark's verify_all workload and the README's figures are measured on them
DEFAULT_GRIDS = {
    "EQ3": ({"X": [-2.0, 0.0, 1.5], "Y": [-1.0, 0.5, 2.0], "u": [-0.8, -0.3, 0.0, 0.3, 0.8]},
            1e-9),
    "EQ10": ({"nu": [0.5, 1.0, 2.5], "x": [1.5, 2.5], "y": [0.5, 1.0]}, 1e-8),
    "EQ11": ({"nu": [0.5, 1.0, 2.0], "a": [1.5, 3.0], "b": [0.5, 1.0]}, 1e-8),
    "EQ12": ({"nu": [0.5, 1.0, 2.0], "a": [1.5, 3.0], "b": [0.5, 1.0]}, 1e-8),
    "EQ13A": ({"alpha": [0.5, 1.0, 2.0], "phi": [0.5, 1.0, 2.0]}, 1e-8),
    "EQ13B": ({"alpha": [0.5, 1.0, 2.0], "phi": [0.5, 1.0, 2.0]}, 1e-8),
    "EQ14": ({"a": [0.5, 1.0, 2.0], "phi": [0.5, 1.0, 2.0]}, 1e-7),
    "EQ15": ({"nu": [0.5, 1.0, 2.0], "x": [2.0, 3.0], "y": [0.5, 1.0]}, 5e-7),
    "EQ8_EQ9": ({"lam": [-3.0, -1.0, 0.0, 0.5], "x": [1.0, 1.5], "xprime": [0.0, 0.5]}, 1e-6),
}


class TestVerify:
    def test_default_grids(self):
        assert {identity: (spec["grid"], spec["tol"]) for identity, spec in IDENTITIES.items()} \
            == DEFAULT_GRIDS

    @pytest.mark.parametrize("lhs,rhs,tol,mode,passed", [
        (0.75, 1.0, 0.25, "relative", True), (0.75 - 2.0**-10, 1.0, 0.25, "relative", False),
        (0.25, 0.0, 0.25, "relative", True), (0.25 + 2.0**-10, 0.0, 0.25, "relative", False),
        (0.0, math.nextafter(1e-280, 0.0), 0.25, "relative", True),
        (0.0, 1e-280, 0.25, "relative", False),
        (0.0, 1.0, 0.5, "mixed", True), (0.0, 1.0 + 2.0**-10, 0.5, "mixed", False),
    ])
    def test_record_rules_at_their_bounds(self, lhs, rhs, tol, mode, passed):
        # rel_err <= tol; abs_err <= tol where |rhs| < 1e-280; and EQ3's mixed
        # abs_err <= tol (1 + max|side|): each holds at its bound and fails past it
        assert make_record("EQ3", {}, lhs, rhs, tol, 1, mode=mode).passed is passed

    @pytest.mark.parametrize("identity,module,route,route_tol", [
        ("EQ3", "mehler", "mehler_kernel_series", 1e-6 * 0.1),
        ("EQ10", "glasser", "product_via_integral", 1e-6 * 0.1),
        ("EQ11", "glasser", "laplace_I", 1e-6 * 0.1),
        ("EQ12", "glasser", "laplace_I", 1e-6 * 0.1),
        ("EQ13A", "hyperbolic", "lhs_13a", 1e-10),
        ("EQ13B", "hyperbolic", "lhs_13b", 1e-10),
        ("EQ14", "hyperbolic", "lhs_14", 1e-10),
        ("EQ15", "mehler", "sum_rule_lhs", 1e-6 * 0.5),
        ("EQ8_EQ9", "green", "green_spectral", 1e-6 * 0.5),
    ])
    def test_route_tolerance(self, run_cli, monkeypatch, identity, module, route, route_tol):
        # at --tol 1e-6 the left side's route runs at a share of it, so that its own
        # error leaves room for the other side's, or at min(tol, 1e-10)
        module = importlib.import_module(f"pcfprod.{module}")
        inner, tols = getattr(module, route), []
        monkeypatch.setattr(module, route, lambda *args: tols.append(args[-1]) or inner(*args))
        point = [arg for name, values in DEFAULT_GRIDS[identity][0].items()
                 for arg in (f"--{name}", str(values[-1]))]
        assert run_cli(["verify", identity, "--tol", "1e-6", *point]).exit_code == 0
        assert tols == [route_tol]

    @pytest.mark.parametrize("spec,points", [("0.5:2:4", [0.5, 1.0, 1.5, 2.0]),
                                             ("log:0.5:2:3", [0.5, 1.0, 2.0]),
                                             ("log:0.25:1:3", [0.25, 0.5, 1.0])])
    def test_grid_spec_points(self, run_cli, spec, points):
        # at phi 800 every record is skipped, so the grid costs nothing
        r = run_cli(["verify", "EQ13A", "--alpha", spec, "--phi", "800", "--format", "json"])
        records = strict_json(r.stdout)["records"]
        assert [rec["params"]["alpha"] for rec in records] == points
        assert [rec["evaluations"] for rec in records] == [0] * len(points)

    def test_single_point_sum_rule(self, run_cli):
        r = run_cli(["verify", "EQ15", "--nu", "1", "--x", "2", "--y", "1"])
        assert r.exit_code == 0
        lines = [l for l in r.stdout.splitlines() if l.startswith("EQ15")]
        assert len(lines) == 1
        assert lines[0].endswith("true")
        assert "pass=1 fail=0 skip=0" in r.stdout

    test_out_of_domain_point_is_skipped = table_test(cli_cases.SKIPPED)
    test_hyperbolic_extremes_pass = table_test(cli_cases.EQ14_EXTREMES)
    test_laplace_right_side_past_a_double_passes = table_test(
        cli_cases.LAPLACE_RIGHT_SIDE_PAST_A_DOUBLE)
    test_factor_past_the_old_limits_passes = table_test(cli_cases.PAST_THE_OLD_LIMITS)
    test_laplace_forms_hold_up_to_a_1e30 = table_test(
        cli_cases.LAPLACE_TO_A_1E30, ids=lambda row: row[0].split()[-1])
    test_former_walls_pass = table_test(cli_cases.FORMER_WALLS)
    test_grid_specs_expand = table_test(cli_cases.GRID_SPECS)
    test_tol_must_be_finite_and_positive = table_test(cli_cases.VERIFY_TOL)

    def test_a_grid_point_is_its_own_point(self, run_cli, monkeypatch):
        # the Hermite product arrays kept between calls change no record: each
        # series record of `verify all` is its point's record run alone with
        # nothing kept, and a second sweep computes as many arrays as the
        # first (25 for 73 series calls), so it reuses nothing of the first
        computed = []
        inner = hermsum._blocked_products
        monkeypatch.setattr(hermsum, "_blocked_products",
                            lambda *args: computed.append(args) or inner(*args))
        hermsum._memo.cache_clear()
        sweeps = []
        for _ in range(2):
            start = len(computed)
            r = run_cli(["verify", "all", "--format", "json"])
            assert r.exit_code == 0
            sweeps.append((len(computed) - start, r.stdout))
        assert sweeps[0] == sweeps[1]
        assert sweeps[0][0] == 25
        series = [rec for rec in strict_json(r.stdout)["records"]
                  if rec["identity_id"] in ("EQ3", "EQ15", "EQ8_EQ9")]
        assert len(series) == 45 + 12 + 16
        for rec in series:
            identity = IDENTITIES[rec["identity_id"]]
            hermsum._memo.cache_clear()
            alone = identity["run"](rec["params"], identity["tol"])
            assert _record_json(alone) == rec

    def test_laplace_integral_past_a_double(self, run_cli):
        # the integral, about e^{750}, overflows its integrand's exponential: verify
        # skips the point and eval exits 2, where both ended in a traceback
        r = run_cli(["verify", "EQ11", "--nu", "1", "--a", "1500", "--b", "1499"])
        assert r.exit_code == 0
        assert r.stdout.splitlines()[-1] == "# summary: pass=0 fail=0 skip=1"
        assert "overflows a double" in r.stderr
        r = run_cli(["eval", "laplace_I", "--nu", "1", "--a", "1500", "--b", "1499", "--sign", "1"])
        assert r.exit_code == 2
        assert r.stderr.startswith("domain error: ") and "overflows a double" in r.stderr

    def test_convergence_error_is_a_failed_record(self, run_cli):
        # x - y = 0.01 needs more Abel-weighted terms than the 2^19 cap
        args = ["verify", "EQ15", "--nu", "1", "--x", "2", "--y", "1.99"]
        r = run_cli(args)
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
        (rec,) = strict_json(run_cli([*args, "--format", "json"]).stdout)["records"]
        assert (rec["lhs"], rec["evaluations"]) == (partial.value, partial.terms_used)
        assert rec["rhs"] is rec["abs_err"] is rec["rel_err"] is None
        assert 2 ** 18 < rec["evaluations"] <= 2 ** 19

    @pytest.mark.parametrize("identity,args,lhs", [
        ("EQ10", ["--nu", "1", "--x", "2", "--y", "1", "--tol", "1e-8"],
         lambda: product_via_integral(ProductQuery(1.0, 2.0, 1.0), 1e-9)),
        ("EQ12", ["--nu", "1", "--a", "2", "--b", "1", "--tol", "1e-8"],
         lambda: laplace_I(LaplaceParams(1.0, 2.0, 1.0), -1, 1e-9)),
        ("EQ14", ["--a", "1", "--phi", "1", "--tol", "1e-8"],
         lambda: lhs_14(HyperbolicQuery(a=1.0, phi=1.0), 1e-10)),
    ])
    def test_quadrature_miss_keeps_its_partial(self, run_cli, monkeypatch, identity, args, lhs):
        # two levels cannot reach the tolerance: the failed record keeps the
        # route's partial, the whole left side, and its evaluations
        monkeypatch.setattr(quadrature, "_SEMI_INFINITE_LEVELS", 2)
        monkeypatch.setattr(quadrature, "_FINITE_LEVELS", 2)
        with pytest.raises(ConvergenceError) as info:
            lhs()
        partial = info.value.partial
        r = run_cli(["verify", identity, *args])
        assert r.exit_code == 1
        (row,) = [l for l in r.stdout.splitlines() if l.startswith(identity)]
        assert row.split(",")[-5:] == [repr(partial.value), "nan", "nan", "nan", "false"]
        (rec,) = strict_json(run_cli(["verify", identity, *args, "--format", "json"]).stdout)[
            "records"]
        assert (rec["lhs"], rec["evaluations"]) == (partial.value, partial.evaluations)
        assert rec["rhs"] is None and rec["status"] == "fail"

    def test_gamma_overflow_is_a_skip(self, run_cli):
        r = run_cli(["verify", "EQ15", "--nu", "200", "--x", "2", "--y", "1"])
        assert r.exit_code == 0
        assert r.stdout.splitlines()[-1] == "# summary: pass=0 fail=0 skip=1"
        assert r.stderr == "# EQ15 nu=200.0 x=2.0 y=1.0: gamma(200.0) overflows a double\n"

    def test_csv_reason_goes_to_stderr(self, run_cli):
        r = run_cli(["verify", "EQ15", "--nu", "1", "--x", "1:2:2", "--y", "1.99"])
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
        # a deterministic miss: EQ14's right side at a = 400 takes D_{-1/2}(40.0005),
        # whose condition number z^2/2 = 800 leaves about 1e-13, so the sides differ
        # by 9.3e-14; its quadrature runs at 1e-14, inside the engines' range
        r = run_cli(["verify", "EQ14", "--a", "400", "--phi", "0.01", "--tol", "1e-14"])
        assert r.exit_code == 1
        assert r.stderr == "# EQ14 a=400.0 phi=0.01: error above tolerance\n"
        # the two routes of EQ10 share no code and differ by several ulps: 1e-16
        # is missed, and the note gives that reason and then the clamp
        r = run_cli(["verify", "EQ10", "--nu", "1", "--x", "2", "--y", "1",
                                 "--tol", "1e-16"])
        assert r.stderr == ("# EQ10 nu=1.0 x=2.0 y=1.0: error above tolerance; "
                            "quadrature tol clamped to 1e-14\n")

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
    def test_quadrature_tol_clamp_is_noted(self, run_cli, identity, args):
        notes = {}
        for tol, fmt in (("1e-16", "json"), ("0.5", "json"), ("1e-8", "json"),
                         ("1e-16", "csv")):
            r = run_cli(["verify", identity, *args, "--tol", tol, "--format", fmt])
            if fmt == "json":
                (rec,) = strict_json(r.stdout)["records"]
                assert rec["status"] != "skip"
                notes[tol] = rec["note"]
            else:
                assert r.stderr.endswith(" quadrature tol clamped to 1e-14\n")
        assert notes == {"1e-16": "quadrature tol clamped to 1e-14",
                         "0.5": self.NOTE_AT_HALF.get(identity, ""), "1e-8": ""}

    def test_clamped_failure_keeps_its_reason(self, run_cli):
        # rel_err about 1.6e-15, from the direct product at large x and y
        r = run_cli(["verify", "EQ10", "--nu", "2.5", "--x", "13", "--y", "12",
                                 "--tol", "1e-15"])
        assert r.exit_code == 1
        assert r.stderr == ("# EQ10 nu=2.5 x=13.0 y=12.0: error above tolerance; "
                            "quadrature tol clamped to 1e-14\n")

    def test_json_has_no_nan(self, run_cli):
        # a skipped record has no numbers: JSON null, not the NaN literal
        r = run_cli(["verify", "EQ10", "--nu", "1", "--x", "1", "--y", "2",
                                 "--format", "json"])
        assert r.exit_code == 0
        (rec,) = strict_json(r.stdout)["records"]
        assert rec["status"] == "skip"
        assert [rec[k] for k in ("lhs", "rhs", "abs_err", "rel_err")] == [None] * 4
        r = run_cli(["verify", "EQ15", "--nu", "1", "--x", "inf", "--y", "0",
                                 "--format", "json"])
        assert strict_json(r.stdout)["records"][0]["params"] == {"nu": 1.0, "x": None, "y": 0.0}

    def test_json_format(self, run_cli):
        r = run_cli(["verify", "EQ13B", "--format", "json",
                                 "--alpha", "1", "--phi", "0.5:1.5:2"])
        assert r.exit_code == 0
        doc = json.loads(r.stdout)
        assert doc["summary"] == {"pass": 2, "fail": 0, "skip": 0}
        # indented by two spaces, one key to a line
        assert r.stdout.startswith('{\n  "summary": {\n    "pass": 2,\n')
        assert len(doc["records"]) == 2
        assert all(rec["status"] == "pass" for rec in doc["records"])

    @pytest.mark.parametrize("identity,most", [("EQ13A", 1972), ("EQ13B", 1836),
                                               ("EQ14", 2151)])
    def test_hyperbolic_grid_evaluations(self, run_cli, identity, most):
        # a cost counter, not a clock: the quadratic walks stop a level early,
        # where two levels agreeing took 3,224, 3,388 and 2,841 evaluations
        r = run_cli(["verify", identity, "--tol", "1e-13", "--format", "json"])
        records = strict_json(r.stdout)["records"]
        assert r.exit_code == 0 and len(records) == 9
        assert all(rec["status"] == "pass" for rec in records)
        assert sum(rec["evaluations"] for rec in records) <= most

    @pytest.mark.parametrize("identity,most", [("EQ10", 891), ("EQ11", 891), ("EQ12", 876)])
    def test_exp_sinh_grid_evaluations(self, run_cli, identity, most):
        # a cost counter: with every level's walk ending at its first dead node
        # past the live ones, level 0 included, the default grids take 891, 891
        # and 876 evaluations, where a level-0 walk that ran 11 dead nodes past
        # them took 1,051, 1,051 and 1,036
        r = run_cli(["verify", identity, "--format", "json"])
        records = strict_json(r.stdout)["records"]
        assert r.exit_code == 0 and len(records) == 12
        assert all(rec["status"] == "pass" for rec in records)
        assert sum(rec["evaluations"] for rec in records) <= most

    @pytest.mark.parametrize("tol,most", [(None, {"EQ13A": 768, "EQ13B": 1179, "EQ14": 848}),
                                          ("1e-13", {"EQ13A": 1128, "EQ13B": 1242, "EQ14": 930})])
    def test_hyperbolic_panels_end_where_the_integrands_do(self, run_cli, tol, most):
        # a cost counter: with the theta panels cut at a 50-unit rise of the
        # exponent, panels to an exponent of 785 took 1,866, 1,836 and 1,803
        # evaluations at the default tol, and 1,972, 1,836 and 2,151 at 1e-13
        for identity, count in most.items():
            r = run_cli(["verify", identity, "--format", "json", *(["--tol", tol] if tol else [])])
            records = strict_json(r.stdout)["records"]
            assert r.exit_code == 0 and len(records) == 9
            assert all(rec["status"] == "pass" for rec in records)
            assert sum(rec["evaluations"] for rec in records) <= count

    def test_csv_header(self, run_cli):
        r = run_cli(["verify", "EQ14", "--a", "1", "--phi", "1"])
        assert r.stdout.splitlines()[0] == \
            "identity_id,a,phi,lhs,rhs,abs_err,rel_err,passed"

    def test_determinism(self, run_cli):
        cmd = ["verify", "EQ3", "--u", "-0.5:0.5:3"]
        a = run_cli(cmd)
        b = run_cli(cmd)
        assert a.exit_code == 0
        assert a == b


class TestReproducers:
    test_row = table_test(cli_cases.MORE)
    test_repeated_option_is_usage_error = table_test(cli_cases.REPEATED_OPTIONS)

    def test_every_row_runs_in_process(self):
        tables = [test.rows for cls in (TestEval, TestVerify, TestReproducers)
                  for test in vars(cls).values() if hasattr(test, "rows")]
        assert Counter(row for rows in tables for row in rows) == Counter(cli_cases.CASES)

    def test_a_wrong_row_fails_in_process_and_in_the_runner(self, run_cli, monkeypatch,
                                                           capsys):
        # a row edited to expect another exit code, or other text, fails
        # both in process and against a launched command
        argv = "eval hermite --n 2 --x nan"
        stderr = "domain error: Hermite argument must be finite, got x=nan"
        wrong_text = "domain error: Hermite argument must be positive"
        rows = [(argv, 2, cli_cases.ERROR, stderr), (argv, 0, cli_cases.ERROR, stderr),
                (argv, 2, cli_cases.ERROR, wrong_text)]
        assert [bool(cli_cases.failure(row, *run_cli(argv.split()))) for row in rows] == \
            [False, True, True]
        monkeypatch.setenv("PYTHONPATH", tree_pythonpath())
        assert cli_cases.run([sys.executable, "-m", "pcfprod.cli"], rows) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"FAIL {argv}: wrong exit code",
            f"  exit code 2, expected 0; stderr: {stderr}",
            f"FAIL {argv}: expected {cli_cases.ERROR} {wrong_text!r}",
            f"  exit code 2, expected 2; stderr: {stderr}",
            "3 rows, 2 failed"]


def known_escape(target, args, outcome):
    """Whether ``outcome``, an exception of route ``target`` at ``args``, is the
    one known escape from the error contract: below nu of about 0.061 (with
    x - y <= 3, y <= 6), and a little higher where a is huge (nu = 0.08 at
    a = 1e30 escapes too, 0.09 does not), (t/(1+t))^{nu/2-1} overflows a
    double at the integrands' subnormal nodes (ROADMAP item 6;
    bench/test_bench.py pins it as an OverflowError).  It keeps tests of its
    own below, which fail once it is mended."""
    return (isinstance(outcome, OverflowError) and 0.0 < args[0] < 0.07
            and target in ("product_integral", "laplace_I", "EQ10", "EQ11", "EQ12"))


REAL = st.one_of(st.floats(-30.0, 30.0), st.floats(allow_nan=False, allow_infinity=False))
TOL = st.one_of(st.floats(1e-15, 1e-2), st.floats(allow_nan=False, allow_infinity=False))


@pytest.mark.parametrize("target", sorted(EVAL_TARGETS))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_route_keeps_the_error_contract(target, data):
    # finite input gives a finite value, a DomainError or a ConvergenceError;
    # hermite's documented signed inf is the one exception among values
    names, route = EVAL_TARGETS[target]
    args = data.draw(st.tuples(*(REAL for _ in names), TOL))
    try:
        result = route(*args)
    except (DomainError, ConvergenceError):
        return
    except OverflowError as exc:
        assert known_escape(target, args, exc), (target, args)
        return
    value = getattr(result, "value", result)
    assert isinstance(value, float), (target, args, result)
    assert math.isfinite(value) or (target == "hermite" and math.isinf(value)), \
        (target, args, value)


@pytest.mark.parametrize("identity", list(IDENTITIES))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_identity_keeps_the_error_contract(identity, data):
    # any finite grid point and tol: one record that passes, fails or skips
    names = list(IDENTITIES[identity]["grid"])
    args = data.draw(st.tuples(*(REAL for _ in names)))
    tol = data.draw(TOL)
    try:
        records = _evaluate_identity(identity, {n: [v] for n, v in zip(names, args)}, tol)
    except OverflowError as exc:
        assert known_escape(identity, args, exc), (identity, args, tol)
        return
    (record,) = records
    assert record.status in ("pass", "fail", "skip"), (identity, args, tol)


@pytest.mark.parametrize("target,args", [("product_integral", (0.03, 2.0, 1.0)),
                                         ("laplace_I", (0.03, 2.5, 2.0, 1.0))])
def test_small_order_overflow_still_escapes(target, args):
    with pytest.raises(OverflowError) as info:
        EVAL_TARGETS[target][1](*args, 1e-10)
    assert known_escape(target, args, info.value)


@pytest.mark.parametrize("identity,args", [("EQ10", (0.03, 2.0, 1.0)),
                                           ("EQ11", (0.03, 2.5, 2.0)),
                                           ("EQ12", (0.03, 2.5, 2.0))])
def test_small_order_overflow_still_escapes_verify(identity, args):
    grids = {n: [v] for n, v in zip(IDENTITIES[identity]["grid"], args)}
    with pytest.raises(OverflowError) as info:
        _evaluate_identity(identity, grids, IDENTITIES[identity]["tol"])
    assert known_escape(identity, args, info.value)


@pytest.mark.parametrize("X,Y,u,expected", [(0.0, 1.7e155, 0.0, 1.0), (0.0, 1e167, 1e-300, 1.0),
                                            (1e200, 1e200, 1e-9, None)])
def test_mehler_kernel_is_a_value_or_a_domain_error(X, Y, u, expected):
    # X^2 + Y^2 overflowed to nan where the kernel is about 1
    route = EVAL_TARGETS["mehler_kernel"][1]
    if expected is None:
        with pytest.raises(DomainError):
            route(X, Y, u, 1e-10)
    else:
        assert route(X, Y, u, 1e-10) == expected
