"""The command-line reproducers, one row each: a new reproducer is one more row.

A row is (argv, exit code, check, expected), data only: ``pcfprod argv``
must exit with that code, and its output must pass the check, one of the
five below, against ``expected``.  ``tests/test_cli.py`` runs every row in
process.  Run as a script, this file needs only the standard library: it
runs every row against the command given as its arguments, prints each
row that fails, and exits 1 if any did::

    python tests/cli_cases.py pcfprod
    PYTHONPATH=src python tests/cli_cases.py python -m pcfprod.cli
"""

import math
import subprocess
import sys

LAST = "last stdout line is"
OUTPUT = "stderr is empty and stdout is"
FINITE = "first stdout line is a finite nonzero float"
ABSENT = "no stdout line contains"
ERROR = "stderr past any usage line is one line starting with"

PASS1 = "# summary: pass=1 fail=0 skip=0"
SKIP1 = "# summary: pass=0 fail=0 skip=1"

# eval: non-finite input, and finite input past a route's range, is a DomainError
NON_FINITE = [
    ("eval series_for_I --nu 1 --X 2 --Y 1 --tol nan", 2, ERROR,
     "domain error: bilinear Hermite sum needs finite X, Y and shift and tol > 0, got X=2.0"),
    ("eval series_for_I --nu 1 --X inf --Y 0", 2, ERROR, "domain error: bilinear Hermite sum"),
    ("eval sum_rule_lhs --nu 1 --x inf --y 0", 2, ERROR, "domain error: bilinear Hermite sum"),
    ("eval green_spectral --lam nan --x 1 --xprime 0", 2, ERROR, "domain error: Green function"),
    ("eval green_ode --lam nan --x 1 --xprime 0", 2, ERROR, "domain error: Green function"),
    # max(1, nan) is 1: this one used to print G at x = x'
    ("eval green_ode --lam 0 --x 1 --xprime nan", 2, ERROR, "domain error: Green function"),
    # hermite and eigenfunction used to print nan, laplace_I 0.0, and product_integral
    # exit 3 on a NaN integrand; pcf_d named the quadrature's decay rate rather than z
    ("eval hermite --n 2 --x nan", 2, ERROR, "domain error: Hermite argument must be finite"),
    ("eval eigenfunction --n 2 --x nan", 2, ERROR, "domain error: Hermite argument must be"),
    ("eval laplace_I --nu 1 --a inf --b 1 --sign 1", 2, ERROR, "domain error: a and b must be"),
    ("eval product_integral --nu 1 --x inf --y 1", 2, ERROR, "domain error: x and y must be"),
    ("eval pcf_d --nu -1 --z nan", 2, ERROR, "domain error: pcf_d needs a finite argument z, "
                                             "got z=nan"),
    # a nan sign ended in a ValueError traceback, an infinite phi in a left side of 0.0
    ("eval laplace_I --nu 1 --a 2 --b 1 --sign nan", 2, ERROR, "domain error: sign must be"),
    ("eval hyperbolic_lhs_14 --a 1 --phi inf", 2, ERROR, "domain error: phi must lie in (0, 700]"),
    # finite, but past the hyperbolic range: an OverflowError traceback (exit 1)
    ("eval hyperbolic_lhs_13a --alpha 1 --phi 800", 2, ERROR, "domain error: phi must lie in"),
    ("eval hyperbolic_lhs_14 --a 1 --phi 800", 2, ERROR, "domain error: phi must lie in"),
    ("eval hyperbolic_lhs_13a --alpha 1e-200 --phi 1", 2, ERROR, "domain error: alpha must be"),
    ("eval mehler_kernel_series --X nan --Y 0 --u 0.5", 2, ERROR, "domain error: Mehler kernel"),
    ("eval pcf_d --nu nan --z 1", 2, ERROR, "domain error: order nan outside supported range"),
]

# each ended in a traceback or printed nan: an overflowing series is a ConvergenceError,
# a shift or lambda past what the series or the oracle resolve a DomainError
EXTREME_INPUT = [
    ("eval green_spectral --lam 0.5 --x -2e6 --xprime 0", 3, ERROR, "convergence error: "),
    ("eval series_for_I --nu 1.2 --X 47 --Y -1e139", 3, ERROR, "convergence error: "),
    ("eval sum_rule_lhs --nu 39 --x 1e81 --y 17", 3, ERROR, "convergence error: "),
    ("eval green_spectral --lam -1e300 --x 15 --xprime 0", 2, ERROR, "domain error: shift 5e+299"),
    # the ODE oracle takes lambda < 64
    ("eval green_ode --lam 700 --x 1e-300 --xprime 2.2", 2, ERROR, "domain error: oracle requires"),
    # D_14(1e51) underflows: 0.0, not 0 * inf = nan
    ("eval pcf_d --nu 14 --z 1e51", 0, OUTPUT, "0.0"),
]

# the recurrence runs n steps: 1e9 of them used to take minutes
HERMITE_DEGREE_CAP = [
    (f"eval {target} --n {n} --x 0", 2, ERROR, "domain error: Hermite degree must be at most 2^19")
    for target in ("hermite", "eigenfunction") for n in ("524289", "1e9")
]

# the degree is checked, not truncated: --n 2.5 is not H_2
HERMITE_DEGREE_NOT_INTEGER = [
    (f"eval {target} --n {n} --x 1", 2, ERROR, "domain error: Hermite degree must be a nonnegative")
    for target in ("hermite", "eigenfunction") for n in ("2.5", "nan", "-1")
]

# only the eigenvalue itself is the spectral Green sum's pole
BESIDE_AN_EIGENVALUE = [
    ("eval green_spectral --lam 3.00000001 --x 1 --xprime 0", 0, FINITE, None),
    ("eval green_spectral --lam 2.99999999999999 --x 1 --xprime 0", 0, FINITE, None),
    ("eval green_spectral --lam 3 --x 1 --xprime 0", 2, ERROR,
     "domain error: shift -1.0 sits on a pole"),
]

# verify: one point per domain rule the library enforces
SKIPPED = [
    ("verify EQ3 --X 1 --Y 0.5 --u 1.0", 0, LAST, SKIP1),
    ("verify EQ10 --nu 1 --x 1 --y 2", 0, LAST, SKIP1),
    ("verify EQ11 --nu 1 --a 1 --b 2", 0, LAST, SKIP1),
    ("verify EQ12 --nu 1 --a 1.5 --b -0.5", 0, LAST, SKIP1),
    ("verify EQ14 --a 1 --phi 800", 0, LAST, SKIP1),
    # phi past 700, alpha below 1e-150 and alpha^2 = inf: a traceback or a nan right side
    ("verify EQ13A --alpha 1 --phi 800", 0, LAST, SKIP1),
    ("verify EQ13B --alpha 1e-200 --phi 1", 0, LAST, SKIP1),
    ("verify EQ15 --nu 1 --x 1 --y 2", 0, LAST, SKIP1),
    ("verify EQ8_EQ9 --lam 0.5 --x 0 --xprime 0", 0, LAST, SKIP1),
    ("verify EQ8_EQ9 --lam 1.5 --x 1 --xprime 0", 0, LAST, SKIP1),
    # non-finite input is outside every domain
    ("verify EQ15 --nu 1 --x inf --y 0", 0, LAST, SKIP1),
    ("verify EQ8_EQ9 --lam 0 --x inf --xprime 0", 0, LAST, SKIP1),
    # a Laplace integral past a double overflows its integrand
    ("verify EQ11 --nu 1 --a 1500 --b 1499", 0, LAST, SKIP1),
]

EQ14_EXTREMES = [
    # phi < 0.05 used to be refused, and a = 1e-300 ended in a traceback
    ("verify EQ14 --a 1 --phi 0.01", 0, LAST, PASS1),
    ("verify EQ14 --a 1e-300 --phi 1", 0, LAST, PASS1),
    # sinh^2(phi/2) underflows, cosh^2(phi/2) overflows: D_{-1/2} at 1e-300 and 3e154
    ("verify EQ14 --a 1 --phi 1e-300", 0, LAST, PASS1),
    ("verify EQ14 --a 1e5 --phi 700", 0, LAST, PASS1),
]

# e^{a/2} = e^{750} overflowed (a traceback), and D_{-11.2}(52.57) = 4.7e-320
# is subnormal (a miss by 4.5e-5): the right side keeps both as exponents
LAPLACE_RIGHT_SIDE_PAST_A_DOUBLE = [
    ("verify EQ11 --nu 1 --a 1500 --b 10", 0, LAST, PASS1),
    ("verify EQ11 --nu 11.2 --a 1385 --b 134 --tol 1e-13", 0, LAST, PASS1),
]

# factors below -80 or past 98 were a skip, and so were factors past 1700
PAST_THE_OLD_LIMITS = [
    # D_{-1}(-100) overflows a double, but the product is 3.3e-13
    ("verify EQ10 --nu 1 --x 100.5 --y 100", 0, LAST, PASS1),
    # x = 100 or 1414, and e^{a/2} lifts the product back into range
    ("verify EQ11 --nu 1 --a 5000 --b 10", 0, LAST, PASS1),
    ("verify EQ11 --nu 1 --a 1e6 --b 10", 0, LAST, PASS1),
    # x = 2000 and 1.4e10, past z = 1700, where a factor was bounded
    ("verify EQ11 --nu 1 --a 2e6 --b 10", 0, LAST, PASS1),
    ("verify EQ12 --nu 1 --a 2e6 --b 10", 0, LAST, PASS1),
    ("verify EQ11 --nu 1 --a 1e20 --b 10", 0, LAST, PASS1),
    ("verify EQ12 --nu 1 --a 1e20 --b 10", 0, LAST, PASS1),
    ("verify EQ10 --nu 1 --x 2000 --y 1999.9", 0, LAST, PASS1),
    # (x - y)**2 overflowed in the integral's decay rate, a traceback; both
    # sides are 0.0, as D_{-1}(1e155) underflows
    ("verify EQ10 --nu 1 --x 1e155 --y 0.5", 0, LAST, PASS1),
]

# it read 25 skips from a = 1.9e7 (a factor past z = 1700) and 30 failures
# from a = 4.3e18 (the quadrature's scale clamped at decay rate 1e4)
LAPLACE_TO_A_1E30 = [
    (f"verify EQ11 --nu 1:20:5 --a log:1e5:1e30:12 --b 10 --tol {tol}", 0, LAST,
     "# summary: pass=60 fail=0 skip=0") for tol in ("1e-8", "1e-12")
]

# x = y, a = b, |u| > 0.95 and an overflowing closed-form exponential were
# skipped; the integral and the series decide their own reach there
FORMER_WALLS = [
    ("verify EQ10 --nu 1 --x 2 --y 2", 0, LAST, PASS1),
    ("verify EQ11 --nu 1 --a 2 --b 2", 0, LAST, PASS1),
    ("verify EQ3 --X 1 --Y 0.5 --u 0.99", 0, LAST, PASS1),
    ("verify EQ3 --X -2 --Y 2 --u -0.999", 0, LAST, PASS1),
    # e^{alpha^2 cosh(phi)} overflows a double: the erfc right sides carry it in erfcx
    ("verify EQ13A --alpha 10 --phi 3", 0, LAST, PASS1),
    ("verify EQ13B --alpha 15 --phi 3", 0, LAST, PASS1),
    ("verify EQ13A --alpha 1e200 --phi 1", 0, LAST, PASS1),
    # missed at 4.2e-11 and 7.9e-11, a large exponential set against a rounded square
    ("verify EQ13B --alpha 2 --phi 5 --tol 1e-11", 0, LAST, PASS1),
    ("verify EQ11 --nu 1 --a 1e6 --b 10 --tol 1e-11", 0, LAST, PASS1),
]

# an identity's default grid, and each grid spec form; the name is case-insensitive
GRID_SPECS = [
    ("verify EQ13A", 0, LAST, "# summary: pass=9 fail=0 skip=0"),
    ("verify eq13a --alpha 1 --phi 1", 0, LAST, PASS1),
    ("verify EQ13A --alpha 0.5:2:4 --phi 1", 0, LAST, "# summary: pass=4 fail=0 skip=0"),
    ("verify EQ13A --alpha log:0.5:2:3 --phi 1", 0, LAST, "# summary: pass=3 fail=0 skip=0"),
    # a count below 1 is malformed; a count of 1 is the low end alone: at phi 800 its
    # one record is skipped, and the one stderr line names its point
    ("verify EQ13A --alpha 1:2:0 --phi 1", 2, ERROR,
     "pcfprod verify: error: malformed range spec for --alpha: '1:2:0'"),
    ("verify EQ13A --alpha 0.5:2:1 --phi 800", 0, ERROR, "# EQ13A alpha=0.5 phi=800.0: phi must"),
]

# verify's tolerance must be finite and > 0, checked before any record runs: a nan
# tol skipped every point, inf passed every one, and 0 or -1 skipped them
VERIFY_TOL = [
    ("verify EQ15 --nu 1 --x 2 --y 1 --tol nan", 2, ERROR,
     "pcfprod verify: error: Invalid value for '--tol': 'nan' is not a finite number > 0."),
    ("verify all --tol inf", 2, ERROR, "pcfprod verify: error: Invalid value for '--tol': 'inf'"),
    ("verify all --tol 0", 2, ERROR, "pcfprod verify: error: Invalid value for '--tol': '0' is"),
    ("verify all --tol -1", 2, ERROR, "pcfprod verify: error: Invalid value for '--tol': '-1'"),
]

# an option given twice is a usage error, as a trailing parameter given twice is:
# the last value used to win
REPEATED_OPTIONS = [
    ("eval hyperbolic_lhs_13a --alpha 1 --phi 1 --tol 1e-3 --tol 1e-10", 2, ERROR,
     "pcfprod eval: error: --tol given more than once"),
    ("verify EQ13A --alpha 1 --phi 1 --tol 1e-8 --tol 1e-9", 2, ERROR,
     "pcfprod verify: error: --tol given more than once"),
    ("verify EQ13A --alpha 1 --phi 1 --format csv --format json", 2, ERROR,
     "pcfprod verify: error: --format given more than once"),
]

MORE = [
    # a positive non-integer order is outside pcf_d's domain
    ("eval pcf_d --nu 0.5 --z 1", 2, ERROR, "domain error: positive non-integer order 0.5"),
    # argparse: a usage error exits 2, also a grid option no identity takes
    ("eval nope", 2, ERROR, "pcfprod eval: error: unknown target 'nope'; known targets: "),
    ("verify all --foo 1", 2, ERROR, "pcfprod verify: error: all takes parameters ("),
    # x = y is a point of verify EQ10 and eval product_integral, with no command
    # of its own; no route calls math.erfc (EQ13 uses erfcx), so it is no eval target
    ("explore-equal-args", 2, ERROR,
     "pcfprod: error: argument COMMAND: invalid choice: 'explore-equal-args'"),
    ("eval erfc --x 1", 2, ERROR, "pcfprod eval: error: unknown target 'erfc'"),
    # scipy is only a test dependency: the ODE oracle runs without it
    ("eval green_ode --lam 0 --x 1 --xprime 0", 0, FINITE, None),
    # H_400(0) overflows a double: signed inf, not nan
    ("eval hermite --n 400 --x 0", 0, OUTPUT, "inf"),
    # D_{-1}(-40) = 1.3e174 is finite; D_{-20}(-53) and Gamma(200) overflow a double
    ("eval pcf_d --nu -1 --z -40", 0, FINITE, None),
    ("eval pcf_d --nu -20 --z -53", 2, ERROR, "domain error: D_{-20.0}(-53.0) overflows a double"),
    ("eval gamma --nu 200", 2, ERROR, "domain error: gamma(200.0) overflows a double"),
    # x - y = 0.01 needs more Abel-weighted terms than the 2^19 cap; x - y = 0.1
    # used to stall at 524,288 terms
    ("eval sum_rule_lhs --nu 1 --x 2 --y 1.99", 3, ERROR, "convergence error: bilinear Hermite"),
    ("verify EQ15 --nu 1 --x 2 --y 1.9", 0, LAST, PASS1),
    # JSON output is strict RFC 8259 JSON: a skipped record's numbers are null
    ("verify EQ10 --nu 1 --x 1 --y 2 --format json", 0, ABSENT, "NaN"),
    ("verify EQ10 --nu 1 --x 1 --y 2 --format json", 0, ABSENT, "Infinity"),
    # every default grid passes at 1e-12
    ("verify all --tol 1e-12", 0, LAST, "# summary: pass=136 fail=0 skip=0"),
    # a tolerance below the quadrature range is clamped, not skipped
    ("verify EQ13A --alpha 1 --phi 1 --tol 1e-16", 1, LAST, "# summary: pass=0 fail=1 skip=0"),
    # no cancelling terms in the integrand's exponent: large y, a large order, x = y
    ("verify EQ10 --nu 1 --x 41 --y 40", 0, LAST, PASS1),
    ("verify EQ10 --nu 0.9985 --x 26.145 --y 26.0815 --tol 1e-12", 0, LAST, PASS1),
    ("eval laplace_I --nu 672 --a 1.04 --b 0.0387 --sign 1", 0, FINITE, None),
    ("eval product_integral --nu 1 --x 2 --y 2 --tol 1e-12", 0, FINITE, None),
    # D_{-1}(54) = 4.6e-319 is subnormal: the product keeps it as fraction and exponent
    ("verify EQ10 --nu 1 --x 54 --y 50", 0, LAST, PASS1),
    ("eval product_reference --nu 1 --x 2000 --y 1999.9", 0, FINITE, None),
    ("eval laplace_I --nu 1 --a 1500 --b 1499 --sign 1", 2, ERROR, "domain error: the Laplace"),
    # G = 1.1e-302 although its factor D_{-15.5}(38 sqrt 2) underflows: not 0.0
    ("eval green_closed --lam -30 --x 38 --xprime 10", 0, FINITE, None),
    # the Mehler series' rounding alone exceeds tol*(1+|value|) where its terms
    # cancel to a kernel of 5.4e-32: a ConvergenceError, not a silent 1.65e-06
    ("eval mehler_kernel_series --X 6 --Y -6 --u 0.5 --tol 1e-9", 3, ERROR,
     "convergence error: Mehler series at X=6.0, Y=-6.0, u=0.5, tol=1e-09: 83 terms"),
    # EQ3 runs to the kernel's own |u| < 1
    ("verify EQ3 --X 1 --Y 0.5 --u 0.93", 0, LAST, PASS1),
    # the closed kernel is 1.0 where X^2 + Y^2 overflows; the series is its one term
    ("eval mehler_kernel --X 0 --Y 1.7e155 --u 0", 0, OUTPUT, "1.0"),
    ("eval mehler_kernel_series --X 0 --Y 1.7e155 --u 0", 0, OUTPUT,
     "1.0\n# terms_used = 1\n# tail_bound = 2.220446049250313e-16"),
    # a series takes --tol as given: no floor, no tol_effective line
    ("eval series_for_I --nu 1 --X 2 --Y 1 --tol 1e-12", 0, ABSENT, "tol_effective"),
    # e^{-x^2/2} is applied to h_n's binary exponent: a value, not 0 * inf = nan
    ("eval eigenfunction --n 2985 --x 40", 0, FINITE, None),
    # the integral's domain checks at x = y, also past the product's exact split
    ("eval product_integral --nu 1 --x 0 --y 0", 2, ERROR,
     "domain error: representation requires x >= y > 0"),
    ("eval product_integral --nu -1 --x 2 --y 2", 2, ERROR,
     "domain error: order nu must be positive, got -1.0"),
    ("eval product_integral --nu 1 --x nan --y 2", 2, ERROR,
     "domain error: x and y must be finite, got x=nan"),
    ("eval product_integral --nu 1 --x 2 --y 2 --tol nan", 2, ERROR,
     "domain error: tol must lie in [1e-14, 1e-2]"),
    ("eval product_reference --nu 1 --x 3000 --y 3000", 2, ERROR,
     "domain error: 1.0 D_{-1.0}(3000.0) D_{-1.0}("),
]

CASES = [*NON_FINITE, *EXTREME_INPUT, *HERMITE_DEGREE_CAP, *HERMITE_DEGREE_NOT_INTEGER,
         *BESIDE_AN_EIGENVALUE, *SKIPPED, *EQ14_EXTREMES, *LAPLACE_RIGHT_SIDE_PAST_A_DOUBLE,
         *PAST_THE_OLD_LIMITS, *LAPLACE_TO_A_1E30, *FORMER_WALLS, *GRID_SPECS, *VERIFY_TOL,
         *REPEATED_OPTIONS, *MORE]


def row_id(row) -> str:
    """The row's argv past the command word, as 'EQ10-nu=1-x=2-y=2', or the
    command word where nothing follows it."""
    words = row[0].partition(" ")[2] or row[0]
    return words.replace(" --", "-").replace(" ", "=")


def _finite_nonzero(line: str) -> bool:
    try:
        value = float(line)
    except ValueError:
        return False
    return math.isfinite(value) and value != 0.0


def failure(row, code: int, stdout: str, stderr: str) -> str:
    """Why a run of ``row`` that exited with ``code`` and wrote ``stdout``
    and ``stderr`` fails it, or "" where it passes."""
    _, want, check, expected = row
    if code != want:
        return "wrong exit code"
    lines = stdout.splitlines()
    errors = stderr.splitlines()
    if errors[:1] and errors[0].startswith("usage: "):
        errors = errors[1:]
    if check == LAST:
        holds = lines[-1:] == [expected]
    elif check == OUTPUT:
        holds = stderr == "" and stdout == expected + "\n"
    elif check == FINITE:
        holds = bool(lines) and _finite_nonzero(lines[0])
    elif check == ABSENT:
        holds = not any(expected in line for line in lines)
    else:
        holds = check == ERROR and len(errors) == 1 and errors[0].startswith(expected)
    if holds:
        return ""
    return f"expected {check}" + ("" if expected is None else f" {expected!r}")


def run(command: list[str], rows=CASES) -> int:
    """Run each row as ``command + argv``; print each row that fails, with its
    argv, exit codes and first stderr line; return 1 if any did, else 0."""
    failed = 0
    for row in rows:
        argv = row[0].split()
        done = subprocess.run([*command, *argv], capture_output=True, text=True)
        why = failure(row, done.returncode, done.stdout, done.stderr)
        if why:
            failed += 1
            first = (done.stderr.splitlines() or [""])[0]
            print(f"FAIL {row[0]}: {why}\n"
                  f"  exit code {done.returncode}, expected {row[1]}; stderr: {first}")
    print(f"{len(rows)} rows, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(run(sys.argv[1:]))
