"""Command-line front door.

Two commands:

* ``pcfprod eval TARGET --name value ...`` evaluates one quantity at one
  point and prints the value plus convergence metadata.
* ``pcfprod verify IDENTITY|all [--name gridspec ...]`` sweeps an
  identity over a parameter grid, emitting one verification record per
  point as CSV or JSON plus a pass/fail/skip summary.  Exit status is 0
  iff no record failed.

Grid specs are ``lo:hi:count`` (inclusive, linear), ``log:lo:hi:count``
(log-spaced), or a single number.  Output is deterministic: identical
invocations produce byte-identical reports.  A point outside an
identity's validity domain is emitted as a skipped record whose note is
the library's ``DomainError`` message; a route that raises
``ConvergenceError`` gives a failed record with the error message as
its note and the route's partial result as its lhs.
``verify --tol`` must be finite and > 0; any other value is a usage
error.  EQ10, EQ11 and EQ12 run their quadrature at a tenth of the
tolerance, EQ13A, EQ13B and EQ14 at min(tol, 1e-10), clamped to the
engines' range [1e-14, 1e-2]; a record whose quadrature tolerance was
clamped says so in its note.  CSV output writes the notes of skipped,
failed and noted records to stderr; JSON output writes a number that is
nan or infinite, such as the sides of a skipped record, as null.
``eval`` passes ``--tol`` to its route as given.

The command line is parsed with :mod:`argparse`; a usage error prints the
command's usage line and the message on stderr and exits with status 2.
A parameter that the target or identity does not take, and a parameter
or option given twice, are usage errors.  A ``DomainError`` from ``eval``
prints ``domain error: ...`` on stderr and exits 2, and a
``ConvergenceError`` exits 3, after its partial result, where it has one,
is printed on stdout.  A launch imports only what its command runs:
``glasser``, ``green`` and ``mehler`` are imported by the first route
that reads them, so ``eval pcf_d`` loads neither those modules nor
numpy.  Results and queries are ``typing.NamedTuple`` records and the
help text is dedented here, so a scalar or quadrature ``eval`` imports
no module for either; ``inspect`` arrives only with numpy, on a series'
first call.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import math
import sys

from . import hyperbolic, quadrature, specfun
from .errors import ConvergenceError, DomainError
from .report import VerificationRecord, error_record, make_record

_EXIT_DOMAIN = 2
_EXIT_CONVERGENCE = 3


class _OnFirstUse:
    """Stands in for a library module among this module's globals until an
    attribute is first read; that read imports the module and puts it in
    the stand-in's place, so every later lookup is a plain module lookup."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        module = importlib.import_module(f".{self._name}", __package__)
        globals()[self._name] = module
        return getattr(module, attr)


# only some commands use these; `hyperbolic` is imported above because the
# EQ13A/EQ13B/EQ14 routes capture its functions when IDENTITIES is built
glasser, green, mehler = _OnFirstUse("glasser"), _OnFirstUse("green"), _OnFirstUse("mehler")


class UsageError(Exception):
    """A malformed command line: reported under the command's usage line,
    with exit status 2."""


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

# target -> (parameter names, route called with their values and the tolerance).
# A route looks its function up on the module at call time, so a patched
# module attribute sees every call.
EVAL_TARGETS = {
    "pcf_d": (("nu", "z"), lambda nu, z, tol: specfun.pcf_d(nu, z)),
    "gamma": (("nu",), lambda nu, tol: specfun.gamma(nu)),
    "bessel_k_quarter": (("z",), lambda z, tol: specfun.bessel_k_quarter(z)),
    "hermite": (("n", "x"), lambda n, x, tol: specfun.hermite(n, x)),
    "product_integral": (("nu", "x", "y"), lambda nu, x, y, tol:
                         glasser.product_via_integral(glasser.ProductQuery(nu, x, y), tol)),
    "product_reference": (("nu", "x", "y"), lambda nu, x, y, tol:
                          glasser.product_reference(glasser.ProductQuery(nu, x, y))),
    "laplace_I": (("nu", "a", "b", "sign"), lambda nu, a, b, sign, tol:
                  glasser.laplace_I(glasser.LaplaceParams(nu, a, b), sign, tol)),
    "mehler_kernel": (("X", "Y", "u"), lambda X, Y, u, tol:
                      mehler.mehler_kernel_closed(mehler.MehlerPoint(X, Y, u))),
    "mehler_kernel_series": (("X", "Y", "u"), lambda X, Y, u, tol:
                             mehler.mehler_kernel_series(mehler.MehlerPoint(X, Y, u), tol)),
    "series_for_I": (("nu", "X", "Y"), lambda nu, X, Y, tol: mehler.series_for_I(nu, X, Y, tol)),
    "sum_rule_lhs": (("nu", "x", "y"), lambda nu, x, y, tol:
                     mehler.sum_rule_lhs(mehler.SumRuleQuery(nu, x, y), tol)),
    "green_spectral": (("lam", "x", "xprime"), lambda lam, x, xprime, tol:
                       green.green_spectral(green.GreenQuery(lam, x, xprime), tol)),
    "green_closed": (("lam", "x", "xprime"), lambda lam, x, xprime, tol:
                     green.green_closed(green.GreenQuery(lam, x, xprime))),
    "green_ode": (("lam", "x", "xprime"), lambda lam, x, xprime, tol:
                  green.green_ode_oracle(green.GreenQuery(lam, x, xprime))),
    "eigenfunction": (("n", "x"), lambda n, x, tol: green.eigenfunction(n, x)),
    "hyperbolic_lhs_13a": (("alpha", "phi"), lambda alpha, phi, tol: hyperbolic.lhs_13a(
        hyperbolic.HyperbolicQuery(alpha=alpha, phi=phi), tol)),
    "hyperbolic_lhs_13b": (("alpha", "phi"), lambda alpha, phi, tol: hyperbolic.lhs_13b(
        hyperbolic.HyperbolicQuery(alpha=alpha, phi=phi), tol)),
    "hyperbolic_lhs_14": (("a", "phi"), lambda a, phi, tol: hyperbolic.lhs_14(
        hyperbolic.HyperbolicQuery(a=a, phi=phi), tol)),
}


def _echo_result(result) -> None:
    """Print a route's result: a number as is; a result NamedTuple as its
    value, then each other field as a '# name = value' line in declaration
    order."""
    names = getattr(result, "_fields", None)
    if names is None:
        print(repr(result))
        return
    print(repr(result[0]))
    for name, value in zip(names[1:], result[1:]):
        print(f"# {name} = {value!r}")


def _parse_named_floats(raw: list[str]) -> dict[str, str]:
    """Parse trailing '--name value' pairs into a dict of raw strings; a
    name given twice is a usage error, not a value that overrides the first."""
    out: dict[str, str] = {}
    i = 0
    while i < len(raw):
        tok = raw[i]
        if not tok.startswith("--"):
            raise UsageError(f"expected --name, got {tok!r}")
        if i + 1 >= len(raw):
            raise UsageError(f"missing value for {tok}")
        if tok[2:] in out:
            raise UsageError(f"{tok} given more than once")
        out[tok[2:]] = raw[i + 1]
        i += 2
    return out


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _parse_gridspec(name: str, spec: str) -> list[float]:
    log = spec.startswith("log:")
    body = spec[4:] if log else spec
    parts = body.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) != 3:
            raise ValueError
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
        if count < 1:
            raise ValueError
    except ValueError:
        raise UsageError(
            f"malformed range spec for --{name}: {spec!r} (want lo:hi:count or log:lo:hi:count)"
        )
    if count == 1:
        return [lo]
    if log:
        if lo <= 0 or hi <= 0:
            raise UsageError(f"log spacing needs positive bounds in --{name}={spec!r}")
        ratio = (hi / lo) ** (1.0 / (count - 1))
        return [lo * ratio**i for i in range(count)]
    step = (hi - lo) / (count - 1)
    return [lo + step * i for i in range(count)]


def _verify_eq3(p, tol):
    point = mehler.MehlerPoint(p["X"], p["Y"], p["u"])
    series = mehler.mehler_kernel_series(point, tol * 0.1)
    # kernel values can be exponentially small while series terms are O(1);
    # the series contract is the mixed tolerance tol*(1+|value|)
    return make_record("EQ3", p, series.value, mehler.mehler_kernel_closed(point),
                       tol, series.terms_used, mode="mixed")


def _verify_eq10(p, tol):
    q = glasser.ProductQuery(p["nu"], p["x"], p["y"])
    quad_tol, note = quadrature.clamp_tol(tol * 0.1)
    lhs = glasser.product_via_integral(q, quad_tol)
    return make_record("EQ10", p, lhs.value, glasser.product_reference(q), tol, lhs.evaluations,
                       note=note)


def _verify_laplace(identity, sign):
    def run(p, tol):
        lp = glasser.LaplaceParams(p["nu"], p["a"], p["b"])
        q = glasser.xy_from_params(lp)  # validates the domain before any quadrature
        quad_tol, note = quadrature.clamp_tol(tol * 0.1)
        lhs = glasser.laplace_I(lp, sign, quad_tol)
        rhs = specfun.pcf_d_product(q.nu, q.x, q.x * q.x, -sign * q.y, q.y * q.y,
                                    factor=2.0 * specfun.gamma(q.nu), scaled=True)
        return make_record(identity, p, lhs.value, rhs, tol, lhs.evaluations, note=note)
    return run


def _verify_hyperbolic(fn, size):
    """The route of hyperbolic identity ``fn``, whose query takes ``size``
    (alpha or a) and phi from the grid point."""
    def run(p, tol):
        return fn(hyperbolic.HyperbolicQuery(phi=p["phi"], **{size: p[size]}), tol)
    return run


def _verify_eq15(p, tol):
    q = mehler.SumRuleQuery(p["nu"], p["x"], p["y"])
    lhs = mehler.sum_rule_lhs(q, tol * 0.5)
    rhs = specfun.pcf_d_product(q.nu, q.x, q.x * q.x, -q.y, q.y * q.y, factor=specfun.gamma(q.nu))
    return make_record("EQ15", p, lhs.value, rhs, tol, lhs.terms_used)


def _verify_eq8_eq9(p, tol):
    q = green.GreenQuery(p["lam"], p["x"], p["xprime"])
    rhs = green.green_closed(q)  # validates the domain before the series starts
    lhs = green.green_spectral(q, tol * 0.5)
    return make_record("EQ8_EQ9", p, lhs.value, rhs, tol, lhs.terms_used)


IDENTITIES = {
    "EQ3": {
        "grid": {"X": [-2.0, 0.0, 1.5], "Y": [-1.0, 0.5, 2.0],
                 "u": [-0.8, -0.3, 0.0, 0.3, 0.8]},
        "tol": 1e-9,
        "run": _verify_eq3,
    },
    "EQ10": {
        "grid": {"nu": [0.5, 1.0, 2.5], "x": [1.5, 2.5], "y": [0.5, 1.0]},
        "tol": 1e-8,
        "run": _verify_eq10,
    },
    "EQ11": {
        "grid": {"nu": [0.5, 1.0, 2.0], "a": [1.5, 3.0], "b": [0.5, 1.0]},
        "tol": 1e-8,
        "run": _verify_laplace("EQ11", 1),
    },
    "EQ12": {
        "grid": {"nu": [0.5, 1.0, 2.0], "a": [1.5, 3.0], "b": [0.5, 1.0]},
        "tol": 1e-8,
        "run": _verify_laplace("EQ12", -1),
    },
    "EQ13A": {
        "grid": {"alpha": [0.5, 1.0, 2.0], "phi": [0.5, 1.0, 2.0]},
        "tol": 1e-8,
        "run": _verify_hyperbolic(hyperbolic.erfc_identity_13a, "alpha"),
    },
    "EQ13B": {
        "grid": {"alpha": [0.5, 1.0, 2.0], "phi": [0.5, 1.0, 2.0]},
        "tol": 1e-8,
        "run": _verify_hyperbolic(hyperbolic.erfc_identity_13b, "alpha"),
    },
    "EQ14": {
        "grid": {"a": [0.5, 1.0, 2.0], "phi": [0.5, 1.0, 2.0]},
        "tol": 1e-7,
        "run": _verify_hyperbolic(hyperbolic.k_identity_14, "a"),
    },
    "EQ15": {
        "grid": {"nu": [0.5, 1.0, 2.0], "x": [2.0, 3.0], "y": [0.5, 1.0]},
        "tol": 5e-7,
        "run": _verify_eq15,
    },
    "EQ8_EQ9": {
        "grid": {"lam": [-3.0, -1.0, 0.0, 0.5], "x": [1.0, 1.5], "xprime": [0.0, 0.5]},
        "tol": 1e-6,
        "run": _verify_eq8_eq9,
    },
}


def _evaluate_identity(identity: str, grids: dict[str, list[float]], tol: float):
    run = IDENTITIES[identity]["run"]
    records = []
    for combo in itertools.product(*grids.values()):
        p = dict(zip(grids, combo))
        try:
            records.append(run(p, tol))
        except (DomainError, ConvergenceError) as exc:
            records.append(error_record(identity, p, exc))
    return records


def _emit_csv(records: list[VerificationRecord], names, out) -> None:
    header = ["identity_id", *names, "lhs", "rhs", "abs_err", "rel_err", "passed"]
    out.write(",".join(header) + "\n")
    for r in records:
        passed = "skipped" if r.skipped else ("true" if r.passed else "false")
        row = [r.identity_id, *(repr(r.params[n]) for n in names),
               repr(r.lhs), repr(r.rhs), repr(r.abs_err), repr(r.rel_err), passed]
        out.write(",".join(row) + "\n")


def _emit_notes(records: list[VerificationRecord], names) -> None:
    """One ``# ID name=value ...: note`` line on stderr per skipped or
    failed record and per record with a note, so CSV output keeps the
    reason and any clamped tolerance; stdout is untouched."""
    for r in records:
        notes = [r.note] if r.note else []
        # a failed record with numbers missed its tolerance; one without
        # numbers carries the route's error as its note
        if r.status == "fail" and (not notes or not math.isnan(r.abs_err)):
            notes.insert(0, "error above tolerance")
        if notes:
            point = " ".join(f"{n}={r.params[n]!r}" for n in names)
            print(f"# {r.identity_id} {point}: {'; '.join(notes)}", file=sys.stderr)


def _json_number(v: float) -> float | None:
    """``v``, or None (JSON null) where it is nan or infinite: JSON has no such numbers."""
    return v if math.isfinite(v) else None


def _record_json(r: VerificationRecord) -> dict:
    return {
        "identity_id": r.identity_id,
        "params": {name: _json_number(v) for name, v in r.params.items()},
        "lhs": _json_number(r.lhs),
        "rhs": _json_number(r.rhs),
        "abs_err": _json_number(r.abs_err),
        "rel_err": _json_number(r.rel_err),
        "status": r.status,
        "evaluations": r.evaluations,
        "note": r.note,
    }


# --------------------------------------------------------------------------
# commands: each takes the parsed options and the arguments left over
# after them, and returns the exit status
# --------------------------------------------------------------------------

def _float_option(name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise UsageError(f"Invalid value for '--{name}': {raw!r} is not a valid float.") from None


def eval_cmd(args: argparse.Namespace, params: list[str]) -> int:
    """Evaluate TARGET at the point given by trailing --name value pairs."""
    tol = _float_option("tol", args.tol)
    target = args.target
    if target not in EVAL_TARGETS:
        known = ", ".join(sorted(EVAL_TARGETS))
        raise UsageError(f"unknown target {target!r}; known targets: {known}")
    names, route = EVAL_TARGETS[target]
    raw = _parse_named_floats(params)
    unknown = set(raw) - set(names)
    if unknown:
        raise UsageError(f"{target} takes parameters {names}, not {sorted(unknown)}")
    try:
        point = {k: float(v) for k, v in raw.items()}
    except ValueError as exc:
        raise UsageError(f"invalid parameter value: {exc}") from None
    missing = [n for n in names if n not in point]
    if missing:
        raise UsageError(f"missing parameter(s): {', '.join('--' + m for m in missing)}")
    try:
        result = route(*(point[n] for n in names), tol)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except ConvergenceError as exc:
        # the best value the route reached, then why it missed its tolerance
        if exc.partial is not None:
            _echo_result(exc.partial)
        print(f"convergence error: {exc}", file=sys.stderr)
        return _EXIT_CONVERGENCE
    _echo_result(result)
    return 0


def verify_cmd(args: argparse.Namespace, gridargs: list[str]) -> int:
    """Verify IDENTITY (or 'all') over a parameter grid.

    Default grids are used for parameters without an explicit
    --name lo:hi:count range; a name that no chosen identity takes is
    a usage error.  Points outside an identity's validity
    domain are emitted as skipped records noting the library's
    DomainError; a route that fails to converge gives a failed record.
    With CSV output the reason for each skipped or failed record, and a
    clamped quadrature tolerance, goes to stderr as a
    '# ID name=value ...: note' line.
    """
    tol = None if args.tol is None else _float_option("tol", args.tol)
    if tol is not None and not 0.0 < tol < math.inf:
        raise UsageError(f"Invalid value for '--tol': {args.tol!r} is not a finite number > 0.")
    fmt = args.format
    if fmt not in ("csv", "json"):
        raise UsageError(f"Invalid value for '--format': {fmt!r} is not one of 'csv', 'json'.")
    identity = args.identity.upper() if args.identity != "all" else "all"
    if identity != "all" and identity not in IDENTITIES:
        raise UsageError(
            f"unknown identity {identity!r}; choose from {', '.join(IDENTITIES)} or 'all'")
    chosen = list(IDENTITIES) if identity == "all" else [identity]
    raw = _parse_named_floats(gridargs)
    # with 'all', a name is used by the identities that take it
    takes = tuple(dict.fromkeys(name for ident in chosen for name in IDENTITIES[ident]["grid"]))
    unknown = set(raw) - set(takes)
    if unknown:
        raise UsageError(f"{identity} takes parameters {takes}, not {sorted(unknown)}")

    blocks = []
    for ident in chosen:
        cfg = IDENTITIES[ident]
        names = tuple(cfg["grid"])
        grids = {name: _parse_gridspec(name, raw[name]) if name in raw else list(default)
                 for name, default in cfg["grid"].items()}
        records = _evaluate_identity(ident, grids, tol if tol is not None else cfg["tol"])
        blocks.append((ident, names, records))

    all_records = [r for _, _, recs in blocks for r in recs]
    n_pass = sum(1 for r in all_records if r.status == "pass")
    n_fail = sum(1 for r in all_records if r.status == "fail")
    n_skip = sum(1 for r in all_records if r.status == "skip")

    if fmt == "csv":
        for ident, names, records in blocks:
            _emit_csv(records, names, sys.stdout)
            _emit_notes(records, names)
        print(f"# summary: pass={n_pass} fail={n_fail} skip={n_skip}")
    else:
        import json
        doc = {
            "summary": {"pass": n_pass, "fail": n_fail, "skip": n_skip},
            "records": [_record_json(r) for r in all_records],
        }
        print(json.dumps(doc, indent=2, allow_nan=False))
    return 0 if n_fail == 0 else 1


# --------------------------------------------------------------------------
# argparse wiring
# --------------------------------------------------------------------------

class _Once(argparse.Action):
    """Stores an option's value; the option given a second time is a usage
    error, as a trailing parameter given twice is."""

    def __call__(self, parser, namespace, value, option_string=None):
        given = vars(namespace).setdefault("given", set())
        if self.dest in given:
            parser.error(f"{option_string} given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, value)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Option values stay
    strings for _float_option, and the arguments after a command's options
    are left to _parse_named_floats."""
    top = argparse.ArgumentParser(
        prog="pcfprod", allow_abbrev=False,
        description="Parabolic-cylinder product representations and their verification.")
    commands = top.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name, run, usage):
        # the docstring without its common indentation past the first line
        first, *rest = run.__doc__.strip().splitlines()
        margin = min((len(line) - len(line.lstrip()) for line in rest if line.strip()),
                     default=0)
        doc = "\n".join([first, *(line[margin:] for line in rest)])
        sub = commands.add_parser(name, help=doc.splitlines()[0], description=doc, usage=usage,
                                  formatter_class=argparse.RawDescriptionHelpFormatter,
                                  allow_abbrev=False)
        sub.set_defaults(run=run, parser=sub)
        return sub

    sub = command("eval", eval_cmd, "%(prog)s [-h] [--tol TOL] TARGET --name value ...")
    sub.add_argument("target", metavar="TARGET", help=", ".join(sorted(EVAL_TARGETS)))
    sub.add_argument("--tol", default="1e-10", action=_Once,
                     help="Requested relative tolerance for iterative targets "
                          "(default: %(default)s).")
    sub = command("verify", verify_cmd, "%(prog)s [-h] [--tol TOL] [--format {csv,json}] "
                                        "IDENTITY [--name gridspec ...]")
    sub.add_argument("identity", metavar="IDENTITY", help=f"{', '.join(IDENTITIES)} or all")
    sub.add_argument("--tol", action=_Once, help="Override the identity's default tolerance.")
    sub.add_argument("--format", default="csv", metavar="{csv,json}", action=_Once,
                     help="(default: %(default)s)")
    return top


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> int:
    """Run one command line (``sys.argv[1:]`` by default).  With
    ``standalone_mode``, as the console script runs it, exit with the
    command's status; otherwise return it."""
    try:
        args, rest = _parser().parse_known_args(argv)
        try:
            code = args.run(args, rest)
        except UsageError as exc:
            args.parser.error(str(exc))  # the usage line, then the message; exits 2
    except SystemExit as exc:  # --help, and every usage error, leave argparse this way
        code = exc.code
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
