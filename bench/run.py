"""pcfprod benchmark: end-to-end and per-layer costs of identity checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src``.
NAME is one of ``verify_all``, ``quad_points``, ``series_points``, or
``all`` (each workload in turn, in its own process).  Load comes from
this one process and thread, closed loop: one caller that starts the
next check when the previous one has returned.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it wraps each layer's public functions (see tracer.py),
prints the per-layer metrics, and repeats each traced sweep or block
untraced to measure the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status is 0 iff every correctness check held; a point on which
the program raises or misses its tolerance is counted in ``failed``
and never aborts the run.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("verify_all", "quad_points", "series_points")
clock = time.perf_counter

SETUP_LAUNCHES = 16
SETUP_ARGV = ["-m", "pcfprod.cli", "eval", "pcf_d", "--nu", "-1", "--z", "0"]
SETUP_VALUE = 1.2533141373155002512  # D_{-1}(0) = sqrt(pi/2)
IMPORT_RUNS = 3
# blocks in a stream run's point set: 1,200 quad_points points leave 12
# beyond point_ms_p99; series_points checks are 100-1000x dearer
SET_BLOCKS = {"quad_points": 24, "series_points": 2}

# `verify all` on its default grids at the seed commit
VERIFY_SUMMARY = "# summary: pass=136 fail=0 skip=0"
# the benchmark's own copy of each identity's default tolerance and rule
# (cli.IDENTITIES and report.make_record), so a loosened tolerance shows
VERIFY_TOL = {"EQ3": 1e-9, "EQ10": 1e-8, "EQ11": 1e-8, "EQ12": 1e-8, "EQ13A": 1e-8,
              "EQ13B": 1e-8, "EQ14": 1e-7, "EQ15": 5e-7, "EQ8_EQ9": 1e-6}
VERIFY_MIXED = {"EQ3"}

END_TO_END = {
    "setup_s": "s", "sweep_s": "s", "points_per_s": "1/s", "point_ms_p50": "ms",
    "point_ms_p90": "ms", "point_ms_p99": "ms", "pass_frac": "ratio",
    "err_over_tol_max": "ratio",
}


# Other tenants of the machine slow it down by up to 2x, in spells that
# last from milliseconds to minutes, and such a spell slows the program
# and the benchmark's own reference loop alike.  So every timed unit of
# work (a launch, a `verify all` record, a block of points) runs between
# two timings of that loop, and its time is scaled by REF_LOOP_S over
# their mean: the time the unit takes when the loop takes REF_LOOP_S.
# The loop mixes what the program spends its time on (interpreted
# arithmetic, dict and float work, numpy calls on small arrays), and it
# is the benchmark's own code, so a change to the program moves only
# the unit.
REF_LOOP_S = 2.5e-3  # about the loop's median time on the baseline machine
_LOOP_X = numpy.linspace(0.0, 1.0, 64)

# The process moves between the CPUs it may use, one unit or pass at a
# time, so that no run depends on one CPU; the loop timings of a unit
# are taken on the CPU that runs it.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _pin(i: int) -> None:
    """Move this process to the i-th usable CPU, round robin."""
    if CPUS:
        os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def loop_seconds() -> float:
    """Time of the reference loop."""
    t0 = clock()
    s = 0
    for i in range(10_000):
        s += i * i % 7
    acc: dict[int, float] = {}
    for i in range(1_500):
        acc[i % 97] = acc.get(i % 97, 0.0) + math.exp(-1e-3 * i) * 1.5
    for i in range(150):
        s += float((numpy.exp(-i * _LOOP_X) * _LOOP_X).sum())
    return clock() - t0


class Scaled:
    """Runs units of work between reference-loop timings.

    Consecutive units share the loop timing between them; ``restart``
    after moving to another CPU."""

    def __init__(self):
        self.loops: list[float] = []
        self._primed = False

    def restart(self) -> None:
        self._primed = False

    def run(self, fn):
        """(scale factor, fn()): multiply the unit's seconds by the factor."""
        if not self._primed:
            self.loops.append(loop_seconds())
            self._primed = True
        before = self.loops[-1]
        result = fn()
        self.loops.append(loop_seconds())
        return REF_LOOP_S / (0.5 * (before + self.loops[-1])), result


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PCF_MAX_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _pct(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# ------------------------------------------------------------------ set-up

def measure_setup(launches: int) -> tuple[list[float], bool]:
    """Scaled wall times of fresh `pcfprod eval pcf_d` launches, and
    whether every launch printed the right value.  A first, untimed
    launch fills the caches.  A launch is a unit between loop timings,
    each the median of three."""
    env, ok, times = _child_env(), True, []
    for i in range(launches + 1):
        _pin(i)
        before = statistics.median(loop_seconds() for _ in range(3))
        t0 = clock()
        proc = subprocess.run([sys.executable, *SETUP_ARGV], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        elapsed = clock() - t0
        after = statistics.median(loop_seconds() for _ in range(3))
        try:
            value = float(proc.stdout.splitlines()[0])
            ok &= proc.returncode == 0 and abs(value - SETUP_VALUE) <= 1e-12 * SETUP_VALUE
        except (IndexError, ValueError):
            ok = False
        if i:
            times.append(elapsed * REF_LOOP_S / (0.5 * (before + after)))
    return times, ok


def parse_importtime(stderr: str) -> dict[str, float]:
    """Module -> cumulative import seconds from `python -X importtime` output."""
    cumulative = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return cumulative


def measure_imports() -> dict[str, float]:
    """import.* metrics from `python -X importtime` and a bare interpreter."""
    env, cli_s, scipy_s, bare_s = _child_env(), [], [], []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pcfprod.cli"],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        cumulative = parse_importtime(proc.stderr)
        cli_s.append(cumulative.get("pcfprod.cli", 0.0))
        scipy_s.append(cumulative.get("scipy.integrate", 0.0))
        t0 = clock()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, timeout=60)
        bare_s.append(clock() - t0)
    return {"import.pcfprod_cli_s": statistics.median(cli_s),
            "import.scipy_integrate_s": statistics.median(scipy_s),
            "import.python_startup_s": statistics.median(bare_s)}


# -------------------------------------------------------------- verify_all

def _record_stopwatch(cli, times: list[float], loops: list[float]):
    """Time each record's evaluation by wrapping cli.IDENTITIES[*]["run"],
    and time the reference loop after each one (outside the record).

    Returns a restore function, or None when the registry has another
    shape (the sweep is then scaled as one unit)."""
    registry = getattr(cli, "IDENTITIES", None)
    if not isinstance(registry, dict) or not all(
            isinstance(cfg, dict) and callable(cfg.get("run")) for cfg in registry.values()):
        return None
    originals = {ident: cfg["run"] for ident, cfg in registry.items()}

    def timed(run):
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return run(*args, **kwargs)
            finally:
                times.append(clock() - t0)
                loops.append(loop_seconds())
        return wrapper

    for ident, run in originals.items():
        registry[ident]["run"] = timed(run)

    def restore():
        for ident, run in originals.items():
            registry[ident]["run"] = run
    return restore


def verify_sweep(cli, record_times: list[float] | None = None,
                 loops: list[float] | None = None):
    """One in-process `pcfprod verify all`: (seconds, exit code, stdout)."""
    restore = (_record_stopwatch(cli, record_times, loops)
               if record_times is not None else None)
    buf = io.StringIO()
    try:
        t0 = clock()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(["verify", "all"], standalone_mode=False) or 0
            except SystemExit as exc:
                code = exc.code
        seconds = clock() - t0
    finally:
        if restore:
            restore()
    return seconds, code, buf.getvalue()


def scaled_sweep(cli) -> tuple[list[float], float, int, str, list[float]]:
    """One sweep, scaled: (seconds per record, seconds outside the records,
    exit code, stdout, loop timings).

    Each record is a unit between the loop timings before and after it;
    the rest of the sweep (grid expansion, records, CSV) is scaled by the
    median loop timing of the sweep."""
    times: list[float] = []
    loops = [loop_seconds()]
    sweep_s, code, out = verify_sweep(cli, times, loops)
    if len(loops) != len(times) + 1:  # no stopwatch: the sweep is one unit
        loops.append(loop_seconds())
        return [], sweep_s * REF_LOOP_S / (0.5 * (loops[0] + loops[1])), code, out, loops
    records = [t * REF_LOOP_S / (0.5 * (loops[i] + loops[i + 1])) for i, t in enumerate(times)]
    rest = sweep_s - sum(times) - sum(loops[1:])
    return records, rest * REF_LOOP_S / statistics.median(loops), code, out, loops


def judge_verify_output(text: str) -> tuple[list[tuple[str, float, bool]], str]:
    """(row, err/tol, passed) per record by make_record's rule, and the summary."""
    from workloads import err_over_tol
    rows, header, summary = [], [], ""
    for line in text.splitlines():
        if line.startswith("identity_id,"):
            header = line.split(",")
        elif line.startswith("# summary"):
            summary = line
        elif line:
            rec = dict(zip(header, line.split(",")))
            ident = rec["identity_id"]
            e = err_over_tol(float(rec["lhs"]), float(rec["rhs"]), VERIFY_TOL[ident],
                             "mixed" if ident in VERIFY_MIXED else "relative")
            rows.append((line, e, rec["passed"] == "true" and e <= 1.0))
    return rows, summary


def run_verify(seconds: float, tracer=None) -> dict:
    """`verify all` sweeps until ``seconds`` have passed (at least three).

    Untraced, each record's time is its median over the sweeps, and so
    is the time outside the records; a sweep's time is their sum.
    Traced, each sweep is followed by the same sweep untraced, for the
    overhead."""
    import pcfprod.cli as cli
    sweeps, untraced, per_record, rest, loops = [], [], None, [], []
    attempted = failed = 0
    worst, correct, first, failures = 0.0, True, None, Counter()
    start = clock()
    while clock() - start < seconds or len(sweeps) < 3:
        if tracer is None:
            _pin(len(sweeps))
            records, outside, code, out, sweep_loops = scaled_sweep(cli)
            loops += sweep_loops
            rest.append(outside)
            sweeps.append(sum(records) + outside)
        else:
            tracer.point_id = len(sweeps)
            idx = tracer.open("cli.verify_all")
            sweep_s, code, out = verify_sweep(cli)
            tracer.close(idx)
            tracer.enabled = False
            untraced.append(verify_sweep(cli)[0])
            tracer.enabled = True
            sweeps.append(sweep_s)
        rows, summary = judge_verify_output(out)
        if first is None:
            first = [r[0] for r in rows]
        same = [r[0] for r in rows] == first
        correct &= code == 0 and summary == VERIFY_SUMMARY and same and bool(rows)
        for _line, e, ok in rows:
            attempted += 1
            worst = max(worst, e)
            if not ok or not same:
                failed += 1
                failures["RecordFail" if not ok else "NotByteIdentical"] += 1
        if not rows:
            attempted, failed = attempted + 1, failed + 1
            failures["NoRecords"] += 1
        if tracer is None:
            if len(records) != len(rows):  # no per-record stopwatch: the sweep mean
                records = [sweeps[-1] / max(len(rows), 1)] * len(rows)
                rest[-1] = 0.0
            if per_record is None or len(per_record) != len(records):
                per_record = [[] for _ in records]
            for acc, t in zip(per_record, records):
                acc.append(t)
    unit_s = [statistics.median(ts) for ts in per_record or []]
    return {"sweeps": sweeps, "untraced": untraced, "loop_s": loops, "unit_s": unit_s,
            "sweep_s": sum(unit_s) + (statistics.median(rest) if rest else 0.0),
            "attempted": attempted, "failed": failed, "failures": failures,
            "err_over_tol_max": worst, "correct": correct, "units": len(sweeps)}


# ------------------------------------------------------------ point streams

def timed_pass(points, tracer=None) -> tuple[list[float], list]:
    """Check each point once: (seconds per point, outcome per point)."""
    import workloads as wl
    seconds, outcomes = [], []
    for i, pt in enumerate(points):
        if tracer is not None:
            tracer.point_id = i
            idx = tracer.open("bench.point")
        out = wl.run_point(pt, clock)
        if tracer is not None:
            tracer.close(idx)
        seconds.append(out.seconds)
        outcomes.append(out)
    return seconds, outcomes


def _count(res: dict, outcomes) -> None:
    for out in outcomes:
        res["attempted"] += 1
        if out.failure:
            res["failed"] += 1
            res["failures"][out.failure] += 1


def run_points(workload: str, seed: int, seconds: float, tracer=None) -> dict:
    """Passes over the seed's point set until ``seconds`` have passed (at
    least three).  Each block is a scaled unit, and each point's time is
    its median over the passes.  Traced, one pass, each block followed
    by the same block untraced, for the overhead."""
    import workloads as wl
    blocks = wl.point_set(workload, seed, SET_BLOCKS[workload])
    points = [pt for block in blocks for pt in block]
    res = {"attempted": 0, "failed": 0, "failures": Counter(), "err_over_tol_max": 0.0,
           "correct": True, "blocks": len(blocks), "untraced": 0.0}
    if tracer is not None:
        for block in blocks:
            _count(res, timed_pass(block, tracer)[1])
            tracer.enabled = False
            res["untraced"] += sum(timed_pass(block)[0])
            tracer.enabled = True
        res["units"] = len(points)
        return res
    per_point: list[list[float]] = [[] for _ in points]
    scaled = Scaled()
    passes, start = 0, clock()
    while passes < 3 or clock() - start < seconds:
        _pin(passes)
        scaled.restart()
        k = 0
        for block in blocks:
            factor, (secs, outs) = scaled.run(lambda: timed_pass(block))
            _count(res, outs)
            for t in secs:
                per_point[k].append(t * factor)
                k += 1
        passes += 1
    res["unit_s"] = [statistics.median(ts) for ts in per_point]
    res["loop_s"] = scaled.loops
    res["units"] = len(points) * passes
    return res


def check_frozen(workload: str, res: dict) -> None:
    """Check every frozen point (untimed) and fold the outcome into ``res``.

    The frozen points give err_over_tol_max, and each must pass."""
    import workloads as wl
    for pt in wl.load_refs(workload):
        out = wl.run_point(pt, clock)
        res["attempted"] += 1
        res["correct"] &= out.failure is None
        e = out.err_over_tol if out.err_over_tol is not None else float("inf")
        res["err_over_tol_max"] = max(res["err_over_tol_max"], e)
        if out.failure:
            res["failed"] += 1
            res["failures"]["Frozen" + out.failure] += 1


# -------------------------------------------------------------- reporting

def end_to_end(workload: str, res: dict, setup_s: float) -> dict[str, float]:
    ms = [1e3 * t for t in res["unit_s"]]
    sweep = res["sweep_s"] if workload == "verify_all" else sum(res["unit_s"]) / res["blocks"]
    return {
        "setup_s": setup_s,
        "sweep_s": sweep,
        "points_per_s": len(ms) / (1e-3 * sum(ms)),
        "point_ms_p50": _pct(ms, 50),
        "point_ms_p90": _pct(ms, 90),
        "point_ms_p99": _pct(ms, 99),
        "pass_frac": 1.0 - res["failed"] / res["attempted"],
        "err_over_tol_max": res["err_over_tol_max"],
    }


def check_defects() -> dict[str, float]:
    """Check each fixed point of a known defect; name the ones still failing."""
    import workloads as wl
    failing = [name for name, pt in wl.KNOWN_DEFECTS.items()
               if wl.run_point(pt, clock).failure is not None]
    print(f"# known defects still failing: {', '.join(failing) or 'none'}")
    return {"defects.failing": len(failing)}


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One traced pass, each sweep or block followed by the same work
    untraced; the pairs give the tracing overhead."""
    import pcfprod.cli  # noqa: F401  (hooks bind to loaded modules only)
    import workloads  # noqa: F401
    from tracer import Tracer
    _pin(0)  # traced and untraced timings on the same CPU
    tr = Tracer()
    tr.install()
    try:
        res = (run_verify(seconds, tr) if workload == "verify_all"
               else run_points(workload, seed, seconds, tr))
    finally:
        tr.uninstall()
    metrics = tr.metrics()
    if workload == "verify_all":
        # identical sweeps: compare the fastest of each kind
        metrics["trace.overhead_frac"] = min(res["sweeps"]) / min(res["untraced"]) - 1.0
    else:
        check_frozen(workload, res)
        metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / res["untraced"] - 1.0
    metrics.update(measure_imports())
    metrics.update(check_defects())
    if tr.absent:
        print(f"# absent hooks (reported as zero): {', '.join(tr.absent)}")
    return metrics, res


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    from tracer import _FUNCTION_METRICS, LAYERS
    units = {"import.pcfprod_cli_s": "s", "import.scipy_integrate_s": "s",
             "import.python_startup_s": "s", "defects.failing": "count",
             "trace.overhead_frac": "ratio",
             "trace.wall_s": "s", "trace.spans": "count", "trace.absent_hooks": "count"}
    for lay in LAYERS:
        units[f"{lay}.self_s"] = "s"
        units[f"{lay}.self_share"] = "ratio"
    units.update({"hermsum.calls": "count", "hermsum.failures": "count",
                  "hermsum.terms_used": "count", "hermsum.terms_computed": "count",
                  "hermsum.useful_ratio": "ratio", "hermsum.products_s": "s",
                  "hermsum.ns_per_term": "ns"})
    for q in ("quadrature.semi_infinite", "quadrature.finite"):
        units.update({q + ".calls": "count", q + ".evaluations": "count", q + ".self_s": "s",
                      q + ".ns_per_eval": "ns", q + ".failures": "count"})
    units["quadrature.integrand_s"] = "s"
    for name in _FUNCTION_METRICS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    return units


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import numpy
    import scipy
    print(f"# pcfprod benchmark: workload={workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)}")
    print(f"# env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__}")
    if trace:
        raw, res = per_layer(workload, seed, seconds)
        metrics = {k: {"value": float(raw.get(k, 0.0)), "unit": u}
                   for k, u in per_layer_units().items()}
        correct = res["correct"]
    else:
        # launches before and after the measurement, so that setup_s is
        # taken over the whole run
        before, ok_before = measure_setup(SETUP_LAUNCHES // 2)
        if workload == "verify_all":
            res = run_verify(seconds)
        else:
            res = run_points(workload, seed, seconds)
            check_frozen(workload, res)
        after, ok_after = measure_setup(SETUP_LAUNCHES - len(before))
        setup_s = statistics.median(before + after)
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(workload, res, setup_s).items()}
        correct = res["correct"] and ok_before and ok_after
        print(f"# reference loop: median {1e3 * statistics.median(res['loop_s']):.3f} ms "
              f"over {len(res['loop_s'])} timings (scaled to {1e3 * REF_LOOP_S:g} ms)")
    fails = " ".join(f"{k}={v}" for k, v in sorted(res["failures"].items())) or "none"
    print(f"# checks={res['attempted']} timed={res['units']} failed={res['failed']} "
          f"({fails}) correct={correct}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed",
                               str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
                              cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pcfprod" / "__init__.py").is_file():
        print(f"error: no pcfprod sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("PCF_MAX_THREADS", None)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        if CPUS:
            os.sched_setaffinity(0, set(CPUS))


if __name__ == "__main__":
    sys.exit(main())
