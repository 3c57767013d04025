"""Fast self-test of the benchmark harness.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
import pcfprod.cli as cli  # noqa: E402
from pcfprod import glasser, hyperbolic, quadrature, specfun  # noqa: E402


def _run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_tracer_wraps_every_binding_and_restores_it():
    orig = quadrature.integrate_semi_infinite
    eq13a = hyperbolic.erfc_identity_13a
    eq13a_cell = next(c for c in cli.IDENTITIES["EQ13A"]["run"].__closure__
                      if c.cell_contents is eq13a)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert glasser.integrate_semi_infinite is not orig
        assert quadrature.integrate_semi_infinite is glasser.integrate_semi_infinite
        assert eq13a_cell.cell_contents is not eq13a
        glasser.product_via_integral(glasser.ProductQuery(1.0, 2.0, 1.0), 1e-9)
        cli.IDENTITIES["EQ13A"]["run"]({"alpha": 1.0, "phi": 1.0}, 1e-8)
    finally:
        tr.uninstall()
    m = tr.metrics()
    assert m["glasser.product_via_integral.calls"] == 1
    assert m["quadrature.semi_infinite.calls"] == 1
    assert m["quadrature.semi_infinite.evaluations"] > 0
    assert m["quadrature.integrand_s"] > 0
    assert m["hyperbolic.erfc_identity_13a.calls"] == 1
    assert m["trace.absent_hooks"] == 0
    assert glasser.integrate_semi_infinite is orig
    assert specfun.integrate_semi_infinite is orig
    assert quadrature.integrate_semi_infinite is orig
    assert eq13a_cell.cell_contents is eq13a


def test_missing_hook_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "HOOKS", tracer.HOOKS + (
        ("glasser.gone", "pcfprod.glasser", "no_such_function", "call"),))
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == ["glasser.gone"]
    assert tr.metrics()["trace.absent_hooks"] == 1


def test_self_times_credit_integrand_to_caller_and_sum_to_wall():
    tr = tracer.Tracer()
    # bench.point [0, 10] > glasser.laplace_I [1, 9] > quadrature.semi_infinite
    # [2, 8] spending 4 in its integrand; hermsum pair nested in one layer
    spans = [("bench.point", 0, 10, -1), ("glasser.laplace_I", 1, 9, 0),
             ("quadrature.semi_infinite", 2, 8, 1),
             ("hermsum.bilinear_hermite_sum", 10, 20, -1),
             ("hermsum.scaled_hermite_products", 11, 19, 3)]
    for name, t0, t1, parent in spans:
        tr.names.append(name)
        tr.starts.append(t0)
        tr.ends.append(t1)
        tr.parents.append(parent)
        tr.points.append(0)
    tr.integrand[2] = 4.0
    assert tr.self_times()[:3] == [2.0, 6.0, 2.0]
    m = tr.metrics()
    assert m["quadrature.self_s"] == 2.0
    assert m["glasser.laplace_I.self_s"] == 6.0
    assert m["hermsum.self_s"] == 10.0
    assert m["hermsum.products_s"] == 8.0
    assert sum(m[f"{lay}.self_s"] for lay in tracer.LAYERS) == m["trace.wall_s"] == 20.0


def test_point_set_is_seeded_and_mixed_as_declared():
    a, b = wl.point_set("quad_points", 7, 3), wl.point_set("quad_points", 7, 3)
    assert a == b
    assert wl.point_set("quad_points", 8, 3) != a
    for block in a:
        assert sorted(p.kind for p in block) == sorted(k for k, n in wl.QUAD_BLOCK.items()
                                                       for _ in range(n))
    series = wl.point_set("series_points", 7, 1)[0]
    assert len(series) == sum(wl.SERIES_BLOCK.values())
    lo, hi = wl.SERIES_SEP
    for p in series:
        if p.kind == "SERIES_I":
            assert lo <= p.params["X"] - p.params["Y"] <= hi


def test_quad_set_stays_clear_of_the_known_defects():
    for block in wl.point_set("quad_points", 11, 24):
        for p in block:
            if p.kind == "EQ10":
                assert p.params["nu"] >= wl.NU_MIN and p.params["y"] <= 4.0
            elif p.kind in ("EQ11", "EQ12"):
                assert p.params["nu"] >= wl.NU_MIN


def test_scaled_unit_uses_the_loop_timings_around_it(monkeypatch):
    timings = iter([2.0, 4.0, 6.0])
    monkeypatch.setattr(run, "loop_seconds", lambda: next(timings))
    scaled = run.Scaled()
    assert scaled.run(lambda: "a") == (run.REF_LOOP_S / 3.0, "a")
    assert scaled.run(lambda: "b") == (run.REF_LOOP_S / 5.0, "b")  # shares the 4.0
    assert scaled.loops == [2.0, 4.0, 6.0]


def test_err_over_tol_follows_make_record():
    assert wl.err_over_tol(1.0 + 1e-9, 1.0, 1e-8, "relative") == pytest.approx(0.1, rel=1e-6)
    assert wl.err_over_tol(1e-290, 0.0, 1e-8, "relative") == pytest.approx(1e-282)
    assert wl.err_over_tol(3.0, 1.0, 1.0, "mixed") == pytest.approx(0.5)


def test_failures_are_counted_not_raised():
    out = wl.run_point(wl.Point("EQ10", {"nu": 0.01, "x": 2.0, "y": 1.0}, 1e-8), run.clock)
    assert out.failure == "OverflowError"
    out = wl.run_point(wl.Point("EQ10", {"nu": 1.0, "x": 2.0, "y": 1.0}, 1e-8, ref=1.5), run.clock)
    assert out.failure == "ReferenceMiss"


@pytest.mark.parametrize("workload", ["quad_points", "series_points"])
def test_frozen_points_pass(workload):
    res = {"attempted": 0, "failed": 0, "failures": run.Counter(),
           "err_over_tol_max": 0.0, "correct": True}
    run.check_frozen(workload, res)
    assert res["correct"], res["failures"]
    assert res["attempted"] == len(wl.load_refs(workload))
    assert 0.0 < res["err_over_tol_max"] <= 1.0


def test_verify_output_is_judged_per_record():
    text = ("identity_id,nu,x,y,lhs,rhs,abs_err,rel_err,passed\n"
            "EQ10,1.0,2.0,1.0,1.0,1.000000001,1e-09,1e-09,true\n"
            "EQ10,1.0,3.0,1.0,1.0,1.1,0.1,0.1,true\n"
            "# summary: pass=2 fail=0 skip=0\n")
    rows, summary = run.judge_verify_output(text)
    assert summary == "# summary: pass=2 fail=0 skip=0"
    assert [ok for _, _, ok in rows] == [True, False]
    assert rows[0][1] == pytest.approx(0.1, rel=1e-6)


def test_importtime_parser():
    err = ("import time: self [us] | cumulative | imported package\n"
           "import time:       529 |     687055 |       scipy.integrate\n"
           "import time:      5880 |     731283 | pcfprod.cli\n")
    assert run.parse_importtime(err) == {"scipy.integrate": 0.687055, "pcfprod.cli": 0.731283}


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_prints_every_metric(trace):
    proc = _run_bench("--workload", "quad_points", "--seed", "3", "--seconds", "0.3",
                      "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = run.END_TO_END if trace == "0" else run.per_layer_units()
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert result["correct"] and result["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "verify_all", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
