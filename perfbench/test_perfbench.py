"""Self-test of the benchmark at smoke scale (a few seconds).

Checks that ``BENCHMARK.json`` names exactly the metrics and workloads the
code emits, that untraced and traced runs emit every metric with a unit,
that tracing leaves estimates and decisions bit-identical, and that every
patched function is restored afterwards.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_metrics  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

SMOKE = {
    "study": {"run.horizon": 25, "filter.particles": 20},
    "dense_probes": {"run.horizon": 40, "filter.particles": 20, "sensors.gnss.penetration": 0.10},
    "wide_ensemble": {"run.horizon": 40, "filter.particles": 60},
}


def smoke(name):
    return dataclasses.replace(WORKLOADS[name], overrides=SMOKE[name])


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in bench_metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in bench_metrics.REPORTED_PER_LAYER
    ]


def _originals():
    mods = bench_trace._modules()
    found = {
        (layer, name): fn
        for layer, module in mods.items()
        for name, fn in vars(module).items()
        if callable(fn)
    }
    for path in bench_trace.METHODS:
        layer, cls, attr = path.split(".")
        found[(path,)] = vars(getattr(mods[layer], cls))[attr]
    return found


@pytest.mark.parametrize("name", list(SMOKE))
def test_traced_run_matches_untraced_and_reports_every_layer(name, tmp_path):
    workload = smoke(name)
    before = _originals()
    # Capture mode: the untraced unit's outputs become the reference the
    # traced iteration must reproduce bit for bit.
    checker = run.Checker(workload, 0, None, capture=True)
    metrics, shown, extra = run.traced(workload, 0, 0.0, tmp_path, checker, None)
    assert checker.correct, checker.notes
    assert len(checker.expected["runs"]) == workload.runs_per_unit
    assert checker.attempted == 2 * workload.runs_per_unit
    assert _originals() == before
    assert set(metrics) == {m.name for m in bench_metrics.REPORTED_PER_LAYER}
    assert {n for n, *_ in shown} == {m.name for m in bench_metrics.PER_LAYER} | {"trace.overhead_s"}
    assert all(unit for _, _, unit, _ in shown)
    assert extra["counts"]["trace.spans"] > 0
    assert extra["counts"]["particles.ensemble_build.calls"] > 0
    if name == "wide_ensemble":
        assert extra["counts"]["gates.np_gate.calls"] == 0


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    workload = smoke("dense_probes")
    checker = run.Checker(workload, 0, None, capture=True)
    metrics, shown, _ = run.untraced(workload, 0, 0.0, tmp_path, checker)
    assert checker.correct, checker.notes
    assert list(metrics) == [m.name for m in bench_metrics.END_TO_END]
    assert all(value > 0 for value in metrics.values())
    assert all(unit for _, _, unit, _ in shown)


def test_self_time_subtracts_children():
    rec = bench_trace.SpanRecorder()
    inner = rec.wrap("inner", lambda: sum(range(20000)))
    outer = rec.wrap("outer", lambda: inner() + inner())
    outer()
    totals = rec.totals()
    calls, total, own = totals["outer"]
    assert calls == 1 and totals["inner"][0] == 2
    assert own == pytest.approx(total - totals["inner"][1])
    assert list(rec.parent) == [-1, 0, 0]
