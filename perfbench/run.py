#!/usr/bin/env python3
"""Benchmark of the gatedpf package: one workload, one run.

    python3 perfbench/run.py --workload study --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nothing else.  Without ``--trace`` the run sets up
the workload several times (``setup_s`` is their median), then repeats the
workload's unit of work closed-loop for ``--seconds`` and prints the
end-to-end metrics.  Filtering-phase times are in reference seconds, scaled
by a calibration probe against the host's speed drift (see bench_metrics);
the raw wall-clock values are printed beside them.  With ``--trace 1`` it
alternates untraced units with traced iterations (set-up plus unit, with a
span around every public function of every module) for ``--seconds``, and
prints the per-layer metrics.

Every filter run is checked against ``reference.json``: confusion counts,
MAPE and digests of the decision logs, estimates and ``metrics_long.csv``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans, the machine
record and every metric, shown or not, go to ``.perfbench_runs/<workload>/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
OUT_DIR = Path(".perfbench_runs")
REFERENCE = HERE / "reference.json"


def import_package() -> None:
    """Import gatedpf from this checkout's ``src/``, or fail."""
    src = ROOT / "src"
    if not (src / "gatedpf" / "__init__.py").is_file():
        raise SystemExit(f"error: no gatedpf sources under {src}")
    sys.path.insert(0, str(src))
    import gatedpf

    if Path(gatedpf.__file__).resolve().parent != (src / "gatedpf").resolve():
        raise SystemExit(f"error: imported gatedpf from {gatedpf.__file__}, not {src}")


def prepare() -> None:
    """Pin thread pools to one thread, work from the checkout root, and
    import the package from its sources."""
    for name in THREAD_VARS:
        os.environ[name] = "1"
    os.chdir(ROOT)
    import_package()
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gatedpf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_record() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


class Checker:
    """Compares each unit's outputs with the recorded reference."""

    def __init__(self, workload, index: int, reference: dict | None, capture: bool = False) -> None:
        self.workload = workload
        self.expected = (reference or {}).get("workloads", {}).get(workload.name, {}).get(str(index))
        # Capture mode takes the first unit's outputs as the reference.
        self.capture = capture
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.metrics_long_identical: bool | None = None

    def fail(self, note: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(note)

    def unit_raised(self, exc: BaseException) -> None:
        self.attempted += self.workload.runs_per_unit
        self.failed += self.workload.runs_per_unit
        self.fail("unit raised: " + "".join(traceback.format_exception_only(type(exc), exc)).strip())

    def check(self, got: dict) -> None:
        self.attempted += self.workload.runs_per_unit
        if self.expected is None and self.capture:
            self.expected = got
        if self.expected is None:
            self.failed += self.workload.runs_per_unit
            self.fail("no reference recorded for this input")
            return
        for key, want in self.expected["runs"].items():
            have = got["runs"].get(key)
            if have != want:
                self.failed += 1
                self.fail(f"run {key}: expected {want}, got {have}")
        extra = set(got["runs"]) - set(self.expected["runs"])
        if extra:
            self.fail(f"unexpected runs {sorted(extra)}")
        want_unit = self.expected["unit"]
        if "metrics_long_sha256" in want_unit:
            same = got["unit"].get("metrics_long_sha256") == want_unit["metrics_long_sha256"]
            self.metrics_long_identical = same and self.metrics_long_identical is not False
        if got["unit"] != want_unit:
            self.fail(f"unit outputs: expected {want_unit}, got {got['unit']}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.notes


def timed_unit(workload, prepared, out: Path, now=perf_counter):
    """Run one unit of work; returns its time on the clock ``now`` and its
    handle, or the exception it raised."""
    shutil.rmtree(out, ignore_errors=True)
    start = now()
    try:
        handle = workload.run(prepared, out)
    except Exception as exc:  # a failed unit is counted, not fatal
        return now() - start, exc
    return now() - start, handle


def check_unit(workload, prepared, out: Path, outcome, checker: Checker) -> None:
    if isinstance(outcome, Exception):
        checker.unit_raised(outcome)
    else:
        checker.check(workload.record(prepared, out, outcome))
    shutil.rmtree(out, ignore_errors=True)


def run_unit(workload, prepared, out: Path, checker: Checker, now=perf_counter) -> float:
    elapsed, outcome = timed_unit(workload, prepared, out, now)
    check_unit(workload, prepared, out, outcome, checker)
    return elapsed


def keep_going(started: float, seconds: float, last: float, done: int) -> bool:
    """Start another unit only if it should end within half a unit of the
    time budget."""
    return done == 0 or perf_counter() - started + 0.5 * last < seconds


def untraced(workload, index: int, seconds: float, work: Path, checker: Checker):
    import bench_metrics
    from bench_trace import StepClock, patched
    from bench_workloads import setup

    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        prepared = setup(workload, index, work / "setup")
        setup_s.append(perf_counter() - start)
    clock = StepClock()
    unit_s: list[float] = []
    with patched(clock.replacements()):
        started = perf_counter()
        while keep_going(started, seconds, unit_s[-1] if unit_s else 0.0, len(unit_s)):
            unit_s.append(run_unit(workload, prepared, work / "unit", checker, clock.now))
    values, raw, samples = bench_metrics.end_to_end(setup_s, unit_s, clock)
    shown = [(m.name, values[m.name], m.unit, samples[m.name]) for m in bench_metrics.END_TO_END]
    shown += [
        (f"raw.{m.name}", raw[m.name], m.unit.replace("ref_", ""), samples[m.name])
        for m in bench_metrics.END_TO_END
        if raw[m.name] != values[m.name]
    ]
    shown.append(("probe.mean_us", 1e6 * clock.probe_mean_s(), "us", len(clock.probes)))
    series = {"setup_s": setup_s, "unit_s": unit_s, "filter_run_s": clock.filter_run_s()}
    return {m.name: values[m.name] for m in bench_metrics.END_TO_END}, shown, {"series": series}


def traced(workload, index: int, seconds: float, work: Path, checker: Checker, reference):
    import bench_metrics
    from bench_trace import SpanRecorder, patched
    from bench_workloads import setup

    prepared = setup(workload, index, work / "setup")
    recorder = SpanRecorder()
    replacements = recorder.replacements()
    untraced_s, iterations = [], []
    started = perf_counter()
    last = 0.0
    while keep_going(started, seconds, last, len(iterations)):
        begin = perf_counter()
        # An untraced unit next to each traced one, so that the tracing
        # overhead compares neighbours, not moments the host ran apart.
        untraced_s.append(run_unit(workload, prepared, work / "unit", checker))
        first, before = len(recorder.start), dict(recorder.counters)
        # Only set-up and the unit are traced; the output check is not.
        with patched(replacements):
            prepared = setup(workload, index, work / "setup")
            unit_s, outcome = timed_unit(workload, prepared, work / "unit")
        counters = {k: v - before.get(k, 0) for k, v in recorder.counters.items()}
        counters["trace.spans"] = len(recorder.start) - first
        log_bytes = sum(p.stat().st_size for p in prepared.log_paths.values())
        spans = bench_metrics.Spans(recorder.totals(first), counters, log_bytes)
        iterations.append((unit_s, {m.name: float(m.value(spans)) for m in bench_metrics.PER_LAYER}))
        check_unit(workload, prepared, work / "unit", outcome, checker)
        last = perf_counter() - begin

    exact = [m.name for m in bench_metrics.PER_LAYER if m.exact]
    counts = {name: iterations[0][1][name] for name in exact}
    for _, values in iterations[1:]:
        drift = {n: (counts[n], values[n]) for n in exact if values[n] != counts[n]}
        if drift:
            checker.fail(f"determinism: exact counts drifted between iterations: {drift}")
    recorded = (reference or {}).get("counts", {}).get(workload.name, {}).get(str(index))
    if recorded is not None and reference.get("src_sha256") == src_digest():
        drift = {n: (recorded.get(n), counts[n]) for n in exact if recorded.get(n) != counts[n]}
        if drift:
            checker.fail(f"determinism: exact counts differ from the recorded ones: {drift}")

    values = {
        m.name: statistics.median(v[m.name] for _, v in iterations) for m in bench_metrics.PER_LAYER
    }
    values["trace.overhead_s"] = statistics.median(u for u, _ in iterations) - statistics.median(
        untraced_s
    )
    units = {m.name: m.unit for m in bench_metrics.PER_LAYER}
    units["trace.overhead_s"] = "s"
    shown = [(name, value, units[name], len(iterations)) for name, value in values.items()]
    metrics = {m.name: values[m.name] for m in bench_metrics.REPORTED_PER_LAYER}
    return metrics, shown, {"spans": recorder, "counts": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare()
    import bench_metrics
    from bench_workloads import N_INPUTS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    index = args.seed % N_INPUTS
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else None
    work = OUT_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    record = {"workload": workload.name, "seed": args.seed, "input": index, "trace": args.trace}
    record["provenance"] = {
        "why": workload.why,
        "overrides": {**workload.overrides, "run.seeds": workload.seeds(index)},
        "dominant_layers": list(workload.dominant_layers),
    }
    record["machine"] = machine_record()
    record["loadavg_before"] = os.getloadavg()
    checker = Checker(workload, index, reference)
    if args.trace:
        metrics, shown, extra = traced(workload, index, args.seconds, work, checker, reference)
    else:
        metrics, shown, extra = untraced(workload, index, args.seconds, work, checker)
    record["loadavg_after"] = os.getloadavg()
    shutil.rmtree(work / "setup", ignore_errors=True)

    units = {m.name: m.unit for m in bench_metrics.END_TO_END + bench_metrics.REPORTED_PER_LAYER}
    record.update(
        attempted=checker.attempted,
        failed=checker.failed,
        failed_frac=checker.failed / max(checker.attempted, 1),
        metrics_long_identical=checker.metrics_long_identical,
        notes=checker.notes,
        metrics={name: {"value": value, "unit": unit, "samples": n} for name, value, unit, n in shown},
    )
    if "series" in extra:
        record["series"] = extra["series"]
    if "spans" in extra:
        extra["spans"].save(work / "spans.npz")
        record["exact_counts"] = extra["counts"]
    (work / f"result_trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# workload {workload.name}, seed {args.seed} (input {index}), trace {args.trace}")
    print("# provenance " + json.dumps(record["provenance"]))
    print("# machine " + json.dumps(record["machine"]))
    print(f"# loadavg before {record['loadavg_before']} after {record['loadavg_after']}")
    for name, value, unit, n in shown:
        print(f"# {name:<45} {value:>16.6f} {unit:<6} n={n}")
    print(f"# failed_frac {record['failed_frac']:.6f} ({checker.failed}/{checker.attempted} filter runs)")
    if checker.metrics_long_identical is not None:
        print(f"# metrics_long.csv byte-identical to reference: {checker.metrics_long_identical}")
    for note in checker.notes:
        print(f"# CHECK FAILED: {note}")
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
