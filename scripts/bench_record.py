#!/usr/bin/env python3
"""Record the benchmark of a checkout into one ``BENCH_<n>.json`` file.

Runs ``perfbench/run.py --workload W --seed i --seconds 8 --trace 0`` of
the checkout at ``--root`` as a subprocess five times per workload, for
every workload, alternating the workloads (run i of every workload uses
seed i, from 1).  These settings are fixed, so that every BENCH file is
recorded alike.  Each run's last standard-output line gives its
``correct``, ``attempted`` and ``failed`` counts, and its
``.perfbench_runs/<W>/result_trace0.json`` the machine record and every
end-to-end metric, raw and host-scaled.  Around each subprocess the script
reads the minor page faults of its finished children (``RUSAGE_CHILDREN``)
and records them per timed filter step, imports and set-up included.

The file holds the checkout's commit, whether its tracked files differ
from it, the digest of its package sources (as the benchmark's traced runs
compute it), the machine record, and per workload and metric the median,
the interquartile range, the sample count and every run's value, plus each
run's seed, ``correct`` and ``failed``.  With ``--compare`` it then prints
each metric's change against an earlier file, and warns when the two
machine records differ.

With ``--pair PARENT_ROOT`` it benchmarks the parent checkout at
PARENT_ROOT beside ``--root``: ten pairs per workload, pair i on seed i
(from 1), the two runs of a pair in alternating order.  The file holds the
change's series as above and the parent's under ``"parent"``.  Per
workload and end-to-end metric of ``BENCHMARK.json`` it prints both
medians, the parent's IQR as a % of its median, the change in %, the pairs
the change won and one verdict against the metric's bound: ``better``
(won at least 9 of 10 pairs, and the medians differ by more than the
parent's IQR), ``unresolved`` (the parent's IQR exceeds the bound),
``worse`` (the median moved the wrong way by more than the bound) or
``within bound``.  A metric on the reference scale is a raw time divided
by the calibration probe's mean time, so a change that moves the probe
(whose page faults depend on the program's heap) moves every such metric
without changing its work.  So each workload's lines start with both
trees' median ``probe.mean_us``; when they differ by more than the
parent's probe IQR, every metric with a ``raw.*`` twin (``run_s``,
``filter_run_s.p50``, ``steps_per_s``, ``step_ms.*``) is reported
``unresolved (calibration moved)`` with its raw medians beside it, and
``setup_s`` and ``peak_rss_mb`` keep their verdicts.  Last, per workload,
each tree's smallest set-up (``series.setup_s`` of every run) and the
median of every filter run it timed (``series.filter_run_s`` of every
run, pooled).  That median is in seconds of the benchmark's probe-free
clock, which stops while the calibration probe runs, not on the
reference scale of ``filter_run_s.p50``.

    python scripts/bench_record.py --out BENCH_24.json
    python scripts/bench_record.py --out BENCH_25.json --compare BENCH_24.json
    python scripts/bench_record.py --out BENCH_27.json --pair ../parent
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("study", "dense_probes", "wide_ensemble")
RUNS = 5  # per workload
PAIRS = 10  # per workload, with --pair
FIRST_SEED = 1
SECONDS = 8.0
# The metric whose sample count is the number of timed filter steps.
STEPS_METRIC = "steps_per_s"
FAULTS_METRIC = "faults_per_step"
# The calibration probe's mean time, which divides every reference-scaled
# metric; each of those has its unscaled twin under "raw.".
PROBE_METRIC = "probe.mean_us"


def run_benchmark(root: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run of the checkout at ``root``: its seed,
    last output line, result file and minor faults per timed step."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((root / ".perfbench_runs" / workload / "result_trace0.json").read_text())
    return {"workload": workload, "seed": seed, "result": result, "record": record, "faults": faults}


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        iqr = 0.0
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        iqr = q3 - q1
    return {"median": statistics.median(values), "iqr": iqr, "n": len(values), "values": values}


def bench_document(runs: list[dict], commit: str, dirty: bool, src_sha256: str = "") -> dict:
    """The BENCH file of ``runs`` (as :func:`run_benchmark` returns them),
    workloads and metrics in first-seen order."""
    workloads: dict[str, dict] = {}
    for run in runs:
        entry = workloads.setdefault(
            run["workload"], {"runs": [], "units": {}, "values": {}, "setups": [], "filter_runs": []}
        )
        result, record = run["result"], run["record"]
        entry["setups"] += record["series"]["setup_s"]
        entry["filter_runs"] += record["series"]["filter_run_s"]
        entry["runs"].append(
            {"seed": run["seed"], "correct": result["correct"], "failed": result["failed"],
             "attempted": result["attempted"]}
        )
        metrics = {name: (m["value"], m["unit"]) for name, m in record["metrics"].items()}
        steps = record["metrics"][STEPS_METRIC]["samples"]
        metrics[FAULTS_METRIC] = (run["faults"] / steps if steps else float("nan"), "faults")
        for name, (value, unit) in metrics.items():
            entry["units"][name] = unit
            entry["values"].setdefault(name, []).append(value)
    return {
        "commit": commit,
        "dirty": dirty,
        "src_sha256": src_sha256,
        "machine": runs[0]["record"]["machine"] if runs else {},
        "machines_agree": all(run["record"]["machine"] == runs[0]["record"]["machine"] for run in runs),
        "workloads": {
            name: {
                "runs": entry["runs"],
                "setup_s_min": min(entry["setups"]),
                "filter_run_s_pooled_median": statistics.median(entry["filter_runs"]),
                "metrics": {
                    metric: {"unit": entry["units"][metric], **_spread(values)}
                    for metric, values in entry["values"].items()
                },
            }
            for name, entry in workloads.items()
        },
    }


def compare(old: dict, new: dict) -> list[str]:
    """Lines giving each metric's median change from ``old`` to ``new``,
    the first a warning when their machine records differ."""
    lines = []
    if old["machine"] != new["machine"]:
        differ = sorted(k for k in old["machine"].keys() | new["machine"].keys()
                        if old["machine"].get(k) != new["machine"].get(k))
        lines.append(f"warning: machine records differ in {', '.join(differ)}")
    for workload, entry in new["workloads"].items():
        before = old["workloads"].get(workload, {}).get("metrics", {})
        for metric, now in entry["metrics"].items():
            if metric not in before:
                continue
            was = before[metric]
            change = (now["median"] / was["median"] - 1.0) * 100.0 if was["median"] else float("nan")
            spread = was["iqr"] / was["median"] * 100.0 if was["median"] else float("nan")
            lines.append(
                f"{workload:<14} {metric:<22} {was['median']:>14.6g} -> {now['median']:<14.6g} "
                f"{change:+7.2f}%  (earlier IQR {spread:.2f}%, n {was['n']} -> {now['n']}) {now['unit']}"
            )
    return lines


def pair_runs(parent: Path, change: Path) -> tuple[list[dict], list[dict]]:
    """``PAIRS`` runs per workload of each checkout, as :func:`run_benchmark`
    returns them: pair i on seed ``FIRST_SEED + i``, the parent first in the
    even pairs and the change first in the odd ones."""
    parent_runs, change_runs = [], []
    for i in range(PAIRS):
        for workload in WORKLOADS:
            order = [(parent, parent_runs), (change, change_runs)]
            for root, runs in order if i % 2 == 0 else order[::-1]:
                runs.append(run_benchmark(root, workload, FIRST_SEED + i))
                print(f"{root} {workload} seed {FIRST_SEED + i}: {json.dumps(runs[-1]['result'])[:100]}",
                      file=sys.stderr)
    return parent_runs, change_runs


def verdict(was: dict, now: dict, better: str, bound: float) -> tuple[str, float, float, int]:
    """The verdict on one metric's paired series ``was`` (parent) and
    ``now`` (change), as :func:`bench_document` holds them, with the
    parent's IQR and the change as fractions of the parent's median and the
    pairs the change won."""
    sign = 1.0 if better == "lower" else -1.0
    spread = was["iqr"] / abs(was["median"]) if was["median"] else float("inf")
    change = now["median"] / was["median"] - 1.0 if was["median"] else float("nan")
    wins = sum(sign * (n - w) < 0 for w, n in zip(was["values"], now["values"]))
    if wins >= 0.9 * len(was["values"]) and sign * (was["median"] - now["median"]) > was["iqr"]:
        return "better", spread, change, wins
    if spread > bound:
        return "unresolved", spread, change, wins
    if sign * change > bound:
        return "worse", spread, change, wins
    return "within bound", spread, change, wins


def paired_lines(parent: dict, change: dict, end_to_end: list[dict]) -> list[str]:
    """Per workload, both trees' median probe time and whether the
    calibration moved, a line for each end-to-end metric of
    ``BENCHMARK.json`` (``end_to_end``) with its verdict, then each tree's
    smallest set-up and pooled filter-run median."""
    lines = []
    for workload, entry in change["workloads"].items():
        before = parent["workloads"][workload]
        probe_was, probe_now = before["metrics"][PROBE_METRIC], entry["metrics"][PROBE_METRIC]
        calibration_moved = abs(probe_now["median"] - probe_was["median"]) > probe_was["iqr"]
        lines.append(
            f"{workload:<14} {PROBE_METRIC:<17} {probe_was['median']:>11.5g} -> {probe_now['median']:<11.5g} "
            f"(parent IQR {probe_was['iqr']:.5g}) us  calibration {'moved' if calibration_moved else 'held'}"
        )
        for metric in end_to_end:
            was, now = before["metrics"][metric["name"]], entry["metrics"][metric["name"]]
            word, spread, moved, wins = verdict(was, now, metric["better"], metric["bound"])
            raw = f"raw.{metric['name']}"
            beside = ""
            if calibration_moved and raw in entry["metrics"]:
                raw_was, raw_now = before["metrics"][raw]["median"], entry["metrics"][raw]["median"]
                word = "unresolved (calibration moved)"
                beside = (
                    f"  raw {raw_was:.5g} -> {raw_now:.5g} {entry['metrics'][raw]['unit']} "
                    f"{(raw_now / raw_was - 1.0) * 100:+.1f}%"
                )
            lines.append(
                f"{workload:<14} {metric['name']:<17} {was['median']:>11.5g} -> {now['median']:<11.5g} "
                f"(parent IQR {spread * 100:.1f}%) {moved * 100:+6.1f}%  won {wins}/{len(was['values'])}  "
                f"{word} (bound {metric['bound'] * 100:g}%){beside}"
            )
        lines.append(
            f"{workload:<14} setup_s minimum   {before['setup_s_min']:>11.5g} -> {entry['setup_s_min']:<11.5g} s"
        )
        was, now = before["filter_run_s_pooled_median"], entry["filter_run_s_pooled_median"]
        lines.append(
            f"{workload:<14} filter_run_s pooled median {was:>11.5g} -> {now:<11.5g} s "
            f"{(now / was - 1.0) * 100:+6.1f}% (probe-free clock, not ref_s)"
        )
    return lines


def source_digest(root: Path) -> str:
    """The digest of the checkout's package sources, from its own
    ``perfbench/run.py`` (as a traced run records it)."""
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.src_digest()


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True).stdout


def checkout_document(root: Path, runs: list[dict]) -> dict:
    """The BENCH document of ``runs`` of the checkout at ``root``."""
    commit = _git(root, "rev-parse", "HEAD").strip()
    dirty = bool(_git(root, "status", "--porcelain", "--untracked-files=no").strip())
    return bench_document(runs, commit, dirty, source_digest(root))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="BENCH file to write")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to benchmark")
    parser.add_argument("--compare", type=Path, help="earlier BENCH file to compare with")
    parser.add_argument("--pair", type=Path, metavar="PARENT_ROOT", help="parent checkout to pair runs with")
    args = parser.parse_args(argv)
    if args.pair is None:
        runs = []
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            for workload in WORKLOADS:
                runs.append(run_benchmark(args.root, workload, seed))
                print(f"{workload} seed {seed}: {json.dumps(runs[-1]['result'])[:120]}", file=sys.stderr)
    else:
        parent_runs, runs = pair_runs(args.pair, args.root)
    new = checkout_document(args.root, runs)
    if args.pair is not None:
        new["parent"] = checkout_document(args.pair, parent_runs)
    args.out.write_text(json.dumps(new, indent=2) + "\n")
    if args.compare is not None:
        print("\n".join(compare(json.loads(args.compare.read_text()), new)))
    if args.pair is not None:
        end_to_end = json.loads((args.root / "BENCHMARK.json").read_text())["end_to_end"]
        print("\n".join(paired_lines(new["parent"], new, end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
