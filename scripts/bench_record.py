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

    python scripts/bench_record.py --out BENCH_24.json
    python scripts/bench_record.py --out BENCH_25.json --compare BENCH_24.json
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
FIRST_SEED = 1
SECONDS = 8.0
# The metric whose sample count is the number of timed filter steps.
STEPS_METRIC = "steps_per_s"
FAULTS_METRIC = "faults_per_step"


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
        entry = workloads.setdefault(run["workload"], {"runs": [], "units": {}, "values": {}})
        result, record = run["result"], run["record"]
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


def source_digest(root: Path) -> str:
    """The digest of the checkout's package sources, from its own
    ``perfbench/run.py`` (as a traced run records it)."""
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.src_digest()


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="BENCH file to write")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to benchmark")
    parser.add_argument("--compare", type=Path, help="earlier BENCH file to compare with")
    args = parser.parse_args(argv)
    runs = []
    for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
        for workload in WORKLOADS:
            runs.append(run_benchmark(args.root, workload, seed))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1]['result'])[:120]}", file=sys.stderr)
    commit = _git(args.root, "rev-parse", "HEAD").strip()
    dirty = bool(_git(args.root, "status", "--porcelain", "--untracked-files=no").strip())
    new = bench_document(runs, commit, dirty, source_digest(args.root))
    args.out.write_text(json.dumps(new, indent=2) + "\n")
    if args.compare is not None:
        print("\n".join(compare(json.loads(args.compare.read_text()), new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
