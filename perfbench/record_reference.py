#!/usr/bin/env python3
"""Record ``reference.json``: the outputs and exact counts of every input set
of every workload, from the program as it stands.

    python3 perfbench/record_reference.py

Record only from a commit whose outputs are trusted; every later benchmark
run is checked against this file.  For each input set the script runs one
untraced unit, takes its outputs as the reference, then runs one traced
iteration and requires the same outputs from it, so a recorded reference is
also a proof that tracing does not change results.
"""
from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.prepare()
    from bench_workloads import N_INPUTS, WORKLOADS

    reference = {"src_sha256": run.src_digest()}
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        # The same directory a benchmark run uses: manifests record paths,
        # so the written byte counts depend on it.
        work = run.OUT_DIR / name
        outputs, counts = {}, {}
        for index in range(N_INPUTS):
            shutil.rmtree(work, ignore_errors=True)
            checker = run.Checker(workload, index, None, capture=True)
            _, _, extra = run.traced(workload, index, 0.0, work, checker, None)
            if not checker.correct:
                print(f"{name} input {index}: {checker.notes}", file=sys.stderr)
                return 1
            outputs[str(index)] = checker.expected
            counts[str(index)] = extra["counts"]
            print(f"{name} input {index}: {len(checker.expected['runs'])} runs", flush=True)
        reference.setdefault("workloads", {})[name] = outputs
        reference.setdefault("counts", {})[name] = counts
        run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
