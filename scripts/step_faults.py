#!/usr/bin/env python3
"""Wall time and minor page faults per step of one ungated filter run.

Simulates the bundled default scenario's first seed, runs the ungated
filter over its log once to warm the process up, then runs it again and
prints that run's wall time and minor page faults (``ru_minflt`` of this
process), in total and per step.  The particle count and horizon override
the scenario's.  Fault counts depend on the host's allocator and kernel, so
the script reports them and asserts nothing.

    PYTHONPATH=src python scripts/step_faults.py --particles 1600 --horizon 600
"""
from __future__ import annotations

import argparse
import resource
import sys
import time

from gatedpf.harness import FilterVariant, compile_log, run_traffic_filter, simulate_seed
from gatedpf.rng import RandomSource
from gatedpf.scenario import default_scenario_dict, scenario_from_dict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--particles", type=int, default=1600)
    parser.add_argument("--horizon", type=int, default=600)
    args = parser.parse_args()

    doc = default_scenario_dict()
    doc["filter"]["particles"] = args.particles
    doc["run"]["horizon"] = args.horizon
    scenario = scenario_from_dict(doc, "<default scenario>")
    seed = scenario.seeds[0]
    config = scenario.experiment_config(seeds=[seed])
    log = compile_log(config, simulate_seed(config, seed)[1])
    variant = FilterVariant("none")

    run_traffic_filter(config, log, variant, RandomSource(seed))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    run_traffic_filter(config, log, variant, RandomSource(seed))
    wall = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

    steps = config.horizon - 1
    print(f"particles {config.particles}, links {config.network.n_links}, steps {steps}, seed {seed}")
    print(f"wall_s {wall:.4f}  ms_per_step {1e3 * wall / steps:.4f}")
    print(f"minor_faults {faults}  faults_per_step {faults / steps:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
