"""The benchmark's workloads: inputs from a seed, set-up, one unit of work,
and the output record the reference check compares.

Every workload runs in one process as a closed loop with one client: a unit
of work starts only when the previous one has finished.  The program only ever receives what
the benchmark generated for it: a scenario YAML file, and the measurement
logs that ``gatedpf simulate`` wrote from it.

``--seed n`` selects input set ``n % N_INPUTS``.  Each input set fixes the
scenario seeds of a workload, and ``reference.json`` holds the outputs the
unmodified program produced on every input set, so every run is checked
exactly whatever seed it is given.

Horizons are shorter than the shipped 1,800 steps so that several units fit
in one timed run; the study keeps P=400 and every variant x level run of two
seeds, which is the part seed-level parallelism would speed up.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import yaml

from gatedpf import cli, fileio, harness, scenario, sensing
from gatedpf.rng import RandomSource

N_INPUTS = 16
DENSE_VARIANTS = ("fisher", "np_correct", "np_incorrect")
DENSE_ALPHA = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict  # dotted scenario path -> value; run.seeds filled per input
    dominant_layers: tuple[str, ...]
    seeds: Callable[[int], list[int]]  # input index -> scenario seeds
    runs_per_unit: int
    run: Callable  # (Prepared, Path) -> handle; the timed unit of work
    record: Callable  # (Prepared, Path, handle) -> outputs for the check

    def scenario_doc(self, index: int) -> dict:
        doc = scenario.default_scenario_dict()
        for path, value in {**self.overrides, "run.seeds": self.seeds(index)}.items():
            *parents, leaf = path.split(".")
            node = doc
            for key in parents:
                node = node[key]
            node[leaf] = value
        return doc


@dataclass
class Prepared:
    """Products of one set-up: the scenario file and, per scenario seed,
    the simulated truth and the measurement log read back from disk."""

    scenario_path: Path
    scenario: scenario.Scenario
    seeds: list[int]
    log_paths: dict[int, Path] = field(default_factory=dict)
    truth_paths: dict[int, Path] = field(default_factory=dict)
    measurements: dict[int, list] = field(default_factory=dict)


def setup(workload: Workload, index: int, out: Path) -> Prepared:
    """Write the scenario, simulate each seed through ``gatedpf simulate``
    and read the log back: the set-up a user pays before filtering."""
    out.mkdir(parents=True, exist_ok=True)
    path = out / "scenario.yaml"
    path.write_text(yaml.safe_dump(workload.scenario_doc(index), sort_keys=False))
    prepared = Prepared(path, scenario.load_scenario(path), workload.seeds(index))
    for seed in prepared.seeds:
        sim_dir = out / f"sim_{seed}"
        code = cli.main(
            ["simulate", "--scenario", str(path), "--seed", str(seed), "--out", str(sim_dir), "--quiet"]
        )
        if code != 0:
            raise RuntimeError(f"gatedpf simulate exited {code} for seed {seed}")
        prepared.log_paths[seed] = sim_dir / "measurements.csv"
        prepared.truth_paths[seed] = sim_dir / "true_density.csv"
        prepared.measurements[seed] = sensing.read_measurement_log(prepared.log_paths[seed])
    return prepared


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _scored(decisions, estimates, truth_path: Path, prepared: Prepared) -> dict:
    horizon = prepared.scenario.horizon
    true = fileio.read_matrix_csv(truth_path).T[1:horizon]
    counts = harness.confusion_metrics(decisions)
    error = harness.mape(
        harness.TrajectoryPair(true, estimates), floor=prepared.scenario.mape_floor
    )
    return {
        "tp": counts.tp,
        "fp": counts.fp,
        "tn": counts.tn,
        "fn": counts.fn,
        "mape_pct": repr(error),
        "collapsed": 0,
    }


# ------------------------------------------------------------------ units
# ``run_*`` is the timed unit of work.  ``record_*`` reads its outputs back,
# untimed, as ``{"runs": {run key: record}, "unit": {...}}``; a run with no
# record raised or exited non-zero.


def run_study(prepared: Prepared, out: Path) -> int:
    return cli.main(
        ["sweep", "--scenario", str(prepared.scenario_path), "--out", str(out), "--quiet"]
    )


def record_study(prepared: Prepared, out: Path, code: int) -> dict:
    if code != 0:
        return {"runs": {}, "unit": {"exit_code": code}}
    report = harness.read_metrics_long(out / "metrics_long.csv")
    runs = {}
    for r in report.runs:
        variant = harness.FilterVariant(r.mode, r.alpha)
        tag = variant.label.replace("@", "_a")
        run_dir = out / f"seed_{r.seed}"
        runs[f"{r.seed}:{variant.label}"] = {
            "tp": r.tp,
            "fp": r.fp,
            "tn": r.tn,
            "fn": r.fn,
            "mape_pct": repr(r.mape_pct),
            "collapsed": int(r.collapsed),
            "decisions_sha256": _sha(run_dir / f"decisions_{tag}.csv"),
            "estimates_sha256": _sha(run_dir / f"estimated_density_{tag}.csv"),
        }
    unit = {"exit_code": code, "metrics_long_sha256": _sha(out / "metrics_long.csv")}
    for seed in prepared.seeds:
        # The sweep's own log must equal the one `gatedpf simulate` wrote.
        unit[f"log_matches_simulate:{seed}"] = _sha(
            out / f"seed_{seed}" / "measurements.csv"
        ) == _sha(prepared.log_paths[seed])
    return {"runs": runs, "unit": unit}


def run_dense(prepared: Prepared, out: Path) -> dict:
    (seed,) = prepared.seeds
    return {
        mode: cli.main(
            [
                "filter", "--scenario", str(prepared.scenario_path),
                "--log", str(prepared.log_paths[seed]), "--seed", str(seed),
                "--variant", mode, "--alpha", repr(DENSE_ALPHA),
                "--out", str(out / mode), "--quiet",
            ]
        )
        for mode in DENSE_VARIANTS
    }


def record_dense(prepared: Prepared, out: Path, codes: dict) -> dict:
    (seed,) = prepared.seeds
    runs = {}
    for mode, code in codes.items():
        if code != 0:
            continue
        run_dir = out / mode
        decisions = harness.read_decision_log(run_dir / "decisions.csv")
        estimates = fileio.read_matrix_csv(run_dir / "estimated_density.csv").T
        record = _scored(decisions, estimates, prepared.truth_paths[seed], prepared)
        record["decisions_sha256"] = _sha(run_dir / "decisions.csv")
        record["estimates_sha256"] = _sha(run_dir / "estimated_density.csv")
        runs[f"{seed}:{mode}@{DENSE_ALPHA:g}"] = record
    return {"runs": runs, "unit": {"exit_codes": codes}}


def run_wide(prepared: Prepared, out: Path):
    (seed,) = prepared.seeds
    config = prepared.scenario.experiment_config(seeds=[seed])
    return harness.run_traffic_filter(
        config, prepared.measurements[seed], harness.FilterVariant("none"), RandomSource(seed)
    )


def record_wide(prepared: Prepared, out: Path, result) -> dict:
    (seed,) = prepared.seeds
    record = _scored(result.decisions, result.estimates, prepared.truth_paths[seed], prepared)
    record["decisions_sha256"] = hashlib.sha256(
        "\n".join(repr(d) for d in result.decisions).encode()
    ).hexdigest()
    record["estimates_sha256"] = hashlib.sha256(result.estimates.tobytes()).hexdigest()
    return {"runs": {f"{seed}:none": record}, "unit": {}}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="study",
            why=(
                "What users run: gatedpf sweep with artifacts, all 10 variant x level runs "
                "on each of 2 seeds; the only workload where seed parallelism can show. "
                "Traced runs are single-process."
            ),
            overrides={"run.horizon": 300},
            dominant_layers=("ctm", "particles.predict", "gates.gated_update", "sensing.build_sensor_models"),
            seeds=lambda i: [201 + 2 * i, 202 + 2 * i],
            runs_per_unit=20,
            run=run_study,
            record=record_study,
        ),
        Workload(
            name="dense_probes",
            why=(
                "About 26 probe reports per step at P=100: gating, sensor-model build and "
                "the weight update dominate and the CTM is small. The only workload whose "
                "filter runs read the measurement log."
            ),
            overrides={
                "filter.particles": 100,
                "sensors.gnss.penetration": 0.10,
                "run.horizon": 600,
            },
            dominant_layers=("gates", "sensing.build_sensor_models", "particles.weight_update"),
            seeds=lambda i: [101 + i],
            runs_per_unit=len(DENSE_VARIANTS),
            run=run_dense,
            record=record_dense,
        ),
        Workload(
            name="wide_ensemble",
            why=(
                "Ungated filter at P=1600: the CTM and speed map dominate and the gates "
                "never run, so a gating change should not move it. Its (P, L) blocks "
                "outgrow a 2 MiB L2 cache."
            ),
            overrides={"filter.particles": 1600, "run.horizon": 600},
            dominant_layers=("ctm.junction_flows", "ctm.speed_map", "particles.predict"),
            seeds=lambda i: [301 + i],
            runs_per_unit=1,
            run=run_wide,
            record=record_wide,
        ),
    )
}
