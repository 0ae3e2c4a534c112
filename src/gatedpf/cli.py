"""Command-line front end: simulate, filter, sweep, and report.

Exit codes: 0 on success, 2 for configuration or data errors, 3 when the
filter's weights collapse (a meaningful experimental outcome, distinct
from misconfiguration).  Every command writes its manifest before any
result file, and all result files are written atomically.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigurationError, DataError, WeightCollapseError
from .fileio import atomic_write_text, write_matrix_csv
from .harness import (
    METRIC_FIELDS,
    FilterVariant,
    compile_log,
    metrics_long_text,
    metrics_wide_text,
    read_metrics_long,
    run_experiment,
    run_traffic_filter,
    simulate_seed,
    write_decision_log,
)
from .rng import RandomSource
from .scenario import load_scenario, write_manifest
from .sensing import HYPOTHESIS_MODES, read_measurement_log, write_measurement_log


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else scenario.seeds[0]
    config = scenario.experiment_config(seeds=[seed])
    out = Path(args.out)
    artifacts = {
        "true_density": "true_density.csv",
        "true_speeds": "true_speeds.csv",
        "measurements": "measurements.csv",
    }
    write_manifest(out, "simulate", scenario, [seed], artifacts)
    _say(args, f"simulating {scenario.horizon} steps with seed {seed}")
    truth, log = simulate_seed(config, seed)
    write_matrix_csv(out / artifacts["true_density"], truth.states.T)
    write_matrix_csv(out / artifacts["true_speeds"], truth.speeds.T)
    write_measurement_log(out / artifacts["measurements"], log)
    _say(args, f"wrote {len(log)} measurements to {out}")
    return 0


def cmd_filter(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else scenario.seeds[0]
    config = scenario.experiment_config(seeds=[seed])
    alpha = args.alpha if args.alpha is not None else scenario.alphas[0]
    variant = FilterVariant(
        mode=args.variant, alpha=None if args.variant == "none" else float(alpha)
    )
    log = compile_log(config, read_measurement_log(args.log))
    out = Path(args.out)
    artifacts = {
        "estimated_density": "estimated_density.csv",
        "decisions": "decisions.csv",
    }
    write_manifest(
        out,
        "filter",
        scenario,
        [seed],
        artifacts,
        extra={"variant": variant.mode, "alpha": variant.alpha, "log": str(args.log)},
    )
    _say(args, f"running {variant.label} filter with seed {seed}")
    result = run_traffic_filter(config, log, variant, RandomSource(seed))
    write_matrix_csv(out / artifacts["estimated_density"], result.estimates.T)
    write_decision_log(out / artifacts["decisions"], result.decisions)
    rejected = int(result.decisions["rejected"].sum())
    _say(
        args,
        f"assimilated {scenario.horizon - 1} steps, "
        f"{rejected}/{len(result.decisions)} measurements rejected",
    )
    return 0


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    seeds = [args.seed] if args.seed is not None else list(scenario.seeds)
    config = scenario.experiment_config(seeds=seeds)
    out = Path(args.out)
    artifacts = {
        "metrics": "metrics.csv",
        "metrics_long": "metrics_long.csv",
    }
    write_manifest(out, "sweep", scenario, seeds, artifacts)
    _say(
        args,
        f"sweep: {len({v.mode for v in scenario.variants})} variants "
        f"x {len(scenario.alphas)} levels "
        f"x {len(seeds)} seeds",
    )

    sink = None
    if not args.no_artifacts:
        written_truth: set[int] = set()

        def sink(seed, truth, log, variant, result) -> None:
            run_dir = out / f"seed_{seed}"
            if seed not in written_truth:
                write_matrix_csv(run_dir / "true_density.csv", truth.states.T)
                write_measurement_log(run_dir / "measurements.csv", log)
                written_truth.add(seed)
            tag = variant.label.replace("@", "_a")
            write_matrix_csv(run_dir / f"estimated_density_{tag}.csv", result.estimates.T)
            write_decision_log(run_dir / f"decisions_{tag}.csv", result.decisions)

    report = run_experiment(config, on_run=sink)
    atomic_write_text(out / artifacts["metrics"], metrics_wide_text(report, scenario.alphas))
    atomic_write_text(out / artifacts["metrics_long"], metrics_long_text(report))
    _say(args, f"wrote metrics table to {out / artifacts['metrics']}")
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    manifest_path = run_dir / "manifest.json"
    missing = [
        str(p)
        for p in (manifest_path, run_dir / "metrics.csv", run_dir / "metrics_long.csv")
        if not p.exists()
    ]
    if missing:
        raise DataError("missing run artifacts: " + ", ".join(missing))
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        raise DataError(f"{manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"{manifest_path}: expected a JSON object")
    report = read_metrics_long(run_dir / "metrics_long.csv")

    print(f"run {str(manifest.get('config_hash', '?'))[:12]} ({manifest.get('command')})")
    print(f"seeds: {manifest.get('seeds')}")
    aggregate = report.aggregate()
    modes: list[str] = []
    for mode, _alpha in report.variant_keys():
        if mode not in modes:
            modes.append(mode)
    for mode in modes:
        alphas = [a for m, a in report.variant_keys() if m == mode]
        print(f"\n== {mode} ==")
        header = f"{'metric':<22}" + "".join(
            f"{('alpha=%g' % a) if a is not None else 'value':>20}" for a in alphas
        )
        print(header)
        for attr, _, label in METRIC_FIELDS:
            cells = []
            for alpha in alphas:
                mean, std = aggregate[(mode, alpha)][attr]
                cells.append(f"{mean:.2f} ± {std:.2f}")
            print(f"{label:<22}" + "".join(f"{c:>20}" for c in cells))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatedpf",
        description="Fault-gated particle filtering on a synthetic freeway",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True, help="scenario YAML path")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed(s)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p_sim = sub.add_parser("simulate", help="simulate ground truth and measurements")
    common(p_sim)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_fil = sub.add_parser("filter", help="run one gated filter over a measurement log")
    common(p_fil)
    p_fil.add_argument("--log", required=True, help="measurement log CSV")
    p_fil.add_argument(
        "--variant",
        required=True,
        choices=HYPOTHESIS_MODES,
    )
    p_fil.add_argument("--alpha", type=float, default=None, help="significance level")
    p_fil.add_argument("--out", required=True, help="output directory")
    p_fil.set_defaults(func=cmd_filter)

    p_swp = sub.add_parser("sweep", help="full variant x level x seed study")
    common(p_swp)
    p_swp.add_argument("--out", required=True, help="output directory")
    p_swp.add_argument(
        "--no-artifacts",
        action="store_true",
        help="write only the metrics tables, not per-run trajectories",
    )
    p_swp.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("report", help="print a summary of a finished run")
    p_rep.add_argument("--run", required=True, help="run directory with manifest and metrics")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WeightCollapseError as exc:
        print(f"weight collapse: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
