"""Command-line front end: simulate, filter, sweep, and report.

Exit codes: 0 on success, 2 for configuration or data errors and for
writes that fail, 3 when the filter's weights collapse (a meaningful
experimental outcome, distinct from misconfiguration).  Every command
writes its manifest before any result file, and all result files are
written atomically.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ConfigurationError, DataError, WeightCollapseError
from .fileio import atomic_write_text, write_matrix_csv
from .gates import MODES
from .harness import (
    METRIC_FIELDS,
    FilterVariant,
    MetricsReport,
    RunMetrics,
    compile_log,
    decision_columns,
    metrics_wide_text,
    read_metrics_long,
    run_seed,
    run_traffic_filter,
    simulate_seed,
    write_decision_log,
    write_metrics_long,
)
from .rng import RandomSource
from .scenario import load_scenario, write_manifest
from .sensing import read_measurement_log, write_measurement_log


def _say(args, message: str) -> None:
    if not args.quiet:
        _tell(message)


def _tell(line: str) -> None:
    """Print ``line`` to stderr.  A progress or error line is no result: if
    stderr cannot take it, the line is dropped and stderr is pointed at the
    null device, since Python flushes it again at exit, and the command's
    exit code stands."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _to_null_device(sys.stderr)


def _to_null_device(stream) -> None:
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, stream.fileno())
    finally:
        os.close(null)


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
    # The log goes first: a log its reader would refuse is refused before
    # any result file is written, so the run leaves only its manifest.
    write_measurement_log(out / artifacts["measurements"], log)
    write_matrix_csv(out / artifacts["true_density"], truth.states.T)
    write_matrix_csv(out / artifacts["true_speeds"], truth.speeds.T)
    _say(args, f"wrote {len(log)} measurements to {out}")
    return 0


def cmd_filter(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else scenario.seeds[0]
    config = scenario.experiment_config(seeds=[seed])
    # A gated mode given no level takes the scenario's first; a given level
    # is passed on, so the ungated mode refuses one.
    alpha = args.alpha
    if alpha is None and MODES[args.variant] is not None:
        alpha = scenario.alphas[0]
    variant = FilterVariant(args.variant, alpha)
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
    write_decision_log(out / artifacts["decisions"], decision_columns(log, variant, result.decisions))
    rejected = int(result.decisions["rejected"].sum())
    _say(
        args,
        f"assimilated {scenario.horizon - 1} steps, "
        f"{rejected}/{len(result.decisions)} measurements rejected",
    )
    return 0


def _sweep_seed(config, seed: int, run_dir: Path | None) -> tuple[RunMetrics, ...]:
    """The metrics of :func:`run_seed`.  With a ``run_dir``, it first writes
    the seed's truth and log, then each finished run's estimates and decision
    log in variant order; a seed whose every run collapsed writes nothing."""
    unit = run_seed(config, seed)
    finished = [(v, r) for v, r in zip(config.variants, unit.results) if r is not None]
    if run_dir is not None and finished:
        write_matrix_csv(run_dir / "true_density.csv", unit.truth.states.T)
        write_measurement_log(run_dir / "measurements.csv", unit.measurements)
        for variant, result in finished:
            tag = variant.label.replace("@", "_a")
            write_matrix_csv(run_dir / f"estimated_density_{tag}.csv", result.estimates.T)
            columns = decision_columns(unit.log, variant, result.decisions)
            write_decision_log(run_dir / f"decisions_{tag}.csv", columns)
    return unit.metrics


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
    _say(args, f"sweep: {len(config.variants)} variants x {len(seeds)} seeds")

    # A seed's results are dropped before the next seed runs.
    report = MetricsReport(runs=[])
    for seed in seeds:
        report.runs += _sweep_seed(config, seed, None if args.no_artifacts else out / f"seed_{seed}")
    atomic_write_text(out / artifacts["metrics"], metrics_wide_text(report, scenario.alphas))
    write_metrics_long(out / artifacts["metrics_long"], report)
    _say(args, f"wrote metrics table to {out / artifacts['metrics']}")
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    manifest_path = run_dir / "manifest.json"
    missing = [str(p) for p in (manifest_path, run_dir / "metrics_long.csv") if not p.exists()]
    if missing:
        raise DataError("missing run artifacts: " + ", ".join(missing))
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        raise DataError(f"{manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"{manifest_path}: expected a JSON object")
    report = read_metrics_long(run_dir / "metrics_long.csv")

    lines = [
        f"run {str(manifest.get('config_hash', '?'))[:12]} ({manifest.get('command')})",
        f"seeds: {manifest.get('seeds')}",
    ]
    aggregate = report.aggregate()
    for mode in dict.fromkeys(mode for mode, _ in aggregate):
        alphas = [a for m, a in aggregate if m == mode]
        lines.append(f"\n== {mode} ==")
        lines.append(
            f"{'metric':<22}"
            + "".join(f"{('alpha=%g' % a) if a is not None else 'value':>20}" for a in alphas)
        )
        for attr, _, label in METRIC_FIELDS:
            cells = []
            for alpha in alphas:
                mean, std = aggregate[(mode, alpha)][attr]
                cells.append(f"{mean:.2f} ± {std:.2f}")
            lines.append(f"{label:<22}" + "".join(f"{c:>20}" for c in cells))
    _write_stdout("\n".join(lines) + "\n")
    return 0


def _write_stdout(text: str) -> None:
    """Write ``text`` to stdout and flush it.  If stdout cannot take it, the
    error names ``<stdout>``, and stdout is pointed at the null device,
    since Python flushes it again at exit."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        _to_null_device(sys.stdout)
        raise OSError(exc.errno, exc.strerror, "<stdout>") from exc


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
    p_fil.add_argument("--variant", required=True, choices=tuple(MODES))
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
        _tell(f"error: {exc}")
        return 2
    except OSError as exc:
        # Every input is read through a ConfigurationError or a DataError,
        # so this is a write that failed; a rename names its target second.
        target = exc.filename if exc.filename2 is None else exc.filename2
        where = "" if target is None else f" {target}"
        _tell(f"error: cannot write{where}: {exc.strerror or exc}")
        return 2
    except MemoryError as exc:
        _tell(f"error: out of memory: {str(exc) or 'an allocation failed'}")
        return 2
    except WeightCollapseError as exc:
        _tell(f"weight collapse: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
