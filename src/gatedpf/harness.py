"""End-to-end experiment orchestration for the freeway testbed.

One experiment run simulates a ground-truth traffic realization, generates
labeled measurements (loop densities plus fault-injected speed reports),
then runs the gated particle filter once per configured (test mode, level)
variant against the same measurement log; ``gatedpf simulate`` builds a
seed's truth and log on the same path, :func:`simulate_seed`.  The log is
checked and compiled once per seed (:func:`compile_log`) into step-ordered
columns that every variant's filter run reads.  Detection
quality is scored as a confusion matrix over the gate decisions; estimation
quality as the mean absolute percentage error of the posterior-mean density
trajectory.

Randomness is organized into named streams off each seed, so the truth,
the sensing noise, the fault draws, and the filter's own model noise are
independent and individually reproducible.  All filter variants of one
seed share identical truth, measurements, and filter streams, which makes
metric columns directly comparable across test modes and levels.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .ctm import (
    DemandSchedule,
    FreewayNetwork,
    Trajectory,
    advance,
    equilibrium_state,
    simulate,
)
from .errors import ConfigurationError, DataError, WeightCollapseError
from .fileio import _count, _flag, _number, atomic_write_text, csv_text, read_csv_rows
from .gates import (
    GateKind,
    GateRows,
    gated_update,
    likelihood_ratio_test,
    significance_test,
    unexplained,
)
from .particles import (
    ParticleEnsemble,
    effective_sample_size,
    posterior_mean,
    predict,
    resample_systematic,
)
from .rng import RandomSource
from .sensing import (
    GNSS_SPEED,
    LIKELIHOOD_RATIO_MODES,
    LOOP_DENSITY,
    MEASUREMENT_KINDS,
    CompiledLog,
    FaultConfig,
    GnssSpec,
    HYPOTHESIS_MODES,
    LabeledMeasurement,
    LoopDetectorSpec,
    fault_log_density,
    inject_faults,
    measurement_rows,
    sample_gnss_speeds,
    sample_loop_detectors,
    standardize,
    vehicle_counts,
)

# Named random streams hung off each experiment seed.
STREAM_TRUTH = 0
STREAM_LOOPS = 1
STREAM_GNSS = 2
STREAM_FAULTS = 3
STREAM_FILTER_DEMAND = 4
STREAM_FILTER_RESAMPLE = 5

DECISION_COLUMNS = (
    "k",
    "sensor_id",
    "link",
    "test_kind",
    "statistic",
    "alpha",
    "rejected",
    "auxiliary",
    "faulty",
)

METRICS_LONG_COLUMNS = (
    "mode",
    "alpha",
    "seed",
    "tp",
    "fp",
    "tn",
    "fn",
    "labeling_error_pct",
    "mape_pct",
    "collapsed",
)

# The study's metrics: ``RunMetrics`` attribute, ``metrics.csv`` row name,
# ``gatedpf report`` label.
METRIC_FIELDS = (
    ("tp", "true_positives", "True Positives"),
    ("fp", "false_positives", "False Positives"),
    ("tn", "true_negatives", "True Negatives"),
    ("fn", "false_negatives", "False Negatives"),
    ("labeling_error_pct", "labeling_error_pct", "Labeling Error (%)"),
    ("mape_pct", "density_mape_pct", "Density MAPE (%)"),
)


@dataclass(frozen=True)
class FilterVariant:
    """One filter configuration: a hypothesis mode plus its level."""

    mode: str
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in HYPOTHESIS_MODES:
            raise ConfigurationError(
                f"unknown filter mode {self.mode!r}; expected one of {HYPOTHESIS_MODES}"
            )
        if self.mode == "none":
            if self.alpha is not None:
                raise ConfigurationError("ungated variant takes no alpha")
        else:
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise ConfigurationError(
                    f"variant {self.mode!r} needs alpha in (0, 1), got {self.alpha}"
                )

    @property
    def label(self) -> str:
        return self.mode if self.alpha is None else f"{self.mode}@{self.alpha:g}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs.  A loaded scenario is one, and a
    field its file omits takes the default stated here.

    ``initial_state``, ``demand_table`` and ``loops`` are derived, not
    fields: the equilibrium start every run of this config shares, the
    schedule's demand means and noise scales over the horizon, and the loop
    detectors by link, computed on first use.
    """

    network: FreewayNetwork
    schedule: DemandSchedule
    horizon: int
    particles: int
    loop_specs: tuple[LoopDetectorSpec, ...]
    gnss_spec: GnssSpec
    fault_config: FaultConfig
    variants: tuple[FilterVariant, ...]
    seeds: tuple[int, ...]
    resample_threshold: float = 0.5
    np_mass_normalized: bool = False
    h1_zero_std: float = 0.5
    mape_floor: float = 1e-4

    def __post_init__(self) -> None:
        # Each message starts with its field name; the scenario loader
        # replaces that name with the field's path.
        if self.particles < 2:
            raise ConfigurationError("particles: must be at least 2")
        if self.horizon < 1:
            raise ConfigurationError("horizon: must be at least 1")
        if not self.seeds:
            raise ConfigurationError("seeds: needs at least one seed")
        if not self.variants:
            raise ConfigurationError("variants: needs at least one variant")
        if not (0.0 < self.resample_threshold <= 1.0):
            raise ConfigurationError(
                f"resample_threshold: must be in (0, 1], got {self.resample_threshold}"
            )
        if not self.mape_floor > 0.0:
            raise ConfigurationError(f"mape_floor: must be positive, got {self.mape_floor}")
        if not self.h1_zero_std > 0.0:
            raise ConfigurationError(f"h1_zero_std: must be positive, got {self.h1_zero_std}")

    @cached_property
    def initial_state(self) -> np.ndarray:
        """The schedule's equilibrium state, computed once per config and
        read-only: the truth simulation and every filter run start from it."""
        state = equilibrium_state(self.network, self.schedule)
        state.setflags(write=False)
        return state

    @cached_property
    def loops(self) -> Mapping[int, LoopDetectorSpec]:
        """Each loop detector by its link, read-only."""
        return MappingProxyType({spec.link: spec for spec in self.loop_specs})

    @cached_property
    def demand_table(self) -> np.ndarray:
        """``schedule.table(range(horizon))``, read-only: the demand draws
        and the speed map's onramp means of every filter run read it."""
        table = self.schedule.table(range(self.horizon))
        table.setflags(write=False)
        return table


@dataclass(frozen=True)
class DecisionRecord:
    """A gate decision joined with the measurement's ground-truth label."""

    k: int
    sensor_id: str
    link: int
    test_kind: str
    statistic: float
    alpha: float
    rejected: bool
    auxiliary: float
    faulty: bool | None


@dataclass
class FilterRunResult:
    """Posterior-mean trajectory and gate decisions of one filter run.

    ``estimates`` has one row per assimilated step, k = 1 .. horizon - 1.
    """

    estimates: np.ndarray
    decisions: list[DecisionRecord]


def generate_measurements(
    truth: Trajectory,
    network: FreewayNetwork,
    loop_specs: Sequence[LoopDetectorSpec],
    gnss_spec: GnssSpec,
    fault_config: FaultConfig,
    rng: RandomSource,
) -> list[LabeledMeasurement]:
    """Measurement log for steps k = 1 .. horizon - 1 of a truth run.

    Loop detectors read the true densities; speed reports are sampled per
    vehicle from the realized link speeds, then fault-injected.  Separate
    streams keep the clean measurement values independent of the fault
    draws, so a zero-probability fault config reproduces the clean log
    bit for bit.
    """
    rng_loops = rng.derive(STREAM_LOOPS)
    rng_gnss = rng.derive(STREAM_GNSS)
    rng_faults = rng.derive(STREAM_FAULTS)
    measurements: list[LabeledMeasurement] = []
    for k in range(1, truth.horizon):
        measurements.extend(
            sample_loop_detectors(truth.states[k], loop_specs, rng_loops, k)
        )
        counts = vehicle_counts(truth.states[k], network)
        measurements.extend(
            sample_gnss_speeds(truth.speeds[k], counts, gnss_spec, rng_gnss, k)
        )
    return inject_faults(measurements, fault_config, rng_faults)


def simulate_seed(
    config: ExperimentConfig, seed: int
) -> tuple[Trajectory, list[LabeledMeasurement]]:
    """The truth run of ``seed``, from ``config.initial_state`` on stream
    ``STREAM_TRUTH``, and the measurement log generated from it."""
    base = RandomSource(seed)
    truth = simulate(
        config.network, config.schedule, config.horizon, base.derive(STREAM_TRUTH),
        initial_state=config.initial_state,
    )
    measurements = generate_measurements(
        truth, config.network, config.loop_specs, config.gnss_spec, config.fault_config, base
    )
    return truth, measurements


def _run_gate(config, variant, weights, z, log_g0, log, speeds) -> GateRows:
    """Run the variant's gate on one step's tested rows, the ``speeds``
    rows of the compiled ``log``: ``fisher`` runs the significance test
    with no fault model, ``np_correct`` the likelihood-ratio test against
    the true fault mixture, ``np_incorrect`` against the near-zero model
    only.  Either way a row no positive-weight particle explains is
    rejected."""
    if variant.mode == "fisher":
        gate = significance_test(weights, z, variant.alpha)
    else:
        log_g1 = log.fault_log_g1[variant.mode][speeds]
        gate = likelihood_ratio_test(
            weights, log_g0, log_g1[:, None], variant.alpha, config.np_mass_normalized
        )
    return replace(gate, rejected=gate.rejected | unexplained(weights, log_g0))


def check_measurement(config: ExperimentConfig, m: LabeledMeasurement) -> None:
    """Raise :class:`ValueError` if a filter run of ``config`` cannot
    assimilate ``m``: its step is outside the assimilation window, its link
    outside the network, or no sensor of its kind is configured there."""
    if not (1 <= m.k <= config.horizon - 1):
        raise ValueError(
            f"measurement at step {m.k} outside assimilation window "
            f"[1, {config.horizon - 1}]"
        )
    n_links = config.network.n_links
    if not (0 <= m.link < n_links):
        raise ValueError(
            f"measurement {m.sensor_id!r} at step {m.k} names link {m.link}, "
            f"outside the network's links [0, {n_links - 1}]"
        )
    if m.kind not in MEASUREMENT_KINDS or (m.kind == LOOP_DENSITY and m.link not in config.loops):
        raise ValueError(
            f"measurement {m.sensor_id!r} at step {m.k}: "
            f"no {m.kind!r} sensor configured on link {m.link}"
        )


def compile_log(
    config: ExperimentConfig, measurements: Sequence[LabeledMeasurement]
) -> CompiledLog:
    """Check a measurement log once and compile it into step-ordered columns
    for filter runs of ``config``.

    A measurement that fails :func:`check_measurement` raises
    :class:`DataError`.  The std rules are gathered from a per-link table
    (each loop detector's rule, then the speed rule), the fault log
    densities of the likelihood-ratio modes are evaluated once for the
    whole log, and each step's speed rows share one entry per distinct
    link, so a run evaluates the speed map once per reported link.
    """
    for m in measurements:
        try:
            check_measurement(config, m)
        except ValueError as exc:
            raise DataError(str(exc)) from None
    n = len(measurements)
    n_links = config.network.n_links
    steps = np.fromiter((m.k for m in measurements), dtype=np.intp, count=n)
    order = np.argsort(steps, kind="stable")
    ordered = tuple(measurements[i] for i in order.tolist())
    steps = steps[order]
    links = np.fromiter((m.link for m in ordered), dtype=np.intp, count=n)
    values = np.fromiter((m.value for m in ordered), dtype=float, count=n)
    is_speed = np.fromiter((m.kind == GNSS_SPEED for m in ordered), dtype=bool, count=n)

    # Column l of the rule table is link l's loop detector, column n_links
    # the speed rule; a link without a detector is never gathered.
    rule_table = np.full((3, n_links + 1), np.nan)
    for link, spec in config.loops.items():
        rule_table[:, link] = spec.std_rule
    rule_table[:, n_links] = (config.gnss_spec.noise_frac, 0.0, config.gnss_spec.min_std)

    speed = np.flatnonzero(is_speed)
    speed_steps = steps[speed]
    pairs, speed_pairs = np.unique(speed_steps * n_links + links[speed], return_inverse=True)
    bounds = np.arange(config.horizon + 1)
    offsets = np.stack(
        [
            np.searchsorted(steps, bounds),
            np.searchsorted(speed_steps, bounds),
            np.searchsorted(pairs // n_links, bounds),
        ],
        axis=1,
    )
    return CompiledLog(
        measurements=ordered,
        offsets=offsets,
        values=values,
        links=links,
        std_rules=rule_table[:, np.where(is_speed, n_links, links)],
        speed_rows=speed - offsets[speed_steps, 0],
        speed_pairs=speed_pairs - offsets[speed_steps, 2],
        pair_links=pairs % n_links,
        fault_log_g1=MappingProxyType(
            {
                mode: fault_log_density(
                    values[speed], mode, config.fault_config, config.h1_zero_std
                )
                for mode in LIKELIHOOD_RATIO_MODES
            }
        ),
    )


def run_traffic_filter(
    config: ExperimentConfig,
    measurements: Sequence[LabeledMeasurement] | CompiledLog,
    variant: FilterVariant,
    rng: RandomSource,
) -> FilterRunResult:
    """Run one gated filter over a measurement log.

    ``measurements`` is a log compiled for ``config`` by
    :func:`compile_log`, or a plain sequence, which is compiled on entry
    (so a measurement that fails :func:`check_measurement` raises
    :class:`DataError`).  Per step: predict the ensemble through the traffic
    model, read the step's rows off the compiled columns against the
    predicted ensemble, gate the speed reports, assimilate the accepted
    measurements, record the posterior mean, and resample when the
    effective sample size falls below the configured fraction.  A step
    whose assimilated measurements no particle explains raises
    :class:`WeightCollapseError` carrying the step ``k`` and those
    measurements' sensor ids.
    """
    log = measurements if isinstance(measurements, CompiledLog) else compile_log(config, measurements)
    network, schedule, demand = config.network, config.schedule, config.demand_table
    ensemble = ParticleEnsemble.from_states(
        np.repeat(config.initial_state[:, None], config.particles, axis=1)
    )
    rng_demand = rng.derive(STREAM_FILTER_DEMAND)
    rng_resample = rng.derive(STREAM_FILTER_RESAMPLE)

    def transition(states: np.ndarray, rng: RandomSource) -> np.ndarray:
        # The filter embeds the truth's traffic model but draws its own
        # demand noise, which is what spreads the particles; reads the
        # current step ``k`` of the loop below.
        upstream, ramps = schedule.sample(k - 1, rng, states.shape[1], demand)
        return advance(states, network, upstream, ramps)

    n_steps = config.horizon - 1
    estimates = np.empty((n_steps, network.n_links))
    decisions: list[DecisionRecord] = []

    for k in range(1, config.horizon):
        prior = predict(ensemble, transition, rng_demand)
        rows, speeds, _ = log.step(k)
        if rows.start < rows.stop:
            step_measurements = log.measurements[rows]
            values, mean, std, tested = measurement_rows(
                log, k, prior.particles, network, demand[k, 0, 1:]
            )
            z, log_g0 = standardize(values, mean, std)
            rejected = np.zeros(len(values), dtype=bool)
            # Speed reports are gated; loop detectors are first-party and
            # never are.
            if variant.mode != "none" and tested.size:
                gate = _run_gate(
                    config, variant, prior.weights, z[tested], log_g0[tested], log, speeds
                )
                rejected[tested] = gate.rejected
                kind = gate.kind.value
                outcomes = zip(gate.statistic.tolist(), gate.rejected.tolist(), gate.auxiliary.tolist())
                for i, (stat, rej, aux) in zip(tested.tolist(), outcomes):
                    m = step_measurements[i]
                    decisions.append(
                        DecisionRecord(
                            m.k, m.sensor_id, m.link, kind, stat, variant.alpha, rej, aux, m.faulty
                        )
                    )
            try:
                posterior = gated_update(prior, log_g0, rejected).posterior
            except WeightCollapseError as exc:
                accepted = [step_measurements[i].sensor_id for i in np.flatnonzero(~rejected)]
                raise WeightCollapseError(
                    f"step {k}: no particle explains the assimilated measurements {accepted}",
                    k=k,
                    sensor_ids=accepted,
                ) from exc
        else:
            posterior = prior
        estimates[k - 1] = posterior_mean(posterior)
        if effective_sample_size(posterior) < config.resample_threshold * config.particles:
            posterior = resample_systematic(posterior, rng_resample)
        ensemble = posterior
    return FilterRunResult(estimates=estimates, decisions=decisions)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def labeling_error_pct(self) -> float:
        if self.total == 0:
            return 0.0
        return 100.0 * (self.fp + self.fn) / self.total


def confusion_metrics(decisions: Sequence[DecisionRecord]) -> ConfusionCounts:
    """Score gate decisions against ground-truth labels.

    A positive is a rejection.  Every decision must carry a label.
    """
    tp = fp = tn = fn = 0
    for d in decisions:
        if d.faulty is None:
            raise DataError(f"decision for {d.sensor_id} at k={d.k} has no label")
        if d.rejected and d.faulty:
            tp += 1
        elif d.rejected and not d.faulty:
            fp += 1
        elif not d.rejected and d.faulty:
            fn += 1
        else:
            tn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


@dataclass(frozen=True)
class TrajectoryPair:
    """True and estimated density trajectories on the same (step, link) grid."""

    true: np.ndarray
    estimated: np.ndarray

    def __post_init__(self) -> None:
        true = np.asarray(self.true, dtype=float)
        est = np.asarray(self.estimated, dtype=float)
        if true.shape != est.shape:
            raise ConfigurationError(
                f"trajectory shapes differ: {true.shape} vs {est.shape}"
            )
        object.__setattr__(self, "true", true)
        object.__setattr__(self, "estimated", est)


def mape(pair: TrajectoryPair, floor: float = 1e-4) -> float:
    """Mean absolute percentage error with a small denominator floor.

    The floor protects near-empty links; true densities are expected to sit
    well above it in any scored scenario.
    """
    if pair.true.size == 0:
        return float("nan")
    denom = np.maximum(pair.true, floor)
    return float(100.0 * np.mean(np.abs(pair.estimated - pair.true) / denom))


@dataclass(frozen=True)
class RunMetrics:
    """Metrics of one (variant, alpha, seed) filter run."""

    mode: str
    alpha: float | None
    seed: int
    tp: int
    fp: int
    tn: int
    fn: int
    labeling_error_pct: float
    mape_pct: float
    collapsed: bool = False


@dataclass
class MetricsReport:
    """Per-run metrics plus aggregation across seeds."""

    runs: list[RunMetrics]

    def variant_keys(self) -> list[tuple[str, float | None]]:
        seen: list[tuple[str, float | None]] = []
        for run in self.runs:
            key = (run.mode, run.alpha)
            if key not in seen:
                seen.append(key)
        return seen

    def select(self, mode: str, alpha: float | None = None) -> list[RunMetrics]:
        return sorted(
            (r for r in self.runs if r.mode == mode and r.alpha == alpha),
            key=lambda r: r.seed,
        )

    def values(self, mode: str, alpha: float | None, attr: str) -> np.ndarray:
        return np.array([getattr(r, attr) for r in self.select(mode, alpha)], dtype=float)

    def median(self, mode: str, alpha: float | None, attr: str) -> float:
        return float(np.median(self.values(mode, alpha, attr)))

    def aggregate(self) -> dict[tuple[str, float | None], dict[str, tuple[float, float]]]:
        """Mean and sample std of each metric across seeds, per variant."""
        out: dict[tuple[str, float | None], dict[str, tuple[float, float]]] = {}
        for mode, alpha in self.variant_keys():
            stats: dict[str, tuple[float, float]] = {}
            for attr, _, _ in METRIC_FIELDS:
                vals = self.values(mode, alpha, attr)
                mean = float(np.mean(vals))
                std = 0.0 if len(vals) < 2 else float(np.std(vals, ddof=1))
                stats[attr] = (mean, std)
            out[(mode, alpha)] = stats
        return out


RunSink = Callable[[int, Trajectory, Sequence[LabeledMeasurement], FilterVariant, FilterRunResult], None]


def run_experiment(config: ExperimentConfig, on_run: RunSink | None = None) -> MetricsReport:
    """Full study: per seed, simulate truth once and run every variant on it.

    Each seed's log is checked and compiled once (:func:`compile_log`) and
    every variant's run reads the compiled log.  A weight collapse in one
    variant is recorded (all-NaN metrics, ``collapsed`` set) and the
    remaining variants still run.  ``on_run`` receives each finished run
    with the seed's measurement list, e.g. for writing artifacts.
    """
    runs: list[RunMetrics] = []
    for seed in config.seeds:
        base = RandomSource(seed)
        truth, measurements = simulate_seed(config, seed)
        log = compile_log(config, measurements)
        true_slice = truth.states[1 : config.horizon]
        for variant in config.variants:
            try:
                result = run_traffic_filter(config, log, variant, base)
            except WeightCollapseError:
                runs.append(
                    RunMetrics(
                        mode=variant.mode,
                        alpha=variant.alpha,
                        seed=seed,
                        tp=0,
                        fp=0,
                        tn=0,
                        fn=0,
                        labeling_error_pct=float("nan"),
                        mape_pct=float("nan"),
                        collapsed=True,
                    )
                )
                continue
            counts = confusion_metrics(result.decisions)
            error = mape(
                TrajectoryPair(true_slice, result.estimates), floor=config.mape_floor
            )
            runs.append(
                RunMetrics(
                    mode=variant.mode,
                    alpha=variant.alpha,
                    seed=seed,
                    tp=counts.tp,
                    fp=counts.fp,
                    tn=counts.tn,
                    fn=counts.fn,
                    labeling_error_pct=counts.labeling_error_pct,
                    mape_pct=error,
                )
            )
            if on_run is not None:
                on_run(seed, truth, measurements, variant, result)
    return MetricsReport(runs=runs)


def write_decision_log(path: str | Path, decisions: Sequence[DecisionRecord]) -> None:
    rows = (
        (
            d.k, d.sensor_id, d.link, d.test_kind, repr(d.statistic), repr(d.alpha),
            int(d.rejected), repr(d.auxiliary), "" if d.faulty is None else int(d.faulty),
        )
        for d in decisions
    )
    atomic_write_text(path, csv_text(DECISION_COLUMNS, rows))


def read_decision_log(path: str | Path) -> list[DecisionRecord]:
    """Read a decision log back; a row that :func:`write_decision_log`
    cannot have written raises :class:`DataError` naming ``path:line``.

    A gate's statistic and auxiliary may be infinite (a residual too large
    to hold, a null mass that overflows), never NaN; the level is finite.
    """
    return read_csv_rows(path, DECISION_COLUMNS, "decision log", _decision)


def _decision(row: list[str]) -> DecisionRecord:
    return DecisionRecord(
        k=_count(row[0], "k", least=1),
        sensor_id=row[1],
        link=_count(row[2], "link"),
        test_kind=GateKind(row[3]).value,
        statistic=_number(row[4], "statistic", inf_ok=True),
        alpha=_number(row[5], "alpha"),
        rejected=_flag(row[6], "rejected"),
        auxiliary=_number(row[7], "auxiliary", inf_ok=True),
        faulty=None if row[8] == "" else _flag(row[8], "faulty"),
    )


def metrics_wide_text(report: MetricsReport, alphas: Sequence[float]) -> str:
    """Tables-style wide text: metric rows, one column per level, cells mean±std."""
    aggregate = report.aggregate()
    gated_modes = dict.fromkeys(mode for mode, alpha in report.variant_keys() if alpha is not None)
    rows = []
    for mode in gated_modes:
        for attr, name, _ in METRIC_FIELDS:
            row = [mode, name]
            for alpha in alphas:
                stats = aggregate.get((mode, float(alpha)))
                row.append("" if stats is None else "{!r}±{!r}".format(*stats[attr]))
            rows.append(row)
    return csv_text(["variant", "metric"] + [f"alpha={a:g}" for a in alphas], rows)


def metrics_long_text(report: MetricsReport) -> str:
    rows = (
        (
            r.mode, "" if r.alpha is None else repr(r.alpha), r.seed, r.tp, r.fp, r.tn, r.fn,
            repr(r.labeling_error_pct), repr(r.mape_pct), int(r.collapsed),
        )
        for r in report.runs
    )
    return csv_text(METRICS_LONG_COLUMNS, rows)


def read_metrics_long(path: str | Path) -> MetricsReport:
    """Read ``metrics_long.csv`` back; a row that :func:`metrics_long_text`
    cannot have written raises :class:`DataError` naming ``path:line``.

    Its (mode, level) must make a :class:`FilterVariant`.  NaN is accepted
    only where a run writes it: both error percentages of a collapsed run,
    and the MAPE of a run with no decisions (a run with no assimilated
    steps has no MAPE).
    """
    return MetricsReport(runs=read_csv_rows(path, METRICS_LONG_COLUMNS, "metrics", _run_metrics))


def _run_metrics(row: list[str]) -> RunMetrics:
    variant = FilterVariant(row[0], None if row[1] == "" else _number(row[1], "alpha"))
    collapsed = _flag(row[9], "collapsed")
    tp, fp, tn, fn = (_count(row[i], METRICS_LONG_COLUMNS[i]) for i in range(3, 7))
    no_decisions = tp + fp + tn + fn == 0
    return RunMetrics(
        mode=variant.mode,
        alpha=variant.alpha,
        seed=int(row[2]),
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        labeling_error_pct=_number(row[7], "labeling_error_pct", nan_ok=collapsed),
        mape_pct=_number(row[8], "mape_pct", nan_ok=collapsed or no_decisions),
        collapsed=collapsed,
    )
