"""End-to-end experiment orchestration for the freeway testbed.

One experiment run simulates a ground-truth traffic realization, generates
labeled measurements (loop densities plus fault-injected speed reports),
then runs the gated particle filter for each configured (test mode, level)
variant against the same measurement log; ``gatedpf simulate`` builds a
seed's truth and log on the same path, :func:`simulate_seed`.  The log is
checked and compiled once per seed (:func:`compile_log`) into step-ordered
columns that every variant's filter run reads.  Detection
quality is scored as a confusion matrix over the gate decisions; estimation
quality as the mean absolute percentage error of the posterior-mean density
trajectory.

A variant whose filter run would repeat a finished run of its seed bit for
bit takes that run's results instead of filtering again.  Both gates'
statistics are level-free, and the level only thresholds them
(:func:`~gatedpf.gates.level_rule`).  Two levels of one test mode that
decide every recorded row alike therefore run the same filter, by
induction over the steps: from the same prior and the same demand draws,
both compute the same statistics, take the same test outcomes and reject
the same rows (the ``unexplained`` rule does not read the level), so they
reach the same posterior, effective sample size, resample draws and next
prior.  The finished run's decision log records each row's statistic and
auxiliary, so the check reads them and filters nothing.

Randomness is organized into named streams off each seed, so the truth,
the sensing noise, the fault draws, and the filter's own model noise are
independent and individually reproducible.  All filter variants of one
seed share identical truth, measurements, and filter streams, which makes
metric columns directly comparable across test modes and levels.
"""
from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Sequence

import numpy as np

from .buffers import StepBuffers
from .ctm import (
    DemandSchedule,
    FreewayNetwork,
    Trajectory,
    advance,
    equilibrium_state,
    link_plan,
    simulate,
)
from .errors import ConfigurationError, DataError, WeightCollapseError
from .fileio import (
    FLAG,
    FLOAT,
    INT,
    LEVEL,
    TEXT,
    RecordFormat,
    Rule,
    atomic_write_text,
    csv_text,
    int_range,
    one_of,
    read_records,
    record_text,
)
from .gates import MODES, GateKind, gate_rows, level_rule
from .particles import (
    ParticleEnsemble,
    effective_sample_size,
    posterior_mean,
    predict,
    resample_systematic,
    weight_update,
)
from .rng import RandomSource
from .sensing import (
    LOOP_DENSITY,
    CompiledLog,
    FaultConfig,
    GnssSpec,
    LoopDetectors,
    MeasurementLog,
    fault_log_density,
    inject_faults,
    measurement_rows,
    sample_gnss_speeds,
    sample_loop_detectors,
    vehicle_counts,
)

# Named random streams hung off each experiment seed.
STREAM_TRUTH = 0
STREAM_LOOPS = 1
STREAM_GNSS = 2
STREAM_FAULTS = 3
STREAM_FILTER_DEMAND = 4
STREAM_FILTER_RESAMPLE = 5

logger = logging.getLogger(__name__)

# numpy shapes an array only while its size in bytes fits a signed
# pointer-sized integer (2**63 - 1 on 64-bit builds): the most float64
# elements one array can hold.
_MAX_FLOATS = np.iinfo(np.intp).max // np.dtype(float).itemsize

# A run's gate decisions, one element per tested speed report; the field
# names are the decision log's columns.
DECISION_DTYPE = np.dtype(
    [
        ("k", np.int64), ("sensor_id", object), ("link", np.int64), ("test_kind", object),
        ("statistic", float), ("alpha", float), ("rejected", bool), ("auxiliary", float),
        ("faulty", bool),
    ]
)
DECISION_COLUMNS = DECISION_DTYPE.names

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
    """One filter configuration: a mode of ``gates.MODES`` plus its level."""

    mode: str
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown filter mode {self.mode!r}; expected one of {tuple(MODES)}"
            )
        if self.kind is None:
            if self.alpha is not None:
                raise ConfigurationError("ungated variant takes no alpha")
        elif self.alpha is None or not (0.0 < self.alpha < 1.0):
            raise ConfigurationError(f"variant {self.mode!r} needs alpha in (0, 1), got {self.alpha}")

    @property
    def label(self) -> str:
        return self.mode if self.alpha is None else f"{self.mode}@{self.alpha:g}"

    @property
    def kind(self) -> GateKind | None:
        """The variant's test; ``None`` for the ungated filter."""
        return MODES[self.mode]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs.  A loaded scenario is one, and a
    field its file omits takes the default stated here.

    ``initial_state`` and ``demand_table`` are derived, not fields: the
    equilibrium start every run of this config shares and the schedule's
    demand means and noise scales over the horizon, computed on first use.
    """

    network: FreewayNetwork
    schedule: DemandSchedule
    horizon: int
    particles: int
    loops: LoopDetectors
    gnss_spec: GnssSpec
    fault_config: FaultConfig
    variants: tuple[FilterVariant, ...]
    seeds: tuple[int, ...]
    resample_threshold: float = 0.5
    h1_zero_std: float = 0.5
    mape_floor: float = 1e-4

    def __post_init__(self) -> None:
        # Each message starts with its field name; the scenario loader
        # replaces that name with the field's path.
        if self.particles < 2:
            raise ConfigurationError("particles: must be at least 2")
        if self.horizon < 1:
            raise ConfigurationError("horizon: must be at least 1")
        # The largest arrays these size: the (L, P) particle block and the
        # (horizon + 1, L) truth trajectory.
        most = _MAX_FLOATS // self.network.n_links
        if self.particles > most:
            raise ConfigurationError(
                f"particles: must be at most {most}, the most particles whose "
                "(L, P) float64 block numpy can shape"
            )
        if self.horizon >= most:
            raise ConfigurationError(
                f"horizon: must be at most {most - 1}, the longest horizon whose "
                "(horizon + 1, L) float64 trajectory numpy can shape"
            )
        if not self.seeds:
            raise ConfigurationError("seeds: needs at least one seed")
        # A random stream keys on the seed modulo 2**64, and each seed is one
        # independent sample of the study, so a seed is a distinct uint64.
        for i, seed in enumerate(self.seeds):
            if not 0 <= seed < 2**64:
                raise ConfigurationError(f"seeds: seed {seed} is outside [0, 2**64)")
            if seed in self.seeds[:i]:
                raise ConfigurationError(f"seeds: seed {seed} is repeated")
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
    def demand_table(self) -> np.ndarray:
        """``schedule.table(range(horizon))``, read-only: the demand draws
        and the speed map's onramp means of every filter run read it."""
        table = self.schedule.table(range(self.horizon))
        table.setflags(write=False)
        return table


@dataclass
class FilterRunResult:
    """Posterior-mean trajectory and gate decisions of one filter run.

    ``estimates`` has one row per assimilated step, k = 1 .. horizon - 1.
    ``decisions`` is a ``DECISION_DTYPE`` array: for a gated run one element
    per speed report of the log, in step order, each with its report's
    ground-truth label; empty for the ungated run.
    """

    estimates: np.ndarray
    decisions: np.ndarray


def generate_measurements(
    truth: Trajectory,
    network: FreewayNetwork,
    loops: LoopDetectors,
    gnss_spec: GnssSpec,
    fault_config: FaultConfig,
    rng: RandomSource,
) -> MeasurementLog:
    """Measurement log for steps k = 1 .. horizon - 1 of a truth run.

    Each step holds its loop readings in detector order, then its speed
    reports by link, ``gnss-{k}-{link}-{i}`` for the link's i-th reporting
    vehicle.  Loop detectors read the true densities, all steps in one
    draw; speed reports are sampled per vehicle from the realized link
    speeds, one draw per step, then fault-injected.  Separate streams keep
    the clean measurement values independent of the fault draws, so a
    zero-probability fault config reproduces the clean log bit for bit.
    """
    states = truth.states[1 : truth.horizon]
    n_steps, n_links, n_loops = len(states), network.n_links, len(loops.links)
    loop_values = sample_loop_detectors(states, loops, rng.derive(STREAM_LOOPS))
    counts = vehicle_counts(states, network)
    rng_gnss = rng.derive(STREAM_GNSS)
    reporting = np.zeros((n_steps, n_links), dtype=np.intp)
    speed_values = [np.empty(0)]  # so that a log without steps concatenates
    for i in range(n_steps):
        reporting[i], values = sample_gnss_speeds(truth.speeds[i + 1], counts[i], gnss_spec, rng_gnss)
        speed_values.append(values)

    # Step k's rows are its n_loops loop readings, then its speed reports,
    # which group by link in vehicle order.
    per_step = n_loops + reporting.sum(axis=1)
    steps = np.repeat(np.arange(1, n_steps + 1), per_step)
    speed = _positions(per_step) >= n_loops
    speed_links = np.repeat(np.tile(np.arange(n_links), n_steps), reporting.ravel())
    vehicle = _positions(reporting.ravel())

    links = np.empty(len(steps), dtype=np.intp)
    links[~speed] = np.tile(loops.links, n_steps)
    links[speed] = speed_links
    values = np.empty(len(steps))
    values[~speed] = loop_values.ravel()
    values[speed] = np.concatenate(speed_values)
    sensor_ids = np.empty(len(steps), dtype=object)
    sensor_ids[~speed] = np.tile(np.array([f"loop-{link}" for link in loops.links], dtype=object), n_steps)
    sensor_ids[speed] = np.array(
        [
            f"gnss-{k}-{link}-{i}"
            for k, link, i in zip(steps[speed].tolist(), speed_links.tolist(), vehicle.tolist())
        ],
        dtype=object,
    )
    log = MeasurementLog(steps, sensor_ids, speed, links, values, np.zeros(len(steps), dtype=bool))
    return inject_faults(log, fault_config, rng.derive(STREAM_FAULTS))


def _positions(sizes: np.ndarray) -> np.ndarray:
    """Each element's position within its group, for consecutive groups of
    the given sizes."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def simulate_seed(config: ExperimentConfig, seed: int) -> tuple[Trajectory, MeasurementLog]:
    """The truth run of ``seed``, from ``config.initial_state`` on stream
    ``STREAM_TRUTH``, and the measurement log generated from it."""
    base = RandomSource(seed)
    truth = simulate(
        config.network, config.schedule, config.horizon, base.derive(STREAM_TRUTH),
        initial_state=config.initial_state,
    )
    measurements = generate_measurements(
        truth, config.network, config.loops, config.gnss_spec, config.fault_config, base
    )
    return truth, measurements


def _check_log(config: ExperimentConfig, log: MeasurementLog) -> None:
    """Raise :class:`DataError` naming the first row, in log order, that a
    filter run of ``config`` cannot assimilate: its step is outside the
    assimilation window, its link outside the network, or no sensor of its
    kind is configured there.  A row of a log read from a file is named
    ``path:line``."""
    last, n_links = config.horizon - 1, config.network.n_links
    outside = (log.steps < 1) | (log.steps > last)
    off_network = (log.links < 0) | (log.links >= n_links)
    has_loop = np.zeros(n_links, dtype=bool)
    has_loop[list(config.loops.links)] = True
    no_loop = ~log.speed & ~has_loop[np.clip(log.links, 0, n_links - 1)]
    refused = np.flatnonzero(outside | off_network | no_loop)
    if not refused.size:
        return
    i = refused[0]
    row = f"measurement {log.sensor_ids[i]!r} at step {log.steps[i]}"
    if outside[i]:
        message = f"{row} outside assimilation window [1, {last}]"
    elif off_network[i]:
        message = f"{row} names link {log.links[i]}, outside the network's links [0, {n_links - 1}]"
    else:
        message = f"{row}: no {LOOP_DENSITY!r} sensor configured on link {log.links[i]}"
    if log.source is not None:
        message = f"{log.source}:{log.lines[i]}: {message}"
    raise DataError(message)


def compile_log(config: ExperimentConfig, log: MeasurementLog) -> CompiledLog:
    """Check a measurement log once and compile it into step-ordered columns
    for filter runs of ``config``.

    A row the scenario cannot assimilate raises :class:`DataError`
    (:func:`_check_log`).  The rows are sorted by step (stably, so a step
    keeps its rows' log order).  Each row's std rule is gathered from a
    two-column table (the loop detectors' rule, the speed rule).  Each
    speed report gets its link's row of one
    :class:`~gatedpf.ctm.LinkPlan`, which each step slices, and its
    decision record, which each gated run copies; the fault log densities
    of the likelihood-ratio modes are evaluated once for the whole log.
    """
    _check_log(config, log)
    gnss = config.gnss_spec
    order = np.argsort(log.steps, kind="stable")
    steps, sensor_ids, links, values, is_speed = (
        log.steps[order], log.sensor_ids[order], log.links[order], log.values[order], log.speed[order]
    )
    rule_table = np.array([config.loops.std_rule, (gnss.noise_frac, gnss.min_std)]).T

    speed = np.flatnonzero(is_speed)
    bounds = np.arange(config.horizon + 1)
    offsets = np.stack([np.searchsorted(steps, bounds), np.searchsorted(steps[speed], bounds)], axis=1)
    # np.zeros, not np.empty, which fills the object fields one at a time.
    decisions = np.zeros(len(speed), DECISION_DTYPE)
    decisions["k"], decisions["sensor_id"], decisions["link"], decisions["faulty"] = (
        steps[speed], sensor_ids[speed], links[speed], log.faulty[order[speed]]
    )
    decisions.setflags(write=False)
    return CompiledLog(
        horizon=config.horizon,
        network=config.network,
        offsets=offsets,
        sensor_ids=sensor_ids,
        links=links,
        values=values,
        std_rules=rule_table[:, is_speed.astype(np.intp)],
        speed_index=speed,
        speed_plan=link_plan(config.network, links[speed]),
        decisions=decisions,
        fault_log_g1=MappingProxyType(
            {
                mode: fault_log_density(
                    values[speed], mode, config.fault_config, config.h1_zero_std
                )
                for mode, kind in MODES.items()
                if kind is GateKind.NEYMAN_PEARSON
            }
        ),
    )


def filter_step(
    config: ExperimentConfig,
    log: CompiledLog,
    variant: FilterVariant,
    ensemble: ParticleEnsemble,
    k: int,
    step: tuple[slice, slice],
    rng_demand: RandomSource,
    rng_resample: RandomSource,
    work: StepBuffers,
) -> tuple[ParticleEnsemble, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """Step ``k`` of a filter run of ``config`` over a compiled log, whose
    slices of the log's columns are ``step`` (``log.step(k)``).

    Predict the ensemble through the traffic model on the step's own demand
    draw, read the step's rows off the compiled columns against the prior,
    gate the speed reports, assimilate the accepted measurements (a step
    with none keeps its prior), take the posterior mean, and resample when
    the effective sample size falls below the configured fraction.  Returns
    the next ensemble, the posterior mean, and the gate's ``(statistic,
    auxiliary, rejected)`` columns on the step's speed rows, or ``None``
    when the step gated nothing.  Assimilated measurements that no particle
    explains raise :class:`WeightCollapseError` carrying ``k`` and their
    sensor ids.  The step's temporaries are written into ``work``, the
    run's buffers (:func:`step_buffers`); nothing the step returns holds
    them.
    """
    network, demand = config.network, config.demand_table
    # The filter embeds the truth's traffic model but draws its own demand
    # noise, which is what spreads the particles.
    upstream, ramps = config.schedule.sample(k - 1, rng_demand, config.particles, demand)
    prior = posterior = predict(ensemble, advance(ensemble.particles, network, upstream, ramps, work))
    gate = None
    rows, speeds = step
    if rows.start < rows.stop:
        z, log_g0, tested = measurement_rows(log, step, prior.particles, demand[k, 0, 1:], work)
        accepted = np.ones(len(z), dtype=bool)
        # Speed reports are gated; first-party loop detectors never are.
        if variant.kind is not None and tested.size:
            log_g1 = log.fault_log_g1.get(variant.mode)  # None without a fault model
            gate = gate_rows(
                variant.kind, variant.alpha, prior.weights, z[tested], log_g0[tested],
                None if log_g1 is None else log_g1[speeds, None],
            )
            accepted[tested] = ~gate[2]
        if accepted.any():
            try:
                # An ungated step accepts every row: no copy of them.
                accepted_rows = log_g0 if accepted.all() else log_g0[accepted]
                posterior, _ = weight_update(prior, accepted_rows, work)
            except WeightCollapseError as exc:
                assimilated = log.sensor_ids[rows][accepted].tolist()
                raise WeightCollapseError(
                    f"step {k}: no particle explains the assimilated measurements {assimilated}",
                    k=k,
                    sensor_ids=assimilated,
                ) from exc
    estimate = posterior_mean(posterior, work)
    if effective_sample_size(posterior) < config.resample_threshold * config.particles:
        posterior = resample_systematic(posterior, rng_resample)
    return posterior, estimate, gate


def _records_at(decisions: np.ndarray, variant: FilterVariant) -> np.ndarray:
    """A copy of the decision records ``decisions`` at ``variant``'s test
    and level.  numpy copies records with object fields one at a time in
    ``ndarray.copy`` and in bulk in ``concatenate``, which is about 9 times
    as fast on a log's worth of them."""
    decisions = np.concatenate([decisions])
    decisions["test_kind"], decisions["alpha"] = variant.kind.value, variant.alpha
    return decisions


def step_buffers(config: ExperimentConfig, log: CompiledLog) -> StepBuffers:
    """Work buffers for the steps of a filter run of ``config`` over
    ``log``: (L, P) blocks, sized by the most rows and the most speed
    reports of any step."""
    max_rows, max_links = np.diff(log.offsets, axis=0).max(axis=0, initial=0).tolist()
    return StepBuffers(
        config.particles, n_states=config.network.n_links, max_rows=max_rows, max_links=max_links
    )


def run_traffic_filter(
    config: ExperimentConfig,
    measurements: MeasurementLog | CompiledLog,
    variant: FilterVariant,
    rng: RandomSource,
) -> FilterRunResult:
    """Run one gated filter over a measurement log: :func:`filter_step` for
    k = 1 .. horizon - 1 from ``config.initial_state``.

    ``measurements`` is a log compiled for ``config`` by
    :func:`compile_log`, or a :class:`MeasurementLog`, which is compiled on
    entry (so a row the scenario cannot assimilate raises
    :class:`DataError`); a log compiled for another horizon or network
    raises :class:`ConfigurationError`.  The run allocates its work buffers
    once (:func:`step_buffers`), and every step reuses them.  Each step's
    slices of the log are looked up once.  A gated run copies the log's
    decision records, sets its test and level, and writes each step's gate
    outcomes through the step's speed slice (see :class:`FilterRunResult`).
    """
    log = measurements if isinstance(measurements, CompiledLog) else compile_log(config, measurements)
    if log.horizon != config.horizon or log.network != config.network:
        other = "" if log.network == config.network else " of another network"
        raise ConfigurationError(
            f"measurement log compiled for horizon {log.horizon} on {log.n_links} links, "
            f"but the scenario has horizon {config.horizon} on {config.network.n_links} links{other}"
        )
    ensemble = ParticleEnsemble.from_states(
        np.repeat(config.initial_state[:, None], config.particles, axis=1)
    )
    rng_demand = rng.derive(STREAM_FILTER_DEMAND)
    rng_resample = rng.derive(STREAM_FILTER_RESAMPLE)
    estimates = np.empty((config.horizon - 1, config.network.n_links))
    decisions = np.empty(0, DECISION_DTYPE)
    if variant.kind is not None:
        decisions = _records_at(log.decisions, variant)
    work = step_buffers(config, log)
    for k in range(1, config.horizon):
        step = log.step(k)
        ensemble, estimates[k - 1], gate = filter_step(
            config, log, variant, ensemble, k, step, rng_demand, rng_resample, work
        )
        if gate is not None:
            decided = decisions[step[1]]
            decided["statistic"], decided["auxiliary"], decided["rejected"] = gate
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


def confusion_metrics(decisions: np.ndarray) -> ConfusionCounts:
    """Score gate decisions (a ``DECISION_DTYPE`` array) against their
    ground-truth labels.  A positive is a rejection."""
    rejected, faulty = decisions["rejected"], decisions["faulty"]
    return ConfusionCounts(
        tp=int(np.count_nonzero(rejected & faulty)),
        fp=int(np.count_nonzero(rejected & ~faulty)),
        tn=int(np.count_nonzero(~rejected & ~faulty)),
        fn=int(np.count_nonzero(~rejected & faulty)),
    )


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

    def aggregate(self) -> dict[tuple[str, float | None], dict[str, tuple[float, float]]]:
        """Mean and sample std of each metric across seeds, per variant, with
        the variants in the order of their first runs and each variant's
        runs taken in seed order."""
        by_variant: dict[tuple[str, float | None], list[RunMetrics]] = {}
        for run in self.runs:
            by_variant.setdefault((run.mode, run.alpha), []).append(run)
        out: dict[tuple[str, float | None], dict[str, tuple[float, float]]] = {}
        for key, runs in by_variant.items():
            runs.sort(key=lambda r: r.seed)
            stats: dict[str, tuple[float, float]] = {}
            for attr, _, _ in METRIC_FIELDS:
                vals = np.array([getattr(r, attr) for r in runs], dtype=float)
                mean = float(np.mean(vals))
                std = 0.0 if len(vals) < 2 else float(np.std(vals, ddof=1))
                stats[attr] = (mean, std)
            out[key] = stats
        return out


RunSink = Callable[[int, Trajectory, MeasurementLog, FilterVariant, FilterRunResult], None]


def _shared_run(
    variant: FilterVariant, finished: Sequence[tuple[FilterVariant, FilterRunResult]]
) -> tuple[FilterVariant, FilterRunResult] | None:
    """The first of a seed's ``finished`` runs that ``variant``'s filter run
    would repeat bit for bit, with its results at ``variant``'s level; or
    ``None``.

    A run qualifies when it has the variant's test mode and its recorded
    statistics give the same test outcome on every row at both levels (see
    the module docstring): the variant takes its estimates and a copy of
    its decisions with ``alpha`` set to the variant's level.
    """
    for base, result in finished:
        if base.mode != variant.mode:
            continue
        decisions = result.decisions
        statistic, auxiliary = decisions["statistic"], decisions["auxiliary"]
        if np.array_equal(
            level_rule(variant.kind, statistic, auxiliary, base.alpha),
            level_rule(variant.kind, statistic, auxiliary, variant.alpha),
        ):
            return base, FilterRunResult(result.estimates, _records_at(decisions, variant))
    return None


def run_experiment(config: ExperimentConfig, on_run: RunSink | None = None) -> MetricsReport:
    """Full study: per seed, simulate truth once and run every variant on it.

    Each seed's log is checked and compiled once (:func:`compile_log`) and
    every variant's run reads the compiled log.  A gated variant whose test
    mode has a finished run in the seed that decides every recorded row
    alike at both levels takes that run's results (:func:`_shared_run`, by
    the induction in the module docstring) and logs one ``INFO`` record
    naming the run it takes; any other variant runs
    :func:`run_traffic_filter`.  The ungated variant and a run that
    collapsed are never taken, and a mode's runs are held only while a
    variant left to run has that mode.  A weight collapse in one variant is
    recorded (all-NaN metrics, ``collapsed`` set) and the remaining
    variants still run.  ``on_run`` receives each finished run, in variant
    order, with the seed's measurement log, e.g. for writing artifacts.
    """
    runs: list[RunMetrics] = []
    last = {variant.mode: i for i, variant in enumerate(config.variants)}
    for seed in config.seeds:
        base = RandomSource(seed)
        truth, measurements = simulate_seed(config, seed)
        log = compile_log(config, measurements)
        true_slice = truth.states[1 : config.horizon]
        # The seed's filtered, finished gated runs that a later level may
        # take: a mode's runs are dropped once no variant left has its mode.
        finished: list[tuple[FilterVariant, FilterRunResult]] = []
        for i, variant in enumerate(config.variants):
            finished = [run for run in finished if last[run[0].mode] >= i]
            shared = _shared_run(variant, finished)
            if shared is not None:
                taken, result = shared
                logger.info("seed %d: %s takes the run of %s", seed, variant.label, taken.label)
            else:
                try:
                    result = run_traffic_filter(config, log, variant, base)
                except WeightCollapseError:
                    nan = float("nan")
                    runs.append(
                        RunMetrics(
                            mode=variant.mode, alpha=variant.alpha, seed=seed, tp=0, fp=0, tn=0, fn=0,
                            labeling_error_pct=nan, mape_pct=nan, collapsed=True,
                        )
                    )
                    continue
                if variant.kind is not None:
                    finished.append((variant, result))
            counts = confusion_metrics(result.decisions)
            error = mape(TrajectoryPair(true_slice, result.estimates), floor=config.mape_floor)
            runs.append(
                RunMetrics(
                    mode=variant.mode, alpha=variant.alpha, seed=seed, **asdict(counts),
                    labeling_error_pct=counts.labeling_error_pct, mape_pct=error,
                )
            )
            if on_run is not None:
                on_run(seed, truth, measurements, variant, result)
    return MetricsReport(runs=runs)


def _in_open_unit(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return (0.0 < values) & (values < 1.0)


# The decision log's columns are the decision fields.  A gate's statistic
# and auxiliary may be infinite (a residual too large to hold, a null mass
# that overflows), never NaN; the level is a gated variant's.
DECISION_FORMAT = RecordFormat(
    "decision log",
    tuple(zip(DECISION_COLUMNS, (INT, TEXT, INT, TEXT, FLOAT, FLOAT, FLAG, FLOAT, FLAG))),
    (
        int_range("k", 1, 2**63),
        int_range("link", 0, 2**63),
        one_of("test_kind", [kind.value for kind in GateKind]),
        Rule("statistic", "not be nan", lambda c: ~np.isnan(c["statistic"])),
        Rule("alpha", "lie in (0, 1)", lambda c: _in_open_unit(c["alpha"])),
        Rule("auxiliary", "not be nan", lambda c: ~np.isnan(c["auxiliary"])),
    ),
)


def write_decision_log(path: str | Path, decisions: np.ndarray) -> None:
    """Write a ``DECISION_DTYPE`` array atomically in ``DECISION_FORMAT``,
    one row per decision; a row that :func:`read_decision_log` would refuse
    raises :class:`DataError` naming ``path:line``, and nothing is
    written."""
    columns = {name: decisions[name].tolist() for name in DECISION_COLUMNS}
    atomic_write_text(path, record_text(DECISION_FORMAT, columns, path))


def read_decision_log(path: str | Path) -> np.ndarray:
    """Read a decision log back as a ``DECISION_DTYPE`` array; a row that
    :func:`write_decision_log` cannot have written raises
    :class:`DataError` naming ``path:line``."""
    columns, _ = read_records(path, DECISION_FORMAT)
    return np.array(list(zip(*columns.values())), dtype=DECISION_DTYPE)


def metrics_wide_text(report: MetricsReport, alphas: Sequence[float]) -> str:
    """Tables-style wide text: metric rows, one column per level, cells mean±std."""
    aggregate = report.aggregate()
    gated_modes = dict.fromkeys(mode for mode, alpha in aggregate if alpha is not None)
    rows = []
    for mode in gated_modes:
        for attr, name, _ in METRIC_FIELDS:
            row = [mode, name]
            for alpha in alphas:
                stats = aggregate.get((mode, float(alpha)))
                row.append("" if stats is None else "{!r}±{!r}".format(*stats[attr]))
            rows.append(row)
    return csv_text(["variant", "metric"] + [f"alpha={a:g}" for a in alphas], rows)


def _makes_variant(mode: str, alpha: float | None) -> bool:
    try:
        FilterVariant(mode, alpha)
    except ConfigurationError:
        return False
    return True


def _finite_or_nan(values, nan_ok) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.isfinite(values) | (np.isnan(values) & np.asarray(nan_ok, dtype=bool))


# ``metrics_long.csv``'s columns are the ``RunMetrics`` fields.  A row's
# (mode, level) makes a ``FilterVariant`` and its seed is a study's; NaN
# stands only where a run writes it: both error percentages of a collapsed
# run, and the MAPE of a run with no decisions (a run with no assimilated
# steps has no MAPE).
METRICS_LONG_FORMAT = RecordFormat(
    "metrics",
    tuple(zip((f.name for f in fields(RunMetrics)), (TEXT, LEVEL, *[INT] * 5, FLOAT, FLOAT, FLAG))),
    (
        one_of("mode", MODES),
        Rule(
            "alpha", "be empty for the ungated mode and lie in (0, 1) for a gated one",
            lambda c: list(map(_makes_variant, c["mode"], c["alpha"])),
        ),
        int_range("seed", 0, 2**64),
        *(int_range(name, 0, 2**63) for name in ("tp", "fp", "tn", "fn")),
        Rule(
            "labeling_error_pct", "be finite, or nan in a collapsed run",
            lambda c: _finite_or_nan(c["labeling_error_pct"], c["collapsed"]),
        ),
        Rule(
            "mape_pct", "be finite, or nan in a collapsed run or one with no decisions",
            lambda c: _finite_or_nan(c["mape_pct"], [
                collapsed or not any(counts)
                for collapsed, *counts in zip(c["collapsed"], c["tp"], c["fp"], c["tn"], c["fn"])
            ]),
        ),
    ),
)
METRICS_LONG_COLUMNS = METRICS_LONG_FORMAT.columns


def write_metrics_long(path: str | Path, report: MetricsReport) -> None:
    """Write the report's runs atomically in ``METRICS_LONG_FORMAT``, one
    row per run; a row that :func:`read_metrics_long` would refuse raises
    :class:`DataError` naming ``path:line``, and nothing is written."""
    columns = {name: [getattr(run, name) for run in report.runs] for name in METRICS_LONG_COLUMNS}
    atomic_write_text(path, record_text(METRICS_LONG_FORMAT, columns, path))


def read_metrics_long(path: str | Path) -> MetricsReport:
    """Read ``metrics_long.csv`` back; a row that :func:`write_metrics_long`
    cannot have written raises :class:`DataError` naming ``path:line``."""
    columns, _ = read_records(path, METRICS_LONG_FORMAT)
    return MetricsReport(runs=[RunMetrics(*run) for run in zip(*columns.values())])
