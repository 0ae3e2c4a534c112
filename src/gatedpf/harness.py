"""End-to-end experiment orchestration for the freeway testbed.

A study maps one seed's run (:func:`run_seed`) over its seeds: a seed's
truth run, its labeled measurements (loop densities plus fault-injected
speed reports), and the gated particle filter run for each (test mode,
level) variant against that log; ``gatedpf simulate`` builds a seed's
truth and log on the same path, :func:`simulate_seed`.  The seeds are
independent, so the map (:func:`map_seeds`) may share them out over
processes; the caller merges in seed order.  The log is
checked and compiled once per seed (:func:`compile_log`) into step-ordered
columns that every variant's filter run reads; a run keeps its gate
outcomes, which its decision log joins to the log's and the variant's
columns (:func:`decision_columns`).  Detection quality is scored as a
confusion matrix over the gate decisions; estimation quality as the mean
absolute percentage error of the posterior-mean density trajectory.

A variant whose filter run would repeat a finished run of its seed bit for
bit takes that run's results instead of filtering again.  Both gates'
statistics are level-free, and the level only thresholds them
(:func:`~gatedpf.gates.level_rule`).  Two levels of one test mode that
decide every recorded row alike therefore run the same filter, by
induction over the steps: from the same prior and the same demand draws,
both compute the same statistics, take the same test outcomes and reject
the same rows (the ``unexplained`` rule does not read the level), so they
reach the same posterior, effective sample size, resample draws and next
prior.  The finished run's gate outcomes hold each row's statistic and
auxiliary and no level, so the variant takes the run's result itself.

Randomness is organized into named streams off each seed, so the truth,
the sensing noise, the fault draws, and the filter's own model noise are
independent and individually reproducible.  All filter variants of one
seed share identical truth, measurements, and filter streams, which makes
metric columns directly comparable across test modes and levels.
"""
from __future__ import annotations

import itertools
import logging
import multiprocessing
import os
import signal
import sys
from dataclasses import astuple, dataclass, fields
from functools import cached_property
from multiprocessing.connection import wait
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

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
from .errors import ConfigurationError, DataError, WeightCollapseError, WorkerError
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

T = TypeVar("T")

# numpy shapes an array only while its size in bytes fits a signed
# pointer-sized integer (2**63 - 1 on 64-bit builds): the most float64
# elements one array can hold.
_MAX_FLOATS = np.iinfo(np.intp).max // np.dtype(float).itemsize

# The decision log's columns, and those a run holds for each speed report.
DECISION_COLUMNS = ("k", "sensor_id", "link", "test_kind", "statistic", "alpha", "rejected", "auxiliary", "faulty")
GATE_DTYPE = np.dtype([("statistic", float), ("auxiliary", float), ("rejected", bool), ("faulty", bool)])

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
        if len(self.schedule.onramps) != len(self.network.onramp_links):
            raise ConfigurationError(
                f"schedule: has {len(self.schedule.onramps)} onramp profiles, but the network "
                f"has {len(self.network.onramp_links)} onramp links"
            )
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
        # And the measurement log's columns: a step holds one reading per
        # loop detector and at most one report per vehicle (a binomial draw
        # never exceeds its count), and a link holds at most its jam count.
        per_step = len(self.loops.links) + sum(round(l.rho_jam * l.length) for l in self.network.links)
        if (self.horizon - 1) * per_step > _MAX_FLOATS:
            raise ConfigurationError(
                f"horizon: must be at most {_MAX_FLOATS // per_step + 1}, the longest horizon whose "
                f"measurement log numpy can shape: a step may hold {per_step} rows, one per loop "
                "detector and one per vehicle of each link at its jam density"
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
        """``schedule.table(range(horizon), network.dt)``, read-only: the
        demand draws and the speed map's onramp means of every filter run
        read it."""
        table = self.schedule.table(range(self.horizon), self.network.dt)
        table.setflags(write=False)
        return table


@dataclass
class FilterRunResult:
    """Posterior-mean trajectory and gate decisions of one filter run.

    ``estimates`` has one row per assimilated step, k = 1 .. horizon - 1.
    ``decisions`` is a ``GATE_DTYPE`` array, one element per speed report
    of the log for a gated run and none for the ungated run.  Both arrays
    are read-only: a variant that takes the run shares them.
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
    ``labels`` entry, which each gated run copies; the fault log densities
    of the likelihood-ratio modes are evaluated once for the whole log.
    """
    _check_log(config, log)
    order = np.argsort(log.steps, kind="stable")
    steps, sensor_ids, links, values, is_speed = (
        log.steps[order], log.sensor_ids[order], log.links[order], log.values[order], log.speed[order]
    )
    rule_table = np.array([(s.noise_frac, s.min_std) for s in (config.loops, config.gnss_spec)]).T

    speed = np.flatnonzero(is_speed)
    bounds = np.arange(config.horizon + 1)
    offsets = np.stack([np.searchsorted(steps, bounds), np.searchsorted(steps[speed], bounds)], axis=1)
    labels = np.zeros(len(speed), GATE_DTYPE)
    labels["faulty"] = log.faulty[order[speed]]
    labels.setflags(write=False)
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
        labels=labels,
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
    ``labels`` and writes each step's gate outcomes through the step's
    speed slice (see :class:`FilterRunResult`).
    """
    log = measurements if isinstance(measurements, CompiledLog) else compile_log(config, measurements)
    if log.horizon != config.horizon or log.network != config.network:
        other = "" if log.network == config.network else " of another network"
        raise ConfigurationError(
            f"measurement log compiled for horizon {log.horizon} on {log.network.n_links} links, "
            f"but the scenario has horizon {config.horizon} on {config.network.n_links} links{other}"
        )
    ensemble = ParticleEnsemble.from_states(
        np.repeat(config.initial_state[:, None], config.particles, axis=1)
    )
    rng_demand = rng.derive(STREAM_FILTER_DEMAND)
    rng_resample = rng.derive(STREAM_FILTER_RESAMPLE)
    estimates = np.empty((config.horizon - 1, config.network.n_links))
    decisions = np.empty(0, GATE_DTYPE) if variant.kind is None else log.labels.copy()
    work = step_buffers(config, log)
    for k in range(1, config.horizon):
        step = log.step(k)
        ensemble, estimates[k - 1], gate = filter_step(
            config, log, variant, ensemble, k, step, rng_demand, rng_resample, work
        )
        if gate is not None:
            decided = decisions[step[1]]
            decided["statistic"], decided["auxiliary"], decided["rejected"] = gate
    for array in (estimates, decisions):
        array.setflags(write=False)
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
    """Score gate decisions (``rejected`` and ``faulty`` columns) against
    their ground-truth labels.  A positive is a rejection."""
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


def mape(pair: TrajectoryPair, floor: float) -> float:
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


@dataclass(frozen=True)
class SeedRun:
    """What one seed delivers: its truth, its log and the log compiled from
    it, and per variant in config order the run's result (``None`` for a
    collapse; a taken run's is its base run's) and the run's metrics."""

    seed: int
    truth: Trajectory
    measurements: MeasurementLog
    log: CompiledLog
    results: tuple[FilterRunResult | None, ...]
    metrics: tuple[RunMetrics, ...]


def _shared_run(
    variant: FilterVariant, runs: Iterable[tuple[FilterVariant, FilterRunResult | None]]
) -> tuple[FilterVariant, FilterRunResult] | None:
    """The first of a seed's finished ``runs`` that ``variant``'s filter run
    would repeat bit for bit, with its result; or ``None``.

    A run qualifies when it has the variant's test mode and its recorded
    statistics give the same test outcome on every row at both levels (see
    the module docstring): the variant takes its result object itself,
    whose arrays are read-only and hold no level.  A taken run decides as
    its base, which comes first; collapsed and ungated runs are skipped.
    """
    for base, result in runs:
        if base.mode != variant.mode or base.kind is None or result is None:
            continue
        statistic, auxiliary = result.decisions["statistic"], result.decisions["auxiliary"]
        if np.array_equal(
            level_rule(variant.kind, statistic, auxiliary, base.alpha),
            level_rule(variant.kind, statistic, auxiliary, variant.alpha),
        ):
            return base, result
    return None


def run_seed(config: ExperimentConfig, seed: int) -> SeedRun:
    """One seed of the study: its truth, its log checked and compiled once
    (:func:`compile_log`), and every variant's run on it.  A gated variant
    takes a finished run of its mode that decides every recorded row alike
    at both levels (:func:`_shared_run`) and logs one ``INFO`` record naming
    it; any other runs :func:`run_traffic_filter`.  A weight collapse leaves
    no result and all-NaN metrics with ``collapsed`` set; the variants after
    it still run."""
    truth, measurements = simulate_seed(config, seed)
    log = compile_log(config, measurements)
    results, metrics = [], []
    for variant in config.variants:
        shared = _shared_run(variant, zip(config.variants, results))
        if shared is not None:
            taken, result = shared
            logger.info("seed %d: %s takes the run of %s", seed, variant.label, taken.label)
        else:
            try:
                result = run_traffic_filter(config, log, variant, RandomSource(seed))
            except WeightCollapseError:
                nan = float("nan")
                results.append(None)
                metrics.append(RunMetrics(variant.mode, variant.alpha, seed, 0, 0, 0, 0, nan, nan, True))
                continue
        results.append(result)
        counts = confusion_metrics(result.decisions)
        error = mape(TrajectoryPair(truth.states[1 : config.horizon], result.estimates), floor=config.mape_floor)
        metrics.append(
            RunMetrics(variant.mode, variant.alpha, seed, *astuple(counts), counts.labeling_error_pct, error)
        )
    return SeedRun(seed, truth, measurements, log, tuple(results), tuple(metrics))


def run_experiment(config: ExperimentConfig) -> MetricsReport:
    """Full study: the metrics of :func:`run_seed` over ``config.seeds``, in
    seed, then variant, order."""
    return MetricsReport(runs=[m for seed in config.seeds for m in run_seed(config, seed).metrics])


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


class _Share(NamedTuple):
    """What one process's share of a seed map delivers: each finished
    seed's result, the records each seed emitted on :data:`logger` (the
    failing seed's too), in share order, and the first failure as
    (position in the share, exception), or ``None``."""

    results: list
    records: list[list[logging.LogRecord]]
    failure: tuple[int, BaseException] | None


def _run_share(work: Callable[[int], T], seeds: Sequence[int]) -> _Share:
    """``work(seed)`` for each seed in order, holding the records emitted on
    :data:`logger`, until a seed raises an :class:`Exception`."""
    held: list[logging.LogRecord] = []

    def hold(record: logging.LogRecord) -> bool:
        held.append(record)
        return False  # not handled here

    share = _Share([], [], None)
    logger.addFilter(hold)
    try:
        for position, seed in enumerate(seeds):
            try:
                share.results.append(work(seed))
            except Exception as exc:
                share = share._replace(failure=(position, exc))
                break
            finally:
                share.records.append(held.copy())
                held.clear()
    finally:
        logger.removeFilter(hold)
    return share


def _stop(signum, frame) -> None:
    """End a worker at its next bytecode, unwinding its ``finally`` blocks;
    a stop sent again finds it ending and is ignored."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise SystemExit(128 + signum)


def _worker(work: Callable[[int], T], seeds: Sequence[int], connection) -> None:
    """A forked worker's share of a seed map, sent through ``connection``.
    The caller stops the workers on an interrupt, so a worker ignores it;
    ``SIGTERM`` stops a worker as an exception, so that a file it was
    writing removes its temporary sibling."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, _stop)
    connection.send(_run_share(work, seeds))


def map_seeds(work: Callable[[int], T], seeds: Sequence[int], jobs: int) -> list[T]:
    """``[work(seed) for seed in seeds]`` on up to ``jobs`` processes.

    The map uses n = min(``jobs``, :func:`available_cpus`, seeds) processes:
    the calling process runs ``seeds[0::n]`` itself, and n - 1 workers
    forked from it run ``seeds[i::n]``.  Each share holds the records its
    seeds emit on :data:`logger`, and a worker sends them back with its
    results through a pipe.  The caller then handles every seed's records
    in seed order, so the results and the records are the loop's for any
    ``jobs``.  With n = 1, or where the ``fork`` start method is
    unavailable, the map is the loop.

    A share stops at its first seed that raises.  The caller then stops
    every worker it has not heard from, joins them all, handles the
    records in seed order up to the earliest failing seed it saw (that
    seed's included) or up to the first seed of a share it did not
    receive, and raises that seed's exception; a worker that ended without
    sending its result fails as :class:`WorkerError`.  When every seed
    before the failing one was received, the records are the loop's.  On
    an interrupt, too, every worker is stopped and joined before the map
    returns.
    """
    seeds = list(seeds)
    n = min(jobs, available_cpus(), len(seeds))
    if n <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [work(seed) for seed in seeds]
    # A worker starts with a copy of the caller's buffers: empty them first.
    sys.stdout.flush()
    sys.stderr.flush()
    context = multiprocessing.get_context("fork")
    workers = {}  # receiving end -> (share index, process)
    shares: dict[int, _Share] = {}
    try:
        for i in range(1, n):
            receive, send = context.Pipe(duplex=False)
            process = context.Process(target=_worker, args=(work, seeds[i::n], send))
            process.start()
            send.close()
            workers[receive] = (i, process)
        shares[0] = _run_share(work, seeds[0::n])
        pending = list(workers)
        while pending:
            failed = any(share.failure for share in shares.values())
            ready = wait(pending, timeout=0 if failed else None)
            for receive in ready:
                pending.remove(receive)
                i, process = workers[receive]
                try:
                    shares[i] = receive.recv()
                except EOFError:
                    process.join()
                    lost = WorkerError(
                        f"the worker for seeds {seeds[i::n]} ended without a result "
                        f"(exit code {process.exitcode})"
                    )
                    shares[i] = _Share([], [], (0, lost))
            if failed:
                break
    finally:
        for receive, (i, process) in workers.items():
            # A stop that arrives just before a blocking call is handled
            # only when the call returns, so it is sent until the worker ends.
            while i not in shares and process.exitcode is None:
                process.terminate()
                process.join(0.1)
            process.join()
            receive.close()
    results, records = {}, {}  # seed index -> what its share delivered
    for i, share in shares.items():
        results.update(zip(range(i, len(seeds), n), share.results))
        records.update(zip(range(i, len(seeds), n), share.records))
    failures = {i + n * share.failure[0]: share.failure[1] for i, share in shares.items() if share.failure}
    last = min(failures, default=len(seeds) - 1)
    # The loop's records up to the earliest failing seed (its own included),
    # or up to the first seed whose share was not received.
    for index in itertools.takewhile(records.__contains__, range(last + 1)):
        for record in records[index]:
            logger.handle(record)
    if failures:
        raise failures[last]
    return [results[index] for index in range(len(seeds))]


def _in_open_unit(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return (0.0 < values) & (values < 1.0)


# A gate's statistic and auxiliary may be infinite (a residual too large to
# hold, a null mass that overflows), never NaN; the level is a gated
# variant's.
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


def decision_columns(log: CompiledLog, variant: FilterVariant, decisions: np.ndarray) -> dict:
    """The decision log of a run of ``variant`` over ``log`` with gate
    outcomes ``decisions``: each speed report's step, sensor id and link,
    the variant's test and level, and the run's columns."""
    n = len(decisions)  # every speed report in a gated run, none in the ungated run
    speed = log.speed_index[:n]
    return {
        "k": np.repeat(np.arange(log.horizon), np.diff(log.offsets[:, 1]))[:n],
        "sensor_id": log.sensor_ids[speed],
        "link": log.links[speed],
        "test_kind": np.full(n, variant.kind and variant.kind.value, dtype=object),
        "alpha": np.full(n, variant.alpha),
        **{name: decisions[name] for name in GATE_DTYPE.names},
    }


def write_decision_log(path: str | Path, columns: Mapping[str, Sequence]) -> None:
    """Write decision-log columns (name -> one value per row, as
    :func:`decision_columns` joins or :func:`read_decision_log` reads)
    atomically in ``DECISION_FORMAT``; a row that :func:`read_decision_log`
    would refuse raises :class:`DataError` naming ``path:line``, and
    nothing is written."""
    columns = {name: np.asarray(columns[name]).tolist() for name in DECISION_COLUMNS}
    atomic_write_text(path, record_text(DECISION_FORMAT, columns, path))


def read_decision_log(path: str | Path) -> dict[str, np.ndarray]:
    """Read a decision log back as its columns, one array each, which
    :func:`write_decision_log` writes to the same bytes; a row that it
    cannot have written raises :class:`DataError` naming ``path:line``."""
    columns, _ = read_records(path, DECISION_FORMAT)
    types = {INT: np.int64, TEXT: object, FLOAT: float, FLAG: bool}
    return {name: np.array(columns[name], types[kind]) for name, kind in DECISION_FORMAT.fields}


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
