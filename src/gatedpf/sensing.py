"""Synthetic sensing for the freeway testbed.

Generates loop-detector density measurements and per-vehicle speed reports
from a simulated ground truth, injects labeled faults into the speed
reports, and evaluates the measurement models the statistical gates test:
for the M measurements of one step, the null model's residuals and log
densities as (M, P) arrays over the particles, read straight off the
ensemble's (L, P) density block (link-major, particle axis last), and the
fault models' log densities, which do not depend on the state, as (M,)
arrays.

Speed reports imitate third-party probe data: each vehicle on a link
reports its speed with a fixed penetration probability, corrupted by
relative Gaussian noise.  A faulty report is either an exact zero (a
stopped vehicle misreporting its motion) or a draw from a broad Gaussian
truncated at zero; the ground-truth ``faulty`` flag is recorded with every
measurement so detection quality can be scored exactly.  A log is one
column type, :class:`MeasurementLog`, from the generator through the CSV
file to :func:`~gatedpf.harness.compile_log`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy.special import ndtr

from .buffers import StepBuffers
from .ctm import FreewayNetwork, LinkPlan, speed_map
from .errors import ConfigurationError, ContractViolation, ModelConsistencyError
from .fileio import (
    FLAG,
    FLOAT,
    INT,
    TEXT,
    RecordFormat,
    Rule,
    atomic_write_text,
    int_range,
    one_of,
    read_records,
    record_text,
)
from .rng import RandomSource

LOOP_DENSITY = "loop_density"
GNSS_SPEED = "gnss_speed"
MEASUREMENT_KINDS = (LOOP_DENSITY, GNSS_SPEED)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _nonnegative(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.isfinite(values) & (values >= 0.0)


# The measurement log's columns; a step and a link are 64-bit integers, and
# a value is a density or a speed: finite and nonnegative.
MEASUREMENT_FORMAT = RecordFormat(
    "measurement log",
    (
        ("k", INT), ("sensor_id", TEXT), ("kind", TEXT), ("link", INT), ("value", FLOAT),
        ("faulty", FLAG),
    ),
    (
        int_range("k", -(2**63), 2**63),
        int_range("link", -(2**63), 2**63),
        one_of("kind", MEASUREMENT_KINDS),
        Rule("value", "be finite and nonnegative", lambda c: _nonnegative(c["value"])),
    ),
)
MEASUREMENT_COLUMNS = MEASUREMENT_FORMAT.columns


def gaussian_log_pdf(value, mean, std):
    return _log_pdf_of_z(_residual(value, mean, std), std)


# A reading no Gaussian explains is no numerical error: a residual past the
# float range is infinite, and one too large to square has log density
# -inf, both without a warning.  Given ``out`` (and ``log_std``), each
# operation writes in place; the operations and their order are those of
# ``(value - mean) / std`` and ``-0.5 * z * z - log(std) - log(sqrt(2 pi))``.
def _residual(value, mean, std, out=None):
    with np.errstate(over="ignore"):
        return np.divide(np.subtract(value, mean, out=out), std, out=out)


def _log_pdf_of_z(z, std, out=None, log_std=None):
    with np.errstate(over="ignore"):
        log_pdf = np.multiply(np.multiply(-0.5, z, out=out), z, out=out)
        log_pdf = np.subtract(log_pdf, np.log(std, out=log_std), out=out)
        return np.subtract(log_pdf, _LOG_SQRT_2PI, out=out)


@dataclass(frozen=True)
class LoopDetectors:
    """The loop detectors, one on each of ``links``, with one noise model:
    Gaussian noise relative to the true density, whose null model's std is
    floored at ``min_std``."""

    links: tuple[int, ...]
    noise_frac: float = 0.10
    min_std: float = 0.002

    def __post_init__(self) -> None:
        if self.noise_frac < 0.0:
            raise ConfigurationError("loop detector noise must be nonnegative")
        if self.min_std <= 0.0:
            raise ConfigurationError("loop detector min_std must be positive")

    @property
    def std_rule(self) -> tuple[float, float]:
        """``(frac, floor)`` of the null model's std, ``max(frac * density,
        floor)``."""
        return self.noise_frac, self.min_std


@dataclass(frozen=True)
class GnssSpec:
    """Probe-vehicle speed reporting parameters."""

    penetration: float = 0.02
    noise_frac: float = 0.20
    min_std: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 <= self.penetration <= 1.0):
            raise ConfigurationError("penetration must be in [0, 1]")
        if self.noise_frac < 0.0:
            raise ConfigurationError("speed noise fraction must be nonnegative")
        if self.min_std <= 0.0:
            raise ConfigurationError("speed model min_std must be positive")


# Least mass the fault Gaussian may keep above zero.  The generator draws it
# by rejection, so this bounds the expected draws per fault to 1 / mass.
MIN_FAULT_MASS = 1e-3


@dataclass(frozen=True)
class FaultConfig:
    """Per-measurement fault mixture for speed reports."""

    probability: float = 0.30
    zero_weight: float = 1.0 / 3.0
    speed_mean: float = 30.0
    speed_std: float = 10.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ConfigurationError("fault probability must be in [0, 1]")
        if not (0.0 <= self.zero_weight <= 1.0):
            raise ConfigurationError("zero-fault mixture weight must be in [0, 1]")
        if self.speed_std <= 0.0:
            raise ConfigurationError("fault speed std must be positive")
        mass = float(ndtr(self.speed_mean / self.speed_std))
        if not mass >= MIN_FAULT_MASS:
            raise ConfigurationError(
                f"fault speed Gaussian keeps mass {mass:.3g} above zero "
                f"(speed_mean={self.speed_mean}, speed_std={self.speed_std}); "
                f"at least {MIN_FAULT_MASS:g} is required"
            )


@dataclass(frozen=True, eq=False)
class MeasurementLog:
    """A measurement log as columns, one row per measurement in log order.

    ``steps`` and ``links`` (integers), ``sensor_ids`` (object), ``speed``
    (bool: a probe speed report, the file's ``gnss_speed`` kind, where
    ``False`` is a loop density reading), ``values`` (float) and ``faulty``
    (bool, the ground-truth label).  ``source`` and ``lines`` name the file
    a log was read from and each row's line in it, so that a row the
    scenario check refuses is named ``path:line``; both are ``None`` for a
    log built in memory.
    """

    steps: np.ndarray
    sensor_ids: np.ndarray
    speed: np.ndarray
    links: np.ndarray
    values: np.ndarray
    faulty: np.ndarray
    source: str | None = None
    lines: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name, dtype in (
            ("steps", np.intp), ("sensor_ids", object), ("speed", bool),
            ("links", np.intp), ("values", float), ("faulty", bool),
        ):
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.shape != (len(self.steps),):
                raise ContractViolation(
                    f"log column {name!r} has shape {column.shape}, expected ({len(self.steps)},)"
                )
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.steps)


def vehicle_counts(state: np.ndarray, network: FreewayNetwork) -> np.ndarray:
    """Integer vehicles per link: density times length, rounded to nearest.
    ``state`` is one state (L,) or one state per row (K, L)."""
    return np.rint(np.asarray(state, dtype=float) * network.lengths[:, 0]).astype(int)


def sample_loop_detectors(states: np.ndarray, loops: LoopDetectors, rng: RandomSource) -> np.ndarray:
    """One noisy density reading per detector for each state row of the
    (K, L) ``states``: a (K, len(loops.links)) block from one normal draw of
    that shape, clamped to nonnegative."""
    true = np.asarray(states, dtype=float)[:, list(loops.links)]
    values = true + loops.noise_frac * true * rng.normal(size=true.shape)
    # Unlike np.maximum(0.0, values), never writes a -0.0.
    return np.where(values > 0.0, values, 0.0)


def sample_gnss_speeds(
    true_speeds: np.ndarray,
    counts: np.ndarray,
    spec: GnssSpec,
    rng: RandomSource,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-vehicle speed reports of one step at the configured penetration rate.

    Each of ``counts[l]`` vehicles on link ``l`` reports independently with
    probability ``penetration``; a report is the true link speed plus
    relative Gaussian noise, clamped to nonnegative.  Returns the reporting
    vehicles per link (L,) and their reports in link order, whose noise is
    one normal draw over all of them.
    """
    reporting = rng.binomial(np.maximum(counts, 0), spec.penetration)
    speed = np.repeat(np.asarray(true_speeds, dtype=float), reporting)
    noise = rng.normal(0.0, 1.0, size=speed.size)
    return reporting, np.maximum(0.0, speed + spec.noise_frac * speed * noise)


def inject_faults(log: MeasurementLog, config: FaultConfig, rng: RandomSource) -> MeasurementLog:
    """Independently replace speed reports with faulty values.

    With probability ``config.probability`` a speed report becomes faulty:
    an exact zero with mixture weight ``zero_weight``, otherwise a draw
    from the truncated (resampled above zero) fault Gaussian.  Speed
    reports draw in log order; loop readings pass through untouched.
    Labels record exactly which values were replaced, so a zero value
    identifies a stopped-car fault.
    """
    if config.probability == 0.0:
        return log
    values, faulty = log.values.copy(), log.faulty.copy()
    for i in np.flatnonzero(log.speed).tolist():
        if rng.random() >= config.probability:
            continue
        if rng.random() < config.zero_weight:
            value = 0.0
        else:
            value = float(rng.normal(config.speed_mean, config.speed_std))
            while value <= 0.0:
                value = float(rng.normal(config.speed_mean, config.speed_std))
        values[i], faulty[i] = value, True
    return replace(log, values=values, faulty=faulty)


@dataclass(frozen=True, eq=False)
class CompiledLog:
    """A checked measurement log as whole-log columns in step order, for
    filter runs of ``horizon`` steps on ``network``.

    The rows are the log's measurements ordered by step (stable: a step
    keeps its measurements' order), and every column follows that order.
    ``offsets`` (K + 1, 2) locates each step: the rows of step ``k`` are
    ``offsets[k, 0]:offsets[k + 1, 0]`` of the row columns and its speed
    reports ``offsets[k, 1]:offsets[k + 1, 1]`` of the speed columns;
    :meth:`step` gives the two slices.

    Row columns (N,): ``sensor_ids`` (object), ``links``, ``values`` and
    ``std_rules`` (2, N), each row's null-model std rule ``(frac,
    floor)``.  Speed columns (S,), one entry per speed report:
    ``speed_index``, its index among the rows; ``speed_plan``, one
    :class:`~gatedpf.ctm.LinkPlan` built from ``network``'s constants,
    whose position j is report j's link; ``decisions``, read-only, its
    gate decision record with its step, sensor id, link and ground-truth
    label filled in; and ``fault_log_g1``, each likelihood-ratio mode's
    fault log density.
    """

    horizon: int
    network: FreewayNetwork
    offsets: np.ndarray
    sensor_ids: np.ndarray
    links: np.ndarray
    values: np.ndarray
    std_rules: np.ndarray
    speed_index: np.ndarray
    speed_plan: LinkPlan
    decisions: np.ndarray
    fault_log_g1: Mapping[str, np.ndarray]

    @property
    def n_links(self) -> int:
        return self.network.n_links

    def step(self, k: int) -> tuple[slice, slice]:
        """The slices of step ``k``'s rows and speed reports."""
        (r0, s0), (r1, s1) = self.offsets[k : k + 2].tolist()
        return slice(r0, r1), slice(s0, s1)


def measurement_rows(
    log: CompiledLog,
    step: tuple[slice, slice],
    particles: np.ndarray,
    ramp_means: np.ndarray,
    work: StepBuffers,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standardized residuals and null log densities of a step's
    measurements against an (L, P) block; ``step`` is the step's slices,
    ``log.step(k)``.

    Returns ``z`` (M, P), the residuals ``(value - mean) / std``; ``log_g0``
    (M, P), the null Gaussian log density ``-z^2 / 2 - log(std) -
    log(sqrt(2 pi))`` computed from the same ``z``; and ``tested``, the
    positions of the speed rows among the step's rows.  ``z`` and
    ``log_g0`` are views of ``work.mean`` and ``work.log_density``.  A loop
    row's mean is each particle's density on its link; a speed row's mean
    is each particle's predicted speed on its link, one row of
    :func:`~gatedpf.ctm.speed_map` on ``log.network`` at the onramp demands
    ``ramp_means``, evaluated on the step's slice of ``log.speed_plan``.  A
    row's std is its rule's ``max(frac * mean, floor)``, and a std that is
    not positive raises :class:`ModelConsistencyError`.  A block whose link
    count is not the log's raises :class:`ConfigurationError`.
    """
    if particles.shape[0] != log.n_links:
        raise ConfigurationError(
            f"log compiled for {log.n_links} links, particles have {particles.shape[0]}"
        )
    rows, speeds = step
    n_rows = rows.stop - rows.start
    # compile_log checked every link against the log's n_links, which the
    # block matches, so a clipping take (which writes its out block
    # directly) gathers the rows a raising one would.
    mean = np.take(particles, log.links[rows], axis=0, out=work.mean[:n_rows], mode="clip")
    tested = log.speed_index[speeds] - rows.start
    if tested.size:
        plan = LinkPlan(*[column[speeds] for column in log.speed_plan])
        mean[tested] = speed_map(particles, log.network, plan, ramp_means, work)
    frac, floor = log.std_rules[:, rows, None]
    std = np.multiply(frac, mean, out=work.std[:n_rows])
    np.maximum(std, floor, out=std)
    if not np.all(std > 0.0):
        raise ModelConsistencyError("null-model std must be positive")
    # z over the means, then log(std) over the stds.
    z = _residual(log.values[rows, None], mean, std, out=mean)
    return z, _log_pdf_of_z(z, std, out=work.log_density[:n_rows], log_std=std), tested


def fault_log_density(
    values: np.ndarray, mode: str, fault_config: FaultConfig, zero_std: float
) -> np.ndarray:
    """Fault-model log density of each value; it does not depend on the state.

    ``np_correct`` uses the generator's fault mixture: a narrow Gaussian of
    std ``zero_std`` standing in for the point mass at zero, mixed with the
    fault Gaussian truncated to nonnegative values.  ``np_incorrect`` uses
    that narrow Gaussian alone, which selects stopped-vehicle reports but
    gives moderate speeds essentially no density, so broad random faults
    slip through.
    """
    values = np.asarray(values, dtype=float)
    near_zero = gaussian_log_pdf(values, 0.0, zero_std)
    if mode == "np_incorrect":
        return near_zero
    if mode != "np_correct":
        raise ConfigurationError(f"hypothesis mode {mode!r} has no fault model")
    c = fault_config
    log_zero = math.log(c.zero_weight) if c.zero_weight > 0.0 else -math.inf
    log_rand = math.log(1.0 - c.zero_weight) if c.zero_weight < 1.0 else -math.inf
    # Mass of the fault Gaussian above zero, for the truncation constant.
    log_trunc = math.log(float(ndtr(c.speed_mean / c.speed_std)))
    comp_rand = log_rand + gaussian_log_pdf(values, c.speed_mean, c.speed_std) - log_trunc
    return np.logaddexp(log_zero + near_zero, np.where(values >= 0.0, comp_rand, -math.inf))


def write_measurement_log(path: str | Path, log: MeasurementLog) -> None:
    """Write the measurement log atomically in ``MEASUREMENT_FORMAT``; a
    row that :func:`read_measurement_log` would refuse raises
    :class:`DataError` naming ``path:line``, and nothing is written."""
    columns = {
        "k": log.steps.tolist(), "sensor_id": log.sensor_ids.tolist(),
        "kind": list(map(MEASUREMENT_KINDS.__getitem__, log.speed.tolist())),
        "link": log.links.tolist(), "value": log.values.tolist(), "faulty": log.faulty.tolist(),
    }
    atomic_write_text(path, record_text(MEASUREMENT_FORMAT, columns, path))


def read_measurement_log(path: str | Path) -> MeasurementLog:
    """Read a measurement log back; a row that :func:`write_measurement_log`
    cannot have written (an unknown kind, a step or link outside the 64-bit
    integers, a value that is not finite and nonnegative, a faulty label
    other than 0 or 1, a number in another form than its writer's text)
    raises :class:`DataError` naming ``path:line``.  Whether the rows fit a
    scenario is :func:`~gatedpf.harness.compile_log`'s check, which names
    the row's line the same way."""
    columns, lines = read_records(path, MEASUREMENT_FORMAT)
    return MeasurementLog(
        columns["k"], columns["sensor_id"],
        np.array(columns["kind"], dtype=object) == GNSS_SPEED, columns["link"], columns["value"],
        columns["faulty"], source=str(Path(path)), lines=np.array(lines, dtype=np.intp),
    )
