"""Synthetic sensing for the freeway testbed.

Generates loop-detector density measurements and per-vehicle speed reports
from a simulated ground truth, injects labeled faults into the speed
reports, and evaluates the measurement models the statistical gates test:
for the M measurements of one step, the null model's moments, residuals and
log densities as (M, P) arrays over the particles, read straight off the
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
from typing import Mapping, Sequence

import numpy as np
from scipy.special import ndtr

from .ctm import FreewayNetwork, speed_map
from .errors import ConfigurationError, ContractViolation, ModelConsistencyError
from .fileio import _flag, atomic_write_text, csv_text, read_csv_rows
from .rng import RandomSource

LOOP_DENSITY = "loop_density"
GNSS_SPEED = "gnss_speed"
MEASUREMENT_KINDS = (LOOP_DENSITY, GNSS_SPEED)

HYPOTHESIS_MODES = ("none", "fisher", "np_correct", "np_incorrect")
# The modes whose gate is the likelihood-ratio test against a fault model.
LIKELIHOOD_RATIO_MODES = ("np_correct", "np_incorrect")

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

MEASUREMENT_COLUMNS = ("k", "sensor_id", "kind", "link", "value", "faulty")


def gaussian_log_pdf(value, mean, std):
    return _log_pdf_of_z(_residual(value, mean, std), std)


# A reading no Gaussian explains is no numerical error: a residual past the
# float range is infinite, and one too large to square has log density
# -inf, both without a warning.
def _residual(value, mean, std):
    with np.errstate(over="ignore"):
        return (value - mean) / std


def _log_pdf_of_z(z, std):
    with np.errstate(over="ignore"):
        return -0.5 * z * z - np.log(std) - _LOG_SQRT_2PI


@dataclass(frozen=True)
class LoopDetectorSpec:
    """Loop detector on one link; noise is relative to the true density
    unless an absolute std is given (default: 10% relative)."""

    link: int
    noise_frac: float | None = None
    noise_abs: float | None = None
    min_std: float = 0.002

    def __post_init__(self) -> None:
        if self.noise_frac is not None and self.noise_abs is not None:
            raise ConfigurationError(
                "at most one of noise_frac / noise_abs may be set for a loop detector"
            )
        if self.noise_frac is None and self.noise_abs is None:
            object.__setattr__(self, "noise_frac", 0.10)
        chosen = self.noise_frac if self.noise_frac is not None else self.noise_abs
        if chosen < 0.0:
            raise ConfigurationError("loop detector noise must be nonnegative")
        if self.min_std <= 0.0:
            raise ConfigurationError("loop detector min_std must be positive")

    @property
    def std_rule(self) -> tuple[float, float, float]:
        """``(frac, offset, floor)`` of the null model's std,
        ``max(frac * density + offset, floor)``."""
        if self.noise_abs is not None:
            return 0.0, self.noise_abs, self.min_std
        return self.noise_frac, 0.0, self.min_std


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
    return np.rint(np.asarray(state, dtype=float) * network.lengths).astype(int)


def sample_loop_detectors(
    states: np.ndarray, specs: Sequence[LoopDetectorSpec], rng: RandomSource
) -> np.ndarray:
    """One noisy density reading per detector for each state row of the
    (K, L) ``states``: a (K, len(specs)) block from one (K, len(specs))
    normal draw, clamped to nonnegative."""
    true = np.asarray(states, dtype=float)[:, [spec.link for spec in specs]]
    absolute = np.array([s.noise_abs is not None for s in specs], dtype=bool)
    level = np.array([s.noise_frac if s.noise_abs is None else s.noise_abs for s in specs], dtype=float)
    std = np.where(absolute, level, level * true)
    values = true + std * rng.normal(size=true.shape)
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
    """A checked measurement log as whole-log columns in step order.

    The rows are the log's measurements ordered by step (stable: a step
    keeps its measurements' order), and every column follows that order.
    ``offsets`` (K + 1, 3) locates each step: the rows of step ``k`` are
    ``offsets[k, 0]:offsets[k + 1, 0]`` of the row columns, its speed rows
    ``offsets[k, 1]:offsets[k + 1, 1]`` of the speed columns and its
    distinct speed links ``offsets[k, 2]:offsets[k + 1, 2]`` of
    ``pair_links``.

    Row columns (N,): ``steps``, ``sensor_ids`` (object), ``links``,
    ``values``, ``faulty`` and ``std_rules`` (3, N), each row's null-model
    std rule ``(frac, offset, floor)``.  Speed columns (S,): ``speed_index``,
    each speed row's index among the rows; ``speed_pairs``, its index into
    its step's distinct links; and ``fault_log_g1``, each likelihood-ratio
    mode's fault log density.
    """

    offsets: np.ndarray
    steps: np.ndarray
    sensor_ids: np.ndarray
    links: np.ndarray
    values: np.ndarray
    faulty: np.ndarray
    std_rules: np.ndarray
    speed_index: np.ndarray
    speed_pairs: np.ndarray
    pair_links: np.ndarray
    fault_log_g1: Mapping[str, np.ndarray]

    def step(self, k: int) -> tuple[slice, slice, slice]:
        """The slices of step ``k``'s rows, speed rows and speed links."""
        (r0, s0, p0), (r1, s1, p1) = self.offsets[k : k + 2].tolist()
        return slice(r0, r1), slice(s0, s1), slice(p0, p1)


def measurement_rows(
    log: CompiledLog,
    k: int,
    particles: np.ndarray,
    network: FreewayNetwork,
    ramp_means: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Null-model moments of step ``k``'s measurements against an (L, P) block.

    Returns ``values`` (M,), ``mean`` (M, P), ``std`` (M, P) and ``tested``,
    the positions of the speed rows among the step's rows.  A loop row's
    mean is each particle's density on its link; a speed row's mean is each
    particle's predicted speed on its link, :func:`~gatedpf.ctm.speed_map`
    at the onramp demands ``ramp_means``, evaluated once per distinct link
    of the step.  A row's std is its rule's ``max(frac * mean + offset,
    floor)``.
    """
    rows, speeds, pairs = log.step(k)
    mean = particles[log.links[rows]]
    tested = log.speed_index[speeds] - rows.start
    if tested.size:
        speed = speed_map(particles, network, log.pair_links[pairs], ramp_means)
        mean[tested] = speed[log.speed_pairs[speeds]]
    frac, offset, floor = log.std_rules[:, rows, None]
    std = np.maximum(frac * mean + offset, floor)
    return log.values[rows], mean, std, tested


def standardize(
    values: np.ndarray, mean: np.ndarray, std: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Standardized residuals ``z = (value - mean) / std`` of each row and the
    null Gaussian log density ``-z^2 / 2 - log(std) - log(sqrt(2 pi))``
    computed from the same ``z``."""
    if not np.all(std > 0.0):
        raise ModelConsistencyError("null-model std must be positive")
    z = _residual(np.asarray(values, dtype=float)[:, None], mean, std)
    return z, _log_pdf_of_z(z, std)


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
    """Write the measurement log atomically; column order is fixed and
    documented in ``MEASUREMENT_COLUMNS``."""
    rows = zip(
        log.steps.tolist(), log.sensor_ids.tolist(), map(MEASUREMENT_KINDS.__getitem__, log.speed.tolist()),
        log.links.tolist(), map(repr, log.values.tolist()), map(int, log.faulty.tolist()),
    )
    atomic_write_text(path, csv_text(MEASUREMENT_COLUMNS, rows))


def read_measurement_log(path: str | Path) -> MeasurementLog:
    """Read a measurement log back; a row with an unknown kind, a step or
    link outside the 64-bit integers, a value that is not finite and
    nonnegative, or a faulty label other than 0 or 1 raises
    :class:`DataError` naming ``path:line``.  Whether the rows fit a
    scenario is :func:`~gatedpf.harness.compile_log`'s check, which names
    the row's line the same way."""
    rows, lines = read_csv_rows(path, MEASUREMENT_COLUMNS, "measurement log", _measurement)
    steps, sensor_ids, speed, links, values, faulty = zip(*rows) if rows else ((),) * 6
    return MeasurementLog(
        steps, np.array(sensor_ids, dtype=object), speed, links, values, faulty,
        source=str(Path(path)), lines=np.array(lines, dtype=np.intp),
    )


_INT64 = range(-(2**63), 2**63)


def _measurement(row: list[str]) -> tuple:
    k, sensor_id, kind, link, value = int(row[0]), row[1], row[2], int(row[3]), float(row[4])
    if k not in _INT64 or link not in _INT64:
        raise ValueError(f"step {row[0]!r} or link {row[3]!r} outside the 64-bit integers")
    if kind not in MEASUREMENT_KINDS:
        raise ValueError(f"unknown measurement kind {kind!r}; expected one of {MEASUREMENT_KINDS}")
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {row[4]!r}")
    if value < 0.0:
        # Densities and speeds are nonnegative; no sensor writes one.
        raise ValueError(f"negative value {row[4]!r}")
    return k, sensor_id, kind == GNSS_SPEED, link, value, _flag(row[5], "faulty label")
