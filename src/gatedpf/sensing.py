"""Synthetic sensing for the freeway testbed.

Generates loop-detector density measurements and per-vehicle speed reports
from a simulated ground truth, injects labeled faults into the speed
reports, and builds the per-sensor measurement models (null model, and the
fault-model alternatives) consumed by the statistical gates.

Speed reports imitate third-party probe data: each vehicle on a link
reports its speed with a fixed penetration probability, corrupted by
relative Gaussian noise.  A faulty report is either an exact zero (a
stopped vehicle misreporting its motion) or a draw from a broad Gaussian
truncated at zero; the ground-truth ``faulty`` flag is recorded with every
measurement so detection quality can be scored exactly.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import ndtr

from .ctm import FreewayNetwork
from .errors import ConfigurationError, DataError
from .fileio import atomic_write_text
from .gates import SensorModel, GateKind
from .particles import MeasurementDensity
from .rng import RandomSource

LOOP_DENSITY = "loop_density"
GNSS_SPEED = "gnss_speed"

HYPOTHESIS_MODES = ("none", "fisher", "np_correct", "np_incorrect")

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

MEASUREMENT_COLUMNS = ("k", "sensor_id", "kind", "link", "value", "faulty")


def gaussian_log_pdf(value, mean, std):
    z = (value - mean) / std
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


@dataclass(frozen=True)
class LabeledMeasurement:
    """One measurement plus its ground-truth fault label."""

    k: int
    sensor_id: str
    kind: str
    link: int
    value: float
    faulty: bool


def vehicle_counts(state: np.ndarray, network: FreewayNetwork) -> np.ndarray:
    """Integer vehicles per link: density times length, rounded to nearest."""
    return np.rint(np.asarray(state, dtype=float) * network.lengths).astype(int)


def sample_loop_detectors(
    state: np.ndarray,
    specs: Sequence[LoopDetectorSpec],
    rng: RandomSource,
    k: int,
) -> list[LabeledMeasurement]:
    """One noisy density reading per detector, clamped to nonnegative."""
    state = np.asarray(state, dtype=float)
    out = []
    noise = rng.normal(size=len(specs))
    for spec, z in zip(specs, noise):
        true = float(state[spec.link])
        std = spec.noise_abs if spec.noise_abs is not None else spec.noise_frac * true
        value = max(0.0, true + std * float(z))
        out.append(
            LabeledMeasurement(
                k=k,
                sensor_id=f"loop-{spec.link}",
                kind=LOOP_DENSITY,
                link=spec.link,
                value=value,
                faulty=False,
            )
        )
    return out


def sample_gnss_speeds(
    true_speeds: np.ndarray,
    counts: np.ndarray,
    spec: GnssSpec,
    rng: RandomSource,
    k: int,
) -> list[LabeledMeasurement]:
    """Per-vehicle speed reports at the configured penetration rate.

    Each of ``counts[l]`` vehicles on link ``l`` reports independently with
    probability ``penetration``; a report is the true link speed plus
    relative Gaussian noise, clamped to nonnegative.
    """
    true_speeds = np.asarray(true_speeds, dtype=float)
    counts = np.asarray(counts)
    reporting = rng.binomial(np.maximum(counts, 0), spec.penetration)
    out = []
    for link in range(len(counts)):
        n = int(reporting[link])
        if n == 0:
            continue
        speed = float(true_speeds[link])
        noise = rng.normal(0.0, 1.0, size=n)
        values = np.maximum(0.0, speed + spec.noise_frac * speed * noise)
        for i in range(n):
            out.append(
                LabeledMeasurement(
                    k=k,
                    sensor_id=f"gnss-{k}-{link}-{i}",
                    kind=GNSS_SPEED,
                    link=link,
                    value=float(values[i]),
                    faulty=False,
                )
            )
    return out


def inject_faults(
    measurements: Sequence[LabeledMeasurement],
    config: FaultConfig,
    rng: RandomSource,
) -> list[LabeledMeasurement]:
    """Independently replace speed reports with faulty values.

    With probability ``config.probability`` a speed report becomes faulty:
    an exact zero with mixture weight ``zero_weight``, otherwise a draw
    from the truncated (resampled above zero) fault Gaussian.  Loop
    measurements pass through untouched.  Labels record exactly which
    values were replaced, so a zero value identifies a stopped-car fault.
    """
    if config.probability == 0.0:
        return list(measurements)
    out: list[LabeledMeasurement] = []
    for m in measurements:
        if m.kind != GNSS_SPEED:
            out.append(m)
            continue
        if float(rng.random()) >= config.probability:
            out.append(m)
            continue
        if float(rng.random()) < config.zero_weight:
            value = 0.0
        else:
            value = float(rng.normal(config.speed_mean, config.speed_std))
            while value <= 0.0:
                value = float(rng.normal(config.speed_mean, config.speed_std))
        out.append(replace(m, value=value, faulty=True))
    return out


class LoopDensityModel(MeasurementDensity):
    """Null model of a loop detector: Gaussian around the particle's density."""

    def __init__(self, spec: LoopDetectorSpec) -> None:
        self.spec = spec

    def _moments(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = np.atleast_2d(states)[:, self.spec.link]
        if self.spec.noise_abs is not None:
            std = np.full_like(mean, max(self.spec.noise_abs, self.spec.min_std))
        else:
            std = np.maximum(self.spec.noise_frac * mean, self.spec.min_std)
        return mean, std

    def log_density(self, value: float, states: np.ndarray) -> np.ndarray:
        mean, std = self._moments(states)
        return gaussian_log_pdf(value, mean, std)

    def predict(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._moments(states)


class SpeedObservationModel(MeasurementDensity):
    """Null model of a speed report, with per-particle moments precomputed.

    ``mean[p]`` is the model-predicted link speed of particle ``p`` and
    ``std[p]`` its relative noise scale (floored to stay a proper density
    near standstill).  Rows are positional: they must line up with the
    particle order of the ensemble this model is evaluated against.
    """

    def __init__(self, mean: np.ndarray, std: np.ndarray) -> None:
        self.mean = np.asarray(mean, dtype=float)
        self.std = np.asarray(std, dtype=float)
        if self.mean.shape != self.std.shape:
            raise ConfigurationError("speed model mean/std shapes differ")

    @classmethod
    def from_speeds(cls, speeds: np.ndarray, spec: GnssSpec) -> "SpeedObservationModel":
        speeds = np.asarray(speeds, dtype=float)
        return cls(speeds, np.maximum(spec.noise_frac * speeds, spec.min_std))

    def log_density(self, value: float, states: np.ndarray) -> np.ndarray:
        if np.atleast_2d(states).shape[0] != self.mean.shape[0]:
            raise ConfigurationError(
                "speed model was precomputed for a different particle count"
            )
        return gaussian_log_pdf(value, self.mean, self.std)

    def predict(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.mean, self.std


class FaultMixtureDensity(MeasurementDensity):
    """Fault model matching the generator: a narrow Gaussian standing in for
    the point mass at zero, mixed with the truncated fault Gaussian."""

    def __init__(self, config: FaultConfig, zero_std: float = 0.5) -> None:
        if zero_std <= 0.0:
            raise ConfigurationError("zero-component std must be positive")
        self.config = config
        self.zero_std = zero_std
        # Mass of the fault Gaussian above zero, for the truncation constant.
        self._log_trunc = math.log(float(ndtr(config.speed_mean / config.speed_std)))

    def _log_value(self, value: float) -> float:
        c = self.config
        log_zero = math.log(c.zero_weight) if c.zero_weight > 0.0 else -math.inf
        log_rand = math.log(1.0 - c.zero_weight) if c.zero_weight < 1.0 else -math.inf
        comp_zero = log_zero + float(gaussian_log_pdf(value, 0.0, self.zero_std))
        if value >= 0.0:
            comp_rand = (
                log_rand
                + float(gaussian_log_pdf(value, c.speed_mean, c.speed_std))
                - self._log_trunc
            )
        else:
            comp_rand = -math.inf
        return float(np.logaddexp(comp_zero, comp_rand))

    def log_density(self, value: float, states: np.ndarray) -> np.ndarray:
        n = np.atleast_2d(states).shape[0]
        return np.full(n, self._log_value(value))


class NearZeroDensity(MeasurementDensity):
    """Deliberately narrow fault model: Gaussian mass near zero only.

    Selects stopped-vehicle reports but assigns essentially no density to
    moderate speeds, so broad random faults slip through.
    """

    def __init__(self, std: float = 0.5) -> None:
        if std <= 0.0:
            raise ConfigurationError("near-zero model std must be positive")
        self.std = std

    def log_density(self, value: float, states: np.ndarray) -> np.ndarray:
        n = np.atleast_2d(states).shape[0]
        return np.full(n, float(gaussian_log_pdf(value, 0.0, self.std)))


def build_sensor_models(
    measurements: Sequence[LabeledMeasurement],
    loop_specs: Sequence[LoopDetectorSpec],
    gnss_spec: GnssSpec,
    fault_config: FaultConfig,
    mode: str,
    speed_lookup: Callable[[int], np.ndarray],
    alpha: float = 0.05,
    zero_std: float = 0.5,
    np_mass_normalized: bool = False,
) -> list[tuple[SensorModel, float]]:
    """Pair each measurement with the sensor model its gate needs.

    ``mode`` selects the hypothesis setup for speed reports: ``fisher``
    runs the significance gate with no fault model, ``np_correct`` runs the
    likelihood-ratio gate against the true fault mixture, ``np_incorrect``
    against the near-zero model only, and ``none`` assimilates everything
    ungated.  Loop detectors are first-party and are never gated.

    ``speed_lookup(link)`` must return the per-particle predicted speeds of
    that link for the ensemble about to be updated.
    """
    if mode not in HYPOTHESIS_MODES:
        raise ConfigurationError(
            f"unknown hypothesis mode {mode!r}; expected one of {HYPOTHESIS_MODES}"
        )
    loop_by_link = {spec.link: spec for spec in loop_specs}
    if mode == "np_correct":
        h1 = FaultMixtureDensity(fault_config, zero_std=zero_std)
    elif mode == "np_incorrect":
        h1 = NearZeroDensity(std=zero_std)
    else:
        h1 = None
    gnss_kind = {
        "none": GateKind.NONE,
        "fisher": GateKind.FISHER,
        "np_correct": GateKind.NEYMAN_PEARSON,
        "np_incorrect": GateKind.NEYMAN_PEARSON,
    }[mode]

    out = []
    for m in measurements:
        if m.kind == LOOP_DENSITY:
            spec = loop_by_link.get(m.link)
            if spec is None:
                raise DataError(f"no loop detector configured on link {m.link}")
            sensor = SensorModel(
                id=m.sensor_id, h0=LoopDensityModel(spec), test_kind=GateKind.NONE
            )
        elif m.kind == GNSS_SPEED:
            h0 = SpeedObservationModel.from_speeds(speed_lookup(m.link), gnss_spec)
            sensor = SensorModel(
                id=m.sensor_id,
                h0=h0,
                h1=h1,
                test_kind=gnss_kind,
                alpha=alpha,
                np_mass_normalized=np_mass_normalized,
            )
        else:
            raise DataError(f"unknown measurement kind {m.kind!r}")
        out.append((sensor, m.value))
    return out


def write_measurement_log(path: str | Path, measurements: Iterable[LabeledMeasurement]) -> None:
    """Write the measurement log atomically; column order is fixed and
    documented in ``MEASUREMENT_COLUMNS``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(MEASUREMENT_COLUMNS)
    for m in measurements:
        writer.writerow([m.k, m.sensor_id, m.kind, m.link, repr(m.value), int(m.faulty)])
    atomic_write_text(path, buf.getvalue())


def read_measurement_log(path: str | Path) -> list[LabeledMeasurement]:
    path = Path(path)
    out = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != MEASUREMENT_COLUMNS:
            raise DataError(
                f"{path}: unexpected measurement log header {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(MEASUREMENT_COLUMNS):
                raise DataError(f"{path}:{lineno}: expected {len(MEASUREMENT_COLUMNS)} columns")
            try:
                m = LabeledMeasurement(
                    k=int(row[0]),
                    sensor_id=row[1],
                    kind=row[2],
                    link=int(row[3]),
                    value=float(row[4]),
                    faulty=bool(int(row[5])),
                )
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if not math.isfinite(m.value):
                raise DataError(f"{path}:{lineno}: non-finite value {row[4]!r}")
            out.append(m)
    return out
