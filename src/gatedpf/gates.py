"""Per-sensor statistical gates and the gated measurement update.

Two Monte Carlo tests decide, per sensor and per timestep, whether a
measurement should be assimilated or rejected as faulty:

* A likelihood-ratio gate for the case where a fault model exists.  Each
  particle votes by comparing its fault-model log density against its null
  log density (ties favor the null); the test statistic is the null-weighted mass of the particles
  favoring the fault model, and the null is rejected when that mass falls
  below the significance level.
* A significance gate for the model-free case.  A per-particle
  standardized residual is weight-averaged into a single statistic whose
  standard-normal tail probability is compared against the level.

``gated_update`` runs the configured gate for every sensor against the
predicted (prior) ensemble, then performs the usual weight update with
only the accepted sensors, returning the posterior and the log marginal
likelihood of the accepted set.  Gates are pure functions of
(ensemble, measurement, sensor) and may be evaluated in parallel.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtr

from .errors import ConfigurationError, ModelConsistencyError
from .particles import MeasurementDensity, ParticleEnsemble, weight_update


class GateKind(str, Enum):
    NONE = "none"
    NEYMAN_PEARSON = "neyman_pearson"
    FISHER = "fisher"


class TailMode(str, Enum):
    TWO_SIDED = "two_sided"
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class SensorModel:
    """One sensor's null model, optional fault model, and test configuration.

    ``np_mass_normalized`` selects the variant of the likelihood-ratio
    statistic that divides by the total null mass over particles; the
    default keeps the raw mass, which lets uniformly implausible
    measurements (tiny null density under every particle) be rejected.
    """

    id: str
    h0: MeasurementDensity
    h1: MeasurementDensity | None = None
    test_kind: GateKind = GateKind.NONE
    alpha: float = 0.05
    tail_mode: TailMode = TailMode.TWO_SIDED
    np_mass_normalized: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ConfigurationError(
                f"sensor {self.id!r}: alpha must lie strictly in (0, 1), got {self.alpha}"
            )
        if self.test_kind == GateKind.NEYMAN_PEARSON and self.h1 is None:
            raise ConfigurationError(
                f"sensor {self.id!r}: likelihood-ratio test requires a fault model h1"
            )


@dataclass(frozen=True)
class GateDecision:
    """Outcome of one statistical test on one sensor at one timestep.

    ``statistic`` is the quantity compared against ``threshold`` (= alpha):
    the H1-favoring null mass for the likelihood-ratio gate, the estimated
    p-value for the significance gate.  ``auxiliary`` carries the count of
    H1-favoring particles, respectively the weighted residual statistic.
    """

    sensor_id: str
    test_kind: GateKind
    statistic: float
    threshold: float
    rejected_h0: bool
    auxiliary: float


@dataclass(frozen=True)
class GatedUpdateResult:
    """Posterior of one gated update plus its decisions.

    ``log_marginal_likelihood`` is the log marginal likelihood of the
    accepted measurement set; it is 0.0 when nothing was assimilated.
    """

    posterior: ParticleEnsemble
    decisions: tuple[GateDecision, ...]
    log_marginal_likelihood: float
    no_information: bool = False


def np_gate(ensemble: ParticleEnsemble, value: float, sensor: SensorModel) -> GateDecision:
    """Likelihood-ratio gate on the prior ensemble.

    The statistic sums ``w_p * g0(value | x_p)`` over the particles whose
    fault-model density strictly exceeds their null density; the null is
    rejected when the statistic falls below ``alpha``.  If no particle
    favors the fault model the measurement is accepted outright, whatever
    the level: an empty favoring region is evidence for the null, even
    though the mass comparison alone would read as a rejection.
    """
    if sensor.test_kind != GateKind.NEYMAN_PEARSON or sensor.h1 is None:
        raise ConfigurationError(
            f"sensor {sensor.id!r} is not configured for a likelihood-ratio test"
        )
    log_g0 = np.asarray(sensor.h0.log_density(value, ensemble.particles), dtype=float)
    log_g1 = np.asarray(sensor.h1.log_density(value, ensemble.particles), dtype=float)
    # Strict comparison: ties, including both densities zero, favor the null.
    favors_h1 = log_g1 > log_g0
    with np.errstate(over="ignore"):
        mass = ensemble.weights * np.exp(log_g0)
    statistic = float(np.sum(mass[favors_h1]))
    if sensor.np_mass_normalized:
        total = float(np.sum(mass))
        statistic = statistic / total if total > 0.0 else 0.0
    count = int(np.count_nonzero(favors_h1))
    rejected = count > 0 and statistic < sensor.alpha
    return GateDecision(
        sensor_id=sensor.id,
        test_kind=GateKind.NEYMAN_PEARSON,
        statistic=statistic,
        threshold=sensor.alpha,
        rejected_h0=rejected,
        auxiliary=float(count),
    )


def fisher_statistic(
    ensemble: ParticleEnsemble, value: float, sensor: SensorModel
) -> float:
    """Weight-averaged standardized residual of the measurement.

    Per particle the statistic is ``(value - mu_p) / sigma_p`` with
    ``(mu_p, sigma_p)`` from the null model's predictive form; the returned
    value is its average under the ensemble weights.
    """
    mean, scale = sensor.h0.predict(ensemble.particles)
    mean = np.asarray(mean, dtype=float)
    scale = np.asarray(scale, dtype=float)
    if np.any(scale <= 0.0):
        raise ModelConsistencyError(
            f"sensor {sensor.id!r}: predictive scale must be positive"
        )
    residuals = (value - mean) / scale
    return float(np.sum(ensemble.weights * residuals))


def fisher_gate(ensemble: ParticleEnsemble, value: float, sensor: SensorModel) -> GateDecision:
    """Significance gate: standard-normal tail probability of the statistic."""
    stat = fisher_statistic(ensemble, value, sensor)
    if sensor.tail_mode == TailMode.TWO_SIDED:
        p_value = float(2.0 * ndtr(-abs(stat)))
    elif sensor.tail_mode == TailMode.LEFT:
        p_value = float(ndtr(stat))
    else:
        p_value = float(ndtr(-stat))
    return GateDecision(
        sensor_id=sensor.id,
        test_kind=GateKind.FISHER,
        statistic=p_value,
        threshold=sensor.alpha,
        rejected_h0=p_value < sensor.alpha,
        auxiliary=stat,
    )


def gated_update(
    prior: ParticleEnsemble,
    measurements,
) -> GatedUpdateResult:
    """Test every sensor against the prior, then assimilate the survivors.

    Parameters
    ----------
    prior : ParticleEnsemble
        Predicted ensemble (the prediction step has already run).
    measurements : sequence of (SensorModel, float)
        One entry per sensor reporting this timestep.  Sensors whose
        ``test_kind`` is ``NONE`` are assimilated without a decision.

    Returns
    -------
    GatedUpdateResult
        Posterior, one decision per tested sensor, and the log marginal
        likelihood of the accepted measurement set.  When every sensor is
        rejected the prior is returned unchanged with ``no_information``
        set.
    """
    decisions: list[GateDecision] = []
    accepted_values: list[float] = []
    accepted_sensors: list[MeasurementDensity] = []
    for sensor, value in measurements:
        if sensor.test_kind == GateKind.NONE:
            accepted_values.append(float(value))
            accepted_sensors.append(sensor.h0)
            continue
        if sensor.test_kind == GateKind.NEYMAN_PEARSON:
            decision = np_gate(prior, float(value), sensor)
        elif sensor.test_kind == GateKind.FISHER:
            decision = fisher_gate(prior, float(value), sensor)
        else:
            raise ConfigurationError(f"unknown test kind {sensor.test_kind!r}")
        decisions.append(decision)
        if not decision.rejected_h0:
            accepted_values.append(float(value))
            accepted_sensors.append(sensor.h0)
    if not accepted_sensors:
        had_measurements = len(decisions) > 0
        return GatedUpdateResult(
            posterior=prior,
            decisions=tuple(decisions),
            log_marginal_likelihood=0.0,
            no_information=had_measurements,
        )
    posterior, log_marginal = weight_update(prior, accepted_values, accepted_sensors)
    return GatedUpdateResult(
        posterior=posterior,
        decisions=tuple(decisions),
        log_marginal_likelihood=log_marginal,
        no_information=False,
    )
