"""Statistical gates and the gated measurement update, on one step's rows.

Two Monte Carlo tests decide, per measurement and per timestep, whether a
measurement should be assimilated or rejected as faulty.  Both take the
predicted (prior) ensemble's weights and the step's per-particle rows, one
row per tested measurement, and return one outcome per row:

* A likelihood-ratio test for the case where a fault model exists.  Each
  particle votes by comparing its fault-model log density against its null
  log density (ties favor the null); the test statistic is the
  null-weighted mass of the particles favoring the fault model, and the
  null is rejected when that mass falls below the significance level.
* A significance test for the model-free case.  The per-particle
  standardized residual is weight-averaged into a single statistic whose
  two-sided standard-normal tail probability is compared against the level.

``gated_update`` then adds the null log-density rows of the accepted
measurements to the prior's log weights, in measurement order, and returns
the posterior with the log marginal likelihood of the accepted set.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtr

from .particles import ParticleEnsemble, weight_update


class GateKind(str, Enum):
    NEYMAN_PEARSON = "neyman_pearson"
    FISHER = "fisher"


@dataclass(frozen=True)
class GateRows:
    """Outcome of one test on each of K rows.

    ``statistic`` is the quantity compared against ``alpha``: the
    H1-favoring null mass for the likelihood-ratio test, the p-value for the
    significance test.  ``auxiliary`` carries the count of H1-favoring
    particles, respectively the weighted residual statistic.
    """

    kind: GateKind
    statistic: np.ndarray
    auxiliary: np.ndarray
    rejected: np.ndarray


@dataclass(frozen=True)
class GatedUpdateResult:
    """Posterior of one gated update.

    ``log_marginal_likelihood`` is the log marginal likelihood of the
    accepted measurement set; it is 0.0 when nothing was assimilated.
    ``no_information`` is set when the step had measurements and every one
    was rejected.
    """

    posterior: ParticleEnsemble
    log_marginal_likelihood: float
    no_information: bool = False


def likelihood_ratio_test(
    weights: np.ndarray,
    log_g0: np.ndarray,
    log_g1: np.ndarray,
    alpha: float,
    mass_normalized: bool = False,
) -> GateRows:
    """Likelihood-ratio test of each row against the prior weights.

    ``log_g0`` (K, P) holds the null log densities; ``log_g1`` the fault
    log densities, (K, P) or (K, 1) when they do not depend on the state.
    A row's statistic sums ``w_p * g0_p`` over the particles whose fault
    density strictly exceeds their null density, and the null is rejected
    when it falls below ``alpha``.  If no particle favors the fault model
    the row is accepted whatever the level: an empty favoring region is
    evidence for the null, even though the mass alone would read as a
    rejection.  ``mass_normalized`` divides the statistic by the row's
    total null mass; the default keeps the raw mass, which lets uniformly
    implausible measurements (tiny null density under every particle) be
    rejected.
    """
    # Strict comparison: ties, including both densities zero, favor the null.
    favors_h1 = log_g1 > log_g0
    with np.errstate(over="ignore"):
        mass = weights * np.exp(log_g0)
    # Row by row, summing only the favoring particles: padding the sum with
    # zeros would change its rounding.
    statistic = np.array([np.sum(m[f]) for m, f in zip(mass, favors_h1)], dtype=float)
    if mass_normalized:
        total = np.array([np.sum(m) for m in mass], dtype=float)
        statistic = np.divide(
            statistic, total, out=np.zeros_like(statistic), where=total > 0.0
        )
    count = np.count_nonzero(favors_h1, axis=1)
    return GateRows(
        kind=GateKind.NEYMAN_PEARSON,
        statistic=statistic,
        auxiliary=count.astype(float),
        rejected=(count > 0) & (statistic < alpha),
    )


def significance_test(weights: np.ndarray, z: np.ndarray, alpha: float) -> GateRows:
    """Significance test of each row of standardized residuals ``z`` (K, P).

    A row's statistic is its residuals averaged under the prior weights;
    its two-sided standard-normal tail probability is the p-value, and the
    null is rejected when that falls below ``alpha``.
    """
    stat = np.array([np.sum(weights * row) for row in z], dtype=float)
    p_value = 2.0 * ndtr(-np.abs(stat))
    return GateRows(
        kind=GateKind.FISHER,
        statistic=p_value,
        auxiliary=stat,
        rejected=p_value < alpha,
    )


def gated_update(
    prior: ParticleEnsemble, log_g0: np.ndarray, rejected: np.ndarray
) -> GatedUpdateResult:
    """Assimilate the rows the gates did not reject.

    ``log_g0`` (M, P) holds the null log density of each of the step's
    measurements under each prior particle, and ``rejected`` (M,) flags the
    rows a gate rejected (untested rows are never rejected).  The accepted
    rows are added to the prior's log weights in row order.  When every row
    is rejected the prior is returned unchanged with ``no_information`` set.
    """
    accepted = np.flatnonzero(~np.asarray(rejected, dtype=bool))
    if accepted.size == 0:
        return GatedUpdateResult(prior, 0.0, no_information=len(rejected) > 0)
    posterior, log_marginal = weight_update(prior, log_g0[accepted])
    return GatedUpdateResult(posterior, log_marginal)
