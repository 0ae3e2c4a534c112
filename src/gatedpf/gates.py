"""Statistical gates on one step's rows.

Two Monte Carlo tests judge, per measurement and per timestep, whether a
measurement is consistent with the predicted (prior) ensemble.  Both take
the prior's weights and the step's per-particle rows, one row per tested
measurement, and return two level-free columns, ``(statistic, auxiliary)``,
one entry per row:

* A likelihood-ratio test for the case where a fault model exists.  Each
  particle votes by comparing its fault-model log density against its null
  log density (ties favor the null); the statistic is the null-weighted
  mass of the particles favoring the fault model, and the auxiliary the
  number of them.
* A significance test for the model-free case.  The per-particle
  standardized residual is weight-averaged into one residual statistic (the
  auxiliary), whose two-sided standard-normal tail probability is the
  statistic.

Neither test reads a significance level.  ``level_rule`` thresholds their
columns at a level: the likelihood-ratio test rejects a row when its mass
falls below the level and some particle favors the fault model, the
significance test when its p-value falls below the level.  So a test's
columns at one level give its outcomes at every other.

``MODES`` maps each filter mode to its test, and ``gate_rows`` runs a
step's gate: the test, then ``level_rule`` and ``unexplained``.

The filter's gate also rejects every row that no positive-weight prior
particle explains (``unexplained``), that is, whose null log density is
``-inf`` at each particle with ``w_p > 0``.  Such a row cannot be
assimilated: it would zero every weight and collapse the filter.  The
likelihood-ratio vote alone would accept it when the fault density is zero
too (ties favor the null), and opposite residuals too large to square can
cancel in the significance test's average, so the rule is applied on top
of the level rule.  The ungated filter has no such protection and
collapses on that row.
"""
from __future__ import annotations

from enum import Enum
from types import MappingProxyType

import numpy as np
from scipy.special import ndtr


class GateKind(str, Enum):
    NEYMAN_PEARSON = "neyman_pearson"
    FISHER = "fisher"


# Each filter mode's test, ``None`` for the ungated filter; the two
# likelihood-ratio modes differ only in their fault model.
MODES = MappingProxyType({
    "none": None, "fisher": GateKind.FISHER,
    "np_correct": GateKind.NEYMAN_PEARSON, "np_incorrect": GateKind.NEYMAN_PEARSON,
})


def likelihood_ratio_test(
    weights: np.ndarray,
    log_g0: np.ndarray,
    log_g1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Likelihood-ratio test of each row against the prior weights.

    ``log_g0`` (K, P) holds the null log densities; ``log_g1`` the fault
    log densities, (K, P) or (K, 1) when they do not depend on the state.
    Returns ``(statistic, auxiliary)``: a row's statistic sums
    ``w_p * g0_p`` over the particles whose fault density strictly exceeds
    their null density, and its auxiliary counts those particles (as a
    float).  The raw mass lets uniformly implausible measurements (tiny
    null density under every particle) be rejected.  A particle of zero
    weight carries no mass.
    """
    weights = np.asarray(weights, dtype=float)
    log_g0 = np.asarray(log_g0, dtype=float)
    # Strict comparison: ties, including both densities zero, favor the null.
    favors_h1 = log_g1 > log_g0
    with np.errstate(over="ignore", invalid="ignore"):
        mass = weights * np.exp(log_g0)
    if not weights.all():
        # A zero-weight particle carries no mass, even where its null
        # density overflows (0 * inf).
        mass[:, weights == 0.0] = 0.0
    count = np.count_nonzero(favors_h1, axis=1)
    # Sum only the favoring particles: padding a sum with zeros would change
    # its rounding.  A row where all favor H1 sums whole, which rounds as the
    # row's own sum does; only rows split between the models need a loop.
    statistic = np.zeros(len(mass))
    full = count == mass.shape[1]
    statistic[full] = mass[full].sum(axis=1)
    for i in np.flatnonzero((count > 0) & ~full).tolist():
        statistic[i] = np.sum(mass[i][favors_h1[i]])
    return statistic, count.astype(float)


def significance_test(weights: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Significance test of each row of standardized residuals ``z`` (K, P).

    Returns ``(p_value, residual)``: a row's residual statistic is its
    residuals averaged under the prior weights, and its p-value the
    statistic's two-sided standard-normal tail probability.  An infinite residual
    at a zero-weight particle carries no weight: such a row is averaged
    over the positive-weight particles only.  A row whose positive-weight
    residuals hold both ``+inf`` and ``-inf`` has no average; its statistic
    is ``+inf`` and its p-value 0.
    """
    weights = np.asarray(weights, dtype=float)
    z = np.asarray(z, dtype=float)
    # An infinite residual at a zero-weight particle gives 0 * inf = NaN:
    # such rows are summed again over the positive-weight particles, where
    # opposite infinities still give NaN.
    with np.errstate(invalid="ignore"):
        stat = np.sum(z * weights, axis=1)
        bad = np.isnan(stat)
        if bad.any():
            positive = weights > 0.0
            stat[bad] = np.sum(z[bad][:, positive] * weights[positive], axis=1)
            stat[np.isnan(stat)] = np.inf
    return 2.0 * ndtr(-np.abs(stat)), stat


def level_rule(
    kind: GateKind, statistic: np.ndarray, auxiliary: np.ndarray, alpha: float
) -> np.ndarray:
    """The rows a test of ``kind`` rejects at level ``alpha``, from the
    ``statistic`` and ``auxiliary`` columns it returned: ``(auxiliary > 0) &
    (statistic < alpha)`` for the likelihood-ratio test (an empty favoring
    region is evidence for the null, even though the mass alone would read
    as a rejection), ``statistic < alpha`` for the significance test."""
    if kind is GateKind.NEYMAN_PEARSON:
        return (auxiliary > 0) & (statistic < alpha)
    return statistic < alpha


def unexplained(weights: np.ndarray, log_g0: np.ndarray) -> np.ndarray:
    """Rows of the null log densities ``log_g0`` (K, P) that are ``-inf`` at
    every particle of positive prior weight: the rows the gate rejects
    whatever its test decides."""
    weights = np.asarray(weights, dtype=float)
    log_g0 = np.asarray(log_g0, dtype=float)
    if not weights.all():
        log_g0 = log_g0[:, weights > 0.0]
    return log_g0.max(axis=1, initial=-np.inf) == -np.inf


def gate_rows(
    kind: GateKind, alpha: float, weights: np.ndarray, z: np.ndarray, log_g0: np.ndarray,
    log_g1: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(statistic, auxiliary, rejected)`` columns of a step's gate on
    its tested rows: the test of ``kind`` on the residuals ``z`` (K, P), or
    on the null log densities ``log_g0`` (K, P) against the fault log
    densities ``log_g1`` (K, 1), which only the likelihood-ratio test reads.
    A row is rejected when level ``alpha`` rejects its statistic
    (:func:`level_rule`) or no positive-weight particle explains it."""
    if kind is GateKind.FISHER:
        statistic, auxiliary = significance_test(weights, z)
    else:
        statistic, auxiliary = likelihood_ratio_test(weights, log_g0, log_g1)
    rejected = level_rule(kind, statistic, auxiliary, alpha)
    return statistic, auxiliary, rejected | unexplained(weights, log_g0)
