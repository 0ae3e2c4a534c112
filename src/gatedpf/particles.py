"""Weighted-ensemble primitives for bootstrap particle filtering.

The ensemble is the filter's entire state: ``P`` sampled state vectors with
normalized weights approximating the filtering distribution.  Prediction
pushes the whole (P, N) block through a stochastic transition in one call,
and the weight update adds one log-likelihood row per assimilated
measurement to the log weights and renormalizes, returning the posterior
together with the log of the marginal likelihood of those measurements.

Likelihood products are accumulated in log space so long products cannot
underflow; when the largest log weight leaves the comfortably representable
range it is subtracted before exponentiating.  All reductions run through
numpy's pairwise summation on arrays in particle order, so results are
bit-reproducible for a fixed seed.  Every operation is pure (inputs are
never mutated), and distinct ensembles may be processed concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ContractViolation, WeightCollapseError
from .rng import RandomSource

WEIGHT_SUM_TOL = 1e-12

# |max log weight| beyond which the peak is subtracted before exponentiating.
# Inside this range the weights are literally prior weight * likelihood.
_RESCALE_LOG = 600.0

Transition = Callable[[np.ndarray, RandomSource], np.ndarray]


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ParticleEnsemble:
    """Weighted set of state vectors approximating a probability density.

    Attributes
    ----------
    particles : ndarray, shape (P, N)
        One state vector per row.
    weights : ndarray, shape (P,)
        Nonnegative weights summing to one within ``WEIGHT_SUM_TOL``.
    """

    particles: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        particles = np.asarray(self.particles, dtype=float)
        if particles.ndim != 2 or particles.shape[0] < 1:
            raise ConfigurationError(
                f"particles must be a (P, N) array with P >= 1, got shape {particles.shape}"
            )
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (particles.shape[0],):
            raise ConfigurationError(
                f"weights shape {weights.shape} does not match particle count {particles.shape[0]}"
            )
        if not np.all(np.isfinite(particles)):
            raise ConfigurationError("particle states must be finite")
        if not np.all(np.isfinite(weights)):
            raise ConfigurationError("weights must be finite")
        if np.any(weights < 0.0):
            raise ConfigurationError("weights must be nonnegative")
        if not np.any(weights > 0.0):
            raise WeightCollapseError("all particle weights are zero")
        total = float(np.sum(weights))
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ContractViolation(f"ensemble weights sum to {total!r}, not 1")
        object.__setattr__(self, "particles", _frozen_array(particles))
        object.__setattr__(self, "weights", _frozen_array(weights))

    @property
    def size(self) -> int:
        return self.particles.shape[0]

    @classmethod
    def from_states(cls, states, weights=None) -> "ParticleEnsemble":
        """Build an ensemble from raw states, uniform-weighted by default."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        if weights is None:
            p = states.shape[0]
            weights = np.full(p, 1.0 / p)
        return cls(states, weights)


def predict(
    ensemble: ParticleEnsemble, transition: Transition, rng: RandomSource
) -> ParticleEnsemble:
    """Propagate the whole particle block through a stochastic transition.

    ``transition(states, rng)`` maps the (P, N) block to one independent
    successor draw per row; weights and particle order are untouched.
    """
    new_states = np.asarray(transition(ensemble.particles, rng), dtype=float)
    if new_states.shape != ensemble.particles.shape:
        raise ConfigurationError(
            f"transition returned shape {new_states.shape}, "
            f"expected {ensemble.particles.shape}"
        )
    return ParticleEnsemble(new_states, ensemble.weights)


def weight_update(
    ensemble: ParticleEnsemble, log_likelihood_rows
) -> tuple[ParticleEnsemble, float]:
    """Multiply measurement likelihoods into the weights and renormalize.

    Parameters
    ----------
    ensemble : ParticleEnsemble
        Current ensemble (typically the predicted prior).
    log_likelihood_rows : array_like, shape (K, P)
        One row per conditionally independent measurement: its log density
        under each particle (-inf where zero).  Rows are added to the log
        weights in the order given.

    Returns
    -------
    (ParticleEnsemble, float)
        The posterior, whose weight for particle ``p`` is proportional to
        the input weight times the product of the rows' densities at ``p``
        (states unchanged), and the log marginal likelihood
        ``log(sum_p w_p * prod_k g_k(x_p))``.

    Raises
    ------
    WeightCollapseError
        If every posterior weight is exactly zero, i.e. the measurement
        set is impossible under all particles.
    """
    rows = np.asarray(log_likelihood_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != ensemble.size:
        raise ConfigurationError(
            f"log-likelihood rows have shape {rows.shape}, expected (K, {ensemble.size})"
        )
    with np.errstate(divide="ignore"):
        log_w = np.log(ensemble.weights)
    for row in rows:
        log_w = log_w + row
    peak = float(np.max(log_w))
    if peak == -np.inf:
        raise WeightCollapseError(
            "all posterior weights are zero after the measurement update"
        )
    scale = peak if abs(peak) > _RESCALE_LOG else 0.0
    w = np.exp(log_w - scale)
    total = float(np.sum(w))
    return ParticleEnsemble(ensemble.particles, w / total), math.log(total) + scale


def effective_sample_size(ensemble: ParticleEnsemble) -> float:
    """Degeneracy measure 1 / sum(w^2); P for uniform weights, 1 when degenerate."""
    return float(1.0 / np.sum(ensemble.weights**2))


def resample_systematic(
    ensemble: ParticleEnsemble, rng: RandomSource, count: int | None = None
) -> ParticleEnsemble:
    """Low-variance systematic resampling to uniform weights.

    A single uniform draw places ``count`` evenly spaced points on the
    cumulative weight axis, so particle ``p`` is copied either
    ``floor(count * w_p)`` or ``ceil(count * w_p)`` times.
    """
    n = ensemble.size if count is None else int(count)
    if n < 1:
        raise ConfigurationError("resample count must be at least 1")
    offset = float(rng.random())
    positions = (np.arange(n) + offset) / n
    cumulative = np.cumsum(ensemble.weights)
    cumulative[-1] = 1.0  # guard against rounding drift at the top
    indices = np.searchsorted(cumulative, positions, side="right")
    return ParticleEnsemble(ensemble.particles[indices], np.full(n, 1.0 / n))


def posterior_mean(ensemble: ParticleEnsemble) -> np.ndarray:
    """Weighted mean of the particle states."""
    return np.sum(ensemble.weights[:, None] * ensemble.particles, axis=0)
