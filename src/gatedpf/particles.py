"""Weighted-ensemble primitives for bootstrap particle filtering.

The ensemble is the filter's entire state: ``P`` sampled state vectors with
normalized weights approximating the filtering distribution.  The states
form an (N, P) block, one column per particle (the particle axis last, as in
the model's (L, P) density blocks and the gates' (M, P) rows).  Prediction
moves the whole ensemble to the successor block of one model step, and the
weight update adds one log-likelihood row per assimilated measurement to the
log weights and renormalizes, returning the posterior together with the log
of the marginal likelihood of those measurements.

Likelihood products are accumulated in log space so long products cannot
underflow; when the largest log weight leaves the comfortably representable
range it is subtracted before exponentiating.  Every reduction over the
particles runs in a fixed order, so results are bit-reproducible for a
fixed seed.  Every operation is pure (inputs are
never mutated; a ``work`` argument's buffers are scratch space the call
overwrites, and no result holds them), and distinct ensembles may be
processed concurrently, each with its own buffers.

Ensembles are validated where their arrays come from outside this module:
``ParticleEnsemble(...)`` and ``from_states`` check shapes, finiteness and
the weight sum and keep read-only copies.  ``predict``, ``weight_update``
and ``resample_systematic`` build their results from arrays they computed
themselves, read-only and without a second check; of what they are given,
``predict`` checks the successor block (shape and finiteness) and
``weight_update`` the likelihood rows (shape, and a finite normalizer).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .buffers import StepBuffers
from .errors import ConfigurationError, ContractViolation, WeightCollapseError
from .rng import RandomSource

WEIGHT_SUM_TOL = 1e-12

# |max log weight| beyond which the peak is subtracted before exponentiating.
# Inside this range the weights are literally prior weight * likelihood.
_RESCALE_LOG = 600.0


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def _ensemble(particles: np.ndarray, weights: np.ndarray) -> "ParticleEnsemble":
    """An ensemble of arrays this module computed and owns: no checks and no
    copies; the arrays are made read-only."""
    particles.setflags(write=False)
    weights.setflags(write=False)
    ensemble = object.__new__(ParticleEnsemble)
    object.__setattr__(ensemble, "particles", particles)
    object.__setattr__(ensemble, "weights", weights)
    return ensemble


@dataclass(frozen=True)
class ParticleEnsemble:
    """Weighted set of state vectors approximating a probability density.

    Attributes
    ----------
    particles : ndarray, shape (N, P)
        One state vector per column.
    weights : ndarray, shape (P,)
        Nonnegative weights summing to one within ``WEIGHT_SUM_TOL``.
    """

    particles: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        particles = np.asarray(self.particles, dtype=float)
        if particles.ndim != 2 or particles.shape[1] < 1:
            raise ConfigurationError(
                f"particles must be an (N, P) array with P >= 1, got shape {particles.shape}"
            )
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (particles.shape[1],):
            raise ConfigurationError(
                f"weights shape {weights.shape} does not match particle count {particles.shape[1]}"
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
        return self.particles.shape[1]

    @classmethod
    def from_states(cls, states, weights=None) -> "ParticleEnsemble":
        """Build an ensemble from raw states, one per column (a 1-D array is
        one scalar state per particle), uniform-weighted by default."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        if weights is None:
            p = states.shape[1]
            weights = np.full(p, 1.0 / p)
        return cls(states, weights)


def predict(ensemble: ParticleEnsemble, states) -> ParticleEnsemble:
    """The ensemble moved to ``states``, the (N, P) block of each column's
    successor draw; weights and particle order are untouched.

    The caller must hand over a new array that it does not keep: the result
    holds that array without a copy and makes it read-only, so a caller
    that writes into the same buffer again fails on that write instead of
    changing an earlier ensemble.  The input block, or any view, is copied.
    """
    new_states = np.asarray(states, dtype=float)
    if new_states.shape != ensemble.particles.shape:
        raise ConfigurationError(
            f"successor block has shape {new_states.shape}, "
            f"expected {ensemble.particles.shape}"
        )
    if not np.isfinite(new_states).all():
        raise ConfigurationError("particle states must be finite")
    if new_states is ensemble.particles or new_states.base is not None:
        new_states = new_states.copy()
    return _ensemble(new_states, ensemble.weights)


def weight_update(
    ensemble: ParticleEnsemble, log_likelihood_rows, work: StepBuffers
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
    work : StepBuffers
        Buffers whose ``stack`` holds ``[log w; rows]`` for the sum.

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
    ConfigurationError
        If a row holds NaN or +inf, which leaves the normalizer not finite.
    """
    rows = np.asarray(log_likelihood_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != ensemble.size:
        raise ConfigurationError(
            f"log-likelihood rows have shape {rows.shape}, expected (K, {ensemble.size})"
        )
    stack = work.stack[: len(rows) + 1]
    # Log densities far out in the tail may sum past the float range to
    # -inf, which is their product's value.  A NaN or +inf row turns into a
    # NaN or infinite normalizer, which is checked below; the invalid
    # operations on the way are expected.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # One reduction over [log w; rows] adds the rows in order, as a
        # loop of additions would.  (A single particle's column is
        # contiguous, and numpy sums it pairwise instead; the filter runs at
        # least two particles.)
        np.log(ensemble.weights, out=stack[0])
        stack[1:] = rows
        log_w = np.add.reduce(stack, axis=0)
        peak = float(np.max(log_w))
        if peak == -np.inf:
            raise WeightCollapseError(
                "all posterior weights are zero after the measurement update"
            )
        scale = peak if abs(peak) > _RESCALE_LOG else 0.0
        w = np.exp(log_w - scale)
    total = float(np.sum(w))
    if not math.isfinite(total):
        raise ConfigurationError(
            "log-likelihood rows must not hold NaN or +inf, "
            f"got a weight normalizer of {total!r}"
        )
    return _ensemble(ensemble.particles, w / total), math.log(total) + scale


def effective_sample_size(ensemble: ParticleEnsemble) -> float:
    """Degeneracy measure 1 / sum(w^2); P for uniform weights, 1 when degenerate."""
    return float(1.0 / np.sum(ensemble.weights**2))


def resample_systematic(ensemble: ParticleEnsemble, rng: RandomSource) -> ParticleEnsemble:
    """Low-variance systematic resampling to uniform weights.

    A single uniform draw places ``P`` evenly spaced points on the
    cumulative weight axis, so particle ``p`` is copied either
    ``floor(P * w_p)`` or ``ceil(P * w_p)`` times.
    """
    n = ensemble.size
    offset = float(rng.random())
    positions = (np.arange(n) + offset) / n
    cumulative = np.cumsum(ensemble.weights)
    cumulative[-1] = 1.0  # guard against rounding drift at the top
    indices = np.searchsorted(cumulative, positions, side="right")
    return _ensemble(ensemble.particles[:, indices], np.full(n, 1.0 / n))


def posterior_mean(ensemble: ParticleEnsemble, work: StepBuffers) -> np.ndarray:
    """Weighted mean of the particle states, a fresh (N,) array.

    The products are laid out one particle per row, in ``work.products``,
    and numpy reduces the outer axis of a C-ordered block in order, so each
    component is ``w_0 x_0 + w_1 x_1 + ...`` added left to right.  (States
    of one component give a contiguous column, which numpy sums pairwise
    instead.)
    """
    products = np.multiply(ensemble.weights[:, None], ensemble.particles.T, out=work.products)
    return products.sum(axis=0)
