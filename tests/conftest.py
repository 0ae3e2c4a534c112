"""Shared fixtures and test helpers."""
from __future__ import annotations

import numpy as np
import pytest

from gatedpf.ctm import DemandProfile, DemandSchedule, FreewayNetwork, LinkParams
from gatedpf.particles import ParticleEnsemble
from gatedpf.sensing import standardize


def log_rows(*rows) -> np.ndarray:
    """(K, P) log-density rows from per-particle densities, one row per
    measurement; a zero density becomes -inf."""
    with np.errstate(divide="ignore"):
        return np.log(np.array(rows, dtype=float))


def gaussian_rows(values, states, std: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Standardized residuals and null log-density rows of ``values`` under
    a Gaussian of fixed ``std`` around each particle's scalar state."""
    states = np.asarray(states, dtype=float)
    shape = (len(values), len(states))
    return standardize(values, np.broadcast_to(states, shape), np.full(shape, std))


def scalar_ensemble(values, weights=None) -> ParticleEnsemble:
    """Ensemble of one-dimensional states from a list of scalars: a (1, P)
    block."""
    states = np.asarray(values, dtype=float)[None, :]
    return ParticleEnsemble.from_states(states, weights)


@pytest.fixture
def single_link_network() -> FreewayNetwork:
    return FreewayNetwork(
        links=(LinkParams(length=100.0, vf=10.0, w=5.0, qmax=1.0, rho_jam=0.125),),
        dt=10.0,
    )


def small_network(n_links: int = 3, qmax: float = 4.0, **overrides) -> FreewayNetwork:
    links = tuple(
        LinkParams(
            length=500.0,
            vf=20.0,
            w=5.0,
            qmax=overrides.get(f"qmax_{i}", qmax),
            rho_jam=0.125,
            onramp=i in overrides.get("onramps", ()),
            offramp=i in overrides.get("offramps", ()),
            beta=overrides.get("beta", 0.1) if i in overrides.get("offramps", ()) else 0.0,
        )
        for i in range(n_links)
    )
    return FreewayNetwork(links=links, dt=10.0, onramp_priority=overrides.get("priority", 0.5))


def flat_schedule(level: float, n_onramps: int = 0, noise: float = 0.0) -> DemandSchedule:
    profile = DemandProfile(base=level, peak=level, rise=(0.0, 0.0), fall=(1e9, 1e9), noise_frac=noise)
    ramp = DemandProfile(base=0.0, peak=0.0, rise=(0.0, 0.0), fall=(1e9, 1e9), noise_frac=0.0)
    return DemandSchedule(dt=10.0, upstream=profile, onramps=(ramp,) * n_onramps)
