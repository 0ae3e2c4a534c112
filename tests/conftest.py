"""Shared fixtures and test helpers."""
from __future__ import annotations

import os

import numpy as np
import pytest
import yaml

from gatedpf import scenario
from gatedpf.buffers import StepBuffers
from gatedpf.ctm import DemandProfile, DemandSchedule, FreewayNetwork, LinkParams, advance, speed_map
from gatedpf.particles import ParticleEnsemble, posterior_mean, weight_update
from gatedpf.sensing import _log_pdf_of_z, _residual


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
    return null_rows(values, np.broadcast_to(states, shape), np.full(shape, std))


def dirty_buffers(n_particles, n_states=0, max_rows=0, max_links=0) -> StepBuffers:
    """Work buffers as a run's earlier calls might leave them: every float
    NaN and every flag set."""
    work = StepBuffers(n_particles, n_states, max_rows, max_links)
    for buffer in vars(work).values():
        buffer.fill(True if buffer.dtype == bool else np.nan)
    return work


# The step functions on fresh dirty buffers sized for the one call.


def dirty_advance(states, network, upstream_demand, onramp_demand=None) -> np.ndarray:
    work = dirty_buffers(np.shape(states)[-1], n_states=network.n_links)
    return advance(states, network, upstream_demand, onramp_demand, work)


def dirty_speed_map(states, network, plan, onramp_demand=None) -> np.ndarray:
    work = dirty_buffers(np.shape(states)[-1], max_links=len(plan.links))
    return speed_map(states, network, plan, onramp_demand, work)


def null_rows(values, mean, std) -> tuple[np.ndarray, np.ndarray]:
    """Standardized residuals and null log densities of ``values`` under
    Gaussians of (K, P) ``mean`` and ``std``, as ``measurement_rows``
    computes them: the moments copied into dirty buffers, z written over
    the means, log(std) over the stds and the log densities into the third
    buffer."""
    n_rows, n_particles = np.shape(mean)
    work = dirty_buffers(n_particles, max_rows=n_rows)
    z, log_std = work.mean, work.std
    np.copyto(z, mean)
    np.copyto(log_std, std)
    z = _residual(np.asarray(values, dtype=float)[:, None], z, log_std, out=z)
    return z, _log_pdf_of_z(z, log_std, out=work.log_density, log_std=log_std)


def dirty_weight_update(ensemble, rows) -> tuple[ParticleEnsemble, float]:
    return weight_update(ensemble, rows, dirty_buffers(ensemble.size, max_rows=len(rows)))


def dirty_posterior_mean(ensemble) -> np.ndarray:
    return posterior_mean(ensemble, dirty_buffers(ensemble.size, n_states=len(ensemble.particles)))


def shares_buffers(array, work: StepBuffers) -> bool:
    """Whether ``array`` shares memory with any of the buffers."""
    return any(np.shares_memory(array, buffer) for buffer in vars(work).values())


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


def check_plan_columns(plan, network: FreewayNetwork, links) -> None:
    """Assert that ``plan`` holds, position by position, the parameters of
    ``network`` at ``links`` and at their downstream links, position j in
    row j of every column: the last link's downstream jam density and wave
    speed are infinite, a link's offramp share is its split ratio (0
    without an offramp), and its ramp slot names the onramp at its
    downstream boundary (-1 for none)."""
    n, dt, k = network.n_links, network.dt, len(links)
    assert plan.links.tolist() == list(links)
    for name, column in plan._asdict().items():
        assert column.shape == ((k,) if name in ("links", "down", "ramp_slot") else (k, 1)), name
    for j, l in enumerate(links):
        link = network.links[l]
        assert (plan.vf[j, 0], plan.vf_dt[j, 0], plan.qmax[j, 0]) == (link.vf, link.vf * dt, link.qmax)
        assert plan.off_share[j, 0] == (link.beta if link.offramp else 0.0)
        onramps = network.onramp_links
        assert plan.ramp_slot[j] == (onramps.index(l + 1) if l + 1 in onramps else -1)
        if l == n - 1:
            assert (plan.down[j], plan.rho_jam_down[j, 0], plan.w_dt_down[j, 0]) == (l, np.inf, np.inf)
        else:
            down = network.links[l + 1]
            assert (plan.down[j], plan.rho_jam_down[j, 0], plan.w_dt_down[j, 0]) == (
                l + 1, down.rho_jam, down.w * dt,
            )


def largest_float(holds, low: float, high: float) -> float:
    """The largest nonnegative float in ``[low, high)`` at which ``holds``
    is true, for a ``holds`` true at ``low``, false at ``high`` and
    switching once between them: a bisection over the floats' bit
    patterns, which order nonnegative floats as integers."""
    a, b = np.array([low, high]).view(np.int64).tolist()
    assert holds(low) and not holds(high)
    while b - a > 1:
        mid = (a + b) // 2
        a, b = (mid, b) if holds(float(np.array(mid).view(np.float64))) else (a, mid)
    return float(np.array(a).view(np.float64))


def flat_schedule(level: float, n_onramps: int = 0, noise: float = 0.0) -> DemandSchedule:
    profile = DemandProfile(base=level, peak=level, rise=(0.0, 0.0), fall=(1e9, 1e9), noise_frac=noise)
    ramp = DemandProfile(base=0.0, peak=0.0, rise=(0.0, 0.0), fall=(1e9, 1e9), noise_frac=0.0)
    return DemandSchedule(upstream=profile, onramps=(ramp,) * n_onramps)


@pytest.fixture(params=["libyaml", "python"])
def scenario_loader(request, monkeypatch):
    """Load scenarios on PyYAML's C parser (skipped where PyYAML was built
    without libyaml) or on its Python one, with the scenario loader's own
    ``construct_mapping``."""
    base = getattr(yaml, "CSafeLoader", None) if request.param == "libyaml" else yaml.SafeLoader
    if base is None:
        pytest.skip("PyYAML was built without libyaml")
    own = {"construct_mapping": scenario._ScenarioLoader.construct_mapping}
    monkeypatch.setattr(scenario, "_ScenarioLoader", type("_ScenarioLoader", (base,), own))
    return base


def pretend_cpus(monkeypatch, n: int) -> None:
    """Make this process appear to run on ``n`` CPUs, so that a seed map
    takes up to ``n`` processes on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
