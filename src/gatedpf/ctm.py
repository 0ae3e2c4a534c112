"""Discrete-time cell transmission model of a linear freeway.

The freeway is a chain of finite-volume links, each carrying a vehicle
density (veh/m).  Per step, every link offers a demand flow limited by its
freeflow speed and capacity, and accepts flow limited by its congestion-wave
supply; the realized boundary flow is the minimum of the two sides.  Links
may carry an offramp (a fixed split of the demand leaves the mainline) and
an onramp (ramp demand merges with the upstream mainline under a priority
rule, unused allocation redistributed).  Speeds follow the hydrodynamic
relation flow / density with a freeflow fallback on near-empty links.

All flow units are vehicles per timestep.  Speed parameters are converted
to per-step fractions internally (``v_f * dt / L`` and ``w * dt / L``),
which requires the CFL conditions ``v_f * dt <= L`` and ``w * dt <= L``.

Everything here is a pure function of its inputs and batch-first: states
are ``(P, L)`` blocks of densities, so a particle population is propagated
in one call and the truth simulation is the ``P = 1`` case.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ModelConsistencyError
from .rng import RandomSource

DENSITY_TOL = 1e-9
EMPTY_DENSITY = 1e-6  # below this, speed falls back to freeflow


@dataclass(frozen=True)
class LinkParams:
    """Fundamental-diagram and ramp parameters of one link.

    length in meters, speeds in m/s, capacity in vehicles per timestep,
    jam density in veh/m.  ``beta`` is the offramp split ratio applied to
    the link's demand flow.
    """

    length: float
    vf: float
    w: float
    qmax: float
    rho_jam: float
    onramp: bool = False
    offramp: bool = False
    beta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("length", "vf", "w", "qmax", "rho_jam"):
            if not getattr(self, name) > 0.0:
                raise ConfigurationError(f"link parameter {name} must be positive")
        if not (0.0 <= self.beta < 1.0):
            raise ConfigurationError(f"offramp split beta must be in [0, 1), got {self.beta}")
        if self.beta > 0.0 and not self.offramp:
            raise ConfigurationError("beta > 0 requires offramp=True")


@dataclass(frozen=True)
class FreewayNetwork:
    """Ordered chain of links plus the shared timestep."""

    links: tuple[LinkParams, ...]
    dt: float
    onramp_priority: float = 0.5

    def __post_init__(self) -> None:
        if len(self.links) < 1:
            raise ConfigurationError("network needs at least one link")
        if not self.dt > 0.0:
            raise ConfigurationError("timestep dt must be positive")
        if not (0.0 <= self.onramp_priority <= 1.0):
            raise ConfigurationError("onramp priority must be in [0, 1]")
        for i, link in enumerate(self.links):
            if link.vf * self.dt > link.length + 1e-12:
                raise ConfigurationError(
                    f"links[{i}]: CFL violated, vf * dt = {link.vf * self.dt} > length"
                )
            if link.w * self.dt > link.length + 1e-12:
                raise ConfigurationError(
                    f"links[{i}]: CFL violated, w * dt = {link.w * self.dt} > length"
                )

    @property
    def n_links(self) -> int:
        return len(self.links)

    @cached_property
    def lengths(self) -> np.ndarray:
        return np.array([l.length for l in self.links])

    @cached_property
    def vf(self) -> np.ndarray:
        return np.array([l.vf for l in self.links])

    @cached_property
    def w(self) -> np.ndarray:
        return np.array([l.w for l in self.links])

    @cached_property
    def qmax(self) -> np.ndarray:
        return np.array([l.qmax for l in self.links])

    @cached_property
    def rho_jam(self) -> np.ndarray:
        return np.array([l.rho_jam for l in self.links])

    @cached_property
    def beta(self) -> np.ndarray:
        return np.array([l.beta if l.offramp else 0.0 for l in self.links])

    @cached_property
    def onramp_links(self) -> tuple[int, ...]:
        return tuple(i for i, l in enumerate(self.links) if l.onramp)

    @cached_property
    def _onramp_slot(self) -> np.ndarray:
        # Boundary b -> index of link b's onramp in ``onramp_links``, -1 for
        # none; boundary L, the downstream end, has none.
        slot = np.full(self.n_links + 1, -1, dtype=np.intp)
        slot[list(self.onramp_links)] = np.arange(len(self.onramp_links))
        return slot


@dataclass(frozen=True)
class BoundaryDemand:
    """Random exogenous demand for one timestep: upstream inflow plus onramps.

    Demands are truncated Gaussians (clipped at zero).  ``onramp_mean`` and
    ``onramp_std`` are aligned with ``FreewayNetwork.onramp_links``.
    """

    upstream_mean: float
    upstream_std: float
    onramp_mean: np.ndarray
    onramp_std: np.ndarray

    def sample(self, rng: RandomSource, size: int):
        """Draw realized demands, one row per particle.

        Returns the upstream demands, shape ``(size,)``, and the onramp
        demands, shape ``(size, R)``.  Each draw is ``mean + std * z`` on
        standard normal draws ``z``, which is how numpy computes a draw of
        ``Generator.normal(mean, std)``: the stream order and the bits match
        drawing from the broadcast means and stds, without materializing
        them.  Stds must be nonnegative.
        """
        upstream = np.clip(
            self.upstream_mean + self.upstream_std * rng.normal(size=size), 0.0, None
        )
        n_ramps = len(np.atleast_1d(self.onramp_mean))
        ramps = np.clip(
            self.onramp_mean + self.onramp_std * rng.normal(size=(size, n_ramps)), 0.0, None
        )
        return upstream, ramps


def link_flow(
    rho_up: float,
    up: LinkParams,
    rho_down: float,
    down: LinkParams,
    dt: float,
) -> float:
    """Mainline flow across a plain (ramp-free) boundary.

    The minimum of the upstream demand ``vf * dt * rho``, the upstream
    capacity, and the downstream supply ``w * dt * (rho_jam - rho)``; a
    jammed downstream link refuses to accept flow.
    """
    for rho, params, side in ((rho_up, up, "upstream"), (rho_down, down, "downstream")):
        if not (0.0 <= rho <= params.rho_jam + DENSITY_TOL):
            raise ModelConsistencyError(
                f"{side} density {rho} outside [0, {params.rho_jam}]"
            )
    demand = min(up.vf * dt * rho_up, up.qmax)
    supply = down.w * dt * (down.rho_jam - rho_down)
    return max(0.0, min(demand, supply))


def _median3(a, b, c):
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def junction_flows(
    rho,
    network: FreewayNetwork,
    upstream_demand,
    onramp_demand=None,
):
    """All boundary, onramp, and offramp flows for one step.

    Parameters
    ----------
    rho : ndarray, shape (L,) or (P, L)
        Link densities; a 2-D block evaluates many states at once.
    upstream_demand : float or (P,) array
        Demand offered at the upstream boundary.
    onramp_demand : array, shape (R,) or (P, R), optional
        Demand per onramp link, aligned with ``network.onramp_links``.

    Returns
    -------
    (q, r, s)
        Boundary flows ``q`` (last entry is the exit flow of the final
        link), onramp inflows ``r``, and offramp outflows ``s``, each with
        the batch shape of ``rho``.

    Offramps split first (``s = beta * demand``); the remaining mainline
    demand and any onramp demand then share the downstream supply under
    the priority merge, with unused allocation redistributed.
    """
    rho_arr = np.asarray(rho, dtype=float)
    squeeze = rho_arr.ndim == 1
    states = np.atleast_2d(rho_arr)
    n_p, n_l = states.shape
    if n_l != network.n_links:
        raise ConfigurationError(
            f"state has {n_l} links, network has {network.n_links}"
        )
    dt = network.dt

    demand = np.minimum(network.vf * dt * states, network.qmax)
    s = network.beta * demand
    mainline_demand = demand - s
    supply = network.w * dt * (network.rho_jam - states)

    # Boundary b feeds link b; its mainline side is the upstream boundary
    # demand for b = 0 and link b-1's post-split demand otherwise.
    dem_main = np.empty_like(states)
    dem_main[:, 0] = np.asarray(upstream_demand, dtype=float)
    dem_main[:, 1:] = mainline_demand[:, :-1]

    dem_ramp = np.zeros_like(states)
    if network.onramp_links:
        if onramp_demand is None:
            raise ConfigurationError("network has onramps but no onramp demand given")
        ramp = np.atleast_2d(np.asarray(onramp_demand, dtype=float))
        ramp = np.broadcast_to(ramp, (n_p, len(network.onramp_links)))
        dem_ramp[:, list(network.onramp_links)] = ramp

    congested = dem_main + dem_ramp > supply
    priority = network.onramp_priority
    r_congested = _median3(dem_ramp, priority * supply, supply - dem_main)
    r = np.where(congested, r_congested, dem_ramp)
    q_in = np.where(congested, supply - r, dem_main)

    q = np.empty((n_p, n_l + 1))
    q[:, :n_l] = q_in
    q[:, n_l] = mainline_demand[:, -1]  # free outflow at the downstream end

    if squeeze:
        return q[0], r[0], s[0]
    return q, r, s


def advance(
    states: np.ndarray,
    network: FreewayNetwork,
    upstream_demand,
    onramp_demand=None,
):
    """One conservation update for a (P, L) block of density states.

    Returns ``(new_states, q, r, s)``.  Raises if any post-step density
    leaves ``[0, rho_jam]`` by more than the numerical tolerance, which
    indicates inconsistent parameters rather than rounding.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    q, r, s = junction_flows(states, network, upstream_demand, onramp_demand)
    new_states = states + (q[:, :-1] - q[:, 1:] + r - s) / network.lengths
    if float(np.min(new_states)) < -DENSITY_TOL:
        raise ModelConsistencyError("negative density after step")
    if float(np.max(new_states - network.rho_jam)) > DENSITY_TOL:
        raise ModelConsistencyError("density above jam density after step")
    new_states = np.clip(new_states, 0.0, network.rho_jam)
    return new_states, q, r, s


def _flow_speeds(states: np.ndarray, q: np.ndarray, s: np.ndarray, network: FreewayNetwork) -> np.ndarray:
    """Per-link speeds of a (P, L) block from its realized flows.

    Speed is total discharge (mainline outflow plus offramp flow) over
    ``rho * dt``, clamped to ``[0, vf]``; near-empty links report freeflow.
    Including the offramp share keeps an uncongested link exactly at its
    freeflow speed regardless of its split ratio.
    """
    discharge = q[:, 1:] + s
    with np.errstate(divide="ignore", invalid="ignore"):
        v = discharge / (states * network.dt)
    v = np.where(states > EMPTY_DENSITY, v, network.vf)
    return np.clip(v, 0.0, network.vf)


def speed_map(
    states: np.ndarray,
    network: FreewayNetwork,
    links,
    onramp_demand=None,
) -> np.ndarray:
    """Model-predicted speeds of a (P, L) block of states on ``links`` only.

    Returns a ``(P, len(links))`` block whose column j is link ``links[j]``
    (any order; repeats allowed).  A link's speed is its discharge, the
    flow across its downstream boundary plus its offramp flow, over
    ``rho * dt``, evaluated at the given (typically mean) onramp demands;
    ``None`` means no onramp demand.  Link l's discharge reads only links
    l and l + 1 and the onramp demand at l + 1, so the upstream boundary
    demand never enters.  The arithmetic is that of :func:`junction_flows`
    followed by the speed rule :func:`simulate` records the truth's speeds
    with, element by element, so every column equals the same link's column
    of the full map bit for bit.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    n_l = network.n_links
    if states.shape[1] != n_l:
        raise ConfigurationError(f"state has {states.shape[1]} links, network has {n_l}")
    links = np.asarray(links, dtype=np.intp).reshape(-1)
    if links.size and not (0 <= links.min() and links.max() < n_l):
        raise ConfigurationError(f"links {links.tolist()} outside [0, {n_l - 1}]")
    dt = network.dt

    rho = states[:, links]
    demand = np.minimum(network.vf[links] * dt * rho, network.qmax[links])
    s = network.beta[links] * demand
    mainline = demand - s

    # The merge at each link's downstream boundary (link l + 1's inflow);
    # the last link's column is a placeholder, replaced by its free outflow.
    down = np.minimum(links + 1, n_l - 1)
    supply = network.w[down] * dt * (network.rho_jam[down] - states[:, down])
    ramp = np.zeros_like(rho)
    slot = network._onramp_slot[links + 1]
    has_ramp = slot >= 0
    if onramp_demand is not None and has_ramp.any():
        ramp[:, has_ramp] = np.asarray(onramp_demand, dtype=float)[..., slot[has_ramp]]
    congested = mainline + ramp > supply
    r_congested = _median3(ramp, network.onramp_priority * supply, supply - mainline)
    r = np.where(congested, r_congested, ramp)
    outflow = np.where(congested, supply - r, mainline)
    outflow = np.where(links == n_l - 1, mainline, outflow)

    discharge = outflow + s
    with np.errstate(divide="ignore", invalid="ignore"):
        v = discharge / (rho * dt)
    vf = network.vf[links]
    v = np.where(rho > EMPTY_DENSITY, v, vf)
    return np.clip(v, 0.0, vf)


@dataclass(frozen=True)
class DemandProfile:
    """Trapezoidal time-of-day demand curve with relative Gaussian noise.

    The mean ramps linearly from ``base`` to ``peak`` over ``rise``, holds,
    and returns to ``base`` over ``fall``; draws are clipped at zero.
    """

    base: float
    peak: float
    rise: tuple[float, float]
    fall: tuple[float, float]
    noise_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.base < 0.0 or self.peak < 0.0:
            raise ConfigurationError("demand levels must be nonnegative")
        if self.noise_frac < 0.0:
            raise ConfigurationError("demand noise fraction must be nonnegative")
        t0, t1 = self.rise
        t2, t3 = self.fall
        if not (t0 <= t1 <= t2 <= t3):
            raise ConfigurationError(
                f"demand profile breakpoints must be ordered, got {self.rise} and {self.fall}"
            )

    def mean(self, t: float) -> float:
        t0, t1 = self.rise
        t2, t3 = self.fall
        if t <= t0 or t >= t3:
            bump = 0.0
        elif t >= t1 and t <= t2:
            bump = 1.0
        elif t < t1:
            bump = (t - t0) / (t1 - t0)
        else:
            bump = (t3 - t) / (t3 - t2)
        return self.base + (self.peak - self.base) * bump


@dataclass(frozen=True)
class DemandSchedule:
    """Demand profiles for the upstream boundary and every onramp link."""

    dt: float
    upstream: DemandProfile
    onramps: tuple[DemandProfile, ...] = ()

    def means(self, k: int) -> tuple[float, np.ndarray]:
        t = k * self.dt
        upstream = self.upstream.mean(t)
        ramps = np.array([p.mean(t) for p in self.onramps])
        return upstream, ramps

    def boundary_demand(self, k: int) -> BoundaryDemand:
        upstream, ramps = self.means(k)
        return BoundaryDemand(
            upstream_mean=upstream,
            upstream_std=self.upstream.noise_frac * upstream,
            onramp_mean=ramps,
            onramp_std=np.array(
                [p.noise_frac * m for p, m in zip(self.onramps, ramps)]
            ),
        )

    def sample(self, k: int, rng: RandomSource, size: int):
        return self.boundary_demand(k).sample(rng, size=size)


@dataclass(frozen=True)
class Trajectory:
    """Ground-truth record of a simulated run.

    ``states`` holds K + 1 rows (initial state included); flows and speeds
    hold K rows, row k describing the transition from state k to k + 1.
    """

    states: np.ndarray
    q: np.ndarray
    r: np.ndarray
    s: np.ndarray
    speeds: np.ndarray

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1


def equilibrium_state(
    network: FreewayNetwork, schedule: DemandSchedule, iterations: int = 240
) -> np.ndarray:
    """Deterministic near-steady state under the schedule's base demand.

    Used to initialize both the truth simulation and the filter ensemble so
    runs start from a consistent, strictly positive density field.
    """
    upstream, ramps = schedule.means(0)
    rho0 = min(upstream / (network.links[0].vf * network.dt), 0.5 * float(np.min(network.rho_jam)))
    states = np.full((1, network.n_links), max(rho0, 1e-5))
    for _ in range(iterations):
        states, *_ = advance(states, network, upstream, ramps)
    return states[0]


def simulate(
    network: FreewayNetwork,
    schedule: DemandSchedule,
    horizon: int,
    rng: RandomSource,
    initial_state: np.ndarray | None = None,
) -> Trajectory:
    """Roll the model forward ``horizon`` steps, recording the full truth."""
    if horizon < 0:
        raise ConfigurationError("horizon must be nonnegative")
    n_l = network.n_links
    state = (
        equilibrium_state(network, schedule)
        if initial_state is None
        else np.asarray(initial_state, dtype=float)
    )
    if state.shape != (n_l,):
        raise ConfigurationError(f"initial state shape {state.shape} != ({n_l},)")
    states = np.empty((horizon + 1, n_l))
    q = np.empty((horizon, n_l + 1))
    r = np.empty((horizon, n_l))
    s = np.empty((horizon, n_l))
    states[0] = state
    for k in range(horizon):
        upstream, ramps = schedule.sample(k, rng, size=1)
        new_states, q[k : k + 1], r[k : k + 1], s[k : k + 1] = advance(
            states[k : k + 1], network, upstream, ramps
        )
        states[k + 1] = new_states[0]
    speeds = _flow_speeds(states[:-1], q, s, network)
    return Trajectory(states=states, q=q, r=r, s=s, speeds=speeds)
