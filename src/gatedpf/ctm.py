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


def _boundary_flows(mainline, supply, ramp_cols, ramp, priority):
    """Mainline and onramp inflows across a (P, B) block of boundaries.

    Every boundary passes ``min(mainline, supply)``, the rule of
    :func:`link_flow`.  Only the boundaries in ``ramp_cols``, whose onramp
    demands are the columns of ``ramp`` ((R,) shared or (P, R)), merge:
    when mainline plus ramp demand exceed the supply, the ramp takes the
    median of its demand, its ``priority`` share of the supply, and what
    the mainline leaves, and the mainline takes the rest.  Returns
    ``(q, r)``, both (P, B); ``r`` is zero off the onramp columns.
    """
    q = np.minimum(mainline, supply)
    r = np.zeros_like(q)
    if len(ramp_cols):
        main = mainline[:, ramp_cols]
        room = supply[:, ramp_cols]
        congested = main + ramp > room
        r_congested = _median3(ramp, priority * room, room - main)
        r_ramp = np.where(congested, r_congested, ramp)
        q[:, ramp_cols] = np.where(congested, room - r_ramp, main)
        r[:, ramp_cols] = r_ramp
    return q, r


def _states_block(states, network: FreewayNetwork) -> np.ndarray:
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[1] != network.n_links:
        raise ConfigurationError(
            f"states must be a (P, {network.n_links}) block, got shape {states.shape}"
        )
    return states


def junction_flows(
    states: np.ndarray,
    network: FreewayNetwork,
    upstream_demand,
    onramp_demand=None,
):
    """All boundary, onramp, and offramp flows of a (P, L) block for one step.

    Parameters
    ----------
    states : ndarray, shape (P, L)
        Link densities, one row per state.
    upstream_demand : float or (P,) array
        Demand offered at the upstream boundary.
    onramp_demand : array, shape (R,) or (P, R), optional
        Demand per onramp link, aligned with ``network.onramp_links``.

    Returns
    -------
    (q, r, s)
        Boundary flows ``q`` (P, L + 1) (the last column is the exit flow
        of the final link), onramp inflows ``r`` and offramp outflows
        ``s``, both (P, L).

    Offramps split first (``s = beta * demand``); the remaining mainline
    demand then crosses each boundary under :func:`_boundary_flows`.
    """
    states = _states_block(states, network)
    n_p, n_l = states.shape
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

    ramp_cols = list(network.onramp_links)
    ramp = None
    if ramp_cols:
        if onramp_demand is None:
            raise ConfigurationError("network has onramps but no onramp demand given")
        ramp = np.broadcast_to(np.asarray(onramp_demand, dtype=float), (n_p, len(ramp_cols)))

    q = np.empty((n_p, n_l + 1))
    q[:, :n_l], r = _boundary_flows(dem_main, supply, ramp_cols, ramp, network.onramp_priority)
    q[:, n_l] = mainline_demand[:, -1]  # free outflow at the downstream end
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
    states = np.asarray(states, dtype=float)
    q, r, s = junction_flows(states, network, upstream_demand, onramp_demand)
    new_states = states + (q[:, :-1] - q[:, 1:] + r - s) / network.lengths
    if float(np.min(new_states)) < -DENSITY_TOL:
        raise ModelConsistencyError("negative density after step")
    if float(np.max(new_states - network.rho_jam)) > DENSITY_TOL:
        raise ModelConsistencyError("density above jam density after step")
    new_states = np.minimum(np.maximum(new_states, 0.0), network.rho_jam)
    return new_states, q, r, s


def _speeds(discharge, rho, dt: float, vf) -> np.ndarray:
    """Link speeds from discharge (mainline outflow plus offramp flow).

    Speed is ``discharge / (rho * dt)``, clamped to ``[0, vf]``; near-empty
    links report freeflow.  Including the offramp share keeps an
    uncongested link exactly at its freeflow speed regardless of its split
    ratio.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        v = discharge / (rho * dt)
    v = np.where(rho > EMPTY_DENSITY, v, vf)
    return np.minimum(np.maximum(v, 0.0), vf)


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
    demand never enters.  The boundary rule is :func:`junction_flows`' and
    the speed rule is :func:`simulate`'s, so every column equals the same
    link's column of the full map bit for bit.
    """
    states = _states_block(states, network)
    n_l = network.n_links
    links = np.asarray(links, dtype=np.intp).reshape(-1)
    if links.size and not (0 <= links.min() and links.max() < n_l):
        raise ConfigurationError(f"links {links.tolist()} outside [0, {n_l - 1}]")
    dt = network.dt

    rho = states[:, links]
    demand = np.minimum(network.vf[links] * dt * rho, network.qmax[links])
    s = network.beta[links] * demand
    mainline = demand - s

    # Each link's downstream boundary is link l + 1's inflow; the last
    # link's end takes any outflow, so its supply is unbounded.
    down = np.minimum(links + 1, n_l - 1)
    supply = network.w[down] * dt * (network.rho_jam[down] - states[:, down])
    supply[:, links == n_l - 1] = np.inf
    slot = network._onramp_slot[links + 1]
    ramp_cols = np.flatnonzero(slot >= 0) if onramp_demand is not None else []
    ramp = np.asarray(onramp_demand, dtype=float)[..., slot[ramp_cols]] if len(ramp_cols) else None
    outflow, _ = _boundary_flows(mainline, supply, ramp_cols, ramp, network.onramp_priority)
    return _speeds(outflow + s, rho, dt, network.vf[links])


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

    def table(self, steps) -> np.ndarray:
        """Mean demands and noise scales of each step in ``steps``.

        Returns a ``(len(steps), 2, 1 + R)`` array: row ``i`` holds step
        ``steps[i]``'s means (upstream first, then the onramps in order) and
        their noise scales ``noise_frac * mean``.  Callers that draw many
        steps build it once, over ``range(horizon)``.
        """
        profiles = (self.upstream, *self.onramps)
        out = np.empty((len(steps), 2, len(profiles)))
        for i, k in enumerate(steps):
            means = [p.mean(k * self.dt) for p in profiles]
            out[i, 0] = means
            out[i, 1] = [p.noise_frac * m for p, m in zip(profiles, means)]
        return out

    def sample(self, k: int, rng: RandomSource, size: int, table: np.ndarray):
        """Draw step ``k``'s realized demands, one row per particle.

        Returns the upstream demands, shape ``(size,)``, and the onramp
        demands, shape ``(size, R)``, clipped at zero.  Each draw is
        ``mean + noise_frac * mean * z`` on standard normal draws ``z``
        (upstream first), which is how numpy computes
        ``Generator.normal(mean, noise_frac * mean)``: the stream order and
        the bits match drawing from the broadcast means and stds, without
        materializing them.  ``table`` is this schedule's :meth:`table`
        over ``range(horizon)`` for some horizon past ``k``.
        """
        mean, scale = table[k]
        upstream = np.maximum(mean[0] + scale[0] * rng.normal(size=size), 0.0)
        ramps = np.maximum(mean[1:] + scale[1:] * rng.normal(size=(size, len(mean) - 1)), 0.0)
        return upstream, ramps


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
    means = schedule.table((0,))[0, 0]
    upstream, ramps = means[0], means[1:]
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
    table = schedule.table(range(horizon))
    for k in range(horizon):
        upstream, ramps = schedule.sample(k, rng, 1, table)
        new_states, q[k : k + 1], r[k : k + 1], s[k : k + 1] = advance(
            states[k : k + 1], network, upstream, ramps
        )
        states[k + 1] = new_states[0]
    speeds = _speeds(q[:, 1:] + s, states[:-1], network.dt, network.vf)
    return Trajectory(states=states, q=q, r=r, s=s, speeds=speeds)
