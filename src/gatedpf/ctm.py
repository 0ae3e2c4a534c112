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

Everything here is a pure function of its inputs and works on link-major
blocks: states are ``(L, P)`` blocks of densities, one row per link and the
particle axis last, so a particle population is propagated in one call,
every shift between neighbouring links moves whole contiguous rows, and the
truth simulation is the ``P = 1`` case.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ModelConsistencyError
from .rng import RandomSource

DENSITY_TOL = 1e-9
EMPTY_DENSITY = 1e-6  # below this, speed falls back to freeflow
EQUILIBRIUM_ITERATIONS = 240  # steps from the flat start to the equilibrium state


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
    def _onramp_rows(self) -> np.ndarray:
        return np.array(self.onramp_links, dtype=np.intp)

    @cached_property
    def _offramp_rows(self) -> np.ndarray:
        # Links whose offramp takes a share; every other link's is zero.
        return np.flatnonzero(self.beta)

    @cached_property
    def _onramp_slot(self) -> np.ndarray:
        # Boundary b -> index of link b's onramp in ``onramp_links``, -1 for
        # none; boundary L, the downstream end, has none.
        slot = np.full(self.n_links + 1, -1, dtype=np.intp)
        slot[list(self.onramp_links)] = np.arange(len(self.onramp_links))
        return slot


def _median3(a, b, c):
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def _boundary_flows(mainline, supply, ramp_rows, ramp, priority):
    """Mainline and onramp inflows across a (B, P) block of boundaries.

    ``mainline`` holds each boundary's mainline demand and is overwritten
    with its mainline flow.  Every boundary passes ``min(mainline,
    supply)``.  Only the boundaries in
    ``ramp_rows``, whose onramp demands are the rows of ``ramp`` ((R, 1)
    shared or (R, P)), merge: when mainline plus ramp demand exceed the
    supply, the ramp takes the median of its demand, its ``priority`` share
    of the supply, and what the mainline leaves, and the mainline takes the
    rest.  Returns the onramp inflows of the ``ramp_rows``, (R, P), or
    ``None`` when there are none.
    """
    if not len(ramp_rows):
        np.minimum(mainline, supply, out=mainline)
        return None
    main = mainline[ramp_rows]
    np.minimum(mainline, supply, out=mainline)
    room = supply[ramp_rows]
    congested = main + ramp > room
    r = np.where(congested, _median3(ramp, priority * room, room - main), ramp)
    mainline[ramp_rows] = np.where(congested, room - r, main)
    return r


def _states_block(states, network: FreewayNetwork) -> np.ndarray:
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[0] != network.n_links:
        raise ConfigurationError(
            f"states must be an ({network.n_links}, P) block, got shape {states.shape}"
        )
    return states


def _ramp_block(onramp_demand) -> np.ndarray:
    """Onramp demands as rows: an (R,) vector shared by the particles
    becomes an (R, 1) column, an (R, P) block is kept."""
    ramp = np.asarray(onramp_demand, dtype=float)
    return ramp[:, None] if ramp.ndim == 1 else ramp


def _flows(states, network: FreewayNetwork, upstream_demand, onramp_demand):
    """The flows of a checked (L, P) block for one step, each ramp flow on
    its own link's row only.

    Returns ``(q, r, s)``: the boundary flows ``q`` (L + 1, P), the onramp
    inflows ``r`` (R, P) of ``network.onramp_links`` and the offramp
    outflows ``s`` of the links with a positive split ratio; ``r`` or ``s``
    is ``None`` when the network has no such link.  Every other link's
    ramp flows are exactly zero.
    """
    n_l, n_p = states.shape
    dt = network.dt
    ramp_rows = network._onramp_rows
    if len(ramp_rows) and onramp_demand is None:
        raise ConfigurationError("network has onramps but no onramp demand given")

    # Boundary b feeds link b.  Its mainline demand is the upstream demand
    # for b = 0 and link b-1's demand after the offramp split otherwise, so
    # q's rows 1..L take the links' demands; the last is the free outflow
    # at the downstream end.
    q = np.empty((n_l + 1, n_p))
    q[0] = upstream_demand
    demand = q[1:]
    np.multiply(network.vf[:, None] * dt, states, out=demand)
    np.minimum(demand, network.qmax[:, None], out=demand)
    off = network._offramp_rows
    s = None
    if len(off):
        s = network.beta[off, None] * demand[off]
        demand[off] -= s
    supply = network.rho_jam[:, None] - states
    supply *= network.w[:, None] * dt
    ramp = _ramp_block(onramp_demand) if len(ramp_rows) else None
    r = _boundary_flows(q[:n_l], supply, ramp_rows, ramp, network.onramp_priority)
    return q, r, s


def advance(
    states: np.ndarray,
    network: FreewayNetwork,
    upstream_demand,
    onramp_demand=None,
):
    """One conservation update for an (L, P) block of density states.

    Returns the new (L, P) block.  Link l gains ``q[l] - q[l + 1] + r[l] -
    s[l]`` vehicles, in that order, from the step's boundary, onramp and
    offramp flows (offramps split first, then each boundary passes
    ``min(demand, supply)`` and onramps merge by priority); the ramp terms are added on their own links only, since they are
    exactly zero elsewhere.  Raises if any post-step density leaves
    ``[0, rho_jam]`` by more than the numerical tolerance, which indicates
    inconsistent parameters rather than rounding.
    """
    states = _states_block(states, network)
    q, r, s = _flows(states, network, upstream_demand, onramp_demand)
    gain = q[:-1] - q[1:]
    if r is not None:
        gain[network._onramp_rows] += r
    if s is not None:
        gain[network._offramp_rows] -= s
    gain /= network.lengths[:, None]
    new_states = np.add(states, gain, out=gain)
    rho_jam = network.rho_jam[:, None]
    if float(np.min(new_states)) < -DENSITY_TOL:
        raise ModelConsistencyError("negative density after step")
    if float(np.max(new_states - rho_jam)) > DENSITY_TOL:
        raise ModelConsistencyError("density above jam density after step")
    np.maximum(new_states, 0.0, out=new_states)
    np.minimum(new_states, rho_jam, out=new_states)
    return new_states


def speed_map(
    states: np.ndarray,
    network: FreewayNetwork,
    links,
    onramp_demand=None,
) -> np.ndarray:
    """Model-predicted speeds of an (L, P) block of states on ``links`` only.

    Returns a ``(len(links), P)`` block whose row j is link ``links[j]``
    (any order; repeats allowed).  A link's speed is its discharge, the
    flow across its downstream boundary plus its offramp flow, over
    ``rho * dt``, evaluated at the given (typically mean) onramp demands,
    (R,) or (R, P); ``None`` means no onramp demand.  Link l's discharge
    reads only links l and l + 1 and the onramp demand at l + 1, so the
    upstream boundary demand never enters.  The boundary rule is
    :func:`advance`'s, so every row equals the same link's speed computed
    from the step's full boundary flows bit for bit; :func:`simulate`
    derives the truth speeds here too, one column per step at that step's
    realized onramp demands.
    """
    states = _states_block(states, network)
    n_l = network.n_links
    links = np.asarray(links, dtype=np.intp).reshape(-1)
    if links.size and not (0 <= links.min() and links.max() < n_l):
        raise ConfigurationError(f"links {links.tolist()} outside [0, {n_l - 1}]")
    dt = network.dt

    rho, vf = states[links], network.vf[links, None]
    mainline = np.minimum(vf * dt * rho, network.qmax[links, None])
    beta = network.beta[links]
    off = np.flatnonzero(beta)
    s = beta[off, None] * mainline[off]
    mainline[off] -= s

    # Each link's downstream boundary is link l + 1's inflow; the last
    # link's end takes any outflow, so its supply is unbounded.
    down = np.minimum(links + 1, n_l - 1)
    supply = network.rho_jam[down, None] - states[down]
    supply *= network.w[down, None] * dt
    supply[links == n_l - 1] = np.inf
    slot = network._onramp_slot[links + 1]
    ramp_rows = np.flatnonzero(slot >= 0) if onramp_demand is not None else ()
    ramp = _ramp_block(onramp_demand)[slot[ramp_rows]] if len(ramp_rows) else None
    _boundary_flows(mainline, supply, ramp_rows, ramp, network.onramp_priority)
    # Speed is discharge over rho * dt, clamped to [0, vf]; near-empty
    # links report freeflow.  Counting the offramp share keeps an
    # uncongested link exactly at freeflow whatever its split ratio.
    mainline[off] += s
    with np.errstate(divide="ignore", invalid="ignore"):
        v = mainline / (rho * dt)
    v = np.where(rho > EMPTY_DENSITY, v, vf)
    np.maximum(v, 0.0, out=v)
    return np.minimum(v, vf, out=v)


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
        """Draw step ``k``'s realized demands, one column per particle.

        Returns the upstream demands, shape ``(size,)``, and the onramp
        demands, shape ``(R, size)``, clipped at zero.  Each draw is
        ``mean + noise_frac * mean * z`` on standard normal draws ``z``
        (upstream first), which is how numpy computes
        ``Generator.normal(mean, noise_frac * mean)``: the stream order and
        the bits match drawing from the broadcast means and stds, without
        materializing them.  The onramp draws are taken particle by
        particle, as a ``(size, R)`` array, and returned transposed.
        ``table`` is this schedule's :meth:`table` over ``range(horizon)``
        for some horizon past ``k``.
        """
        mean, scale = table[k]
        upstream = np.maximum(mean[0] + scale[0] * rng.normal(size=size), 0.0)
        ramps = np.maximum(mean[1:] + scale[1:] * rng.normal(size=(size, len(mean) - 1)), 0.0)
        return upstream, ramps.T


@dataclass(frozen=True)
class Trajectory:
    """Ground-truth record of a simulated run.

    ``states`` holds K + 1 rows (initial state included); ``speeds`` holds
    K rows, row k the link speeds of the transition from state k to k + 1.
    """

    states: np.ndarray
    speeds: np.ndarray

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1


def equilibrium_state(network: FreewayNetwork, schedule: DemandSchedule) -> np.ndarray:
    """Deterministic near-steady state under the schedule's base demand.

    Used to initialize both the truth simulation and the filter ensemble so
    runs start from a consistent, strictly positive density field.
    """
    means = schedule.table((0,))[0, 0]
    upstream, ramps = means[0], means[1:]
    # The floor keeps the start strictly positive; the jam-density cap comes
    # last, so a network jammed below the floor still starts inside it.
    rho0 = min(
        max(upstream / (network.links[0].vf * network.dt), 1e-5),
        0.5 * float(np.min(network.rho_jam)),
    )
    states = np.full((network.n_links, 1), rho0)
    for _ in range(EQUILIBRIUM_ITERATIONS):
        states = advance(states, network, upstream, ramps)
    return states[:, 0]


def simulate(
    network: FreewayNetwork,
    schedule: DemandSchedule,
    horizon: int,
    rng: RandomSource,
    initial_state: np.ndarray,
) -> Trajectory:
    """Roll the model forward ``horizon`` steps from ``initial_state``.

    Each step's link speeds come from :func:`speed_map` at the onramp
    demands that step realized, so the truth speeds and the filter's
    predicted speeds are one model.
    """
    if horizon < 0:
        raise ConfigurationError("horizon must be nonnegative")
    n_l = network.n_links
    state = np.asarray(initial_state, dtype=float)
    if state.shape != (n_l,):
        raise ConfigurationError(f"initial state shape {state.shape} != ({n_l},)")
    states = np.empty((horizon + 1, n_l))
    ramps = np.empty((horizon, len(schedule.onramps)))
    states[0] = state
    table = schedule.table(range(horizon))
    for k in range(horizon):
        upstream, ramp = schedule.sample(k, rng, 1, table)
        ramps[k] = ramp[:, 0]
        states[k + 1] = advance(states[k][:, None], network, upstream, ramp)[:, 0]
    # One call gives every step's speeds, step k's column at its own
    # realized onramp demands.
    speeds = speed_map(states[:-1].T, network, range(n_l), ramps.T)
    return Trajectory(states=states, speeds=np.ascontiguousarray(speeds.T))
