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
from typing import NamedTuple

import numpy as np

from .buffers import StepBuffers
from .errors import ConfigurationError, ModelConsistencyError
from .rng import NORMAL_BOUND, RandomSource, relative_draws_fit

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
        # A link's vehicle count, rint(rho * length), is a 64-bit integer;
        # a density is at most rho_jam and rounding is monotone, so every
        # count fits when the jam count does.
        if not self.rho_jam * self.length < 2.0**63:
            raise ConfigurationError(
                f"link length {self.length!r} holds {self.rho_jam * self.length!r} vehicles at "
                f"rho_jam {self.rho_jam!r}; a link's vehicle count must be below 2**63"
            )


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
        # The speed rule divides by rho * dt on links above EMPTY_DENSITY;
        # rounding is monotone, so none of those products is 0 exactly
        # when EMPTY_DENSITY * dt is not.
        if EMPTY_DENSITY * self.dt == 0.0:
            raise ConfigurationError(
                f"timestep dt {self.dt!r} is too small: an occupied link's rho * dt is 0"
            )
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

    # The per-link constants as read-only (L, 1) columns, one row per link,
    # so that a step broadcasts them over its (L, P) blocks as they are.

    @cached_property
    def lengths(self) -> np.ndarray:
        return _column(l.length for l in self.links)

    @cached_property
    def vf(self) -> np.ndarray:
        return _column(l.vf for l in self.links)

    @cached_property
    def w(self) -> np.ndarray:
        return _column(l.w for l in self.links)

    @cached_property
    def qmax(self) -> np.ndarray:
        return _column(l.qmax for l in self.links)

    @cached_property
    def rho_jam(self) -> np.ndarray:
        return _column(l.rho_jam for l in self.links)

    @cached_property
    def beta(self) -> np.ndarray:
        return _column(l.beta if l.offramp else 0.0 for l in self.links)

    @cached_property
    def _vf_dt(self) -> np.ndarray:
        return _read_only(self.vf * self.dt)

    @cached_property
    def _w_dt(self) -> np.ndarray:
        return _read_only(self.w * self.dt)

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


def _column(values) -> np.ndarray:
    return _read_only(np.array(list(values))[:, None])


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class LinkPlan(NamedTuple):
    """The speed map's constants on a list of links, built by
    :func:`link_plan` from a network and read by :func:`speed_map`.

    Every column holds position j in row j, and position j is link
    ``links[j]`` (any order; repeats allowed): ``down``, the downstream
    link whose density bounds the discharge (the last link's own, since its
    end is free); ``vf``, ``vf_dt`` (``vf * dt``), ``qmax`` and
    ``off_share`` (the offramp split ratio, 0 without an offramp) of the
    link; ``rho_jam_down`` and ``w_dt_down`` (``w * dt``) of the downstream
    link, both ``inf`` on the last link, whose supply is unbounded; and
    ``ramp_slot``, the index in ``network.onramp_links`` of the onramp at
    the link's downstream boundary, -1 for none.  The float columns are
    (K, 1), the index columns (K,); all are read-only, so the plan of
    positions ``a:b`` is every column's slice ``a:b``.
    """

    links: np.ndarray
    down: np.ndarray
    vf: np.ndarray
    vf_dt: np.ndarray
    qmax: np.ndarray
    rho_jam_down: np.ndarray
    w_dt_down: np.ndarray
    off_share: np.ndarray
    ramp_slot: np.ndarray


def link_plan(network: FreewayNetwork, links) -> LinkPlan:
    """The :class:`LinkPlan` of ``network`` on ``links``, link indices in
    any order with repeats allowed: the network's columns gathered at each
    link and its downstream link.  A link outside the network raises
    :class:`ConfigurationError`."""
    n_l = network.n_links
    links = np.array(links, dtype=np.intp).reshape(-1)
    if links.size and not (0 <= links.min() and links.max() < n_l):
        raise ConfigurationError(f"links {links.tolist()} outside [0, {n_l - 1}]")
    # Each link's downstream boundary is link l + 1's inflow; the last
    # link's end takes any outflow, so its supply is unbounded.
    down = np.minimum(links + 1, n_l - 1)
    free_end = (links == n_l - 1)[:, None]
    columns = (
        links,
        down,
        network.vf[links],
        network._vf_dt[links],
        network.qmax[links],
        np.where(free_end, np.inf, network.rho_jam[down]),
        np.where(free_end, np.inf, network._w_dt[down]),
        network.beta[links],
        network._onramp_slot[links + 1],
    )
    return LinkPlan(*map(_read_only, columns))


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
    ``None`` when there are none; when no merge is congested they are the
    demands, and ``ramp`` itself is returned.
    """
    if not len(ramp_rows):
        np.minimum(mainline, supply, out=mainline)
        return None
    main = mainline[ramp_rows]
    np.minimum(mainline, supply, out=mainline)
    room = supply[ramp_rows]
    congested = main + ramp > room
    if not congested.any():
        mainline[ramp_rows] = main
        return ramp
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


def _ramp_block(network: FreewayNetwork, onramp_demand) -> np.ndarray | None:
    """Onramp demands as rows: an (R,) vector shared by the particles
    becomes an (R, 1) column, an (R, P) block is kept; ``None`` on a network
    without onramps.  A network with onramps given no demand raises
    :class:`ConfigurationError`."""
    if not len(network._onramp_rows):
        return None
    if onramp_demand is None:
        raise ConfigurationError("network has onramps but no onramp demand given")
    ramp = np.asarray(onramp_demand, dtype=float)
    return ramp[:, None] if ramp.ndim == 1 else ramp


def _flows(states, network: FreewayNetwork, upstream_demand, onramp_demand, work: StepBuffers):
    """The flows of a checked (L, P) block for one step, each ramp flow on
    its own link's row only.

    Returns ``(q, r, s)``: the boundary flows ``q`` (L + 1, P), which is
    ``work.flows``, the onramp inflows ``r`` (R, P) of
    ``network.onramp_links`` and the offramp outflows ``s`` of the links
    with a positive split ratio; ``r`` or ``s`` is ``None`` when the network
    has no such link.  Every other link's ramp flows are exactly zero.  The
    supplies are left in ``work.supply``.
    """
    n_l = states.shape[0]
    ramp = _ramp_block(network, onramp_demand)

    # Boundary b feeds link b.  Its mainline demand is the upstream demand
    # for b = 0 and link b-1's demand after the offramp split otherwise, so
    # q's rows 1..L take the links' demands; the last is the free outflow
    # at the downstream end.
    q = work.flows
    q[0] = upstream_demand
    demand = q[1:]
    np.multiply(network._vf_dt, states, out=demand)
    np.minimum(demand, network.qmax, out=demand)
    off = network._offramp_rows
    s = None
    if len(off):
        s = network.beta[off] * demand[off]
        demand[off] -= s
    supply = np.subtract(network.rho_jam, states, out=work.supply)
    supply *= network._w_dt
    r = _boundary_flows(q[:n_l], supply, network._onramp_rows, ramp, network.onramp_priority)
    return q, r, s


def _clamp_densities(states: np.ndarray, network: FreewayNetwork) -> None:
    """Clamp an (L, P) block to ``[0, rho_jam]`` in place, each row to its
    link's jam density, after raising :class:`ModelConsistencyError` if a
    density is below zero or above its jam density by more than
    ``DENSITY_TOL``.  Subtracting a row's jam density is monotone under
    rounding, so each row's largest excess is its maximum minus its jam
    density, exactly as the largest of its elementwise excesses.  A NaN
    passes both checks, as it does the elementwise ones, and stays.  A
    bound that no density reaches leaves the block as the clamp would, so
    that clamp is skipped."""
    low = float(states.min())
    if low < -DENSITY_TOL:
        raise ModelConsistencyError("negative density after step")
    excess = float(np.subtract(states.max(axis=1, keepdims=True), network.rho_jam).max())
    if excess > DENSITY_TOL:
        raise ModelConsistencyError("density above jam density after step")
    if not low > 0.0:
        np.maximum(states, 0.0, out=states)
    if not excess <= 0.0:
        np.minimum(states, network.rho_jam, out=states)


def advance(
    states: np.ndarray,
    network: FreewayNetwork,
    upstream_demand,
    onramp_demand,
    work: StepBuffers,
):
    """One conservation update for an (L, P) block of density states.

    Returns the new (L, P) block, a fresh array; the step's flows and
    supplies are computed in ``work``.  Link l gains ``q[l] - q[l + 1] +
    r[l] - s[l]`` vehicles, in that order, from the step's boundary, onramp
    and offramp flows (offramps split first, then each boundary passes
    ``min(demand, supply)`` and onramps merge by priority); the ramp terms
    are added on their own links only, since they are exactly zero
    elsewhere.  Raises if any post-step density leaves ``[0, rho_jam]`` by
    more than the numerical tolerance, which indicates inconsistent
    parameters rather than rounding.
    """
    states = _states_block(states, network)
    q, r, s = _flows(states, network, upstream_demand, onramp_demand, work)
    gain = q[:-1] - q[1:]
    if r is not None:
        gain[network._onramp_rows] += r
    if s is not None:
        gain[network._offramp_rows] -= s
    gain /= network.lengths
    new_states = np.add(states, gain, out=gain)
    _clamp_densities(new_states, network)
    return new_states


def speed_map(
    states: np.ndarray,
    network: FreewayNetwork,
    plan: LinkPlan,
    onramp_demand,
    work: StepBuffers,
) -> np.ndarray:
    """Model-predicted speeds of an (L, P) block of states on the links of
    ``plan``, a :class:`LinkPlan` of ``network`` (:func:`link_plan`), only.

    Returns a (K, P) block whose row j is the plan's position j, computed
    in ``work``: the block is a view of ``work.link_density``.  A link's
    speed is its discharge, the flow across its downstream boundary plus
    its offramp flow, over ``rho * dt``, evaluated at the given (typically
    mean) onramp demands, (R,) or (R, P), which a network without onramps
    gives as ``None``, as for :func:`advance`.  Link l's discharge reads
    only links l and l + 1 and the onramp demand at l + 1, so the upstream
    boundary demand never enters.  The boundary rule is :func:`advance`'s,
    so every row equals the same link's speed computed from the step's full
    boundary flows bit for bit; :func:`simulate` derives the truth speeds
    here too, one column per step at that step's realized onramp demands.
    """
    states = _states_block(states, network)
    ramp = _ramp_block(network, onramp_demand)
    n_k = len(plan.links)

    # The plan's links were checked when it was built, so a clipping take,
    # which writes its out block directly, gathers the rows a raising one
    # would.
    rho = np.take(states, plan.links, axis=0, out=work.link_density[:n_k], mode="clip")
    mainline = np.multiply(plan.vf_dt, rho, out=work.discharge[:n_k])
    np.minimum(mainline, plan.qmax, out=mainline)
    off = np.flatnonzero(plan.off_share)
    if len(off):
        s = plan.off_share[off] * mainline[off]
        mainline[off] -= s

    supply = np.take(states, plan.down, axis=0, out=work.link_supply[:n_k], mode="clip")
    np.subtract(plan.rho_jam_down, supply, out=supply)
    supply *= plan.w_dt_down
    ramp_rows = np.flatnonzero(plan.ramp_slot >= 0)
    ramp = ramp[plan.ramp_slot[ramp_rows]] if len(ramp_rows) else None
    _boundary_flows(mainline, supply, ramp_rows, ramp, network.onramp_priority)
    # Speed is discharge over rho * dt, clamped to [0, vf]; near-empty
    # links report freeflow, so the speeds start at freeflow (in the
    # densities' block, once the densities are read) and only occupied
    # links divide.  Counting the offramp share keeps an uncongested link
    # exactly at freeflow whatever its split ratio.
    if len(off):
        mainline[off] += s
    occupied = np.greater(rho, EMPTY_DENSITY, out=work.occupied[:n_k])
    rho_dt = np.multiply(rho, network.dt, out=supply)
    v = rho
    np.copyto(v, plan.vf)
    np.divide(mainline, rho_dt, out=v, where=occupied)
    np.maximum(v, 0.0, out=v)
    return np.minimum(v, plan.vf, out=v)


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
        # A mean interpolates between base and peak, and a draw is mean +
        # noise_frac * mean * z (DemandSchedule.sample).
        if not relative_draws_fit(max(self.base, self.peak), self.noise_frac):
            level = "base" if self.base >= self.peak else "peak"
            raise ConfigurationError(
                f"{level} {max(self.base, self.peak)!r} with noise_frac {self.noise_frac!r} draws "
                f"demands past the float range: mean + noise_frac * mean * z must be finite "
                f"for |z| up to {NORMAL_BOUND:g}"
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
    # last, so a network jammed below the floor still starts inside it, and
    # takes the inf that a tiny vf * dt may give.
    with np.errstate(over="ignore"):
        rho0 = min(
            max(upstream / (network.links[0].vf * network.dt), 1e-5),
            0.5 * float(np.min(network.rho_jam)),
        )
    states = np.full((network.n_links, 1), rho0)
    work = StepBuffers(1, n_states=network.n_links)
    for _ in range(EQUILIBRIUM_ITERATIONS):
        states = advance(states, network, upstream, ramps, work)
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
    work = StepBuffers(1, n_states=n_l)
    for k in range(horizon):
        upstream, ramp = schedule.sample(k, rng, 1, table)
        ramps[k] = ramp[:, 0]
        states[k + 1] = advance(states[k][:, None], network, upstream, ramp, work)[:, 0]
    # One call gives every step's speeds, step k's column at its own
    # realized onramp demands.
    plan = link_plan(network, range(n_l))
    speeds = speed_map(states[:-1].T, network, plan, ramps.T, StepBuffers(horizon, max_links=n_l))
    return Trajectory(states=states, speeds=np.ascontiguousarray(speeds.T))
