"""Unit and property tests for the freeway model."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedpf.buffers import StepBuffers
from gatedpf.ctm import (
    DENSITY_TOL,
    EMPTY_DENSITY,
    DemandProfile,
    DemandSchedule,
    FreewayNetwork,
    LinkParams,
    LinkPlan,
    advance,
    _boundary_flows,
    _clamp_densities,
    _flows,
    _states_block,
    equilibrium_state,
    link_plan,
    simulate,
    speed_map,
)
from gatedpf.errors import ConfigurationError, ModelConsistencyError
from gatedpf.rng import NORMAL_BOUND, RandomSource
from gatedpf.scenario import default_scenario_dict, scenario_from_dict
from gatedpf.sensing import vehicle_counts

from conftest import (
    check_plan_columns, dirty_advance, dirty_buffers, dirty_speed_map, flat_schedule, largest_float,
    shares_buffers, small_network,
)


def make_link(**kw):
    defaults = dict(length=500.0, vf=25.0, w=5.0, qmax=4.0, rho_jam=0.125)
    defaults.update(kw)
    return LinkParams(**defaults)


# The smallest timestep whose EMPTY_DENSITY * dt is not 0.
SMALLEST_DT = 2.470333e-318


class TestTimestep:
    """A timestep is refused exactly when an occupied link's ``rho * dt``,
    the speed rule's divisor, can be 0."""

    def test_a_timestep_that_zeroes_an_occupied_rho_dt_is_refused(self):
        below = float(np.nextafter(SMALLEST_DT, 0.0))
        assert EMPTY_DENSITY * SMALLEST_DT > 0.0 and EMPTY_DENSITY * below == 0.0
        for dt in (5e-324, below):
            with pytest.raises(ConfigurationError, match=r"^timestep dt .* is too small"):
                FreewayNetwork(links=(make_link(),), dt=dt)

    def test_the_smallest_timestep_gives_finite_speeds(self):
        net = FreewayNetwork(
            (make_link(onramp=True), make_link(offramp=True, beta=0.2), make_link()), dt=SMALLEST_DT
        )
        schedule = flat_schedule(2.0, n_onramps=1, noise=0.1)
        truth = simulate(net, schedule, 20, RandomSource(3), equilibrium_state(net, schedule))
        assert np.all(np.isfinite(truth.speeds))
        # The least occupied density, an interior one and the jam density.
        occupied = np.tile([float(np.nextafter(EMPTY_DENSITY, 1.0)), 0.05, 0.125], (3, 1))
        speeds = dirty_speed_map(occupied, net, link_plan(net, range(3)), np.array([0.5]))
        assert np.all(np.isfinite(speeds)) and np.all(speeds >= 0.0)


class TestLinkParams:
    def test_positivity(self):
        with pytest.raises(ConfigurationError):
            make_link(vf=0.0)
        with pytest.raises(ConfigurationError):
            make_link(rho_jam=-1.0)

    def test_beta_requires_offramp(self):
        with pytest.raises(ConfigurationError):
            make_link(beta=0.1)
        make_link(offramp=True, beta=0.1)

    def test_a_jam_vehicle_count_past_int64_is_refused(self):
        # At rho_jam 2**-3 a length of 2**66 holds 2**63 vehicles, the
        # smallest refused count; the next length below holds the largest
        # accepted one, which vehicle_counts casts without a warning.
        with pytest.raises(ConfigurationError, match=r"^link length 7\.378697629483821e\+19 holds .* below 2\*\*63$"):
            make_link(length=2.0**66)
        for length in (1e300, np.inf):
            with pytest.raises(ConfigurationError, match=r"^link length .* below 2\*\*63$"):
                make_link(length=length)
        longest = float(np.nextafter(2.0**66, 0.0))
        network = FreewayNetwork(links=(make_link(length=longest),), dt=10.0)
        assert vehicle_counts(np.array([0.125]), network).tolist() == [2**63 - 1024]

    def test_cfl_enforced_by_network(self):
        link = make_link(vf=60.0)  # 60 * 10 > 500
        with pytest.raises(ConfigurationError):
            FreewayNetwork(links=(link,), dt=10.0)


class TestLinkFlow:
    def test_empty_upstream(self):
        a, b = make_link(), make_link()
        assert link_flow(0.0, a, 0.05, b, 10.0) == 0.0

    def test_jammed_downstream_refuses_flow(self):
        a, b = make_link(), make_link()
        assert link_flow(0.05, a, b.rho_jam, b, 10.0) == 0.0

    def test_hand_min_evaluation(self):
        # L = 500 both, dt = 10, vf = 25 -> demand 5; qmax = 4;
        # w = 5, rho_jam = 0.125, rho_down = 0.1 -> supply 1.25.
        up = make_link(vf=25.0, qmax=4.0)
        down = make_link(w=5.0)
        q = link_flow(0.02, up, 0.1, down, 10.0)
        assert q == pytest.approx(1.25, rel=1e-12)

    def test_capacity_binds(self):
        up = make_link(vf=25.0, qmax=4.0)
        down = make_link(w=5.0)
        assert link_flow(0.05, up, 0.0, down, 10.0) == pytest.approx(4.0)


def column(values) -> np.ndarray:
    """A one-particle (L, 1) block from one state's link densities."""
    return np.asarray(values, dtype=float)[:, None]


# The boundary rule as the tests read it.  The program computes the flows of
# a step only inside ``advance`` and ``speed_map``; these references expose
# the same rule, ``ctm._flows``, so the boundary tests exercise its bits.


def junction_flows(states, network, upstream_demand, onramp_demand=None):
    """All flows of an (L, P) block for one step by ``ctm._flows``: the
    boundary flows ``q`` (L + 1, P), the last row the exit flow of the final
    link, and the onramp inflows ``r`` and offramp outflows ``s`` as (L, P)
    blocks, zero on links without that ramp.  ``onramp_demand`` is (R,) or
    (R, P), aligned with ``network.onramp_links``."""
    states = _states_block(states, network)
    work = StepBuffers(states.shape[1], n_states=network.n_links)
    q, r_rows, s_rows = _flows(states, network, upstream_demand, onramp_demand, work)
    r, s = np.zeros_like(states), np.zeros_like(states)
    if r_rows is not None:
        r[network._onramp_rows] = r_rows
    if s_rows is not None:
        s[network._offramp_rows] = s_rows
    return q, r, s


def link_flow(rho_up, up, rho_down, down, dt):
    """Mainline flow across one plain boundary: the minimum of the upstream
    demand ``vf * dt * rho``, the upstream capacity and the downstream supply
    ``w * dt * (rho_jam - rho)``, as ``ctm._flows`` computes it on the
    two-link network of ``up`` and ``down`` with their ramps removed."""
    plain = tuple(dataclasses.replace(link, onramp=False, offramp=False, beta=0.0) for link in (up, down))
    network = FreewayNetwork(links=plain, dt=dt)
    q, _, _ = _flows(column([rho_up, rho_down]), network, 0.0, None, StepBuffers(1, n_states=2))
    return float(q[1, 0])


def all_boundary_merge(states, network, upstream_demand, onramp_demand=None):
    """How ``junction_flows`` used to compute its flows: the priority merge
    on every boundary, with zero ramp demand where there is no onramp, and
    the offramp split on every link.  Kept as the reference for the single
    boundary rule and for ramp flows added on their own links only; every
    operation is elementwise, so the (L, P) layout computes the bits the
    old (P, L) one did."""
    n_l, n_p = states.shape
    dt = network.dt
    demand = np.minimum(network.vf * dt * states, network.qmax)
    s = network.beta * demand
    mainline_demand = demand - s
    supply = network.w * dt * (network.rho_jam - states)
    dem_main = np.empty_like(states)
    dem_main[0] = np.asarray(upstream_demand, dtype=float)
    dem_main[1:] = mainline_demand[:-1]
    dem_ramp = np.zeros_like(states)
    if network.onramp_links:
        ramp = np.asarray(onramp_demand, dtype=float)
        ramp = ramp[:, None] if ramp.ndim == 1 else ramp
        dem_ramp[list(network.onramp_links)] = ramp
    congested = dem_main + dem_ramp > supply
    priority = network.onramp_priority
    median3 = np.maximum(
        np.minimum(dem_ramp, priority * supply),
        np.minimum(np.maximum(dem_ramp, priority * supply), supply - dem_main),
    )
    r = np.where(congested, median3, dem_ramp)
    q_in = np.where(congested, supply - r, dem_main)
    q = np.empty((n_l + 1, n_p))
    q[:n_l] = q_in
    q[n_l] = mainline_demand[-1]
    return q, r, s


def all_link_advance(states, network, upstream_demand, onramp_demand=None):
    """How ``advance`` used to update a block: every link gains ``q_in -
    q_out + r - s`` from :func:`all_boundary_merge`'s flows, zero ramp
    flows included, then the result is checked and clamped to ``[0,
    rho_jam]``."""
    q, r, s = all_boundary_merge(states, network, upstream_demand, onramp_demand)
    new_states = states + (q[:-1] - q[1:] + r - s) / network.lengths
    rho_jam = network.rho_jam
    if np.min(new_states) < -DENSITY_TOL or np.max(new_states - rho_jam) > DENSITY_TOL:
        raise ModelConsistencyError("density outside [0, rho_jam] after step")
    return np.minimum(np.maximum(new_states, 0.0), rho_jam)


@st.composite
def junction_cases(draw, onramp_at_0=False):
    """A network with random onramp/offramp layout and priority (with an
    onramp on link 0 when ``onramp_at_0``), an (L, P) block of zero,
    near-empty, jam and interior densities, nonnegative upstream demands
    and onramp demands shared by the particles or one column each."""
    n = draw(st.integers(1, 6))
    onramps = draw(st.sets(st.integers(0, n - 1))) | ({0} if onramp_at_0 else set())
    offramps = draw(st.sets(st.integers(0, n - 1)))
    net = small_network(
        n, onramps=onramps, offramps=offramps, beta=0.2,
        priority=draw(st.sampled_from([0.0, 0.3, 1.0])),
    )
    n_p = draw(st.integers(1, 4))
    level = st.one_of(
        st.sampled_from([0.0, 1e-7, EMPTY_DENSITY, 0.125]), st.floats(min_value=0.0, max_value=0.125)
    )
    state = st.lists(level, min_size=n, max_size=n)
    states = np.array(draw(st.lists(state, min_size=n_p, max_size=n_p))).T.copy()
    demand = st.floats(min_value=0.0, max_value=8.0)
    if draw(st.booleans()):
        upstream = draw(demand)
    else:
        upstream = np.array(draw(st.lists(demand, min_size=n_p, max_size=n_p)))
    n_r = len(onramps)
    ramp_row = st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=n_r, max_size=n_r)
    if draw(st.booleans()):
        ramps = np.array(draw(ramp_row))
    else:
        ramps = np.array(draw(st.lists(ramp_row, min_size=n_p, max_size=n_p))).reshape(n_p, n_r).T.copy()
    return net, states, upstream, ramps if onramps else None


def one_particle(case, p):
    """The inputs of ``case`` restricted to particle ``p``, as an (L, 1)
    block with its own upstream and onramp demands."""
    _, states, upstream, ramps = case
    if np.ndim(upstream):
        upstream = upstream[p : p + 1]
    if ramps is not None and ramps.ndim == 2:
        ramps = ramps[:, p : p + 1]
    return states[:, p : p + 1], upstream, ramps


def outcome(fn, *args):
    """``fn(*args)``, or the type of the model error it raises."""
    try:
        return fn(*args)
    except ModelConsistencyError as exc:
        return type(exc)


class TestJunctionFlows:
    def test_reduces_to_link_flow_without_ramps(self):
        net = small_network(3)
        rho = column([0.02, 0.05, 0.1])
        q, r, s = junction_flows(rho, net, upstream_demand=0.7)
        assert np.all(r == 0) and np.all(s == 0)
        for b in range(1, 3):
            expected = link_flow(rho[b - 1, 0], net.links[b - 1], rho[b, 0], net.links[b], net.dt)
            assert q[b, 0] == pytest.approx(expected, rel=1e-12)

    def test_offramp_split(self):
        # Unlimited downstream supply: demand 4, beta 0.25 -> s = 1, q = 3.
        net = FreewayNetwork(
            links=(
                make_link(vf=25.0, qmax=6.0, offramp=True, beta=0.25),
                make_link(),
            ),
            dt=10.0,
        )
        rho = column([4.0 / 250.0, 0.0])  # demand exactly 4 veh/step
        q, r, s = junction_flows(rho, net, upstream_demand=0.0)
        assert s[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert q[1, 0] == pytest.approx(3.0, rel=1e-12)

    def test_priority_merge_with_redistribution(self):
        # Supply 2, mainline demand 3, ramp demand 2, priority 0.5 -> r=1, q=1.
        net = FreewayNetwork(
            links=(
                make_link(vf=25.0, qmax=6.0),
                make_link(onramp=True, w=5.0),
            ),
            dt=10.0,
        )
        rho_up = 3.0 / 250.0
        rho_down = 0.125 - 2.0 / 50.0  # supply = w dt (rho_jam - rho) = 2
        q, r, s = junction_flows(
            column([rho_up, rho_down]), net, upstream_demand=0.0, onramp_demand=[2.0]
        )
        assert r[1, 0] == pytest.approx(1.0, rel=1e-12)
        assert q[1, 0] == pytest.approx(1.0, rel=1e-12)

    def test_merge_redistributes_unused_ramp_share(self):
        net = FreewayNetwork(
            links=(make_link(vf=25.0, qmax=6.0), make_link(onramp=True, w=5.0)),
            dt=10.0,
        )
        rho_down = 0.125 - 2.0 / 50.0
        q, r, s = junction_flows(
            column([3.0 / 250.0, rho_down]), net, upstream_demand=0.0, onramp_demand=[0.4]
        )
        assert r[1, 0] == pytest.approx(0.4, rel=1e-12)
        assert q[1, 0] == pytest.approx(1.6, rel=1e-12)

    def test_batch_matches_scalar(self):
        net = small_network(4, onramps={2}, offramps={1}, beta=0.2)
        rng = np.random.default_rng(3)
        states = rng.uniform(0.0, 0.12, size=(4, 6))
        qb, rb, sb = junction_flows(states, net, upstream_demand=0.5, onramp_demand=[[0.3] * 6])
        for i in range(6):
            q, r, s = junction_flows(states[:, i : i + 1], net, upstream_demand=0.5, onramp_demand=[0.3])
            np.testing.assert_allclose(q[:, 0], qb[:, i], rtol=1e-12)
            np.testing.assert_allclose(r[:, 0], rb[:, i], rtol=1e-12)
            np.testing.assert_allclose(s[:, 0], sb[:, i], rtol=1e-12)

    def test_requires_a_states_block(self):
        net = small_network(3)
        with pytest.raises(ConfigurationError):
            junction_flows(np.full(3, 0.01), net, upstream_demand=0.5)
        with pytest.raises(ConfigurationError):
            junction_flows(np.full((4, 2), 0.01), net, upstream_demand=0.5)
        # A particle-major (P, L) block is refused, not read link-major.
        with pytest.raises(ConfigurationError):
            junction_flows(np.full((2, 3), 0.01), net, upstream_demand=0.5)

    @given(junction_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_all_boundary_merge(self, case):
        net, states, upstream, ramps = case
        got = junction_flows(states, net, upstream, ramps)
        expected = all_boundary_merge(states, net, upstream, ramps)
        for a, b in zip(got, expected):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @given(junction_cases())
    @settings(max_examples=100, deadline=None)
    def test_boundaries_without_onramp_follow_link_flow(self, case):
        # A boundary without an onramp passes min(demand, supply), which is
        # link_flow; an offramp link first keeps 1 - beta of its demand.
        net, states, upstream, ramps = case
        q, r, _ = junction_flows(states, net, upstream, ramps)
        upstream = np.broadcast_to(upstream, states.shape[1:])
        for p, rho in enumerate(states.T):
            for b, down in enumerate(net.links):
                if down.onramp:
                    continue
                assert r[b, p] == 0.0
                supply = down.w * net.dt * (down.rho_jam - rho[b])
                if b == 0:
                    assert q[b, p] == min(upstream[p], supply)
                elif net.links[b - 1].offramp:
                    demand = min(net.links[b - 1].vf * net.dt * rho[b - 1], net.links[b - 1].qmax)
                    assert q[b, p] == min(demand - net.beta[b - 1, 0] * demand, supply)
                else:
                    assert q[b, p] == link_flow(rho[b - 1], net.links[b - 1], rho[b], down, net.dt)


densities = st.floats(min_value=0.0, max_value=0.125)


def constant_schedule(upstream, upstream_noise=0.0, ramps=()):
    """Flat demand schedule: upstream mean and relative noise, plus one
    ``(mean, noise_frac)`` per onramp."""

    def flat(level, noise):
        return DemandProfile(level, level, (0.0, 0.0), (1e9, 1e9), noise)

    return DemandSchedule(
        dt=10.0,
        upstream=flat(upstream, upstream_noise),
        onramps=tuple(flat(m, f) for m, f in ramps),
    )


def sampled_advance(state, network, schedule, rng):
    """One step of a single state with demands drawn from ``schedule``:
    the new state and the step's junction flows ``q``, ``r``, ``s``."""
    upstream, ramps = schedule.sample(0, rng, 1, schedule.table((0,)))
    block = column(state)
    q, r, s = junction_flows(block, network, upstream, ramps)
    return dirty_advance(block, network, upstream, ramps)[:, 0], q[:, 0], r[:, 0], s[:, 0]


class TestStep:
    def test_quiescent_freeway(self, single_link_network):
        state = np.zeros(1)
        schedule = constant_schedule(0.0)
        new, q, _, _ = sampled_advance(state, single_link_network, schedule, RandomSource(0))
        np.testing.assert_array_equal(new, state)
        assert np.all(q == 0)

    def test_hand_density_update(self, single_link_network):
        # L=100, rho=0.05, inflow 2, outflow 1 -> rho' = 0.06.
        state = np.array([0.05])
        schedule = constant_schedule(2.0)
        new, q, _, _ = sampled_advance(state, single_link_network, schedule, RandomSource(0))
        assert q[0] == pytest.approx(2.0, rel=1e-12)  # supply-limited above 2
        assert q[1] == pytest.approx(1.0, rel=1e-12)  # qmax = 1 binds
        assert new[0] == pytest.approx(0.06, rel=1e-12)

    @given(
        st.lists(densities, min_size=2, max_size=6),
        st.floats(min_value=0.0, max_value=5.0),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=150, deadline=None)
    def test_vehicle_conservation(self, rho, inflow_demand, seed):
        net = small_network(len(rho), onramps={1}, offramps={0}, beta=0.15)
        state = np.array(rho)
        schedule = constant_schedule(inflow_demand, 0.2, ramps=[(0.3, 0.1 / 0.3)])
        new, q, r, s = sampled_advance(state, net, schedule, RandomSource(seed))
        before = float(np.sum(state * net.lengths[:, 0]))
        after = float(np.sum(new * net.lengths[:, 0]))
        net_flow = float(q[0] - q[-1] + np.sum(r) - np.sum(s))
        assert after - before == pytest.approx(net_flow, abs=1e-9)

    @given(
        st.lists(densities, min_size=2, max_size=6),
        st.floats(min_value=0.0, max_value=8.0),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=150, deadline=None)
    def test_flow_bounds_and_density_range(self, rho, inflow_demand, seed):
        net = small_network(len(rho), onramps={1}, offramps={0}, beta=0.15)
        schedule = constant_schedule(inflow_demand, ramps=[(0.5, 0.0)])
        new, q, _, _ = sampled_advance(np.array(rho), net, schedule, RandomSource(seed))
        assert np.all(q >= -1e-12)
        for b in range(1, len(rho) + 1):
            assert q[b] <= net.links[b - 1].qmax + 1e-12
        assert np.all(new >= 0.0)
        assert np.all(new <= net.rho_jam[:, 0] + 1e-9)

    def test_advance_requires_a_states_block(self):
        net = small_network(3)
        with pytest.raises(ConfigurationError):
            dirty_advance(np.full(3, 0.01), net, 0.5)
        with pytest.raises(ConfigurationError):
            dirty_advance(np.full((2, 3), 0.01), net, 0.5)

    @given(junction_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_all_link_update(self, case):
        # Ramp flows are added on their own links only; elsewhere they are
        # exactly zero, so every link's update keeps its bits.
        net, states, upstream, ramps = case
        got = outcome(dirty_advance, states, net, upstream, ramps)
        expected = outcome(all_link_advance, states, net, upstream, ramps)
        if isinstance(expected, type):
            assert got is expected
        else:
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


class TestOnrampDemand:
    """``advance`` and ``speed_map`` share one onramp-demand rule: a network
    with onramps needs the demand, one without them takes ``None``."""

    def test_a_network_with_onramps_needs_the_demand(self):
        net = small_network(3, onramps={1})
        states = np.full((3, 2), 0.01)
        with pytest.raises(ConfigurationError, match="^network has onramps but no onramp demand given$"):
            dirty_advance(states, net, 0.4)
        # Also for links whose discharge reads no onramp.
        for links in ([0, 1, 2], [2], []):
            with pytest.raises(ConfigurationError, match="^network has onramps but no onramp demand given$"):
                dirty_speed_map(states, net, link_plan(net, links))

    def test_a_network_without_onramps_takes_none(self):
        net = small_network(3, offramps={1}, beta=0.2)
        states = column([0.01, 0.06, 0.02])
        empty = np.empty(0)
        assert dirty_advance(states, net, 0.4).tobytes() == dirty_advance(states, net, 0.4, empty).tobytes()
        assert (
            dirty_speed_map(states, net, link_plan(net, [0, 1, 2])).tobytes()
            == dirty_speed_map(states, net, link_plan(net, [0, 1, 2]), empty).tobytes()
        )


class TestParticleColumns:
    """A block of particles is the particles side by side: each column of
    ``advance`` and ``speed_map`` on an (L, P) block equals the same call
    on that column alone, bit for bit."""

    @staticmethod
    def check_columns(case, links):
        net, states, upstream, ramps = case
        block_next = outcome(dirty_advance, states, net, upstream, ramps)
        block_speeds = dirty_speed_map(states, net, link_plan(net, links), ramps)
        alone_next = []
        for p in range(states.shape[1]):
            col, up, ramp = one_particle(case, p)
            alone_next.append(outcome(dirty_advance, col, net, up, ramp))
            speeds = dirty_speed_map(col, net, link_plan(net, links), ramp)
            assert speeds.tobytes() == block_speeds[:, p : p + 1].tobytes()
        if isinstance(block_next, type):
            # The block's range check fails exactly when some column's does.
            assert block_next in alone_next
        else:
            for p, alone in enumerate(alone_next):
                assert alone.tobytes() == block_next[:, p : p + 1].tobytes()

    @given(junction_cases(), st.lists(st.integers(0, 5), max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_block_equals_its_columns(self, case, links):
        n = case[0].n_links
        self.check_columns(case, [link % n for link in links] + list(range(n)))

    @given(junction_cases(onramp_at_0=True))
    @settings(max_examples=100, deadline=None)
    def test_block_equals_its_columns_with_onramp_on_link_0(self, case):
        self.check_columns(case, list(range(case[0].n_links)))

    def test_congested_merges_equal_their_columns(self):
        # Onramps on links 0 and 2 of a nearly jammed road, with ramp
        # demands far above the supply: every merge is congested, and the
        # per-particle ramp demands differ.
        net = small_network(3, onramps={0, 2}, offramps={1}, beta=0.2, priority=0.3)
        states = np.array([[0.12, 0.11, 0.124, 0.09], [0.1, 0.12, 0.05, 0.124], [0.123, 0.119, 0.12, 0.11]])
        upstream = np.array([3.0, 4.0, 2.5, 3.5])
        ramps = np.array([[2.0, 3.0, 1.5, 4.0], [2.5, 1.0, 3.0, 2.0]])
        _, r, _ = junction_flows(states, net, upstream, ramps)
        assert np.all(r[[0, 2]] < ramps)
        self.check_columns((net, states, upstream, ramps), [0, 1, 2, 1, 0])


class TestRunBuffers:
    """``advance`` and ``speed_map`` give the same bits with a run's work
    buffers, dirty from earlier calls and sized for more links than a call
    reads, as with fresh buffers of the call's own size."""

    @given(junction_cases(), st.lists(st.integers(0, 5), max_size=10), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_buffered_calls_give_the_same_bits(self, case, links, spare):
        net, states, upstream, ramps = case
        n = net.n_links
        links = [link % n for link in links]
        work = dirty_buffers(states.shape[1], n_states=n, max_links=max(len(links), n) + spare)
        # Two steps on the same buffers, each with its own set of links.
        for step_links in (links, list(range(n))[::-1]):
            exact = StepBuffers(states.shape[1], n_states=n, max_links=len(step_links))
            expected = outcome(advance, states, net, upstream, ramps, exact)
            got = outcome(advance, states, net, upstream, ramps, work)
            if isinstance(expected, type):
                assert got is expected
            else:
                assert got.tobytes() == expected.tobytes() and not shares_buffers(got, work)
            plan = link_plan(net, step_links)
            speeds = speed_map(states, net, plan, ramps, work)
            assert speeds.tobytes() == speed_map(states, net, plan, ramps, exact).tobytes()
            if isinstance(expected, type):
                break
            states = expected


def full_map_speeds(states, q, s, network):
    """The speed rule over a whole (L, P) block of realized flows, kept as
    the reference for ``speed_map`` and ``simulate``: discharge over
    ``rho * dt``, freeflow on near-empty links, clamped to ``[0, vf]``."""
    discharge = q[1:] + s
    vf = network.vf
    with np.errstate(divide="ignore", invalid="ignore"):
        v = discharge / (states * network.dt)
    v = np.where(states > EMPTY_DENSITY, v, vf)
    return np.clip(v, 0.0, vf)


class TestLinkSpeed:
    def test_empty_road_falls_back_to_freeflow(self, single_link_network):
        v = dirty_speed_map(np.array([[0.0]]), single_link_network, link_plan(single_link_network, [0]))
        assert v[0, 0] == pytest.approx(10.0)

    def test_hand_value(self):
        # rho = 0.1 on a 500 m link, w = 5, dt = 10: the free downstream end
        # discharges min(vf dt rho, qmax) = min(20, 4) = 4 veh/step, so
        # v = 4 / (0.1 * 10) = 4 m/s.
        net = small_network(1)
        v = dirty_speed_map(np.array([[0.1]]), net, link_plan(net, [0]))
        assert v[0, 0] == pytest.approx(4.0, rel=1e-12)

    def test_uncongested_speed_is_exactly_freeflow(self):
        # At demand flow: v = vf dt rho / (rho dt) = vf, also for offramp links.
        net = small_network(3, offramps={1}, beta=0.2)
        rho = column([0.005, 0.006, 0.004])
        v = dirty_speed_map(rho, net, link_plan(net, [0, 1, 2]))
        np.testing.assert_allclose(v[:, 0], [net.links[i].vf for i in range(3)], rtol=1e-12)

    def test_speed_map_matches_link_speed(self):
        # Link speed is discharge (mainline outflow plus offramp flow) over
        # rho dt, evaluated on the flows at the given demands.
        net = small_network(3, onramps={1}, offramps={2}, beta=0.1)
        rho = column([0.01, 0.06, 0.02])
        q, r, s = junction_flows(rho, net, upstream_demand=0.4, onramp_demand=[0.2])
        expected = (q[1:] + s) / (rho * net.dt)
        field = dirty_speed_map(rho, net, link_plan(net, [0, 1, 2]), [0.2])
        np.testing.assert_allclose(field, expected, rtol=1e-12)

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(st.integers(0, n - 1)),
                st.sets(st.integers(0, n - 1)),
                st.lists(st.integers(0, n - 1), max_size=10),
            )
        ),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_speed_map_equals_full_map_columns(self, layout, data):
        # The full (L, P) map speed_map used to build, kept as the
        # reference: junction_flows at any upstream demand, then the
        # full-map speed rule.  Every requested row must match it bit for
        # bit.
        n, onramps, offramps, links = layout
        net = small_network(
            n, onramps=onramps, offramps=offramps, beta=0.2,
            priority=data.draw(st.sampled_from([0.0, 0.3, 1.0])),
        )
        n_p = data.draw(st.integers(1, 4))
        # Zero, near-empty, jam and interior densities.
        level = st.one_of(
            st.sampled_from([0.0, 1e-7, EMPTY_DENSITY, 0.125]), st.floats(min_value=0.0, max_value=0.125)
        )
        row = st.lists(level, min_size=n, max_size=n)
        states = np.array(data.draw(st.lists(row, min_size=n_p, max_size=n_p))).T.copy()
        # One demand per onramp, shared by the particles or one column each.
        n_r = len(onramps)
        ramp_row = st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=n_r, max_size=n_r)
        if data.draw(st.booleans()):
            ramps = np.array(data.draw(ramp_row))
        else:
            rows = data.draw(st.lists(ramp_row, min_size=n_p, max_size=n_p))
            ramps = np.array(rows).reshape(n_p, n_r).T.copy()
        upstream = data.draw(st.floats(min_value=0.0, max_value=8.0))
        q, _, s = junction_flows(states, net, upstream, ramps if onramps else None)
        reference = full_map_speeds(states, q, s, net)
        # Always cover the first and last link and every link next to an onramp.
        next_to_ramps = sorted({max(r - 1, 0) for r in onramps} | onramps)
        for chosen in (links, [0, n - 1], next_to_ramps, list(range(n))):
            got = dirty_speed_map(states, net, link_plan(net, chosen), ramps if onramps else None)
            assert got.shape == (len(chosen), n_p)
            assert got.tobytes() == reference[chosen].tobytes()

    def test_speed_map_rejects_links_outside_network(self):
        net = small_network(3)
        with pytest.raises(ConfigurationError):
            dirty_speed_map(np.full((3, 2), 0.01), net, link_plan(net, [3]))
        with pytest.raises(ConfigurationError):
            dirty_speed_map(np.full((3, 2), 0.01), net, link_plan(net, [-1]))
        with pytest.raises(ConfigurationError):
            dirty_speed_map(np.full((4, 2), 0.01), net, link_plan(net, [0]))
        with pytest.raises(ConfigurationError):
            dirty_speed_map(np.full((2, 3), 0.01), net, link_plan(net, [0]))

    def test_simulated_speeds_follow_the_realized_flows(self):
        # The reference re-draws each step's demands from the same stream
        # and takes the speeds from that step's junction flows, not from
        # speed_map.  The bottleneck on link 2 backs congestion up to the
        # onramp merge, so the realized ramp demands decide link 0's speed.
        net = small_network(3, onramps={1}, offramps={2}, beta=0.1, qmax_2=1.0)
        schedule = DemandSchedule(
            dt=10.0,
            upstream=DemandProfile(1.0, 3.0, (100.0, 300.0), (600.0, 900.0), 0.3),
            onramps=(DemandProfile(0.1, 0.4, (100.0, 300.0), (600.0, 900.0), 0.5),),
        )
        horizon = 120
        start = equilibrium_state(net, schedule)
        traj = simulate(net, schedule, horizon, RandomSource(5), start)
        rng, table = RandomSource(5), schedule.table(range(horizon))
        q, s = np.empty((horizon, 4)), np.empty((horizon, 3))
        for k in range(horizon):
            upstream, ramps = schedule.sample(k, rng, 1, table)
            q_k, _, s_k = junction_flows(column(traj.states[k]), net, upstream, ramps)
            q[k], s[k] = q_k[:, 0], s_k[:, 0]
        expected = (q[:, 1:] + s) / (traj.states[:-1] * net.dt)
        np.testing.assert_allclose(traj.speeds, np.clip(expected, 0.0, net.vf[:, 0]), rtol=1e-12)
        reference = full_map_speeds(traj.states[:-1].T, q.T, s.T, net).T
        assert traj.speeds.shape == reference.shape
        assert traj.speeds.tobytes() == reference.tobytes()


def gathered_speed_map(states, network, links, onramp_demand=None):
    """How ``speed_map`` computed its speeds before link plans: every
    network parameter gathered per link on each call.  Kept as the
    reference for the plan path."""
    n_l, dt = network.n_links, network.dt
    links = np.asarray(links, dtype=np.intp).reshape(-1)
    ramp = None
    if network.onramp_links:
        ramp = np.asarray(onramp_demand, dtype=float)
        ramp = ramp[:, None] if ramp.ndim == 1 else ramp
    rho = states[links]
    vf = network.vf[links]
    mainline = np.minimum((vf * dt) * rho, network.qmax[links])
    beta = network.beta[links, 0]
    off = np.flatnonzero(beta)
    s = beta[off, None] * mainline[off]
    mainline[off] -= s
    down = np.minimum(links + 1, n_l - 1)
    supply = (network.rho_jam[down] - states[down]) * (network.w[down] * dt)
    supply[links == n_l - 1] = np.inf
    slot = network._onramp_slot[links + 1]
    ramp_rows = np.flatnonzero(slot >= 0)
    ramp = ramp[slot[ramp_rows]] if len(ramp_rows) else None
    _boundary_flows(mainline, supply, ramp_rows, ramp, network.onramp_priority)
    mainline[off] += s
    with np.errstate(divide="ignore", invalid="ignore"):
        v = mainline / (rho * dt)
    v = np.where(rho > EMPTY_DENSITY, v, vf)
    return np.minimum(np.maximum(v, 0.0), vf)


DEFAULT_NETWORK = scenario_from_dict(default_scenario_dict()).network


@st.composite
def varied_networks(draw):
    """Up to six links, each with its own parameters and random ramps."""
    n = draw(st.integers(1, 6))
    onramps = draw(st.sets(st.integers(0, n - 1)))
    offramps = draw(st.sets(st.integers(0, n - 1)))
    links = tuple(
        LinkParams(
            length=500.0,
            vf=draw(st.floats(10.0, 50.0)),
            w=draw(st.floats(2.0, 12.0)),
            qmax=draw(st.floats(1.0, 8.0)),
            rho_jam=draw(st.floats(0.08, 0.2)),
            onramp=i in onramps,
            offramp=i in offramps,
            beta=draw(st.floats(0.01, 0.5)) if i in offramps else 0.0,
        )
        for i in range(n)
    )
    return FreewayNetwork(links, dt=10.0, onramp_priority=draw(st.sampled_from([0.0, 0.3, 1.0])))


@st.composite
def small_networks(draw):
    n = draw(st.integers(1, 6))
    return small_network(
        n, onramps=draw(st.sets(st.integers(0, n - 1))), offramps=draw(st.sets(st.integers(0, n - 1))),
        beta=0.2, priority=draw(st.sampled_from([0.0, 0.3, 1.0])),
    )


@st.composite
def plan_cases(draw):
    """A network, a multiset of its links in any order (always the last
    link and every link next to a ramp) split into consecutive groups, an
    (L, P) block of zero, near-empty, jam and interior densities, and
    onramp demands shared by the particles or one column each."""
    net = draw(st.one_of(small_networks(), varied_networks(), st.just(DEFAULT_NETWORK)))
    n = net.n_links
    ramped = [i for i, link in enumerate(net.links) if link.onramp or link.offramp]
    near = {n - 1} | {j for i in ramped for j in (i - 1, i, i + 1) if 0 <= j < n}
    links = draw(st.permutations(sorted(near) + draw(st.lists(st.integers(0, n - 1), max_size=12))))
    cuts = sorted(draw(st.lists(st.integers(0, len(links)), max_size=3)))
    groups = [links[a:b] for a, b in zip([0, *cuts], [*cuts, len(links)])]
    n_p = draw(st.integers(1, 4))
    level = st.one_of(st.sampled_from([0.0, 1e-7, EMPTY_DENSITY, -1.0]), st.floats(0.0, 0.08))
    states = np.array(draw(st.lists(st.lists(level, min_size=n_p, max_size=n_p), min_size=n, max_size=n)))
    states = np.where(states < 0.0, net.rho_jam, states)  # -1.0 marks a jammed link
    n_r = len(net.onramp_links)
    ramp_row = st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=n_r, max_size=n_r)
    if draw(st.booleans()):
        ramps = np.array(draw(ramp_row))
    else:
        ramps = np.array(draw(st.lists(ramp_row, min_size=n_p, max_size=n_p))).reshape(n_p, n_r).T.copy()
    return net, groups, states, ramps if n_r else None


class TestLinkPlan:
    """The speed map on a link plan, whole or a slice of a larger one,
    gives the bits of gathering each link's parameters on every call."""

    @given(plan_cases())
    @settings(max_examples=300, deadline=None)
    def test_plan_speeds_equal_the_gathered_ones(self, case):
        net, groups, states, ramps = case
        every = [link for group in groups for link in group]
        whole = link_plan(net, every)
        check_plan_columns(whole, net, every)
        work = dirty_buffers(states.shape[1], max_links=len(every))
        start = 0
        for group in groups:
            expected = gathered_speed_map(states, net, group, ramps)
            # A step's plan: every column of the whole plan sliced alike.
            part = LinkPlan(*[column[start : start + len(group)] for column in whole])
            own = link_plan(net, group)
            check_plan_columns(part, net, group)
            for a, b in zip(part, own):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            for plan, buffers in ((part, work), (own, StepBuffers(states.shape[1], max_links=len(group)))):
                got = speed_map(states, net, plan, ramps, buffers)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
            start += len(group)

    def test_plan_columns_are_read_only(self):
        plan = link_plan(small_network(3, onramps={1}, offramps={0}), [2, 0, 0, 1])
        for column in plan:
            with pytest.raises(ValueError):
                column[...] = 0

    def test_links_outside_the_network_are_refused(self):
        net = small_network(3)
        for links in ([3], [-1], [0, 1, 2, 3]):
            with pytest.raises(ConfigurationError, match=r"^links \[.*\] outside \[0, 2\]$"):
                link_plan(net, links)

    def test_the_caller_keeps_a_writable_link_array(self):
        links = np.array([0, 2], dtype=np.intp)
        link_plan(small_network(3), links)
        links[0] = 1


def block_rule(states, network):
    """How ``advance`` used to check and clamp a step's densities: the block
    minus its rows' jam densities, elementwise, then both clamps."""
    if float(np.min(states)) < -DENSITY_TOL:
        raise ModelConsistencyError("negative density after step")
    if float(np.max(states - network.rho_jam)) > DENSITY_TOL:
        raise ModelConsistencyError("density above jam density after step")
    return np.minimum(np.maximum(states, 0.0), network.rho_jam)


def row_rule(states, network):
    """``_clamp_densities`` on a copy of the block."""
    states = states.copy()
    _clamp_densities(states, network)
    return states


def check_outcome(rule, states, network):
    """The message of the model error ``rule`` raises on the block, or the
    bytes of the block it returns."""
    try:
        return rule(states, network).tobytes()
    except ModelConsistencyError as exc:
        return str(exc)


# Jam densities that differ by link, the smallest first and last.
JAM_NETWORK = FreewayNetwork(
    tuple(make_link(rho_jam=jam) for jam in (0.1, 0.15, 0.125, 0.1)), dt=10.0
)


class TestDensityCheck:
    """The row-maxima jam check raises exactly where the elementwise one
    did, with the same message, and the clamps it skips would have left
    the block as it is."""

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_row_maxima_raise_where_the_block_did(self, data):
        # Each density a few ulps from some link's jam density plus or
        # minus the tolerance, from that jam density, from zero or
        # -DENSITY_TOL, an interior density or NaN.
        net = JAM_NETWORK
        targets = [-DENSITY_TOL, -0.0, 0.0, 0.05, np.nan]
        for jam in net.rho_jam[:, 0].tolist():
            targets += [jam - DENSITY_TOL, jam, jam + DENSITY_TOL]
        n_p = data.draw(st.integers(1, 4))
        states = np.empty((net.n_links, n_p))
        for index in np.ndindex(states.shape):
            x = data.draw(st.sampled_from(targets))
            steps = data.draw(st.integers(-3, 3))
            for _ in range(abs(steps)):
                x = np.nextafter(x, np.inf if steps > 0 else -np.inf)
            states[index] = x
        assert check_outcome(row_rule, states, net) == check_outcome(block_rule, states, net)

    def test_each_row_meets_its_own_jam_density(self):
        # Above link 0's jam density, below link 1's: only the elementwise
        # comparison with each row's own jam density raises here.
        states = np.full((4, 2), 0.05)
        states[0, 1] = 0.1 + 2 * DENSITY_TOL
        assert check_outcome(block_rule, states, JAM_NETWORK) == "density above jam density after step"
        assert check_outcome(row_rule, states, JAM_NETWORK) == "density above jam density after step"
        states[0, 1] = 0.1
        states[1, 0] = 0.15
        assert check_outcome(row_rule, states, JAM_NETWORK) == states.tobytes()


class TestSimulate:
    def test_zero_horizon(self):
        net = small_network(2)
        schedule = flat_schedule(0.5)
        traj = simulate(net, schedule, 0, RandomSource(1), equilibrium_state(net, schedule))
        assert traj.states.shape == (1, 2)
        assert traj.speeds.shape == (0, 2)

    def test_freeflow_fixed_point(self):
        # Constant sub-capacity demand without noise converges to
        # rho* = demand / (vf dt) on every link.
        net = small_network(4, qmax=5.0)
        schedule = flat_schedule(2.0)
        traj = simulate(net, schedule, 300, RandomSource(1), equilibrium_state(net, schedule))
        expected = 2.0 / (20.0 * 10.0)
        np.testing.assert_allclose(traj.states[-10:], expected, atol=1e-9)

    def test_bottleneck_grows_upstream_congestion(self):
        # Demand above the middle link's capacity, from an empty start:
        # upstream density grows monotonically over the initial window.
        net = small_network(3, qmax_1=1.0, qmax=6.0)
        schedule = flat_schedule(3.0)
        traj = simulate(net, schedule, 40, RandomSource(1), initial_state=np.zeros(3))
        upstream = traj.states[:, 0]
        window = upstream[2:20]
        assert np.all(np.diff(window) > -1e-12)
        assert upstream[20] > upstream[2] + 0.001

    def test_determinism_under_fixed_seed(self):
        net = small_network(3, onramps={1})
        schedule = DemandSchedule(
            dt=10.0,
            upstream=DemandProfile(1.0, 3.0, (100.0, 300.0), (600.0, 900.0), 0.3),
            onramps=(DemandProfile(0.1, 0.4, (100.0, 300.0), (600.0, 900.0), 0.5),),
        )
        start = equilibrium_state(net, schedule)
        a = simulate(net, schedule, 120, RandomSource(42).derive(0), start)
        b = simulate(net, schedule, 120, RandomSource(42).derive(0), start)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.speeds, b.speeds)


def broadcast_sample(schedule: DemandSchedule, k: int, rng: RandomSource, size: int):
    """How step ``k``'s demands used to be drawn: the schedule's means and
    stds (``noise_frac * mean``) handed to ``Generator.normal`` as broadcast
    arrays."""
    up_mean = schedule.upstream.mean(k * schedule.dt)
    ramp_mean = np.array([p.mean(k * schedule.dt) for p in schedule.onramps])
    up_std = schedule.upstream.noise_frac * up_mean
    ramp_std = np.array([p.noise_frac * m for p, m in zip(schedule.onramps, ramp_mean)])
    upstream = np.clip(rng.normal(up_mean, up_std, size=size), 0.0, None)
    n_ramps = len(np.atleast_1d(ramp_mean))
    ramps = np.clip(
        rng.normal(
            np.broadcast_to(ramp_mean, (size, n_ramps)),
            np.broadcast_to(ramp_std, (size, n_ramps)),
        ),
        0.0,
        None,
    )
    return upstream, ramps


profiles = st.builds(
    DemandProfile,
    base=st.floats(min_value=0.0, max_value=10.0),
    peak=st.floats(min_value=0.0, max_value=10.0),
    rise=st.just((100.0, 300.0)),
    fall=st.just((600.0, 900.0)),
    noise_frac=st.sampled_from([0.0, 0.2, 0.5, 3.0]),
)


class TestDemandScheduleSample:
    @given(
        profiles,
        st.lists(profiles, max_size=4),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_broadcast_draws(self, upstream, onramps, k, size, seed):
        # Zero stds (noise_frac 0) included; the streams must also be left
        # in the same state, so the next draw matches too.
        schedule = DemandSchedule(dt=10.0, upstream=upstream, onramps=tuple(onramps))
        rng_new, rng_old = RandomSource(seed), RandomSource(seed)
        got = schedule.sample(k, rng_new, size, schedule.table(range(k + 1)))
        expected = broadcast_sample(schedule, k, rng_old, size)
        assert got[0].tobytes() == expected[0].tobytes()
        # One column per particle: the (size, R) draws transposed.
        assert got[1].shape == (len(onramps), size)
        assert expected[1].shape == (size, len(onramps))
        assert got[1].T.tobytes() == expected[1].tobytes()
        assert rng_new.normal() == rng_old.normal()

    def test_table_rows_are_profile_means_and_noise_scales(self):
        schedule = DemandSchedule(
            dt=10.0,
            upstream=DemandProfile(1.0, 3.0, (100.0, 300.0), (600.0, 900.0), 0.3),
            onramps=(DemandProfile(0.1, 0.4, (100.0, 300.0), (600.0, 900.0), 0.5),),
        )
        table = schedule.table(range(100))
        for k in (0, 15, 20, 45, 75, 99):
            means = [p.mean(k * 10.0) for p in (schedule.upstream, *schedule.onramps)]
            assert table[k, 0].tolist() == means
            assert table[k, 1].tolist() == [0.3 * means[0], 0.5 * means[1]]

    def test_schedule_without_noise_draws_the_means(self):
        schedule = flat_schedule(1.5, n_onramps=2, noise=0.0)
        upstream, ramps = schedule.sample(3, RandomSource(4), 5, schedule.table(range(4)))
        expected = broadcast_sample(schedule, 3, RandomSource(4), 5)
        assert upstream.tobytes() == expected[0].tobytes()
        assert ramps.T.tobytes() == expected[1].tobytes()
        np.testing.assert_array_equal(upstream, 1.5)
        np.testing.assert_array_equal(ramps, 0.0)


class TestDemandProfile:
    def test_trapezoid_shape(self):
        p = DemandProfile(base=1.0, peak=5.0, rise=(100.0, 200.0), fall=(400.0, 600.0))
        assert p.mean(0.0) == 1.0
        assert p.mean(150.0) == pytest.approx(3.0)
        assert p.mean(300.0) == 5.0
        assert p.mean(500.0) == pytest.approx(3.0)
        assert p.mean(700.0) == 1.0

    def test_breakpoint_order_validated(self):
        with pytest.raises(ConfigurationError):
            DemandProfile(base=1.0, peak=2.0, rise=(200.0, 100.0), fall=(300.0, 400.0))

    @pytest.mark.parametrize("field", ["base", "peak", "noise_frac"])
    def test_a_draw_past_the_float_range_is_refused(self, field):
        # A draw is mean + noise_frac * mean * z with the mean up to the
        # larger of base and peak: the largest accepted value keeps that
        # expression finite at |z| = NORMAL_BOUND, and the next float is
        # refused.  Its demands draw without a warning, also at the bound.
        values = {"base": 1.0, "peak": 2.5, "noise_frac": 0.2}

        def draw_bound(value):
            level = {**values, field: value}
            mean = max(level["base"], level["peak"])
            return math.isfinite(mean + level["noise_frac"] * mean * NORMAL_BOUND)

        largest = largest_float(draw_bound, values[field], float(np.finfo(float).max))
        profile = DemandProfile(rise=(0.0, 0.0), fall=(1e9, 1e9), **{**values, field: largest})
        refused = float(np.nextafter(largest, np.inf))
        level = "base" if field == "base" else "peak"
        with pytest.raises(ConfigurationError, match=rf"^{level} .* draws demands past the float range"):
            DemandProfile(rise=(0.0, 0.0), fall=(1e9, 1e9), **{**values, field: refused})
        schedule = DemandSchedule(dt=10.0, upstream=profile, onramps=(profile,))
        table = schedule.table((0,))
        with np.errstate(all="raise"):
            upstream, ramps = schedule.sample(0, RandomSource(1), 1000, table)
            mean, scale = table[0, :, 0]
            assert np.isfinite(mean + scale * np.array([-NORMAL_BOUND, NORMAL_BOUND])).all()
        assert np.isfinite(upstream).all() and np.isfinite(ramps).all()

    def test_sampling_clipped_at_zero(self):
        p = DemandProfile(base=0.01, peak=0.01, rise=(0.0, 0.0), fall=(1e9, 1e9), noise_frac=50.0)
        schedule = DemandSchedule(dt=10.0, upstream=p, onramps=())
        table = schedule.table((0,))
        draws = [schedule.sample(0, RandomSource(s), 4, table)[0] for s in range(50)]
        assert np.min(draws) >= 0.0


class TestEquilibrium:
    def test_positive_and_stationary(self):
        net = small_network(5, offramps={2}, beta=0.1)
        schedule = flat_schedule(1.5)
        eq = equilibrium_state(net, schedule)
        assert np.all(eq > 0.0)
        after = dirty_advance(column(eq), net, 1.5, None)
        np.testing.assert_allclose(after[:, 0], eq, atol=1e-9)
