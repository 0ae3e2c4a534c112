"""Unit and property tests for the statistical gates and gated update."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedpf.errors import ConfigurationError, ModelConsistencyError
from gatedpf.gates import (
    SensorModel,
    TailMode,
    GateKind,
    fisher_gate,
    fisher_statistic,
    gated_update,
    np_gate,
)
from gatedpf.particles import weight_update
from gatedpf.rng import RandomSource

from conftest import GaussianStateDensity, StubDensity, scalar_ensemble


def np_sensor(h0, h1, alpha=0.05, normalized_mass=False):
    return SensorModel(
        id="s",
        h0=h0,
        h1=h1,
        test_kind=GateKind.NEYMAN_PEARSON,
        alpha=alpha,
        np_mass_normalized=normalized_mass,
    )


def fisher_sensor(h0, alpha=0.05, tail=TailMode.TWO_SIDED):
    return SensorModel(id="s", h0=h0, test_kind=GateKind.FISHER, alpha=alpha, tail_mode=tail)


class PredictiveStub(StubDensity):
    """Stub density with a preset predictive mean and scale per particle."""

    def __init__(self, values, mean, scale):
        super().__init__(values)
        self.mean = np.asarray(mean, dtype=float)
        self.scale = np.asarray(scale, dtype=float)

    def predict(self, states):
        return self.mean, self.scale


class TestSensorModel:
    def test_alpha_bounds(self):
        with pytest.raises(ConfigurationError):
            SensorModel(id="x", h0=StubDensity([1.0]), alpha=0.0)
        with pytest.raises(ConfigurationError):
            SensorModel(id="x", h0=StubDensity([1.0]), alpha=1.0)

    def test_np_requires_h1(self):
        with pytest.raises(ConfigurationError):
            SensorModel(id="x", h0=StubDensity([1.0]), test_kind=GateKind.NEYMAN_PEARSON)


def favors_h1(g0, g1) -> bool:
    """The likelihood-ratio gate's vote of a single particle (g1 / g0 > 1),
    read off the favoring-particle count of a one-particle gate."""
    decision = np_gate(scalar_ensemble([0.0]), 0.0, np_sensor(StubDensity([g0]), StubDensity([g1])))
    return decision.auxiliary == 1.0


class TestLikelihoodRatio:
    """Per-particle fault-over-null ratio, as the gate evaluates it in log space."""

    def test_identical_hypotheses_is_one(self):
        h = GaussianStateDensity(std=2.0)
        decision = np_gate(scalar_ensemble([0.7]), 1.3, np_sensor(h, h))
        assert decision.auxiliary == 0.0

    def test_hand_division(self):
        assert favors_h1(0.2, 0.4)
        assert not favors_h1(0.4, 0.2)

    def test_impossible_under_h1(self):
        assert not favors_h1(0.5, 0.0)

    def test_zero_null_gives_infinity(self):
        decision = np_gate(
            scalar_ensemble([0.0]), 0.0, np_sensor(StubDensity([0.0]), StubDensity([0.2]))
        )
        assert decision.auxiliary == 1.0
        assert decision.statistic == 0.0
        assert decision.rejected_h0

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance_of_indicator(self, c):
        # Multiplying both densities by c leaves every vote unchanged.
        assert favors_h1(0.2 * c, 0.3 * c)
        assert not favors_h1(0.3 * c, 0.2 * c)


class TestNpGate:
    def test_identical_hypotheses_short_circuits(self):
        ens = scalar_ensemble([1.0, 2.0, 3.0])
        g = StubDensity([0.3, 0.2, 0.1])
        decision = np_gate(ens, 0.0, np_sensor(g, g, alpha=0.99))
        assert not decision.rejected_h0
        assert decision.auxiliary == 0.0

    def test_hand_example_mass_and_thresholds(self):
        # Uniform 1/3, g0 = {0.3, 0.2, 0.1}, g1 = {0.4, 0.1, 0.05}:
        # only particle 1 favors the fault model, mass = 0.3 / 3 = 0.1.
        ens = scalar_ensemble([1.0, 2.0, 3.0])
        g0 = StubDensity([0.3, 0.2, 0.1])
        g1 = StubDensity([0.4, 0.1, 0.05])
        accept = np_gate(ens, 0.0, np_sensor(g0, g1, alpha=0.05))
        assert accept.statistic == pytest.approx(0.1, rel=1e-12)
        assert accept.auxiliary == 1.0
        assert not accept.rejected_h0
        reject = np_gate(ens, 0.0, np_sensor(g0, g1, alpha=0.2))
        assert reject.rejected_h0

    def test_outlier_measurement_rejected(self):
        # Narrow null around the particle states, broad fault model: a far
        # outlier has negligible null mass but fault support everywhere.
        ens = scalar_ensemble([10.0, 11.0, 12.0])
        h0 = GaussianStateDensity(std=1.0)

        class Broad(StubDensity):
            def __init__(self):
                super().__init__([1.0])

            def log_density(self, value, states):
                n = np.atleast_2d(states).shape[0]
                return np.full(n, float(-0.5 * (value / 50.0) ** 2 - np.log(50.0)))

        decision = np_gate(ens, -50.0, np_sensor(h0, Broad(), alpha=0.01))
        assert decision.rejected_h0
        assert decision.statistic < 1e-12
        assert decision.auxiliary == 3.0

    def test_mass_sums_only_favoring_particles(self):
        ens = scalar_ensemble([1.0, 2.0], weights=[0.5, 0.5])
        g0 = StubDensity([0.4, 0.001])
        g1 = StubDensity([0.3, 0.01])  # only particle 2 favors h1
        decision = np_gate(ens, 0.0, np_sensor(g0, g1, alpha=0.01))
        assert decision.statistic == pytest.approx(0.0005, rel=1e-12)
        assert decision.rejected_h0

    def test_both_zero_particles_carry_no_evidence(self):
        ens = scalar_ensemble([1.0, 2.0])
        g0 = StubDensity([0.0, 0.5])
        g1 = StubDensity([0.0, 0.4])
        decision = np_gate(ens, 0.0, np_sensor(g0, g1, alpha=0.9))
        assert decision.auxiliary == 0.0
        assert not decision.rejected_h0

    def test_normalized_mass_variant(self):
        ens = scalar_ensemble([1.0, 2.0, 3.0])
        g0 = StubDensity([0.3, 0.2, 0.1])
        g1 = StubDensity([0.4, 0.1, 0.05])
        decision = np_gate(ens, 0.0, np_sensor(g0, g1, alpha=0.2, normalized_mass=True))
        assert decision.statistic == pytest.approx(0.3 / 0.6, rel=1e-12)
        assert not decision.rejected_h0

    @given(
        st.floats(min_value=1e-4, max_value=0.5),
        st.floats(min_value=1e-4, max_value=0.49),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_alpha(self, alpha, bump):
        ens = scalar_ensemble([1.0, 2.0, 3.0])
        g0 = StubDensity([0.3, 0.2, 0.1])
        g1 = StubDensity([0.4, 0.1, 0.05])
        low = np_gate(ens, 0.0, np_sensor(g0, g1, alpha=alpha))
        high = np_gate(ens, 0.0, np_sensor(g0, g1, alpha=min(0.999, alpha + bump)))
        if low.rejected_h0:
            assert high.rejected_h0


class TestFisherStatistic:
    def test_zero_residual(self):
        ens = scalar_ensemble([10.0, 14.0])
        sensor = fisher_sensor(GaussianStateDensity(std=2.0))
        assert fisher_statistic(ens, 10.0, sensor) == pytest.approx(
            0.5 * 0.0 + 0.5 * (10 - 14) / 2.0
        )
        point = scalar_ensemble([10.0])
        assert fisher_statistic(point, 10.0, sensor) == 0.0

    def test_hand_weighted_average(self):
        # mu = {10, 14}, sigma = {2, 2.8}, y = 20 -> T = {5, 2.142857...}.
        ens = scalar_ensemble([0.0, 1.0])
        stub = PredictiveStub([1.0, 1.0], mean=[10.0, 14.0], scale=[2.0, 2.8])
        stat = fisher_statistic(ens, 20.0, fisher_sensor(stub))
        assert stat == pytest.approx(0.5 * 5.0 + 0.5 * (6.0 / 2.8), rel=1e-9)
        assert stat == pytest.approx(3.571429, abs=1e-6)

    def test_degenerate_weights_pick_first_particle(self):
        ens = scalar_ensemble([10.0, 99.0], weights=[1.0, 0.0])
        stat = fisher_statistic(ens, 12.0, fisher_sensor(GaussianStateDensity(std=2.0)))
        assert stat == pytest.approx(1.0)

    def test_nonpositive_scale_rejected(self):
        ens = scalar_ensemble([1.0, 2.0])
        stub = PredictiveStub([1, 1], mean=[0.0, 0.0], scale=[1.0, 0.0])
        with pytest.raises(ModelConsistencyError):
            fisher_statistic(ens, 0.0, fisher_sensor(stub))

    @given(st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_per_particle_statistic(self, a):
        # Dividing every scale by a multiplies the statistic by a exactly.
        ens = scalar_ensemble([0.0, 1.0, 2.0], weights=[0.2, 0.5, 0.3])
        base = PredictiveStub([1, 1, 1], mean=[1.0, 2.0, 3.0], scale=[1.0, 2.0, 4.0])
        scaled = PredictiveStub(
            [1, 1, 1], mean=[1.0, 2.0, 3.0], scale=np.array([1.0, 2.0, 4.0]) / a
        )
        t0 = fisher_statistic(ens, 7.0, fisher_sensor(base))
        t1 = fisher_statistic(ens, 7.0, fisher_sensor(scaled))
        assert t1 == pytest.approx(a * t0, rel=1e-9)


def normal_tail_two_sided(t: float) -> float:
    # Independent oracle for the two-sided standard normal tail mass.
    return math.erfc(abs(t) / math.sqrt(2.0))


class TestFisherGate:
    def test_zero_statistic_never_rejects(self):
        ens = scalar_ensemble([10.0])
        decision = fisher_gate(ens, 10.0, fisher_sensor(GaussianStateDensity(std=2.0), alpha=0.999))
        assert decision.statistic == pytest.approx(1.0)
        assert not decision.rejected_h0

    def test_hand_p_value_boundary(self):
        ens = scalar_ensemble([0.0, 1.0])
        stub = PredictiveStub([1, 1], mean=[10.0, 14.0], scale=[2.0, 2.8])
        expected_p = normal_tail_two_sided(0.5 * 5.0 + 0.5 * 6.0 / 2.8)
        assert expected_p == pytest.approx(3.55e-4, rel=2e-3)
        reject = fisher_gate(ens, 20.0, fisher_sensor(stub, alpha=1e-3))
        accept = fisher_gate(ens, 20.0, fisher_sensor(stub, alpha=1e-4))
        assert reject.statistic == pytest.approx(expected_p, rel=1e-6)
        assert reject.rejected_h0
        assert not accept.rejected_h0

    def test_quantile_anchor(self):
        # T = 1.959964 corresponds to a two-sided p of 0.05.
        ens = scalar_ensemble([0.0])
        stub = PredictiveStub([1.0], mean=[0.0], scale=[1.0])
        decision = fisher_gate(ens, 1.959964, fisher_sensor(stub))
        assert decision.statistic == pytest.approx(0.05, abs=1e-6)

    def test_one_sided_tails(self):
        ens = scalar_ensemble([0.0])
        stub = PredictiveStub([1.0], mean=[0.0], scale=[1.0])
        left = fisher_gate(ens, -2.0, fisher_sensor(stub, alpha=0.05, tail=TailMode.LEFT))
        right = fisher_gate(ens, 2.0, fisher_sensor(stub, alpha=0.05, tail=TailMode.RIGHT))
        assert left.statistic == pytest.approx(0.02275, abs=1e-4)
        assert right.statistic == pytest.approx(0.02275, abs=1e-4)
        assert left.rejected_h0 and right.rejected_h0

    def test_gate_at_sigma_weighted_prediction_root_never_rejects(self):
        # The statistic is affine in y; at its root the gate cannot reject,
        # and with a common scale that root is the weighted predicted mean.
        weights = np.array([0.3, 0.45, 0.25])
        mean = np.array([4.0, 9.0, 13.0])
        scale = np.array([0.8, 2.0, 3.5])
        ens = scalar_ensemble([0.0, 1.0, 2.0], weights=weights)
        stub = PredictiveStub([1, 1, 1], mean=mean, scale=scale)
        root = float(np.sum(weights * mean / scale) / np.sum(weights / scale))
        decision = fisher_gate(ens, root, fisher_sensor(stub, alpha=0.999))
        assert abs(decision.auxiliary) < 1e-12
        assert not decision.rejected_h0

        common = PredictiveStub([1, 1, 1], mean=mean, scale=np.full(3, 2.0))
        at_mean = fisher_gate(
            ens, float(np.sum(weights * mean)), fisher_sensor(common, alpha=0.999)
        )
        assert not at_mean.rejected_h0

    @given(
        st.floats(min_value=-30, max_value=30),
        st.floats(min_value=1e-4, max_value=0.5),
        st.floats(min_value=1e-4, max_value=0.49),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_alpha(self, y, alpha, bump):
        ens = scalar_ensemble([0.0, 2.0], weights=[0.6, 0.4])
        sensor_lo = fisher_sensor(GaussianStateDensity(std=1.5), alpha=alpha)
        sensor_hi = fisher_sensor(GaussianStateDensity(std=1.5), alpha=min(0.999, alpha + bump))
        low = fisher_gate(ens, y, sensor_lo)
        high = fisher_gate(ens, y, sensor_hi)
        assert 0.0 <= low.statistic <= 1.0
        if low.rejected_h0:
            assert high.rejected_h0

    def test_point_mass_calibration(self):
        # With a point-mass ensemble whose null model matches the generator,
        # the statistic is standard normal and the empirical rejection rate
        # at level 0.05 must sit inside [0.03, 0.07] over 1e5 draws.
        ens = scalar_ensemble([15.0])
        sensor = fisher_sensor(GaussianStateDensity(std=3.0), alpha=0.05)
        draws = RandomSource(2024).normal(15.0, 3.0, size=100_000)
        rejected = sum(fisher_gate(ens, float(y), sensor).rejected_h0 for y in draws)
        rate = rejected / len(draws)
        assert 0.03 <= rate <= 0.07


class TestGatedUpdate:
    def test_no_measurements_returns_prior(self):
        ens = scalar_ensemble([1.0, 2.0])
        result = gated_update(ens, [])
        assert result.posterior is ens
        assert result.decisions == ()
        assert not result.no_information
        assert result.log_marginal_likelihood == 0.0

    def test_all_accepted_matches_plain_update(self):
        ens = scalar_ensemble([1.0, 2.0, 3.0, 4.0, 5.0])
        g0a = StubDensity([0.5, 0.4, 0.3, 0.2, 0.1])
        g0b = StubDensity([0.1, 0.2, 0.3, 0.2, 0.1])
        sensors = [
            SensorModel(id="a", h0=g0a, test_kind=GateKind.NONE),
            SensorModel(id="b", h0=g0b, test_kind=GateKind.NONE),
        ]
        result = gated_update(ens, list(zip(sensors, [0.0, 0.0])))
        plain, log_marginal = weight_update(ens, [0.0, 0.0], [g0a, g0b])
        np.testing.assert_allclose(result.posterior.weights, plain.weights, rtol=1e-12)
        assert result.log_marginal_likelihood == pytest.approx(log_marginal, rel=1e-12)
        assert result.decisions == ()

    def test_rejected_sensor_excluded_from_product(self):
        # Brute-force oracle on 5 particles: the posterior uses exactly the
        # accepted sensors' density products.
        ens = scalar_ensemble([1.0, 2.0, 3.0, 4.0, 5.0])
        keep = StubDensity([0.5, 0.4, 0.3, 0.2, 0.1])
        # This sensor's measurement favors h1 with tiny null mass -> rejected.
        reject_h0 = StubDensity([1e-9, 1e-9, 1e-9, 1e-9, 1e-9])
        reject_h1 = StubDensity([1.0, 1.0, 1.0, 1.0, 1.0])
        sensors = [
            SensorModel(id="keep", h0=keep, test_kind=GateKind.NONE),
            np_sensor(reject_h0, reject_h1, alpha=0.01),
        ]
        result = gated_update(ens, list(zip(sensors, [0.0, 0.0])))
        assert len(result.decisions) == 1 and result.decisions[0].rejected_h0
        brute = np.full(5, 0.2) * keep.values
        np.testing.assert_allclose(
            result.posterior.weights, brute / brute.sum(), rtol=1e-12
        )

    def test_all_rejected_flags_no_information(self):
        ens = scalar_ensemble([1.0, 2.0])
        g0 = StubDensity([1e-12, 1e-12])
        g1 = StubDensity([1.0, 1.0])
        result = gated_update(ens, [(np_sensor(g0, g1, alpha=0.01), 0.0)])
        assert result.no_information
        assert result.posterior is ens
        assert result.log_marginal_likelihood == 0.0

    def test_mixed_gate_kinds(self):
        ens = scalar_ensemble([10.0, 12.0])
        loop = SensorModel(id="loop", h0=GaussianStateDensity(std=0.5), test_kind=GateKind.NONE)
        speed = fisher_sensor(GaussianStateDensity(std=2.0), alpha=0.05)
        result = gated_update(ens, [(loop, 11.0), (speed, 11.2)])
        assert len(result.decisions) == 1
        assert result.decisions[0].test_kind == GateKind.FISHER
        assert abs(float(np.sum(result.posterior.weights)) - 1.0) <= 1e-12
