"""Unit and property tests for the particle-ensemble primitives."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedpf.errors import ConfigurationError, ContractViolation, WeightCollapseError
from gatedpf.particles import (
    ParticleEnsemble,
    effective_sample_size,
    posterior_mean,
    predict,
    resample_systematic,
    weight_update,
)
from gatedpf.rng import RandomSource

from conftest import log_rows, scalar_ensemble


def identity(states, rng):
    return states


def shift(states, rng):
    return states + 1.0


def noisy(states, rng):
    return states + rng.normal(size=states.shape)


weights_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=24
)


class TestEnsemble:
    def test_invariants_checked(self):
        with pytest.raises(ConfigurationError):
            ParticleEnsemble(np.array([[1.0]]), np.array([-0.5]))
        with pytest.raises(WeightCollapseError):
            ParticleEnsemble(np.array([[1.0]]), np.array([0.0]))
        with pytest.raises(ContractViolation):
            ParticleEnsemble(np.array([[1.0, 2.0]]), np.array([0.4, 0.4]))
        with pytest.raises(ContractViolation):
            ParticleEnsemble(np.array([[1.0, 2.0]]), np.array([2.0, 3.0]))
        with pytest.raises(ConfigurationError):
            ParticleEnsemble(np.array([[np.inf]]), np.array([1.0]))

    def test_particles_are_columns(self):
        # Three two-component states: an (N, P) = (2, 3) block.
        states = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        ens = ParticleEnsemble.from_states(states)
        assert ens.size == 3
        np.testing.assert_allclose(ens.weights, 1.0 / 3.0)
        with pytest.raises(ConfigurationError, match="particle count 3"):
            ParticleEnsemble(states, np.full(2, 0.5))
        with pytest.raises(ConfigurationError):
            ParticleEnsemble(np.empty((2, 0)), np.empty(0))

    def test_from_states_uniform(self):
        ens = scalar_ensemble([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(ens.weights, 0.25)

    def test_arrays_are_read_only(self):
        ens = scalar_ensemble([1.0, 2.0])
        with pytest.raises(ValueError):
            ens.particles[0, 0] = 9.0
        with pytest.raises(ValueError):
            ens.weights[0] = 9.0


class TestPredict:
    def test_identity_dynamics_preserves_everything(self):
        ens = scalar_ensemble([1.0, 2.0, 3.0], weights=[0.2, 0.3, 0.5])
        out = predict(ens, identity, RandomSource(1))
        np.testing.assert_array_equal(out.particles, ens.particles)
        np.testing.assert_array_equal(out.weights, ens.weights)

    def test_deterministic_shift_map(self):
        # P=3, states {1,2,3}, x' = x + 1, no noise.
        ens = scalar_ensemble([1.0, 2.0, 3.0])
        out = predict(ens, shift, RandomSource(1))
        np.testing.assert_allclose(out.particles[0], [2.0, 3.0, 4.0])
        np.testing.assert_array_equal(out.weights, ens.weights)

    def test_zero_mean_noise_law_of_large_numbers(self):
        p = 10_000
        ens = ParticleEnsemble.from_states(np.zeros((1, p)))
        out = predict(ens, noisy, RandomSource(7))
        se = 1.0 / np.sqrt(p)
        assert abs(float(np.mean(out.particles))) < 4 * se

    def test_dimension_mismatch_rejected(self):
        def wrong_shape(states, rng):
            return np.concatenate([states, states], axis=0)

        with pytest.raises(ConfigurationError):
            predict(scalar_ensemble([1.0]), wrong_shape, RandomSource(1))

    def test_bit_determinism(self):
        ens = ParticleEnsemble.from_states(np.linspace(0, 1, 50)[None, :])
        a = predict(ens, noisy, RandomSource(99, (4,)))
        b = predict(ens, noisy, RandomSource(99, (4,)))
        assert np.array_equal(a.particles, b.particles)


class TestWeightUpdate:
    def test_uniform_likelihood_keeps_weights(self):
        ens = scalar_ensemble([1.0, 2.0, 3.0], weights=[0.2, 0.3, 0.5])
        out, log_marginal = weight_update(ens, log_rows([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out.weights, [0.2, 0.3, 0.5], rtol=1e-12)
        assert log_marginal == pytest.approx(0.0, abs=1e-12)

    def test_hand_multiplication(self):
        # Uniform 1/3 times densities {0.3, 0.2, 0.1}: unnormalized
        # {0.1, 0.2/3, 0.1/3}, marginal 0.2.
        ens = scalar_ensemble([1.0, 2.0, 3.0])
        out, log_marginal = weight_update(ens, log_rows([0.3, 0.2, 0.1]))
        np.testing.assert_allclose(out.weights, [0.5, 1 / 3, 1 / 6], rtol=1e-12)
        assert np.exp(log_marginal) == pytest.approx(0.2, rel=1e-12)

    def test_states_unchanged(self):
        ens = scalar_ensemble([1.0, 2.0, 3.0])
        out, _ = weight_update(ens, log_rows([0.5, 0.5, 0.5]))
        np.testing.assert_array_equal(out.particles, ens.particles)

    def test_two_sensors_equal_product_and_sequential(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.05, 2.0, 6)
        b = rng.uniform(0.05, 2.0, 6)
        prior = rng.uniform(0.1, 1.0, 6)
        ens = scalar_ensemble(np.arange(6.0), weights=prior / prior.sum())
        joint, log_joint = weight_update(ens, log_rows(a, b))
        first, log_a = weight_update(ens, log_rows(a))
        seq, log_b = weight_update(first, log_rows(b))
        brute = ens.weights * a * b
        np.testing.assert_allclose(joint.weights, brute / brute.sum(), rtol=1e-12)
        np.testing.assert_allclose(seq.weights, brute / brute.sum(), rtol=1e-12)
        assert np.exp(log_joint) == pytest.approx(float(np.sum(brute)), rel=1e-12)
        assert log_a + log_b == pytest.approx(log_joint, rel=1e-12, abs=1e-12)

    def test_all_zero_collapse_raises(self):
        ens = scalar_ensemble([1.0, 2.0])
        with pytest.raises(WeightCollapseError):
            weight_update(ens, log_rows([0.0, 0.0]))

    def test_row_length_mismatch(self):
        ens = scalar_ensemble([1.0])
        with pytest.raises(ConfigurationError):
            weight_update(ens, log_rows([1.0, 1.0]))
        with pytest.raises(ConfigurationError):
            weight_update(ens, np.log([1.0]))

    def test_deep_underflow_survives_in_log_domain(self):
        # One update whose likelihood product lies far below the float64
        # range (1e-600) keeps relative structure and a finite log marginal.
        ens = scalar_ensemble([0.0, 1.0])
        out, log_marginal = weight_update(ens, log_rows(*[[1e-60, 2e-60]] * 10))
        np.testing.assert_allclose(
            out.weights, [1 / (1 + 2**10), 2**10 / (1 + 2**10)], rtol=1e-9
        )
        expected = -600 * np.log(10.0) + np.log((1 + 2**10) / 2)
        assert log_marginal == pytest.approx(expected, rel=1e-12)


def loop_weight_update(ensemble, rows):
    """The weight update as it once was, one row added at a time; kept as
    the reference for the single reduction."""
    with np.errstate(divide="ignore"):
        log_w = np.log(ensemble.weights)
    for row in rows:
        log_w = log_w + row
    peak = float(np.max(log_w))
    if peak == -np.inf:
        return None
    scale = peak if abs(peak) > 600.0 else 0.0
    w = np.exp(log_w - scale)
    total = float(np.sum(w))
    return w / total, math.log(total) + scale


class TestWeightUpdateBits:
    @given(
        # At least two particles: one particle's column is summed pairwise.
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=0, max_value=12),
        st.sampled_from([1.0, 50.0, 800.0]),
        st.sampled_from([0.0, 0.1, 0.6]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_row_by_row_update(self, n, k, spread, p_zero, seed):
        # Rows with -inf entries and zero prior weights included; peaks past
        # the rescale bound too.
        rng = np.random.default_rng(seed)
        weights = rng.random(n)
        weights[rng.random(n) < 0.2] = 0.0
        weights[0] += 0.5
        ens = ParticleEnsemble(rng.random((2, n)), weights / weights.sum())
        rows = spread * rng.normal(size=(k, n))
        rows[rng.random((k, n)) < p_zero] = -np.inf
        expected = loop_weight_update(ens, rows)
        if expected is None:
            with pytest.raises(WeightCollapseError):
                weight_update(ens, rows)
            return
        out, log_marginal = weight_update(ens, rows)
        assert out.weights.tobytes() == expected[0].tobytes()
        assert log_marginal == expected[1]
        assert out.particles is ens.particles

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_positive_infinite_row_is_a_configuration_error(self, bad):
        ens = scalar_ensemble([1.0, 2.0, 3.0], weights=[0.5, 0.5, 0.0])
        for position in range(3):
            row = np.zeros((1, 3))
            row[0, position] = bad
            with pytest.raises(ConfigurationError, match="NaN or \\+inf"):
                weight_update(ens, row)


class TestBuiltEnsembles:
    """What predict, weight_update and resample_systematic build is
    read-only; only what comes from outside is checked."""

    def test_results_are_read_only(self):
        ens = scalar_ensemble([1.0, 2.0, 3.0], weights=[0.2, 0.3, 0.5])
        built = [
            predict(ens, shift, RandomSource(1)),
            weight_update(ens, log_rows([0.3, 0.2, 0.1]))[0],
            resample_systematic(ens, RandomSource(2)),
        ]
        for out in built:
            assert not out.particles.flags.writeable
            assert not out.weights.flags.writeable
            with pytest.raises(ValueError):
                out.particles[0, 0] = 9.0
            with pytest.raises(ValueError):
                out.weights[0] = 9.0

    def test_predict_keeps_a_fresh_transition_output(self):
        made = []

        def fresh(states, rng):
            made.append(states + 1.0)
            return made[-1]

        out = predict(scalar_ensemble([1.0, 2.0]), fresh, RandomSource(1))
        assert out.particles is made[0]
        assert not made[0].flags.writeable

    def test_transition_must_not_reuse_its_output(self):
        # A transition that writes its draws into one kept buffer breaks the
        # contract: the first ensemble holds the buffer, read-only, so the
        # second call's write fails and the first ensemble is unchanged.
        buffer = np.empty((1, 2))

        def reusing(states, rng):
            np.add(states, 1.0, out=buffer)
            return buffer

        first = predict(scalar_ensemble([1.0, 2.0]), reusing, RandomSource(1))
        with pytest.raises(ValueError, match="read-only"):
            predict(first, reusing, RandomSource(1))
        assert first.particles.ravel().tolist() == [2.0, 3.0]

    @pytest.mark.parametrize("transition", [identity, lambda states, rng: states[:, :]])
    def test_predict_copies_the_input_or_a_view(self, transition):
        ens = scalar_ensemble([1.0, 2.0])
        out = predict(ens, transition, RandomSource(1))
        assert not np.shares_memory(out.particles, ens.particles)
        assert out.particles.base is None
        np.testing.assert_array_equal(out.particles, ens.particles)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_predict_rejects_non_finite_states(self, bad):
        def broken(states, rng):
            out = states + 1.0
            out[0, -1] = bad
            return out

        with pytest.raises(ConfigurationError, match="finite"):
            predict(scalar_ensemble([1.0, 2.0]), broken, RandomSource(1))


class TestNormalize:
    """Normalization inside the fused weight update."""

    def test_hand_arithmetic(self):
        # Uniform prior over three particles, likelihoods {6, 9, 15}:
        # unnormalized {2, 3, 5}, posterior {0.2, 0.3, 0.5}, marginal 10.
        ens = scalar_ensemble([0.0, 0.0, 0.0])
        out, log_marginal = weight_update(ens, log_rows([6.0, 9.0, 15.0]))
        np.testing.assert_allclose(out.weights, [0.2, 0.3, 0.5], rtol=1e-12)
        assert np.exp(log_marginal) == pytest.approx(10.0, rel=1e-12)

    def test_idempotent_on_normalized(self):
        ens = scalar_ensemble([1.0, 2.0], weights=[0.5, 0.5])
        out, log_marginal = weight_update(ens, np.empty((0, 2)))
        np.testing.assert_allclose(out.weights, [0.5, 0.5], rtol=1e-12)
        assert log_marginal == pytest.approx(0.0, abs=1e-12)

    def test_single_particle(self):
        ens = scalar_ensemble([0.0])
        out, log_marginal = weight_update(ens, log_rows([0.37]))
        assert out.weights[0] == pytest.approx(1.0)
        assert np.exp(log_marginal) == pytest.approx(0.37, rel=1e-12)

    @given(weights_strategy)
    @settings(max_examples=100, deadline=None)
    def test_normalized_sum_within_tolerance(self, weights):
        ens = ParticleEnsemble.from_states(np.zeros((1, len(weights))))
        out, log_marginal = weight_update(ens, log_rows(weights))
        assert abs(float(np.sum(out.weights)) - 1.0) <= 1e-12
        assert np.exp(log_marginal) == pytest.approx(np.mean(weights), rel=1e-9)

    @given(weights_strategy)
    @settings(max_examples=100, deadline=None)
    def test_marginal_equals_prior_times_likelihood_sum(self, weights):
        # Marginal-likelihood identity: the weight update returns
        # log sum_p prior_p * likelihood_p.
        prior = np.array(weights) / sum(weights)
        ens = ParticleEnsemble(np.zeros((1, len(weights))), prior)
        rng = np.random.default_rng(11)
        lik = rng.uniform(0.01, 3.0, len(weights))
        _, log_marginal = weight_update(ens, log_rows(lik))
        assert np.exp(log_marginal) == pytest.approx(float(np.sum(prior * lik)), rel=1e-12)


class TestEffectiveSampleSize:
    def test_uniform_gives_particle_count(self):
        ens = ParticleEnsemble.from_states(np.zeros((1, 100)))
        assert effective_sample_size(ens) == pytest.approx(100.0)

    def test_half_half(self):
        ens = scalar_ensemble([1, 2, 3, 4], weights=[0.5, 0.5, 0.0, 0.0])
        assert effective_sample_size(ens) == pytest.approx(2.0)

    def test_degenerate(self):
        ens = scalar_ensemble([1, 2, 3], weights=[1.0, 0.0, 0.0])
        assert effective_sample_size(ens) == pytest.approx(1.0)


class TestSystematicResampling:
    def test_point_mass_gives_all_copies(self):
        ens = scalar_ensemble([5.0, 6.0, 7.0], weights=[0.0, 1.0, 0.0])
        out = resample_systematic(ens, RandomSource(3))
        np.testing.assert_allclose(out.particles[0], 6.0)
        np.testing.assert_allclose(out.weights, 1.0 / 3.0)

    def test_uniform_weights_copy_each_once(self):
        for seed in range(5):
            ens = scalar_ensemble(np.arange(8.0))
            out = resample_systematic(ens, RandomSource(seed))
            np.testing.assert_array_equal(np.sort(out.particles[0]), np.arange(8.0))

    def test_three_one_split_for_every_draw(self):
        # Four particles of weights (0.75, 0.25, 0, 0) always resample to
        # copies (3, 1, 0, 0).
        ens = scalar_ensemble([1.0, 2.0, 3.0, 4.0], weights=[0.75, 0.25, 0.0, 0.0])
        for seed in range(25):
            out = resample_systematic(ens, RandomSource(seed))
            values = out.particles[0]
            assert np.sum(values == 1.0) == 3
            assert np.sum(values == 2.0) == 1

    def test_copies_whole_columns(self):
        # Two-component states: every resampled column is one of the
        # original columns, both components together.
        states = np.array([[1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0]])
        ens = ParticleEnsemble(states, np.array([0.1, 0.4, 0.3, 0.2]))
        out = resample_systematic(ens, RandomSource(4))
        assert out.particles.shape == (2, 4)
        np.testing.assert_array_equal(out.particles[1], 10.0 * out.particles[0])

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=16),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_copy_count_bounds(self, raw, seed):
        weights = np.array(raw) / sum(raw)
        n = len(weights)
        ens = ParticleEnsemble(np.arange(n, dtype=float)[None, :], weights)
        out = resample_systematic(ens, RandomSource(seed))
        counts = np.bincount(out.particles[0].astype(int), minlength=n)
        for p in range(n):
            assert np.floor(n * weights[p]) <= counts[p] <= np.ceil(n * weights[p])

    def test_mean_preservation_over_seeded_draws(self):
        rng = np.random.default_rng(17)
        weights = rng.uniform(0.05, 1.0, 12)
        weights /= weights.sum()
        states = rng.normal(size=(12, 2))
        ens = ParticleEnsemble(states.T, weights)
        target = posterior_mean(ens)
        n_draws = 1000
        means = np.array(
            [
                posterior_mean(resample_systematic(ens, RandomSource(seed)))
                for seed in range(n_draws)
            ]
        )
        # Worst-case per-draw variance is bounded by the weighted state spread.
        spread = np.sqrt(np.sum(weights[:, None] * (states - target) ** 2, axis=0))
        se = spread / np.sqrt(n_draws)
        assert np.all(np.abs(means.mean(axis=0) - target) < 4 * se + 1e-12)


class TestPosteriorMean:
    def test_hand_value(self):
        ens = scalar_ensemble([1.0, 3.0], weights=[0.25, 0.75])
        assert posterior_mean(ens)[0] == pytest.approx(2.5, rel=1e-12)

    def test_point_mass(self):
        ens = ParticleEnsemble.from_states(np.full((2, 4), 3.3))
        np.testing.assert_allclose(posterior_mean(ens), [3.3, 3.3])

    def test_uniform_weights_arithmetic_mean(self):
        states = np.arange(12.0).reshape(6, 2)
        ens = ParticleEnsemble.from_states(states.T)
        np.testing.assert_allclose(posterior_mean(ens), states.mean(axis=0), rtol=1e-12)

    @given(
        # At least two components: a single component's products are one
        # contiguous column, which numpy sums pairwise.
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=1, max_value=300),
        st.sampled_from([1e-3, 1.0, 1e3]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_left_to_right_sum(self, n, p, scale, seed):
        # Each component is w_0 x_0 + w_1 x_1 + ..., added in particle
        # order, bit for bit; zero weights included.
        rng = np.random.default_rng(seed)
        weights = rng.random(p)
        weights[rng.random(p) < 0.2] = 0.0
        weights[0] += 0.5
        weights /= weights.sum()
        states = scale * rng.normal(size=(n, p))
        ens = ParticleEnsemble(states, weights)
        expected = ens.weights[0] * ens.particles[:, 0]
        for i in range(1, p):
            expected = expected + ens.weights[i] * ens.particles[:, i]
        assert posterior_mean(ens).tobytes() == expected.tobytes()
