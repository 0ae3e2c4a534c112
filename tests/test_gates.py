"""Unit and property tests for the statistical gates and their level rule."""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from gatedpf.gates import (
    MODES,
    GateKind,
    gate_rows,
    level_rule,
    likelihood_ratio_test,
    significance_test,
    unexplained,
)
from gatedpf.rng import RandomSource

from conftest import gaussian_rows, log_rows, null_rows, scalar_ensemble


NP, FISHER = GateKind.NEYMAN_PEARSON, GateKind.FISHER


def first_row(kind, columns, alpha):
    """Row 0 of a test's ``(statistic, auxiliary)`` columns and its outcome
    at level ``alpha``, as plain Python values."""
    statistic, auxiliary = columns
    return SimpleNamespace(
        statistic=float(statistic[0]),
        auxiliary=float(auxiliary[0]),
        rejected_h0=bool(level_rule(kind, statistic, auxiliary, alpha)[0]),
    )


def lr_row(ens, g0, g1, alpha=0.05):
    """Likelihood-ratio test of one measurement from per-particle densities."""
    return first_row(NP, likelihood_ratio_test(ens.weights, log_rows(g0), log_rows(g1)), alpha)


def significance_row(ens, value, mean=None, scale=1.0, alpha=0.05):
    """Significance test of one measurement whose null model predicts
    ``mean`` (default: each particle's state) with ``scale`` per particle."""
    mean = ens.particles[0] if mean is None else np.asarray(mean, dtype=float)
    shape = (1, ens.size)
    z, _ = null_rows(
        [value], np.broadcast_to(mean, shape), np.broadcast_to(np.asarray(scale, dtype=float), shape)
    )
    return first_row(FISHER, significance_test(ens.weights, z), alpha)


def favors_h1(g0, g1) -> bool:
    """The likelihood-ratio test's vote of a single particle (g1 / g0 > 1),
    read off the favoring-particle count of a one-particle test."""
    return lr_row(scalar_ensemble([0.0]), [g0], [g1]).auxiliary == 1.0


class TestLikelihoodRatio:
    """Per-particle fault-over-null ratio, as the test evaluates it in log space."""

    def test_identical_hypotheses_is_one(self):
        ens = scalar_ensemble([0.7])
        _, log_g = gaussian_rows([1.3], [0.7], std=2.0)
        _, auxiliary = likelihood_ratio_test(ens.weights, log_g, log_g)
        assert auxiliary[0] == 0.0

    def test_hand_division(self):
        assert favors_h1(0.2, 0.4)
        assert not favors_h1(0.4, 0.2)

    def test_impossible_under_h1(self):
        assert not favors_h1(0.5, 0.0)

    def test_zero_null_gives_infinity(self):
        decision = lr_row(scalar_ensemble([0.0]), [0.0], [0.2])
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
        g = [0.3, 0.2, 0.1]
        decision = lr_row(ens, g, g, alpha=0.99)
        assert not decision.rejected_h0
        assert decision.auxiliary == 0.0

    def test_hand_example_mass_and_thresholds(self):
        # Uniform 1/3, g0 = {0.3, 0.2, 0.1}, g1 = {0.4, 0.1, 0.05}:
        # only particle 1 favors the fault model, mass = 0.3 / 3 = 0.1.
        ens = scalar_ensemble([1.0, 2.0, 3.0])
        g0 = [0.3, 0.2, 0.1]
        g1 = [0.4, 0.1, 0.05]
        accept = lr_row(ens, g0, g1, alpha=0.05)
        assert accept.statistic == pytest.approx(0.1, rel=1e-12)
        assert accept.auxiliary == 1.0
        assert not accept.rejected_h0
        reject = lr_row(ens, g0, g1, alpha=0.2)
        assert reject.rejected_h0

    def test_accepts_lists(self):
        # The hand example, handed over as plain lists.
        g0 = np.log([[0.3, 0.2, 0.1]])
        g1 = np.log([[0.4, 0.1, 0.05]])
        expected, _ = likelihood_ratio_test(np.full(3, 1.0 / 3.0), g0, g1)
        statistic, auxiliary = likelihood_ratio_test([1.0 / 3.0] * 3, g0.tolist(), g1.tolist())
        assert statistic.tobytes() == expected.tobytes()
        assert auxiliary.tolist() == [1.0]
        assert level_rule(NP, statistic, auxiliary, 0.2).tolist() == [True]

    def test_outlier_measurement_rejected(self):
        # Narrow null around the particle states, broad fault model: a far
        # outlier has negligible null mass but fault support everywhere.
        ens = scalar_ensemble([10.0, 11.0, 12.0])
        _, log_g0 = gaussian_rows([-50.0], [10.0, 11.0, 12.0], std=1.0)
        broad = np.array([[-0.5 * (-50.0 / 50.0) ** 2 - np.log(50.0)]])
        decision = first_row(NP, likelihood_ratio_test(ens.weights, log_g0, broad), 0.01)
        assert decision.rejected_h0
        assert decision.statistic < 1e-12
        assert decision.auxiliary == 3.0

    def test_mass_sums_only_favoring_particles(self):
        ens = scalar_ensemble([1.0, 2.0], weights=[0.5, 0.5])
        g0 = [0.4, 0.001]
        g1 = [0.3, 0.01]  # only particle 2 favors h1
        decision = lr_row(ens, g0, g1, alpha=0.01)
        assert decision.statistic == pytest.approx(0.0005, rel=1e-12)
        assert decision.rejected_h0

    def test_both_zero_particles_carry_no_evidence(self):
        ens = scalar_ensemble([1.0, 2.0])
        decision = lr_row(ens, [0.0, 0.5], [0.0, 0.4], alpha=0.9)
        assert decision.auxiliary == 0.0
        assert not decision.rejected_h0

    @given(
        st.floats(min_value=1e-4, max_value=0.5),
        st.floats(min_value=1e-4, max_value=0.49),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_alpha(self, alpha, bump):
        ens = scalar_ensemble([1.0, 2.0, 3.0])
        g0 = [0.3, 0.2, 0.1]
        g1 = [0.4, 0.1, 0.05]
        low = lr_row(ens, g0, g1, alpha=alpha)
        high = lr_row(ens, g0, g1, alpha=min(0.999, alpha + bump))
        if low.rejected_h0:
            assert high.rejected_h0

    def test_rows_are_tested_independently(self):
        # A K-row call gives each row exactly what a one-row call gives it.
        rng = np.random.default_rng(5)
        weights = rng.uniform(0.1, 1.0, 40)
        ens = scalar_ensemble(np.arange(40.0), weights=weights / weights.sum())
        log_g0 = rng.normal(-2.0, 3.0, (7, 40))
        log_g1 = rng.normal(-3.0, 1.0, (7, 1))
        joint = likelihood_ratio_test(ens.weights, log_g0, log_g1)
        rejected = level_rule(NP, *joint, 0.05)
        for i in range(7):
            one = likelihood_ratio_test(ens.weights, log_g0[i : i + 1], log_g1[i : i + 1])
            assert joint[0][i] == one[0][0]
            assert joint[1][i] == one[1][0]
            assert rejected[i] == level_rule(NP, *one, 0.05)[0]


class TestFisherStatistic:
    def test_zero_residual(self):
        ens = scalar_ensemble([10.0, 14.0])
        assert significance_row(ens, 10.0, scale=2.0).auxiliary == pytest.approx(
            0.5 * 0.0 + 0.5 * (10 - 14) / 2.0
        )
        point = scalar_ensemble([10.0])
        assert significance_row(point, 10.0, scale=2.0).auxiliary == 0.0

    def test_hand_weighted_average(self):
        # mu = {10, 14}, sigma = {2, 2.8}, y = 20 -> T = {5, 2.142857...}.
        ens = scalar_ensemble([0.0, 1.0])
        stat = significance_row(ens, 20.0, mean=[10.0, 14.0], scale=[2.0, 2.8]).auxiliary
        assert stat == pytest.approx(0.5 * 5.0 + 0.5 * (6.0 / 2.8), rel=1e-9)
        assert stat == pytest.approx(3.571429, abs=1e-6)

    def test_degenerate_weights_pick_first_particle(self):
        ens = scalar_ensemble([10.0, 99.0], weights=[1.0, 0.0])
        assert significance_row(ens, 12.0, scale=2.0).auxiliary == pytest.approx(1.0)

    @given(st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_per_particle_statistic(self, a):
        # Dividing every scale by a multiplies the statistic by a exactly.
        ens = scalar_ensemble([0.0, 1.0, 2.0], weights=[0.2, 0.5, 0.3])
        mean = [1.0, 2.0, 3.0]
        t0 = significance_row(ens, 7.0, mean=mean, scale=[1.0, 2.0, 4.0]).auxiliary
        t1 = significance_row(
            ens, 7.0, mean=mean, scale=np.array([1.0, 2.0, 4.0]) / a
        ).auxiliary
        assert t1 == pytest.approx(a * t0, rel=1e-9)


def normal_tail_two_sided(t: float) -> float:
    # Independent oracle for the two-sided standard normal tail mass.
    return math.erfc(abs(t) / math.sqrt(2.0))


class TestFisherGate:
    def test_zero_statistic_never_rejects(self):
        ens = scalar_ensemble([10.0])
        decision = significance_row(ens, 10.0, scale=2.0, alpha=0.999)
        assert decision.statistic == pytest.approx(1.0)
        assert not decision.rejected_h0

    def test_hand_p_value_boundary(self):
        ens = scalar_ensemble([0.0, 1.0])
        mean, scale = [10.0, 14.0], [2.0, 2.8]
        expected_p = normal_tail_two_sided(0.5 * 5.0 + 0.5 * 6.0 / 2.8)
        assert expected_p == pytest.approx(3.55e-4, rel=2e-3)
        reject = significance_row(ens, 20.0, mean=mean, scale=scale, alpha=1e-3)
        accept = significance_row(ens, 20.0, mean=mean, scale=scale, alpha=1e-4)
        assert reject.statistic == pytest.approx(expected_p, rel=1e-6)
        assert reject.rejected_h0
        assert not accept.rejected_h0

    def test_quantile_anchor(self):
        # T = 1.959964 corresponds to a two-sided p of 0.05.
        ens = scalar_ensemble([0.0])
        decision = significance_row(ens, 1.959964, mean=[0.0], scale=[1.0])
        assert decision.statistic == pytest.approx(0.05, abs=1e-6)

    def test_gate_at_sigma_weighted_prediction_root_never_rejects(self):
        # The statistic is affine in y; at its root the gate cannot reject,
        # and with a common scale that root is the weighted predicted mean.
        weights = np.array([0.3, 0.45, 0.25])
        mean = np.array([4.0, 9.0, 13.0])
        scale = np.array([0.8, 2.0, 3.5])
        ens = scalar_ensemble([0.0, 1.0, 2.0], weights=weights)
        root = float(np.sum(weights * mean / scale) / np.sum(weights / scale))
        decision = significance_row(ens, root, mean=mean, scale=scale, alpha=0.999)
        assert abs(decision.auxiliary) < 1e-12
        assert not decision.rejected_h0

        at_mean = significance_row(
            ens, float(np.sum(weights * mean)), mean=mean, scale=np.full(3, 2.0), alpha=0.999
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
        low = significance_row(ens, y, scale=1.5, alpha=alpha)
        high = significance_row(ens, y, scale=1.5, alpha=min(0.999, alpha + bump))
        assert 0.0 <= low.statistic <= 1.0
        if low.rejected_h0:
            assert high.rejected_h0

    def test_point_mass_calibration(self):
        # With a point-mass ensemble whose null model matches the generator,
        # the statistic is standard normal and the empirical rejection rate
        # at level 0.05 must sit inside [0.03, 0.07] over 1e5 draws.
        ens = scalar_ensemble([15.0])
        draws = RandomSource(2024).normal(15.0, 3.0, size=100_000)
        z, _ = gaussian_rows(draws, [15.0], std=3.0)
        rate = np.mean(level_rule(FISHER, *significance_test(ens.weights, z), 0.05))
        assert 0.03 <= rate <= 0.07

    def test_rows_are_tested_independently(self):
        rng = np.random.default_rng(6)
        weights = rng.uniform(0.1, 1.0, 30)
        weights /= weights.sum()
        z = rng.normal(0.0, 2.0, (9, 30))
        joint = significance_test(weights, z)
        for i in range(9):
            one = significance_test(weights, z[i : i + 1])
            assert joint[0][i] == one[0][0]
            assert joint[1][i] == one[1][0]


class TestSignificanceBits:
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=80),
        st.sampled_from([1e-3, 1.0, 1e3, 1e150]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_statistic_equals_row_by_row_sum(self, k, n, scale, seed):
        # The statistic as it once was computed, one row at a time, on
        # finite residuals and weights with zeros.
        rng = np.random.default_rng(seed)
        weights = rng.random(n)
        weights[rng.random(n) < 0.2] = 0.0
        weights[0] += 0.5
        weights /= weights.sum()
        z = scale * rng.normal(size=(k, n))
        expected = np.array([np.sum(weights * row) for row in z], dtype=float)
        statistic, auxiliary = significance_test(weights, z)
        assert auxiliary.tobytes() == expected.tobytes()
        assert statistic.tobytes() == (2.0 * ndtr(-np.abs(expected))).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_residual_at_zero_weight_particle(self):
        # 0 * inf would be NaN: the row is averaged over the positive-weight
        # particles, so its statistic is infinite and its p-value 0.
        statistic, auxiliary = significance_test([0.5, 0.5, 0.0], [[np.inf] * 3])
        assert auxiliary[0] == np.inf
        assert statistic[0] == 0.0
        assert level_rule(FISHER, statistic, auxiliary, 0.05)[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_opposite_infinite_residuals_reject_with_infinite_statistic(self):
        # inf + -inf has no average: the row reads as far from the null as
        # any row can, so the decision log holds 0 and +inf, never NaN.
        statistic, auxiliary = significance_test([0.5, 0.5, 0.0], [[np.inf, -np.inf, 1.0]])
        assert auxiliary[0] == np.inf
        assert statistic[0] == 0.0
        assert level_rule(FISHER, statistic, auxiliary, 0.05)[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_rows_keep_their_bits_beside_an_infinite_row(self):
        weights = np.array([0.25, 0.25, 0.5, 0.0])
        z = np.array([[0.1, -0.3, 2.0, 7.0], [-np.inf, -np.inf, -np.inf, 1.0]])
        statistic, auxiliary = significance_test(weights, z)
        assert auxiliary[0] == np.sum(weights * z[0])
        assert auxiliary[1] == -np.inf
        assert level_rule(FISHER, statistic, auxiliary, 0.05).tolist() == [False, True]


class TestLikelihoodRatioBits:
    @given(
        st.sampled_from([1, 2, 7, 8, 9, 129, 400]),
        st.integers(min_value=0, max_value=6),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_statistic_equals_row_by_row_sum(self, n, k, per_particle, seed):
        # The statistic as it once was computed, one row at a time over the
        # favoring particles only, on rows no particle favors (0), all favor
        # (1) and, past P = 1, mostly some but not all favor.
        rng = np.random.default_rng(seed)
        weights = rng.random(n)
        weights[rng.random(n) < 0.2] = 0.0
        weights[0] += 0.5
        weights /= weights.sum()
        log_g0 = rng.normal(scale=3.0, size=(k + 2, n))
        log_g1 = rng.normal(scale=3.0, size=(k + 2, n if per_particle else 1))
        log_g1[0], log_g1[1] = -np.inf, np.inf
        mass = weights * np.exp(log_g0)
        favors = log_g1 > log_g0
        expected = np.array([np.sum(m[f]) for m, f in zip(mass, favors)], dtype=float)
        statistic, auxiliary = likelihood_ratio_test(weights, log_g0, log_g1)
        assert statistic.tobytes() == expected.tobytes()
        assert auxiliary.tolist() == np.count_nonzero(favors, axis=1).tolist()
        assert auxiliary[:2].tolist() == [0.0, n]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_null_mass_is_infinite_unnormalized(self):
        statistic, auxiliary = likelihood_ratio_test(
            np.array([0.5, 0.5]), np.array([[800.0, 800.0]]), np.array([[900.0]])
        )
        assert statistic.tolist() == [np.inf]
        assert not level_rule(NP, statistic, auxiliary, 0.05)[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_weight_particle_whose_null_mass_overflows(self):
        # 0 * exp(800) would be NaN: the zero-weight particle carries no
        # mass, so only particle 1's mass e^-5 counts.
        statistic, auxiliary = likelihood_ratio_test(
            np.array([1.0, 0.0]), np.array([[-5.0, 800.0]]), np.array([[900.0]])
        )
        assert statistic.tolist() == [math.exp(-5.0)]
        assert auxiliary.tolist() == [2.0]


class TestModes:
    def test_each_mode_has_its_test(self):
        # The ungated filter has none, and the two likelihood-ratio modes
        # differ only in their fault model.
        assert dict(MODES) == {"none": None, "fisher": FISHER, "np_correct": NP, "np_incorrect": NP}


class TestLevelRule:
    """The tests read no level, and the filter's gate rejects a row when
    ``level_rule`` does at the variant's level or no positive-weight
    particle explains it: a filter run's decision log at one level predicts
    its gate at every other."""

    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=1e-6, max_value=0.999),
        st.floats(min_value=1e-6, max_value=0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_reproduces_rejected_at_any_level(self, n, k, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        weights = rng.random(n)
        weights[rng.random(n) < 0.3] = 0.0
        weights[0] += 0.5
        weights /= weights.sum()
        rows = k + 4
        log_g0 = rng.normal(scale=3.0, size=(rows, n))
        log_g1 = rng.normal(scale=3.0, size=(rows, 1))
        z = rng.normal(scale=3.0, size=(rows, n))
        # Row 0: no particle favors the fault model (count 0).  Row 1: a
        # null mass that overflows, and an infinite residual (infinite
        # statistics).  Row 2: zero null density at every positive-weight
        # particle (unexplained), with infinite residuals at the
        # zero-weight ones.  Row 3: zero null density everywhere.
        log_g1[0] = -np.inf
        log_g0[1], log_g1[1], z[1, 0] = 800.0, 900.0, np.inf
        log_g0[2, weights > 0.0] = -np.inf
        z[2, weights == 0.0] = -np.inf
        log_g0[3] = -np.inf

        favoring = np.count_nonzero(log_g1 > log_g0, axis=1)
        positive = weights > 0.0
        columns = {
            FISHER: significance_test(weights, z),
            NP: likelihood_ratio_test(weights, log_g0, log_g1),
        }
        for kind, (statistic, auxiliary) in columns.items():
            for level in (alpha, beta):
                # The significance test reads no fault model.
                gate_statistic, gate_auxiliary, rejected = gate_rows(
                    kind, level, weights, z, log_g0, None if kind is FISHER else log_g1
                )
                assert gate_statistic.tobytes() == statistic.tobytes()
                assert gate_auxiliary.tobytes() == auxiliary.tobytes()
                assert np.array_equal(
                    rejected,
                    level_rule(kind, statistic, auxiliary, level) | unexplained(weights, log_g0),
                )
                # Row by row, as the tests' docstrings state the rule.
                for i in range(rows):
                    rejects = bool(statistic[i] < level)
                    if kind is NP:
                        rejects &= bool(favoring[i] > 0)
                    no_explanation = bool(np.all(log_g0[i, positive] == -np.inf))
                    assert rejected[i] == (rejects or no_explanation)
                assert rejected[2:4].all()
        lr, fisher = columns[NP], columns[FISHER]
        assert lr[1][0] == 0.0
        assert lr[0][1] == np.inf
        assert fisher[1][1] == np.inf and fisher[0][1] == 0.0


class TestUnexplainedRows:
    """The gate rejects a row whose null density is zero at every particle
    of positive prior weight, whatever its test decides."""

    def test_rows_zero_at_every_positive_weight_particle(self):
        weights = [0.5, 0.5, 0.0]
        log_g0 = [[-np.inf, -np.inf, 0.0], [-np.inf, -3.0, 0.0], [-1.0, -2.0, -np.inf]]
        assert unexplained(weights, log_g0).tolist() == [True, False, False]
        # With every weight positive, only an all -inf row is unexplained.
        assert unexplained([0.5, 0.25, 0.25], log_g0).tolist() == [False, False, False]
        assert unexplained([0.5, 0.5], [[-np.inf, -np.inf]]).tolist() == [True]

    def test_likelihood_ratio_vote_accepts_when_both_densities_are_zero(self):
        weights = np.array([0.5, 0.5, 0.0])
        log_g0 = np.array([[-np.inf, -np.inf, 0.0]])
        statistic, auxiliary = likelihood_ratio_test(weights, log_g0, np.full((1, 1), -np.inf))
        # No particle favors the fault model, so the vote alone accepts.
        assert auxiliary.tolist() == [0.0]
        assert not level_rule(NP, statistic, auxiliary, 0.05)[0]
        assert unexplained(weights, log_g0)[0]

    def test_opposite_residuals_too_large_to_square(self):
        # The residuals cancel in the weighted average, but the null log
        # density is -inf at both positive-weight particles.
        weights = np.array([0.5, 0.5, 0.0])
        z, log_g0 = null_rows([0.0], np.array([[1e200, -1e200, 0.0]]), np.ones((1, 3)))
        statistic, auxiliary = significance_test(weights, z)
        assert statistic[0] == 1.0
        assert not level_rule(FISHER, statistic, auxiliary, 0.05)[0]
        assert unexplained(weights, log_g0)[0]
        # Squares that stay finite: the row is explained.
        z, log_g0 = null_rows([0.0], np.array([[1e100, -1e100]]), np.ones((1, 2)))
        assert not unexplained([0.5, 0.5], log_g0)[0]

    def test_bound_where_the_half_square_overflows(self):
        # -z^2 / 2 overflows for |z| past about 1.9e154, not where z^2 alone
        # does (about 1.34e154): a residual between them is still explained.
        z, log_g0 = null_rows([0.0], np.array([[1.5e154, 1.5e154]]), np.ones((1, 2)))
        assert np.isfinite(log_g0).all()
        assert not unexplained([0.5, 0.5], log_g0)[0]
        z, log_g0 = null_rows([0.0], np.array([[2e154, 2e154]]), np.ones((1, 2)))
        assert unexplained([0.5, 0.5], log_g0)[0]
