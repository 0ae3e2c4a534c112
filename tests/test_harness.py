"""Tests for experiment orchestration, metrics, and the traffic filter loop."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from gatedpf.ctm import DemandProfile, DemandSchedule, advance, equilibrium_state, simulate
from gatedpf.errors import ConfigurationError, DataError, WeightCollapseError
from gatedpf.gates import gated_update, likelihood_ratio_test, significance_test, unexplained
from gatedpf.harness import (
    STREAM_FILTER_DEMAND,
    STREAM_FILTER_RESAMPLE,
    STREAM_TRUTH,
    ConfusionCounts,
    DecisionRecord,
    ExperimentConfig,
    FilterVariant,
    MetricsReport,
    RunMetrics,
    TrajectoryPair,
    confusion_metrics,
    generate_measurements,
    mape,
    metrics_long_text,
    metrics_wide_text,
    read_decision_log,
    read_metrics_long,
    run_experiment,
    run_traffic_filter,
    simulate_seed,
    write_decision_log,
)
from gatedpf.particles import (
    ParticleEnsemble,
    effective_sample_size,
    posterior_mean,
    predict,
    resample_systematic,
)
from gatedpf.rng import RandomSource
from gatedpf.sensing import (
    FaultConfig,
    GnssSpec,
    LoopDetectorSpec,
    fault_log_density,
    measurement_rows,
    standardize,
)

from conftest import small_network


def micro_config(horizon=12, particles=30, seeds=(5,), variants=None, fault_probability=0.4):
    network = small_network(3, qmax_1=1.6, qmax=4.0)
    schedule = DemandSchedule(
        dt=10.0,
        upstream=DemandProfile(base=1.2, peak=2.4, rise=(0.0, 40.0), fall=(80.0, 110.0), noise_frac=0.2),
        onramps=(),
    )
    return ExperimentConfig(
        network=network,
        schedule=schedule,
        horizon=horizon,
        particles=particles,
        loop_specs=(LoopDetectorSpec(link=0), LoopDetectorSpec(link=2)),
        gnss_spec=GnssSpec(penetration=0.5, noise_frac=0.2, min_std=0.5),
        fault_config=FaultConfig(probability=fault_probability),
        variants=tuple(variants or (FilterVariant("fisher", 0.01),)),
        seeds=tuple(seeds),
    )


class TestVariantsAndConfig:
    def test_variant_validation(self):
        with pytest.raises(ConfigurationError):
            FilterVariant("none", 0.05)
        with pytest.raises(ConfigurationError):
            FilterVariant("fisher", None)
        with pytest.raises(ConfigurationError):
            FilterVariant("bogus", 0.05)
        assert FilterVariant("np_correct", 0.01).label == "np_correct@0.01"

    @pytest.mark.parametrize("zero_std", [0.0, -1.0, float("nan")])
    def test_h1_zero_std_must_be_positive(self, zero_std):
        with pytest.raises(ConfigurationError, match="h1_zero_std"):
            dataclasses.replace(micro_config(), h1_zero_std=zero_std)

    def test_initial_state_is_the_equilibrium_computed_once(self):
        config = micro_config()
        state = config.initial_state
        assert state.tobytes() == equilibrium_state(config.network, config.schedule).tobytes()
        assert config.initial_state is state
        assert not state.flags.writeable
        with pytest.raises(ValueError):
            state[0] = 1.0
        # A replaced config computes its own.
        assert dataclasses.replace(config, horizon=5).initial_state is not state

    def test_runs_start_from_the_initial_state(self):
        config = micro_config(horizon=4, variants=(FilterVariant("none"),))
        starts = []
        run_experiment(config, on_run=lambda seed, truth, *_: starts.append(truth.states[0]))
        assert starts[0].tobytes() == config.initial_state.tobytes()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            micro_config(particles=1)
        with pytest.raises(ConfigurationError):
            micro_config(horizon=0)
        with pytest.raises(ConfigurationError):
            micro_config(seeds=())


class TestConfusionMetrics:
    def _record(self, rejected, faulty):
        return DecisionRecord(
            k=1, sensor_id="s", link=0, test_kind="fisher", statistic=0.5,
            alpha=0.05, rejected=rejected, auxiliary=0.0, faulty=faulty,
        )

    def test_all_accepted_clean(self):
        counts = confusion_metrics([self._record(False, False)] * 7)
        assert counts.tn == 7 and counts.total == 7
        assert counts.labeling_error_pct == 0.0

    def test_hand_mixed_counts(self):
        decisions = [
            self._record(True, True),
            self._record(True, False),
            self._record(False, True),
            self._record(False, False),
        ]
        counts = confusion_metrics(decisions)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1)
        assert counts.labeling_error_pct == pytest.approx(50.0)

    def test_all_rejected_all_faulty(self):
        counts = confusion_metrics([self._record(True, True)] * 5)
        assert counts.tp == 5
        assert counts.labeling_error_pct == 0.0

    def test_missing_label_raises(self):
        with pytest.raises(DataError):
            confusion_metrics([self._record(True, None)])

    def test_count_identity(self):
        rng = np.random.default_rng(0)
        decisions = [
            self._record(bool(rng.integers(2)), bool(rng.integers(2))) for _ in range(100)
        ]
        counts = confusion_metrics(decisions)
        assert counts.total == 100


class TestMape:
    def test_identical_is_zero(self):
        pair = TrajectoryPair(np.full((4, 3), 0.05), np.full((4, 3), 0.05))
        assert mape(pair) == 0.0

    def test_hand_value(self):
        pair = TrajectoryPair(np.array([[1.0]]), np.array([[1.1]]))
        assert mape(pair) == pytest.approx(10.0, rel=1e-9)

    def test_multiplicative_error(self):
        true = np.random.default_rng(1).uniform(0.01, 0.1, size=(5, 4))
        pair = TrajectoryPair(true, 1.05 * true)
        assert mape(pair) == pytest.approx(5.0, rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            TrajectoryPair(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_floor_guards_near_zero(self):
        pair = TrajectoryPair(np.array([[0.0]]), np.array([[1e-6]]))
        assert mape(pair, floor=1e-4) == pytest.approx(100.0 * 1e-6 / 1e-4)


class TestFilterLoop:
    @pytest.mark.parametrize(
        "variant",
        [
            FilterVariant("none"),
            FilterVariant("fisher", 0.05),
            FilterVariant("np_correct", 0.05),
            FilterVariant("np_incorrect", 0.05),
        ],
        ids=lambda v: v.mode,
    )
    def test_matches_hand_composed_pipeline(self, variant):
        # Regression against a pipeline composed by hand from the library's
        # pieces on the same random streams: estimates and decisions must
        # match bit for bit.  The log is handed over in reverse step order,
        # which the filter must undo.
        config = micro_config(horizon=12, variants=(variant,))
        seed = config.seeds[0]
        base = RandomSource(seed)
        init = equilibrium_state(config.network, config.schedule)
        truth = simulate(config.network, config.schedule, config.horizon, base.derive(STREAM_TRUTH), init)
        measurements = generate_measurements(
            truth, config.network, config.loop_specs, config.gnss_spec, config.fault_config, base
        )
        shuffled = sorted(measurements, key=lambda m: -m.k)
        result = run_traffic_filter(config, shuffled, variant, RandomSource(seed))

        # Manual composition.
        ens = ParticleEnsemble.from_states(np.tile(init, (config.particles, 1)))

        def transition(states, rng):
            upstream, ramps = config.schedule.sample(k - 1, rng, states.shape[0], demand)
            return advance(states, config.network, upstream, ramps)

        demand = config.schedule.table(range(config.horizon))
        rng_demand = RandomSource(seed).derive(STREAM_FILTER_DEMAND)
        rng_resample = RandomSource(seed).derive(STREAM_FILTER_RESAMPLE)
        loops = {spec.link: spec for spec in config.loop_specs}
        by_step = {}
        for m in measurements:
            by_step.setdefault(m.k, []).append(m)

        estimates, decisions = [], []
        for k in range(1, config.horizon):
            prior = predict(ens, transition, rng_demand)
            ms = by_step.get(k, [])
            if ms:
                t = k * config.schedule.dt
                ramp_means = np.array([p.mean(t) for p in config.schedule.onramps])
                values, mean, std, is_speed = measurement_rows(
                    ms, prior.particles, config.network, ramp_means, loops, config.gnss_spec
                )
                z, log_g0 = standardize(values, mean, std)
                rejected = np.zeros(len(ms), dtype=bool)
                tested = np.flatnonzero(is_speed)
                if variant.mode != "none" and tested.size:
                    if variant.mode == "fisher":
                        gate = significance_test(prior.weights, z[tested], variant.alpha)
                    else:
                        log_g1 = fault_log_density(
                            values[tested], variant.mode, config.fault_config, config.h1_zero_std
                        )
                        gate = likelihood_ratio_test(
                            prior.weights, log_g0[tested], log_g1[:, None], variant.alpha,
                            config.np_mass_normalized,
                        )
                    gate_rejected = gate.rejected | unexplained(prior.weights, log_g0[tested])
                    rejected[tested] = gate_rejected
                    for i, stat, rej, aux in zip(tested, gate.statistic, gate_rejected, gate.auxiliary):
                        m = ms[i]
                        decisions.append(
                            DecisionRecord(
                                m.k, m.sensor_id, m.link, gate.kind.value,
                                float(stat), variant.alpha, bool(rej), float(aux), m.faulty,
                            )
                        )
                post = gated_update(prior, log_g0, rejected).posterior
            else:
                post = prior
            estimates.append(posterior_mean(post))
            if effective_sample_size(post) < config.resample_threshold * config.particles:
                post = resample_systematic(post, rng_resample)
            ens = post
        assert result.estimates.tobytes() == np.array(estimates).tobytes()
        assert result.decisions == decisions
        assert (len(decisions) > 0) == (variant.mode != "none")

    def test_horizon_one_runs_empty(self):
        config = micro_config(horizon=1)
        result = run_traffic_filter(config, [], FilterVariant("none"), RandomSource(1))
        assert result.estimates.shape == (0, 3)
        assert result.decisions == []

    def test_measurement_outside_window_rejected(self):
        config = micro_config(horizon=5)
        from gatedpf.sensing import LabeledMeasurement

        bad = [LabeledMeasurement(k=5, sensor_id="x", kind="gnss_speed", link=0, value=1.0, faulty=False)]
        with pytest.raises(DataError):
            run_traffic_filter(config, bad, FilterVariant("none"), RandomSource(1))

    @pytest.mark.parametrize("variant", [FilterVariant("none"), FilterVariant("fisher", 0.01)])
    def test_collapse_names_the_step_and_assimilated_sensors(self, variant):
        # A loop reading no particle explains collapses step 2.  The speed
        # report 1e300 is rejected by the gate, so only the ungated filter
        # assimilates it.
        from gatedpf.sensing import LabeledMeasurement

        config = micro_config(horizon=5)
        ms = [
            LabeledMeasurement(k=1, sensor_id="loop-0", kind="loop_density", link=0, value=0.006, faulty=False),
            LabeledMeasurement(k=2, sensor_id="loop-2", kind="loop_density", link=2, value=1e200, faulty=False),
            LabeledMeasurement(k=2, sensor_id="g", kind="gnss_speed", link=1, value=1e300, faulty=True),
        ]
        with pytest.raises(WeightCollapseError, match=r"^step 2: .*'loop-2'") as info:
            run_traffic_filter(config, ms, variant, RandomSource(1))
        expected = ("loop-2", "g") if variant.mode == "none" else ("loop-2",)
        assert info.value.k == 2
        assert info.value.sensor_ids == expected

    def test_decisions_only_for_gated_kinds(self):
        config = micro_config(horizon=10)
        report_runs = run_experiment(config)
        run = report_runs.runs[0]
        assert run.tp + run.fp + run.tn + run.fn > 0
        none_config = dataclasses.replace(config, variants=(FilterVariant("none"),))
        none_run = run_experiment(none_config).runs[0]
        assert none_run.tp + none_run.fp + none_run.tn + none_run.fn == 0
        assert none_run.labeling_error_pct == 0.0


class TestRunExperiment:
    def test_count_identity_per_run(self):
        config = micro_config(
            horizon=15,
            variants=(FilterVariant("fisher", 0.01), FilterVariant("np_correct", 0.01)),
        )
        report = run_experiment(config)
        _, ms = simulate_seed(config, config.seeds[0])
        n_gnss = sum(1 for m in ms if m.kind == "gnss_speed")
        for run in report.runs:
            assert run.tp + run.fp + run.tn + run.fn == n_gnss

    def test_bit_determinism(self):
        config = micro_config(horizon=10, seeds=(3, 4))
        a = run_experiment(config)
        b = run_experiment(config)
        assert a == b

    def test_shared_truth_across_variants(self):
        # Paired columns reuse bit-identical ground truth per seed.
        config = micro_config(horizon=10)
        seen = {}

        def sink(seed, truth, measurements, variant, result):
            if seed in seen:
                assert np.array_equal(seen[seed], truth.states)
            else:
                seen[seed] = truth.states

        run_experiment(
            dataclasses.replace(
                config,
                variants=(FilterVariant("fisher", 0.01), FilterVariant("fisher", 0.1)),
            ),
            on_run=sink,
        )
        assert len(seen) == 1

    def test_fault_free_log_identical_to_clean_stream(self):
        # Setting the fault probability to zero must reproduce the clean
        # measurement values bit for bit (faults draw from their own stream).
        config = micro_config(horizon=10, fault_probability=0.0)
        faulted = micro_config(horizon=10, fault_probability=0.4)
        _, clean = simulate_seed(config, 7)
        _, dirty = simulate_seed(faulted, 7)
        assert len(clean) == len(dirty)
        for c, d in zip(clean, dirty):
            assert c.sensor_id == d.sensor_id
            if not d.faulty:
                assert c.value == d.value


class TestMetricsReport:
    def _report(self):
        runs = [
            RunMetrics("fisher", 0.01, seed, 10 + seed, 2, 80, 8, 10.0 + seed, 3.0 + 0.1 * seed)
            for seed in (1, 2, 3)
        ]
        runs.append(RunMetrics("none", None, 1, 0, 0, 0, 0, 0.0, 5.0))
        return MetricsReport(runs=runs)

    def test_select_and_median(self):
        report = self._report()
        assert [r.seed for r in report.select("fisher", 0.01)] == [1, 2, 3]
        assert report.median("fisher", 0.01, "labeling_error_pct") == pytest.approx(12.0)
        assert report.median("none", None, "mape_pct") == pytest.approx(5.0)

    def test_aggregate_mean_std(self):
        stats = self._report().aggregate()[("fisher", 0.01)]
        assert stats["tp"][0] == pytest.approx(12.0)
        assert stats["tp"][1] == pytest.approx(1.0)  # sample std of {11,12,13}

    def test_single_seed_std_zero(self):
        stats = self._report().aggregate()[("none", None)]
        assert stats["mape_pct"] == (5.0, 0.0)

    def test_wide_table_schema(self):
        text = metrics_wide_text(self._report(), [0.001, 0.01, 0.1])
        lines = text.strip().splitlines()
        assert lines[0] == "variant,metric,alpha=0.001,alpha=0.01,alpha=0.1"
        fisher_rows = [l for l in lines if l.startswith("fisher,")]
        assert len(fisher_rows) == 6
        assert "±" in fisher_rows[0]

    def test_long_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "long.csv"
        path.write_text(metrics_long_text(report))
        back = read_metrics_long(path)
        assert back == report

    def test_long_round_trip_keeps_written_nans(self, tmp_path):
        # A collapsed run has NaN error percentages; a run with no steps has
        # a NaN MAPE.
        runs = [
            RunMetrics("fisher", 0.01, 1, 0, 0, 0, 0, float("nan"), float("nan"), collapsed=True),
            RunMetrics("none", None, 1, 0, 0, 0, 0, 0.0, float("nan")),
        ]
        path = tmp_path / "long.csv"
        path.write_text(metrics_long_text(MetricsReport(runs)))
        back = read_metrics_long(path).runs
        assert [r.collapsed for r in back] == [True, False]
        assert np.isnan(back[0].labeling_error_pct) and np.isnan(back[0].mape_pct)
        assert back[1].labeling_error_pct == 0.0 and np.isnan(back[1].mape_pct)

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("fisher,0.01,1,1,2,3,4,10.0,3.0,2", "collapsed must be 0 or 1"),
            ("fisher,0.01,1,1,2,3,4,10.0,3.0,-1", "collapsed must be 0 or 1"),
            ("fisher,0.01,1,1,2,3,4,10.0,3.0,", "collapsed must be 0 or 1"),
            ("fisher,inf,1,1,2,3,4,10.0,3.0,0", "alpha must be finite"),
            ("fisher,0.01,1,1,2,3,4,-inf,3.0,0", "labeling_error_pct must be finite"),
            ("fisher,0.01,1,1,2,3,4,10.0,inf,1", "mape_pct must be finite"),
            ("fisher,nan,1,0,0,0,0,nan,nan,1", "alpha must be finite"),
            ("fisher,0.01,1,1,2,3,4,nan,3.0,0", "labeling_error_pct must be finite"),
            ("none,,1,0,0,0,0,nan,nan,0", "labeling_error_pct must be finite"),
            ("fisher,0.01,1,1,2,3,4,10.0,nan,0", "mape_pct must be finite"),
            ("fisher,0.01,1,-1,2,3,4,10.0,3.0,0", "tp must be a count"),
            ("fisher,0.01,1,1,2,3,1" + "0" * 400 + ",10.0,3.0,0", "fn must be a count"),
            ("fisher,0.01,x,1,2,3,4,10.0,3.0,0", "invalid literal"),
            ("fisher,0.01,1,1,2,3,4,10.0,3.0", "expected 10 columns"),
            ("fisher,0.01,1,1,2,3,4,10.0,3.0,0,0", "expected 10 columns"),
            ("bogus,0.01,1,1,2,3,4,10.0,3.0,0", "unknown filter mode 'bogus'"),
            ("none,0.01,1,0,0,0,0,0.0,5.0,0", "ungated variant takes no alpha"),
            ("fisher,,1,1,2,3,4,10.0,3.0,0", "variant 'fisher' needs alpha"),
            ("np_correct,1.5,1,1,2,3,4,10.0,3.0,0", "variant 'np_correct' needs alpha"),
        ],
    )
    def test_long_malformed_row_reports_line(self, tmp_path, row, problem):
        path = tmp_path / "long.csv"
        header = metrics_long_text(MetricsReport([])).strip()
        path.write_text(f"{header}\nnone,,1,0,0,0,0,0.0,5.0,0\n{row}\n")
        with pytest.raises(DataError, match=rf"long\.csv:3: .*{problem}"):
            read_metrics_long(path)

    def test_long_header_checked(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("mode,alpha\nnone,\n")
        with pytest.raises(DataError, match="unexpected metrics header"):
            read_metrics_long(path)


class TestDecisionLog:
    def test_round_trip(self, tmp_path):
        decisions = [
            DecisionRecord(3, "g-1", 2, "neyman_pearson", 0.0123456789, 0.01, True, 17.0, True),
            DecisionRecord(4, "g-2", 0, "fisher", 0.5, 0.001, False, -1.25, False),
        ]
        path = tmp_path / "decisions.csv"
        write_decision_log(path, decisions)
        assert read_decision_log(path) == decisions

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "k,sensor_id,link,test_kind,statistic,alpha,rejected,auxiliary,faulty\n"
            "1,s,0,fisher,x,0.01,0,0.0,0\n"
        )
        with pytest.raises(DataError, match=":2"):
            read_decision_log(path)

    def test_infinite_statistic_and_auxiliary_read_back(self, tmp_path):
        # A gate can write them: an infinite residual, a null mass that
        # overflows.
        decisions = [
            DecisionRecord(1, "g-0", 0, "fisher", 0.0, 0.05, True, np.inf, True),
            DecisionRecord(2, "g-1", 1, "fisher", 0.0, 0.05, True, -np.inf, False),
            DecisionRecord(3, "g-2", 2, "neyman_pearson", np.inf, 0.05, False, 4.0, False),
        ]
        path = tmp_path / "decisions.csv"
        write_decision_log(path, decisions)
        assert read_decision_log(path) == decisions

    def test_unlabeled_decision_reads_back(self, tmp_path):
        decisions = [DecisionRecord(3, "g-1", 2, "fisher", 0.5, 0.01, False, 0.25, None)]
        path = tmp_path / "decisions.csv"
        write_decision_log(path, decisions)
        assert read_decision_log(path) == decisions

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("1,s,0,fisher,0.5,0.01,2,0.0,0", "rejected must be 0 or 1"),
            ("1,s,0,fisher,0.5,0.01,-1,0.0,0", "rejected must be 0 or 1"),
            ("1,s,0,fisher,0.5,0.01,,0.0,0", "rejected must be 0 or 1"),
            ("1,s,0,fisher,0.5,0.01,0,0.0,2", "faulty must be 0 or 1"),
            ("1,s,0,fisher,0.5,0.01,0,0.0,-1", "faulty must be 0 or 1"),
            ("1,s,0,fisher,0.5,-inf,0,0.0,0", "alpha must be finite"),
            ("1,s,0,fisher,nan,0.01,0,0.0,0", "statistic must be finite"),
            ("1,s,0,fisher,0.5,NaN,0,0.0,0", "alpha must be finite"),
            ("1,s,0,fisher,0.5,0.01,0,nan,0", "auxiliary must be finite"),
            ("1,s,0,fisher,0.5,0.01,0,0.0", "expected 9 columns"),
            ("1,s,0,fisher,0.5,0.01,0,0.0,0,0", "expected 9 columns"),
            ("1,s,0,bogus,0.5,0.01,0,0.0,0", "'bogus' is not a valid GateKind"),
            ("-4,s,0,fisher,0.5,0.01,0,0.0,0", "k must be a count"),
            ("0,s,0,fisher,0.5,0.01,0,0.0,0", "k must be a count"),
            ("1,s,-7,fisher,0.5,0.01,0,0.0,0", "link must be a count"),
        ],
    )
    def test_bad_value_reports_line(self, tmp_path, row, problem):
        path = tmp_path / "bad.csv"
        path.write_text(
            "k,sensor_id,link,test_kind,statistic,alpha,rejected,auxiliary,faulty\n"
            "1,r,0,fisher,0.5,0.01,1,0.0,1\n"
            f"{row}\n"
        )
        with pytest.raises(DataError, match=rf"bad\.csv:3: .*{problem}"):
            read_decision_log(path)
