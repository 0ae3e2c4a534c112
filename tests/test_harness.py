"""Tests for experiment orchestration, metrics, and the traffic filter loop."""
from __future__ import annotations

import dataclasses
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedpf.ctm import DemandProfile, DemandSchedule, advance, equilibrium_state, simulate, speed_map
from gatedpf.errors import ConfigurationError, DataError, WeightCollapseError
from gatedpf.fileio import csv_text
from gatedpf.gates import (
    GateKind,
    gated_update,
    likelihood_ratio_test,
    significance_test,
    unexplained,
)
from gatedpf import harness
from gatedpf.harness import (
    DECISION_COLUMNS,
    STREAM_FILTER_DEMAND,
    STREAM_FILTER_RESAMPLE,
    STREAM_TRUTH,
    DECISION_DTYPE,
    ConfusionCounts,
    ExperimentConfig,
    FilterVariant,
    MetricsReport,
    RunMetrics,
    TrajectoryPair,
    compile_log,
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
    GNSS_SPEED,
    FaultConfig,
    GnssSpec,
    LoopDetectorSpec,
    fault_log_density,
    standardize,
)

from conftest import small_network
from reference_log import Record, log_of, records_of


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
        with pytest.raises(ConfigurationError, match="seeds: seed 5 is repeated"):
            micro_config(seeds=(5, 6, 5))
        with pytest.raises(ConfigurationError, match=r"seeds: seed -1 is outside \[0, 2\*\*64\)"):
            micro_config(seeds=(-1,))


def decision_array(rows) -> np.ndarray:
    """A decision array of ``(k, sensor_id, link, test_kind, statistic,
    alpha, rejected, auxiliary, faulty)`` tuples."""
    return np.array(list(rows), dtype=DECISION_DTYPE)


class TestConfusionMetrics:
    def _decisions(self, outcomes):
        return decision_array(
            (1, "s", 0, "fisher", 0.5, 0.05, rejected, 0.0, faulty) for rejected, faulty in outcomes
        )

    def test_all_accepted_clean(self):
        counts = confusion_metrics(self._decisions([(False, False)] * 7))
        assert counts.tn == 7 and counts.total == 7
        assert counts.labeling_error_pct == 0.0

    def test_hand_mixed_counts(self):
        decisions = self._decisions([(True, True), (True, False), (False, True), (False, False)])
        counts = confusion_metrics(decisions)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1)
        assert counts.labeling_error_pct == pytest.approx(50.0)

    def test_all_rejected_all_faulty(self):
        counts = confusion_metrics(self._decisions([(True, True)] * 5))
        assert counts.tp == 5
        assert counts.labeling_error_pct == 0.0

    def test_no_decisions(self):
        counts = confusion_metrics(np.empty(0, DECISION_DTYPE))
        assert counts.total == 0 and counts.labeling_error_pct == 0.0

    def test_count_identity(self):
        rng = np.random.default_rng(0)
        decisions = self._decisions(
            (bool(rng.integers(2)), bool(rng.integers(2))) for _ in range(100)
        )
        counts = confusion_metrics(decisions)
        assert counts.total == 100

    def test_matches_a_per_row_count(self):
        rng = np.random.default_rng(1)
        outcomes = [(bool(r), bool(f)) for r, f in rng.integers(2, size=(257, 2))]
        expected = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        for rejected, faulty in outcomes:
            expected[("t" if rejected == faulty else "f") + ("p" if rejected else "n")] += 1
        assert dataclasses.asdict(confusion_metrics(self._decisions(outcomes))) == expected


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
        # match bit for bit.  The reference builds every row from its own
        # report, not from the compiled log.  The log is handed over in
        # reverse step order, which the filter must undo, and step 3 holds
        # several reports on one link.
        config = micro_config(horizon=12, variants=(variant,))
        seed = config.seeds[0]
        base = RandomSource(seed)
        init = equilibrium_state(config.network, config.schedule)
        truth = simulate(config.network, config.schedule, config.horizon, base.derive(STREAM_TRUTH), init)
        measurements = records_of(
            generate_measurements(
                truth, config.network, config.loop_specs, config.gnss_spec, config.fault_config, base
            )
        )
        measurements += [
            Record(3, f"extra-{i}", GNSS_SPEED, link, value, faulty)
            for i, (link, value, faulty) in enumerate(
                [(2, 14.0, False), (0, 0.0, True), (2, 16.5, False), (0, 35.0, True), (2, 15.0, False)]
            )
        ]
        shuffled = sorted(measurements, key=lambda m: -m.k)
        result = run_traffic_filter(config, log_of(shuffled), variant, RandomSource(seed))

        # Manual composition.
        ens = ParticleEnsemble.from_states(np.tile(init[:, None], (1, config.particles)))

        def transition(states, rng):
            upstream, ramps = config.schedule.sample(k - 1, rng, states.shape[1], demand)
            return advance(states, config.network, upstream, ramps)

        demand = config.schedule.table(range(config.horizon))
        rng_demand = RandomSource(seed).derive(STREAM_FILTER_DEMAND)
        rng_resample = RandomSource(seed).derive(STREAM_FILTER_RESAMPLE)
        loops = {spec.link: spec for spec in config.loop_specs}
        gnss = config.gnss_spec
        by_step = {}
        for m in measurements:
            by_step.setdefault(m.k, []).append(m)
        assert sum(m.kind == GNSS_SPEED and m.link == 2 for m in by_step[3]) >= 3

        estimates, decisions = [], []
        for k in range(1, config.horizon):
            prior = predict(ens, transition, rng_demand)
            ms = by_step.get(k, [])
            if ms:
                t = k * config.schedule.dt
                ramp_means = np.array([p.mean(t) for p in config.schedule.onramps])
                mean_rows, std_rows = [], []
                for m in ms:
                    if m.kind == GNSS_SPEED:
                        row = speed_map(prior.particles, config.network, [m.link], ramp_means)[0]
                        frac, offset, floor = gnss.noise_frac, 0.0, gnss.min_std
                    else:
                        row = prior.particles[m.link]
                        frac, offset, floor = loops[m.link].std_rule
                    mean_rows.append(row)
                    std_rows.append(np.maximum(frac * row + offset, floor))
                values = np.array([m.value for m in ms])
                z, log_g0 = standardize(values, np.array(mean_rows), np.array(std_rows))
                rejected = np.zeros(len(ms), dtype=bool)
                tested = np.flatnonzero([m.kind == GNSS_SPEED for m in ms])
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
                            (
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
        assert result.decisions.dtype == DECISION_DTYPE
        assert result.decisions.tolist() == decisions
        assert (len(decisions) > 0) == (variant.mode != "none")

    def test_horizon_one_runs_empty(self):
        config = micro_config(horizon=1)
        result = run_traffic_filter(config, log_of([]), FilterVariant("none"), RandomSource(1))
        assert result.estimates.shape == (0, 3)
        assert result.decisions.dtype == DECISION_DTYPE and result.decisions.shape == (0,)

    def test_measurement_outside_window_rejected(self):
        config = micro_config(horizon=5)
        bad = log_of([Record(k=5, sensor_id="x", kind="gnss_speed", link=0, value=1.0, faulty=False)])
        with pytest.raises(DataError, match=r"^measurement 'x' at step 5 outside assimilation window \[1, 4\]$"):
            run_traffic_filter(config, bad, FilterVariant("none"), RandomSource(1))

    @pytest.mark.parametrize("link", [-1, 3])
    def test_measurement_outside_network_rejected(self, link):
        # The one scenario check names a file's row by its line, and a row
        # of a log built in memory by its sensor id and step.
        config = micro_config(horizon=5)
        bad = log_of([Record(k=2, sensor_id="x", kind="gnss_speed", link=link, value=1.0, faulty=False)])
        with pytest.raises(DataError, match=f"names link {link}, outside the network's links"):
            run_traffic_filter(config, bad, FilterVariant("none"), RandomSource(1))

    @pytest.mark.parametrize("variant", [FilterVariant("none"), FilterVariant("fisher", 0.01)])
    def test_collapse_names_the_step_and_assimilated_sensors(self, variant):
        # A loop reading no particle explains collapses step 2.  The speed
        # report 1e300 is rejected by the gate, so only the ungated filter
        # assimilates it.
        config = micro_config(horizon=5)
        ms = log_of(
            [
                Record(k=1, sensor_id="loop-0", kind="loop_density", link=0, value=0.006, faulty=False),
                Record(k=2, sensor_id="loop-2", kind="loop_density", link=2, value=1e200, faulty=False),
                Record(k=2, sensor_id="g", kind="gnss_speed", link=1, value=1e300, faulty=True),
            ]
        )
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


class TestCompileLog:
    def _log(self):
        config = micro_config(horizon=6)  # loops on links 0 and 2
        speed = lambda k, link, value, i: Record(k, f"g-{k}-{i}", GNSS_SPEED, link, value, False)
        loop = lambda k, link, value: Record(k, f"loop-{link}", "loop_density", link, value, False)
        ms = [
            speed(4, 2, 11.0, 0), loop(2, 0, 0.04), speed(2, 1, 0.0, 0), speed(4, 0, 13.0, 1),
            loop(2, 2, 0.05), speed(2, 1, 30.0, 1), speed(4, 2, 12.0, 2), speed(2, 0, 9.0, 2),
        ]
        return config, ms, compile_log(config, log_of(ms))

    def test_columns_in_step_order(self):
        config, ms, log = self._log()
        ordered = [ms[1], ms[2], ms[4], ms[5], ms[7], ms[0], ms[3], ms[6]]
        assert log.steps.tolist() == [m.k for m in ordered]
        assert log.sensor_ids.tolist() == [m.sensor_id for m in ordered]
        assert log.links.tolist() == [m.link for m in ordered]
        assert log.values.tolist() == [m.value for m in ordered]
        assert log.faulty.tolist() == [m.faulty for m in ordered]
        # Steps 1, 3 and 5 have no rows; step 2 has 5, step 4 has 3.
        assert log.offsets[:, 0].tolist() == [0, 0, 0, 5, 5, 8, 8]
        rows, speeds, pairs = log.step(2)
        assert (rows, speeds, pairs) == (slice(0, 5), slice(0, 3), slice(0, 2))
        assert log.step(3) == (slice(5, 5), slice(3, 3), slice(2, 2))
        # Step 2's speed rows sit at 1, 3, 4 on links 1, 1, 0: two
        # distinct links, in link order.
        assert log.speed_index.tolist() == [1, 3, 4, 5, 6, 7]
        assert log.pair_links.tolist() == [0, 1, 0, 2]
        assert log.speed_pairs.tolist() == [1, 1, 0, 1, 0, 1]
        gnss, loops = config.gnss_spec, config.loops
        speed_rule = [gnss.noise_frac, 0.0, gnss.min_std]
        expected = [
            speed_rule if m.kind == GNSS_SPEED else list(loops[m.link].std_rule) for m in ordered
        ]
        assert log.std_rules.T.tolist() == expected

    def test_fault_densities_of_the_speed_rows(self):
        config, _, log = self._log()
        values = np.array([0.0, 30.0, 9.0, 11.0, 13.0, 12.0])
        assert set(log.fault_log_g1) == {"np_correct", "np_incorrect"}
        for mode, log_g1 in log.fault_log_g1.items():
            expected = fault_log_density(values, mode, config.fault_config, config.h1_zero_std)
            assert log_g1.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", ["none", "fisher", "np_correct", "np_incorrect"])
    def test_compiled_log_runs_as_the_plain_log(self, mode):
        variant = FilterVariant(mode, None if mode == "none" else 0.05)
        config = micro_config(horizon=10)
        _, ms = simulate_seed(config, 9)
        plain = run_traffic_filter(config, ms, variant, RandomSource(9))
        compiled = run_traffic_filter(config, compile_log(config, ms), variant, RandomSource(9))
        assert plain.estimates.tobytes() == compiled.estimates.tobytes()
        assert plain.decisions.tolist() == compiled.decisions.tolist()

    @pytest.mark.parametrize("mode", ["none", "fisher", "np_correct", "np_incorrect"])
    def test_decisions_are_the_speed_rows_in_step_order(self, mode):
        # A completed gated run decides every speed report once, in the
        # compiled log's order: by step, a step's reports in log order.
        variant = FilterVariant(mode, None if mode == "none" else 0.05)
        config = micro_config(horizon=10)
        _, ms = simulate_seed(config, 9)
        ms = sorted(records_of(ms), key=lambda m: -m.k)
        log = compile_log(config, log_of(ms))
        decisions = run_traffic_filter(config, log, variant, RandomSource(9)).decisions
        assert decisions.dtype == DECISION_DTYPE
        if mode == "none":
            assert decisions.shape == (0,)
            return
        speed = log.speed_index
        assert speed.size > 0
        for name, column in (
            ("k", log.steps),
            ("sensor_id", log.sensor_ids),
            ("link", log.links),
            ("faulty", log.faulty),
        ):
            assert decisions[name].tolist() == column[speed].tolist()
        in_step_order = [
            (m.k, m.sensor_id, m.link, m.faulty)
            for m in sorted(ms, key=lambda m: m.k)
            if m.kind == GNSS_SPEED
        ]
        assert decisions[["k", "sensor_id", "link", "faulty"]].tolist() == in_step_order
        kind = "fisher" if mode == "fisher" else "neyman_pearson"
        assert set(decisions["test_kind"].tolist()) == {kind}
        assert set(decisions["alpha"].tolist()) == {0.05}

    def test_bad_measurement_names_itself(self):
        config, ms, _ = self._log()
        bad = log_of(ms + [Record(6, "late", GNSS_SPEED, 0, 1.0, False)])
        with pytest.raises(DataError, match="^measurement 'late' at step 6 outside assimilation window"):
            compile_log(config, bad)

    def test_empty_log(self):
        config = micro_config(horizon=4)
        log = compile_log(config, log_of([]))
        assert log.offsets.tolist() == [[0, 0, 0]] * 5
        assert log.values.shape == log.speed_index.shape == (0,)


class TestRunExperiment:
    def test_count_identity_per_run(self):
        config = micro_config(
            horizon=15,
            variants=(FilterVariant("fisher", 0.01), FilterVariant("np_correct", 0.01)),
        )
        report = run_experiment(config)
        _, ms = simulate_seed(config, config.seeds[0])
        n_gnss = np.count_nonzero(ms.speed)
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

    def test_each_measurement_checked_once_per_seed(self, monkeypatch):
        # The seed's log is checked (one vectorized check) and compiled
        # once, not once per variant, and every variant's run still reads
        # it; on_run gets the seed's own measurement log.
        config = micro_config(
            horizon=8,
            seeds=(5, 6),
            variants=(
                FilterVariant("none"),
                FilterVariant("fisher", 0.01),
                FilterVariant("np_correct", 0.01),
                FilterVariant("np_incorrect", 0.01),
            ),
        )
        logs = {seed: simulate_seed(config, seed)[1] for seed in config.seeds}
        calls = []
        check = harness._check_log
        monkeypatch.setattr(harness, "_check_log", lambda c, log: (calls.append(log), check(c, log)))
        received = []
        report = run_experiment(config, on_run=lambda seed, t, log, v, r: received.append((seed, log)))
        assert [len(log) for log in calls] == [len(logs[5]), len(logs[6])]
        assert len(report.runs) == 8 and not any(r.collapsed for r in report.runs)
        assert [seed for seed, _ in received] == [5] * 4 + [6] * 4
        assert all(log is calls[seed - 5] for seed, log in received)
        assert all(records_of(log) == records_of(logs[seed]) for seed, log in received)

    def test_fault_free_log_identical_to_clean_stream(self):
        # Setting the fault probability to zero must reproduce the clean
        # measurement values bit for bit (faults draw from their own stream).
        config = micro_config(horizon=10, fault_probability=0.0)
        faulted = micro_config(horizon=10, fault_probability=0.4)
        _, clean = simulate_seed(config, 7)
        _, dirty = simulate_seed(faulted, 7)
        assert len(clean) == len(dirty)
        assert clean.sensor_ids.tolist() == dirty.sensor_ids.tolist()
        assert dirty.faulty.any() and not clean.faulty.any()
        assert clean.values[~dirty.faulty].tobytes() == dirty.values[~dirty.faulty].tobytes()


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


def reference_decision_text(rows) -> str:
    """The decision log of ``rows`` (tuples in column order), formatted one
    row at a time: floats as their ``repr``, flags as 0 or 1."""
    return csv_text(
        DECISION_COLUMNS,
        [
            (k, sensor_id, link, kind, repr(stat), repr(alpha), int(rej), repr(aux), int(faulty))
            for k, sensor_id, link, kind, stat, alpha, rej, aux, faulty in rows
        ],
    )


# Every float a gate can write, including the edges: both infinities, -0.0,
# subnormals and the largest floats.
gate_floats = st.one_of(
    st.sampled_from([np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-320, 1e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False),
)
decision_rows = st.lists(
    st.tuples(
        st.integers(1, 2**63 - 1),
        st.text(alphabet=string.printable, max_size=8),
        st.integers(0, 2**63 - 1),
        st.sampled_from([kind.value for kind in GateKind]),
        gate_floats,
        st.floats(allow_nan=False, allow_infinity=False),
        st.booleans(),
        gate_floats,
        st.booleans(),
    ),
    max_size=12,
)


class TestDecisionLog:
    def test_round_trip(self, tmp_path):
        rows = [
            (3, "g-1", 2, "neyman_pearson", 0.0123456789, 0.01, True, 17.0, True),
            (4, "g-2", 0, "fisher", 0.5, 0.001, False, -1.25, False),
        ]
        path = tmp_path / "decisions.csv"
        write_decision_log(path, decision_array(rows))
        back = read_decision_log(path)
        assert back.dtype == DECISION_DTYPE
        assert back.tolist() == rows

    def test_empty_log_reads_back_empty(self, tmp_path):
        path = tmp_path / "decisions.csv"
        write_decision_log(path, np.empty(0, DECISION_DTYPE))
        assert path.read_bytes() == b"k,sensor_id,link,test_kind,statistic,alpha,rejected,auxiliary,faulty\r\n"
        back = read_decision_log(path)
        assert back.dtype == DECISION_DTYPE and back.shape == (0,)

    @settings(max_examples=150, deadline=None)
    @given(rows=decision_rows)
    def test_writer_bytes_match_the_per_row_reference(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "decisions.csv", Path(tmp) / "again.csv"
            write_decision_log(path, decision_array(rows))
            text = path.read_bytes()
            assert text == reference_decision_text(rows).encode()
            write_decision_log(again, read_decision_log(path))
            assert again.read_bytes() == text

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
        rows = [
            (1, "g-0", 0, "fisher", 0.0, 0.05, True, np.inf, True),
            (2, "g-1", 1, "fisher", 0.0, 0.05, True, -np.inf, False),
            (3, "g-2", 2, "neyman_pearson", np.inf, 0.05, False, 4.0, False),
        ]
        path = tmp_path / "decisions.csv"
        write_decision_log(path, decision_array(rows))
        assert read_decision_log(path).tolist() == rows

    def test_unlabeled_decision_is_refused(self, tmp_path):
        # Every measurement carries a 0/1 label, so no writer leaves
        # ``faulty`` empty.
        path = tmp_path / "decisions.csv"
        path.write_text(
            "k,sensor_id,link,test_kind,statistic,alpha,rejected,auxiliary,faulty\n"
            "3,g-0,2,fisher,0.5,0.01,0,0.25,0\n"
            "3,g-1,2,fisher,0.5,0.01,0,0.25,\n"
        )
        with pytest.raises(DataError, match=r"decisions\.csv:3: faulty must be 0 or 1, got ''"):
            read_decision_log(path)

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
