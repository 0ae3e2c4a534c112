"""Tests for experiment orchestration, metrics, and the traffic filter loop."""
from __future__ import annotations

import csv
import dataclasses
import logging
import re
import string
import tempfile
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedpf.ctm import DemandProfile, DemandSchedule, equilibrium_state, link_plan, simulate
from gatedpf.errors import ConfigurationError, DataError, WeightCollapseError
from gatedpf.fileio import csv_text, read_records
from gatedpf.gates import MODES, GateKind, level_rule, likelihood_ratio_test, significance_test, unexplained
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
    filter_step,
    generate_measurements,
    mape,
    metrics_wide_text,
    read_decision_log,
    read_metrics_long,
    run_experiment,
    run_traffic_filter,
    simulate_seed,
    step_buffers,
    write_decision_log,
    write_metrics_long,
)
from gatedpf.particles import (
    ParticleEnsemble,
    effective_sample_size,
    predict,
    resample_systematic,
)
from gatedpf.rng import RandomSource
from gatedpf.scenario import default_scenario_dict, scenario_from_dict
from gatedpf.sensing import (
    GNSS_SPEED,
    MEASUREMENT_FORMAT,
    MEASUREMENT_KINDS,
    CompiledLog,
    FaultConfig,
    GnssSpec,
    LoopDetectors,
    fault_log_density,
    measurement_rows,
    read_measurement_log,
    write_measurement_log,
)

from conftest import (
    check_plan_columns,
    dirty_advance,
    dirty_buffers,
    dirty_posterior_mean,
    dirty_speed_map,
    dirty_weight_update,
    null_rows,
    shares_buffers,
    small_network,
)
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
        loops=LoopDetectors(links=(0, 2)),
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
        # A mode outside the table is refused, with or without a level,
        # naming the table's modes.
        unknown = re.escape(f"unknown filter mode 'bogus'; expected one of {tuple(MODES)}")
        with pytest.raises(ConfigurationError, match=f"^{unknown}$"):
            FilterVariant("bogus", 0.05)
        with pytest.raises(ConfigurationError, match=f"^{unknown}$"):
            FilterVariant("bogus")
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
                truth, config.network, config.loops, config.gnss_spec, config.fault_config, base
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
        demand = config.schedule.table(range(config.horizon))
        rng_demand = RandomSource(seed).derive(STREAM_FILTER_DEMAND)
        rng_resample = RandomSource(seed).derive(STREAM_FILTER_RESAMPLE)
        gnss = config.gnss_spec
        by_step = {}
        for m in measurements:
            by_step.setdefault(m.k, []).append(m)
        assert sum(m.kind == GNSS_SPEED and m.link == 2 for m in by_step[3]) >= 3

        estimates, decisions = [], []
        for k in range(1, config.horizon):
            upstream, ramps = config.schedule.sample(k - 1, rng_demand, config.particles, demand)
            prior = predict(ens, dirty_advance(ens.particles, config.network, upstream, ramps))
            ms = by_step.get(k, [])
            if ms:
                t = k * config.schedule.dt
                ramp_means = np.array([p.mean(t) for p in config.schedule.onramps])
                mean_rows, std_rows = [], []
                for m in ms:
                    if m.kind == GNSS_SPEED:
                        plan = link_plan(config.network, [m.link])
                        row = dirty_speed_map(prior.particles, config.network, plan, ramp_means)[0]
                        frac, floor = gnss.noise_frac, gnss.min_std
                    else:
                        row = prior.particles[m.link]
                        frac, floor = config.loops.std_rule
                    mean_rows.append(row)
                    std_rows.append(np.maximum(frac * row, floor))
                values = np.array([m.value for m in ms])
                z, log_g0 = null_rows(values, np.array(mean_rows), np.array(std_rows))
                rejected = np.zeros(len(ms), dtype=bool)
                tested = np.flatnonzero([m.kind == GNSS_SPEED for m in ms])
                if variant.mode != "none" and tested.size:
                    if variant.mode == "fisher":
                        statistic, auxiliary = significance_test(prior.weights, z[tested])
                    else:
                        log_g1 = fault_log_density(
                            values[tested], variant.mode, config.fault_config, config.h1_zero_std
                        )
                        statistic, auxiliary = likelihood_ratio_test(
                            prior.weights, log_g0[tested], log_g1[:, None]
                        )
                    gate_rejected = level_rule(
                        variant.kind, statistic, auxiliary, variant.alpha
                    ) | unexplained(prior.weights, log_g0[tested])
                    rejected[tested] = gate_rejected
                    for i, stat, rej, aux in zip(tested, statistic, gate_rejected, auxiliary):
                        m = ms[i]
                        decisions.append(
                            (
                                m.k, m.sensor_id, m.link, variant.kind.value,
                                float(stat), variant.alpha, bool(rej), float(aux), m.faulty,
                            )
                        )
                post = prior if rejected.all() else dirty_weight_update(prior, log_g0[~rejected])[0]
            else:
                post = prior
            estimates.append(dirty_posterior_mean(post))
            if effective_sample_size(post) < config.resample_threshold * config.particles:
                post = resample_systematic(post, rng_resample)
            ens = post
        assert result.estimates.tobytes() == np.array(estimates).tobytes()
        assert result.decisions.dtype == DECISION_DTYPE
        assert result.decisions.tolist() == decisions
        assert (len(decisions) > 0) == (variant.mode != "none")

    @pytest.mark.parametrize("mode", list(MODES))
    def test_stepping_by_hand_reproduces_the_run(self, mode):
        # filter_step taken by hand from the run's start on the run's two
        # streams and on the run's buffers gives its estimates and every
        # decision column bit for bit; what a step returns never holds the
        # buffers.
        # Step 5 has no rows and step 6 loop readings only: neither gates.
        variant = FilterVariant(mode, None if mode == "none" else 0.05)
        config = micro_config(horizon=12, variants=(variant,))
        records = records_of(simulate_seed(config, 5)[1])
        records = [m for m in records if m.k != 5 and (m.k != 6 or m.kind != GNSS_SPEED)]
        log = compile_log(config, log_of(records))
        rows_5, (rows_6, speeds_6) = log.step(5)[0], log.step(6)
        assert rows_5.start == rows_5.stop
        assert rows_6.start < rows_6.stop and speeds_6.start == speeds_6.stop
        result = run_traffic_filter(config, log, variant, RandomSource(5))

        base = RandomSource(5)
        rng_demand, rng_resample = base.derive(STREAM_FILTER_DEMAND), base.derive(STREAM_FILTER_RESAMPLE)
        ensemble = ParticleEnsemble.from_states(
            np.repeat(config.initial_state[:, None], config.particles, axis=1)
        )
        estimates, gates = [], []
        work = step_buffers(config, log)
        for k in range(1, config.horizon):
            ensemble, estimate, gate = filter_step(
                config, log, variant, ensemble, k, log.step(k), rng_demand, rng_resample, work
            )
            returned = (ensemble.particles, ensemble.weights, estimate, *(gate or ()))
            assert not any(shares_buffers(array, work) for array in returned)
            estimates.append(estimate)
            speeds = log.step(k)[1]
            if mode == "none" or speeds.start == speeds.stop:
                assert gate is None
            else:
                assert [len(column) for column in gate] == [speeds.stop - speeds.start] * 3
                gates.append(gate)
        assert bool(gates) == (mode != "none")
        assert result.estimates.tobytes() == np.array(estimates).tobytes()

        expected = np.empty(0, DECISION_DTYPE)
        if mode != "none":
            expected = log.decisions.copy()
            expected["statistic"], expected["auxiliary"], expected["rejected"] = (
                np.concatenate(column) for column in zip(*gates)
            )
            expected["test_kind"], expected["alpha"] = variant.kind.value, variant.alpha
        assert len(expected) == len(result.decisions)
        for name in DECISION_COLUMNS:
            got, want = result.decisions[name], expected[name]
            if got.dtype == object:
                assert got.tolist() == want.tolist()
            else:
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", ["fisher", "np_correct"])
    def test_a_run_looks_up_each_step_once(self, mode, monkeypatch):
        # The run looks up step k's slices once and hands them to the step,
        # the rows and the decision columns alike.
        variant = FilterVariant(mode, 0.05)
        config = micro_config(horizon=12, variants=(variant,))
        log = compile_log(config, simulate_seed(config, 5)[1])
        assert len(log.speed_index) > 0
        looked_up = []
        step = CompiledLog.step
        monkeypatch.setattr(CompiledLog, "step", lambda self, k: looked_up.append(k) or step(self, k))
        run_traffic_filter(config, log, variant, RandomSource(5))
        assert looked_up == list(range(1, config.horizon))

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


GATED = (FilterVariant("fisher", 0.05), FilterVariant("np_correct", 0.05), FilterVariant("np_incorrect", 0.05))


class TestStepAllocations:
    def test_a_wide_ungated_step_allocates_little_beyond_its_blocks(self):
        # On the run's buffers, a step at P = 1600 allocates its successor
        # block and, when it resamples, the resampled block; everything
        # else it allocates is small.  Its traced peak, above the level it
        # started at, stays within 2.5 (L, P) blocks (about 3.8 when every
        # temporary of the CTM and the rows was allocated anew).
        doc = default_scenario_dict()
        doc["filter"]["particles"], doc["run"]["horizon"] = 1600, 60
        config = scenario_from_dict(doc).experiment_config(seeds=[301])
        log = compile_log(config, simulate_seed(config, 301)[1])
        base = RandomSource(301)
        rng_demand, rng_resample = base.derive(STREAM_FILTER_DEMAND), base.derive(STREAM_FILTER_RESAMPLE)
        ensemble = ParticleEnsemble.from_states(
            np.repeat(config.initial_state[:, None], config.particles, axis=1)
        )
        work = step_buffers(config, log)
        block = 8 * config.network.n_links * config.particles
        variant = FilterVariant("none")
        peaks, resampled = [], 0
        tracemalloc.start()
        try:
            for k in range(1, config.horizon):
                step = log.step(k)
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                ensemble, _, _ = filter_step(
                    config, log, variant, ensemble, k, step, rng_demand, rng_resample, work
                )
                if k > 10:  # after the warm-up steps
                    peaks.append((tracemalloc.get_traced_memory()[1] - start) / block)
                    resampled += bool(np.all(ensemble.weights == 1.0 / config.particles))
        finally:
            tracemalloc.stop()
        assert resampled > 0
        assert max(peaks) <= 2.5, peaks


class TestGatedStep:
    """A step assimilates the rows its gate accepts through
    ``weight_update``, and keeps its prior when it has no row to
    assimilate."""

    @staticmethod
    def _log(config, far=True):
        # The seed's log, where step 5 has no rows and, with ``far``, step 3
        # only speed reports too far off for any particle to explain and
        # step 4 one such report among its own.
        records = [m for m in records_of(simulate_seed(config, 5)[1]) if m.k != 5]
        if far:
            records = [m for m in records if m.k != 3 or m.kind == GNSS_SPEED]
            records = [dataclasses.replace(m, value=1e300) if m.k == 3 else m for m in records]
            records += [Record(k, f"far-{k}", GNSS_SPEED, 1, 1e300, True) for k in (3, 4)]
        return log_of(records)

    @staticmethod
    def _steps(variant, far=True):
        """Each step of one filter run, taken with :func:`filter_step`: its
        prior (predicted again on a twin of the run's demand stream), rows
        (null log densities, positions of the tested rows, the gate's
        outcome on them), gate and posterior.  The run never resamples, so
        the ensemble a step returns is its posterior."""
        config = dataclasses.replace(
            micro_config(horizon=8, variants=(variant,)), resample_threshold=1e-9
        )
        log = compile_log(config, TestGatedStep._log(config, far))
        base = RandomSource(5)
        rng_demand, twin = base.derive(STREAM_FILTER_DEMAND), base.derive(STREAM_FILTER_DEMAND)
        rng_resample = base.derive(STREAM_FILTER_RESAMPLE)
        ensemble = ParticleEnsemble.from_states(
            np.repeat(config.initial_state[:, None], config.particles, axis=1)
        )
        steps, work = [], step_buffers(config, log)
        for k in range(1, config.horizon):
            upstream, ramps = config.schedule.sample(k - 1, twin, config.particles, config.demand_table)
            prior = predict(ensemble, dirty_advance(ensemble.particles, config.network, upstream, ramps))
            ensemble, _, gate = filter_step(
                config, log, variant, ensemble, k, log.step(k), rng_demand, rng_resample, work
            )
            step = SimpleNamespace(prior=prior, gate=gate, posterior=ensemble, tested=None, log_g0=None)
            # The step's rows the gate rejected; loop rows are never tested.
            step.rejected = None
            rows, speeds = log.step(k)
            if rows.start < rows.stop:
                own = dirty_buffers(
                    config.particles, max_rows=rows.stop - rows.start, max_links=speeds.stop - speeds.start
                )
                _, step.log_g0, step.tested = measurement_rows(
                    log, log.step(k), prior.particles, config.demand_table[k, 0, 1:], own
                )
                step.rejected = np.zeros(len(step.log_g0), dtype=bool)
                if gate is not None:
                    step.rejected[step.tested] = gate[2]
            steps.append(step)
        return steps

    @staticmethod
    def _assert_same(ensemble, expected):
        assert ensemble.particles.tobytes() == expected.particles.tobytes()
        assert ensemble.weights.tobytes() == expected.weights.tobytes()

    def test_step_without_rows_keeps_the_prior(self):
        for variant in (FilterVariant("none"),) + GATED:
            step = self._steps(variant, far=False)[4]
            assert step.log_g0 is None and step.gate is None
            self._assert_same(step.posterior, step.prior)

    def test_every_row_rejected_keeps_the_prior(self):
        for variant in GATED:
            step = self._steps(variant)[2]
            assert len(step.tested) == len(step.log_g0) and step.rejected.all()
            self._assert_same(step.posterior, step.prior)

    def test_some_rows_rejected_update_over_the_accepted_rows(self):
        for variant in GATED:
            steps = self._steps(variant)
            assert steps[3].rejected.any() and not steps[3].rejected.all()
            for step in steps:
                if step.log_g0 is not None and step.rejected.any() and not step.rejected.all():
                    expected, _ = dirty_weight_update(step.prior, step.log_g0[~step.rejected])
                    self._assert_same(step.posterior, expected)

    def test_no_row_rejected_updates_over_every_row(self):
        for variant in (FilterVariant("none"),) + GATED:
            steps = [
                step for step in self._steps(variant, far=False)
                if step.log_g0 is not None and not step.rejected.any()
            ]
            assert steps
            for step in steps:
                self._assert_same(step.posterior, dirty_weight_update(step.prior, step.log_g0)[0])

    def test_loop_rows_are_never_gated(self):
        # Step 4's loop readings enter the update beside its accepted speed
        # reports: leaving them out gives another posterior.
        for variant in GATED:
            step = self._steps(variant)[3]
            loops = np.ones(len(step.log_g0), dtype=bool)
            loops[step.tested] = False
            assert loops.any()
            self._assert_same(step.posterior, dirty_weight_update(step.prior, step.log_g0[~step.rejected])[0])
            speeds_only, _ = dirty_weight_update(step.prior, step.log_g0[~step.rejected & ~loops])
            assert step.posterior.weights.tobytes() != speeds_only.weights.tobytes()


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
        assert log.sensor_ids.tolist() == [m.sensor_id for m in ordered]
        assert log.links.tolist() == [m.link for m in ordered]
        assert log.values.tolist() == [m.value for m in ordered]
        # Steps 1, 3 and 5 have no rows; step 2 has 5 rows, 3 of them speed
        # reports, and step 4 has 3, all speed reports.
        assert log.offsets.tolist() == [[0, 0], [0, 0], [0, 0], [5, 3], [5, 3], [8, 6], [8, 6]]
        assert log.step(2) == (slice(0, 5), slice(0, 3))
        assert log.step(3) == (slice(5, 5), slice(3, 3))
        # Step 2's speed rows sit at 1, 3, 4 on links 1, 1, 0: one plan
        # position per report, the repeated link included.
        assert log.speed_index.tolist() == [1, 3, 4, 5, 6, 7]
        assert log.speed_plan.links.tolist() == [1, 1, 0, 2, 0, 2]
        gnss, loops = config.gnss_spec, config.loops
        speed_rule = [gnss.noise_frac, gnss.min_std]
        expected = [
            speed_rule if m.kind == GNSS_SPEED else list(loops.std_rule) for m in ordered
        ]
        assert log.std_rules.T.tolist() == expected

    def test_speed_plan_holds_the_network_at_each_report_s_link(self):
        # On the default network, ramps on several links: each speed
        # report's link in step order, a link reported twice in one step
        # twice, with its own and its downstream link's parameters.
        doc = default_scenario_dict()
        doc["run"]["horizon"] = 200
        config = scenario_from_dict(doc).experiment_config(seeds=[5])
        ms = simulate_seed(config, 5)[1]
        reports = [
            (k, link) for k in range(config.horizon) for link in ms.links[ms.speed & (ms.steps == k)].tolist()
        ]
        links = [link for _, link in reports]
        assert len(set(reports)) < len(reports) and config.network.n_links - 1 in links
        check_plan_columns(compile_log(config, ms).speed_plan, config.network, links)

    def test_decision_records_are_the_speed_reports_in_step_order(self):
        # One record per speed report, in step order (a step's reports in
        # log order), with its step, sensor id, link and label; the table
        # is read-only, and a gated run leaves it as compiled.
        config, ms, log = self._log()
        ms[5], ms[7] = dataclasses.replace(ms[5], faulty=True), dataclasses.replace(ms[7], faulty=True)
        log = compile_log(config, log_of(ms))
        speed = [ms[2], ms[5], ms[7], ms[0], ms[3], ms[6]]
        assert log.decisions.dtype == DECISION_DTYPE
        assert log.decisions[["k", "sensor_id", "link", "faulty"]].tolist() == [
            (m.k, m.sensor_id, m.link, m.faulty) for m in speed
        ]
        assert not log.decisions.flags.writeable
        compiled = log.decisions[["k", "sensor_id", "link", "faulty"]].tolist()
        run_traffic_filter(config, log, FilterVariant("fisher", 0.05), RandomSource(9))
        assert log.decisions[["k", "sensor_id", "link", "faulty"]].tolist() == compiled

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
        assert len(log.decisions) > 0
        for name in ("k", "sensor_id", "link", "faulty"):
            assert decisions[name].tolist() == log.decisions[name].tolist()
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

    def test_log_compiled_for_another_config_is_refused(self):
        config = micro_config(horizon=6)
        log = compile_log(config, simulate_seed(config, 9)[1])
        assert (log.horizon, log.n_links) == (6, 3)
        for other in (
            dataclasses.replace(config, horizon=8),
            dataclasses.replace(config, horizon=4),
            dataclasses.replace(config, network=small_network(4)),
        ):
            with pytest.raises(ConfigurationError, match="^measurement log compiled for horizon 6 on 3 links"):
                run_traffic_filter(other, log, FilterVariant("np_correct", 0.01), RandomSource(9))

    def test_log_compiled_for_another_network_of_the_same_size_is_refused(self):
        # The compiled log's link plan holds its network's constants, so a
        # run on a network of the same size with another capacity would
        # mix the two networks' speeds: it is refused.  An equal network
        # built anew runs as the log's own.
        config = micro_config(horizon=6)
        log = compile_log(config, simulate_seed(config, 9)[1])
        assert log.network is config.network
        variant = FilterVariant("np_correct", 0.01)
        other = dataclasses.replace(config, network=small_network(3, qmax=4.0))
        with pytest.raises(
            ConfigurationError, match="^measurement log compiled for horizon 6 on 3 links, .* of another network$"
        ):
            run_traffic_filter(other, log, variant, RandomSource(9))
        rebuilt = dataclasses.replace(config, network=small_network(3, qmax_1=1.6, qmax=4.0))
        assert rebuilt.network is not config.network
        expected = run_traffic_filter(config, log, variant, RandomSource(9))
        got = run_traffic_filter(rebuilt, log, variant, RandomSource(9))
        assert got.estimates.tobytes() == expected.estimates.tobytes()

    def test_empty_log(self):
        config = micro_config(horizon=4)
        log = compile_log(config, log_of([]))
        assert log.offsets.tolist() == [[0, 0]] * 5
        assert log.values.shape == log.speed_index.shape == log.speed_plan.links.shape == (0,)
        assert log.decisions.dtype == DECISION_DTYPE and log.decisions.shape == (0,)


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


# Levels out of order, modes interleaved: on seeds 5 and 6, np_incorrect@0.01
# decides every row as np_incorrect@0.1 does and np_correct@0.5 as
# np_correct@0.1, while np_correct's other levels diverge from each other.
SHARING_VARIANTS = (
    FilterVariant("np_incorrect", 0.1),
    FilterVariant("none"),
    FilterVariant("np_correct", 0.001),
    FilterVariant("np_correct", 0.1),
    FilterVariant("np_incorrect", 0.01),
    FilterVariant("np_correct", 0.01),
    FilterVariant("fisher", 0.01),
    FilterVariant("np_correct", 0.5),
    FilterVariant("fisher", 0.1),
)
SHARED = {FilterVariant("np_incorrect", 0.01): "np_incorrect@0.1", FilterVariant("np_correct", 0.5): "np_correct@0.1"}


class TestSharedRuns:
    """A level that decides every recorded row as a finished run of its
    seed does takes that run's results instead of filtering again."""

    def _study(self, monkeypatch, collapse=frozenset()):
        # Counts the filter runs, and collapses the (seed, variant) runs in
        # ``collapse``.
        config = micro_config(horizon=12, seeds=(5, 6), variants=SHARING_VARIANTS)
        calls, received = [], []
        direct = harness.run_traffic_filter

        def counted(config, log, variant, rng):
            calls.append((rng.seed, variant))
            if (rng.seed, variant) in collapse:
                raise WeightCollapseError("collapsed", k=1)
            return direct(config, log, variant, rng)

        monkeypatch.setattr(harness, "run_traffic_filter", counted)
        report = run_experiment(config, on_run=lambda seed, t, log, v, r: received.append((seed, v, r)))
        return config, report, calls, received

    @staticmethod
    def _assert_direct(config, seed, variant, result):
        expected = run_traffic_filter(config, simulate_seed(config, seed)[1], variant, RandomSource(seed))
        assert np.array_equal(result.estimates, expected.estimates)
        assert result.decisions.dtype == DECISION_DTYPE
        for name in DECISION_COLUMNS:
            assert np.array_equal(result.decisions[name], expected.decisions[name]), name

    def test_every_run_equals_its_direct_filter_run(self, monkeypatch):
        config, report, calls, received = self._study(monkeypatch)
        everything = [(seed, v) for seed in (5, 6) for v in SHARING_VARIANTS]
        assert [(seed, v) for seed, v, _ in received] == everything
        assert [(r.seed, FilterVariant(r.mode, r.alpha)) for r in report.runs] == everything
        assert calls == [(seed, v) for seed, v in everything if v not in SHARED]
        for seed, variant, result in received:
            self._assert_direct(config, seed, variant, result)
        # A shared run's decisions are its own copy.
        by_run = {(seed, v.label): r for seed, v, r in received}
        for seed in (5, 6):
            for variant, taken in SHARED.items():
                shared, base = by_run[seed, variant.label], by_run[seed, taken]
                assert set(shared.decisions["alpha"].tolist()) == {variant.alpha}
                assert base.decisions["alpha"][0] != variant.alpha
                assert shared.decisions is not base.decisions

    def test_later_levels_of_a_collapsed_run_run_directly(self, monkeypatch):
        first = FilterVariant("np_incorrect", 0.1)
        config, report, calls, received = self._study(monkeypatch, collapse={(5, first)})
        assert (5, FilterVariant("np_incorrect", 0.01)) in calls
        assert (6, FilterVariant("np_incorrect", 0.01)) not in calls
        collapsed = [(r.seed, r.mode, r.alpha) for r in report.runs if r.collapsed]
        assert collapsed == [(5, "np_incorrect", 0.1)]
        assert (5, first) not in [(seed, v) for seed, v, _ in received]
        for seed, variant, result in received:
            self._assert_direct(config, seed, variant, result)
        unshared = run_experiment(dataclasses.replace(config, variants=(FilterVariant("np_incorrect", 0.01),)))
        scored = [r for r in report.runs if (r.seed, r.mode, r.alpha) == (5, "np_incorrect", 0.01)]
        assert scored == [r for r in unshared.runs if r.seed == 5]

    def test_a_taken_run_s_records_are_a_new_array_at_the_variant_s_level(self):
        # np_incorrect@0.01 takes the 0.1 run of seed 5 (SHARED): its
        # records are a fresh array, equal to the finished run's but for
        # the level, which the finished run keeps.
        config = micro_config(horizon=12, seeds=(5,))
        base, variant = FilterVariant("np_incorrect", 0.1), FilterVariant("np_incorrect", 0.01)
        finished = run_traffic_filter(config, simulate_seed(config, 5)[1], base, RandomSource(5))
        before = finished.decisions.tobytes()
        taken, result = harness._shared_run(variant, [(base, finished)])
        assert taken == base and result.estimates is finished.estimates
        decisions = result.decisions
        assert decisions.base is None and not np.shares_memory(decisions, finished.decisions)
        assert decisions.dtype == DECISION_DTYPE and len(decisions) == len(finished.decisions) > 0
        assert set(decisions["alpha"].tolist()) == {0.01}
        assert set(decisions["test_kind"].tolist()) == {variant.kind.value}
        for name in DECISION_COLUMNS:
            if name != "alpha":
                assert np.array_equal(decisions[name], finished.decisions[name]), name
        assert finished.decisions.tobytes() == before

    def test_each_shared_run_logs_one_info_record(self, caplog, monkeypatch):
        self._study(monkeypatch)
        assert not [r for r in caplog.records if r.name == "gatedpf.harness"]
        caplog.set_level(logging.INFO, logger="gatedpf.harness")
        self._study(monkeypatch)
        records = [r for r in caplog.records if r.name == "gatedpf.harness"]
        assert {r.levelno for r in records} == {logging.INFO}
        assert [r.getMessage() for r in records] == [
            f"seed {seed}: {variant.label} takes the run of {taken}"
            for seed in (5, 6)
            for variant, taken in SHARED.items()
        ]


class TestHeldRuns:
    def test_a_mode_s_runs_are_dropped_after_its_last_level(self):
        # A seed holds its filtered gated runs for later levels of their
        # mode only: once the fisher levels are done, no fisher run is held.
        variants = (
            FilterVariant("none"),
            FilterVariant("fisher", 0.001),
            FilterVariant("fisher", 0.01),
            FilterVariant("fisher", 0.1),
            FilterVariant("np_correct", 0.001),
            FilterVariant("np_correct", 0.01),
        )
        config = micro_config(horizon=8, seeds=(5, 6), variants=variants)
        refs, held = [], []

        def on_run(seed, truth, log, variant, result):
            refs.append((seed, variant, weakref.ref(result)))
            held.append([(s, v) for s, v, ref in refs if ref() is not None])

        report = run_experiment(config, on_run=on_run)
        assert not any(r.collapsed for r in report.runs) and len(held) == 12
        for i, seed in enumerate((5, 6)):
            at = dict(zip(variants, held[6 * i : 6 * i + 6]))
            # The first level of a mode always filters, and is held until
            # the mode's last level.
            assert (seed, variants[1]) in at[variants[3]]
            assert at[variants[4]] == [(seed, variants[4])]


class TestMetricsReport:
    def _report(self):
        runs = [
            RunMetrics("fisher", 0.01, seed, 10 + seed, 2, 80, 8, 10.0 + seed, 3.0 + 0.1 * seed)
            for seed in (1, 2, 3)
        ]
        runs.append(RunMetrics("none", None, 1, 0, 0, 0, 0, 0.0, 5.0))
        return MetricsReport(runs=runs)

    def test_aggregate_orders_variants_by_first_run_and_runs_by_seed(self):
        # Variants come in the order of their first runs; a variant's runs
        # are summed in seed order, which here gives other bits than their
        # list order: (0.3 + 0.2) + 0.1 != (0.1 + 0.2) + 0.3.
        def run(mode, alpha, seed, error):
            return RunMetrics(mode, alpha, seed, 1, 2, 3, 4, error, 5.0)

        report = MetricsReport(
            runs=[
                run("np_correct", 0.1, 2, 1.0),
                run("fisher", 0.01, 3, 0.3),
                run("none", None, 2, 0.0),
                run("fisher", 0.01, 2, 0.2),
                run("np_correct", 0.1, 1, 1.0),
                run("fisher", 0.01, 1, 0.1),
            ]
        )
        aggregate = report.aggregate()
        assert list(aggregate) == [("np_correct", 0.1), ("fisher", 0.01), ("none", None)]
        mean, std = aggregate[("fisher", 0.01)]["labeling_error_pct"]
        assert mean == float(np.mean([0.1, 0.2, 0.3])) != float(np.mean([0.3, 0.2, 0.1]))
        assert std == float(np.std([0.1, 0.2, 0.3], ddof=1))
        assert [r.seed for r in report.runs] == [2, 3, 2, 2, 1, 1]  # left in place

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
        write_metrics_long(path, report)
        back = read_metrics_long(path)
        assert back == report

    def test_long_round_trip_at_the_seed_bounds(self, tmp_path):
        runs = [RunMetrics("none", None, seed, 0, 0, 0, 0, 0.0, 5.0) for seed in (0, 2**64 - 1)]
        path = tmp_path / "long.csv"
        write_metrics_long(path, MetricsReport(runs))
        assert read_metrics_long(path).runs == runs

    def test_long_round_trip_keeps_written_nans(self, tmp_path):
        # A collapsed run has NaN error percentages; a run with no steps has
        # a NaN MAPE.
        runs = [
            RunMetrics("fisher", 0.01, 1, 0, 0, 0, 0, float("nan"), float("nan"), collapsed=True),
            RunMetrics("none", None, 1, 0, 0, 0, 0, 0.0, float("nan")),
        ]
        path = tmp_path / "long.csv"
        write_metrics_long(path, MetricsReport(runs))
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
            ("fisher,inf,1,1,2,3,4,10.0,3.0,0", "alpha must be empty for the ungated mode and lie in \\(0, 1\\) for a gated one, got 'inf'"),
            ("fisher,0.01,1,1,2,3,4,-inf,3.0,0", "labeling_error_pct must be finite"),
            ("fisher,0.01,1,1,2,3,4,10.0,inf,1", "mape_pct must be finite"),
            ("fisher,nan,1,0,0,0,0,nan,nan,1", "alpha must be empty for the ungated mode"),
            ("fisher,0.01,1,1,2,3,4,nan,3.0,0", "labeling_error_pct must be finite"),
            ("none,,1,0,0,0,0,nan,nan,0", "labeling_error_pct must be finite"),
            ("fisher,0.01,1,1,2,3,4,10.0,nan,0", "mape_pct must be finite"),
            ("fisher,0.01,1,-1,2,3,4,10.0,3.0,0", r"tp must lie in \[0, 2\*\*63\), got '-1'"),
            ("fisher,0.01,1,1,2,3,1" + "0" * 400 + ",10.0,3.0,0", r"fn must lie in \[0, 2\*\*63\)"),
            ("fisher,0.01,x,1,2,3,4,10.0,3.0,0", "seed must be an integer, got 'x'"),
            ("fisher,0.01,-5,1,2,3,4,10.0,3.0,0", r"seed must lie in \[0, 2\*\*64\), got '-5'"),
            ("fisher,0.01,18446744073709551616,1,2,3,4,10.0,3.0,0", r"seed must lie in \[0, 2\*\*64\), got '18446744073709551616'"),
            ("fisher,0.01,1,1,2,3,4,10.0,3.0", "expected 10 columns"),
            ("fisher,0.01,1,1,2,3,4,10.0,3.0,0,0", "expected 10 columns"),
            ("bogus,0.01,1,1,2,3,4,10.0,3.0,0", r"mode must be one of \('none', 'fisher', 'np_correct', 'np_incorrect'\), got 'bogus'"),
            ("none,0.01,1,0,0,0,0,0.0,5.0,0", "alpha must be empty for the ungated mode .*, got '0.01'"),
            ("fisher,,1,1,2,3,4,10.0,3.0,0", "alpha must be empty for the ungated mode .*, got ''"),
            ("np_correct,1.5,1,1,2,3,4,10.0,3.0,0", "alpha must be empty for the ungated mode .*, got '1.5'"),
            # Numbers the writer does not write for their values.
            ("fisher, 0.01,+1_1,1_0, 2,3,4,1_0.0,3.0,0", "alpha must be written '0.01', got ' 0.01'"),
            ("fisher,0.01,+1_1,1,2,3,4,10.0,3.0,0", r"seed must be written '11', got '\+1_1'"),
            ("fisher,0.01,1,1_0,2,3,4,10.0,3.0,0", "tp must be written '10', got '1_0'"),
            ("fisher,0.01,1,1,2,3,4,1e1,3.0,0", "labeling_error_pct must be written '10.0', got '1e1'"),
            ("fisher,0.01,1,0,0,0,0,NaN,nan,1", "labeling_error_pct must be written 'nan', got 'NaN'"),
        ],
    )
    def test_long_malformed_row_reports_line(self, tmp_path, row, problem):
        path = tmp_path / "long.csv"
        header = ",".join(harness.METRICS_LONG_COLUMNS)
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
        # A variant's level.
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
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
            ("1,s,0,fisher,0.5,-inf,0,0.0,0", r"alpha must lie in \(0, 1\), got '-inf'"),
            ("1,s,0,fisher,nan,0.01,0,0.0,0", "statistic must not be nan, got 'nan'"),
            ("1,s,0,fisher,0.5,NaN,0,0.0,0", r"alpha must lie in \(0, 1\), got 'NaN'"),
            ("1,s,0,fisher,0.5,0.01,0,nan,0", "auxiliary must not be nan, got 'nan'"),
            ("1,s,0,fisher,0.5,0.01,0,0.0", "expected 9 columns"),
            ("1,s,0,fisher,0.5,0.01,0,0.0,0,0", "expected 9 columns"),
            ("1,s,0,bogus,0.5,0.01,0,0.0,0", r"test_kind must be one of \('neyman_pearson', 'fisher'\), got 'bogus'"),
            ("-4,s,0,fisher,0.5,0.01,0,0.0,0", r"k must lie in \[1, 2\*\*63\), got '-4'"),
            ("0,s,0,fisher,0.5,0.01,0,0.0,0", r"k must lie in \[1, 2\*\*63\), got '0'"),
            ("1,s,-7,fisher,0.5,0.01,0,0.0,0", r"link must lie in \[0, 2\*\*63\), got '-7'"),
            (" 0_7,s,0,fisher,0.5,0.01,0,0.0,0", "k must be written '7', got ' 0_7'"),
            ("1,s,+1,fisher,0.5,0.01,0,0.0,0", r"link must be written '1', got '\+1'"),
            ("1,s,0,fisher,1e-3,0.01,0,0.0,0", "statistic must be written '0.001', got '1e-3'"),
            ("1,s,0,fisher,0.5,0.010,0,0.0,0", "alpha must be written '0.01', got '0.010'"),
            ("1,s,0,fisher,0.5,5.0,0,0.0,0", r"alpha must lie in \(0, 1\), got '5.0'"),
            ("1,s,0,fisher,0.5,0.0,0,0.0,0", r"alpha must lie in \(0, 1\), got '0.0'"),
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


def number_forms(text: str) -> list[str]:
    """Forms of a written field that ``int`` or ``float`` may read but no
    writer writes: surrounding spaces, a ``+``, a digit-group underscore,
    a leading zero, ``-0`` and exponent forms."""
    sign, digits = ("-", text[1:]) if text.startswith("-") else ("", text)
    forms = [f" {text}", f"{text} ", f"+{text}", f"{sign}0{digits}", "-0", f"{text}e0", f"{sign}{digits}E+00"]
    pairs = [i for i in range(1, len(text)) if text[i - 1].isdigit() and text[i].isdigit()]
    return forms + [f"{text[:i]}_{text[i:]}" for i in pairs[:1]]


# The checked CSV formats: their declaration, the columns that hold numbers
# or flags, their reader, a writer of ``rows`` to ``path``, and the rows of
# what the reader returns.
CSV_FORMATS = {
    "decisions": (
        harness.DECISION_FORMAT, (0, 2, 4, 5, 6, 7, 8), read_decision_log,
        lambda path, rows: write_decision_log(path, decision_array(rows)), lambda decisions: decisions,
    ),
    "measurements": (
        MEASUREMENT_FORMAT, (0, 3, 4, 5), read_measurement_log,
        lambda path, records: write_measurement_log(path, log_of(records)), records_of,
    ),
    "metrics_long": (
        harness.METRICS_LONG_FORMAT, (1, 2, 3, 4, 5, 6, 7, 8, 9), read_metrics_long,
        lambda path, runs: write_metrics_long(path, MetricsReport(runs)),
        lambda report: report.runs,
    ),
}

# Every measurement a sensor can write: any 64-bit step and link, and a
# finite nonnegative value, the edges included.
measurement_records = st.lists(
    st.builds(
        Record,
        k=st.integers(-(2**63), 2**63 - 1),
        sensor_id=st.text(alphabet=string.printable, max_size=8),
        kind=st.sampled_from(MEASUREMENT_KINDS),
        link=st.integers(-(2**63), 2**63 - 1),
        value=st.sampled_from([0.0, 5e-324, 1.7976931348623157e308]) | st.floats(0.0, allow_infinity=False),
        faulty=st.booleans(),
    ),
    max_size=12,
)


@st.composite
def run_metrics(draw):
    """A row that ``run_experiment`` could write to ``metrics_long.csv``."""
    mode = draw(st.sampled_from(list(MODES)))
    alpha = None if MODES[mode] is None else draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    counts = draw(st.lists(st.integers(0, 3) | st.integers(0, 2**63 - 1), min_size=4, max_size=4))
    collapsed = draw(st.booleans())
    error = draw(st.floats(allow_infinity=False, allow_nan=collapsed))
    mape_pct = draw(st.floats(allow_infinity=False, allow_nan=collapsed or sum(counts) == 0))
    seed = draw(st.sampled_from([0, 11, 2**64 - 1]) | st.integers(0, 2**64 - 1))
    return RunMetrics(mode, alpha, seed, *counts, error, mape_pct, collapsed)


csv_rows = {
    "decisions": decision_rows,
    "measurements": measurement_records,
    "metrics_long": st.lists(run_metrics(), max_size=6),
}


def written(tmp: str, name: str, rows) -> tuple[Path, list[list[str]], list[int]]:
    """The file the writer of format ``name`` writes for ``rows``, its rows
    as fields and each row's line."""
    fmt, _, _, write, _ = CSV_FORMATS[name]
    path = Path(tmp) / f"{name}.csv"
    write(path, rows)
    with path.open(newline="") as fh:
        fields = list(csv.reader(fh))[1:]
    _, lines = read_records(path, fmt)
    return path, fields, lines


class TestReadersAcceptOnlyWrittenText:
    """A measurement log, a decision log or ``metrics_long.csv`` that its
    reader accepts is one its writer writes: written back, it gives the
    same bytes."""

    @pytest.mark.parametrize("name", sorted(CSV_FORMATS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_an_accepted_file_writes_back_to_its_bytes(self, name, data):
        fmt, numbers, read, write, rows_of = CSV_FORMATS[name]
        with tempfile.TemporaryDirectory() as tmp:
            path, fields, _ = written(tmp, name, data.draw(csv_rows[name].filter(bool)))
            row = fields[data.draw(st.integers(0, len(fields) - 1))]
            c = data.draw(st.sampled_from(numbers))
            row[c] = data.draw(
                st.just(row[c])
                | st.sampled_from(number_forms(row[c]))
                | st.text(alphabet="0123456789+-_.eEinfa ", max_size=5)
            )
            path.write_bytes(csv_text(fmt.columns, fields).encode())
            try:
                back = read(path)
            except DataError as exc:
                assert re.match(rf"{re.escape(str(path))}:[0-9]+: ", str(exc))
                return
            again = Path(tmp) / "again.csv"
            write(again, rows_of(back))
            assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("name", sorted(CSV_FORMATS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_number_in_another_form_is_refused_at_its_line(self, name, data):
        fmt, numbers, read, _, _ = CSV_FORMATS[name]
        with tempfile.TemporaryDirectory() as tmp:
            path, fields, lines = written(tmp, name, data.draw(csv_rows[name].filter(bool)))
            i = data.draw(st.integers(0, len(fields) - 1))
            c = data.draw(st.sampled_from(numbers))
            text = fields[i][c]
            fields[i][c] = data.draw(st.sampled_from([f for f in number_forms(text) if f != text]))
            path.write_bytes(csv_text(fmt.columns, fields).encode())
            with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:{lines[i]}: "):
                read(path)
