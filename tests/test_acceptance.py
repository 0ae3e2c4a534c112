"""Acceptance criteria for the full study, one test per criterion.

The heavy fixtures run the complete default scenario once per session: a
four-variant, three-level, five-seed sweep plus a fault-free baseline.
Each criterion prints a single summary line when it passes; a failure
shows the offending numbers in the assertion message.
"""
from __future__ import annotations

import dataclasses
import logging
import math
import time
from functools import partial

import numpy as np
import pytest

from gatedpf.gates import GateKind, level_rule, significance_test
from gatedpf.harness import (
    FilterVariant,
    MetricsReport,
    RunMetrics,
    available_cpus,
    decision_columns,
    map_seeds,
    run_experiment,
    run_seed,
    simulate_seed,
)
from gatedpf.particles import ParticleEnsemble, resample_systematic
from gatedpf.rng import RandomSource
from gatedpf.scenario import default_scenario, scenario_from_dict

from conftest import dirty_posterior_mean, dirty_weight_update, gaussian_rows, log_rows, scalar_ensemble
from test_gates import lr_row, significance_row
from test_scenario import tiny_scenario_dict

ALPHAS = (0.001, 0.01, 0.1)
GATED_MODES = ("fisher", "np_correct", "np_incorrect")
SELECTIVITY_VARIANT = FilterVariant("np_incorrect", 0.01)


def say(line: str) -> None:
    print(f"\n[acceptance] {line}")


def study_seed(config, seed: int):
    """One seed of the study: its metrics and, unless the run collapsed,
    criterion 5's (values by sensor id, sensor ids, decisions) of the
    incorrect-model gate at the middle level, each decision naming its
    report by the joined sensor id.  A ``SeedRun`` holds more than a worker
    can send back (its compiled log's mappings do not pickle)."""
    unit = run_seed(config, seed)
    result = unit.results[config.variants.index(SELECTIVITY_VARIANT)]
    if result is None:
        return unit.metrics, None
    speed = unit.measurements.speed
    values = dict(zip(unit.measurements.sensor_ids[speed].tolist(), unit.measurements.values[speed].tolist()))
    sensor_ids = decision_columns(unit.log, SELECTIVITY_VARIANT, result.decisions)["sensor_id"]
    return unit.metrics, (values, sensor_ids, result.decisions)


@pytest.fixture(scope="session")
def study():
    """Full default sweep plus fault-free baseline, shared by all criteria,
    with the seeds mapped over the CPUs available."""
    scenario = default_scenario()
    config = scenario.experiment_config()
    jobs = available_cpus()
    runs, selectivity_runs = [], {}

    # Each shared run logs (seed, variant, the run it takes).
    shared = []
    handler = logging.Handler(logging.INFO)
    handler.emit = lambda record: shared.append(record.args)
    harness_log = logging.getLogger("gatedpf.harness")
    level = harness_log.level
    harness_log.addHandler(handler)
    harness_log.setLevel(logging.INFO)
    start = time.time()
    try:
        for seed, (metrics, selectivity) in zip(
            config.seeds, map_seeds(partial(study_seed, config), config.seeds, jobs)
        ):
            runs += metrics
            if selectivity is not None:
                selectivity_runs[seed] = selectivity
    finally:
        harness_log.removeHandler(handler)
        harness_log.setLevel(level)
    report = MetricsReport(runs=runs)
    baseline_config = dataclasses.replace(
        config,
        fault_config=dataclasses.replace(config.fault_config, probability=0.0),
        variants=(FilterVariant("none"),),
    )
    baseline_runs = map_seeds(lambda seed: run_seed(baseline_config, seed).metrics, baseline_config.seeds, jobs)
    baseline = MetricsReport(runs=[run for metrics in baseline_runs for run in metrics])
    elapsed = time.time() - start
    return {
        "scenario": scenario,
        "config": config,
        "report": report,
        "baseline": baseline,
        "elapsed": elapsed,
        "selectivity_runs": selectivity_runs,
        "shared": shared,
    }


def seed_runs(report: MetricsReport, mode: str, alpha: float | None) -> list[RunMetrics]:
    """The variant's runs, one per seed."""
    return [r for r in report.runs if (r.mode, r.alpha) == (mode, alpha)]


def median(report: MetricsReport, mode: str, alpha: float | None, attr: str) -> float:
    return float(np.median([getattr(r, attr) for r in seed_runs(report, mode, alpha)]))


def median_err(report: MetricsReport, mode: str, alpha: float) -> float:
    return median(report, mode, alpha, "labeling_error_pct")


def median_mape(report: MetricsReport, mode: str, alpha: float | None) -> float:
    return median(report, mode, alpha, "mape_pct")


class TestCriterion1ComparativeOrdering:
    """Correct-model gate < significance gate (best of its two usable
    levels) < incorrect-model gate, on median labeling error.

    Each filter is summarized at its best level, the significance gate
    restricted to {0.001, 0.01}; on top of that the correct-model gate must
    dominate the significance gate at every matched level, which is the
    stronger per-column rendering of the same ordering.
    """

    def test_labeling_error_ordering_and_runtime(self, study):
        report = study["report"]
        npc = {a: median_err(report, "np_correct", a) for a in ALPHAS}
        fisher = {a: median_err(report, "fisher", a) for a in ALPHAS}
        npi = {a: median_err(report, "np_incorrect", a) for a in ALPHAS}
        fisher_best = min(fisher[a] for a in (0.001, 0.01))
        assert min(npc.values()) < fisher_best < min(npi.values()), (
            f"best-level ordering violated: correct-model {min(npc.values()):.3f}, "
            f"significance {fisher_best:.3f}, incorrect-model {min(npi.values()):.3f}"
        )
        for alpha in ALPHAS:
            assert npc[alpha] < fisher[alpha], (
                f"alpha={alpha}: correct-model {npc[alpha]:.3f} must beat "
                f"significance gate {fisher[alpha]:.3f}"
            )
            assert fisher_best < npi[alpha]
        assert study["elapsed"] < 600.0, "full sweep must finish within 10 minutes"
        say(
            "criterion 1 PASS: labeling error np_correct "
            f"{min(npc.values()):.2f} < fisher(best of 0.001/0.01) {fisher_best:.2f} "
            f"< np_incorrect {min(npi.values()):.2f}; matched-level dominance at "
            f"all levels (sweep {study['elapsed']:.0f}s)"
        )


class TestSharedRuns:
    """Only the levels that decide every row alike share a filter run: in
    the default study, the incorrect-model gate's two upper levels."""

    def test_upper_incorrect_model_levels_take_the_lowest_level_run(self, study):
        seeds = study["config"].seeds
        assert study["shared"] == [
            (seed, f"np_incorrect@{alpha:g}", "np_incorrect@0.001")
            for seed in seeds
            for alpha in (0.01, 0.1)
        ]
        say(f"shared runs: {len(study['shared'])} of {len(study['report'].runs)}")


class TestCriterion2FisherBetween:
    def test_mape_between_np_variants(self, study):
        report = study["report"]
        for alpha in (0.001, 0.01):
            npc = median_mape(report, "np_correct", alpha)
            fis = median_mape(report, "fisher", alpha)
            npi = median_mape(report, "np_incorrect", alpha)
            assert npc < fis < npi, (
                f"alpha={alpha}: expected correct-model {npc:.3f} < "
                f"significance {fis:.3f} < incorrect-model {npi:.3f}"
            )
        say(
            "criterion 2 PASS: significance-gate MAPE lies between the two "
            "likelihood-ratio variants at levels 0.001 and 0.01"
        )


class TestCriterion3BaselineOrdering:
    def test_fault_free_below_gated_below_ungated(self, study):
        report = study["report"]
        baseline = median(study["baseline"], "none", None, "mape_pct")
        ungated = median_mape(report, "none", None)
        gated = {
            (mode, alpha): median_mape(report, mode, alpha)
            for mode in GATED_MODES
            for alpha in ALPHAS
        }
        worst_offender = min(gated, key=lambda k: gated[k])
        assert baseline < min(gated.values()), (
            f"fault-free baseline {baseline:.3f} must undercut every gated "
            f"variant; lowest is {worst_offender} at {gated[worst_offender]:.3f}"
        )
        assert max(gated.values()) < ungated, (
            f"every gated variant must undercut the ungated run {ungated:.3f}; "
            f"highest gated is {max(gated.values()):.3f}"
        )
        say(
            f"criterion 3 PASS: baseline {baseline:.3f} < gated "
            f"[{min(gated.values()):.3f}..{max(gated.values()):.3f}] < ungated {ungated:.3f}"
        )


class TestCriterion4AlphaMonotonicity:
    def test_positives_nondecreasing_per_seed(self, study):
        report = study["report"]
        for mode in GATED_MODES:
            for seed in study["config"].seeds:
                positives = []
                for alpha in ALPHAS:
                    runs = [r for r in seed_runs(report, mode, alpha) if r.seed == seed]
                    assert len(runs) == 1
                    positives.append(runs[0].tp + runs[0].fp)
                assert all(
                    positives[i + 1] >= positives[i] for i in range(len(positives) - 1)
                ), f"{mode} seed {seed}: positives {positives} not nondecreasing"
        say("criterion 4 PASS: per-seed total positives nondecreasing across levels")


class TestCriterion5IncorrectModelSelectivity:
    def test_stopped_car_selectivity(self, study):
        # The near-zero fault model must reject nearly all exact-zero faults
        # while passing the broad random-speed faults; evaluated at the
        # middle level of the sweep, on the decisions the study kept.
        zero_total = zero_rejected = gauss_total = gauss_rejected = 0
        for seed in study["config"].seeds:
            values, sensor_ids, decisions = study["selectivity_runs"][seed]
            faulty = decisions["faulty"]
            zero = np.array([values[s] == 0.0 for s in sensor_ids[faulty].tolist()], dtype=bool)
            rejected = decisions["rejected"][faulty]
            zero_total += int(zero.sum())
            zero_rejected += int(rejected[zero].sum())
            gauss_total += int((~zero).sum())
            gauss_rejected += int(rejected[~zero].sum())
        zero_rate = zero_rejected / zero_total
        gauss_rate = gauss_rejected / gauss_total
        assert zero_rate >= 0.95, f"stopped-car rejection rate {zero_rate:.3f} below 0.95"
        assert gauss_rate <= 0.20, f"random-fault rejection rate {gauss_rate:.3f} above 0.20"
        say(
            f"criterion 5 PASS: near-zero fault model rejects {100 * zero_rate:.1f}% of "
            f"stopped-car faults and {100 * gauss_rate:.1f}% of random-speed faults"
        )


class TestCriterion6PropertySuites:
    """Key property suites asserted directly; the rest of the suite extends them."""

    def test_weight_normalization_and_marginal_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            prior = rng.uniform(1e-6, 1.0, n)
            prior /= prior.sum()
            lik = rng.uniform(1e-9, 5.0, n)
            ens = ParticleEnsemble(np.zeros((1, n)), prior)
            out, log_marginal = dirty_weight_update(ens, log_rows(lik))
            assert abs(float(np.sum(out.weights)) - 1.0) <= 1e-12
            assert math.exp(log_marginal) == pytest.approx(float(np.sum(prior * lik)), rel=1e-12)
        say("criterion 6a PASS: normalization and marginal-likelihood identity at 1e-12")

    def test_joint_vs_sequential_update_equivalence(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 16))
            ens = ParticleEnsemble.from_states(rng.normal(size=(n, 2)).T)
            a, b = rng.uniform(1e-4, 2.0, n), rng.uniform(1e-4, 2.0, n)
            joint, log_joint = dirty_weight_update(ens, log_rows(a, b))
            first, log_a = dirty_weight_update(ens, log_rows(a))
            seq, log_b = dirty_weight_update(first, log_rows(b))
            np.testing.assert_allclose(joint.weights, seq.weights, rtol=1e-12)
            assert log_a + log_b == pytest.approx(log_joint, rel=1e-12, abs=1e-12)
        say("criterion 6b PASS: joint equals sequential per-sensor update at 1e-12")

    def test_resampler_bounds_and_mean_preservation(self):
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.05, 1.0, 10)
        weights /= weights.sum()
        # First state component is the particle index, for exact copy counts.
        states = np.column_stack([np.arange(10.0), rng.normal(size=10)])
        ens = ParticleEnsemble(states.T, weights)
        target = dirty_posterior_mean(ens)
        means = []
        for seed in range(1000):
            out = resample_systematic(ens, RandomSource(seed))
            counts = np.bincount(out.particles[0].astype(int), minlength=10)
            for p in range(10):
                assert math.floor(10 * weights[p]) <= counts[p] <= math.ceil(10 * weights[p])
            means.append(dirty_posterior_mean(out))
        means = np.array(means)
        spread = np.sqrt(np.sum(weights[:, None] * (states - target) ** 2, axis=0))
        se = spread / np.sqrt(len(means))
        assert np.all(np.abs(means.mean(axis=0) - target) < 4 * se + 1e-12)
        say("criterion 6c PASS: systematic resampler copy-count bounds and mean preservation")

    def test_ctm_conservation_and_flow_bounds(self):
        from gatedpf.ctm import DemandProfile, DemandSchedule
        from conftest import dirty_advance, small_network
        from test_ctm import junction_flows

        def flat(level, std):
            return DemandProfile(level, level, (0.0, 0.0), (1e9, 1e9), std / level)

        rng = np.random.default_rng(4)
        net = small_network(5, onramps={2}, offramps={3}, beta=0.12)
        for trial in range(300):
            state = rng.uniform(0.0, 0.12, (1, 5)).T
            schedule = DemandSchedule(upstream=flat(float(rng.uniform(0, 5)), 0.3), onramps=(flat(0.4, 0.2),))
            upstream, ramps = schedule.sample(0, RandomSource(trial), 1, schedule.table((0,), net.dt))
            q, r, s = junction_flows(state, net, upstream, ramps)
            new = dirty_advance(state, net, upstream, ramps)
            balance = float(
                np.sum((new - state) * net.lengths)
                - (q[0, 0] - q[-1, 0] + r.sum() - s.sum())
            )
            assert abs(balance) < 1e-9
            assert np.all(q >= 0) and np.all(r >= 0) and np.all(s >= 0)
            assert np.all(q[1:] <= net.qmax + 1e-12)
        say("criterion 6d PASS: vehicle conservation at 1e-9 and flow bounds")

    def test_gate_short_circuit_and_monotonicity(self):
        ens = scalar_ensemble([1.0, 2.0, 3.0])
        g = [0.3, 0.2, 0.1]
        assert not lr_row(ens, g, g, alpha=0.999).rejected_h0
        g1 = [0.4, 0.1, 0.05]
        for gate in (
            lambda a: lr_row(ens, g, g1, alpha=a),
            lambda a: significance_row(ens, 4.4, scale=1.0, alpha=a),
        ):
            rejected_at = [gate(a).rejected_h0 for a in (0.001, 0.01, 0.1)]
            for lo, hi in zip(rejected_at, rejected_at[1:]):
                assert hi or not lo
        say("criterion 6e PASS: short-circuit acceptance and level monotonicity")

    def test_fisher_point_mass_calibration(self):
        ens = scalar_ensemble([20.0])
        draws = RandomSource(77).normal(20.0, 4.0, size=100_000)
        z, _ = gaussian_rows(draws, [20.0], std=4.0)
        rate = float(np.mean(level_rule(GateKind.FISHER, *significance_test(ens.weights, z), 0.05)))
        assert 0.03 <= rate <= 0.07, f"rejection rate {rate:.4f} outside [0.03, 0.07]"
        say(f"criterion 6f PASS: point-mass calibration rate {rate:.4f} in [0.03, 0.07]")

    def test_bit_determinism_of_full_sweep(self, tmp_path):
        from gatedpf.harness import metrics_wide_text, write_metrics_long

        scenario = scenario_from_dict(tiny_scenario_dict())
        config = scenario.experiment_config()
        a = run_experiment(config)
        b = run_experiment(config)
        assert metrics_wide_text(a, scenario.alphas) == metrics_wide_text(b, scenario.alphas)
        write_metrics_long(tmp_path / "a.csv", a)
        write_metrics_long(tmp_path / "b.csv", b)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        say("criterion 6g PASS: sweep under a fixed manifest is bit-deterministic")


class TestCriterion7FaultInjectionStatistics:
    def test_generated_log_fault_fractions(self, study):
        config = study["config"]
        _, log = simulate_seed(config, config.seeds[0])
        n = int(np.count_nonzero(log.speed))
        assert n >= 10_000, f"default scenario produced only {n} speed reports"
        faulty = log.values[log.speed & log.faulty]
        fault_frac = len(faulty) / n
        bound = 4 * math.sqrt(0.3 * 0.7 / 10_000)
        assert abs(fault_frac - 0.30) < bound, f"fault fraction {fault_frac:.4f}"
        zero_frac = np.count_nonzero(faulty == 0.0) / len(faulty)
        zero_bound = 4 * math.sqrt((1 / 3) * (2 / 3) / 10_000)
        assert abs(zero_frac - 1 / 3) < zero_bound, f"zero fraction {zero_frac:.4f}"
        say(
            f"criterion 7 PASS: n={n} speed reports, faulty fraction "
            f"{fault_frac:.4f} (target 0.30), zero-valued among faulty "
            f"{zero_frac:.4f} (target 1/3)"
        )
