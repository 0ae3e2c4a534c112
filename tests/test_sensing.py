"""Unit tests for synthetic sensing, fault injection, and measurement models."""
from __future__ import annotations

import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatedpf.buffers import StepBuffers
from gatedpf.ctm import FreewayNetwork, LinkParams, Trajectory, link_plan, speed_map
from gatedpf.errors import ConfigurationError, ContractViolation, DataError, ModelConsistencyError
from gatedpf.harness import (
    FilterVariant,
    compile_log,
    generate_measurements,
    run_traffic_filter,
    simulate_seed,
)
from gatedpf.rng import RandomSource
from gatedpf.sensing import (
    FaultConfig,
    GnssSpec,
    LoopDetectors,
    MeasurementLog,
    _log_pdf_of_z,
    _residual,
    fault_log_density,
    gaussian_log_pdf,
    inject_faults,
    measurement_rows,
    read_measurement_log,
    sample_gnss_speeds,
    sample_loop_detectors,
    vehicle_counts,
    write_measurement_log,
)

from conftest import dirty_buffers, flat_schedule, small_network
from reference_log import Record, generate_records, log_of, log_text, records_of
from test_harness import micro_config


class TestSpecs:
    def test_loop_spec_bounds(self):
        with pytest.raises(ConfigurationError):
            LoopDetectors(links=(0,), noise_frac=-0.1)
        with pytest.raises(ConfigurationError):
            LoopDetectors(links=(0,), min_std=0.0)

    def test_gnss_spec_bounds(self):
        with pytest.raises(ConfigurationError):
            GnssSpec(penetration=1.5)
        with pytest.raises(ConfigurationError):
            GnssSpec(min_std=0.0)

    def test_fault_config_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(probability=1.2)
        with pytest.raises(ConfigurationError):
            FaultConfig(zero_weight=-0.1)

    def test_fault_config_needs_mass_above_zero(self):
        # The fault Gaussian is drawn by rejection above zero; a config
        # keeping almost no mass there would never finish a draw.
        with pytest.raises(ConfigurationError, match="mass"):
            FaultConfig(speed_mean=-40.0, speed_std=1.0)
        with pytest.raises(ConfigurationError, match="mass"):
            FaultConfig(speed_mean=-3.2, speed_std=1.0)  # ndtr(-3.2) ~ 7e-4
        FaultConfig(speed_mean=-3.0, speed_std=1.0)  # ndtr(-3) ~ 1.3e-3


class TestLoopSampling:
    def test_zero_noise_returns_truth(self):
        states = np.array([[0.03, 0.05], [0.01, 0.0]])
        loops = LoopDetectors(links=(1, 0), noise_frac=0.0)
        values = sample_loop_detectors(states, loops, RandomSource(1))
        assert values.tolist() == [[0.05, 0.03], [0.0, 0.01]]

    def test_sample_mean_matches_truth(self):
        # 1e4 draws at one detector: mean within 4 standard errors.
        states = np.full((10_000, 1), 0.05)
        loops = LoopDetectors(links=(0,), noise_frac=0.1)
        values = sample_loop_detectors(states, loops, RandomSource(5))[:, 0]
        sd = 0.1 * 0.05
        assert abs(np.mean(values) - 0.05) < 4 * sd / np.sqrt(len(values))

    def test_negative_draws_clamped(self):
        states = np.full((500, 1), 0.001)
        loops = LoopDetectors(links=(0,), noise_frac=1.0)
        values = sample_loop_detectors(states, loops, RandomSource(2))
        assert values.min() == 0.0  # clamping visibly active at this noise level
        assert np.all(values >= 0.0)


class TestGnssSampling:
    def test_zero_penetration_is_empty(self):
        reporting, values = sample_gnss_speeds(
            np.array([20.0]), np.array([50]), GnssSpec(penetration=0.0), RandomSource(1)
        )
        assert reporting.tolist() == [0] and values.shape == (0,)

    def test_full_penetration_zero_noise(self):
        speeds = np.array([20.0, 10.0])
        counts = np.array([3, 2])
        reporting, values = sample_gnss_speeds(
            speeds, counts, GnssSpec(penetration=1.0, noise_frac=0.0), RandomSource(1)
        )
        assert reporting.tolist() == [3, 2]
        assert values.tolist() == [20.0, 20.0, 20.0, 10.0, 10.0]

    def test_expected_report_count(self):
        # Binomial oracle over 1e3 seeded draws.
        speeds = np.full(10, 15.0)
        counts = np.full(10, 40)
        spec = GnssSpec(penetration=0.05)
        totals = [
            len(sample_gnss_speeds(speeds, counts, spec, RandomSource(seed))[1])
            for seed in range(1000)
        ]
        n, p = 400, 0.05
        se = np.sqrt(n * p * (1 - p))
        assert abs(np.mean(totals) - n * p) < 4 * se / np.sqrt(len(totals))

    def test_vehicle_counts_rounding(self):
        net = small_network(2)
        counts = vehicle_counts(np.array([0.0101, 0.0099]), net)
        np.testing.assert_array_equal(counts, [5, 5])


class TestFaultInjection:
    def _gnss(self, n, value=20.0):
        return log_of(Record(1, f"g{i}", "gnss_speed", 0, value, False) for i in range(n))

    def test_zero_probability_identity(self):
        log = self._gnss(100)
        assert inject_faults(log, FaultConfig(probability=0.0), RandomSource(1)) is log

    def test_degenerate_all_zero(self):
        out = inject_faults(self._gnss(50), FaultConfig(probability=1.0, zero_weight=1.0), RandomSource(1))
        assert out.faulty.all() and np.all(out.values == 0.0)

    def test_loops_pass_through(self):
        loop = Record(k=1, sensor_id="l", kind="loop_density", link=0, value=0.05, faulty=False)
        speed = Record(k=1, sensor_id="g", kind="gnss_speed", link=0, value=20.0, faulty=False)
        log = log_of([loop, speed, loop])
        out = inject_faults(log, FaultConfig(probability=1.0, zero_weight=1.0), RandomSource(1))
        assert records_of(out) == [loop, Record(1, "g", "gnss_speed", 0, 0.0, True), loop]
        assert records_of(log) == [loop, speed, loop]  # the input log is left as it was

    def test_fault_statistics(self):
        # 1e4 measurements at defaults: faulty fraction within 4 SE of 0.30,
        # zero-valued-among-faulty within 4 SE of 1/3, values nonnegative.
        n = 10_000
        out = inject_faults(self._gnss(n), FaultConfig(), RandomSource(9))
        faulty = out.values[out.faulty]
        frac = len(faulty) / n
        assert abs(frac - 0.30) < 4 * np.sqrt(0.3 * 0.7 / n)
        zero_frac = np.count_nonzero(faulty == 0.0) / len(faulty)
        assert abs(zero_frac - 1 / 3) < 4 * np.sqrt((1 / 3) * (2 / 3) / len(faulty))
        assert np.all(faulty >= 0.0)

    def test_gaussian_faults_strictly_positive(self):
        # Truncation by resampling: no clamped atoms at zero from the
        # Gaussian branch, so value == 0 identifies the stopped-car fault.
        cfg = FaultConfig(probability=1.0, zero_weight=0.0, speed_mean=1.0, speed_std=10.0)
        out = inject_faults(self._gnss(2000), cfg, RandomSource(3))
        assert out.values.min() > 0.0


GENERATED = dict(
    horizon=6, loop_links=[2, 0], loop_noise_frac=0.5, penetration=0.3, noise_frac=0.2,
    probability=0.4, zero_weight=0.5, seed=3,
)


class TestGeneratedLog:
    """The column generator against the record-based reference it replaced,
    kept in ``reference_log``: the same streams must give the same file."""

    @given(
        horizon=st.integers(1, 10),
        loop_links=st.lists(st.integers(0, 3), unique=True),
        loop_noise_frac=st.sampled_from([0.0, 0.1, 0.5, 3.0]),
        penetration=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        noise_frac=st.sampled_from([0.0, 0.2, 3.0]),
        probability=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        zero_weight=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(**dict(GENERATED, horizon=1))
    @example(**dict(GENERATED, penetration=0.0))
    @example(**dict(GENERATED, penetration=1.0, probability=1.0))
    @example(**dict(GENERATED, probability=0.0))
    @example(**dict(GENERATED, loop_links=[]))
    @example(**dict(GENERATED, loop_links=[1, 3], loop_noise_frac=0.1))
    @settings(max_examples=60, deadline=None)
    def test_writes_the_reference_bytes(
        self, horizon, loop_links, loop_noise_frac, penetration, noise_frac, probability, zero_weight, seed
    ):
        # Truth states with empty links, so zero counts and clamped loop
        # readings occur; the speeds are any nonnegative values.
        draws = np.random.default_rng(seed)
        states = draws.uniform(0.0, 0.125, (horizon + 1, 4))
        states[draws.random(states.shape) < 0.2] = 0.0
        truth = Trajectory(states=states, speeds=draws.uniform(0.0, 30.0, (horizon, 4)))
        args = (
            truth,
            small_network(4),
            LoopDetectors(links=tuple(loop_links), noise_frac=loop_noise_frac),
            GnssSpec(penetration=penetration, noise_frac=noise_frac),
            FaultConfig(probability=probability, zero_weight=zero_weight),
            RandomSource(seed),
        )
        reference = generate_records(*args)
        log = generate_measurements(*args)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "measurements.csv"
            write_measurement_log(path, log)
            assert path.read_bytes() == log_text(reference).encode()
            back = read_measurement_log(path)
        assert records_of(back) == records_of(log) == reference
        assert horizon > 1 or len(log) == 0  # horizon 1 writes the header alone


def speed_report(value, link=0):
    return Record(k=1, sensor_id="g", kind="gnss_speed", link=link, value=value, faulty=False)


def step_rows(ms, particles, network, ramp_means=(), loops=LoopDetectors(links=()), gnss_spec=GnssSpec()):
    """Rows of step 1 of the records ``ms``, compiled for a two-step config
    on ``network`` (a flat demand on each of its onramps) with the given
    sensors, on dirty buffers: ``(z, log_g0, tested)``."""
    schedule = flat_schedule(1.0, n_onramps=len(network.onramp_links))
    config = replace(
        micro_config(horizon=2), network=network, schedule=schedule, loops=loops, gnss_spec=gnss_spec
    )
    log = compile_log(config, log_of(ms))
    work = dirty_buffers(particles.shape[1], max_rows=len(ms), max_links=len(ms))
    return measurement_rows(log, log.step(1), particles, np.asarray(ramp_means, float), work)


def null_expressions(values, mean, std) -> tuple[np.ndarray, np.ndarray]:
    """The residuals and null log densities of ``values`` under Gaussians
    of (M, P) ``mean`` and ``std``, by their expressions."""
    with np.errstate(over="ignore"):
        z = (np.asarray(values, dtype=float)[:, None] - mean) / std
        return z, -0.5 * z * z - np.log(std) - 0.5 * math.log(2.0 * math.pi)


def assert_null_rows(rows, values, mean, std) -> None:
    """``rows``' residuals and log densities are those of the expressions
    at ``mean`` and ``std``, bit for bit."""
    z, log_g0 = null_expressions(values, np.asarray(mean, dtype=float), np.asarray(std, dtype=float))
    assert rows[0].tobytes() == z.tobytes() and rows[1].tobytes() == log_g0.tobytes()


class TestMeasurementModels:
    def test_loop_model_moments(self):
        # The mean is each particle's density on the link, the std the
        # relative noise, here floored on particle 2.
        loops = LoopDetectors(links=(1,), noise_frac=0.1, min_std=0.002)
        states = np.array([[0.0, 0.0], [0.05, 0.001]])
        loop = Record(k=1, sensor_id="loop-1", kind="loop_density", link=1, value=0.04, faulty=False)
        rows = step_rows([loop], states, small_network(2), loops=loops)
        assert_null_rows(rows, [0.04], [[0.05, 0.001]], [[0.1 * 0.05, 0.002]])
        np.testing.assert_allclose(rows[0], [[-2.0, 19.5]])
        assert rows[2].size == 0

    def test_loop_model_noise_floor(self):
        # The std is the relative noise where it exceeds the floor, and the
        # floor at an empty link or under a small enough noise fraction.
        loops = LoopDetectors(links=(0,), noise_frac=0.08, min_std=0.002)
        loop = Record(k=1, sensor_id="loop-0", kind="loop_density", link=0, value=0.04, faulty=False)
        rows = step_rows([loop], np.array([[0.05, 0.0]]), small_network(1), loops=loops)
        assert_null_rows(rows, [0.04], [[0.05, 0.0]], [[0.08 * 0.05, 0.002]])
        floored = LoopDetectors(links=(0,), noise_frac=0.02, min_std=0.002)
        rows = step_rows([loop], np.array([[0.05]]), small_network(1), loops=floored)
        assert_null_rows(rows, [0.04], [[0.05]], [[0.002]])

    @pytest.mark.parametrize("density, floor", [(np.nan, 0.002), (0.0, 0.0)])
    def test_a_std_that_is_not_positive_is_refused(self, density, floor):
        # A NaN density gives a NaN std, and an empty link under a zero
        # floor (which the detectors themselves refuse) a zero one: no
        # Gaussian takes either.
        loop = Record(k=1, sensor_id="loop-0", kind="loop_density", link=0, value=0.04, faulty=False)
        config = replace(micro_config(horizon=2), network=small_network(1), loops=LoopDetectors(links=(0,)))
        log = replace(compile_log(config, log_of([loop])), std_rules=np.array([[0.1], [floor]]))
        with pytest.raises(ModelConsistencyError, match="std must be positive"):
            measurement_rows(
                log, log.step(1), np.array([[0.05, density]]), np.zeros(0), dirty_buffers(2, max_rows=1)
            )

    def test_block_with_fewer_links_than_the_log_is_refused(self):
        # A loop row on link 2 of a log compiled for three links must not
        # be gathered from a two-link block (a clipping take would read
        # link 1); a step of loop rows alone never reaches speed_map.
        loops = LoopDetectors(links=(2,))
        loop = Record(k=1, sensor_id="loop-2", kind="loop_density", link=2, value=0.04, faulty=False)
        network = small_network(3)
        config = replace(micro_config(horizon=2), network=network, loops=loops)
        log = compile_log(config, log_of([loop]))
        assert log.network.n_links == 3
        for n_links in (2, 4):
            with pytest.raises(ConfigurationError, match="3 links"):
                measurement_rows(
                    log, log.step(1), np.full((n_links, 2), 0.05), np.zeros(0), dirty_buffers(2, max_rows=1)
                )

    def test_speed_rows_read_their_own_links(self):
        # Speed reports on links 2, 0, 2 among loop rows: each speed row's
        # mean is speed_map on that row's link alone, bit for bit, at the
        # given onramp means (link 0 discharges into link 1's onramp).
        # Each loop row takes the detectors' rule, whose floor binds on the particles
        # below density 0.06, and each speed row the speed rule.  Each row's
        # residuals and log densities are the expressions' at those moments.
        net = small_network(3, onramps={1}, offramps={2}, beta=0.1)
        particles = np.random.default_rng(4).uniform(0.0, 0.125, (6, 3)).T
        ramp_means = np.array([0.7])
        loops = LoopDetectors(links=(0, 2), noise_frac=0.1, min_std=0.006)
        gnss = GnssSpec(noise_frac=0.3, min_std=0.25)
        loop = Record(k=1, sensor_id="loop-0", kind="loop_density", link=0, value=0.05, faulty=False)
        ms = [loop, speed_report(9.0, link=2), speed_report(7.0, link=0), replace(loop, link=2), speed_report(8.0, link=2)]
        rows = step_rows(ms, particles, net, ramp_means, loops, gnss)
        assert rows[2].tolist() == [1, 2, 4]
        mean = []
        for row, m in enumerate(ms):
            if row in rows[2]:
                plan = link_plan(net, [m.link])
                mean.append(speed_map(particles, net, plan, ramp_means, dirty_buffers(6, max_links=1))[0])
            else:
                mean.append(particles[m.link])
        rules = np.array([[0.1, 0.006], [0.3, 0.25], [0.3, 0.25], [0.1, 0.006], [0.3, 0.25]])
        std = np.maximum(rules[:, :1] * mean, rules[:, 1:])
        assert_null_rows(rows, [m.value for m in ms], mean, std)
        assert np.any(std[[0, 3]] == 0.006) and np.any(std[[0, 3]] > 0.006)

    @pytest.mark.parametrize("link", [0, 1, 2])
    def test_reports_on_one_link_share_its_speed_map_row(self, link):
        # Two reports on one link, next to each other and beside a report
        # on another link: both rows' moments are the link's own speed map
        # row bit for bit, so equal readings give equal rows.  Link 0
        # discharges into link 1's onramp, whose merge the jammed particles
        # congest; link 1 has the offramp and link 2 the free end.
        net = small_network(3, onramps={1}, offramps={1}, beta=0.1)
        rng = np.random.default_rng(11)
        particles = rng.uniform(0.0, 0.125, (8, 3)).T
        particles[:, :3] = 0.125
        ramp_means = np.array([0.9])
        other = (link + 1) % 3
        ms = [speed_report(9.0, link), speed_report(9.0, link), speed_report(7.0, other)]
        z, log_g0, tested = rows = step_rows(ms, particles, net, ramp_means)
        assert tested.tolist() == [0, 1, 2]
        expected = speed_map(particles, net, link_plan(net, [link]), ramp_means, dirty_buffers(8, max_links=1))[0]
        std = np.maximum(GnssSpec().noise_frac * expected, GnssSpec().min_std)
        assert_null_rows((z[:2], log_g0[:2]), [9.0, 9.0], [expected] * 2, [std] * 2)
        assert z[0].tobytes() == z[1].tobytes() and log_g0[0].tobytes() == log_g0[1].tobytes()

    def test_fault_mixture_favors_zero_reports(self):
        # Correct fault model at y = 0 dwarfs the null for any particle
        # predicting at least 5 m/s: on one link with qmax 4 and dt 10 the
        # predicted speed is min(vf, 0.4 / rho), here 5, 15 and vf = 20.
        # With the speed rule's std max(0.2 * mean, 0.5), every residual of
        # a zero reading is -5.
        particles = np.array([[0.08, 0.4 / 15.0, 0.01]])
        z, log_g0, _ = step_rows([speed_report(0.0)], particles, small_network(1))
        np.testing.assert_allclose(z, [[-5.0, -5.0, -5.0]])
        log_g1 = fault_log_density(np.zeros(1), "np_correct", FaultConfig(), zero_std=0.5)
        ratio = np.exp(log_g1[:, None] - log_g0)
        assert np.all(ratio > 1e3)

    def test_near_zero_model_ignores_plausible_speeds(self):
        # Incorrect fault model at y = 30 has essentially no density, so
        # random-speed faults are not flagged.
        log_g1 = fault_log_density(np.array([30.0]), "np_incorrect", FaultConfig(), zero_std=0.5)
        assert float(np.exp(log_g1[0])) < 1e-300

    def test_fault_mixture_integrates_to_one(self):
        # Quadrature oracle over the measurement axis; the truncated
        # component carries its normalization constant.
        ys = np.linspace(-5.0, 120.0, 20_001)
        dens = np.exp(fault_log_density(ys, "np_correct", FaultConfig(), zero_std=0.5))
        integral = np.trapezoid(dens, ys)
        assert integral == pytest.approx(1.0, abs=2e-3)

    @pytest.mark.parametrize("value", [1e200, 1.7976931348623157e308])
    def test_unexplainable_value_has_zero_density_without_warning(self, value):
        # z * z (and for the largest floats z itself) overflows: the log
        # density is -inf, and a RuntimeWarning would fail the test.
        loop = Record(k=1, sensor_id="loop-0", kind="loop_density", link=0, value=value, faulty=False)
        loops = LoopDetectors(links=(0,), noise_frac=0.1, min_std=0.002)
        z, log_g0, _ = step_rows([loop], np.array([[0.01]]), small_network(1), loops=loops)
        assert z[0, 0] > 1e200
        assert log_g0[0, 0] == -np.inf
        for mode in ("np_correct", "np_incorrect"):
            assert fault_log_density(np.array([value]), mode, FaultConfig(), 0.5)[0] == -np.inf


class TestBuildSensorModels:
    """How one step's measurements become gate inputs: null-model rows for
    every measurement, a fault model per likelihood-ratio mode."""

    def _rows(self):
        # One link with qmax 4 and dt 10: the predicted speed is
        # min(vf, 0.4 / rho), 10 and 20 / 3 m/s for these particles.
        loop = Record(k=1, sensor_id="loop-0", kind="loop_density", link=0, value=0.05, faulty=False)
        particles = np.array([[0.04, 0.06]])
        return step_rows(
            [loop, speed_report(12.0)], particles, small_network(1), loops=LoopDetectors(links=(0,))
        )

    def test_fisher_mode(self):
        # The significance gate needs no fault model.
        with pytest.raises(ConfigurationError):
            fault_log_density(np.array([12.0]), "fisher", FaultConfig(), zero_std=0.5)

    def test_np_modes(self):
        values = np.array([0.0, 12.0, 30.0])
        incorrect = fault_log_density(values, "np_incorrect", FaultConfig(), zero_std=0.5)
        np.testing.assert_array_equal(incorrect, gaussian_log_pdf(values, 0.0, 0.5))
        correct = fault_log_density(values, "np_correct", FaultConfig(), zero_std=0.5)
        assert correct.shape == (3,)
        # The mixture puts a third of its mass near zero, the rest broad.
        assert correct[0] == pytest.approx(incorrect[0] + np.log(1 / 3), abs=5e-3)
        assert np.all(correct[1:] > incorrect[1:])

    def test_none_mode(self):
        with pytest.raises(ConfigurationError):
            fault_log_density(np.array([12.0]), "none", FaultConfig(), zero_std=0.5)

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            fault_log_density(np.array([12.0]), "bogus", FaultConfig(), zero_std=0.5)

    def test_h0_uses_predicted_speeds(self):
        # The loop row's std is the detectors' 0.1 * density, the speed
        # row's the probes' 0.2 * speed.
        z, log_g0, tested = self._rows()
        assert tested.tolist() == [1]
        mean = np.array([[0.04, 0.06], [10.0, 20.0 / 3.0]])
        std = np.array([[0.004, 0.006], [2.0, 4.0 / 3.0]])
        values = np.array([[0.05], [12.0]])
        np.testing.assert_allclose(z, [[2.5, -5.0 / 3.0], [1.0, 4.0]])
        np.testing.assert_allclose(log_g0, gaussian_log_pdf(values, mean, std))

    def test_unconfigured_loop_rejected(self):
        # A log's kind is a bool column, so an unknown kind cannot reach the
        # filter: the log reader refuses it at its line.
        config = micro_config(horizon=5)  # loops on links 0 and 2
        log = log_of([Record(k=4, sensor_id="loop-1", kind="loop_density", link=1, value=0.1, faulty=False)])
        with pytest.raises(DataError, match="'loop-1' at step 4: no 'loop_density' sensor configured on link 1"):
            run_traffic_filter(config, log, FilterVariant("fisher", 0.01), RandomSource(1))


# Moments spread over the float range, with residuals near 1.5e154, where
# (-0.5 * z) * z is finite but -0.5 * (z * z) is -inf.
_wide = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([1.5e154, -1.5e154, 1.9e154, 1e200, -1e200, 1.7976931348623157e308]),
)
_stds = st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1.0, 5e-324, 1e-300, 1e300]))


class TestRunBuffers:
    """``measurement_rows`` and the in-place helpers it writes its rows with
    give the same bits with a run's work buffers, dirty from earlier steps
    and sized for more rows than a step has, as with fresh buffers of the
    step's own size."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_every_step_of_a_log_gives_the_same_bits(self, seed, n_particles, spare):
        config = micro_config(horizon=8)
        log = compile_log(config, simulate_seed(config, seed % 1000)[1])
        max_rows, max_links = np.diff(log.offsets, axis=0).max(axis=0).tolist()
        work = dirty_buffers(n_particles, max_rows=max_rows + spare, max_links=max_links + spare)
        rng = np.random.default_rng(seed)
        for k in range(1, config.horizon):
            # Empty links (freeflow speeds) among the particles' densities.
            particles = rng.uniform(0.0, 0.125, size=(config.network.n_links, n_particles))
            particles[rng.random(particles.shape) < 0.2] = 0.0
            ramp_means = config.demand_table[k, 0, 1:]
            rows, speeds = step = log.step(k)
            exact = StepBuffers(n_particles, max_rows=rows.stop - rows.start, max_links=speeds.stop - speeds.start)
            expected = measurement_rows(log, step, particles, ramp_means, exact)
            got = measurement_rows(log, step, particles, ramp_means, work)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    @staticmethod
    def check_in_place(values, mean, std, spare):
        """``_residual`` writing z over the means and ``_log_pdf_of_z``
        writing log(std) over the stds, as ``measurement_rows`` calls them,
        give the bits of their expressions on fresh buffers of their size
        and on dirty, larger ones."""
        z, log_pdf = null_expressions(values, mean, std)
        n_rows, n_particles = mean.shape
        for work in (StepBuffers(n_particles, max_rows=n_rows), dirty_buffers(n_particles, max_rows=n_rows + spare)):
            z_out, log_std = work.mean[:n_rows], work.std[:n_rows]
            np.copyto(z_out, mean)
            np.copyto(log_std, std)
            got = _residual(values[:, None], z_out, log_std, out=z_out)
            assert got.tobytes() == z.tobytes()
            got = _log_pdf_of_z(got, log_std, out=work.log_density[:n_rows], log_std=log_std)
            assert got.tobytes() == log_pdf.tobytes()
            assert log_std.tobytes() == np.log(std).tobytes()
        return log_pdf

    @given(st.data(), st.integers(1, 4), st.integers(1, 3), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_in_place_helpers_keep_the_expressions_order(self, data, n_rows, n_particles, spare):
        row = st.lists(_wide, min_size=n_particles, max_size=n_particles)
        values = np.array(data.draw(st.lists(_wide, min_size=n_rows, max_size=n_rows)))
        mean = np.array(data.draw(st.lists(row, min_size=n_rows, max_size=n_rows)))
        std_row = st.lists(_stds, min_size=n_particles, max_size=n_particles)
        std = np.array(data.draw(st.lists(std_row, min_size=n_rows, max_size=n_rows)))
        self.check_in_place(values, mean, std, spare)

    def test_residuals_at_the_square_overflow_edge(self):
        # z = 1.5e154: (-0.5 * z) * z is -1.125e308, while -0.5 * (z * z)
        # would be -inf.
        log_pdf = self.check_in_place(np.zeros(1), np.array([[-1.5e154, 1.5e154]]), np.ones((1, 2)), 1)
        assert np.isfinite(log_pdf).all()


class TestMeasurementLog:
    def test_round_trip(self, tmp_path):
        ms = [
            Record(k=1, sensor_id="loop-0", kind="loop_density", link=0, value=0.0512345678901, faulty=False),
            Record(k=2, sensor_id="g-0", kind="gnss_speed", link=3, value=0.0, faulty=True),
        ]
        path = tmp_path / "log.csv"
        write_measurement_log(path, log_of(ms))
        log = read_measurement_log(path)
        assert records_of(log) == ms
        assert log.source == str(path) and log.lines.tolist() == [2, 3]

    def test_empty_log_round_trip(self, tmp_path):
        path = tmp_path / "log.csv"
        write_measurement_log(path, log_of([]))
        assert path.read_bytes() == b"k,sensor_id,kind,link,value,faulty\r\n"
        log = read_measurement_log(path)
        assert len(log) == 0 and log.steps.dtype == np.intp and log.sensor_ids.dtype == object

    def test_lines_follow_quoted_newlines(self, tmp_path):
        # A quoted sensor id may span lines; each row keeps the line it ends on.
        path = tmp_path / "log.csv"
        path.write_text('k,sensor_id,kind,link,value,faulty\n1,"a\nb",gnss_speed,0,1.0,0\n2,c,gnss_speed,0,1.0,0\n')
        log = read_measurement_log(path)
        assert log.sensor_ids.tolist() == ["a\nb", "c"] and log.lines.tolist() == [3, 4]

    @pytest.mark.parametrize("field, name", [(0, "k"), (3, "link")])
    @pytest.mark.parametrize("number", [2**63, -(2**63) - 1])
    def test_integer_outside_64_bits_reports_line(self, tmp_path, field, name, number):
        row = ["1", "s", "gnss_speed", "0", "12.5", "0"]
        row[field] = str(number)
        path = tmp_path / "bad.csv"
        path.write_text("k,sensor_id,kind,link,value,faulty\n1,r,gnss_speed,0,1.0,1\n" + ",".join(row) + "\n")
        with pytest.raises(DataError, match=rf"bad\.csv:3: {name} must lie in \[-2\*\*63, 2\*\*63\), got '{number}'"):
            read_measurement_log(path)

    def test_numbers_in_another_form_are_refused(self, tmp_path):
        # int() and float() read this row as step 7, link 0, value 0.001,
        # which the writer writes back as another row.
        path = tmp_path / "log.csv"
        path.write_text("k,sensor_id,kind,link,value,faulty\n1,r,gnss_speed,0,1.0,1\n 0_7,loop-0,loop_density,+0,1e-3,0\n")
        with pytest.raises(DataError, match=r"log\.csv:3: k must be written '7', got ' 0_7'$"):
            read_measurement_log(path)

    def test_first_refused_row_in_file_order_is_named(self, tmp_path):
        # Row 3 breaks a rule in one column and row 4 holds an unreadable
        # field in another: the reader names row 3, whatever the column.
        path = tmp_path / "log.csv"
        path.write_text(
            "k,sensor_id,kind,link,value,faulty\n"
            "1,r,gnss_speed,0,1.0,1\n"
            "1,s,gnss_speed,0,-1.0,0\n"
            "x,t,gnss_speed,0,1.0,0\n"
            "1,u,gnss_speed,0,1.0,0,0\n"
        )
        with pytest.raises(DataError, match=r"log\.csv:3: value must be finite and nonnegative, got '-1.0'$"):
            read_measurement_log(path)

    def test_columns_must_match(self):
        with pytest.raises(ContractViolation, match="'links'"):
            MeasurementLog(steps=[1, 2], sensor_ids=["a", "b"], speed=[True, True], links=[0], values=[1.0, 2.0], faulty=[False, False])

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError):
            read_measurement_log(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for row, problem in (
            ("1,s,gnss_speed,0,notafloat,0", "value must be a number, got 'notafloat'"),
            ("1,s,gnss_speed,0,12.5,2", "faulty must be 0 or 1, got '2'"),
            ("1,s,gnss_speed,0,12.5,-1", "faulty must be 0 or 1, got '-1'"),
            ("1,s,gnss_speed,0,12.5,", "faulty must be 0 or 1, got ''"),
            ("1,s,radar,0,12.5,0", r"kind must be one of \('loop_density', 'gnss_speed'\), got 'radar'"),
        ):
            path.write_text(f"k,sensor_id,kind,link,value,faulty\n1,r,gnss_speed,0,1.0,1\n{row}\n")
            with pytest.raises(DataError, match=rf"bad\.csv:3: .*{problem}"):
                read_measurement_log(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(
            "k,sensor_id,kind,link,value,faulty\n"
            "1,s,gnss_speed,0,12.5,0\n"
            f"1,t,gnss_speed,0,{value},0\n"
        )
        with pytest.raises(DataError, match=rf"bad\.csv:3: value must be finite and nonnegative, got '{value}'"):
            read_measurement_log(path)

    @pytest.mark.parametrize("value", ["-3.5", "-1e-300", "-1e300"])
    def test_negative_value_reports_line(self, tmp_path, value):
        # Densities and speeds are nonnegative: every generator clamps at
        # zero and fault draws are positive.
        path = tmp_path / "bad.csv"
        path.write_text(
            "k,sensor_id,kind,link,value,faulty\n"
            "1,s,gnss_speed,0,0.0,0\n"
            f"1,loop-0,loop_density,0,{value},0\n"
        )
        with pytest.raises(DataError, match=rf"bad\.csv:3: value must be finite and nonnegative, got '{value}'"):
            read_measurement_log(path)

    def test_write_is_atomic(self, tmp_path, monkeypatch):
        path = tmp_path / "log.csv"
        ms = [Record(k=1, sensor_id="g", kind="gnss_speed", link=0, value=1.5, faulty=False)]
        write_measurement_log(path, log_of(ms))
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("gatedpf.fileio.os.replace", failing_replace)
        with pytest.raises(OSError):
            write_measurement_log(path, log_of(ms * 3))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv"]
