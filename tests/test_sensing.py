"""Unit tests for synthetic sensing, fault injection, and measurement models."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from gatedpf.ctm import FreewayNetwork, LinkParams, speed_map
from gatedpf.errors import ConfigurationError, DataError
from gatedpf.harness import FilterVariant, run_traffic_filter
from gatedpf.rng import RandomSource
from gatedpf.sensing import (
    FaultConfig,
    GnssSpec,
    LabeledMeasurement,
    LoopDetectorSpec,
    fault_log_density,
    gaussian_log_pdf,
    inject_faults,
    measurement_rows,
    read_measurement_log,
    sample_gnss_speeds,
    sample_loop_detectors,
    standardize,
    vehicle_counts,
    write_measurement_log,
)

from conftest import small_network
from test_harness import micro_config


class TestSpecs:
    def test_loop_spec_noise_exclusivity(self):
        with pytest.raises(ConfigurationError):
            LoopDetectorSpec(link=0, noise_frac=0.1, noise_abs=0.01)
        assert LoopDetectorSpec(link=0).noise_frac == 0.10  # default is relative

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
        state = np.array([0.03, 0.05])
        specs = [LoopDetectorSpec(link=0, noise_frac=0.0), LoopDetectorSpec(link=1, noise_frac=0.0)]
        out = sample_loop_detectors(state, specs, RandomSource(1), k=3)
        assert [m.value for m in out] == [0.03, 0.05]
        assert all(m.kind == "loop_density" and not m.faulty for m in out)
        assert out[0].k == 3

    def test_sample_mean_matches_truth(self):
        # 1e4 draws at one detector: mean within 4 standard errors.
        state = np.array([0.05])
        spec = LoopDetectorSpec(link=0, noise_frac=0.1)
        rng = RandomSource(5)
        values = [
            sample_loop_detectors(state, [spec], rng, k)[0].value for k in range(10_000)
        ]
        sd = 0.1 * 0.05
        assert abs(np.mean(values) - 0.05) < 4 * sd / np.sqrt(len(values))

    def test_negative_draws_clamped(self):
        state = np.array([0.001])
        spec = LoopDetectorSpec(link=0, noise_abs=0.05)
        rng = RandomSource(2)
        values = [sample_loop_detectors(state, [spec], rng, k)[0].value for k in range(500)]
        assert min(values) == 0.0  # clamping visibly active at this noise level
        assert all(v >= 0.0 for v in values)


class TestGnssSampling:
    def test_zero_penetration_is_empty(self):
        out = sample_gnss_speeds(
            np.array([20.0]), np.array([50]), GnssSpec(penetration=0.0), RandomSource(1), k=0
        )
        assert out == []

    def test_full_penetration_zero_noise(self):
        speeds = np.array([20.0, 10.0])
        counts = np.array([3, 2])
        out = sample_gnss_speeds(
            speeds, counts, GnssSpec(penetration=1.0, noise_frac=0.0), RandomSource(1), k=7
        )
        assert len(out) == 5
        assert sorted(m.value for m in out) == [10.0, 10.0, 20.0, 20.0, 20.0]
        assert len({m.sensor_id for m in out}) == 5

    def test_expected_report_count(self):
        # Binomial oracle over 1e3 seeded draws.
        speeds = np.full(10, 15.0)
        counts = np.full(10, 40)
        spec = GnssSpec(penetration=0.05)
        totals = [
            len(sample_gnss_speeds(speeds, counts, spec, RandomSource(seed), 0))
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
        return [
            LabeledMeasurement(k=0, sensor_id=f"g{i}", kind="gnss_speed", link=0, value=value, faulty=False)
            for i in range(n)
        ]

    def test_zero_probability_identity(self):
        ms = self._gnss(100)
        out = inject_faults(ms, FaultConfig(probability=0.0), RandomSource(1))
        assert out == ms

    def test_degenerate_all_zero(self):
        ms = self._gnss(50)
        out = inject_faults(ms, FaultConfig(probability=1.0, zero_weight=1.0), RandomSource(1))
        assert all(m.faulty and m.value == 0.0 for m in out)

    def test_loops_pass_through(self):
        loop = LabeledMeasurement(k=0, sensor_id="l", kind="loop_density", link=0, value=0.05, faulty=False)
        out = inject_faults([loop], FaultConfig(probability=1.0), RandomSource(1))
        assert out[0] is loop

    def test_fault_statistics(self):
        # 1e4 measurements at defaults: faulty fraction within 4 SE of 0.30,
        # zero-valued-among-faulty within 4 SE of 1/3, values nonnegative.
        n = 10_000
        out = inject_faults(self._gnss(n), FaultConfig(), RandomSource(9))
        faulty = [m for m in out if m.faulty]
        frac = len(faulty) / n
        assert abs(frac - 0.30) < 4 * np.sqrt(0.3 * 0.7 / n)
        zero_frac = sum(m.value == 0.0 for m in faulty) / len(faulty)
        assert abs(zero_frac - 1 / 3) < 4 * np.sqrt((1 / 3) * (2 / 3) / len(faulty))
        assert all(m.value > 0.0 for m in faulty if m.value != 0.0)

    def test_gaussian_faults_strictly_positive(self):
        # Truncation by resampling: no clamped atoms at zero from the
        # Gaussian branch, so value == 0 identifies the stopped-car fault.
        cfg = FaultConfig(probability=1.0, zero_weight=0.0, speed_mean=1.0, speed_std=10.0)
        out = inject_faults(self._gnss(2000), cfg, RandomSource(3))
        assert min(m.value for m in out) > 0.0


def speed_report(value, link=0):
    return LabeledMeasurement(k=1, sensor_id="g", kind="gnss_speed", link=link, value=value, faulty=False)


class TestMeasurementModels:
    def test_loop_model_moments(self):
        spec = LoopDetectorSpec(link=1, noise_frac=0.1, min_std=0.002)
        states = np.array([[0.0, 0.05], [0.0, 0.001]])
        loop = LabeledMeasurement(k=1, sensor_id="loop-1", kind="loop_density", link=1, value=0.04, faulty=False)
        values, mean, std, is_speed = measurement_rows([loop], states, small_network(2), [], {1: spec}, GnssSpec())
        np.testing.assert_allclose(mean, [[0.05, 0.001]])
        np.testing.assert_allclose(std, [[0.005, 0.002]])  # floor binds on particle 2
        assert values.tolist() == [0.04] and not is_speed[0]

    def test_loop_model_absolute_noise(self):
        spec = LoopDetectorSpec(link=0, noise_abs=0.004, min_std=0.002)
        loop = LabeledMeasurement(k=1, sensor_id="loop-0", kind="loop_density", link=0, value=0.04, faulty=False)
        _, mean, std, _ = measurement_rows([loop], np.array([[0.05], [0.0]]), small_network(1), [], {0: spec}, GnssSpec())
        np.testing.assert_array_equal(mean, [[0.05, 0.0]])
        np.testing.assert_array_equal(std, [[0.004, 0.004]])
        floored = LoopDetectorSpec(link=0, noise_abs=0.001, min_std=0.002)
        _, _, std, _ = measurement_rows([loop], np.array([[0.05]]), small_network(1), [], {0: floored}, GnssSpec())
        np.testing.assert_array_equal(std, [[0.002]])

    def test_speed_rows_read_their_own_links(self):
        # Speed reports on links 2, 0, 2 among loop rows: each speed row's
        # mean is speed_map on that row's link alone, bit for bit, at the
        # given onramp means (link 0 discharges into link 1's onramp).
        net = small_network(3, onramps={1}, offramps={2}, beta=0.1)
        particles = np.random.default_rng(4).uniform(0.0, 0.125, (6, 3))
        ramp_means = np.array([0.7])
        loops = {0: LoopDetectorSpec(link=0), 2: LoopDetectorSpec(link=2)}
        loop = LabeledMeasurement(k=1, sensor_id="loop-0", kind="loop_density", link=0, value=0.05, faulty=False)
        ms = [loop, speed_report(9.0, link=2), speed_report(7.0, link=0), replace(loop, link=2), speed_report(8.0, link=2)]
        values, mean, std, is_speed = measurement_rows(ms, particles, net, ramp_means, loops, GnssSpec())
        assert is_speed.tolist() == [False, True, True, False, True]
        assert values.tolist() == [0.05, 9.0, 7.0, 0.05, 8.0]
        for row, m in enumerate(ms):
            if is_speed[row]:
                expected = speed_map(particles, net, [m.link], ramp_means)[:, 0]
            else:
                expected = particles[:, m.link]
            assert mean[row].tobytes() == expected.tobytes()
        assert mean[1].tobytes() == mean[4].tobytes()

    def test_fault_mixture_favors_zero_reports(self):
        # Correct fault model at y = 0 dwarfs the null for any particle
        # predicting at least 5 m/s: on one link with qmax 4 and dt 10 the
        # predicted speed is min(vf, 0.4 / rho), here 5, 15 and vf = 20.
        particles = np.array([[0.08], [0.4 / 15.0], [0.01]])
        values, mean, std, _ = measurement_rows(
            [speed_report(0.0)], particles, small_network(1), [], {}, GnssSpec()
        )
        np.testing.assert_allclose(mean, [[5.0, 15.0, 20.0]])
        _, log_g0 = standardize(values, mean, std)
        log_g1 = fault_log_density(values, "np_correct", FaultConfig(), zero_std=0.5)
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
        z, log_g0 = standardize(np.array([value]), np.array([[0.01]]), np.array([[0.002]]))
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
        loop = LabeledMeasurement(k=1, sensor_id="loop-0", kind="loop_density", link=0, value=0.05, faulty=False)
        particles = np.array([[0.04], [0.06]])
        return measurement_rows(
            [loop, speed_report(12.0)], particles, small_network(1), [], {0: LoopDetectorSpec(link=0)}, GnssSpec()
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
        values, mean, std, is_speed = self._rows()
        assert is_speed.tolist() == [False, True]
        np.testing.assert_allclose(mean[1], [10.0, 20.0 / 3.0])
        np.testing.assert_allclose(std[1], [2.0, 4.0 / 3.0])
        np.testing.assert_allclose(mean[0], [0.04, 0.06])
        z, log_g0 = standardize(values, mean, std)
        np.testing.assert_allclose(z[1], [1.0, 4.0])
        np.testing.assert_allclose(log_g0, gaussian_log_pdf(values[:, None], mean, std))

    def test_unconfigured_loop_rejected(self):
        config = micro_config(horizon=5)  # loops on links 0 and 2
        ms = [LabeledMeasurement(k=4, sensor_id="loop-1", kind="loop_density", link=1, value=0.1, faulty=False)]
        with pytest.raises(DataError, match="no 'loop_density' sensor configured on link 1"):
            run_traffic_filter(config, ms, FilterVariant("fisher", 0.01), RandomSource(1))
        bad_kind = [replace(ms[0], kind="radar")]
        with pytest.raises(DataError, match="no 'radar' sensor configured on link 1"):
            run_traffic_filter(config, bad_kind, FilterVariant("fisher", 0.01), RandomSource(1))


class TestMeasurementLog:
    def test_round_trip(self, tmp_path):
        ms = [
            LabeledMeasurement(k=1, sensor_id="loop-0", kind="loop_density", link=0, value=0.0512345678901, faulty=False),
            LabeledMeasurement(k=2, sensor_id="g-0", kind="gnss_speed", link=3, value=0.0, faulty=True),
        ]
        path = tmp_path / "log.csv"
        write_measurement_log(path, ms)
        assert read_measurement_log(path) == ms

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError):
            read_measurement_log(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for row, problem in (
            ("1,s,gnss_speed,0,notafloat,0", "notafloat"),
            ("1,s,gnss_speed,0,12.5,2", "faulty label must be 0 or 1"),
            ("1,s,gnss_speed,0,12.5,-1", "faulty label must be 0 or 1"),
            ("1,s,gnss_speed,0,12.5,", "faulty label must be 0 or 1"),
            ("1,s,radar,0,12.5,0", "unknown measurement kind 'radar'"),
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
        with pytest.raises(DataError, match=r"bad\.csv:3: non-finite"):
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
        with pytest.raises(DataError, match=rf"bad\.csv:3: negative value '{value}'"):
            read_measurement_log(path)

    def test_write_is_atomic(self, tmp_path, monkeypatch):
        path = tmp_path / "log.csv"
        ms = [LabeledMeasurement(k=1, sensor_id="g", kind="gnss_speed", link=0, value=1.5, faulty=False)]
        write_measurement_log(path, ms)
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("gatedpf.fileio.os.replace", failing_replace)
        with pytest.raises(OSError):
            write_measurement_log(path, ms * 3)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv"]
