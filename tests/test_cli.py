"""End-to-end tests of the command-line interface."""
from __future__ import annotations

import contextlib
import errno
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import gatedpf
from gatedpf import default_scenario_dict
from gatedpf.cli import main
from gatedpf.errors import ConfigurationError
from gatedpf.fileio import read_matrix_csv
from gatedpf.harness import read_decision_log, read_metrics_long
from gatedpf.scenario import scenario_from_dict
from gatedpf.sensing import read_measurement_log

from test_scenario import tiny_scenario_dict


@pytest.fixture
def scenario_path(tmp_path) -> Path:
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(tiny_scenario_dict()))
    return path


TINY_YAML = yaml.safe_dump(tiny_scenario_dict())


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def level(variant: str, alpha: str) -> tuple[str, ...]:
    """A filter run's ``--alpha`` arguments: none for the ungated mode,
    which refuses a level."""
    return () if variant == "none" else ("--alpha", alpha)


class TestSimulate:
    def test_writes_trajectory_and_log(self, scenario_path, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--scenario", scenario_path, "--out", out, "--quiet") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        density = read_matrix_csv(out / "true_density.csv")
        assert density.shape == (3, 26)  # links x (horizon + 1) states
        log = read_measurement_log(out / "measurements.csv")
        assert len(log) and 1 <= log.steps.min() and log.steps.max() <= 24

    def test_horizon_one_trajectory_has_two_states(self, scenario_path, tmp_path):
        doc = tiny_scenario_dict()
        doc["network"]["links"] = doc["network"]["links"][:1]
        doc["sensors"]["loops"]["links"] = [0]
        doc["run"]["horizon"] = 1
        path = tmp_path / "one.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "one_out"
        assert run_cli("simulate", "--scenario", path, "--out", out, "--quiet") == 0
        density = read_matrix_csv(out / "true_density.csv")
        assert density.shape == (1, 2)
        assert len(read_measurement_log(out / "measurements.csv")) == 0

    def test_byte_identical_reruns(self, scenario_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "--scenario", scenario_path, "--out", out_a, "--quiet")
        run_cli("simulate", "--scenario", scenario_path, "--out", out_b, "--quiet")
        for name in ("true_density.csv", "true_speeds.csv", "measurements.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_faulty_fraction_near_configured(self, scenario_path, tmp_path):
        out = tmp_path / "sim"
        run_cli("simulate", "--scenario", scenario_path, "--out", out, "--quiet")
        log = read_measurement_log(out / "measurements.csv")
        labels = log.faulty[log.speed]
        frac = np.mean(labels)
        se = np.sqrt(0.4 * 0.6 / len(labels))
        assert abs(frac - 0.4) < 4 * se

    def test_invalid_scenario_no_partial_output(self, tmp_path):
        doc = tiny_scenario_dict()
        doc["filter"]["alphas"] = [2.0]
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "never"
        assert run_cli("simulate", "--scenario", path, "--out", out, "--quiet") == 2
        assert not out.exists()


class TestFilter:
    def test_filter_writes_estimates_and_decisions(self, scenario_path, tmp_path):
        sim = tmp_path / "sim"
        run_cli("simulate", "--scenario", scenario_path, "--out", sim, "--quiet")
        out = tmp_path / "flt"
        code = run_cli(
            "filter", "--scenario", scenario_path, "--log", sim / "measurements.csv",
            "--variant", "fisher", "--alpha", "0.01", "--out", out, "--quiet",
        )
        assert code == 0
        estimates = read_matrix_csv(out / "estimated_density.csv")
        assert estimates.shape == (3, 24)  # links x assimilated steps
        decisions = read_decision_log(out / "decisions.csv")
        assert len(decisions) and set(decisions["test_kind"].tolist()) == {"fisher"}

    def test_variant_none_has_no_decisions(self, scenario_path, tmp_path):
        sim = tmp_path / "sim"
        run_cli("simulate", "--scenario", scenario_path, "--out", sim, "--quiet")
        out = tmp_path / "flt"
        run_cli(
            "filter", "--scenario", scenario_path, "--log", sim / "measurements.csv",
            "--variant", "none", "--out", out, "--quiet",
        )
        assert read_decision_log(out / "decisions.csv").shape == (0,)

    def test_tiny_alpha_rejects_almost_nothing(self, scenario_path, tmp_path):
        sim = tmp_path / "sim"
        run_cli("simulate", "--scenario", scenario_path, "--out", sim, "--quiet")
        out = tmp_path / "flt"
        run_cli(
            "filter", "--scenario", scenario_path, "--log", sim / "measurements.csv",
            "--variant", "fisher", "--alpha", "1e-9", "--out", out, "--quiet",
        )
        rejected = int(read_decision_log(out / "decisions.csv")["rejected"].sum())
        # p-values below 1e-9 require an extreme statistic; the dominant
        # survivors are the exact-zero stopped-car reports.
        log = read_measurement_log(sim / "measurements.csv")
        zero_faults = np.count_nonzero(log.speed & log.faulty & (log.values == 0.0))
        assert rejected <= 2 * zero_faults + 1

    def test_extreme_faults_mostly_rejected(self, tmp_path):
        # Fault probability 1 with a fault model centred far from the truth:
        # the correct-model gate should reject the clear majority.
        doc = tiny_scenario_dict()
        doc["sensors"]["faults"]["probability"] = 1.0
        doc["run"]["horizon"] = 11
        path = tmp_path / "hotfault.yaml"
        path.write_text(yaml.safe_dump(doc))
        sim = tmp_path / "sim"
        run_cli("simulate", "--scenario", path, "--out", sim, "--quiet")
        out = tmp_path / "flt"
        run_cli(
            "filter", "--scenario", path, "--log", sim / "measurements.csv",
            "--variant", "np_correct", "--alpha", "0.01", "--out", out, "--quiet",
        )
        decisions = read_decision_log(out / "decisions.csv")
        assert len(decisions)
        assert decisions["rejected"].mean() > 0.5

    @pytest.mark.parametrize(
        "variant, alpha, message",
        [
            ("none", "0.7", "ungated variant takes no alpha"),
            ("fisher", "1.5", "variant 'fisher' needs alpha in (0, 1), got 1.5"),
        ],
    )
    def test_a_level_the_mode_cannot_take_exits_2(self, scenario_path, tmp_path, capsys, variant, alpha, message):
        # The ungated mode refuses any level, as a gated mode refuses one
        # outside (0, 1): one error line, before anything is written.
        sim = tmp_path / "sim"
        run_cli("simulate", "--scenario", scenario_path, "--out", sim, "--quiet")
        capsys.readouterr()
        out = tmp_path / "flt"
        code = run_cli(
            "filter", "--scenario", scenario_path, "--log", sim / "measurements.csv",
            "--variant", variant, "--alpha", alpha, "--out", out, "--quiet",
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_malformed_log_exits_2(self, scenario_path, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("k,sensor_id,kind,link,value,faulty\n1,s,gnss_speed,0,xx,0\n")
        code = run_cli(
            "filter", "--scenario", scenario_path, "--log", bad,
            "--variant", "fisher", "--out", tmp_path / "o", "--quiet",
        )
        assert code == 2

    def test_undecodable_log_exits_2(self, scenario_path, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"k,sensor_id,kind,link,value,faulty\n1,s,gnss_speed,0,\xff\xfe,0\n")
        code = run_cli(
            "filter", "--scenario", scenario_path, "--log", bad,
            "--variant", "fisher", "--out", tmp_path / "o", "--quiet",
        )
        assert code == 2
        assert "bad.csv: not a text file" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_log_exits_2(self, scenario_path, tmp_path, capsys, kind):
        log = tmp_path / "log.csv"
        if kind == "directory":
            log.mkdir()
        out = tmp_path / "o"
        code = run_cli(
            "filter", "--scenario", scenario_path, "--log", log,
            "--variant", "none", "--out", out, "--quiet",
        )
        assert code == 2
        assert f"{log}: cannot read the measurement log" in capsys.readouterr().err
        assert not out.exists()

    def test_log_is_checked_once_per_call(self, scenario_path, tmp_path, monkeypatch):
        # The reader checks the file's format; whether the rows fit the
        # scenario is one vectorized check over the whole log.
        from gatedpf import harness

        sim = tmp_path / "sim"
        assert run_cli("simulate", "--scenario", scenario_path, "--out", sim, "--quiet") == 0
        calls = []
        check = harness._check_log
        monkeypatch.setattr(harness, "_check_log", lambda c, log: (calls.append(len(log)), check(c, log)))
        for variant in ("none", "np_correct"):
            assert run_cli(
                "filter", "--scenario", scenario_path, "--log", sim / "measurements.csv",
                "--variant", variant, *level(variant, "0.01"), "--out", tmp_path / variant, "--quiet",
            ) == 0
        n = len(read_measurement_log(sim / "measurements.csv"))
        assert calls == [n, n] and n > 0

    @pytest.mark.parametrize("link", [-1, 3])
    def test_out_of_network_link_exits_2(self, scenario_path, tmp_path, capsys, link):
        # The tiny scenario has links 0..2; neither row may be gated against
        # some other link or crash the filter, and the message names the
        # row's line in the log.
        sim = tmp_path / "sim"
        run_cli("simulate", "--scenario", scenario_path, "--out", sim, "--quiet")
        lines = (sim / "measurements.csv").read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines + [f"5,gnss-x,gnss_speed,{link},12.5,0"]) + "\n")
        out = tmp_path / "o"
        code = run_cli(
            "filter", "--scenario", scenario_path, "--log", bad,
            "--variant", "fisher", "--alpha", "0.01", "--out", out, "--quiet",
        )
        assert code == 2
        assert f"bad.csv:{len(lines) + 1}: measurement 'gnss-x' at step 5 names link {link}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,gnss-x,gnss_speed,1,12.5,0", "at step 0 outside assimilation window [1, 24]"),
            ("25,gnss-x,gnss_speed,1,12.5,0", "at step 25 outside assimilation window [1, 24]"),
            ("5,loop-1,loop_density,1,0.02,0", "no 'loop_density' sensor configured on link 1"),
        ],
    )
    def test_row_outside_the_scenario_exits_2_naming_its_line(self, scenario_path, tmp_path, capsys, row, message):
        # A step outside 1 .. horizon - 1, or a loop reading from a link
        # without a detector (the tiny scenario's loops are on 0 and 2),
        # is reported at its line before any output is written.
        bad = tmp_path / "bad.csv"
        bad.write_text(f"k,sensor_id,kind,link,value,faulty\n1,loop-0,loop_density,0,0.02,0\n{row}\n")
        out = tmp_path / "o"
        code = run_cli(
            "filter", "--scenario", scenario_path, "--log", bad,
            "--variant", "none", "--out", out, "--quiet",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.csv:3: measurement" in err and message in err
        assert not out.exists()


    @staticmethod
    def _log_with_loop_value(scenario_path, tmp_path, value) -> Path:
        """A simulated log whose first loop reading is replaced by ``value``."""
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--scenario", scenario_path, "--out", sim, "--quiet") == 0
        lines = (sim / "measurements.csv").read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if ",loop_density," in line)
        fields = lines[i].split(",")
        fields[4] = value
        lines[i] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        return bad

    @pytest.mark.parametrize("variant", ["none", "fisher", "np_correct", "np_incorrect"])
    def test_negative_log_value_exits_2(self, scenario_path, tmp_path, capsys, variant):
        bad = self._log_with_loop_value(scenario_path, tmp_path, "-3.5")
        out = tmp_path / "o"
        code = run_cli(
            "filter", "--scenario", scenario_path, "--log", bad,
            "--variant", variant, *level(variant, "0.01"), "--out", out, "--quiet",
        )
        assert code == 2
        assert "bad.csv:2: value must be finite and nonnegative, got '-3.5'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["none", "fisher", "np_correct", "np_incorrect"])
    def test_unexplained_reading_exits_3_naming_the_step(self, scenario_path, tmp_path, capsys, variant):
        # A finite loop reading no particle explains: every null density is
        # zero at step 1, reported as a collapse (exit 3) naming the step
        # and the assimilated sensors, without a numpy overflow warning.
        bad = self._log_with_loop_value(scenario_path, tmp_path, "1e+200")
        code = run_cli(
            "filter", "--scenario", scenario_path, "--log", bad,
            "--variant", variant, *level(variant, "0.01"), "--out", tmp_path / "o", "--quiet",
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "weight collapse: step 1:" in err and "'loop-0'" in err
        assert "Warning" not in err

    @pytest.mark.parametrize("variant", ["fisher", "np_correct", "np_incorrect"])
    def test_nonpositive_h1_zero_std_exits_2_before_output(self, scenario_path, tmp_path, variant):
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--scenario", scenario_path, "--out", sim, "--quiet") == 0
        doc = yaml.safe_load(scenario_path.read_text())
        doc["filter"]["h1_zero_std"] = -1.0
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        out = tmp_path / "o"
        code = run_cli(
            "filter", "--scenario", bad, "--log", sim / "measurements.csv",
            "--variant", variant, "--alpha", "0.01", "--out", out, "--quiet",
        )
        assert code == 2
        assert not out.exists()


class TestSweepAndReport:
    def test_sweep_writes_tables(self, scenario_path, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--scenario", scenario_path, "--out", out, "--quiet") == 0
        wide = (out / "metrics.csv").read_text().splitlines()
        assert wide[0] == "variant,metric,alpha=0.01,alpha=0.1"
        gated = {line.split(",")[0] for line in wide[1:]}
        assert gated == {"fisher", "np_correct", "np_incorrect"}
        report = read_metrics_long(out / "metrics_long.csv")
        assert ("none", None) in report.aggregate()
        # per-seed artifacts
        assert (out / "seed_7" / "true_density.csv").exists()
        assert (out / "seed_7" / "decisions_fisher_a0.01.csv").exists()

    def test_single_cell_sweep_has_zero_std(self, tmp_path):
        doc = tiny_scenario_dict()
        doc["filter"]["variants"] = ["fisher"]
        doc["filter"]["alphas"] = [0.01]
        doc["run"]["seeds"] = [7]
        path = tmp_path / "single.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "sweep"
        run_cli("sweep", "--scenario", path, "--out", out, "--quiet", "--no-artifacts")
        wide = (out / "metrics.csv").read_text().splitlines()
        assert wide[0] == "variant,metric,alpha=0.01"
        assert all(line.endswith("±0.0") for line in wide[1:])

    def test_repeated_level_is_one_column(self, tmp_path, capsys):
        # The progress line counts the runs of a seed: the ungated filter
        # has no level.
        doc = tiny_scenario_dict()
        doc["filter"]["variants"] = ["none", "fisher"]
        doc["filter"]["alphas"] = [0.1, 0.001, 0.1]
        doc["run"].update(horizon=6, seeds=[7])
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--scenario", path, "--out", out, "--no-artifacts") == 0
        assert "sweep: 3 variants x 1 seeds" in capsys.readouterr().err.splitlines()
        wide = (out / "metrics.csv").read_text().splitlines()
        assert wide[0] == "variant,metric,alpha=0.1,alpha=0.001"

    def test_sweep_rerun_identical(self, scenario_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("sweep", "--scenario", scenario_path, "--out", out_a, "--quiet", "--no-artifacts")
        run_cli("sweep", "--scenario", scenario_path, "--out", out_b, "--quiet", "--no-artifacts")
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "metrics_long.csv").read_bytes() == (out_b / "metrics_long.csv").read_bytes()
        hash_a = json.loads((out_a / "manifest.json").read_text())["config_hash"]
        hash_b = json.loads((out_b / "manifest.json").read_text())["config_hash"]
        assert hash_a == hash_b

    def test_report_prints_all_metric_rows(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "sweep"
        run_cli("sweep", "--scenario", scenario_path, "--out", out, "--quiet", "--no-artifacts")
        assert run_cli("report", "--run", out) == 0
        text = capsys.readouterr().out
        for label in (
            "True Positives", "False Positives", "True Negatives",
            "False Negatives", "Labeling Error (%)", "Density MAPE (%)",
        ):
            assert text.count(label) >= 3  # one per gated variant
        assert "== none ==" in text

    def test_report_values_match_table_file(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "sweep"
        run_cli("sweep", "--scenario", scenario_path, "--out", out, "--quiet", "--no-artifacts")
        run_cli("report", "--run", out)
        text = capsys.readouterr().out
        report = read_metrics_long(out / "metrics_long.csv")
        mean, _ = report.aggregate()[("fisher", 0.01)]["mape_pct"]
        assert f"{mean:.2f}" in text

    def test_report_does_not_need_the_wide_table(self, scenario_path, tmp_path, capsys):
        # report reads metrics_long.csv alone: without metrics.csv it prints
        # the same text.
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--scenario", scenario_path, "--out", out, "--quiet", "--no-artifacts") == 0
        capsys.readouterr()
        assert run_cli("report", "--run", out) == 0
        text = capsys.readouterr().out
        (out / "metrics.csv").unlink()
        assert run_cli("report", "--run", out) == 0
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            (9, "7", "collapsed must be 0 or 1"),
            (8, "inf", "mape_pct must be finite"),
            (7, "nan", "labeling_error_pct must be finite"),
            (0, "bogus", "mode must be one of ('none', 'fisher', 'np_correct', 'np_incorrect'), got 'bogus'"),
            (1, "", "alpha must be empty for the ungated mode and lie in (0, 1) for a gated one, got ''"),
        ],
    )
    def test_report_rejects_bad_metrics_row(self, scenario_path, tmp_path, capsys, field, value, problem):
        out = tmp_path / "sweep"
        run_cli("sweep", "--scenario", scenario_path, "--out", out, "--quiet", "--no-artifacts")
        path = out / "metrics_long.csv"
        lines = path.read_text().splitlines()
        row = lines[2].split(",")
        row[field] = value
        lines[2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("report", "--run", out) == 2
        assert f"metrics_long.csv:3: {problem}" in capsys.readouterr().err

    def test_report_rejects_corrupt_manifest(self, scenario_path, tmp_path):
        out = tmp_path / "sweep"
        run_cli("sweep", "--scenario", scenario_path, "--out", out, "--quiet", "--no-artifacts")
        for text in ("{not json", "[1, 2]"):
            (out / "manifest.json").write_text(text)
            assert run_cli("report", "--run", out) == 2

    def test_report_missing_artifacts_listed(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli("report", "--run", empty) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: missing run artifacts: {empty / 'manifest.json'}, {empty / 'metrics_long.csv'}\n"
        )

    @pytest.mark.parametrize("name", ["metrics_long.csv", "manifest.json"])
    def test_report_on_a_directory_exits_2(self, scenario_path, tmp_path, capsys, name):
        run = tmp_path / "run"
        assert run_cli("sweep", "--scenario", scenario_path, "--out", run, "--quiet", "--no-artifacts") == 0
        (run / name).unlink()
        (run / name).mkdir()
        assert run_cli("report", "--run", run) == 2
        assert f"error: {run / name}: " in capsys.readouterr().err


class TestOutputFailures:
    """A write that fails exits 2 with one ``error:`` line naming what it
    could not write, not with a traceback."""

    @pytest.mark.parametrize("command", ["simulate", "filter", "sweep"])
    def test_out_under_a_regular_file_exits_2(self, scenario_path, tmp_path, capsys, command):
        extra = []
        if command == "filter":
            assert run_cli("simulate", "--scenario", scenario_path, "--out", tmp_path / "sim", "--quiet") == 0
            extra = ["--log", tmp_path / "sim" / "measurements.csv", "--variant", "fisher", "--alpha", "0.01"]
        blocker = tmp_path / "FILE"
        blocker.write_text("x")
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        code = run_cli(command, "--scenario", scenario_path, "--out", blocker / "x", "--quiet", *extra)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot write {blocker / 'x'}: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before and blocker.read_text() == "x"

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(1, 35))
    def test_full_disk_during_a_sweep_exits_2(self, n):
        # The tiny sweep replaces 35 files into place: the manifest, two
        # per seed, two per run and the two metrics tables.
        targets = []
        real_replace = os.replace

        def replace(src, dst):
            targets.append(dst)
            if len(targets) == n:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), src, None, dst)
            real_replace(src, dst)

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            scenario = Path(tmp) / "scenario.yaml"
            scenario.write_text(TINY_YAML)
            patch.setattr("gatedpf.fileio.os.replace", replace)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run_cli("sweep", "--scenario", scenario, "--out", Path(tmp) / "o", "--quiet")
            assert code == 2
            assert err.getvalue() == f"error: cannot write {targets[-1]}: No space left on device\n"
            assert not list(Path(tmp).rglob("*.tmp"))

    @staticmethod
    def _python(*args, stdout=None, stderr=subprocess.PIPE) -> subprocess.Popen:
        """A child Python process that imports this package."""
        src = str(Path(gatedpf.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.Popen(
            [sys.executable, *map(str, args)], stdout=stdout, stderr=stderr, text=True, env=env
        )

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit on this system")
    def test_write_past_the_file_size_limit_exits_2(self, scenario_path, tmp_path):
        # The write fails on its data, not on its path: the error still
        # names the file it was writing.
        out = tmp_path / "sim"
        child = self._python("-c", (
            "import resource, signal, sys\n"
            "from gatedpf.cli import main\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (2000, 2000))\n"
            f"sys.exit(main(['simulate', '--scenario', {str(scenario_path)!r}, '--out', {str(out)!r}]))\n"
        ))
        _, err = child.communicate(timeout=120)
        assert child.returncode == 2
        assert err.splitlines()[-1] == f"error: cannot write {out / 'measurements.csv'}: File too large"
        assert "Traceback" not in err and not list(out.glob(".*.tmp"))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_report_to_a_full_device_exits_2(self, scenario_path, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--scenario", scenario_path, "--out", out, "--quiet", "--no-artifacts") == 0
        with open("/dev/full", "w") as full:
            child = self._python("-m", "gatedpf.cli", "report", "--run", out, stdout=full)
            _, err = child.communicate(timeout=120)
        assert child.returncode == 2
        assert err == "error: cannot write <stdout>: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_progress_to_a_full_device_is_dropped(self, scenario_path, tmp_path):
        # Progress is no result: a simulate whose stderr takes nothing
        # writes every file a quiet run writes and exits 0.
        quiet, out = tmp_path / "quiet", tmp_path / "o"
        assert run_cli("simulate", "--scenario", scenario_path, "--out", quiet, "--quiet") == 0
        with open("/dev/full", "w") as full:
            child = self._python(
                "-m", "gatedpf.cli", "simulate", "--scenario", scenario_path, "--out", out, stderr=full
            )
            child.communicate(timeout=120)
        assert child.returncode == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in quiet.iterdir())
        for name in ("true_density.csv", "true_speeds.csv", "measurements.csv"):
            assert (out / name).read_bytes() == (quiet / name).read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("failure, code", [("scenario", 2), ("collapse", 3)])
    def test_an_unwritable_error_line_keeps_the_exit_code(self, scenario_path, tmp_path, failure, code):
        # A repeated scenario key exits 2, a loop reading no particle
        # explains collapses the ungated filter (exit 3); the error line
        # stderr cannot take does not change either.
        if failure == "scenario":
            bad = tmp_path / "dup.yaml"
            bad.write_text("filter:\n  particles: 400\n  particles: 10\n")
            args = ["simulate", "--scenario", bad, "--out", tmp_path / "o"]
        else:
            log = TestFilter._log_with_loop_value(scenario_path, tmp_path, "1e+200")
            args = ["filter", "--scenario", scenario_path, "--log", log, "--variant", "none",
                    "--out", tmp_path / "o"]
        with open("/dev/full", "w") as full:
            child = self._python("-m", "gatedpf.cli", *args, stderr=full)
            child.communicate(timeout=120)
        assert child.returncode == code

    def test_report_to_a_closed_pipe_exits_2(self, scenario_path, tmp_path):
        # The reading end closes before the report is written; Python
        # flushes stdout again at exit, which must not print more.
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--scenario", scenario_path, "--out", out, "--quiet", "--no-artifacts") == 0
        child = self._python("-m", "gatedpf.cli", "report", "--run", out, stdout=subprocess.PIPE)
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=120) == 2
        assert err == "error: cannot write <stdout>: Broken pipe\n"


class TestSimulateMatchesSweep:
    def test_sweep_writes_the_simulated_truth_and_log(self, scenario_path, tmp_path):
        sweep = tmp_path / "sweep"
        assert run_cli("sweep", "--scenario", scenario_path, "--out", sweep, "--quiet") == 0
        for seed in tiny_scenario_dict()["run"]["seeds"]:
            sim = tmp_path / f"sim_{seed}"
            assert run_cli(
                "simulate", "--scenario", scenario_path, "--seed", seed, "--out", sim, "--quiet"
            ) == 0
            for name in ("true_density.csv", "measurements.csv"):
                assert (sweep / f"seed_{seed}" / name).read_bytes() == (sim / name).read_bytes()


class TestSeedOverride:
    def test_seed_flag_changes_output(self, scenario_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "--scenario", scenario_path, "--out", out_a, "--quiet", "--seed", 7)
        run_cli("simulate", "--scenario", scenario_path, "--out", out_b, "--quiet", "--seed", 99)
        assert (out_a / "true_density.csv").read_bytes() != (out_b / "true_density.csv").read_bytes()


class TestExitCodes:
    def test_weight_collapse_maps_to_exit_3(self, monkeypatch, scenario_path, tmp_path):
        # build_parser resolves cmd_filter by module attribute, so patching
        # it exercises main's error mapping without a contrived collapse.
        from gatedpf import cli
        from gatedpf.errors import WeightCollapseError

        def boom(args):
            raise WeightCollapseError("all posterior weights are zero")

        monkeypatch.setattr(cli, "cmd_filter", boom)
        code = cli.main(
            ["filter", "--scenario", str(scenario_path), "--log", "x",
             "--variant", "none", "--out", str(tmp_path)]
        )
        assert code == 3

    def test_malformed_scenario_value_exits_2(self, tmp_path, capsys):
        doc = tiny_scenario_dict()
        doc["run"]["seeds"] = ["a"]
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "o"
        assert run_cli("simulate", "--scenario", path, "--out", out, "--quiet") == 2
        assert "run.seeds[0]" in capsys.readouterr().err
        assert not out.exists()

    def test_a_fault_report_past_the_float_range_exits_2(self, tmp_path, capsys):
        # Fault draws around 1e308 overflow to inf, a value the log's reader
        # refuses: simulate exits 2 naming its line and writes no result
        # file, the truth matrices included.
        doc = tiny_scenario_dict()
        doc["sensors"]["faults"] = {"probability": 1.0, "zero_weight": 0.0, "speed_mean": 1.0e308,
                                    "speed_std": 1.0e308}
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "o"
        assert run_cli("simulate", "--scenario", path, "--out", out, "--quiet") == 2
        err = capsys.readouterr().err
        log = re.escape(str(out / "measurements.csv"))
        assert re.fullmatch(rf"error: {log}:\d+: value must be finite and nonnegative, got 'inf'\n", err)
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_a_timestep_that_zeroes_rho_dt_exits_2(self, tmp_path, capsys):
        doc = tiny_scenario_dict()
        doc["network"]["dt"] = 5.0e-324
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "o"
        assert run_cli("sweep", "--scenario", path, "--out", out, "--no-artifacts", "--quiet") == 2
        assert capsys.readouterr().err == (
            "error: network: timestep dt 5e-324 is too small: an occupied link's rho * dt is 0\n"
        )
        assert not out.exists()

    def test_a_link_whose_vehicle_count_overflows_exits_2(self, tmp_path, capsys):
        # A vehicle count past 2**63 would cast to a negative count and
        # drop every probe report of the link; the link is refused.
        doc = tiny_scenario_dict()
        for link in doc["network"]["links"]:
            link["length"] = 1.0e300
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "o"
        assert run_cli("simulate", "--scenario", path, "--out", out, "--quiet") == 2
        assert capsys.readouterr().err == (
            "error: network.links[0]: link length 1e+300 holds 1.25e+299 vehicles at rho_jam 0.125; "
            "a link's vehicle count must be below 2**63\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, name, field, message",
        [
            ("sensors", "gnss", "noise_frac",
             "sensors.gnss: noise_frac 1.7976931348623157e+308 at the largest link vf 20.0 draws "
             "readings past the float range: v + noise_frac * v * z must be finite for |z| up to 13"),
            ("demand", "upstream", "base",
             "demand.upstream: base 1.7976931348623157e+308 with noise_frac 0.2 draws demands past "
             "the float range: mean + noise_frac * mean * z must be finite for |z| up to 13"),
            ("demand", "upstream", "noise_frac",
             "demand.upstream: peak 2.5 with noise_frac 1.7976931348623157e+308 draws demands past "
             "the float range: mean + noise_frac * mean * z must be finite for |z| up to 13"),
        ],
    )
    def test_a_draw_past_the_float_range_exits_2(self, tmp_path, capsys, section, name, field, message):
        # At the largest float, these draws would overflow: the probe
        # speeds, and the upstream demands through their mean and their
        # noise.  Each is refused with one error line naming its field,
        # before anything is written, with warnings as errors.
        doc = tiny_scenario_dict()
        doc[section][name][field] = sys.float_info.max
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        for command in (("simulate",), ("sweep", "--no-artifacts")):
            out = tmp_path / command[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run_cli(*command, "--scenario", path, "--out", out, "--quiet")
            assert code == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    def test_repeated_scenario_seed_exits_2(self, tmp_path, capsys):
        doc = tiny_scenario_dict()
        doc["run"]["seeds"] = [7, 7]
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "o"
        assert run_cli("sweep", "--scenario", path, "--out", out, "--quiet") == 2
        assert "run.seeds: seed 7 is repeated" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_mode_exits_2(self, tmp_path, capsys):
        doc = tiny_scenario_dict()
        doc["filter"]["variants"] = ["fisher", "bogus"]
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "o"
        assert run_cli("sweep", "--scenario", path, "--out", out, "--quiet") == 2
        err = capsys.readouterr().err
        assert "filter.variants: unknown variant 'bogus'; expected one of ('none', 'fisher'," in err
        assert not out.exists()

    def test_levels_with_one_label_exit_2(self, tmp_path, capsys):
        # A run's files and metrics columns are named by its level's label
        # ("%g"), so the second level's runs would overwrite the first's.
        # A repeated level is one level and stays accepted.
        doc = tiny_scenario_dict()
        doc["filter"]["alphas"] = [0.01, 0.1, 0.01, 0.0100000001]
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "o"
        assert run_cli("sweep", "--scenario", path, "--out", out, "--quiet") == 2
        err = capsys.readouterr().err
        assert "filter.alphas[3]: level 0.0100000001 has the label 0.01 of level 0.01" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "filter", "sweep"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_flag_outside_uint64_exits_2(self, scenario_path, tmp_path, capsys, command, seed):
        # -1 and 2**64 - 1 would key the same random stream.
        extra = ["--log", tmp_path / "missing.csv", "--variant", "none"] if command == "filter" else []
        out = tmp_path / "o"
        code = run_cli(command, "--scenario", scenario_path, "--seed", seed, "--out", out, "--quiet", *extra)
        assert code == 2
        assert f"seed {seed} is outside [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_loop_link_exits_2(self, tmp_path, capsys):
        doc = tiny_scenario_dict()
        doc["sensors"]["loops"]["links"] = [0, 0]
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "o"
        assert run_cli("simulate", "--scenario", path, "--out", out, "--quiet") == 2
        assert "sensors.loops.links[1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [("filter", "np_mass_normalized", True), ("sensors.loops", "noise_abs", 0.01)],
    )
    def test_removed_option_exits_2(self, tmp_path, capsys, section, key, value):
        # Neither option exists: a scenario that sets one is refused, not
        # run as another study.
        doc = tiny_scenario_dict()
        node = doc
        for part in section.split("."):
            node = node[part]
        node[key] = value
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "o"
        assert run_cli("sweep", "--scenario", path, "--out", out, "--quiet") == 2
        assert f"{section}.{key}: unknown field" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, key, line",
        [
            # A section written twice at the top level: the second one would
            # silently replace the first.
            (TINY_YAML + "run: {horizon: 5, seeds: [1]}\n", "run", TINY_YAML.count("\n") + 1),
            ("filter:\n  particles: 400\n  particles: 10\n", "particles", 3),
        ],
        ids=["top_level", "nested"],
    )
    def test_repeated_key_exits_2(self, tmp_path, capsys, scenario_loader, text, key, line):
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        out = tmp_path / "o"
        assert run_cli("sweep", "--scenario", path, "--out", out, "--quiet") == 2
        err = capsys.readouterr().err
        assert f"key {key!r} is repeated" in err
        assert f'  in "{path}", line {line},' in err
        assert "<unicode string>" not in err
        assert not out.exists()

    def test_yaml_error_positions_name_the_file(self, tmp_path, capsys, scenario_loader):
        # An unclosed flow sequence: both of the error's positions name the
        # scenario file.
        path = tmp_path / "scenario.yaml"
        path.write_text("filter:\n  alphas: [0.01, 0.1\n")
        out = tmp_path / "o"
        assert run_cli("sweep", "--scenario", path, "--out", out, "--quiet") == 2
        err = capsys.readouterr().err
        positions = [line for line in err.splitlines() if line.startswith("  in ")]
        assert len(positions) == 2
        assert all(line.startswith(f'  in "{path}", line ') for line in positions)
        assert "<unicode string>" not in err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [("filter", "particles"), ("run", "horizon")])
    def test_size_numpy_cannot_shape_exits_2(self, tmp_path, capsys, section, key):
        # Refused on the loaded number alone: nothing of this size is
        # allocated.
        doc = tiny_scenario_dict()
        doc[section][key] = 10**20
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "o"
        assert run_cli("sweep", "--scenario", path, "--out", out, "--quiet", "--no-artifacts") == 2
        err = capsys.readouterr().err
        assert re.match(rf"error: {section}\.{key}: must be at most \d+, the (most|longest) ", err)
        assert not out.exists()

    def test_out_of_memory_exits_2(self, monkeypatch, scenario_path, tmp_path, capsys):
        # An allocation the machine cannot serve, without making one: the
        # study raises what numpy raises then.
        from gatedpf import cli

        def boom(*args, **kwargs):
            raise MemoryError("Unable to allocate 175. TiB for an array with shape (24, 1000000000000)")

        monkeypatch.setattr(cli, "run_experiment", boom)
        out = tmp_path / "o"
        assert run_cli("sweep", "--scenario", scenario_path, "--out", out, "--quiet") == 2
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 175. TiB for an array with shape (24, 1000000000000)\n"
        )

    def test_config_error_maps_to_exit_2(self, tmp_path):
        missing = tmp_path / "missing.yaml"
        code = run_cli("simulate", "--scenario", missing, "--out", tmp_path / "o", "--quiet")
        assert code == 2

    @pytest.mark.parametrize("kind", ["directory", "undecodable"])
    def test_unreadable_scenario_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path / "scenario.yaml"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"run:\n  horizon: \xff\xfe\n")
        out = tmp_path / "o"
        assert run_cli("simulate", "--scenario", path, "--out", out, "--quiet") == 2
        expected = "cannot read the scenario" if kind == "directory" else "not a text file"
        assert f"{path}: {expected}" in capsys.readouterr().err
        assert not out.exists()


# Field values a corrupted row may carry: arbitrary text, numbers of every
# size and kind, and strings close to valid ones.
hostile_field = st.one_of(
    st.text(max_size=12),
    st.floats().map(repr),
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
    st.sampled_from(
        ["", "0", "1", "2", "-1", "nan", "inf", "-inf", "1e999", "1e308", "-1e300",
         "0x1", " 1", "1_0", "loop_density", "gnss_speed", "none", '"', "\r", "\x00"]
    ),
)


@st.composite
def corrupted(draw, text: str) -> bytes:
    """``text`` with one data row corrupted: a field replaced, dropped or
    added, the row replaced or duplicated, or raw bytes spliced in."""
    lines = text.splitlines()
    i = draw(st.integers(min_value=1, max_value=len(lines) - 1))
    fields = lines[i].split(",")
    op = draw(st.sampled_from(["field", "drop", "add", "line", "duplicate", "bytes"]))
    if op == "field":
        fields[draw(st.integers(0, len(fields) - 1))] = draw(hostile_field)
        lines[i] = ",".join(fields)
    elif op == "drop":
        del fields[draw(st.integers(0, len(fields) - 1))]
        lines[i] = ",".join(fields)
    elif op == "add":
        fields.insert(draw(st.integers(0, len(fields))), draw(hostile_field))
        lines[i] = ",".join(fields)
    elif op == "line":
        lines[i] = draw(st.text(max_size=40))
    elif op == "duplicate":
        lines.insert(i, lines[i])
    encoded = [line.encode("utf-8", "surrogatepass") for line in lines]
    if op == "bytes":
        encoded[i] = draw(st.binary(min_size=1, max_size=20))
    return b"\n".join(encoded) + b"\n"


FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory) -> Path:
    """A simulated log and a finished sweep of a short tiny scenario."""
    root = tmp_path_factory.mktemp("fuzz")
    doc = tiny_scenario_dict()
    doc["run"]["horizon"] = 10
    doc["run"]["seeds"] = [7]
    (root / "scenario.yaml").write_text(yaml.safe_dump(doc))
    assert run_cli("simulate", "--scenario", root / "scenario.yaml", "--out", root / "sim", "--quiet") == 0
    assert run_cli(
        "sweep", "--scenario", root / "scenario.yaml", "--out", root / "sweep", "--quiet", "--no-artifacts"
    ) == 0
    return root


class TestCorruptedInputs:
    """No corrupted row ends in a traceback: every run exits with a
    documented code.  A filter may also end in a weight collapse (exit 3):
    the log reader accepts any finite nonnegative value, and a finite
    reading far enough out (|z| past about 1e154) underflows every null
    density."""

    @FUZZ
    @given(data=st.data(), variant=st.sampled_from(["none", "fisher", "np_correct", "np_incorrect"]))
    def test_filter_on_corrupted_log(self, fuzz_dir, data, variant):
        log = fuzz_dir / "bad_log.csv"
        log.write_bytes(data.draw(corrupted((fuzz_dir / "sim" / "measurements.csv").read_text())))
        code = run_cli(
            "filter", "--scenario", fuzz_dir / "scenario.yaml", "--log", log,
            "--variant", variant, *level(variant, "0.05"), "--out", fuzz_dir / "flt", "--quiet",
        )
        assert code in (0, 2, 3)

    @FUZZ
    @given(data=st.data())
    def test_report_on_corrupted_metrics(self, fuzz_dir, data):
        run = fuzz_dir / "report_run"
        run.mkdir(exist_ok=True)
        (run / "manifest.json").write_bytes((fuzz_dir / "sweep" / "manifest.json").read_bytes())
        clean = (fuzz_dir / "sweep" / "metrics_long.csv").read_text()
        (run / "metrics_long.csv").write_bytes(data.draw(corrupted(clean)))
        assert run_cli("report", "--run", run) in (0, 2)


class TestExtremeSpeedValue:
    """Any finite speed reading is gated away or assimilated; a gate never
    lets through a reading that no particle explains, so only the ungated
    filter can collapse on it."""

    @FUZZ
    @given(
        data=st.data(),
        value=st.floats(min_value=0.0, max_value=1.7976931348623157e308),
        variant=st.sampled_from(["none", "fisher", "np_correct", "np_incorrect"]),
    )
    def test_filter_on_one_extreme_speed(self, fuzz_dir, data, value, variant):
        lines = (fuzz_dir / "sim" / "measurements.csv").read_text().splitlines()
        speed_rows = [i for i, line in enumerate(lines) if ",gnss_speed," in line]
        assert speed_rows
        i = data.draw(st.sampled_from(speed_rows))
        fields = lines[i].split(",")
        fields[4] = repr(value)
        lines[i] = ",".join(fields)
        log = fuzz_dir / "extreme_log.csv"
        log.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "filter", "--scenario", fuzz_dir / "scenario.yaml", "--log", log,
            "--variant", variant, *level(variant, "0.05"), "--out", fuzz_dir / "flt_extreme", "--quiet",
        )
        assert code in ((0, 3) if variant == "none" else (0,))

    def test_infinite_residual_decision_reads_back(self, tmp_path):
        # With no relative speed noise the null std is min_std, so the
        # largest float is an infinite residual: its decision row holds
        # p-value 0 and statistic inf, and the log must read back.
        doc = tiny_scenario_dict()
        doc["run"]["horizon"] = 10
        doc["sensors"]["gnss"]["noise_frac"] = 0.0
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--scenario", scenario, "--seed", 7, "--out", sim, "--quiet") == 0
        lines = (sim / "measurements.csv").read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if ",gnss_speed," in line)
        fields = lines[i].split(",")
        fields[4] = "1.7976931348623157e+308"
        lines[i] = ",".join(fields)
        log = tmp_path / "log.csv"
        log.write_text("\n".join(lines) + "\n")
        out = tmp_path / "flt"
        code = run_cli(
            "filter", "--scenario", scenario, "--log", log, "--seed", 7,
            "--variant", "fisher", "--alpha", "0.05", "--out", out, "--quiet",
        )
        assert code == 0
        decisions = read_decision_log(out / "decisions.csv")
        (decision,) = decisions[decisions["sensor_id"] == fields[1]]
        assert (decision["statistic"], decision["auxiliary"], decision["rejected"]) == (0.0, np.inf, True)

    @pytest.mark.parametrize("variant", ["fisher", "np_correct", "np_incorrect"])
    def test_largest_float_speed_is_rejected(self, fuzz_dir, variant):
        # Both densities of the likelihood-ratio test are zero at the
        # largest float: the row is rejected all the same.
        lines = (fuzz_dir / "sim" / "measurements.csv").read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if ",gnss_speed," in line)
        fields = lines[i].split(",")
        fields[4] = "1.7976931348623157e+308"
        lines[i] = ",".join(fields)
        log = fuzz_dir / "largest_log.csv"
        log.write_text("\n".join(lines) + "\n")
        out = fuzz_dir / f"flt_largest_{variant}"
        code = run_cli(
            "filter", "--scenario", fuzz_dir / "scenario.yaml", "--log", log,
            "--variant", variant, "--alpha", "0.05", "--out", out, "--quiet",
        )
        assert code == 0
        decisions = read_decision_log(out / "decisions.csv")
        (decision,) = decisions[decisions["sensor_id"] == fields[1]]
        assert decision["rejected"]


def jammed_default_dict() -> dict:
    """The packaged default with every link jammed at 5e-6 veh/m, below the
    equilibrium start's 1e-5 floor, over five steps of one seed."""
    doc = default_scenario_dict()
    for link in doc["network"]["links"]:
        link["rho_jam"] = 5.0e-06
    doc["run"]["horizon"] = 5
    doc["run"]["seeds"] = doc["run"]["seeds"][:1]
    return doc


class TestJammedNetwork:
    def test_jam_density_below_start_floor_simulates(self, tmp_path):
        # The equilibrium start must lie inside the jam density, however low.
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(jammed_default_dict()))
        out = tmp_path / "sim"
        assert run_cli("simulate", "--scenario", path, "--out", out, "--quiet") == 0
        assert read_matrix_csv(out / "true_density.csv").max() <= 5.0e-06


def log_uniform(low: float, high: float):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


@st.composite
def demand_profile(draw, end: float) -> dict:
    times = sorted(draw(st.lists(st.floats(0.0, end), min_size=4, max_size=4)))
    return {
        "base": draw(st.floats(0.0, 8.0)),
        "peak": draw(st.floats(0.0, 8.0)),
        "rise": times[:2],
        "fall": times[2:],
        "noise_frac": draw(st.floats(0.0, 0.5)),
    }


@st.composite
def accepted_scenario(draw) -> dict:
    """A scenario document the validator accepts: 1-4 links within CFL whose
    jam densities span 1e-7 to 0.2 veh/m, random ramps, demand noise up to
    0.5, any sensor and fault settings, at most 20 particles and 8 steps."""
    dt = draw(st.floats(0.5, 20.0))
    horizon = draw(st.integers(1, 8))
    links = []
    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.floats(50.0, 1000.0))
        link = {
            "length": length,
            "vf": draw(st.floats(0.01, 1.0)) * length / dt,
            "w": draw(st.floats(0.01, 1.0)) * length / dt,
            "qmax": draw(st.floats(0.01, 10.0)),
            "rho_jam": draw(log_uniform(1e-7, 0.2)),
            "onramp": draw(st.booleans()),
        }
        if draw(st.booleans()):
            link.update(offramp=True, beta=draw(st.floats(0.0, 0.95)))
        links.append(link)
    loops = {
        "links": draw(st.lists(st.integers(0, len(links) - 1), unique=True)),
        "min_std": draw(log_uniform(1e-9, 0.1)),
    }
    if draw(st.booleans()):
        loops["noise_frac"] = draw(st.floats(0.0, 0.5))
    speed_std = draw(st.floats(0.1, 50.0))
    return {
        "network": {
            "dt": dt,
            "onramp_priority": draw(st.floats(0.0, 1.0)),
            "links": links,
        },
        "demand": {
            "upstream": draw(demand_profile(horizon * dt)),
            "onramp_default": draw(demand_profile(horizon * dt)),
        },
        "sensors": {
            "loops": loops,
            "gnss": {
                "penetration": draw(st.floats(0.0, 1.0)),
                "noise_frac": draw(st.floats(0.0, 2.0)),
                "min_std": draw(log_uniform(1e-6, 10.0)),
            },
            "faults": {
                "probability": draw(st.floats(0.0, 1.0)),
                "zero_weight": draw(st.floats(0.0, 1.0)),
                # The fault Gaussian must keep mass 1e-3 above zero.
                "speed_mean": draw(st.floats(-3.0, 10.0)) * speed_std,
                "speed_std": speed_std,
            },
        },
        "filter": {
            "particles": draw(st.integers(2, 20)),
            "variants": ["none", "fisher", "np_correct", "np_incorrect"],
            # Two distinct levels with one label are refused.
            "alphas": draw(
                st.lists(st.floats(1e-6, 0.5), min_size=1, max_size=3).filter(
                    lambda alphas: len({f"{a:g}" for a in alphas}) == len(set(alphas))
                )
            ),
            "resample_threshold": draw(st.floats(0.01, 1.0)),
            "h1_zero_std": draw(log_uniform(1e-3, 10.0)),
        },
        "run": {"horizon": horizon, "seeds": [draw(st.integers(0, 2**32 - 1))]},
    }


def extremes_base_dict() -> dict:
    """The packaged default over five steps of one seed with 20 particles."""
    doc = default_scenario_dict()
    doc["run"]["horizon"] = 5
    doc["run"]["seeds"] = doc["run"]["seeds"][:1]
    doc["filter"]["particles"] = 20
    return doc


def with_extreme(field: str, value: float) -> dict:
    """:func:`extremes_base_dict` with ``field`` set to ``value``.  A link
    field (``network.links.NAME``) is set on every link that has it, the
    offramp share on the offramp links; ``rise[1]`` names an entry of its
    list."""
    doc = extremes_base_dict()
    section, holder, name = field.split(".")
    if section == "network":
        holders = [link for link in doc["network"]["links"] if name != "beta" or link.get("offramp")]
    else:
        holders = [doc[section][holder]]
    entry = re.fullmatch(r"(\w+)\[(\d)\]", name)
    for holder in holders:
        if entry:
            holder[entry[1]][int(entry[2])] = value
        else:
            holder[name] = value
    return doc


# The table of extremes: each numeric link, demand and sensor field with the
# largest value the validator accepts in extremes_base_dict (the next float
# is refused, past the largest float none is).
LARGEST_ACCEPTED = {
    "network.links.length": 7.37869762948382e19,  # rho_jam * length < 2**63
    "network.links.vf": 50.0000000000001,  # vf * dt <= length
    "network.links.w": 50.0000000000001,
    "network.links.qmax": sys.float_info.max,
    "network.links.rho_jam": 1.8446744073709548e16,  # rho_jam * length < 2**63
    "network.links.beta": 0.9999999999999999,
    "demand.upstream.base": 4.993592041284209e307,  # base * (1 + 0.2 * 13) finite
    "demand.upstream.peak": 4.993592041284209e307,
    "demand.upstream.noise_frac": 2.5608164314278002e306,  # at peak 5.4
    "demand.upstream.rise[0]": 2700.0,  # the breakpoints are ordered
    "demand.upstream.rise[1]": 14400.0,
    "demand.upstream.fall[0]": 16200.0,
    "demand.upstream.fall[1]": sys.float_info.max,
    "demand.onramp_default.base": 3.6687614997190116e307,  # base * (1 + 0.3 * 13) finite
    "demand.onramp_default.peak": 3.6687614997190116e307,
    "demand.onramp_default.noise_frac": 3.45710218242753e307,  # at peak 0.4
    "demand.onramp_default.rise[0]": 2700.0,
    "demand.onramp_default.rise[1]": 14400.0,
    "demand.onramp_default.fall[0]": 16200.0,
    "demand.onramp_default.fall[1]": sys.float_info.max,
    "sensors.loops.noise_frac": 1.1062726983768097e308,  # at rho_jam 0.125
    "sensors.loops.min_std": sys.float_info.max,
    "sensors.gnss.penetration": 1.0,
    "sensors.gnss.noise_frac": 5.531363491884048e305,  # at vf 25
    "sensors.gnss.min_std": sys.float_info.max,
    "sensors.faults.probability": 1.0,
    "sensors.faults.zero_weight": 1.0,
    "sensors.faults.speed_mean": sys.float_info.max,
    "sensors.faults.speed_std": sys.float_info.max,
}
# The extremes that stop before a filter runs, each with the exit-2 error
# line's start: 5e-324 where the validator refuses it, and the largest
# accepted length, whose probe count no array holds.
STOPPED_EXTREMES = {
    ("network.links.length", 5e-324): "error: network: links[0]: CFL violated",
    ("network.links.length", LARGEST_ACCEPTED["network.links.length"]): "error: out of memory: ",
    **{
        (f"demand.{profile}.{name}", 5e-324):
        f"error: demand.{profile}: demand profile breakpoints must be ordered"
        for profile in ("upstream", "onramp_default")
        for name in ("rise[1]", "fall[0]", "fall[1]")
    },
}
EXTREMES = [
    (field, value)
    for field, largest in LARGEST_ACCEPTED.items()
    for value in (largest, 5e-324)
    if (field, value) not in STOPPED_EXTREMES
]


def with_extremes(test):
    """``test`` with an ``@example`` for each case of ``EXTREMES``."""
    for field, value in EXTREMES:
        test = example(doc=with_extreme(field, value))(test)
    return test


def accepted(doc) -> bool:
    try:
        scenario_from_dict(doc)
    except ConfigurationError:
        return False
    return True


class TestAcceptedScenarios:
    """Every scenario the validator accepts simulates and filters with a
    documented exit code; a warning fails the test."""

    @settings(max_examples=40, deadline=None)
    @example(doc=jammed_default_dict())
    @with_extremes
    @given(doc=accepted_scenario())
    def test_simulate_and_filter_exit_documented_codes(self, doc):
        scenario_from_dict(doc)  # the strategy and the table hold only accepted documents
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            root = Path(tmp)
            scenario = root / "scenario.yaml"
            scenario.write_text(yaml.safe_dump(doc))
            assert run_cli("simulate", "--scenario", scenario, "--out", root / "sim", "--quiet") == 0
            for variant in ("none", "fisher", "np_correct", "np_incorrect"):
                code = run_cli(
                    "filter", "--scenario", scenario, "--log", root / "sim" / "measurements.csv",
                    "--variant", variant, "--out", root / variant, "--quiet",
                )
                assert code in (0, 2, 3)

    @pytest.mark.parametrize("field, largest", LARGEST_ACCEPTED.items())
    def test_the_table_holds_each_field_s_largest_accepted_value(self, field, largest):
        assert accepted(with_extreme(field, largest))
        if largest < sys.float_info.max:
            assert not accepted(with_extreme(field, float(np.nextafter(largest, np.inf))))

    @pytest.mark.parametrize(
        "case, error", STOPPED_EXTREMES.items(), ids=[f"{field}={value:g}" for field, value in STOPPED_EXTREMES]
    )
    def test_the_stopped_extremes_exit_2_before_writing_a_log(self, tmp_path, capsys, case, error):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(yaml.safe_dump(with_extreme(*case)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("simulate", "--scenario", scenario, "--out", tmp_path / "sim", "--quiet") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(error)
        assert not (tmp_path / "sim" / "measurements.csv").exists()
