"""Scenario schema validation and manifest tests."""
from __future__ import annotations

import copy

import pytest
import yaml

from gatedpf.errors import ConfigurationError
from gatedpf.scenario import (
    config_hash,
    default_scenario,
    default_scenario_dict,
    load_scenario,
    scenario_from_dict,
)


def tiny_scenario_dict():
    return {
        "network": {
            "dt": 10.0,
            "links": [
                {"length": 400.0, "vf": 20.0, "w": 5.0, "qmax": 4.0, "rho_jam": 0.125},
                {"length": 400.0, "vf": 20.0, "w": 5.0, "qmax": 2.0, "rho_jam": 0.125},
                {"length": 400.0, "vf": 20.0, "w": 5.0, "qmax": 4.0, "rho_jam": 0.125,
                 "offramp": True, "beta": 0.1},
            ],
        },
        "demand": {
            "upstream": {"base": 1.0, "peak": 2.5, "rise": [50.0, 150.0], "fall": [400.0, 500.0],
                         "noise_frac": 0.2},
        },
        "sensors": {
            "loops": {"links": [0, 2], "noise_frac": 0.1},
            "gnss": {"penetration": 0.5, "noise_frac": 0.2, "min_std": 0.5},
            "faults": {"probability": 0.4},
        },
        "filter": {
            "particles": 25,
            "variants": ["none", "fisher", "np_correct", "np_incorrect"],
            "alphas": [0.01, 0.1],
        },
        "run": {"horizon": 25, "seeds": [7, 8]},
    }


class TestValidation:
    def test_tiny_scenario_loads(self):
        sc = scenario_from_dict(tiny_scenario_dict())
        assert sc.network.n_links == 3
        assert sc.particles == 25
        assert sc.alphas == (0.01, 0.1)
        config = sc.experiment_config()
        assert config.horizon == 25

    def test_missing_section_reports_path(self):
        doc = tiny_scenario_dict()
        del doc["demand"]
        with pytest.raises(ConfigurationError, match="demand"):
            scenario_from_dict(doc)

    def test_bad_field_reports_path(self):
        doc = tiny_scenario_dict()
        doc["network"]["links"][1]["vf"] = -3.0
        with pytest.raises(ConfigurationError, match=r"network\.links\[1\]"):
            scenario_from_dict(doc)

    def test_cfl_violation_reported(self):
        doc = tiny_scenario_dict()
        doc["network"]["links"][0]["vf"] = 100.0
        with pytest.raises(ConfigurationError, match="CFL"):
            scenario_from_dict(doc)

    def test_alpha_range_checked(self):
        doc = tiny_scenario_dict()
        doc["filter"]["alphas"] = [0.01, 1.5]
        with pytest.raises(ConfigurationError, match=r"filter\.alphas"):
            scenario_from_dict(doc)

    def test_unknown_variant_rejected(self):
        doc = tiny_scenario_dict()
        doc["filter"]["variants"] = ["kalman"]
        with pytest.raises(ConfigurationError, match=r"filter\.variants"):
            scenario_from_dict(doc)

    def test_onramp_needs_profile(self):
        doc = tiny_scenario_dict()
        doc["network"]["links"][1]["onramp"] = True
        with pytest.raises(ConfigurationError, match="onramp"):
            scenario_from_dict(doc)

    def test_loop_link_out_of_range(self):
        doc = tiny_scenario_dict()
        doc["sensors"]["loops"]["links"] = [0, 9]
        with pytest.raises(ConfigurationError, match=r"sensors\.loops"):
            scenario_from_dict(doc)

    def test_duplicate_loop_link_rejected(self):
        # Detectors are identified by their link; two on one link would
        # share a sensor id.
        doc = tiny_scenario_dict()
        doc["sensors"]["loops"]["links"] = [0, 2, 0]
        with pytest.raises(ConfigurationError, match=r"sensors\.loops\.links\[2\]: link 0 already"):
            scenario_from_dict(doc)

    def test_particles_minimum(self):
        doc = tiny_scenario_dict()
        doc["filter"]["particles"] = 1
        with pytest.raises(ConfigurationError, match=r"filter\.particles"):
            scenario_from_dict(doc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_scenario(tmp_path / "nope.yaml")

    def test_fault_mass_above_zero_checked(self):
        doc = tiny_scenario_dict()
        doc["sensors"]["faults"].update(speed_mean=-40.0, speed_std=1.0)
        with pytest.raises(ConfigurationError, match=r"sensors\.faults"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "section, key, value, where",
        [
            ("run", "seeds", ["a"], r"run\.seeds\[0\]"),
            ("run", "seeds", [None], r"run\.seeds\[0\]"),
            ("run", "seeds", [7, True], r"run\.seeds\[1\]"),
            ("filter", "alphas", ["x"], r"filter\.alphas\[0\]"),
            ("filter", "alphas", [0.01, float("nan")], r"filter\.alphas\[1\]"),
            ("demand.upstream", "base", "a", r"demand\.upstream\.base"),
            ("demand.upstream", "base", float("nan"), r"demand\.upstream\.base"),
            ("demand.upstream", "peak", float("inf"), r"demand\.upstream\.peak"),
            ("demand.upstream", "rise", ["a", 1], r"demand\.upstream\.rise\[0\]"),
            ("demand.upstream", "fall", [400.0, None], r"demand\.upstream\.fall\[1\]"),
            ("demand", "upstream", 5, r"demand\.upstream"),
            ("filter", "particles", True, r"filter\.particles"),
            ("sensors.loops", "links", [0, True], r"sensors\.loops\.links\[1\]"),
            ("network", "dt", float("nan"), r"network\.dt"),
        ],
    )
    def test_malformed_value_reports_path(self, section, key, value, where):
        doc = tiny_scenario_dict()
        node = doc
        for part in section.split("."):
            node = node[part]
        node[key] = value
        with pytest.raises(ConfigurationError, match=where):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("zero_std", [0.0, -1.0])
    def test_h1_zero_std_checked(self, zero_std):
        doc = tiny_scenario_dict()
        doc["filter"]["h1_zero_std"] = zero_std
        with pytest.raises(ConfigurationError, match="h1_zero_std"):
            scenario_from_dict(doc)

    def test_load_from_yaml(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(tiny_scenario_dict()))
        sc = load_scenario(path)
        assert sc.horizon == 25


class TestDefaultScenario:
    def test_default_is_valid(self):
        sc = default_scenario()
        assert sc.network.n_links == 24
        assert len(sc.seeds) == 5
        assert set(sc.modes) == {"none", "fisher", "np_correct", "np_incorrect"}
        assert sc.alphas == (0.001, 0.01, 0.1)

    def test_default_dict_is_a_fresh_copy(self):
        doc = default_scenario_dict()
        doc["run"]["horizon"] = 3
        doc["network"]["links"].clear()
        again = default_scenario_dict()
        assert again["run"]["horizon"] == 1800
        assert len(again["network"]["links"]) == 24

    def test_packaged_file_loads_as_default(self):
        from importlib import resources

        from gatedpf.scenario import DEFAULT_SCENARIO_FILE

        path = resources.files("gatedpf").joinpath(DEFAULT_SCENARIO_FILE)
        with resources.as_file(path) as file:
            assert load_scenario(file).raw == default_scenario().raw


class TestConfigHash:
    def test_stable_and_sensitive(self):
        doc = tiny_scenario_dict()
        h1 = config_hash(doc)
        h2 = config_hash(copy.deepcopy(doc))
        assert h1 == h2
        doc["run"]["seeds"] = [7, 9]
        assert config_hash(doc) != h1

    def test_extra_values_hashed(self):
        doc = tiny_scenario_dict()
        assert config_hash(doc, {"variant": "fisher"}) != config_hash(doc, {"variant": "none"})
