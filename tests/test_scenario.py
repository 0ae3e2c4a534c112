"""Scenario schema validation and manifest tests."""
from __future__ import annotations

import copy
import dataclasses

import pytest
import yaml

from gatedpf.ctm import DemandProfile, FreewayNetwork, LinkParams
from gatedpf.errors import ConfigurationError
from gatedpf.harness import ExperimentConfig, FilterVariant, run_experiment
from gatedpf.sensing import FaultConfig, GnssSpec, LoopDetectorSpec
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
            ("filter", "variants", [], r"filter\.variants"),
            ("filter", "resample_threshold", 1.5, r"filter\.resample_threshold"),
            ("filter", "h1_zero_std", 0, r"filter\.h1_zero_std"),
            ("run", "mape_floor", -1, r"run\.mape_floor"),
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

    @pytest.mark.parametrize("key", [2, "2"])
    def test_onramp_override_applies_to_its_link_only(self, key):
        doc = tiny_scenario_dict()
        doc["network"]["links"][0]["onramp"] = True
        doc["network"]["links"][2]["onramp"] = True
        default = {"base": 0.2, "peak": 0.4, "rise": [50.0, 150.0], "fall": [400.0, 500.0]}
        override = {"base": 0.5, "peak": 0.9, "rise": [0.0, 100.0], "fall": [300.0, 450.0], "noise_frac": 0.1}
        doc["demand"]["onramp_default"] = default
        doc["demand"]["onramp_overrides"] = {key: override}
        sc = scenario_from_dict(doc)
        assert sc.network.onramp_links == (0, 2)
        assert sc.schedule.onramps == (
            DemandProfile(0.2, 0.4, (50.0, 150.0), (400.0, 500.0)),
            DemandProfile(0.5, 0.9, (0.0, 100.0), (300.0, 450.0), 0.1),
        )

    def test_bad_onramp_override_reports_path(self):
        doc = tiny_scenario_dict()
        doc["network"]["links"][2]["onramp"] = True
        doc["demand"]["onramp_overrides"] = {
            2: {"base": "x", "peak": 0.9, "rise": [0.0, 100.0], "fall": [300.0, 450.0]}
        }
        with pytest.raises(ConfigurationError, match=r"^demand\.onramp_overrides\.2\.base: "):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("key", [7, "two", 1, "1", "02", 2.5, -1])
    def test_override_of_a_link_without_an_onramp_rejected(self, key):
        # Link 2 has the onramp; 7 is not a link, "two" not an index, and
        # link 1 has no onramp.  None of them may be dropped silently.
        doc = tiny_scenario_dict()
        doc["network"]["links"][2]["onramp"] = True
        profile = {"base": 0.5, "peak": 0.9, "rise": [0.0, 100.0], "fall": [300.0, 450.0]}
        doc["demand"]["onramp_default"] = profile
        doc["demand"]["onramp_overrides"] = {2: profile, key: profile}
        with pytest.raises(ConfigurationError, match=rf"^demand\.onramp_overrides\.{key}: not a link with an onramp"):
            scenario_from_dict(doc)

    def test_override_without_onramps_rejected(self):
        doc = tiny_scenario_dict()
        profile = {"base": 0.5, "peak": 0.9, "rise": [0.0, 100.0], "fall": [300.0, 450.0]}
        doc["demand"]["onramp_overrides"] = {0: profile}
        with pytest.raises(ConfigurationError, match=r"^demand\.onramp_overrides\.0: "):
            scenario_from_dict(doc)

    def test_override_given_twice_rejected(self):
        doc = tiny_scenario_dict()
        doc["network"]["links"][2]["onramp"] = True
        profile = {"base": 0.5, "peak": 0.9, "rise": [0.0, 100.0], "fall": [300.0, 450.0]}
        doc["demand"]["onramp_overrides"] = {2: profile, "2": profile}
        with pytest.raises(ConfigurationError, match=r"^demand\.onramp_overrides\.2: link 2 already"):
            scenario_from_dict(doc)

    def test_bad_override_key_exits_2(self, tmp_path, capsys):
        from gatedpf.cli import main

        doc = tiny_scenario_dict()
        doc["network"]["links"][2]["onramp"] = True
        profile = {"base": 0.5, "peak": 0.9, "rise": [0.0, 100.0], "fall": [300.0, 450.0]}
        doc["demand"]["onramp_overrides"] = {2: profile, "two": profile}
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "demand.onramp_overrides.two" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_load_from_yaml(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(tiny_scenario_dict()))
        sc = load_scenario(path)
        assert sc.horizon == 25


def level_expansion(modes, alphas):
    """How the study grid used to be built: one variant per mode at the
    first level, each gated one re-expanded across ``alphas`` and repeats
    dropped.  Kept as the reference for ``experiment_config``."""
    variants = [FilterVariant(m, None if m == "none" else alphas[0]) for m in modes]
    expanded = []
    for variant in variants:
        if variant.mode == "none":
            expanded.append(variant)
        else:
            expanded.extend(FilterVariant(variant.mode, float(a)) for a in alphas)
    return tuple(dict.fromkeys(expanded))


class TestStudyGrid:
    @pytest.mark.parametrize(
        "modes, alphas",
        [
            (["none", "fisher", "np_correct", "np_incorrect"], [0.01, 0.1]),
            (["fisher"], [0.05]),
            (["none"], [0.001, 0.01]),
            (["np_incorrect", "none", "fisher", "none", "fisher"], [0.1, 0.001, 0.1]),
        ],
    )
    def test_grid_matches_level_expansion(self, modes, alphas):
        doc = tiny_scenario_dict()
        doc["filter"]["variants"] = modes
        doc["filter"]["alphas"] = alphas
        config = scenario_from_dict(doc).experiment_config(seeds=[3])
        assert config.variants == level_expansion(modes, alphas)
        assert config.seeds == (3,)

    def test_grid_runs_every_level(self):
        doc = tiny_scenario_dict()
        doc["filter"]["variants"] = ["none", "fisher"]
        doc["filter"]["alphas"] = [0.001, 0.01, 0.1]
        doc["run"]["horizon"] = 10
        report = run_experiment(scenario_from_dict(doc).experiment_config(seeds=[7]))
        assert report.variant_keys() == [
            ("none", None), ("fisher", 0.001), ("fisher", 0.01), ("fisher", 0.1)
        ]

    def test_run_out_is_not_read(self):
        doc = tiny_scenario_dict()
        doc["run"]["out"] = 5
        assert not hasattr(scenario_from_dict(doc), "out_dir")


def bare_scenario_dict():
    """``tiny_scenario_dict`` with every optional field omitted."""
    doc = tiny_scenario_dict()
    doc["network"]["links"] = [
        {key: link[key] for key in ("length", "vf", "w", "qmax", "rho_jam")}
        for link in doc["network"]["links"]
    ]
    del doc["demand"]["upstream"]["noise_frac"]
    del doc["sensors"]["loops"]["noise_frac"]
    doc["sensors"]["gnss"] = {}
    doc["sensors"]["faults"] = {}
    return doc


def defaulted_fields(model):
    """``{name: default}`` of the fields of ``model`` that a document can
    state: those with a default other than ``None`` (a ``None`` default
    means the field is absent, which a document says by omitting it)."""
    return {
        f.name: f.default
        for f in dataclasses.fields(model)
        if f.default is not dataclasses.MISSING and f.default is not None
    }


class TestDefaults:
    def test_omitted_field_takes_the_model_default(self):
        bare = bare_scenario_dict()
        stated = copy.deepcopy(bare)
        for link in stated["network"]["links"]:
            link.update(defaulted_fields(LinkParams))
        stated["network"].update(defaulted_fields(FreewayNetwork))
        stated["demand"]["upstream"].update(defaulted_fields(DemandProfile))
        stated["sensors"]["loops"].update(defaulted_fields(LoopDetectorSpec))
        stated["sensors"]["gnss"].update(defaulted_fields(GnssSpec))
        stated["sensors"]["faults"].update(defaulted_fields(FaultConfig))
        for name, default in defaulted_fields(ExperimentConfig).items():
            stated["run" if name == "mape_floor" else "filter"][name] = default
        a, b = scenario_from_dict(bare), scenario_from_dict(stated)
        assert a.raw != b.raw
        assert dataclasses.replace(a, raw={}) == dataclasses.replace(b, raw={})


class TestDefaultScenario:
    def test_default_is_valid(self):
        sc = default_scenario()
        assert sc.network.n_links == 24
        assert len(sc.seeds) == 5
        assert {v.mode for v in sc.variants} == {"none", "fisher", "np_correct", "np_incorrect"}
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
