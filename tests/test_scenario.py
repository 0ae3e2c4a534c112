"""Scenario schema validation and manifest tests."""
from __future__ import annotations

import copy
import dataclasses
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gatedpf.ctm import DemandProfile, FreewayNetwork, LinkParams
from gatedpf.errors import ConfigurationError
from gatedpf.harness import ExperimentConfig, FilterVariant, run_experiment
from gatedpf.rng import NORMAL_BOUND
from gatedpf.sensing import FaultConfig, GnssSpec, LoopDetectors
from gatedpf.scenario import (
    config_hash,
    default_scenario,
    default_scenario_dict,
    load_scenario,
    scenario_from_dict,
)

from conftest import largest_float


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

    @pytest.mark.parametrize("sensor, field", [("gnss", "vf"), ("loops", "rho_jam")])
    def test_a_reading_past_the_float_range_is_refused(self, sensor, field):
        # A reading is v + noise_frac * v * z of a true speed up to the
        # largest freeflow speed, or of a density up to the largest jam
        # density: the largest accepted noise_frac keeps that expression
        # finite at |z| = NORMAL_BOUND, and the next float is refused.
        doc = tiny_scenario_dict()
        doc["network"]["links"][1][field] *= 1.5  # the largest of the links
        largest_true = doc["network"]["links"][1][field]
        largest = largest_float(
            lambda frac: math.isfinite(largest_true + frac * largest_true * NORMAL_BOUND),
            0.0, float(np.finfo(float).max),
        )
        doc["sensors"][sensor]["noise_frac"] = largest
        scenario_from_dict(doc)
        doc["sensors"][sensor]["noise_frac"] = float(np.nextafter(largest, np.inf))
        message = (
            rf"^sensors\.{sensor}: noise_frac \S+ at the largest link {field} {largest_true!r} "
            r"draws readings past the float range"
        )
        with pytest.raises(ConfigurationError, match=message):
            scenario_from_dict(doc)

    def test_duplicate_loop_link_rejected(self):
        # Detectors are identified by their link; two on one link would
        # share a sensor id.
        doc = tiny_scenario_dict()
        doc["sensors"]["loops"]["links"] = [0, 2, 0]
        with pytest.raises(ConfigurationError, match=r"sensors\.loops\.links\[2\]: link 0 already"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "seeds, problem",
        [
            ([7, -1], r"seed -1 is outside \[0, 2\*\*64\)"),
            ([2**64], r"seed 18446744073709551616 is outside \[0, 2\*\*64\)"),
            ([5, 7, 5], "seed 5 is repeated"),
            # The random streams key on the seed modulo 2**64: these two
            # would be one stream counted twice.
            ([-1, 2**64 - 1], r"seed -1 is outside"),
        ],
    )
    def test_seeds_are_distinct_uint64(self, seeds, problem):
        doc = tiny_scenario_dict()
        doc["run"]["seeds"] = seeds
        with pytest.raises(ConfigurationError, match=rf"^run\.seeds: {problem}"):
            scenario_from_dict(doc)

    def test_seed_range_edges_load(self):
        doc = tiny_scenario_dict()
        doc["run"]["seeds"] = [0, 2**64 - 1]
        assert scenario_from_dict(doc).seeds == (0, 2**64 - 1)

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
        assert list(report.aggregate()) == [
            ("none", None), ("fisher", 0.001), ("fisher", 0.01), ("fisher", 0.1)
        ]

    def test_run_out_is_refused(self):
        # The output directory is the command's --out, never the scenario's.
        doc = tiny_scenario_dict()
        doc["run"]["out"] = 5
        message = r"^run\.out: unknown field; run takes horizon, seeds, mape_floor$"
        with pytest.raises(ConfigurationError, match=message):
            scenario_from_dict(doc)


def full_scenario_dict():
    """``tiny_scenario_dict`` with a mapping at every place a scenario can
    hold one: onramps with a default profile and an override."""
    doc = tiny_scenario_dict()
    doc["network"]["onramp_priority"] = 0.5
    doc["network"]["links"][0]["onramp"] = True
    doc["network"]["links"][1]["onramp"] = True
    profile = {"base": 0.2, "peak": 0.4, "rise": [50.0, 150.0], "fall": [400.0, 500.0]}
    doc["demand"]["onramp_default"] = profile
    doc["demand"]["onramp_overrides"] = {1: dict(profile, noise_frac=0.1)}
    return doc


def mappings(doc, path=""):
    """``(path, mapping)`` of every mapping in ``doc``, itself first."""
    found = [(path, doc)]
    for key, value in doc.items():
        where = f"{path}.{key}" if path else str(key)
        if isinstance(value, dict):
            found += mappings(value, where)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    found += mappings(item, f"{where}[{i}]")
    return found


class TestUnknownKeys:
    def test_every_mapping_is_reached(self):
        paths = [path for path, _ in mappings(full_scenario_dict())]
        assert paths == [
            "", "network", "network.links[0]", "network.links[1]", "network.links[2]",
            "demand", "demand.upstream", "demand.onramp_default", "demand.onramp_overrides",
            "demand.onramp_overrides.1", "sensors", "sensors.loops", "sensors.gnss",
            "sensors.faults", "filter", "run",
        ]
        scenario_from_dict(full_scenario_dict())

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), key=st.from_regex(r"[a-z_]{1,12}", fullmatch=True))
    def test_unknown_key_is_refused_naming_its_path(self, data, key):
        # Any name that no mapping of a scenario and no model type uses, in
        # any mapping; an override's key must name a link with an onramp.
        doc = full_scenario_dict()
        models = (LinkParams, FreewayNetwork, DemandProfile, LoopDetectors, GnssSpec, FaultConfig)
        names = {f.name for model in models + (ExperimentConfig,) for f in dataclasses.fields(model)}
        assume(key not in names.union(*(mapping for _, mapping in mappings(doc))))
        path, mapping = data.draw(st.sampled_from(mappings(doc)))
        mapping[key] = 1.0
        where = re.escape(f"{path}.{key}" if path else key)
        with pytest.raises(ConfigurationError, match=rf"^{where}: (unknown field|not a link with an onramp)"):
            scenario_from_dict(doc)
        from gatedpf.cli import main

        with tempfile.TemporaryDirectory() as tmp:
            scenario, out = Path(tmp) / "scenario.yaml", Path(tmp) / "out"
            scenario.write_text(yaml.safe_dump(doc))
            assert main(["sweep", "--scenario", str(scenario), "--out", str(out), "--quiet"]) == 2
            assert not out.exists()


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
    """``{name: default}`` of the fields of ``model`` that have a default."""
    return {f.name: f.default for f in dataclasses.fields(model) if f.default is not dataclasses.MISSING}


class TestDefaults:
    def test_omitted_field_takes_the_model_default(self):
        bare = bare_scenario_dict()
        stated = copy.deepcopy(bare)
        for link in stated["network"]["links"]:
            link.update(defaulted_fields(LinkParams))
        stated["network"].update(defaulted_fields(FreewayNetwork))
        stated["demand"]["upstream"].update(defaulted_fields(DemandProfile))
        stated["sensors"]["loops"].update(defaulted_fields(LoopDetectors))
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

    def test_either_yaml_parser_loads_one_scenario(self, tmp_path, scenario_loader):
        # The tiny scenario written with anchors, merge keys, flow and
        # block styles and other number forms.
        path = tmp_path / "scenario.yaml"
        path.write_text(
            "network:\n"
            "  dt: 1.0e+1\n"
            "  links:\n"
            "    - &link {length: 400, vf: 20.0, w: 5.0, qmax: 4.0, rho_jam: 0.125}\n"
            "    - {<<: *link, qmax: 2.0}\n"
            "    - <<: *link\n"
            "      offramp: true\n"
            "      beta: .1\n"
            "demand:\n"
            "  upstream: {base: 1.0, peak: 2.5, rise: [50.0, 150.0], fall: [400.0, 500.0], noise_frac: 0.2}\n"
            "sensors:\n"
            "  loops: {links: [0, 2], noise_frac: 0.1}\n"
            "  gnss: {penetration: 0.5, noise_frac: 0.2, min_std: 0.5}\n"
            "  faults: {probability: 0.4}\n"
            "filter:\n"
            "  particles: 25\n"
            "  variants: [none, fisher, np_correct, np_incorrect]\n"
            "  alphas:\n"
            "    - 0.01\n"
            "    - 0.1\n"
            "run: {horizon: 0x19, seeds: [7, 8]}\n"
        )
        assert load_scenario(path) == scenario_from_dict(tiny_scenario_dict())

    @pytest.mark.parametrize(
        "text, spelling",
        [("1e1", "1.0e+1"), ("1.0e308", "1.0e+308"), ("2E-3", "2.0e-3"), (".5e3", ".5e+3"), ("1.e1", "1.e+1")],
    )
    def test_an_exponent_read_as_text_names_the_float_spelling(self, tmp_path, scenario_loader, text, spelling):
        # YAML 1.1 reads an exponent without a dot and a sign as text: the
        # refusal names the spelling it reads as a float, which loads.
        doc = tiny_scenario_dict()
        doc["sensors"]["faults"]["speed_std"] = 10.0
        assert yaml.safe_dump(doc).count("speed_std: 10.0") == 1
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc).replace("speed_std: 10.0", f"speed_std: {text}"))
        message = (
            f"sensors.faults.speed_std: expected float, got str '{text}'; write {spelling}: "
            "YAML reads an exponent without a dot and a sign as text"
        )
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            load_scenario(path)
        path.write_text(yaml.safe_dump(doc).replace("speed_std: 10.0", f"speed_std: {spelling}"))
        doc["sensors"]["faults"]["speed_std"] = float(text)
        assert load_scenario(path) == scenario_from_dict(doc)


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
