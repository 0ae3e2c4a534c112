"""Scenario files: schema validation, defaults, and run manifests.

A scenario is a YAML document with five sections (network, demand, sensors,
filter, run) that fully determines an experiment: the loaded
:class:`Scenario` is the study's :class:`~gatedpf.harness.ExperimentConfig`.
Every mapping holds only the fields its reader knows: an unknown key, or
one written twice, is refused.  An omitted optional field takes the
default of the model type it configures; the loader states no default of
its own.  Every module-level
invariant (CFL conditions, level ranges, spec consistency) is checked at
load time, with the field's path, so an invalid scenario never produces
output files.  The run manifest written at the start of every command
records a hash over the resolved scenario and all result-affecting
arguments: identical manifests imply byte-identical outputs.
"""
from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Any

import yaml

from . import __version__
from .ctm import DemandProfile, DemandSchedule, FreewayNetwork, LinkParams
from .errors import ConfigurationError
from .fileio import atomic_write_text
from .gates import MODES
from .harness import ExperimentConfig, FilterVariant
from .rng import NORMAL_BOUND, relative_draws_fit
from .sensing import FaultConfig, GnssSpec, LoopDetectors

DEFAULT_SCENARIO_FILE = "default_scenario.yaml"

# The required and the optional fields of a link.
_LINK = {"length": float, "vf": float, "w": float, "qmax": float, "rho_jam": float}
_RAMPS = {"onramp": bool, "offramp": bool, "beta": float}

@dataclass(frozen=True, kw_only=True)
class Scenario(ExperimentConfig):
    """Validated scenario: the study's experiment config, whose ``variants``
    are every mode at every level in ``alphas`` order and the ungated
    ``none`` once, in mode order with repeats dropped; plus the levels and
    the resolved raw document."""

    alphas: tuple[float, ...]
    raw: dict

    def experiment_config(self, seeds: Sequence[int] | None = None) -> ExperimentConfig:
        """The study over ``seeds`` (default: the scenario's)."""
        return self if seeds is None else replace(self, seeds=tuple(seeds))


def _fail(path: str, message: str) -> None:
    raise ConfigurationError(f"{path}: {message}")


def _fields(doc, path: str, required: Mapping[str, type], optional: Mapping[str, type] = {}) -> dict:
    """The fields of the mapping ``doc`` at ``path``, each checked against
    its kind: every ``required`` key must be present, an ``optional`` one
    may be omitted (the model type's default then applies), and any other
    key is refused."""
    if not isinstance(doc, Mapping):
        _fail(path, "must be a mapping")
    known = {**required, **optional}
    fields = {}
    for key, value in doc.items():
        where = f"{path}.{key}" if path else str(key)
        kind = known.get(key)
        if kind is None:
            _fail(where, f"unknown field; {path or 'a scenario'} takes {', '.join(known)}")
        if kind is float:
            value = _finite(value, where)
        elif kind is int:
            value = _integer(value, where)
        elif not isinstance(value, kind):
            _fail(where, f"expected {kind.__name__}, got {type(value).__name__}")
        fields[key] = value
    for key in required:
        if key not in doc:
            _fail(f"{path}.{key}" if path else key, "missing required field")
    return fields


def _build(model, path: str, **fields):
    """``model(**fields)``, with the model's own error prefixed by ``path``."""
    try:
        return model(**fields)
    except ConfigurationError as exc:
        _fail(path, str(exc))


def _finite(value, where: str) -> float:
    """``value`` as a finite float; ints convert, booleans do not.  A number
    YAML 1.1 reads as text (``1e1``: an exponent without a dot and a sign)
    is refused naming the spelling YAML reads as a float."""
    if isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    number = isinstance(value, str) and re.fullmatch(r"([-+]?(?:\d+\.?\d*|\.\d+))[eE]([-+]?)(\d+)", value)
    if number:
        mantissa, sign, exponent = number.groups()
        spelling = f"{mantissa}{'' if '.' in mantissa else '.0'}e{sign or '+'}{exponent}"
        _fail(
            where,
            f"expected float, got str {value!r}; write {spelling}: "
            "YAML reads an exponent without a dot and a sign as text",
        )
    if not isinstance(value, float):
        _fail(where, f"expected float, got {type(value).__name__}")
    if not math.isfinite(value):
        _fail(where, f"must be finite, got {value}")
    return value


def _integer(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(where, f"expected int, got {type(value).__name__}")
    return value


def _profile(doc, path: str) -> DemandProfile:
    fields = _fields(
        doc, path, {"base": float, "peak": float, "rise": list, "fall": list}, {"noise_frac": float}
    )
    for name in ("rise", "fall"):
        if len(fields[name]) != 2:
            _fail(path, "rise and fall must each be [start, end] times in seconds")
        fields[name] = tuple(_finite(t, f"{path}.{name}[{i}]") for i, t in enumerate(fields[name]))
    return _build(DemandProfile, path, **fields)


def scenario_from_dict(doc: Mapping, source: str = "<dict>") -> Scenario:
    """Validate a scenario document and build the model objects.

    Violations are reported with their section and field path.
    """
    if not isinstance(doc, Mapping):
        raise ConfigurationError(f"{source}: scenario document must be a mapping")
    sections = _fields(
        doc, "", dict.fromkeys(("network", "demand", "sensors", "filter", "run"), Mapping)
    )

    net = _fields(
        sections["network"], "network", {"dt": float, "links": list}, {"onramp_priority": float}
    )
    if not net["links"]:
        _fail("network.links", "needs at least one link")
    links = []
    for i, link in enumerate(net["links"]):
        path = f"network.links[{i}]"
        links.append(_build(LinkParams, path, **_fields(link, path, _LINK, _RAMPS)))
    network = _build(FreewayNetwork, "network", **{**net, "links": tuple(links)})

    demand = _fields(
        sections["demand"], "demand", {"upstream": Mapping},
        {"onramp_default": Mapping, "onramp_overrides": Mapping},
    )
    upstream = _profile(demand["upstream"], "demand.upstream")
    onramp_links = network.onramp_links
    # A key names a link with an onramp, as an int or its decimal string.
    by_link: dict[int, Any] = {}
    for key, override in demand.get("onramp_overrides", {}).items():
        where = f"demand.onramp_overrides.{key}"
        link = next((l for l in onramp_links if str(l) == str(key)), None)
        if link is None:
            _fail(where, f"not a link with an onramp; the onramp links are {list(onramp_links)}")
        if link in by_link:
            _fail(where, f"link {link} already has an override")
        by_link[link] = override
    onramp_profiles: list[DemandProfile] = []
    for link in onramp_links:
        if link in by_link:
            onramp_profiles.append(_profile(by_link[link], f"demand.onramp_overrides.{link}"))
        elif "onramp_default" in demand:
            onramp_profiles.append(_profile(demand["onramp_default"], "demand.onramp_default"))
        else:
            _fail("demand.onramp_default", f"required: link {link} has an onramp")
    schedule = DemandSchedule(dt=net["dt"], upstream=upstream, onramps=tuple(onramp_profiles))

    sensors = _fields(
        sections["sensors"], "sensors", dict.fromkeys(("loops", "gnss", "faults"), Mapping)
    )
    loops = _fields(
        sensors["loops"], "sensors.loops", {"links": list}, {"noise_frac": float, "min_std": float}
    )
    for i, link in enumerate(loops["links"]):
        if not 0 <= _integer(link, f"sensors.loops.links[{i}]") < network.n_links:
            _fail("sensors.loops.links", f"link index {link!r} out of range")
        if link in loops["links"][:i]:
            # A detector's sensor id is its link, so two would share one id.
            _fail(f"sensors.loops.links[{i}]", f"link {link} already has a loop detector")
    loops = _build(LoopDetectors, "sensors.loops", **{**loops, "links": tuple(loops["links"])})
    gnss = _fields(
        sensors["gnss"], "sensors.gnss", {},
        {"penetration": float, "noise_frac": float, "min_std": float},
    )
    gnss_spec = _build(GnssSpec, "sensors.gnss", **gnss)
    # A reading is v + noise_frac * v * z of a true value v: a density up to
    # the largest jam density, a speed up to the largest freeflow speed.
    for path, spec, name in (("sensors.loops", loops, "rho_jam"), ("sensors.gnss", gnss_spec, "vf")):
        largest = max(getattr(link, name) for link in network.links)
        if not relative_draws_fit(largest, spec.noise_frac):
            _fail(
                path,
                f"noise_frac {spec.noise_frac!r} at the largest link {name} {largest!r} draws "
                f"readings past the float range: v + noise_frac * v * z must be finite "
                f"for |z| up to {NORMAL_BOUND:g}",
            )
    faults = _fields(
        sensors["faults"], "sensors.faults", {},
        {"probability": float, "zero_weight": float, "speed_mean": float, "speed_std": float},
    )
    fault_config = _build(FaultConfig, "sensors.faults", **faults)

    filt = _fields(
        sections["filter"], "filter",
        {"particles": int, "variants": list, "alphas": list},
        {"resample_threshold": float, "h1_zero_std": float},
    )
    modes = filt.pop("variants")
    for m in modes:
        if m not in MODES:
            _fail("filter.variants", f"unknown variant {m!r}; expected one of {tuple(MODES)}")
    levels = [_finite(a, f"filter.alphas[{i}]") for i, a in enumerate(filt.pop("alphas"))]
    if not levels:
        _fail("filter.alphas", "needs at least one level")
    for i, a in enumerate(levels):
        if not (0.0 < a < 1.0):
            _fail("filter.alphas", f"levels must lie strictly in (0, 1), got {a}")
        # A run's files are named by its level's label, so two levels with
        # one label would overwrite each other's files.
        twin = next((b for b in levels[:i] if b != a and f"{b:g}" == f"{a:g}"), None)
        if twin is not None:
            _fail(f"filter.alphas[{i}]", f"level {a!r} has the label {a:g} of level {twin!r}")
    # A level written twice is one level.
    alphas = tuple(dict.fromkeys(levels))

    run = _fields(sections["run"], "run", {"horizon": int, "seeds": list}, {"mape_floor": float})
    run["seeds"] = tuple(_integer(s, f"run.seeds[{i}]") for i, s in enumerate(run["seeds"]))

    fields = dict(
        network=network,
        schedule=schedule,
        loops=loops,
        gnss_spec=gnss_spec,
        fault_config=fault_config,
        variants=tuple(
            dict.fromkeys(
                FilterVariant(mode=m, alpha=a)
                for m in modes
                for a in ((None,) if MODES[m] is None else alphas)
            )
        ),
        **filt,
        **run,
        alphas=alphas,
        raw=_as_plain(doc),
    )
    try:
        return Scenario(**fields)
    except ConfigurationError as exc:
        # The config's own checks name the field; give it its section.
        field, _, message = str(exc).partition(": ")
        _fail(f"{'run' if field in run else 'filter'}.{field}", message)


class _ScenarioLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe YAML loader, in C where PyYAML was built with libyaml,
    refusing a key written twice in one mapping (``safe_load`` keeps the
    last one)."""

    def construct_mapping(self, node, deep=False):
        own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        keys = [self.construct_object(key, deep=deep) for key in own]
        for i, key in enumerate(keys):
            # A list, not a set: an unhashable key is the base class's error.
            if key in keys[:i]:
                raise yaml.constructor.ConstructorError(
                    None, None, f"key {key!r} is repeated", own[i].start_mark
                )
        # By name, not through ``super``: the method is the same on either base.
        return yaml.constructor.SafeConstructor.construct_mapping(self, node, deep=deep)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        # Read from the file, which PyYAML names by its path in an error.
        with path.open() as stream:
            doc = yaml.load(stream, _ScenarioLoader)
    except FileNotFoundError:
        raise ConfigurationError(f"scenario file not found: {path}") from None
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read the scenario: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not a text file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: invalid YAML: {exc}") from exc
    return scenario_from_dict(doc, source=str(path))


def _as_plain(value: Any) -> Any:
    if isinstance(value, Mapping):
        return {str(k): _as_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_plain(v) for v in value]
    return value


@functools.cache
def _default_doc() -> dict:
    text = resources.files(__package__).joinpath(DEFAULT_SCENARIO_FILE).read_text()
    return yaml.safe_load(text)


def default_scenario_dict() -> dict:
    """The desk-scale default study, as written in the packaged
    ``default_scenario.yaml``; every call returns a fresh copy that the
    caller may modify."""
    return copy.deepcopy(_default_doc())


def default_scenario() -> Scenario:
    return scenario_from_dict(default_scenario_dict(), source="<default>")


def config_hash(scenario_doc: Mapping, extra: Mapping | None = None) -> str:
    """Hash over every value that affects results."""
    payload = {"scenario": _as_plain(scenario_doc), "extra": _as_plain(extra or {})}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def write_manifest(
    out_dir: str | Path,
    command: str,
    scenario: Scenario,
    seeds: Sequence[int],
    artifacts: Mapping[str, str],
    extra: Mapping | None = None,
) -> Path:
    """Write the run manifest; must precede any result file."""
    out_dir = Path(out_dir)
    extra_all = {"command": command, "seeds": [int(s) for s in seeds]}
    extra_all.update(_as_plain(extra or {}))
    manifest = {
        "tool": "gatedpf",
        "version": __version__,
        "command": command,
        "config_hash": config_hash(scenario.raw, extra_all),
        "seeds": [int(s) for s in seeds],
        "artifacts": dict(artifacts),
        "scenario": scenario.raw,
    }
    return atomic_write_text(
        out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
