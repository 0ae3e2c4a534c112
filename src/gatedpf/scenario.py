"""Scenario files: schema validation, defaults, and run manifests.

A scenario is a YAML document with five sections (network, demand, sensors,
filter, run) that fully determines an experiment: the loaded
:class:`Scenario` is the study's :class:`~gatedpf.harness.ExperimentConfig`.
An omitted optional field takes the default of the model type it
configures; the loader states no default of its own.  Every module-level
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
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, Sequence

import yaml

from . import __version__
from .ctm import DemandProfile, DemandSchedule, FreewayNetwork, LinkParams
from .errors import ConfigurationError
from .fileio import atomic_write_text
from .harness import ExperimentConfig, FilterVariant
from .sensing import FaultConfig, GnssSpec, HYPOTHESIS_MODES, LoopDetectors

DEFAULT_SCENARIO_FILE = "default_scenario.yaml"

# The section that holds each field :class:`ExperimentConfig` checks itself.
_CONFIG_SECTIONS = {
    "particles": "filter",
    "variants": "filter",
    "resample_threshold": "filter",
    "h1_zero_std": "filter",
    "horizon": "run",
    "seeds": "run",
    "mape_floor": "run",
}


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


def _section(doc: Mapping, key: str, path: str = "") -> Mapping:
    where = f"{path}.{key}" if path else key
    if key not in doc:
        _fail(where, "missing section")
    value = doc[key]
    if not isinstance(value, Mapping):
        _fail(where, "must be a mapping")
    return value


def _get(doc: Mapping, key: str, path: str, kind):
    """The required field ``doc[key]``, checked against ``kind``."""
    where = f"{path}.{key}"
    if key not in doc:
        _fail(where, "missing required field")
    value = doc[key]
    if kind is float:
        return _finite(value, where)
    if kind is int:
        return _integer(value, where)
    if not isinstance(value, kind):
        _fail(where, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _optional(doc: Mapping, path: str, **kinds) -> dict:
    """The fields of ``kinds`` that ``doc`` holds, each checked against its
    kind; an absent one is left to the default of the model type."""
    return {key: _get(doc, key, path, kind) for key, kind in kinds.items() if key in doc}


def _build(model, path: str, **fields):
    """``model(**fields)``, with the model's own error prefixed by ``path``."""
    try:
        return model(**fields)
    except ConfigurationError as exc:
        _fail(path, str(exc))


def _finite(value, where: str) -> float:
    """``value`` as a finite float; ints convert, booleans do not."""
    if isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
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
    if not isinstance(doc, Mapping):
        _fail(path, "must be a mapping")
    rise = _get(doc, "rise", path, list)
    fall = _get(doc, "fall", path, list)
    if len(rise) != 2 or len(fall) != 2:
        _fail(path, "rise and fall must each be [start, end] times in seconds")
    return _build(
        DemandProfile,
        path,
        base=_get(doc, "base", path, float),
        peak=_get(doc, "peak", path, float),
        rise=tuple(_finite(t, f"{path}.rise[{i}]") for i, t in enumerate(rise)),
        fall=tuple(_finite(t, f"{path}.fall[{i}]") for i, t in enumerate(fall)),
        **_optional(doc, path, noise_frac=float),
    )


def scenario_from_dict(doc: Mapping, source: str = "<dict>") -> Scenario:
    """Validate a scenario document and build the model objects.

    Violations are reported with their section and field path.
    """
    if not isinstance(doc, Mapping):
        raise ConfigurationError(f"{source}: scenario document must be a mapping")

    net_doc = _section(doc, "network")
    dt = _get(net_doc, "dt", "network", float)
    links_doc = _get(net_doc, "links", "network", list)
    if not links_doc:
        _fail("network.links", "needs at least one link")
    links = []
    for i, link_doc in enumerate(links_doc):
        path = f"network.links[{i}]"
        if not isinstance(link_doc, Mapping):
            _fail(path, "must be a mapping")
        shape = {k: _get(link_doc, k, path, float) for k in ("length", "vf", "w", "qmax", "rho_jam")}
        ramps = _optional(link_doc, path, onramp=bool, offramp=bool, beta=float)
        links.append(_build(LinkParams, path, **shape, **ramps))
    priority = _optional(net_doc, "network", onramp_priority=float)
    network = _build(FreewayNetwork, "network", links=tuple(links), dt=dt, **priority)

    demand_doc = _section(doc, "demand")
    upstream = _profile(_section(demand_doc, "upstream", "demand"), "demand.upstream")
    onramp_links = network.onramp_links
    overrides = demand_doc.get("onramp_overrides", {}) or {}
    if not isinstance(overrides, Mapping):
        _fail("demand.onramp_overrides", "must map link index to a profile")
    # A key names a link with an onramp, as an int or its decimal string.
    by_link: dict[int, Any] = {}
    for key, override in overrides.items():
        where = f"demand.onramp_overrides.{key}"
        link = next((l for l in onramp_links if str(l) == str(key)), None)
        if link is None:
            _fail(where, f"not a link with an onramp; the onramp links are {list(onramp_links)}")
        if link in by_link:
            _fail(where, f"link {link} already has an override")
        by_link[link] = override
    onramp_profiles: list[DemandProfile] = []
    default_doc = demand_doc.get("onramp_default")
    for link in onramp_links:
        if link in by_link:
            onramp_profiles.append(_profile(by_link[link], f"demand.onramp_overrides.{link}"))
        elif default_doc is not None:
            onramp_profiles.append(_profile(default_doc, "demand.onramp_default"))
        else:
            _fail("demand.onramp_default", f"required: link {link} has an onramp")
    schedule = DemandSchedule(dt=dt, upstream=upstream, onramps=tuple(onramp_profiles))

    sensors_doc = _section(doc, "sensors")
    loops_doc = _section(sensors_doc, "loops", "sensors")
    loop_links = _get(loops_doc, "links", "sensors.loops", list)
    for i, link in enumerate(loop_links):
        if not 0 <= _integer(link, f"sensors.loops.links[{i}]") < network.n_links:
            _fail("sensors.loops.links", f"link index {link!r} out of range")
        if link in loop_links[:i]:
            # A detector's sensor id is its link, so two would share one id.
            _fail(f"sensors.loops.links[{i}]", f"link {link} already has a loop detector")
    noise = _optional(loops_doc, "sensors.loops", noise_frac=float, noise_abs=float, min_std=float)
    loops = _build(LoopDetectors, "sensors.loops", links=tuple(loop_links), **noise)

    gnss_doc = _section(sensors_doc, "gnss", "sensors")
    gnss = _optional(gnss_doc, "sensors.gnss", penetration=float, noise_frac=float, min_std=float)
    gnss_spec = _build(GnssSpec, "sensors.gnss", **gnss)
    faults_doc = _section(sensors_doc, "faults", "sensors")
    faults = _optional(
        faults_doc, "sensors.faults",
        probability=float, zero_weight=float, speed_mean=float, speed_std=float,
    )
    fault_config = _build(FaultConfig, "sensors.faults", **faults)

    filter_doc = _section(doc, "filter")
    particles = _get(filter_doc, "particles", "filter", int)
    modes = _get(filter_doc, "variants", "filter", list)
    for m in modes:
        if m not in HYPOTHESIS_MODES:
            _fail("filter.variants", f"unknown variant {m!r}; expected one of {HYPOTHESIS_MODES}")
    alphas = tuple(
        _finite(a, f"filter.alphas[{i}]")
        for i, a in enumerate(_get(filter_doc, "alphas", "filter", list))
    )
    for i, a in enumerate(alphas):
        if not (0.0 < a < 1.0):
            _fail("filter.alphas", f"levels must lie strictly in (0, 1), got {a}")
        # A run's files are named by its level's label, so two levels with
        # one label would overwrite each other's files.
        twin = next((b for b in alphas[:i] if b != a and f"{b:g}" == f"{a:g}"), None)
        if twin is not None:
            _fail(f"filter.alphas[{i}]", f"level {a!r} has the label {a:g} of level {twin!r}")
    if not alphas:
        _fail("filter.alphas", "needs at least one level")

    run_doc = _section(doc, "run")
    horizon = _get(run_doc, "horizon", "run", int)
    seeds = tuple(
        _integer(s, f"run.seeds[{i}]")
        for i, s in enumerate(_get(run_doc, "seeds", "run", list))
    )

    fields = dict(
        network=network,
        schedule=schedule,
        horizon=horizon,
        particles=particles,
        loops=loops,
        gnss_spec=gnss_spec,
        fault_config=fault_config,
        variants=tuple(
            dict.fromkeys(
                FilterVariant(mode=m, alpha=a)
                for m in modes
                for a in ((None,) if m == "none" else alphas)
            )
        ),
        seeds=seeds,
        **_optional(
            filter_doc,
            "filter",
            resample_threshold=float,
            np_mass_normalized=bool,
            h1_zero_std=float,
        ),
        **_optional(run_doc, "run", mape_floor=float),
        alphas=alphas,
        raw=_as_plain(doc),
    )
    try:
        return Scenario(**fields)
    except ConfigurationError as exc:
        # The config's own checks name the field; give it its section.
        field, _, message = str(exc).partition(": ")
        _fail(f"{_CONFIG_SECTIONS[field]}.{field}", message)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text())
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
