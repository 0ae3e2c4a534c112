"""Scenario files: schema validation, defaults, and run manifests.

A scenario is a YAML document with five sections (network, demand, sensors,
filter, run) that fully determines an experiment; every module-level
invariant (CFL conditions, level ranges, spec consistency) is checked at
load time so an invalid scenario never produces output files.  The run
manifest written at the start of every command records a hash over the
resolved scenario and all result-affecting arguments: identical manifests
imply byte-identical outputs.
"""
from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, Sequence

import yaml

from . import __version__
from .ctm import DemandProfile, DemandSchedule, FreewayNetwork, LinkParams
from .errors import ConfigurationError
from .fileio import atomic_write_text
from .harness import ExperimentConfig, FilterVariant
from .sensing import FaultConfig, GnssSpec, HYPOTHESIS_MODES, LoopDetectorSpec

DEFAULT_SCENARIO_FILE = "default_scenario.yaml"


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: model objects plus the resolved raw document."""

    network: FreewayNetwork
    schedule: DemandSchedule
    loop_specs: tuple[LoopDetectorSpec, ...]
    gnss_spec: GnssSpec
    fault_config: FaultConfig
    particles: int
    modes: tuple[str, ...]
    alphas: tuple[float, ...]
    resample_threshold: float
    np_mass_normalized: bool
    h1_zero_std: float
    mape_floor: float
    horizon: int
    seeds: tuple[int, ...]
    out_dir: str | None
    raw: dict

    def experiment_config(self, seeds: Sequence[int] | None = None) -> ExperimentConfig:
        variants = tuple(
            FilterVariant(mode=m, alpha=None if m == "none" else self.alphas[0])
            for m in self.modes
        )
        return ExperimentConfig(
            network=self.network,
            schedule=self.schedule,
            horizon=self.horizon,
            particles=self.particles,
            loop_specs=self.loop_specs,
            gnss_spec=self.gnss_spec,
            fault_config=self.fault_config,
            variants=variants,
            seeds=tuple(seeds) if seeds is not None else self.seeds,
            resample_threshold=self.resample_threshold,
            np_mass_normalized=self.np_mass_normalized,
            h1_zero_std=self.h1_zero_std,
            mape_floor=self.mape_floor,
        )


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


def _get(doc: Mapping, key: str, path: str, kind, default=None, required: bool = False):
    where = f"{path}.{key}"
    if key not in doc:
        if required:
            _fail(where, "missing required field")
        return default
    value = doc[key]
    if kind is float:
        return _finite(value, where)
    if kind is int:
        return _integer(value, where)
    if not isinstance(value, kind):
        _fail(where, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


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
    rise = _get(doc, "rise", path, list, required=True)
    fall = _get(doc, "fall", path, list, required=True)
    if len(rise) != 2 or len(fall) != 2:
        _fail(path, "rise and fall must each be [start, end] times in seconds")
    try:
        return DemandProfile(
            base=_get(doc, "base", path, float, required=True),
            peak=_get(doc, "peak", path, float, required=True),
            rise=tuple(_finite(t, f"{path}.rise[{i}]") for i, t in enumerate(rise)),
            fall=tuple(_finite(t, f"{path}.fall[{i}]") for i, t in enumerate(fall)),
            noise_frac=_get(doc, "noise_frac", path, float, default=0.0),
        )
    except ConfigurationError as exc:
        if str(exc).startswith(path):
            raise
        _fail(path, str(exc))


def scenario_from_dict(doc: Mapping, source: str = "<dict>") -> Scenario:
    """Validate a scenario document and build the model objects.

    Violations are reported with their section and field path.
    """
    if not isinstance(doc, Mapping):
        raise ConfigurationError(f"{source}: scenario document must be a mapping")

    net_doc = _section(doc, "network")
    dt = _get(net_doc, "dt", "network", float, required=True)
    links_doc = _get(net_doc, "links", "network", list, required=True)
    if not links_doc:
        _fail("network.links", "needs at least one link")
    links = []
    for i, link_doc in enumerate(links_doc):
        path = f"network.links[{i}]"
        if not isinstance(link_doc, Mapping):
            _fail(path, "must be a mapping")
        try:
            links.append(
                LinkParams(
                    length=_get(link_doc, "length", path, float, required=True),
                    vf=_get(link_doc, "vf", path, float, required=True),
                    w=_get(link_doc, "w", path, float, required=True),
                    qmax=_get(link_doc, "qmax", path, float, required=True),
                    rho_jam=_get(link_doc, "rho_jam", path, float, required=True),
                    onramp=bool(_get(link_doc, "onramp", path, bool, default=False)),
                    offramp=bool(_get(link_doc, "offramp", path, bool, default=False)),
                    beta=_get(link_doc, "beta", path, float, default=0.0),
                )
            )
        except ConfigurationError as exc:
            if str(exc).startswith(path):
                raise
            _fail(path, str(exc))
    try:
        network = FreewayNetwork(
            links=tuple(links),
            dt=dt,
            onramp_priority=_get(net_doc, "onramp_priority", "network", float, default=0.5),
        )
    except ConfigurationError as exc:
        _fail("network", str(exc))

    demand_doc = _section(doc, "demand")
    upstream = _profile(_section(demand_doc, "upstream", "demand"), "demand.upstream")
    onramp_links = network.onramp_links
    onramp_profiles: list[DemandProfile] = []
    if onramp_links:
        default_doc = demand_doc.get("onramp_default")
        overrides = demand_doc.get("onramp_overrides", {}) or {}
        if not isinstance(overrides, Mapping):
            _fail("demand.onramp_overrides", "must map link index to a profile")
        for link in onramp_links:
            override = overrides.get(link, overrides.get(str(link)))
            if override is not None:
                onramp_profiles.append(_profile(override, f"demand.onramp_overrides.{link}"))
            elif default_doc is not None:
                onramp_profiles.append(_profile(default_doc, "demand.onramp_default"))
            else:
                _fail("demand.onramp_default", f"required: link {link} has an onramp")
    schedule = DemandSchedule(dt=dt, upstream=upstream, onramps=tuple(onramp_profiles))

    sensors_doc = _section(doc, "sensors")
    loops_doc = _section(sensors_doc, "loops", "sensors")
    loop_links = _get(loops_doc, "links", "sensors.loops", list, required=True)
    loop_frac = _get(loops_doc, "noise_frac", "sensors.loops", float)
    loop_abs = _get(loops_doc, "noise_abs", "sensors.loops", float)
    loop_min = _get(loops_doc, "min_std", "sensors.loops", float, default=0.002)
    if loop_frac is None and loop_abs is None:
        loop_frac = 0.10
    loop_specs = []
    for i, link in enumerate(loop_links):
        if not 0 <= _integer(link, f"sensors.loops.links[{i}]") < network.n_links:
            _fail("sensors.loops.links", f"link index {link!r} out of range")
        if link in loop_links[:i]:
            # A detector's sensor id is its link, so two would share one id.
            _fail(f"sensors.loops.links[{i}]", f"link {link} already has a loop detector")
        try:
            loop_specs.append(
                LoopDetectorSpec(
                    link=link, noise_frac=loop_frac, noise_abs=loop_abs, min_std=loop_min
                )
            )
        except ConfigurationError as exc:
            _fail("sensors.loops", str(exc))

    gnss_doc = _section(sensors_doc, "gnss", "sensors")
    try:
        gnss_spec = GnssSpec(
            penetration=_get(gnss_doc, "penetration", "sensors.gnss", float, default=0.02),
            noise_frac=_get(gnss_doc, "noise_frac", "sensors.gnss", float, default=0.20),
            min_std=_get(gnss_doc, "min_std", "sensors.gnss", float, default=0.5),
        )
    except ConfigurationError as exc:
        _fail("sensors.gnss", str(exc))

    faults_doc = _section(sensors_doc, "faults", "sensors")
    try:
        fault_config = FaultConfig(
            probability=_get(faults_doc, "probability", "sensors.faults", float, default=0.30),
            zero_weight=_get(faults_doc, "zero_weight", "sensors.faults", float, default=1.0 / 3.0),
            speed_mean=_get(faults_doc, "speed_mean", "sensors.faults", float, default=30.0),
            speed_std=_get(faults_doc, "speed_std", "sensors.faults", float, default=10.0),
        )
    except ConfigurationError as exc:
        _fail("sensors.faults", str(exc))

    filter_doc = _section(doc, "filter")
    particles = _get(filter_doc, "particles", "filter", int, required=True)
    if particles < 2:
        _fail("filter.particles", "must be at least 2")
    modes = tuple(_get(filter_doc, "variants", "filter", list, required=True))
    for m in modes:
        if m not in HYPOTHESIS_MODES:
            _fail("filter.variants", f"unknown variant {m!r}; expected one of {HYPOTHESIS_MODES}")
    alphas = tuple(
        _finite(a, f"filter.alphas[{i}]")
        for i, a in enumerate(_get(filter_doc, "alphas", "filter", list, required=True))
    )
    for a in alphas:
        if not (0.0 < a < 1.0):
            _fail("filter.alphas", f"levels must lie strictly in (0, 1), got {a}")
    if not alphas:
        _fail("filter.alphas", "needs at least one level")

    run_doc = _section(doc, "run")
    horizon = _get(run_doc, "horizon", "run", int, required=True)
    if horizon < 1:
        _fail("run.horizon", "must be at least 1")
    seeds = tuple(
        _integer(s, f"run.seeds[{i}]")
        for i, s in enumerate(_get(run_doc, "seeds", "run", list, required=True))
    )
    if not seeds:
        _fail("run.seeds", "needs at least one seed")

    scenario = Scenario(
        network=network,
        schedule=schedule,
        loop_specs=tuple(loop_specs),
        gnss_spec=gnss_spec,
        fault_config=fault_config,
        particles=particles,
        modes=modes,
        alphas=alphas,
        resample_threshold=_get(filter_doc, "resample_threshold", "filter", float, default=0.5),
        np_mass_normalized=bool(
            _get(filter_doc, "np_mass_normalized", "filter", bool, default=False)
        ),
        h1_zero_std=_get(filter_doc, "h1_zero_std", "filter", float, default=0.5),
        mape_floor=_get(run_doc, "mape_floor", "run", float, default=1e-4),
        horizon=horizon,
        seeds=seeds,
        out_dir=_get(run_doc, "out", "run", str),
        raw=_as_plain(doc),
    )
    # Surface remaining config-level contract violations at load time.
    scenario.experiment_config()
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"scenario file not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text())
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
