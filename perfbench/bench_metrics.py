"""Metric definitions: end-to-end metrics from the untraced run, per-layer
metrics from the traced run's spans.

Per-layer values describe one traced iteration (set-up, then one unit of
work).  ``*.calls`` and the other ``exact`` metrics are counts that must
repeat exactly for the same code and inputs; a difference is a determinism
failure, not noise.

The last output line carries the ``REPORTED_PER_LAYER`` metrics.  The
rest are printed in the per-layer table only, because on some workload the
layer they time never runs and they read 0.0 on every run: the gates under
the ungated ``wide_ensemble``, the sweep's artifact sink and scoring outside
``study``, and each CLI command outside the workloads that call it.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only: allowed worsening share


# The host's speed drifts: on the 2-vCPU machine the benchmark was defined
# on, the same unit of work took 2.7 to 5.0 s, and a pure-Python loop's 5 s
# medians moved +-25%, with no CPU steal or quota throttling.  Raw wall times
# of ten runs spread 13-32% (IQR/median), more than any bound allows.  So
# the filtering-phase times are reported in reference seconds: wall time
# scaled by PROBE_REF_S over the mean time of the calibration probe that
# runs between filter steps (bench_trace.Probe), which cancels most of the
# drift.  Set-up time is reported as measured.
PROBE_REF_S = 8e-4

END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_s", "ref_s", "lower", 0.24),
    Metric("filter_run_s.p50", "ref_s", "lower", 0.24),
    Metric("steps_per_s", "1/ref_s", "higher", 0.24),
    Metric("step_ms.p50", "ref_ms", "lower", 0.24),
    Metric("step_ms.p99", "ref_ms", "lower", 0.24),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)


def end_to_end(setup_s, unit_s, clock) -> tuple[dict, dict, dict]:
    """Values, raw wall-clock values and sample counts of the end-to-end
    metrics."""
    runs = clock.filter_run_s()
    # Step percentiles are taken per filter run, then the median over runs:
    # a short host stall covers many consecutive steps of one run, and
    # would otherwise decide a pooled tail percentile by itself.
    step_ms = clock.step_ms()
    raw = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(unit_s),
        "filter_run_s.p50": statistics.median(runs),
        "steps_per_s": clock.steps_done() / sum(unit_s),
        "step_ms.p50": statistics.median(float(np.percentile(s, 50)) for s in step_ms),
        "step_ms.p99": statistics.median(float(np.percentile(s, 99)) for s in step_ms),
        "peak_rss_mb": peak_rss_mb(),
    }
    scale = PROBE_REF_S / clock.probe_mean_s()
    values = dict(raw)
    for name in ("run_s", "filter_run_s.p50", "step_ms.p50", "step_ms.p99"):
        values[name] = raw[name] * scale
    values["steps_per_s"] = raw["steps_per_s"] / scale
    samples = {
        "setup_s": len(setup_s),
        "run_s": len(unit_s),
        "filter_run_s.p50": len(runs),
        "steps_per_s": clock.steps_done(),
        "step_ms.p50": sum(len(s) for s in step_ms),
        "step_ms.p99": sum(len(s) for s in step_ms),
        "peak_rss_mb": 1,
    }
    return values, raw, samples


def peak_rss_mb() -> float:
    import resource

    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    value: Callable  # (Spans) -> float
    exact: bool = False
    reported: bool = True


class Spans:
    """Accessors over one iteration's ``{name: (calls, total_s, self_s)}``."""

    def __init__(self, totals: dict, counters: dict, log_bytes: int) -> None:
        self.totals = totals
        self.counters = counters
        self.log_bytes = log_bytes

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def us_per_call(self, name: str, own: bool = False) -> float:
        calls = self.calls(name)
        if not calls:
            return 0.0
        return 1e6 * (self.self_s(name) if own else self.total_s(name)) / calls

    @property
    def steps(self) -> int:
        """Filter steps: one ``predict`` call each."""
        return self.calls("particles.predict")

    def counter(self, key: str) -> float:
        return self.counters.get(key, 0)


def _calls(span: str) -> LayerMetric:
    return LayerMetric(f"{span}.calls", "count", "lower", lambda s: s.calls(span), exact=True)


def _per_call(span: str, own: bool = False, reported: bool = True) -> LayerMetric:
    suffix = "self_us_per_call" if own else "us_per_call"
    return LayerMetric(
        f"{span}.{suffix}", "us", "lower", lambda s: s.us_per_call(span, own), reported=reported
    )


def _seconds(name: str, *spans: str, own: bool = False, reported: bool = True) -> LayerMetric:
    read = (lambda s: s.self_s(*spans)) if own else (lambda s: s.total_s(*spans))
    return LayerMetric(name, "s", "lower", read, reported=reported)


CLI_COMMANDS = ("cli.cmd_sweep", "cli.cmd_simulate", "cli.cmd_filter")

PER_LAYER = (
    # ctm
    _calls("ctm.junction_flows"),
    _per_call("ctm.junction_flows"),
    _per_call("ctm.advance", own=True),
    _per_call("ctm.speed_map", own=True),
    _per_call("ctm.demand_sample"),
    _seconds("ctm.simulate.s", "ctm.simulate"),
    # particles
    _per_call("particles.predict", own=True),
    _calls("particles.ensemble_build"),
    _per_call("particles.ensemble_build"),
    _per_call("particles.weight_update"),
    _per_call("particles.normalize"),
    _per_call("particles.posterior_mean"),
    _per_call("particles.effective_sample_size"),
    _calls("particles.resample_systematic"),
    _per_call("particles.resample_systematic"),
    # gates
    _per_call("gates.gated_update"),
    _per_call("gates.gated_update", own=True),
    _calls("gates.np_gate"),
    _per_call("gates.np_gate", reported=False),
    _calls("gates.fisher_gate"),
    _per_call("gates.fisher_gate", reported=False),
    LayerMetric(
        "gates.accepted_ratio",
        "ratio",
        "higher",
        lambda s: s.counter("gates.accepted") / s.counter("gates.tested")
        if s.counter("gates.tested")
        else 1.0,
        exact=True,
    ),
    LayerMetric(
        "gates.no_information_steps",
        "count",
        "lower",
        lambda s: s.counter("gates.no_information_steps"),
        exact=True,
    ),
    # sensing
    _per_call("sensing.build_sensor_models"),
    LayerMetric(
        "sensing.reports_per_step",
        "count",
        "lower",
        lambda s: s.counter("sensing.reports") / s.steps if s.steps else 0.0,
        exact=True,
    ),
    _seconds("sensing.generate_measurements.s", "harness.generate_measurements"),
    _seconds("sensing.write_measurement_log.s", "sensing.write_measurement_log"),
    _seconds("sensing.read_measurement_log.s", "sensing.read_measurement_log"),
    LayerMetric("sensing.log_bytes", "bytes", "lower", lambda s: s.log_bytes, exact=True),
    # harness
    LayerMetric(
        "harness.run_traffic_filter.self_us_per_step",
        "us",
        "lower",
        lambda s: 1e6 * s.self_s("harness.run_traffic_filter") / s.steps if s.steps else 0.0,
    ),
    _seconds("harness.score.s", "harness.confusion_metrics", "harness.mape", reported=False),
    _seconds("harness.artifact_sink.s", "harness.artifact_sink", reported=False),
    # fileio
    _calls("fileio.atomic_write_text"),
    LayerMetric(
        "fileio.atomic_write_text.bytes",
        "bytes",
        "lower",
        lambda s: s.counter("fileio.atomic_write_text.bytes"),
        exact=True,
    ),
    _seconds("fileio.atomic_write_text.s", "fileio.atomic_write_text"),
    # scenario
    _seconds("scenario.load_scenario.s", "scenario.load_scenario"),
    _seconds("scenario.write_manifest.s", "scenario.write_manifest"),
    # rng
    _calls("rng.normal"),
    _per_call("rng.normal"),
    # cli: per command in the table, summed on the last output line
    _seconds("cli.self_s", *CLI_COMMANDS, own=True),
    _seconds("cli.sweep.self_s", "cli.cmd_sweep", own=True, reported=False),
    _seconds("cli.simulate.self_s", "cli.cmd_simulate", own=True, reported=False),
    _seconds("cli.filter.self_s", "cli.cmd_filter", own=True, reported=False),
    # the recorder itself
    LayerMetric("trace.spans", "count", "lower", lambda s: s.counter("trace.spans"), exact=True),
)

TRACE_OVERHEAD = Metric("trace.overhead_s", "s", "lower")
REPORTED_PER_LAYER = tuple(m for m in PER_LAYER if m.reported) + (TRACE_OVERHEAD,)
