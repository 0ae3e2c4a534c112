"""The record-based measurement generator, kept as the reference for the
column generator: one frozen :class:`Record` per measurement, sampled step
by step and link by link, with faults injected record by record.  Also the
conversions between records and :class:`~gatedpf.sensing.MeasurementLog`
that the tests use to write logs by hand and to read them row by row."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from gatedpf.fileio import csv_text
from gatedpf.harness import STREAM_FAULTS, STREAM_GNSS, STREAM_LOOPS
from gatedpf.sensing import (
    GNSS_SPEED,
    LOOP_DENSITY,
    MEASUREMENT_COLUMNS,
    MEASUREMENT_KINDS,
    MeasurementLog,
    vehicle_counts,
)


@dataclass(frozen=True)
class Record:
    """One measurement plus its ground-truth fault label."""

    k: int
    sensor_id: str
    kind: str
    link: int
    value: float
    faulty: bool


def log_of(records: Iterable[Record]) -> MeasurementLog:
    """The in-memory log of ``records``, in their order."""
    records = list(records)
    return MeasurementLog(
        steps=[m.k for m in records],
        sensor_ids=[m.sensor_id for m in records],
        speed=[m.kind == GNSS_SPEED for m in records],
        links=[m.link for m in records],
        values=[m.value for m in records],
        faulty=[m.faulty for m in records],
    )


def records_of(log: MeasurementLog) -> list[Record]:
    """The rows of ``log`` as records, in log order."""
    kinds = [MEASUREMENT_KINDS[s] for s in log.speed.tolist()]
    return [
        Record(*row)
        for row in zip(
            log.steps.tolist(), log.sensor_ids.tolist(), kinds, log.links.tolist(),
            log.values.tolist(), log.faulty.tolist(),
        )
    ]


def log_text(records: Iterable[Record]) -> str:
    """The text the measurement-log writer wrote for a record list."""
    rows = ((m.k, m.sensor_id, m.kind, m.link, repr(m.value), int(m.faulty)) for m in records)
    return csv_text(MEASUREMENT_COLUMNS, rows)


def sample_loop_detectors(state, loops, rng, k) -> list[Record]:
    """One noisy density reading per detector, clamped to nonnegative."""
    state = np.asarray(state, dtype=float)
    out = []
    noise = rng.normal(size=len(loops.links))
    for link, z in zip(loops.links, noise):
        true = float(state[link])
        value = max(0.0, true + loops.noise_frac * true * float(z))
        out.append(Record(k, f"loop-{link}", LOOP_DENSITY, link, value, False))
    return out


def sample_gnss_speeds(true_speeds, counts, spec, rng, k) -> list[Record]:
    """Per-vehicle speed reports at the penetration rate, one normal draw
    per reporting link."""
    true_speeds = np.asarray(true_speeds, dtype=float)
    counts = np.asarray(counts)
    reporting = rng.binomial(np.maximum(counts, 0), spec.penetration)
    out = []
    for link in range(len(counts)):
        n = int(reporting[link])
        if n == 0:
            continue
        speed = float(true_speeds[link])
        noise = rng.normal(0.0, 1.0, size=n)
        values = np.maximum(0.0, speed + spec.noise_frac * speed * noise)
        for i in range(n):
            out.append(Record(k, f"gnss-{k}-{link}-{i}", GNSS_SPEED, link, float(values[i]), False))
    return out


def inject_faults(records: Sequence[Record], config, rng) -> list[Record]:
    """Replace each speed report by a fault with ``config.probability``: an
    exact zero with weight ``zero_weight``, else a fault Gaussian draw
    resampled until positive."""
    if config.probability == 0.0:
        return list(records)
    out = []
    for m in records:
        if m.kind != GNSS_SPEED or float(rng.random()) >= config.probability:
            out.append(m)
            continue
        if float(rng.random()) < config.zero_weight:
            value = 0.0
        else:
            value = float(rng.normal(config.speed_mean, config.speed_std))
            while value <= 0.0:
                value = float(rng.normal(config.speed_mean, config.speed_std))
        out.append(replace(m, value=value, faulty=True))
    return out


def generate_records(truth, network, loops, gnss_spec, fault_config, rng) -> list[Record]:
    """The measurement log of steps 1 .. horizon - 1 of ``truth`` as records,
    on the streams ``harness.generate_measurements`` uses."""
    rng_loops = rng.derive(STREAM_LOOPS)
    rng_gnss = rng.derive(STREAM_GNSS)
    records = []
    for k in range(1, truth.horizon):
        records += sample_loop_detectors(truth.states[k], loops, rng_loops, k)
        counts = vehicle_counts(truth.states[k], network)
        records += sample_gnss_speeds(truth.speeds[k], counts, gnss_spec, rng_gnss, k)
    return inject_faults(records, fault_config, rng.derive(STREAM_FAULTS))
