"""Span recording by patching module attributes of the gatedpf package.

Nothing under ``src/`` is edited: :func:`patched` swaps each target function
for a wrapper in every loaded ``gatedpf`` module that holds a reference to
it (``from .x import f`` copies the reference, so the defining module alone
is not enough) and puts the originals back in ``finally``.

Two recorders share that mechanism:

* :class:`StepClock` is what the untraced run installs.  It takes one
  timestamp per filter step, at the call into ``predict``, plus the start
  and end of every ``run_traffic_filter`` call, and times a calibration
  probe every few steps.  That is all the end-to-end metrics need.
* :class:`SpanRecorder` is the traced run.  It wraps the public functions
  of every module and records one span per call: name, start, end, parent
  span and run id ``(seed, variant)``.  Spans stay in flat in-memory arrays
  and are written once, when the benchmark ends.
"""
from __future__ import annotations

import functools
import sys
import types
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Modules whose public functions the traced run wraps, in layer order.
LAYERS = ("ctm", "particles", "gates", "sensing", "harness", "fileio", "scenario", "rng", "cli")

# Methods that carry a layer's work but are not module-level functions.
# Maps "module.Class.method" to the span name used in the metrics.
METHODS = {
    "particles.ParticleEnsemble.__post_init__": "particles.ensemble_build",
    "ctm.DemandSchedule.sample": "ctm.demand_sample",
    "rng.RandomSource.normal": "rng.normal",
    "rng.RandomSource.uniform": "rng.uniform",
    "rng.RandomSource.random": "rng.random",
    "rng.RandomSource.binomial": "rng.binomial",
    "rng.RandomSource.integers": "rng.integers",
    "rng.RandomSource.derive": "rng.derive",
    "rng.RandomSource.split": "rng.split",
}


def _modules():
    return {name: sys.modules[f"gatedpf.{name}"] for name in LAYERS}


def public_functions(module: types.ModuleType):
    """Public functions defined in ``module`` itself, by name."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


@contextmanager
def patched(replacements):
    """Install ``{(owner, attr): wrapper}`` for the duration of the block.

    ``owner`` is a module or a class.  For module functions every loaded
    ``gatedpf`` module that references the same object is patched too.
    """
    saved = []
    try:
        for (owner, attr), wrapper in replacements.items():
            original = vars(owner)[attr]
            holders = [owner]
            if isinstance(owner, types.ModuleType):
                holders += [
                    mod
                    for name, mod in list(sys.modules.items())
                    if mod is not owner
                    and (name == "gatedpf" or name.startswith("gatedpf."))
                    and any(v is original for v in vars(mod).values())
                ]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        saved.append((holder, name, value))
                        setattr(holder, name, wrapper)
        yield
    finally:
        for holder, name, value in reversed(saved):
            setattr(holder, name, value)


PROBE_EVERY = 32  # filter steps between calibration probes


class Probe:
    """Fixed calibration work whose time tracks the host's speed.

    It mixes the two kinds of work a filter step does: numpy arithmetic on
    (1600, 24) blocks, and Python reads of objects scattered over a heap
    larger than the L2 cache.  Of the probes tried, this mix followed the
    drift of both ``dense_probes`` and ``wide_ensemble`` most closely.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a = rng.random((1600, 24))
        self.b = rng.random((1600, 24))
        pool = [(i, float(i), str(i)) for i in range(30_000)]
        self.objects = [pool[i] for i in rng.choice(len(pool), 3000, replace=False)]

    def __call__(self) -> float:
        start = perf_counter()
        x = np.minimum(self.a * 1.5, self.b)
        y = np.where(x > 0.5, x - self.a, self.b)
        float(np.maximum(y, 0.0).sum())
        total = 0.0
        for item in self.objects:
            total += item[1]
        return perf_counter() - start


class StepClock:
    """One timestamp per filter step, the bounds of every filter run, and
    the calibration probe's times.

    :meth:`now` is a clock that stops while the probe runs, so the probe
    adds nothing to any interval measured with it.
    """

    def __init__(self) -> None:
        self.steps = array("d")
        # start, end, first step, step count; a run that raises is not recorded
        self.runs: list[tuple[float, float, int, int]] = []
        self.probe = Probe()
        self.probes = array("d")
        self._probe_total = 0.0

    def now(self) -> float:
        return perf_counter() - self._probe_total

    def replacements(self):
        mods = _modules()
        predict = mods["particles"].predict
        run_filter = mods["harness"].run_traffic_filter
        stamp = self.steps.append

        @functools.wraps(predict)
        def timed_predict(*args, **kwargs):
            if len(self.steps) % PROBE_EVERY == 0:
                spent = self.probe()
                self.probes.append(spent)
                self._probe_total += spent
            stamp(self.now())
            return predict(*args, **kwargs)

        @functools.wraps(run_filter)
        def timed_run(*args, **kwargs):
            first = len(self.steps)
            start = self.now()
            result = run_filter(*args, **kwargs)
            self.runs.append((start, self.now(), first, len(self.steps) - first))
            return result

        return {
            (mods["particles"], "predict"): timed_predict,
            (mods["harness"], "run_traffic_filter"): timed_run,
        }

    def probe_mean_s(self) -> float:
        return sum(self.probes) / len(self.probes)

    def step_ms(self) -> list[np.ndarray]:
        """Per-step latency of each filter run: gap between consecutive
        ``predict`` calls, and from the last one to the end of the run.
        Steps that start right after a probe are left out: the probe has
        evicted their data from the caches."""
        stamps = np.array(self.steps, dtype=float)
        out = []
        for _, end, first, n in self.runs:
            if n:
                gaps = np.diff(np.append(stamps[first : first + n], end))
                out.append(1e3 * gaps[(first + np.arange(n)) % PROBE_EVERY != 0])
        return out

    def filter_run_s(self) -> list[float]:
        return [end - start for start, end, _, _ in self.runs]

    def steps_done(self) -> int:
        return sum(n for _, _, _, n in self.runs)


class SpanRecorder:
    """In-memory span store with per-call wrappers for every layer."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.runs: list[tuple] = [("none", "")]  # run id 0: outside any filter run
        self._run_ids: dict[tuple, int] = {self.runs[0]: 0}
        self.name_id = array("i")
        self.parent = array("i")
        self.run_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._current_run = 0
        self.counters: dict[str, float] = {}

    # ----------------------------------------------------------- recording
    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, after=None, before=None):
        """Span-recording wrapper.  ``before(args, kwargs)`` may return new
        ``(args, kwargs)``; ``after(args, kwargs, result)`` sees the result."""
        nid = self._nid(name)
        stack = self._stack
        name_id, parent, run_id = self.name_id.append, self.parent.append, self.run_id.append
        start, end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            i = len(start)
            name_id(nid)
            parent(stack[-1])
            run_id(self._current_run)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def run_scope(self, key: tuple):
        """Tag spans opened inside the block with the run id ``key``."""
        if key not in self._run_ids:
            self._run_ids[key] = len(self.runs)
            self.runs.append(key)
        saved, self._current_run = self._current_run, self._run_ids[key]
        try:
            yield
        finally:
            self._current_run = saved

    # ------------------------------------------------------------ patching
    def replacements(self):
        mods = _modules()
        hooks = self._hooks(mods)
        out = {}
        targets = [
            (module, fname, f"{layer}.{fname}")
            for layer, module in mods.items()
            for fname in public_functions(module)
        ]
        for path, name in METHODS.items():
            layer, cls_name, attr = path.split(".")
            targets.append((getattr(mods[layer], cls_name), attr, name))
        for owner, attr, name in targets:
            after, before = hooks.get(name, (None, None))
            out[(owner, attr)] = self.wrap(name, vars(owner)[attr], after, before)
        run_filter = (mods["harness"], "run_traffic_filter")
        out[run_filter] = self._scoped(out[run_filter])
        return out

    def _scoped(self, run_filter):
        """Tag a filter run's own span and all spans below it with
        ``(seed, variant)``."""

        @functools.wraps(run_filter)
        def scoped(config, measurements, variant, rng, *args, **kwargs):
            with self.run_scope((rng.seed, variant.label)):
                return run_filter(config, measurements, variant, rng, *args, **kwargs)

        return scoped

    def _hooks(self, mods):
        """Counters observed at layer boundaries, as ``name: (after, before)``."""
        gnss = mods["sensing"].GNSS_SPEED

        def decision(args, kwargs, result):
            self.count("gates.tested")
            if not result.rejected_h0:
                self.count("gates.accepted")

        def gated(args, kwargs, result):
            if result.no_information:
                self.count("gates.no_information_steps")

        def models(args, kwargs, result):
            self.count("sensing.reports", sum(1 for m in args[0] if m.kind == gnss))

        def written(args, kwargs, result):
            self.count("fileio.atomic_write_text.bytes", len(args[1]))

        def traced_sink(args, kwargs):
            on_run = kwargs.get("on_run")
            if on_run is not None:
                kwargs = dict(kwargs, on_run=self.wrap("harness.artifact_sink", on_run))
            return args, kwargs

        return {
            "gates.np_gate": (decision, None),
            "gates.fisher_gate": (decision, None),
            "gates.gated_update": (gated, None),
            "sensing.build_sensor_models": (models, None),
            "fileio.atomic_write_text": (written, None),
            "harness.run_experiment": (None, traced_sink),
        }

    # ------------------------------------------------------------- reading
    def arrays(self):
        """Copies of the spans as numpy arrays: name id, parent, run id,
        start, end.  Copies, because a view would pin the buffers and make
        the next append fail."""
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.run_id, dtype=np.int32),
            np.array(self.start, dtype=float),
            np.array(self.end, dtype=float),
        )

    def totals(self, first: int = 0, last: int | None = None):
        """Per-name ``(calls, total_s, self_s)`` over spans ``first:last``.

        Self time is a span's duration minus that of its direct children.
        """
        nid, parent, _, start, end = self.arrays()
        last = len(nid) if last is None else last
        nid, parent = nid[first:last], parent[first:last]
        dur = end[first:last] - start[first:last]
        child = np.zeros(len(dur))
        inside = parent >= first
        np.add.at(child, parent[inside] - first, dur[inside])
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        own = np.bincount(nid, weights=dur - child, minlength=n)
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        nid, parent, run, start, end = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            runs=np.array([f"{seed}:{label}" for seed, label in self.runs]),
            name_id=nid,
            parent=parent,
            run_id=run,
            start=start,
            end=end,
        )
