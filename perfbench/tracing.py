"""Spans and counters for the traced benchmark run.

The traced run times calls into polydawg's public functions by replacing
them, for the length of one block of operations, with wrappers defined
here; nothing under ``src/`` knows about tracing. Where a module did
``from .x import f``, the importing module's name is the one replaced
(``executor.migrate``, ``executor.apply_cast``, ``executor.bag_equal``,
``cli.write_cif``), because that is the name the caller looks up.

A span is ``[name, start, end, parent index, operation id]``. Spans are
kept in memory and written out once the run ends. A span's self time is
its duration minus the time its child spans cover; calls are
single-threaded and nest, so children never overlap.
"""

import contextlib
import json
import os
import time
from collections import defaultdict

from polydawg import (canonical, cli, datagen, executor, migrator, planner,
                      querylang)
from polydawg.engines.base import EngineCatalog
from polydawg.executor import System
from polydawg.monitor import MonitorDB

SETUP = "setup"  # operation id of the traced set-up
ROOT = "bench.op"  # the benchmark's own call around one operation


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)  # (phase, counter) -> total
        self.peaks = defaultdict(float)  # (phase, counter) -> largest value
        self.op = None  # spans are recorded only inside an operation
        self._stack = []
        self._hooks = []  # (owner, attribute, span name, after)
        self._saved = []  # (owner, attribute, original) while installed

    @property
    def phase(self):
        return SETUP if self.op == SETUP else "loop"

    def count(self, key, value=1):
        self.counts[(self.phase, key)] += value

    def peak(self, key, value):
        slot = (self.phase, key)
        self.peaks[slot] = max(self.peaks[slot], value)

    def hook(self, owner, attr, name, after=None):
        """Trace ``owner.attr``. ``name`` is the span name, a function of
        the call's arguments, or None for counters only; ``after(tracer,
        args, kwargs, result)`` records counters once the call returns."""
        self._hooks.append((owner, attr, name, after))

    def install(self):
        for owner, attr, name, after in self._hooks:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, after))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, after):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                result = tracer._timed(
                    name if isinstance(name, str) else name(args),
                    fn, args, kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def _timed(self, name, fn, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id):
        """Record everything inside as operation ``op_id``, under a root
        span for the benchmark's own call."""
        self.op = op_id
        span = [ROOT, time.perf_counter(), 0.0, None, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.op = None

    def self_times(self):
        """(phase, span name) -> summed self time in seconds."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out = defaultdict(float)
        for (name, _, _, _, op), t in zip(self.spans, own):
            out[(SETUP if op == SETUP else "loop", name)] += t
        return out

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")


# --- what the traced run hooks, and how spans map to per-layer metrics ----

# span name -> per-layer metric that takes its self time
LAYER_OF = {
    "executor.run_production": "executor.self_ms",
    "executor.run_training": "executor.self_ms",
    "executor.plan_query": "executor.self_ms",
    "executor.execute_plan": "executor.self_ms",
    "executor.drain_background": "executor.self_ms",
    "executor.current_usage": "executor.usage_ms",
    "querylang.parse": "querylang.parse_ms",
    "querylang.validate": "querylang.validate_ms",
    "planner.decompose": "planner.decompose_ms",
    "planner.signature_of": "planner.signature_ms",
    "planner.enumerate_plans": "planner.enumerate_ms",
    "monitor.nearest": "monitor.nearest_ms",
    "monitor.best_plan": "monitor.lookup_ms",
    "monitor.mean_usage": "monitor.lookup_ms",
    "monitor.best_plan_for_usage": "monitor.lookup_ms",
    "monitor.record": "monitor.record_ms",
    "monitor.open": "monitor.replay_ms",
    "engines.rel.execute": "engines.rel.ms",
    "engines.kv.execute": "engines.kv.ms",
    "engines.arr.execute": "engines.arr.ms",
    "engines.base.load": "engines.base.load_ms",
    "engines.base.restore": "engines.base.restore_ms",
    "engines.base.snapshot": "engines.base.snapshot_ms",
    "migrator.migrate": "migrator.migrate_ms",
    "migrator.apply_cast": "migrator.cast_ms",
    "migrator.normalize_for_engine": "migrator.normalize_ms",
    "migrator.temp_name": "migrator.temp_name_ms",
    "canonical.validate": "canonical.validate_ms",
    "canonical.bag_equal": "canonical.bag_equal_ms",
    "canonical.parse_cif": "canonical.cif_parse_ms",
    "canonical.write_cif": "canonical.cif_write_ms",
    "cli.main": "cli.main_ms",
    "cli.build_system": "cli.build_system_ms",
    "datagen.generate": "datagen.generate_ms",
}

PRODUCTION_CASES = {"matched": "monitor.matched_frac",
                    "usage-alternate": "monitor.usage_alternate_frac",
                    "retrain-recommended": "monitor.retrain_frac",
                    "random": "monitor.random_frac"}


def _snapshot_bytes(directory):
    """Bytes of the manifest and object files a catalog snapshot wrote."""
    return sum(entry.stat().st_size for entry in os.scandir(directory)
               if entry.name == "manifest.json"
               or entry.name.endswith(".cif"))


def _after_production(tracer, args, kwargs, report):
    tracer.count("monitor.production_ops")
    tracer.count(PRODUCTION_CASES[report.case])


def _after_load(tracer, args, kwargs, result):
    temporary = kwargs.get("temporary", args[5] if len(args) > 5 else False)
    if temporary:
        tracer.count("engines.base.temp_loads")
        tracer.count("migrator.rows_moved", len(args[3].rows))


def hook_polydawg(tracer):
    """Register every hook of the traced run on ``tracer``."""
    h = tracer.hook
    h(System, "run_production", "executor.run_production", _after_production)
    h(System, "run_training", "executor.run_training")
    h(System, "plan_query", "executor.plan_query")
    h(System, "execute_plan", "executor.execute_plan",
      lambda t, a, k, r: t.count("executor.plan_runs"))
    h(System, "drain_background", "executor.drain_background")
    h(System, "current_usage", "executor.current_usage")
    h(querylang, "parse", "querylang.parse")
    h(querylang, "validate", "querylang.validate")
    h(planner, "decompose", "planner.decompose")
    h(planner, "signature_of", "planner.signature_of")
    h(planner, "enumerate_plans", "planner.enumerate_plans",
      lambda t, a, k, r: t.count("planner.plans", len(r)))
    h(MonitorDB, "__init__", "monitor.open")
    h(MonitorDB, "nearest", "monitor.nearest")
    h(MonitorDB, "best_plan", "monitor.best_plan")
    h(MonitorDB, "mean_usage", "monitor.mean_usage")
    h(MonitorDB, "best_plan_for_usage", "monitor.best_plan_for_usage")
    h(MonitorDB, "record", "monitor.record",
      lambda t, a, k, r: t.count("monitor.records"))
    h(MonitorDB, "enqueue", None,
      lambda t, a, k, r: t.peak("monitor.pending_max", len(a[0].pending)))
    h(EngineCatalog, "execute_native", lambda a: f"engines.{a[1]}.execute",
      lambda t, a, k, r: t.count(f"engines.{a[1]}.rows_out", len(r.rows)))
    h(EngineCatalog, "load", "engines.base.load", _after_load)
    h(EngineCatalog, "restore", "engines.base.restore")
    h(EngineCatalog, "snapshot", "engines.base.snapshot",
      lambda t, a, k, r: t.count("engines.base.snapshot_bytes",
                                 _snapshot_bytes(a[1])))
    h(executor, "migrate", "migrator.migrate",
      lambda t, a, k, r: t.count("migrator.migrations"))
    h(executor, "apply_cast", "migrator.apply_cast")
    h(migrator, "apply_cast", "migrator.apply_cast")
    h(migrator, "normalize_for_engine", "migrator.normalize_for_engine")
    h(migrator, "temp_name", "migrator.temp_name")
    h(canonical.CanonicalTable, "__post_init__", "canonical.validate",
      lambda t, a, k, r: t.count("canonical.rows_validated", len(a[0].rows)))
    h(executor, "bag_equal", "canonical.bag_equal")
    h(canonical, "parse_cif", "canonical.parse_cif")
    h(canonical, "write_cif", "canonical.write_cif")
    h(cli, "write_cif", "canonical.write_cif")
    h(cli, "main", "cli.main")
    h(cli, "build_system", "cli.build_system")
    h(datagen, "generate", "datagen.generate")


# --- per-layer metrics ------------------------------------------------------

# loop counters reported per traced operation
PER_OP_COUNTS = {
    "monitor.records": "count/op",
    "planner.plans": "count/op",
    "executor.plan_runs": "count/op",
    "migrator.migrations": "count/op",
    "engines.base.temp_loads": "count/op",
    "engines.rel.rows_out": "rows/op",
    "engines.kv.rows_out": "rows/op",
    "engines.arr.rows_out": "rows/op",
    "migrator.rows_moved": "rows/op",
    "canonical.rows_validated": "rows/op",
    "engines.base.snapshot_bytes": "bytes/op",
}
# layers whose set-up share is reported apart, as "setup.<metric>"
SETUP_LAYERS = ["engines.base.restore_ms", "canonical.cif_parse_ms",
                "monitor.replay_ms", "cli.build_system_ms",
                "engines.base.load_ms", "canonical.validate_ms"]


def layer_metrics(tracer, traced_ms):
    """Per-layer metrics from a traced run: ``{name: (value, unit)}``.

    ``traced_ms`` holds the latency of each traced operation as the timed
    loop measured it. Loop self times and counters are per traced
    operation; ``datagen.generate_ms`` and ``setup.*`` cover the traced
    set-up.
    """
    ops = max(len(traced_ms), 1)
    loop, setup = defaultdict(float), defaultdict(float)
    for (phase, span), seconds in tracer.self_times().items():
        if span in LAYER_OF:
            (setup if phase == SETUP else loop)[LAYER_OF[span]] += seconds
    out = {}
    for metric in sorted(set(LAYER_OF.values())):
        if metric == "datagen.generate_ms":  # datagen runs only in set-up
            out[metric] = (setup[metric] * 1000.0, "ms")
        else:
            out[metric] = (loop[metric] * 1000.0 / ops, "ms/op")
    for metric in SETUP_LAYERS:
        out["setup." + metric] = (setup[metric] * 1000.0, "ms")

    counts = {key: value for (phase, key), value in tracer.counts.items()
              if phase != SETUP}
    for metric, unit in PER_OP_COUNTS.items():
        out[metric] = (counts.get(metric, 0.0) / ops, unit)
    production = counts.get("monitor.production_ops", 0.0)
    for metric in PRODUCTION_CASES.values():
        out[metric] = (counts.get(metric, 0.0) / production
                       if production else 0.0, "ratio")
    migrations = counts.get("migrator.migrations", 0.0)
    loads = counts.get("engines.base.temp_loads", 0.0)
    out["migrator.temp_reuse_frac"] = (
        (migrations - loads) / migrations if migrations else 0.0, "ratio")
    out["monitor.pending_max"] = (
        tracer.peaks.get(("loop", "monitor.pending_max"), 0.0), "count")

    layer_ms = sum(loop.values()) * 1000.0
    out["trace.ops"] = (len(traced_ms), "count")
    out["trace.op_ms"] = (sum(traced_ms) / ops, "ms")
    out["trace.accounted_frac"] = (
        layer_ms / sum(traced_ms) if traced_ms else 0.0, "ratio")
    return out
