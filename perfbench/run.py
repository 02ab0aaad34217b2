"""The polydawg benchmark.

One run measures one workload in this process:

    python3 perfbench/run.py --workload serve-history --seed 1 \
        --seconds 20 --trace 0

and prints, as the last line of standard output, a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones from a traced run. A line
before it, starting ``inputs:``, records the input sizes.

``--workload all`` runs every workload in a fresh process of its own and
prints each metric by name with its unit, ``failed_frac`` included.
``--toy`` shrinks every input, for the self-test (``selftest.py``).

Workloads, metrics and the layer-to-metric map are described in
``BENCHMARK.md`` next to this file. Every run is closed-loop with one
client and single-threaded. Latencies and fsync costs are this machine's,
served from the operating system's page cache, not a storage device's,
and scaled to a reference host speed (see ``calibrate``); the unscaled
figures are printed on a ``raw:`` line before the result.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import oracle  # noqa: E402  tests/oracle.py, the independent evaluator
from polydawg import cli, datagen  # noqa: E402
from polydawg.canonical import parse_cif, save_cif  # noqa: E402
from polydawg.engines import default_catalog  # noqa: E402
from polydawg.errors import PolydawgError  # noqa: E402
from polydawg.executor import System  # noqa: E402
from polydawg.island import register_defaults  # noqa: E402
from polydawg.monitor import MonitorDB  # noqa: E402

import tracing  # noqa: E402
import workloads as gen  # noqa: E402

MIN_OPS = 100  # so that p90 has at least ten samples beyond it
# setup_s is the median of at least SETUP_REPEATS set-ups, more while
# they add up to less than SETUP_BUDGET_S, so a short set-up is steady too
SETUP_REPEATS = 5
SETUP_BUDGET_S = 2.0
SETUP_MAX_REPEATS = 15
LOOP_CAP_FACTOR = 3  # the loop stops at this many times --seconds

# Host speed. The reference machine is a VM on a shared host whose speed
# drifts by tens of percent over minutes: the median time of a fixed
# pure-Python loop, taken over 30-second windows, spread 0.24 (quartile
# distance over median) across 16 windows there, and longer windows did
# not narrow it. So every timing is scaled to a host on which the
# calibration loop below takes REF_CALIBRATION_MS, using calibrations
# taken right before and right after the timed work. The unscaled figures
# are printed on the ``raw:`` line.
REF_CALIBRATION_MS = 1.6
CALIBRATION_ITERATIONS = 2500
_CALIBRATION_SET = frozenset(range(0, 13, 2))


def load_catalog(scale, seed):
    """A catalog holding the generated dataset, loaded in-process."""
    catalog = default_catalog()
    data = datagen.generate(scale, seed)
    for name, (engine, table, options) in data.items():
        options = dict(options)
        if "dims" in options:
            options["dims"] = [tuple(d) for d in options["dims"]]
        catalog.load(engine, name, table, options)
    return catalog


def rows_per_object(catalog):
    return {name: len(catalog.export(eid, name).rows)
            for eid, engine in sorted(catalog.engines.items())
            for name in engine.object_names()}


class InProcess:
    """A workload that drives one ``System`` in this process."""

    scale = window = 0
    cycle = []
    trained = []  # families whose shapes set-up trains
    max_ops = sys.maxsize

    def __init__(self, seed, toy, workdir):
        self.seed = seed
        self.log = os.path.join(workdir, "monitor.log")
        self.queries = gen.QueryGen(random.Random(f"{seed}-ops"),
                                    self.scale, self.window)
        self.system = None

    def prepare(self):
        """Untimed work before set-up: the oracle's own copy of the data."""
        self.oracle = oracle.Oracle(load_catalog(self.scale, self.seed))
        self.inputs = {"scale": self.scale,
                       "rows_per_object": rows_per_object(
                           self.oracle.catalog)}

    def reset(self):
        """Untimed: put the data directory back to its pre-set-up state."""
        self.system = None
        if os.path.exists(self.log):
            os.remove(self.log)

    def setup(self):
        catalog = load_catalog(self.scale, self.seed)
        self.system = System(catalog, register_defaults(catalog),
                             MonitorDB(self.log))
        for text in gen.shape_queries(self.trained, self.scale, self.window,
                                      self.seed):
            self.system.run_training(text)

    def input(self, i):
        return self.queries.query(self.cycle[i % len(self.cycle)])

    def check(self, text, report):
        _, want = self.oracle.query(text)
        return oracle.rows_bag_equal(report.result.rows, want)


class ServeHistory(InProcess):
    name = "serve-history"
    scale, window = 1, 40
    cycle = ["rel_select", "rel_group", "rel_join", "join_grep", "text",
             "array", "codose"]
    trained = cycle

    def __init__(self, seed, toy, workdir):
        super().__init__(seed, toy, workdir)
        self.history = os.path.join(workdir, "history.log")
        self.signatures = 300 if toy else 20000

    def prepare(self):
        super().prepare()
        catalog = self.oracle.catalog
        planner_only = System(catalog, register_defaults(catalog),
                              MonitorDB(None))
        db = gen.build_history(planner_only, self.cycle, self.scale,
                               self.window, self.seed, self.signatures)
        with open(self.history, "w", encoding="ascii") as fh:
            fh.writelines(line + "\n" for line in db.dump_lines())
        self.inputs["history_signatures"] = len(db.signatures())
        self.inputs["history_records"] = len(db.records)

    def reset(self):
        super().reset()
        shutil.copyfile(self.history, self.log)

    def op(self, text):
        report = self.system.run_production(text)
        self.system.drain_background()  # as the repl does after each line
        return report


class TrainXengine(InProcess):
    name = "train-xengine"
    # codose is the median family and wave_sim the p90 family, so neither
    # percentile sits on the boundary between two families' latencies
    cycle = ["codose", "wave_sim", "wave_ewise", "codose", "join_grep",
             "wave_sim", "wave_ewise", "codose", "wave_sim", "wave_ewise",
             "codose", "join_grep", "codose_rel"]

    def __init__(self, seed, toy, workdir):
        self.scale, self.window = (1, 8) if toy else (2, 48)
        super().__init__(seed, toy, workdir)

    def op(self, text):
        return self.system.run_training(text)


class CliRestart:
    """One ``polydawg`` CLI invocation per operation, in-process, on a
    persistent data directory."""

    name = "cli-restart"
    # per cycle: six production queries, two training queries and two
    # loads. A load is the costliest operation, so with two in ten the
    # p90 falls in the middle of the loads' latencies, not on the edge
    # between them and the queries'.
    cycle = [("query", "rel_select"), ("query", "rel_group"),
             ("query", "text"), ("load", None),
             ("training", "rel_select"), ("query", "array"),
             ("query", "rel_group"), ("query", "text"),
             ("training", "text"), ("load", None)]
    trained = ["rel_select", "rel_group", "text", "array"]
    max_ops = 2000  # the load objects are written before the loop

    def __init__(self, seed, toy, workdir):
        self.seed = seed
        self.scale = 1 if toy else 20
        self.workdir = workdir
        self.data = os.path.join(workdir, "data")
        self.dataset = os.path.join(workdir, "dataset")
        self.config = os.path.join(workdir, "polydawg.conf")
        self.log = os.path.join(self.data, "monitor.log")
        self.queries = gen.QueryGen(random.Random(f"{seed}-ops"),
                                    self.scale, 0)

    def prepare(self):
        self.oracle = oracle.Oracle(load_catalog(self.scale, self.seed))
        with open(self.config, "w", encoding="ascii") as fh:
            fh.write(f"data_dir = {self.data}\n")
        rng = random.Random(f"{self.seed}-load")
        self.objects = []
        for k in range(self._loads_before(self.max_ops + len(self.cycle))):
            path = os.path.join(self.workdir, f"extra_{k:05d}.cif")
            table = gen.extra_object(k, rng)
            save_cif(table, path)
            self.objects.append((f"extra_{k:05d}", path, len(table.rows)))
        self.inputs = {"scale": self.scale,
                       "rows_per_object": rows_per_object(
                           self.oracle.catalog),
                       "load_object_rows": self.objects[0][2]}

    def reset(self):
        for path in (self.data, self.dataset):
            shutil.rmtree(path, ignore_errors=True)

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--config", self.config] + argv)
        return code, out.getvalue(), err.getvalue()

    def setup(self):
        steps = [["--seed", str(self.seed), "datagen", "--scale",
                  str(self.scale), "--out", self.dataset],
                 ["load", "--manifest",
                  os.path.join(self.dataset, "manifest.json")]]
        steps += [["query", "--training", text] for text in gen.shape_queries(
            self.trained, self.scale, 0, self.seed)]
        for argv in steps:
            code, _, err = self._cli(argv)
            if code != 0:
                raise RuntimeError(f"set-up step {argv} exited {code}: {err}")

    def _loads_before(self, i):
        """Loads among the first ``i`` operations of the schedule."""
        cycles, rest = divmod(i, len(self.cycle))
        loads = [kind == "load" for kind, _ in self.cycle]
        return cycles * sum(loads) + sum(loads[:rest])

    def input(self, i):
        kind, family = self.cycle[i % len(self.cycle)]
        if kind == "load":
            name, path, rows = self.objects[self._loads_before(i)]
            return (["load", "rel", name, path, "--key", "k"],
                    f"loaded {rows} rows into rel.{name}\n")
        text = self.queries.query(family)
        if kind == "training":
            return ["query", "--training", text], text
        return ["query", text], text

    def op(self, arg):
        return self._cli(arg[0])

    def check(self, arg, result):
        argv, expect = arg
        code, out, _ = result
        if code != 0:
            return False
        if argv[0] == "load":
            return out == expect
        cif, sep, _ = out.partition("phase = ")
        if not sep:
            return False
        try:
            got = parse_cif(cif).rows
        except PolydawgError:  # malformed output is a failed operation
            return False
        _, want = self.oracle.query(expect)
        return oracle.rows_bag_equal(got, want)


WORKLOADS = {w.name: w for w in (ServeHistory, TrainXengine, CliRestart)}


def calibrate():
    """Milliseconds a fixed interpreter-bound loop takes now, with the
    garbage collector off so that it times the host, not the heap."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_ITERATIONS):
            acc += len({i % 7, i % 11, i % 13} & _CALIBRATION_SET)
            acc += len(str(i))
        return (time.perf_counter() - start) * 1000.0
    finally:
        gc.enable()


def scaled(seconds, before, after):
    """``seconds`` of work scaled to the reference host speed, from the
    calibrations taken right before and right after it."""
    return seconds * REF_CALIBRATION_MS / math.sqrt(before * after)


def _wchar():
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("no wchar in /proc/self/io")


def run_setups(wl, tracer):
    """Set up repeatedly from the same state; the last set-up is the one
    the loop uses. A traced run traces one more set-up at the end.
    Returns the set-up times, raw and scaled, in seconds."""
    raw, times = [], []
    while len(times) < SETUP_REPEATS or (
            sum(raw) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPEATS):
        wl.reset()
        gc.collect()
        before = calibrate()
        start = time.perf_counter()
        wl.setup()
        elapsed = time.perf_counter() - start
        raw.append(elapsed)
        times.append(scaled(elapsed, before, calibrate()))
    if tracer is not None:
        wl.reset()
        gc.collect()
        tracer.install()
        try:
            with tracer.operation(tracing.SETUP):
                wl.setup()
        finally:
            tracer.uninstall()
    return raw, times


class Loop:
    """What the timed loop saw: per operation, whether it was traced, its
    raw latency in ms and the calibration taken right before it; and the
    calibration taken after the last one."""

    def __init__(self):
        self.traced, self.raw_ms, self.calibrations = [], [], []
        self.failed = 0
        self.wchar = 0

    def ms(self, traced, raw=False):
        """Latencies of the traced or untraced operations, in ms, scaled
        to the reference host unless ``raw``."""
        cal = self.calibrations
        return [ms if raw else scaled(ms, cal[i], cal[i + 1])
                for i, (t, ms) in enumerate(zip(self.traced, self.raw_ms))
                if t == traced]


def timed_loop(wl, seconds, min_ops, tracer):
    """Run whole cycles of the schedule until ``seconds`` of operation time
    and ``min_ops`` operations are reached. Each result is checked between
    operations, outside the timed region, and the host is calibrated
    before each operation, also outside it. In a traced run, alternate
    cycles are traced, so both halves see the same mix."""
    period = len(wl.cycle)
    if tracer is not None:
        min_ops = max(min_ops, 2 * period)
    loop = Loop()
    busy = 0.0
    start = time.perf_counter()
    wchar = _wchar()
    i = 0
    try:
        while i < wl.max_ops and (busy < seconds or i < min_ops
                                  or i % period):
            if time.perf_counter() - start > LOOP_CAP_FACTOR * seconds:
                break
            arg = wl.input(i)
            traced = tracer is not None and (i // period) % 2 == 1
            if traced and i % period == 0:
                tracer.install()
            loop.calibrations.append(calibrate())
            ok = True
            t0 = time.perf_counter()
            try:
                with tracer.operation(i) if traced else \
                        contextlib.nullcontext():
                    out = wl.op(arg)
            except PolydawgError:
                ok = False
            elapsed = time.perf_counter() - t0
            if traced and i % period == period - 1:
                tracer.uninstall()
            busy += elapsed
            loop.traced.append(traced)
            loop.raw_ms.append(elapsed * 1000.0)
            loop.failed += not (ok and wl.check(arg, out))
            i += 1
        loop.calibrations.append(calibrate())
        loop.wchar = _wchar() - wchar
    finally:
        if tracer is not None:
            tracer.uninstall()
    return loop


def timings(setups, ms):
    """setup_s, p50_ms, p90_ms and ops_per_s from set-up times in seconds
    and untraced operation latencies in ms."""
    return {"setup_s": statistics.median(setups),
            "p50_ms": statistics.median(ms),
            "p90_ms": statistics.quantiles(ms, n=10)[8],
            "ops_per_s": 1000.0 * len(ms) / sum(ms)}


def end_to_end(setups, loop):
    attempted = len(loop.raw_ms)
    ok = (attempted - loop.failed) / attempted
    t = timings(setups, loop.ms(False))
    return {
        "setup_s": (t["setup_s"], "s"),
        "p50_ms": (t["p50_ms"], "ms"),
        "p90_ms": (t["p90_ms"], "ms"),
        "ops_per_s": (t["ops_per_s"] * ok, "1/s"),
        "ok_frac": (ok, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "disk_bytes_per_op": (loop.wchar / attempted, "bytes"),
    }


def per_layer(wl, tracer, loop):
    metrics = tracing.layer_metrics(tracer, loop.ms(True, raw=True))
    untraced = statistics.median(loop.ms(False))
    traced = statistics.median(loop.ms(True))
    metrics["trace.p50_ms"] = (traced, "ms")
    metrics["trace.untraced_p50_ms"] = (untraced, "ms")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    metrics["monitor.signatures"] = (
        len(MonitorDB(wl.log).signatures()), "count")
    return metrics


def run_one(name, seed, seconds, trace, toy):
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = WORKLOADS[name](seed, toy, workdir)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.hook_polydawg(tracer)
    try:
        wl.prepare()
        raw_setups, setups = run_setups(wl, tracer)
        loop = timed_loop(wl, seconds, 10 if toy else MIN_OPS, tracer)
        if trace:
            metrics = per_layer(wl, tracer, loop)
            tracer.write_spans(os.path.join(WORK, f"spans-{name}.jsonl"))
        else:
            metrics = end_to_end(setups, loop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(loop.raw_ms)
    inputs = dict(wl.inputs, workload=name, seed=seed, operations=attempted,
                  cycle_length=len(wl.cycle))
    print("inputs: " + json.dumps(inputs, sort_keys=True))
    raw = timings(raw_setups, loop.ms(False, raw=True))
    raw["calibration_ms"] = statistics.median(loop.calibrations)
    print("raw: " + json.dumps(raw, sort_keys=True))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


def run_all(args):
    """Every workload in a fresh process; prints each metric with its
    unit, and failed_frac, which the JSON result carries as ok_frac."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=False)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        print(f"  {'failed_frac':32s} "
              f"{result['failed'] / result['attempted']:14.6g} ratio")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
        status |= not result["correct"]
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, args.trace,
                   args.toy)


if __name__ == "__main__":
    sys.exit(main())
