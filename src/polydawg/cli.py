"""Command-line front door.

Subcommands: load, query [--training], explain, datagen, monitor
dump|stats [structure], repl. Catalog contents persist between
invocations as a snapshot under the configured data directory. A call
reads only the snapshot's manifest and journal and parses an object's
file the first time a query names it; ``load`` writes the new object's
file through a temporary file renamed into place, then appends a line
to the journal, so a process that dies mid-load leaves the previous
snapshot or the new one (there is no fsync, so a power loss can still
tear it). The monitor log persists on its own as an append-only file. A
directory is created by the first write to it, a snapshot or a monitor
record, so a command that writes nothing leaves none behind.

Exit codes: 0 success; 2 query/input error; 3 internal-consistency error.
"""

import argparse
import os
import sys
from dataclasses import dataclass

from . import datagen
from .canonical import load_cif, write_cif
from .engines import default_catalog
from .errors import (
    InternalConsistencyError, PolydawgError, QuerySyntaxError, SchemaError,
    ValidationError,
)
from .executor import System, SystemConfig
from .island import register_defaults
from .monitor import (
    MonitorDB, SIMILARITY_THRESHOLD, USAGE_DIFFERENCE_BOUND,
    W_CONSTANTS, W_OBJECTS, W_STRUCTURE,
)

EXIT_OK = 0
EXIT_QUERY_ERROR = 2
EXIT_INTERNAL = 3


@dataclass
class Config:
    data_dir: str = "polydawg_data"
    monitor_log: str = ""  # default: <data_dir>/monitor.log
    plan_cap: int = 16
    similarity_threshold: float = SIMILARITY_THRESHOLD
    usage_bound: float = USAGE_DIFFERENCE_BOUND
    seed: int = 0
    w_structure: float = W_STRUCTURE
    w_objects: float = W_OBJECTS
    w_constants: float = W_CONSTANTS

    def __post_init__(self):
        if not self.monitor_log:
            self.monitor_log = os.path.join(self.data_dir, "monitor.log")
        weights = (self.w_structure, self.w_objects, self.w_constants)
        if abs(sum(weights) - 1.0) > 1e-9:
            raise PolydawgError("similarity weights must sum to 1")
        if min(weights) < 0.0:
            raise PolydawgError("similarity weights must be non-negative")
        if self.plan_cap < 1:
            raise PolydawgError("plan cap must be >= 1")
        if not 0.0 < self.similarity_threshold <= 1.0:
            raise PolydawgError("similarity threshold must be in (0, 1]")


_INT_KEYS = {"plan_cap", "seed"}
_FLOAT_KEYS = {"similarity_threshold", "usage_bound", "w_structure",
               "w_objects", "w_constants"}


def load_config(path=None, seed=None):
    """Config from a line-oriented ``key = value`` file plus overrides."""
    kwargs = {}
    if path:
        with open(path, encoding="ascii") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise PolydawgError(
                        f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key in _INT_KEYS:
                    kwargs[key] = int(value)
                elif key in _FLOAT_KEYS:
                    kwargs[key] = float(value)
                elif key in ("data_dir", "monitor_log"):
                    kwargs[key] = value
                else:
                    raise PolydawgError(f"{path}:{lineno}: unknown key {key!r}")
    if seed is not None:
        kwargs["seed"] = seed
    return Config(**kwargs)


def build_system(config):
    catalog = default_catalog()
    if os.path.isdir(config.data_dir):
        catalog.restore(config.data_dir)
    registry = register_defaults(catalog)
    weights = (config.w_structure, config.w_objects, config.w_constants)
    db = MonitorDB(config.monitor_log, weights=weights)
    if db.torn_tail:
        print(f"warning: dropped an incomplete final record "
              f"({len(db.torn_tail)} bytes) from {config.monitor_log}",
              file=sys.stderr)
    sys_config = SystemConfig(
        similarity_threshold=config.similarity_threshold,
        usage_bound=config.usage_bound, plan_cap=config.plan_cap,
        seed=config.seed,
    )
    return System(catalog, registry, db, sys_config)


# --- commands ----------------------------------------------------------------

def cmd_load(system, config, args):
    options = {}
    if args.key:
        options["key"] = args.key.split(",")
    if args.dims:
        dims = []
        for part in args.dims.split(","):
            name, _, length = part.partition(":")
            try:
                dims.append([name, int(length)])
            except ValueError:
                raise SchemaError(
                    f"--dims entry {part!r} is not name:length") from None
        options["dims"] = dims
    table = load_cif(args.path)
    system.catalog.load(args.engine, args.object, table, options)
    system.catalog.snapshot(config.data_dir)
    print(f"loaded {len(table.rows)} rows into {args.engine}.{args.object}")
    return EXIT_OK


def cmd_load_manifest(system, config, args):
    for name, engine, rows in system.catalog.load_manifest(args.manifest):
        print(f"loaded {rows} rows into {engine}.{name}")
    system.catalog.snapshot(config.data_dir)
    return EXIT_OK


def _print_report(report):
    sys.stdout.write(write_cif(report.result))
    print(f"phase = {report.phase}")
    print(f"plan-id = {report.plan_id}")
    print(f"runtime-ms = {report.runtime_ms:.3f}")
    if report.phase == "training":
        for pid, ms in report.runs:
            print(f"trained-plan = {pid} {ms:.3f}")
    if report.case:
        print(f"case = {report.case}")
        score = report.match_score
        print(f"match-score = {'none' if score is None else f'{score:.3f}'}")
        if report.case == "random":
            print("note = untrained signature; randomly selected plan")
    for w in report.warnings:
        print(f"warning = {w}")


def _answer(text, run, show):
    """Exit status of ``show(run())`` for the query ``text``, printing an
    error instead if ``run`` raises one. The caret under ``text`` marks
    the span of a syntax or validation error; a later error's span
    points into native text, so it gets none."""
    try:
        result = run()
    except InternalConsistencyError as e:
        print(f"internal consistency error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except PolydawgError as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, (QuerySyntaxError, ValidationError)) and e.span:
            start, end = e.span
            print(text, file=sys.stderr)
            print(" " * start + "^" * max(end - start, 1), file=sys.stderr)
        return EXIT_QUERY_ERROR
    show(result)
    return EXIT_OK


def _run_query(system, text, training):
    run = system.run_training if training else system.run_production
    return _answer(text, lambda: run(text), _print_report)


def cmd_query(system, config, args):
    return _run_query(system, args.text, args.training)


def cmd_explain(system, config, args):
    return _answer(args.text, lambda: system.explain(args.text), print)


def cmd_datagen(system, config, args):
    if args.scale < 1:
        print("error: --scale must be a positive integer", file=sys.stderr)
        return EXIT_QUERY_ERROR
    for path in datagen.write_dataset(args.scale, args.out, seed=config.seed):
        print(path)
    return EXIT_OK


def cmd_monitor(system, config, args):
    if args.action == "dump":
        for line in system.monitor.dump_lines():
            print(line)
        return EXIT_OK
    if not args.structure:
        for row in system.monitor.stats():
            mean = row["mean_runtime_ms"]
            print("\t".join([
                row["structure"], ",".join(row["objects"]), str(row["runs"]),
                str(row["plans"]), row["best_plan"] or "-",
                "-" if mean is None else f"{mean:.3f}",
            ]))
        return EXIT_OK
    means = system.monitor.plan_means(args.structure)
    for pid in sorted(means, key=lambda p: (means[p], p)):
        print(f"{pid}\t{means[pid]:.3f}")
    return EXIT_OK


def cmd_repl(system, config, args):
    status = EXIT_OK
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        if line in (":quit", ":q"):
            break
        if line.startswith(":explain "):
            status = cmd_explain(system, config,
                                 argparse.Namespace(text=line[9:]))
        elif line.startswith(":train "):
            status = _run_query(system, line[7:], training=True)
        else:
            status = _run_query(system, line, training=False)
        system.drain_background()
    return status


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polydawg",
        description="Desk-scale polystore middleware over embedded "
                    "relational, key-value, and array engines.",
    )
    parser.add_argument("--config", help="path to a 'key = value' file")
    parser.add_argument("--seed", type=int, help="RNG seed override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load", help="load a CIF file into an engine")
    p.add_argument("engine", nargs="?")
    p.add_argument("object", nargs="?")
    p.add_argument("path", nargs="?")
    p.add_argument("--key", help="comma-separated key columns (relational)")
    p.add_argument("--dims", help="name:length,... dimensions (array)")
    p.add_argument("--manifest", help="load every object in a manifest")
    p.set_defaults(fn=cmd_load)

    p = sub.add_parser("query", help="run a polystore query")
    p.add_argument("text")
    p.add_argument("--training", action="store_true",
                   help="measure every candidate plan")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("explain", help="show containers, remainder, plans")
    p.add_argument("text")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("datagen", help="generate the synthetic dataset")
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--out", default="dataset")
    p.set_defaults(fn=cmd_datagen)

    p = sub.add_parser("monitor", help="inspect the performance log")
    p.add_argument("action", choices=["dump", "stats"])
    p.add_argument("structure", nargs="?")
    p.set_defaults(fn=cmd_monitor)

    p = sub.add_parser("repl", help="one query per line on stdin")
    p.set_defaults(fn=cmd_repl)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, seed=args.seed)
        system = build_system(config)
        if args.command == "load" and args.manifest:
            return cmd_load_manifest(system, config, args)
        if args.command == "load" and not (args.engine and args.object
                                           and args.path):
            parser.error("load needs ENGINE OBJECT PATH (or --manifest)")
        return args.fn(system, config, args)
    except PolydawgError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_QUERY_ERROR
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_QUERY_ERROR


if __name__ == "__main__":
    sys.exit(main())
