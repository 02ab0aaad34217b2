"""Plan execution and the training/production query lifecycle.

Training runs every candidate plan, checks they agree, and records each
runtime. Production reuses history: an exact signature match runs its
best-known plan; a close match runs the matched signature's best plan
unless engine usage looks very different from when it was recorded; and
otherwise a random candidate runs now while the rest queue up for
background training during idle periods.

A pluggable clock makes runs reproducible: the virtual clock advances by
a per-step delay model instead of waiting on wall time.
"""

import random
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from operator import add

from . import monitor as mon
from . import planner, querylang
from .canonical import bag_equal
from .errors import ExecutionError, InternalConsistencyError, PolydawgError
from .migrator import apply_cast, migrate
from .planner import CrossOp, ExecuteContainer, Migrate

USAGE_WINDOW_S = 10.0  # engine busy fractions cover this many seconds
# background training runs once no query has ended for IDLE_AFTER_S and
# every engine is busy less than IDLE_BUSY_BOUND of the usage window
IDLE_AFTER_S = 5.0
IDLE_BUSY_BOUND = 0.2


class WallClock:
    def now(self):
        return time.time()

    def advance(self, seconds):  # real time passes on its own
        pass


class VirtualClock:
    def __init__(self, start=0.0):
        self._t = start

    def now(self):
        return self._t

    def advance(self, seconds):
        self._t += seconds


class StepDelayModel:
    """Per-step delays (ms) applied under a virtual clock.

    ``cross_op_kind_site_ms`` maps a (node kind, engine id) pair to the
    delay of that cross-engine operator executed there, which lets tests
    shape plan runtimes; every other step takes ``default_ms``.
    """

    def __init__(self, default_ms=1.0, cross_op_kind_site_ms=None):
        self.default_ms = default_ms
        self.cross_op_kind_site_ms = dict(cross_op_kind_site_ms or {})

    def delay_ms(self, step):
        if isinstance(step, CrossOp):
            return self.cross_op_kind_site_ms.get(
                (step.node.kind, step.site), self.default_ms)
        return self.default_ms


class UsageTracker:
    """Busy time per engine; reports busy fractions over the last
    ``window`` seconds.

    Each engine keeps disjoint spans sorted by start, as parallel lists of
    starts, ends and lengths. ``add`` merges an interval with every span it
    overlaps or touches, also spans that start after the interval does, so
    no two spans touch. ``busy_fraction`` bisects to the spans that reach
    into the window, clips the first and the last, and adds the lengths
    left to right: the same float sum, in the same order, as clipping,
    sorting and merging every interval at query time.

    A span that ended more than ``window`` before the newest end recorded
    is dropped, so memory stays bounded and fractions are exact for any
    ``now`` at or after that newest end.
    """

    def __init__(self, window):
        self.window = window
        # engine -> (starts, ends, lengths) of its merged spans
        self.spans = defaultdict(lambda: ([], [], []))
        self._newest_end = float("-inf")

    def add(self, engine, start, end):
        if end <= start:
            return
        self._newest_end = max(self._newest_end, end)
        starts, ends, lengths = self.spans[engine]
        # spans i..j-1 overlap or touch [start, end]
        i = bisect_left(ends, start)
        j = bisect_right(starts, end, i)
        if i < j:
            start, end = min(start, starts[i]), max(end, ends[j - 1])
        starts[i:j], ends[i:j], lengths[i:j] = [start], [end], [end - start]
        old = bisect_left(ends, self._newest_end - self.window)
        if old:
            del starts[:old], ends[:old], lengths[:old]

    def busy_fraction(self, engine, now):
        if engine not in self.spans:
            return 0.0
        starts, ends, lengths = self.spans[engine]
        lo = now - self.window
        i = bisect_right(ends, lo)  # the first span ending after lo
        j = bisect_left(starts, now, i)  # the first starting at now or later
        if i == j:
            return 0.0
        busy = min(ends[i], now) - max(starts[i], lo)
        if j - i > 1:
            busy = reduce(add, lengths[i + 1:j - 1], busy)
            busy += min(ends[j - 1], now) - starts[j - 1]
        return min(busy / self.window, 1.0)


@dataclass
class SystemConfig:
    similarity_threshold: float = mon.SIMILARITY_THRESHOLD
    usage_bound: float = mon.USAGE_DIFFERENCE_BOUND
    plan_cap: int = 16
    seed: int = 0


@dataclass
class PlannedQuery:
    text: str
    resolved: object
    containers: list
    remainder: object
    signature: object
    plans: list


@dataclass
class QueryReport:
    result: object  # CanonicalTable
    plan_id: str
    runtime_ms: float
    phase: str
    case: str = ""  # production: matched | usage-alternate | retrain-recommended | random
    # production: the nearest recorded signature and its similarity score;
    # None when the history is empty
    match: object = None
    match_score: float = None
    runs: list = field(default_factory=list)  # training: (plan id, ms)
    warnings: list = field(default_factory=list)


class System:
    """The middleware: catalog + islands + monitor + execution."""

    def __init__(self, catalog, registry, monitor_db, config=None,
                 clock=None, delay_model=None):
        self.catalog = catalog
        self.registry = registry
        self.monitor = monitor_db
        self.config = config or SystemConfig()
        self.clock = clock or WallClock()
        self.delay = delay_model or StepDelayModel()
        self.usage = UsageTracker(USAGE_WINDOW_S)
        self.rng = random.Random(self.config.seed)
        self._last_foreground_end = float("-inf")
        self._virtual = not isinstance(self.clock, WallClock)

    # --- planning ------------------------------------------------------------

    def plan_query(self, text):
        ast = querylang.parse(text)
        resolved = querylang.validate(ast, self.registry, self.catalog)
        containers, remainder = planner.decompose(resolved)
        signature = planner.signature_of(remainder, resolved)
        plans = planner.enumerate_plans(
            containers, remainder, self.registry, self.catalog,
            cap=self.config.plan_cap,
        )
        return PlannedQuery(text, resolved, containers, remainder,
                            signature, plans)

    def explain(self, text):
        pq = self.plan_query(text)
        return planner.render_explain(pq.containers, pq.remainder,
                                      pq.signature, pq.plans)

    # --- execution -------------------------------------------------------------

    def current_usage(self):
        now = self.clock.now()
        return {
            engine: self.usage.busy_fraction(engine, now)
            for engine in self.catalog.engines
        }

    def _step(self, engines, fn):
        """Run fn, account its duration to the given engines."""
        start = self.clock.now()
        out = fn()
        end = self.clock.now()
        for engine in engines:
            if engine is not None:
                self.usage.add(engine, start, end)
        return out

    def execute_plan(self, pq, plan):
        """Run one candidate plan; returns (CanonicalTable, runtime_ms)."""
        env = {}  # alias -> CanonicalTable
        site_names = {}  # (alias, engine) -> temp object name
        start = self.clock.now()
        try:
            for step in plan.steps:
                if self._virtual:
                    self.clock.advance(self.delay.delay_ms(step) / 1000.0)
                if isinstance(step, ExecuteContainer):
                    c = step.container
                    env[c.alias] = self._step(
                        [c.engine_id],
                        lambda c=c: self.catalog.execute_native(
                            c.engine_id, c.query),
                    )
                elif isinstance(step, Migrate):
                    key = (step.alias, step.to_engine)
                    site_names[key] = self._step(
                        [step.from_engine, step.to_engine],
                        lambda step=step: migrate(
                            self.catalog, step.alias, step.to_engine,
                            step.chain, env[step.alias]),
                    )
                elif isinstance(step, CrossOp):
                    env[step.node.alias] = self._run_cross_op(
                        step, env, site_names)
                else:
                    raise ExecutionError(f"unknown step {step!r}", step)
            if plan.root_alias not in env:
                raise ExecutionError(
                    f"plan produced no value for {plan.root_alias!r}",
                    None,
                )
            result = env[plan.root_alias]
        finally:
            self.catalog.drop_temporaries()
            self._last_foreground_end = self.clock.now()
        runtime_ms = (self.clock.now() - start) * 1000.0
        return result, runtime_ms

    def _run_cross_op(self, step, env, site_names):
        node = step.node
        if node.kind == "cast":
            table = env[node.inputs[0]]
            for spec in node.params["chain"]:
                table, _ = apply_cast(table, spec)
            return table

        def binding(leaf):
            alias = node.leaf_aliases[id(leaf)]
            how = step.bindings[alias]
            if how[0] == "direct":
                return how[1]
            if how[0] == "staged":
                key = (alias, step.site)
                if key not in site_names:
                    site_names[key] = migrate(
                        self.catalog, alias, step.site, [], env[alias])
                return site_names[key]
            return site_names[(alias, step.site)]

        query = self.registry.translate(node.island, node.expr, step.site,
                                        binding)
        return self._step(
            [step.site],
            lambda: self.catalog.execute_native(step.site, query),
        )

    # --- training ----------------------------------------------------------------

    def run_training(self, text):
        pq = self.plan_query(text)
        usage_at_start = self.current_usage()
        runs = []
        reference = reference_rows = None
        best = None
        for plan in pq.plans:
            result, runtime_ms = self.execute_plan(pq, plan)
            if reference is None:
                reference = result
            else:
                if reference_rows is None:  # sorted once, for every plan
                    reference_rows = reference.sorted_rows()
                if not bag_equal(reference, result, rel_tol=1e-9,
                                 a_sorted=reference_rows):
                    raise InternalConsistencyError(
                        f"plan {plan.id} disagrees with plan "
                        f"{pq.plans[0].id} for: {text}"
                    )
            self.monitor.record(mon.PerfRecord(
                ts=self.clock.now(), phase="training",
                signature=pq.signature, plan_id=plan.id,
                runtime_ms=runtime_ms, usage=usage_at_start,
            ))
            runs.append((plan.id, runtime_ms))
            if best is None or runtime_ms < best[2]:
                best = (plan.id, result, runtime_ms)
        return QueryReport(result=best[1], plan_id=best[0],
                           runtime_ms=best[2], phase="training", runs=runs)

    # --- production --------------------------------------------------------------

    def run_production(self, text):
        pq = self.plan_query(text)
        usage_now = self.current_usage()
        by_id = {p.id: p for p in pq.plans}

        plan, case, warnings = None, "random", []
        near, score = self.monitor.nearest(pq.signature)
        if near is not None and score >= self.config.similarity_threshold:
            best = self.monitor.best_plan(near)
            if best in by_id:
                training_usage = self.monitor.mean_usage(near, best)
                if not mon.usage_differs(usage_now, training_usage,
                                         self.config.usage_bound):
                    plan, case = by_id[best], "matched"
                else:
                    # engine load looks very different from when the best
                    # plan was measured: prefer a plan measured under
                    # comparable load, else fall back with a warning
                    alt = self.monitor.best_plan_for_usage(
                        near, usage_now, self.config.usage_bound)
                    if alt is not None and alt in by_id:
                        plan, case = by_id[alt], "usage-alternate"
                    else:
                        plan, case = by_id[best], "retrain-recommended"
                        warnings.append(
                            "usage differs from training; consider "
                            "re-running with --training"
                        )
        if plan is None:
            plan, case = self.rng.choice(pq.plans), "random"

        result, runtime_ms = self.execute_plan(pq, plan)
        self.monitor.record(mon.PerfRecord(
            ts=self.clock.now(), phase="production",
            signature=pq.signature, plan_id=plan.id,
            runtime_ms=runtime_ms, usage=usage_now,
        ))
        if case == "random":  # the other plans, once this one has run
            for other in pq.plans:
                if other.id != plan.id:
                    self.monitor.enqueue(pq.signature, other, pq)
        return QueryReport(result=result, plan_id=plan.id,
                           runtime_ms=runtime_ms, phase="production",
                           case=case, match=near,
                           match_score=None if near is None else score,
                           warnings=warnings)

    # --- background training ---------------------------------------------------------

    def is_idle(self):
        if self.clock.now() - self._last_foreground_end < IDLE_AFTER_S:
            return False
        return all(frac < IDLE_BUSY_BOUND
                   for frac in self.current_usage().values())

    def drain_background(self, force=False):
        """Run queued plans while the system looks idle; returns the number
        executed. A PolydawgError leaves a tombstone record; others raise."""
        done = 0
        while self.monitor.pending and (force or self.is_idle()):
            signature, plan, pq = self.monitor.pop_pending()
            usage_at_start = self.current_usage()
            foreground_end = self._last_foreground_end
            try:
                _, runtime_ms = self.execute_plan(pq, plan)
                phase = "background"
            except PolydawgError:
                phase, runtime_ms = "failed", 0.0
            # background work should not push back the idle horizon
            self._last_foreground_end = foreground_end
            self.monitor.record(mon.PerfRecord(
                ts=self.clock.now(), phase=phase, signature=signature,
                plan_id=plan.id, runtime_ms=runtime_ms,
                usage=usage_at_start,
            ))
            done += 1
        return done

