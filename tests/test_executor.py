import bisect
import random

import pytest

import generators
import oracle
from polydawg import executor
from polydawg.errors import InternalConsistencyError, TypeMismatchError
from polydawg.executor import (
    StepDelayModel, System, SystemConfig, UsageTracker, VirtualClock,
)
from polydawg.migrator import apply_cast
from polydawg.monitor import MonitorDB
from polydawg.planner import CrossOp

MATMUL = "d4m(matmul(dose_rc, vitals))"


def fresh_system(seed=0, delays=None):
    catalog, registry = generators.standard_catalog()
    return System(
        catalog, registry, MonitorDB(),
        config=SystemConfig(seed=seed),
        clock=VirtualClock(),
        delay_model=delays or StepDelayModel(default_ms=1.0),
    )


def test_virtual_clock_and_delay_model():
    clock = VirtualClock(5.0)
    clock.advance(2.5)
    assert clock.now() == 7.5
    system = fresh_system(delays=StepDelayModel(
        default_ms=3.0, cross_op_kind_site_ms={("matmul", "kv"): 40.0,
                                               ("matmul", "arr"): 50.0}))
    pq = system.plan_query(MATMUL)
    kv_plan = next(p for p in pq.plans
                   if any(isinstance(s, CrossOp) and s.site == "kv"
                          for s in p.steps))
    _, runtime_ms = system.execute_plan(pq, kv_plan)
    # one container, the cast reading dose_rc as associative data and one
    # migrate at the default, plus one kv matmul at its (kind, site) delay
    assert runtime_ms == pytest.approx(3.0 + 3.0 + 3.0 + 40.0)


def test_kv_select_over_a_kv_result_agrees_with_the_oracle():
    # the select placed at kv reads the kv container's result unmigrated
    text = "d4m(select(ewise(vitals, vitals, plus), rows='c000':'c005'))"
    system = fresh_system()
    _, want = oracle.Oracle(system.catalog).query(text)
    pq = system.plan_query(text)
    assert sorted(p.site for plan in pq.plans for p in plan.steps
                  if isinstance(p, CrossOp)) == ["kv", "rel"]
    for plan in pq.plans:
        got, _ = system.execute_plan(pq, plan)
        assert want and oracle.rows_bag_equal(got.rows, want), plan.id
    assert system.catalog.directory() == \
        generators.standard_catalog()[0].directory()


@pytest.mark.parametrize("text", [
    "relational(SELECT patient_id FROM meds WHERE dose > 0.00001)",
    "relational(SELECT patient_id FROM meds WHERE dose < 10000000000000000.0)",
])
def test_tiny_and_huge_real_literals_agree_with_the_oracle(text):
    # each real reaches the native query text in a form it can read back
    system = fresh_system()
    _, want = oracle.Oracle(system.catalog).query(text)
    pq = system.plan_query(text)
    for plan in pq.plans:
        got, _ = system.execute_plan(pq, plan)
        assert want and oracle.rows_bag_equal(got.rows, want), plan.id


def test_usage_tracker_merges_overlapping_intervals():
    tracker, short = UsageTracker(10.0), UsageTracker(2.0)
    for t in (tracker, short):
        t.add("rel", 0.0, 4.0)
        t.add("rel", 2.0, 6.0)  # overlap must not double-count
    assert tracker.busy_fraction("rel", 10.0) == pytest.approx(0.6)
    assert short.busy_fraction("rel", 10.0) == 0.0
    assert tracker.busy_fraction("kv", 10.0) == 0.0
    tracker.add("kv", 0.0, 100.0)
    assert tracker.busy_fraction("kv", 50.0) == 1.0


def unpruned_busy_fraction(intervals, ends, now, window):
    """Busy fraction over every interval ever added, merged naively.
    ``intervals`` are in order of their ``ends``, so the ones that can
    reach into the window are found by bisection."""
    lo = now - window
    first = bisect.bisect_left(ends, lo)
    spans = sorted((max(s, lo), min(e, now)) for s, e in intervals[first:]
                   if min(e, now) > max(s, lo))
    busy, cur = 0.0, None
    for s, e in spans:
        if cur is None or s > cur[1]:
            if cur:
                busy += cur[1] - cur[0]
            cur = [s, e]
        else:
            cur[1] = max(cur[1], e)
    if cur:
        busy += cur[1] - cur[0]
    return min(busy / window, 1.0)


def test_usage_tracker_stays_bounded_and_exact():
    rng = random.Random(3)
    clock = VirtualClock()
    tracker = UsageTracker(10.0)
    everything = {"rel": ([], []), "kv": ([], [])}  # intervals, ends
    for _ in range(10000):
        engine = rng.choice(["rel", "kv"])
        intervals, ends = everything[engine]
        start, kind = clock.now(), rng.random()
        if kind < 0.1 and intervals:
            # starts before earlier intervals and overlaps several of them
            start -= rng.uniform(0.0, 3.0)
        elif kind < 0.2 and intervals:
            # starts exactly where a recent interval starts or ends
            start = rng.choice(rng.choice(intervals[-5:]))
        clock.advance(rng.uniform(0.0, 0.2))
        tracker.add(engine, start, clock.now())
        intervals.append((start, clock.now()))
        ends.append(clock.now())
        if rng.random() < 0.8:  # otherwise the next interval touches this one
            clock.advance(rng.uniform(0.0, 0.1))
        for e, (intervals, ends) in everything.items():
            assert tracker.busy_fraction(e, clock.now()) == \
                unpruned_busy_fraction(intervals, ends, clock.now(), 10.0)
    # steps average 0.15 s, so a 10 s window holds about 70 intervals
    assert max(len(starts) for starts, _, _ in tracker.spans.values()) < 200


def test_training_records_every_plan_and_picks_the_fastest():
    system = fresh_system(delays=StepDelayModel(
        default_ms=0.0,
        cross_op_kind_site_ms={("matmul", "kv"): 50.0,
                               ("matmul", "rel"): 100.0,
                               ("matmul", "arr"): 150.0}))
    report = system.run_training(MATMUL)
    assert report.phase == "training"
    assert sorted(ms for _, ms in report.runs) == \
        pytest.approx([50.0, 100.0, 150.0])
    assert report.runtime_ms == pytest.approx(50.0)
    assert report.result.rows  # the product is non-trivial
    assert len(system.monitor.records) == 3
    assert all(r.phase == "training" for r in system.monitor.records)
    assert len({r.plan_id for r in system.monitor.records}) == 3
    # no temporaries survive
    assert not [n for n in system.catalog.directory() if n.startswith("__mig_")]


def test_training_consistency_check_catches_divergent_plans(monkeypatch):
    system = fresh_system()
    original = system.execute_plan
    calls = []

    def flaky(pq, plan):
        result, ms = original(pq, plan)
        calls.append(plan.id)
        if len(calls) == 2:  # corrupt the second plan's answer
            from polydawg.canonical import CanonicalTable
            result = CanonicalTable(
                result.schema, list(result.rows) + [("zz", "zz", 1.0)])
        return result, ms

    monkeypatch.setattr(system, "execute_plan", flaky)
    with pytest.raises(InternalConsistencyError):
        system.run_training(MATMUL)


def test_production_untrained_is_seeded_random_and_enqueues_rest():
    picks = set()
    for seed in range(6):
        system = fresh_system(seed=seed)
        report = system.run_production(MATMUL)
        assert report.case == "random"
        assert report.match is None and report.match_score is None
        picks.add(report.plan_id)
        assert len(system.monitor.pending) == 2
        # same seed repeats the same choice
        repeat = fresh_system(seed=seed)
        assert repeat.run_production(MATMUL).plan_id == report.plan_id
    assert len(picks) > 1


def test_a_production_run_that_raises_queues_and_records_nothing(
        monkeypatch):
    system = fresh_system()
    plans = system.plan_query(MATMUL).plans
    assert len(plans) == 3

    def fail(pq, plan):
        system.clock.advance(1.0)
        raise TypeMismatchError("division by zero")

    monkeypatch.setattr(system, "execute_plan", fail)
    with pytest.raises(TypeMismatchError, match="division by zero"):
        system.run_production(MATMUL)
    assert system.monitor.pending == []
    assert system.monitor.records == []
    # once its plan runs, the others queue behind it
    monkeypatch.undo()
    assert system.run_production(MATMUL).case == "random"
    assert len(system.monitor.pending) == 2
    assert [r.phase for r in system.monitor.records] == ["production"]


def test_production_after_training_runs_best_plan():
    delays = StepDelayModel(
        default_ms=0.0,
        cross_op_kind_site_ms={("matmul", "kv"): 50.0,
                               ("matmul", "rel"): 100.0,
                               ("matmul", "arr"): 150.0})
    system = fresh_system(delays=delays)
    trained = system.run_training(MATMUL)
    report = system.run_production(MATMUL)
    assert report.case == "matched"
    assert report.plan_id == trained.plan_id
    assert report.runtime_ms == pytest.approx(50.0)
    assert report.match == system.plan_query(MATMUL).signature
    assert report.match_score == 1.0
    assert trained.match is None and trained.match_score is None


def test_production_reports_a_close_match_and_its_score():
    system = fresh_system()
    system.run_training("relational(SELECT id FROM patients WHERE age > 50)")
    trained = system.monitor.records[-1].signature
    report = system.run_production(
        "relational(SELECT id FROM patients WHERE age > 60)")
    # same structure and objects, disjoint constants
    assert report.case == "matched"
    assert report.match == trained and report.match_score == 0.9
    # another single-engine query shares only the structure (the empty
    # remainder), which scores below the threshold; the tie goes to the
    # newest signature
    latest = system.monitor.records[-1].signature
    report = system.run_production("text(grep(notes, 'fever'))")
    assert report.case == "random"
    assert report.match == latest and report.match_score == 0.6


def test_production_under_skewed_usage_warns_or_reroutes():
    system = fresh_system(delays=StepDelayModel(
        default_ms=0.0, cross_op_kind_site_ms={("matmul", "kv"): 10.0,
                                               ("matmul", "rel"): 20.0,
                                               ("matmul", "arr"): 30.0}))
    system.run_training(MATMUL)
    now = system.clock.now()
    system.usage.add("kv", now - 8.0, now)  # saturate kv in the window
    report = system.run_production(MATMUL)
    assert report.case in ("usage-alternate", "retrain-recommended")
    if report.case == "retrain-recommended":
        assert report.warnings


def test_production_under_skewed_usage_runs_a_plan_measured_under_it():
    # trained while idle, the kv plan is fastest; the rel plan then runs
    # once in the background under a saturated kv, so production under
    # that load serves the rel plan
    system = fresh_system(delays=StepDelayModel(
        default_ms=0.0, cross_op_kind_site_ms={("matmul", "kv"): 10.0,
                                               ("matmul", "rel"): 20.0,
                                               ("matmul", "arr"): 30.0}))
    trained = system.run_training(MATMUL)
    pq = system.plan_query(MATMUL)
    rel_plan = next(p for p in pq.plans if any(
        isinstance(s, CrossOp) and s.site == "rel" for s in p.steps))
    assert trained.plan_id != rel_plan.id
    now = system.clock.now()
    system.usage.add("kv", now - 8.0, now)
    system.monitor.enqueue(pq.signature, rel_plan, pq)
    assert system.drain_background(force=True) == 1
    report = system.run_production(MATMUL)
    assert report.case == "usage-alternate"
    assert report.plan_id == rel_plan.id
    assert report.match_score == 1.0
    assert report.warnings == []


RAW_QUERIES = {  # the raw scopes of the acceptance suite
    'raw.kv(SCAN vitals ROWS "a":"z~")': ("'a'", "'z~'"),
    "raw.rel(SELECT id, age FROM patients WHERE age > 40 ORDER BY id)":
        ("40",),
    "raw.arr(SUBARRAY waveform patient=0:9,t=0:5)": ("0", "0", "5", "9"),
}


@pytest.mark.parametrize("text", RAW_QUERIES)
def test_a_raw_scope_runs_its_body_on_its_engine(text):
    system = fresh_system()
    pq = system.plan_query(text)
    scope = pq.resolved.ast.root
    engine = system.registry.island(scope.island).default_engine
    (plan,) = pq.plans
    assert [(s.container.engine_id, s.container.query)
            for s in plan.steps] == [(engine, scope.expr.body)]
    assert pq.signature.constants == RAW_QUERIES[text]
    want = system.catalog.execute_native(engine, scope.expr.body)
    assert want.rows and system.run_training(text).result == want


def test_background_drain_waits_for_idle():
    system = fresh_system()
    system.run_production(MATMUL)
    assert len(system.monitor.pending) == 2
    # immediately after a foreground query the system is not idle
    assert not system.is_idle()
    assert system.drain_background() == 0
    system.clock.advance(15.0)
    assert system.is_idle()
    assert system.drain_background() == 2
    assert not system.monitor.pending
    phases = [r.phase for r in system.monitor.records]
    assert phases == ["production", "background", "background"]
    assert len({r.plan_id for r in system.monitor.records}) == 3


def test_background_failures_leave_tombstones():
    system = fresh_system()
    system.run_production(MATMUL)
    # drop an object a queued plan needs, forcing its execution to fail
    system.catalog.drop("vitals")
    assert system.drain_background(force=True) == 2
    failed = [r for r in system.monitor.records if r.phase == "failed"]
    assert failed and all(r.runtime_ms == 0.0 for r in failed)
    assert not [n for n in system.catalog.directory() if n.startswith("__mig_")]


def test_background_programming_errors_reach_the_caller(monkeypatch):
    system = fresh_system()
    system.run_production(MATMUL)

    def broken(pq, plan):
        raise RuntimeError("bug in a plan step")

    monkeypatch.setattr(system, "execute_plan", broken)
    with pytest.raises(RuntimeError, match="bug in a plan step"):
        system.drain_background(force=True)
    assert not [r for r in system.monitor.records if r.phase == "failed"]


WAVE = "array(subarray(waveform, patient=0:3, t=0:2))"
PATIENT_AGES = "relational(SELECT id, age FROM patients)"
NOTES = "text(scan(notes, rows='p00001':'p00005'))"
USER_CASTS = {
    ("relational", "keyvalue"):
        f"d4m(transpose(cast({PATIENT_AGES}, d4m, key=id)))",
    ("relational", "array"):
        f"array(filter(cast({PATIENT_AGES}, array, key=id), v > 50))",
    ("keyvalue", "relational"):
        f"relational(SELECT * FROM cast({NOTES}, relational) n)",
    ("keyvalue", "array"): f"array(filter(cast({NOTES}, array), r >= 0))",
    ("array", "relational"):
        f"relational(SELECT * FROM cast({WAVE}, relational) w)",
    ("array", "keyvalue"): f"d4m(transpose(cast({WAVE}, d4m)))",
}


@pytest.mark.parametrize("pair", sorted(USER_CASTS), ids="->".join)
def test_user_cast_output_has_its_validated_schema(pair, monkeypatch):
    system = fresh_system()
    text = USER_CASTS[pair]
    leaves = system.plan_query(text).resolved.leaves.values()
    (schema,) = {tuple(info.schema) for info in leaves if info.kind == "cast"}
    outputs = []

    def recording_cast(table, spec):
        out = apply_cast(table, spec)
        if spec.target_model == pair[1]:  # the last hop of the chain
            outputs.append(tuple(out[0].schema))
        return out

    monkeypatch.setattr(executor, "apply_cast", recording_cast)
    report = system.run_training(text)
    assert report.result.rows
    assert outputs and set(outputs) == {schema}


def test_every_plan_result_has_the_validated_root_schema():
    system = fresh_system()
    rng = random.Random(2024)
    mismatches = []
    for _ in range(400):
        text = generators.random_query(rng)
        pq = system.plan_query(text)
        want = pq.resolved.scope_info(pq.resolved.ast.root).schema
        for plan in pq.plans:
            result, _ = system.execute_plan(pq, plan)
            if result.schema != want:
                mismatches.append((text, plan.id, result.schema, want))
    assert mismatches == []


@pytest.mark.parametrize("text, kinds", [
    ("d4m(matmul(transpose(vitals), transpose(vitals)))",
     ["transpose", "matmul"]),
    ("d4m(ewise(transpose(vitals), transpose(vitals), plus))",
     ["transpose", "ewise"]),
    # the same kind over the same input with other constants stays apart
    ("d4m(ewise(select(transpose(vitals), rows='a':'m'), "
     "select(transpose(vitals), rows='n':'z'), plus))",
     ["transpose", "select", "select", "ewise"]),
])
def test_a_repeated_remainder_node_runs_once_and_agrees_with_the_oracle(
        text, kinds):
    system = fresh_system()
    _, want = oracle.Oracle(system.catalog).query(text)
    pq = system.plan_query(text)
    assert [n.kind for n in pq.remainder.nodes] == kinds
    for plan in pq.plans:
        assert [s.node.kind for s in plan.steps
                if isinstance(s, CrossOp)].count("transpose") == 1, plan.id
        got, _ = system.execute_plan(pq, plan)
        assert oracle.rows_bag_equal(got.rows, want), plan.id


def test_a_run_time_record_shares_the_index_signature():
    system = fresh_system()
    text = "relational(SELECT id FROM patients WHERE age > 60)"
    system.run_training(text)
    system.run_production(text)
    records = system.monitor.records
    assert len(records) == 2
    assert records[1].signature is system.monitor.signatures()[0]
    assert records[1].signature is records[0].signature
