import pytest

from polydawg.errors import MonitorError
from polydawg.monitor import (
    MonitorDB, PerfRecord, jaccard, similarity, usage_differs,
)
from polydawg.planner import Signature


def sig(structure="s1", objects=("rel.a",), constants=("1",)):
    return Signature(structure, frozenset(objects), tuple(constants))


def rec(ts=0.0, phase="training", signature=None, plan_id="p1",
        runtime_ms=10.0, usage=None):
    return PerfRecord(ts, phase, signature or sig(), plan_id, runtime_ms,
                      usage if usage is not None else {"rel": 0.1})


def test_jaccard():
    assert jaccard(set(), set()) == 1.0
    assert jaccard({"a"}, set()) == 0.0
    assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)


def test_similarity_weighted_components():
    a = sig()
    assert similarity(a, a) == 1.0
    # same structure and objects, disjoint constants
    assert similarity(a, sig(constants=("2",))) == 0.9
    # different structure, same objects and constants
    assert similarity(a, sig(structure="s2")) == 0.4
    # everything different
    assert similarity(a, sig("s2", ("kv.b",), ("2",))) == 0.0
    # custom weights
    assert similarity(a, sig(constants=("2",)),
                      weights=(0.5, 0.5, 0.0)) == 1.0


def test_usage_differs_bound_is_exclusive():
    assert not usage_differs({"rel": 0.5}, {"rel": 0.0}, bound=0.5)
    assert usage_differs({"rel": 0.51}, {"rel": 0.0}, bound=0.5)
    # engines missing from one side count as 0
    assert usage_differs({"rel": 0.0, "kv": 0.9}, {"rel": 0.1}, bound=0.5)


def test_record_and_replay_round_trip(tmp_path):
    path = str(tmp_path / "monitor.log")
    db = MonitorDB(path)
    weird = sig(objects=("rel.a b", "kv.x;y"), constants=("'tab\t'", "'%,'"))
    db.record(rec(ts=1.5, signature=weird, usage={"rel": 0.25, "kv": 1.0}))
    db.record(rec(ts=2.5, phase="production", plan_id="p2", runtime_ms=3.5))

    again = MonitorDB(path)
    assert again.records == db.records
    assert again.dump_lines() == db.dump_lines()
    for line in again.dump_lines():
        assert len(line.split("\t")) == 8


def test_replay_builds_each_signature_once(tmp_path):
    path = tmp_path / "monitor.log"
    db = MonitorDB(str(path))
    runs = [("1", "p1"), ("2", "p2"), ("1", "p2"), ("1", "p1"), ("2", "p1")]
    for ts, (constant, plan) in enumerate(runs):
        # a fresh, equal Signature object for every record
        db.record(rec(ts=float(ts), signature=sig(constants=(constant,)),
                      plan_id=plan, runtime_ms=ts + 0.5,
                      usage={"rel": ts / 10}))

    again = MonitorDB(str(path))
    assert again.records == db.records
    assert again.dump_lines() == db.dump_lines()
    assert "".join(line + "\n" for line in again.dump_lines()) == \
        path.read_text()
    indexed = again.signatures()
    assert indexed == db.signatures()
    for signature in indexed:
        assert all(r.signature is signature
                   for r in again.records_for(signature))
        assert again.nearest(signature)[0] is signature
    assert again.records[1].plan_id is again.records[2].plan_id

    # line 3 repeats line 1's signature; its other fields are still checked
    lines = path.read_text().splitlines(keepends=True)
    for field, bad in ((0, "soon"), (6, "slow"), (7, "rel%3Dbusy")):
        parts = lines[2][:-1].split("\t")
        parts[field] = bad
        path.write_text("".join(lines[:2]) + "\t".join(parts) + "\n"
                        + "".join(lines[3:]))
        with pytest.raises(MonitorError, match="log line 3"):
            MonitorDB(str(path))


def test_replay_rejects_corrupt_lines(tmp_path):
    path = tmp_path / "monitor.log"
    path.write_text("only\tthree\tfields\n")
    with pytest.raises(MonitorError):
        MonitorDB(str(path))
    # a corrupt complete line fails wherever it is, even before a torn one
    path = tmp_path / "good.log"
    MonitorDB(str(path)).record(rec())
    good = path.read_text()
    for text in (good + "bad\tline\n", "bad\tline\n" + good,
                 "bad\tline\n" + good[:-3]):
        path.write_text(text)
        with pytest.raises(MonitorError):
            MonitorDB(str(path))


def test_replay_drops_a_torn_final_line(tmp_path):
    path = tmp_path / "monitor.log"
    db = MonitorDB(str(path))
    db.record(rec(ts=1.0))
    db.record(rec(ts=2.0, plan_id="p2"))
    whole = path.read_bytes()
    # a crash in the middle of the second append
    path.write_bytes(whole[:len(whole) - 9])

    again = MonitorDB(str(path))
    assert again.records == db.records[:1]
    assert again.torn_tail
    first_line = whole[:whole.index(b"\n") + 1]
    assert path.read_bytes() == first_line
    again.record(rec(ts=3.0, plan_id="p3"))
    reopened = MonitorDB(str(path))
    assert reopened.torn_tail == ""
    assert [r.plan_id for r in reopened.records] == ["p1", "p3"]


def test_nearest_prefers_similarity_then_recency():
    db = MonitorDB()
    old = sig(constants=("1",))
    new = sig(constants=("2",))
    db.record(rec(signature=old))
    db.record(rec(signature=new))
    probe = sig(constants=("3",))  # ties old and new at 0.9
    found, score = db.nearest(probe)
    assert found == new and score == 0.9
    assert db.nearest(sig())[1] == 1.0
    assert MonitorDB().nearest(probe) == (None, 0.0)


def test_best_plan_mean_and_ties():
    db = MonitorDB()
    s = sig()
    db.record(rec(plan_id="b", runtime_ms=10.0))
    db.record(rec(plan_id="b", runtime_ms=30.0))   # mean 20
    db.record(rec(plan_id="c", runtime_ms=25.0))   # mean 25
    db.record(rec(plan_id="a", runtime_ms=20.0))   # mean 20, ties with b
    assert db.best_plan(s) == "a"
    db.record(rec(phase="failed", plan_id="z", runtime_ms=0.0))
    assert db.best_plan(s) == "a"  # failures are excluded
    assert db.best_plan(sig(structure="nope")) is None


def test_mean_usage_and_usage_restricted_best_plan():
    db = MonitorDB()
    s = sig()
    db.record(rec(plan_id="fast", runtime_ms=5.0, usage={"rel": 0.0}))
    db.record(rec(plan_id="slow", runtime_ms=50.0, usage={"rel": 0.9}))
    assert db.mean_usage(s) == {"rel": 0.45}
    assert db.mean_usage(s, "fast") == {"rel": 0.0}
    # under heavy rel load only the slow plan's record is comparable
    assert db.best_plan_for_usage(s, {"rel": 0.9}, bound=0.5) == "slow"
    assert db.best_plan_for_usage(s, {"rel": 0.1}, bound=0.5) == "fast"
    assert db.best_plan_for_usage(sig(structure="nope"), {}, 0.5) is None


def test_pending_queue_is_fifo():
    db = MonitorDB()
    db.enqueue(sig(), "p1", "ctx1")
    db.enqueue(sig(), "p2", "ctx2")
    assert db.pop_pending()[1] == "p1"
    assert db.pop_pending()[1] == "p2"
    assert db.pop_pending() is None


def test_plan_means_and_stats():
    db = MonitorDB()
    db.record(rec(plan_id="p1", runtime_ms=10.0))
    db.record(rec(plan_id="p1", runtime_ms=20.0))
    db.record(rec(plan_id="p2", runtime_ms=40.0))
    assert db.plan_means("s1") == {"p1": 15.0, "p2": 40.0}
    assert db.plan_means("zz") == {}
    (row,) = db.stats()
    assert row["runs"] == 3 and row["plans"] == 2
    assert row["best_plan"] == "p1"
    assert row["mean_runtime_ms"] == pytest.approx(70.0 / 3)


def test_plan_means_average_every_record_of_every_matching_signature():
    # two literal variants of one structure: a plan's mean covers the
    # records of both, in record order, and a failed run counts in neither
    db = MonitorDB()
    first, second = sig(constants=("1",)), sig(constants=("2",))
    db.record(rec(signature=first, runtime_ms=10.0))
    db.record(rec(signature=second, runtime_ms=20.0))
    db.record(rec(signature=second, runtime_ms=20.0))
    db.record(rec(signature=first, phase="failed", runtime_ms=0.0))
    db.record(rec(signature=sig("s2"), runtime_ms=99.0))
    assert db.plan_means("s1") == {"p1": pytest.approx(50.0 / 3)}
    assert [row["best_plan"] for row in db.stats()] == ["p1", "p1", "p1"]
