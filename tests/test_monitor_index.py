"""The indexed ``MonitorDB.nearest`` against a brute-force linear scan."""

import itertools
import random

import pytest

from polydawg.monitor import MonitorDB, PerfRecord, similarity
from polydawg.planner import Signature

WEIGHTS = [(0.6, 0.3, 0.1), (0.2, 0.4, 0.4), (1.0, 0.0, 0.0)]

STRUCTURES = ["s1", "s2", "s3"]
OBJECTS = ["rel.a", "rel.b", "kv.c"]
CONSTANTS = ["1", "2", "'x'", "'y'", "20", "0.5"]


def linear_nearest(records, probe, weights):
    """Score every recorded signature; ties go to the most recent."""
    recency = {}
    for i, record in enumerate(records):
        recency[record.signature] = i
    best = None
    for sig, last in recency.items():
        score = similarity(probe, sig, weights)
        if best is None or (score, last) > (best[1], best[2]):
            best = (sig, score, last)
    return (None, 0.0) if best is None else best[:2]


def random_signature(rng, shared):
    objects = frozenset(o for o in OBJECTS if rng.random() < 0.4)
    constants = [rng.choice(CONSTANTS) for _ in range(rng.randint(0, 4))]
    if shared:  # a constant that every member of a bucket holds
        constants.append("LIMIT")
    return Signature(rng.choice(STRUCTURES), objects, tuple(sorted(constants)))


def random_history(rng, shared):
    pool = [random_signature(rng, shared) for _ in range(rng.randint(1, 40))]
    # a signature recorded again moves to the front of the recency order
    return [rng.choice(pool) for _ in range(rng.randint(1, 80))]


def tied_history(rng, shared):
    """Members of one bucket, two constants each from a small alphabet,
    recorded once each and then again in random order: many share as many
    constants with a probe, so they tie on score, and the most recent of
    them keeps changing."""
    pairs = rng.sample(list(itertools.combinations(CONSTANTS[:4], 2)),
                       rng.randint(3, 6))
    pool = [Signature("s1", frozenset({"rel.a"}),
                      tuple(sorted(pair + (("LIMIT",) if shared else ()))))
            for pair in pairs]
    return pool + [rng.choice(pool) for _ in range(rng.randint(5, 40))]


def probes(rng, history, shared):
    yield Signature("s1", frozenset(), ())
    yield Signature("none", frozenset(), ())
    for sig in history[-5:]:
        yield sig
        # one constant of a recent member: the members holding it tie, and
        # so do the members holding none of the probe's constants
        constants = sorted(set(sig.constants))
        yield Signature(sig.structure, sig.objects,
                        (rng.choice(constants), "unseen") if constants else ())
    for _ in range(25):
        yield random_signature(rng, shared and rng.random() < 0.5)


def record_all(db, history):
    for ts, sig in enumerate(history):
        db.record(PerfRecord(float(ts), "training", sig, "p1", 1.0, {}))


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("seed", range(60))
def test_indexed_nearest_equals_linear_scan(weights, seed):
    rng = random.Random(seed)
    shared = seed % 2 == 1
    history = (random_history if seed < 40 else tied_history)(rng, shared)
    db = MonitorDB(weights=weights)
    for prefix in (len(history) // 2, len(history)):
        record_all(db, history[len(db.records):prefix])
        for probe in probes(rng, history[:prefix], shared):
            assert db.nearest(probe) == \
                linear_nearest(db.records, probe, weights), probe


def test_exact_ties_go_to_the_most_recent_signature():
    a = Signature("s1", frozenset({"rel.a"}), ("1", "2"))
    b = Signature("s1", frozenset({"rel.a"}), ("1", "3"))
    c = Signature("s1", frozenset({"rel.a"}), ("4",))
    probe = Signature("s1", frozenset({"rel.a"}), ("1",))
    db = MonitorDB()
    record_all(db, [a, b, c])
    assert db.nearest(probe) == (b, 0.95)
    record_all(db, [a])
    assert db.nearest(probe) == (a, 0.95)
    # no shared constant: the zero-overlap members tie, newest wins
    assert db.nearest(Signature("s1", frozenset({"rel.a"}), ("9",))) == \
        (a, 0.9)


def test_empty_constants_match_each_other():
    empty = Signature("s1", frozenset({"rel.a"}), ())
    other = Signature("s1", frozenset({"rel.a"}), ("1",))
    db = MonitorDB()
    record_all(db, [empty, other])
    assert db.nearest(Signature("s1", frozenset({"rel.a"}), ())) == \
        (empty, 1.0)


@pytest.mark.parametrize("weights", WEIGHTS)
def test_reopened_log_answers_like_the_linear_scan(tmp_path, weights):
    rng = random.Random(7)
    history = random_history(rng, shared=True)
    path = str(tmp_path / "monitor.log")
    db = MonitorDB(path, weights=weights)
    record_all(db, history)
    asked = list(probes(rng, history, shared=True))
    before = [db.nearest(p) for p in asked]

    reopened = MonitorDB(path, weights=weights)
    assert [reopened.nearest(p) for p in asked] == before
    assert before == [linear_nearest(reopened.records, p, weights)
                      for p in asked]
    record_all(reopened, history[:3])
    for probe in asked:
        assert reopened.nearest(probe) == \
            linear_nearest(reopened.records, probe, weights)
