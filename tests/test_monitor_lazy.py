"""The lazily replayed ``MonitorDB`` against the eager one it replaced,
kept in ``monitor_reference``: the same answers, errors and log bytes."""

import os
import random

import pytest

import monitor_reference as ref
from polydawg.errors import MonitorError
from polydawg.monitor import MonitorDB, PerfRecord
from polydawg.planner import Signature
from test_monitor_index import WEIGHTS, probes, random_history

PHASES = ["training", "production", "background", "failed"]
PLANS = ["p1", "p2", "p3", "p%4"]
WEIRD = ["o'brien", "tab\there", "semi;colon", "pct%20", "été"]


def random_record(rng, signature, ts):
    usage = {e: rng.choice([0.0, 0.25, rng.random()])
             for e in rng.sample(["rel", "kv", "arr"], rng.randint(0, 3))}
    return PerfRecord(float(ts), rng.choice(PHASES), signature,
                      rng.choice(PLANS), rng.choice([1.5, rng.random() * 50]),
                      usage)


def weird_history(rng):
    """Signatures whose constants need escaping, some repeated within one
    signature, and some objects that need it too."""
    pool = []
    for _ in range(rng.randint(1, 12)):
        constants = [rng.choice(WEIRD + ["1", "2"])
                     for _ in range(rng.randint(0, 3))]
        pool.append(Signature(rng.choice(["s1", "s%2"]),
                              frozenset(rng.sample(["rel.a", "kv.b c"],
                                                   rng.randint(0, 2))),
                              tuple(sorted(constants))))
    return [rng.choice(pool) for _ in range(rng.randint(1, 40))]


def answers(db, asked, current_usage):
    """Everything a caller can read from ``db``, in an order that touches
    buckets lazily before anything builds them all."""
    out = []
    for probe in asked:
        near, score = db.nearest(probe)
        out.append((near, score))
        for sig in (near, probe):
            if sig is None:
                continue
            best = db.best_plan(sig)
            out.append((best, db.mean_usage(sig), db.mean_usage(sig, best),
                        db.best_plan_for_usage(sig, current_usage),
                        db.records_for(sig)))
    out.append(db.records)
    out.append(db.signatures())
    out.append(db.dump_lines())
    out.append(db.stats())
    out.append([db.plan_means(prefix) for prefix in ("", "s", "s1", "x")])
    return out


def assert_shared_signatures(db):
    """Every record holds the one Signature object its signature has."""
    index = {sig: sig for sig in db.signatures()}
    assert all(rec.signature is index[rec.signature] for rec in db.records)
    for sig in index:
        assert all(r.signature is sig for r in db.records_for(sig))


def open_both(tmp_path, log_bytes, weights=None):
    """(lazy, reference) monitors, each over its own copy of the log, or
    the MonitorError each raised."""
    opened = []
    for name, cls in (("lazy", MonitorDB), ("ref", ref.MonitorDB)):
        path = tmp_path / f"{name}.log"
        path.write_bytes(log_bytes)
        try:
            opened.append(cls(str(path), weights=weights))
        except MonitorError as e:
            opened.append(e)
    return opened


def assert_agree(tmp_path, log_bytes, asked=(), weights=None, more=()):
    lazy, eager = open_both(tmp_path, log_bytes, weights)
    if isinstance(eager, MonitorError):
        assert isinstance(lazy, MonitorError), lazy
        assert str(lazy) == str(eager)
        return None
    assert not isinstance(lazy, MonitorError), lazy
    assert lazy.torn_tail == eager.torn_tail
    assert (tmp_path / "lazy.log").read_bytes() == \
        (tmp_path / "ref.log").read_bytes()
    usage = {"rel": 0.9, "kv": 0.1}
    assert answers(lazy, asked, usage) == answers(eager, asked, usage)
    for record in more:  # records added after the reopen
        lazy.record(record)
        eager.record(record)
    if more:
        assert answers(lazy, asked, usage) == answers(eager, asked, usage)
    assert (tmp_path / "lazy.log").read_bytes() == \
        (tmp_path / "ref.log").read_bytes()
    assert_shared_signatures(lazy)
    return lazy


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("seed", range(12))
def test_a_reopened_log_answers_like_the_eager_replay(tmp_path, weights,
                                                      seed):
    rng = random.Random(seed)
    shared = seed % 2 == 1
    history = random_history(rng, shared) if seed < 8 else weird_history(rng)
    records = [random_record(rng, sig, ts) for ts, sig in enumerate(history)]
    writer = ref.MonitorDB(str(tmp_path / "all.log"))
    for record in records:
        writer.record(record)
    whole = (tmp_path / "all.log").read_bytes()
    starts = [0] + [i + 1 for i, b in enumerate(whole) if b == ord("\n")]
    for _ in range(3):  # reopen at a random prefix, then record the rest
        k = rng.randrange(len(records) + 1)
        more = records[k:k + rng.randint(0, 10)]
        asked = list(probes(rng, history, shared))[:12] + history[:2]
        assert_agree(tmp_path, whole[:starts[k]], asked, weights, more)


def _canonical_line(tmp_path, record):
    db = MonitorDB(str(tmp_path / "one.log"))
    db.record(record)
    line = (tmp_path / "one.log").read_text()
    os.remove(tmp_path / "one.log")
    return line[:-1].split("\t")


@pytest.mark.parametrize("field", range(8))
def test_a_corrupt_field_fails_or_passes_as_it_did(tmp_path, field):
    good = PerfRecord(1.5, "training", Signature("s1", frozenset({"rel.a"}),
                                                 ("1", "2")),
                      "p1", 10.0, {"rel": 0.25, "kv": 0.0})
    parts = _canonical_line(tmp_path, good)
    second = "\t".join(_canonical_line(tmp_path, PerfRecord(
        2.5, "production", good.signature, "p2", 3.0, {})))
    bads = ["", "x", "%", "%zz", "%2", "soon", "1.5.5", "1e", "-", "inf",
            "1e%2B400", "-0.0", "%31%2E5", "1_0", "rel", "rel%3D", "%3D1",
            "rel%3Dx", "rel%3D1%2C", "rel%3D1%3D2", "%2C", "a%3Bb",
            "b%3Ba%3Ba", "%2527x%2527%3B%2527x%2527", "1%3b2", "%41"]
    probe = good.signature
    for bad in bads:
        line = "\t".join(parts[:field] + [bad] + parts[field + 1:])
        for text in (line + "\n" + second + "\n",
                     second + "\n" + line + "\n",
                     second + "\n" + line + "\n" + second[:9]):
            assert_agree(tmp_path, text.encode(), [probe])


def test_a_wrong_field_count_is_the_same_error(tmp_path):
    parts = _canonical_line(tmp_path, PerfRecord(
        1.0, "training", Signature("s1", frozenset(), ()), "p1", 1.0, {}))
    for fields in (parts[:7], parts + ["x"], parts[:1], [""] * 8):
        text = "\t".join(parts) + "\n\n" + "\t".join(fields) + "\n"
        assert_agree(tmp_path, text.encode())
        with pytest.raises(MonitorError, match="log line 3"):
            MonitorDB(str(tmp_path / "lazy.log"))


def test_torn_tails_are_dropped_as_they_were(tmp_path):
    rng = random.Random(5)
    history = weird_history(rng)
    writer = MonitorDB(str(tmp_path / "all.log"))
    for ts, sig in enumerate(history):
        writer.record(random_record(rng, sig, ts))
    whole = (tmp_path / "all.log").read_bytes()
    more = [random_record(rng, history[0], 99.0)]
    for cut in sorted(rng.sample(range(len(whole)), 25)) + [len(whole)]:
        assert_agree(tmp_path, whole[:cut], history[:3], more=more)


def test_other_spellings_join_their_canonical_twin(tmp_path):
    sig = Signature("s1", frozenset({"rel.a", "kv.b"}), ("'x,y'", "1"))
    parts = _canonical_line(tmp_path, PerfRecord(
        1.0, "training", sig, "p1", 4.0, {"rel": 0.5}))
    canonical = "\t".join(parts) + "\n"
    twins = [
        parts[:4] + [parts[4].lower()] + parts[5:],  # lowercase escapes
        parts[:3] + ["rel.a%3Bkv.b%3Brel.a"] + parts[4:],  # unsorted, twice
        parts[:2] + ["s%31"] + parts[3:],  # an escape that needs none
        parts[:4] + ["%2527x%252cy%2527%3B%31"] + parts[5:],  # both
        # one piece spelled another way, the rest as written
        parts[:4] + [parts[4].replace("%252C", "%252c")] + parts[5:],
        parts[:4] + [parts[4].replace("%3B1", "%3B%2531")] + parts[5:],
    ]
    for twin in twins:
        text = canonical + "\t".join(twin) + "\n" + canonical
        lazy = assert_agree(tmp_path, text.encode(), [sig])
        assert lazy.signatures() == [sig]
        assert len(lazy.records_for(sig)) == 3
        assert lazy.nearest(sig) == (sig, 1.0)
    # a repeated constant is another signature in the same bucket
    repeated = Signature("s1", sig.objects, ("'x,y'", "'x,y'", "1"))
    text = canonical + "\t".join(
        parts[:4] + ["%2527x%252Cy%2527%3B%2527x%252Cy%2527%3B1"] + parts[5:]
    ) + "\n"
    lazy = assert_agree(tmp_path, text.encode(), [sig, repeated])
    assert lazy.signatures() == [sig, repeated]


def test_only_the_buckets_a_lookup_needs_are_built(tmp_path):
    path = str(tmp_path / "monitor.log")
    writer = MonitorDB(path)
    near = Signature("s1", frozenset({"rel.a"}), ("1",))
    for ts, sig in enumerate([near, Signature("s2", frozenset({"kv.b"}),
                                              ("2",))] * 3):
        writer.record(PerfRecord(float(ts), "training", sig, "p1", 1.0, {}))
    db = MonitorDB(path)
    assert all(isinstance(r, str) for r in db._records)
    assert db.nearest(Signature("s1", frozenset({"rel.a"}), ("3",))) == \
        (near, 0.9)
    built = [bool(b.signatures) for b in db._buckets.values()]
    assert built == [True, False]
    assert db.best_plan(near) == "p1"
    assert [isinstance(r, str) for r in db._records] == [False, True] * 3


def test_only_the_record_that_creates_the_log_syncs_its_directory(
        tmp_path, monkeypatch):
    synced = []
    fsync = os.fsync

    def record_fsync(fd):
        synced.append(os.fstat(fd).st_ino)
        fsync(fd)

    monkeypatch.setattr(os, "fsync", record_fsync)
    for path in (tmp_path / "new" / "monitor.log", tmp_path / "m.log"):
        db = MonitorDB(str(path))
        rec = PerfRecord(1.0, "training", Signature("s", frozenset(), ()),
                         "p1", 1.0, {})
        db.record(rec)
        log = path.stat().st_ino
        assert synced == [log, path.parent.stat().st_ino]
        synced.clear()
        db.record(rec)
        db.record(rec)
        assert synced == [log, log]
        synced.clear()
        MonitorDB(str(path)).record(rec)  # reopened: the file is there
        assert synced == [log]
        synced.clear()


def test_an_empty_constant_recorded_in_process_is_indexed_as_it_was(
        tmp_path):
    # the log cannot spell an empty constant, so only a record made in
    # this process holds one; its raw constants field is "" or "%3B"
    sigs = [Signature("s1", frozenset(), constants)
            for constants in [("", ""), ("",), (), ("", "a"), ("a",)]]
    more = [PerfRecord(float(ts), "training", sig, "p1", 1.0, {})
            for ts, sig in enumerate(sigs * 2)]
    for weights in WEIGHTS:
        assert_agree(tmp_path, b"", sigs, weights, more)
