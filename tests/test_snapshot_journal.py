"""Crash a snapshot at every file operation it makes, in process, and
check that the directory restores as the old catalog or the new one.

The model is a process crash: every operation before the crash point
completed, the one at it did not, and a write cut short leaves its first
half on disk."""

import builtins
import json
import os
import shutil

import pytest

from polydawg.canonical import CanonicalTable
from polydawg.engines import base, default_catalog
from polydawg.errors import CatalogError


class Crash(BaseException):
    """The process died; nothing may catch it."""


class Crasher:
    """Counts the file operations of a snapshot and dies at operation
    ``at`` (counting from 1); None never dies."""

    def __init__(self, at=None):
        self.at, self.done = at, 0

    def step(self):
        self.done += 1
        return self.done == self.at

    def install(self, monkeypatch):
        real_open = builtins.open
        crasher = self

        class Writer:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                if crasher.step():
                    self.fh.write(text[:len(text) // 2])
                    raise Crash
                return self.fh.write(text)

        def opener(file, mode="r", *args, **kwargs):
            if not any(c in mode for c in "wax"):
                return real_open(file, mode, *args, **kwargs)
            if self.step():
                raise Crash
            return Writer(real_open(file, mode, *args, **kwargs))

        def wrap(fn):
            def op(*args, **kwargs):
                if self.step():
                    raise Crash
                return fn(*args, **kwargs)
            return op

        monkeypatch.setattr(builtins, "open", opener)
        for name in ("replace", "remove", "truncate", "unlink"):
            monkeypatch.setattr(os, name, wrap(getattr(os, name)))


def table(k, rows):
    return CanonicalTable([("k", "text"), ("v", "int")],
                          [(f"r{i}", i * k) for i in range(rows)])


def state(directory):
    """What a restore of ``directory`` gives: each name's engine, rows and
    load options."""
    catalog = default_catalog()
    catalog.restore(str(directory))
    return {name: (eid, catalog.export(eid, name).rows,
                   catalog.engine(eid).load_options_for(name))
            for name, eid in catalog.directory().items()}


def change(directory, step, crasher=None, monkeypatch=None):
    """Restore ``directory``, apply ``step`` to the catalog and snapshot
    it, dying where ``crasher`` says."""
    catalog = default_catalog()
    catalog.restore(str(directory))
    step(catalog)
    if crasher is not None:
        with monkeypatch.context() as m:
            crasher.install(m)
            try:
                catalog.snapshot(str(directory))
            except Crash:
                return False
    else:
        catalog.snapshot(str(directory))
    return True


def load(name, k, rows=3):
    return lambda c: c.load("rel", name, table(k, rows), {"key": ["k"]})


def drop(name):
    return lambda c: c.drop(name)


STEPS = ([load(f"t{i}", i) for i in range(6)] + [drop("t2")]
         + [load(f"u{i}", i, 1) for i in range(6)]
         + [lambda c: (drop("u0")(c), load("w", 9)(c)), drop("t0"),
            drop("t1")])


def test_every_crash_point_restores_the_old_or_the_new_catalog(
        tmp_path, monkeypatch):
    live = tmp_path / "live"
    first = default_catalog()
    first.load("kv", "notes", CanonicalTable(
        [("row", "text"), ("col", "text"), ("val", "text")],
        [("a", "b", "x")]), {})
    first.snapshot(str(live))
    compactions = crash_states = 0
    for step in STEPS:
        old = state(live)
        after = tmp_path / "after"
        shutil.rmtree(after, ignore_errors=True)
        shutil.copytree(live, after)
        journal_before = (live / base.JOURNAL).exists()
        change(after, step)
        new = state(after)
        assert new != old
        compactions += journal_before and not (after / base.JOURNAL).exists()
        at = 1
        while True:
            trial = tmp_path / "trial"
            shutil.rmtree(trial, ignore_errors=True)
            shutil.copytree(live, trial)
            crasher = Crasher(at)
            finished = change(trial, step, crasher, monkeypatch)
            got = state(trial)
            assert got in (old, new), (at, step)
            if finished:
                assert got == new
                break
            crash_states += 1
            # the next snapshot after a crash lands whole
            assert change(trial, load("z", 7))
            assert state(trial) == dict(got, z=("rel", table(7, 3).rows,
                                                {"key": ["k"]}))
            at += 1
        shutil.rmtree(live)
        shutil.copytree(after, live)
    assert compactions >= 2
    assert crash_states > 4 * len(STEPS)


def test_a_removed_name_is_null_in_the_journal_and_nowhere_after(tmp_path):
    catalog = default_catalog()
    for step in (load("a", 1), load("b", 2), load("c", 3)):
        step(catalog)
    catalog.snapshot(str(tmp_path))
    catalog.drop("b")
    catalog.snapshot(str(tmp_path))
    lines = (tmp_path / base.JOURNAL).read_text().splitlines()
    assert [json.loads(line) for line in lines] == [{"b": None}]
    assert sorted(state(tmp_path)) == ["a", "c"]
    # a manifest that is not a journal may not hold a null
    (tmp_path / base.MANIFEST).write_text('{"b": null}\n')
    with pytest.raises(CatalogError, match="entry 'b'"):
        default_catalog().restore(str(tmp_path))


@pytest.mark.parametrize("line", ['["a"]', '{"a": 1}', '{"a": {"file": 1}}',
                                  '{"bad name": {}}', "{", '{"x": '])
def test_a_bad_journal_line_is_an_error_naming_it(tmp_path, line):
    catalog = default_catalog()
    load("a", 1)(catalog)
    catalog.snapshot(str(tmp_path))
    catalog.drop("a")
    catalog.snapshot(str(tmp_path))
    with open(tmp_path / base.JOURNAL, "a", encoding="ascii") as fh:
        fh.write(line + "\n" + '{"a": null}\n')
    with pytest.raises(CatalogError,
                       match=f"{base.JOURNAL}: line 2: "):
        default_catalog().restore(str(tmp_path))
