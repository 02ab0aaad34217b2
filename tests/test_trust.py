"""The trust boundary: values are checked where data comes in, and the
tables engines, casts and the migrator build through
``CanonicalTable.trusted`` would pass that check unchanged.

``checked_trust`` wraps the trusted constructor with a checker, and the
tests run every plan of generated queries under it.
"""

import importlib.util
import itertools
import math
import pathlib
import random

import pytest

import generators
from polydawg import datagen
from polydawg.canonical import (
    CanonicalTable, CIFError, bag_equal, parse_cif,
)
from polydawg.engines import default_catalog
from polydawg.errors import SchemaError
from polydawg.executor import System, SystemConfig, VirtualClock
from polydawg.monitor import MonitorDB
from polydawg.values import INT, REAL, TEXT, check_value, row_sort_key

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
EXACT_TYPE = {INT: int, REAL: float, TEXT: str}


def trust_violations(table):
    """What ``table`` breaks of the trusted constructor's contract: each
    row a tuple as long as the schema, and each non-null value already of
    its column's exact type, so that ``check_value`` returns it as is."""
    out = []
    width = len(table.schema)
    for row in table.rows:
        if type(row) is not tuple or len(row) != width:
            out.append(f"row {row!r} for {width} columns")
            continue
        for (name, tag), v in zip(table.schema, row):
            if v is None:
                continue
            try:
                same = type(v) is EXACT_TYPE[tag] and check_value(tag, v) is v
            except SchemaError:
                same = False
            if not same:
                out.append(f"{name}:{tag} holds {v!r}")
    return out


@pytest.fixture
def checked_trust(monkeypatch):
    """Every trusted table built while the test runs is checked; returns
    the list the violations go to."""
    violations = []
    build = CanonicalTable.trusted.__func__

    def checking(cls, schema, rows):
        table = build(cls, schema, rows)
        violations.extend(trust_violations(table))
        return table

    monkeypatch.setattr(CanonicalTable, "trusted", classmethod(checking))
    return violations


def fresh_system():
    catalog, registry = generators.standard_catalog()
    return System(catalog, registry, MonitorDB(), SystemConfig(),
                  clock=VirtualClock())


def _train_xengine_queries():
    """One query of each family the ``train-xengine`` benchmark trains,
    sized for the scale-1 standard catalog."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    gen = workloads.QueryGen(random.Random(7), scale=1, window=12)
    return [gen.query(f) for f in
            ("codose", "wave_sim", "wave_ewise", "join_grep", "codose_rel")]


def test_every_trusted_table_of_every_plan_would_pass_the_check(checked_trust):
    system = fresh_system()
    rng = random.Random(808)
    texts = [generators.random_query(rng) for _ in range(400)]
    texts += _train_xengine_queries()
    built = 0
    for text in texts:
        pq = system.plan_query(text)
        for plan in pq.plans:
            system.execute_plan(pq, plan)
            built += 1
    assert built > len(texts)
    assert checked_trust == []


def test_assoc_ops_over_int_and_real_operands_emit_reals(checked_trust):
    catalog = default_catalog()
    catalog.load("kv", "a", generators.entries_table(
        {("x", "y"): 2, ("y", "x"): 3}, "int"))
    catalog.load("kv", "b", generators.entries_table(
        {("x", "y"): 0.5, ("z", "z"): 1.5}, "real"))
    for query in ("EWISE a b plus", "EWISE b a max", "MATMUL a b"):
        out = catalog.execute_native("kv", query)
        assert out.tags[2] == REAL and out.rows, query
    assert checked_trust == []


@pytest.fixture
def huge():
    """Finite reals whose sums and products overflow, on every engine."""
    catalog = default_catalog()
    catalog.load("rel", "t", CanonicalTable(
        [("k", TEXT), ("v", REAL)], [("a", 1e308), ("b", 1e308)]))
    catalog.load("arr", "w", CanonicalTable(
        [("p", INT), ("v", REAL)], [(0, 1e308), (1, 1e308)]),
        {"dims": [("p", 2)]})
    catalog.load("kv", "m", generators.entries_table(
        {("a", "b"): 1e308, ("b", "a"): 1e308}, REAL))
    return catalog


@pytest.mark.parametrize("engine,query", [
    ("rel", "SELECT k, v * 10.0 AS x FROM t"),
    ("rel", "SELECT SUM(v) FROM t"),
    ("rel", "SELECT k, MAX(v * v) FROM t GROUP BY k"),
    ("arr", "AGG sum(v) w BY ()"),
    ("kv", "MATMUL m m"),
    ("kv", "EWISE m m plus"),
])
def test_engines_reject_the_reals_their_arithmetic_overflows(huge, engine,
                                                              query):
    with pytest.raises(SchemaError, match="non-finite"):
        huge.execute_native(engine, query)


def test_an_overflow_no_result_holds_is_not_an_error(huge):
    out = huge.execute_native("rel", "SELECT k FROM t WHERE v * v > 1.0")
    assert out.rows == [("a",), ("b",)]
    out = huge.execute_native("arr", "AGG max(v) w BY (p)")
    assert out.rows == [(0, 1e308), (1, 1e308)]


def test_trust_checker_catches_a_widening_and_a_short_row():
    table = CanonicalTable.trusted([("a", INT), ("v", REAL)],
                                   [(1, 2), (1,), (True, 0.5), (2, 1.0)])
    assert trust_violations(table) == [
        "v:real holds 2", "row (1,) for 2 columns", "a:int holds True"]


# --- bag equality ------------------------------------------------------------

def reference_bag_equal(a, b, rel_tol=0.0):
    """``bag_equal`` as it was before the reference could be sorted once
    and exact matches took a fast path; the new code must agree with it."""
    if a.tags != b.tags:
        return False
    if len(a.rows) != len(b.rows):
        return False
    ra = sorted(a.rows, key=row_sort_key)
    rb = sorted(b.rows, key=row_sort_key)
    if rel_tol == 0.0:
        return ra == rb
    for xa, xb in zip(ra, rb):
        for tag, va, vb in zip(a.tags, xa, xb):
            if va is None or vb is None:
                if va is not vb:
                    return False
            elif tag == REAL:
                if not math.isclose(va, vb, rel_tol=rel_tol, abs_tol=1e-12):
                    return False
            elif va != vb:
                return False
    return True


def _variant(rng, table):
    """A table that may or may not bag-equal ``table``."""
    schema, rows = list(table.schema), list(table.rows)
    how = rng.randrange(7)
    if how == 0 and rows:  # perturb one real just inside or outside 1e-9
        i = rng.randrange(len(rows))
        row = list(rows[i])
        reals = [j for j, (_, t) in enumerate(schema)
                 if t == REAL and row[j] not in (None, 0.0)]
        if reals:
            j = rng.choice(reals)
            row[j] *= 1 + rng.choice([0.5e-9, 0.99e-9, 1.01e-9, 2e-9, -2e-9])
            rows[i] = tuple(row)
    elif how == 1 and rows:  # drop a row
        rows.pop(rng.randrange(len(rows)))
    elif how == 2 and rows:  # duplicate a row
        rows.append(rng.choice(rows))
    elif how == 3 and rows:  # a value becomes null
        i = rng.randrange(len(rows))
        row = list(rows[i])
        row[rng.randrange(len(row))] = None
        rows[i] = tuple(row)
    elif how == 4:  # a column changes tag
        j = rng.randrange(len(schema))
        name, tag = schema[j]
        schema[j] = (name, TEXT if tag != TEXT else INT)
        rows = [r[:j] + (None,) + r[j + 1:] for r in rows]
    elif how == 5:  # renamed columns, shuffled rows: still equal
        schema = [(f"x{j}", t) for j, (_, t) in enumerate(schema)]
    rng.shuffle(rows)
    return CanonicalTable(schema, rows)


POOLS = {INT: [0, 1, 2, -7], REAL: [0.5, 1.25, 3.0, -2.5e6], TEXT: ["", "a", "b"]}


def _random_table(rng):
    """Few columns over small value pools with nulls, so that rows tie on
    leading columns, nulls meet values in sorting, and rows repeat."""
    schema = [(f"a{i}", rng.choice(sorted(POOLS)))
              for i in range(rng.randint(1, 3))]
    rows = [tuple(None if rng.random() < 0.2 else rng.choice(POOLS[tag])
                  for _, tag in schema)
            for _ in range(rng.randint(0, 8))]
    if rows and rng.random() < 0.3:
        rows.append(rng.choice(rows))
    return CanonicalTable(schema, rows)


def test_bag_equal_agrees_with_the_reference_implementation():
    rng = random.Random(99)
    outcomes = set()
    for _ in range(3000):
        table = _random_table(rng)
        other = _variant(rng, table)
        a_sorted = sorted(table.rows, key=row_sort_key)
        assert table.sorted_rows() == a_sorted
        assert other.sorted_rows() == sorted(other.rows, key=row_sort_key)
        for rel_tol in (0.0, 1e-9):
            want = reference_bag_equal(table, other, rel_tol)
            assert bag_equal(table, other, rel_tol) == want
            assert bag_equal(table, other, rel_tol, a_sorted=a_sorted) == want
            assert bag_equal(other, table, rel_tol) == \
                reference_bag_equal(other, table, rel_tol)
            outcomes.add((rel_tol, want))
    assert outcomes == {(0.0, True), (0.0, False), (1e-9, True), (1e-9, False)}


def test_bag_equal_length_and_tolerance_edges():
    a = CanonicalTable([("v", REAL)], [(1.0,), (2.0,)])
    longer = CanonicalTable([("v", REAL)], [(1.0,), (2.0,), (2.0,)])
    near = CanonicalTable([("v", REAL)], [(1.0 + 0.5e-9,), (2.0,)])
    far = CanonicalTable([("v", REAL)], [(1.0 + 2e-9,), (2.0,)])
    rows = a.sorted_rows()
    for a_sorted in (None, rows):
        assert not bag_equal(a, longer, 1e-9, a_sorted=a_sorted)
        assert not bag_equal(longer, a, 1e-9)
        assert bag_equal(a, near, 1e-9, a_sorted=a_sorted)
        assert not bag_equal(a, near, a_sorted=a_sorted)
        assert not bag_equal(a, far, 1e-9, a_sorted=a_sorted)


# --- every boundary checks every value -------------------------------------

BAD_VALUES = [("int", True), ("real", float("nan")), ("real", math.inf),
              ("text", 5)]


@pytest.mark.parametrize("tag,value", BAD_VALUES)
def test_a_user_built_table_for_catalog_load_rejects_bad_values(tag, value):
    catalog = default_catalog()
    with pytest.raises(SchemaError):
        catalog.load("rel", "t", CanonicalTable([("a", tag)], [(value,)]))
    assert catalog.directory() == {}


@pytest.mark.parametrize("text", [
    "#schema:a:int\ntrue\n", "#schema:a:real\nnan\n",
    "#schema:a:real\ninf\n", "#schema:a:text\n5\n",
])
def test_cif_parse_rejects_bad_values(text):
    with pytest.raises(CIFError):
        parse_cif(text)


@pytest.mark.parametrize("method,value", [
    ("randint", True), ("gauss", float("nan")), ("choice", 5)])
def test_datagen_rejects_bad_values(monkeypatch, method, value):
    base = getattr(random.Random, method)
    calls = itertools.count()

    def bad_once(self, *args, **kwargs):  # the third call returns value
        return value if next(calls) == 2 else base(self, *args, **kwargs)

    monkeypatch.setattr(datagen.random.Random, method, bad_once)
    with pytest.raises(SchemaError):
        datagen.generate(1, seed=3)
