import json
import random
import re
import sys
import threading
import time
from collections import Counter

import pytest

import generators
import oracle
import select_reference
from polydawg import datagen, sql
from polydawg.canonical import CanonicalTable, load_cif, save_cif
from polydawg.engines import base, default_catalog
from polydawg.errors import (
    CatalogError, NativeSyntaxError, SchemaError, TypeMismatchError,
)


@pytest.fixture
def catalog():
    return default_catalog()


PATIENTS = CanonicalTable(
    [("id", "text"), ("age", "int"), ("sex", "text")],
    [("p1", 70, "f"), ("p2", 50, "m"), ("p3", 81, "f"), ("p4", None, "m")],
)


# --- relational ---------------------------------------------------------------

def test_relational_select_where_order(catalog):
    catalog.load("rel", "patients", PATIENTS, {"key": ["id"]})
    out = catalog.execute_native(
        "rel", "SELECT id FROM patients WHERE age > 60 ORDER BY id")
    assert out.rows == [("p1",), ("p3",)]


def test_relational_group_by_and_aggregates(catalog):
    catalog.load("rel", "patients", PATIENTS, {"key": ["id"]})
    out = catalog.execute_native(
        "rel",
        "SELECT sex, COUNT(*), AVG(age) FROM patients GROUP BY sex "
        "ORDER BY sex")
    assert out.rows == [("f", 2, 75.5), ("m", 2, 50.0)]


def test_relational_join(catalog):
    catalog.load("rel", "patients", PATIENTS, {"key": ["id"]})
    meds = CanonicalTable(
        [("pid", "text"), ("drug", "text")],
        [("p1", "aspirin"), ("p1", "heparin"), ("p3", "aspirin")],
    )
    catalog.load("rel", "meds", meds, {})
    out = catalog.execute_native(
        "rel",
        "SELECT p.id, m.drug FROM patients p JOIN meds m ON p.id = m.pid "
        "WHERE m.drug = 'aspirin' ORDER BY id")
    assert out.rows == [("p1", "aspirin"), ("p3", "aspirin")]


def test_relational_key_violations(catalog):
    dup = CanonicalTable([("id", "text")], [("a",), ("a",)])
    with pytest.raises(SchemaError):
        catalog.load("rel", "t", dup, {"key": ["id"]})
    withnull = CanonicalTable([("id", "text")], [(None,)])
    with pytest.raises(SchemaError):
        catalog.load("rel", "t", withnull, {"key": ["id"]})


def test_relational_matches_reference_evaluator_on_random_tables(catalog):
    rng = random.Random(9)
    for i in range(50):
        table, key = generators.random_relation(rng)
        catalog.load("rel", f"t{i}", table, {"key": list(key)})
        query = f"SELECT * FROM t{i} WHERE k > 'k05000' ORDER BY k LIMIT 10"
        got = catalog.execute_native("rel", query)
        stmt = sql.parse_select_text(query)
        _, want = oracle.eval_select(
            stmt, {f"t{i}": (table.schema, table.rows)})
        assert got.rows == [tuple(r) for r in want]


def test_relational_type_errors(catalog):
    catalog.load("rel", "patients", PATIENTS, {"key": ["id"]})
    with pytest.raises(TypeMismatchError):
        catalog.execute_native("rel",
                               "SELECT id FROM patients WHERE age > 'x'")
    with pytest.raises(NativeSyntaxError):
        catalog.execute_native("rel", "SELEKT 1")


def _literal(rng, tag):
    value = generators.random_value(rng, tag)
    if tag == "text":
        return sql.quote_sq(value)
    return f"{value:.4f}" if tag == "real" else str(value)


def _with_join_keys(rng, table, pool, tag):
    """``table`` plus join columns j and j2 drawn from ``pool`` (NULL
    included), so keys repeat and meet NULLs."""
    return CanonicalTable(
        table.schema + [("j", tag), ("j2", tag)],
        [r + (rng.choice(pool), rng.choice(pool)) for r in table.rows])


def _random_pred(rng, binding, schema, depth=0):
    if depth < 2 and rng.random() < 0.5:
        kind = rng.choice(["AND", "OR", "NOT"])
        left = _random_pred(rng, binding, schema, depth + 1)
        if kind == "NOT":
            return f"NOT ({left})"
        right = _random_pred(rng, binding, schema, depth + 1)
        return f"({left}) {kind} ({right})"
    op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
    if rng.random() < 0.2:
        return f"{binding}.j {op} {binding}.j2"
    name, tag = rng.choice(schema)
    col = f"{binding}.{name}"
    if tag != "text" and rng.random() < 0.3:
        col += " * 2"
    return f"{col} {op} {_literal(rng, tag)}"


def _relational_queries(rng, schema):
    """SELECTs over the random relations ``l`` and ``r``, with whether
    their row order is fixed by ORDER BY or LIMIT."""
    lpred = _random_pred(rng, "l", schema)
    rpred = _random_pred(rng, "r", schema)
    numeric = [n for n, t in schema if t != "text"]
    num = rng.choice(numeric) if numeric else None
    sums = f", SUM(l.{num}) AS s, AVG(l.{num}) AS av" if num else ""
    limit = rng.randint(0, 8)
    return [
        ("SELECT * FROM l JOIN r ON l.j = r.j", False),
        ("SELECT * FROM l JOIN r ON r.j = l.j2", False),
        ("SELECT * FROM l JOIN r ON l.j = l.j2", False),
        ("SELECT * FROM l JOIN r ON r.j2 = r.j", False),
        (f"SELECT * FROM l WHERE {lpred}", False),
        (f"SELECT l.k, r.k FROM l JOIN r ON l.j = r.j "
         f"WHERE ({lpred}) OR ({rpred})", False),
        ("SELECT l.j AS g, COUNT(*) AS n, COUNT(l.a0) AS c, "
         f"MIN(l.a0) AS lo, MAX(l.a0) AS hi{sums} FROM l GROUP BY l.j",
         False),
        ("SELECT l.j AS g, r.j2 AS h, COUNT(*) AS n, MAX(r.k) AS m FROM l "
         "JOIN r ON l.j = r.j GROUP BY l.j, r.j2 ORDER BY g", True),
        (f"SELECT COUNT(*) AS n, MIN(l.k) AS m FROM l WHERE {lpred}", False),
        (f"SELECT k, a0 FROM l WHERE {lpred} ORDER BY a0 LIMIT {limit}",
         True),
        (f"SELECT * FROM r LIMIT {limit}", True),
    ]


def test_relational_matches_oracle_on_joins_predicates_and_groups(catalog):
    rng = random.Random(33)
    for i in range(60):
        # both tables share one schema, so every predicate is well typed
        base, _ = generators.random_relation(rng, max_rows=12)
        tag = rng.choice(["int", "real", "text"])
        pool = [generators.random_value(rng, tag) for _ in range(3)] + [None]
        other = CanonicalTable(base.schema, [
            tuple(generators.random_value(rng, t)
                  if rng.random() < 0.9 else None for _, t in base.schema)
            for _ in range(rng.randint(0, 12))])
        tables = {"l": _with_join_keys(rng, base, pool, tag),
                  "r": _with_join_keys(rng, other, pool, tag)}
        for name, table in tables.items():
            catalog.load("rel", name, table, {})
        snapshot = {n: (t.schema, t.rows) for n, t in tables.items()}
        for query, ordered in _relational_queries(rng, tables["l"].schema):
            got = catalog.execute_native("rel", query)
            _, want = oracle.eval_select(sql.parse_select_text(query),
                                         snapshot)
            want = [tuple(r) for r in want]
            if ordered:
                assert got.rows == want, query
            else:
                assert Counter(got.rows) == Counter(want), query
        for name in tables:
            catalog.drop(name)


def test_relational_join_never_matches_null_keys(catalog):
    catalog.load("rel", "l", CanonicalTable(
        [("k", "text"), ("a", "int")], [("a", 1), (None, 2)]), {})
    catalog.load("rel", "r", CanonicalTable(
        [("k", "text"), ("b", "int")], [("a", 10), (None, 20)]), {})
    query = "SELECT l.a, r.b FROM l JOIN r ON l.k = r.k"
    _, want = oracle.eval_select(sql.parse_select_text(query), {
        n: (catalog.export("rel", n).schema, catalog.export("rel", n).rows)
        for n in ("l", "r")})
    assert catalog.execute_native("rel", query).rows == want == [(1, 10)]


def test_relational_join_tag_clash_raises_before_any_row(catalog):
    for name, tag, rows in [("i", "int", [(1,), (None,)]),
                            ("t", "text", [("1",), (None,)]),
                            ("n", "text", [(None,)]),
                            ("e", "text", []),
                            ("r", "real", [(1.0,), (2.5,), (None,)])]:
        catalog.load("rel", name, CanonicalTable([("j", tag)], rows), {})
    # text against a number raises as the statement compiles, even when a
    # side is empty or its keys are all NULL
    for other in ("t", "n", "e"):
        for query in (f"SELECT * FROM i JOIN {other} ON i.j = {other}.j",
                      f"SELECT * FROM {other} JOIN i ON i.j = {other}.j"):
            with pytest.raises(TypeMismatchError,
                               match="cross-tag comparison"):
                catalog.execute_native("rel", query)
    # int and real keys match as numbers, and NULL keys never match
    for query in ("SELECT * FROM i JOIN r ON i.j = r.j",
                  "SELECT * FROM i JOIN r ON r.j = i.j"):
        assert catalog.execute_native("rel", query).rows == [(1, 1.0)]


def test_relational_row_errors_wait_for_a_row(catalog):
    catalog.load("rel", "patients", PATIENTS, {"key": ["id"]})
    catalog.load("rel", "nobody", CanonicalTable(PATIENTS.schema, []), {})
    # division by zero depends on the values, so it waits for a row
    assert catalog.execute_native(
        "rel", "SELECT id FROM nobody WHERE age / 0 > 1").rows == []
    with pytest.raises(TypeMismatchError, match="division by zero"):
        catalog.execute_native(
            "rel", "SELECT id FROM patients WHERE age / 0 > 1")
    # type errors do not: they raise as the statement compiles
    for where, error, message in [
        ("age > 'x'", TypeMismatchError, "cross-tag comparison: int vs text"),
        ("id + 1 > 1", TypeMismatchError, "arithmetic over text: id + 1"),
        ("COUNT(*) > 1", SchemaError,
         "aggregate used outside a grouping context"),
    ]:
        for table in ("nobody", "patients"):
            with pytest.raises(error, match=re.escape(message)):
                catalog.execute_native(
                    "rel", f"SELECT id FROM {table} WHERE {where}")


def test_relational_statement_errors_fire_before_any_row(catalog):
    catalog.load("rel", "nobody", CanonicalTable(PATIENTS.schema, []), {})
    for query, error in [
        ("SELECT id FROM nobody WHERE bogus > 1", CatalogError),
        ("SELECT id FROM nobody ORDER BY age", CatalogError),
        ("SELECT p.id FROM nobody p JOIN nobody q ON p.id = q.id "
         "WHERE age > 1", SchemaError),
        ("SELECT p.id FROM nobody p JOIN nobody q ON p.id = bogus",
         CatalogError),
    ]:
        with pytest.raises(error):
            catalog.execute_native("rel", query)



def test_relational_rejects_duplicate_table_bindings(catalog):
    catalog.load("rel", "a", CanonicalTable([("k", "int")], [(1,)]), {})
    catalog.load("rel", "b", CanonicalTable([("m", "int")], [(1,)]), {})
    for query, binding in [
        ("SELECT * FROM a x JOIN b x ON x.k = x.m", "x"),
        ("SELECT * FROM b JOIN b ON m = m", "b"),
    ]:
        with pytest.raises(SchemaError,
                           match=f"duplicate table binding '{binding}'"):
            catalog.execute_native("rel", query)


# --- key-value ------------------------------------------------------------------

NOTES = CanonicalTable(
    [("row", "text"), ("col", "text"), ("val", "text")],
    [("p1", "n0", "stable fever"), ("p1", "n1", "improving"),
     ("p2", "n0", "sedated")],
)


def test_kv_scan_ranges(catalog):
    catalog.load("kv", "notes", NOTES, {})
    out = catalog.execute_native("kv", 'SCAN notes ROWS "p1":"p1"')
    assert out.rows == [("p1", "n0", "stable fever"), ("p1", "n1", "improving")]
    out = catalog.execute_native("kv", 'SCAN notes ROWS "p1":"p1" COLS "n1":"n1"')
    assert out.rows == [("p1", "n1", "improving")]


def test_kv_grep(catalog):
    catalog.load("kv", "notes", NOTES, {})
    out = catalog.execute_native("kv", 'GREP notes "fever"')
    assert out.rows == [("p1", "n0", "stable fever")]


def test_kv_matmul_and_ewise_against_dense_oracle(catalog):
    rng = random.Random(21)
    a = generators.random_assoc_entries(rng, max_dim=8, val_tag="int")
    b = generators.random_assoc_entries(rng, max_dim=8, val_tag="int")
    catalog.load("kv", "A", generators.entries_table(a, "int"), {})
    catalog.load("kv", "B", generators.entries_table(b, "int"), {})
    got = catalog.execute_native("kv", "MATMUL A B SEMIRING plus.times")
    want = sorted((r, c, v) for (r, c), v in oracle.dense_matmul(a, b).items())
    assert sorted(got.rows) == want
    got = catalog.execute_native("kv", "EWISE A B plus")
    want = sorted((r, c, v) for (r, c), v in oracle.ewise(a, b, "plus").items())
    assert sorted(got.rows) == want


def test_kv_rejects_non_triple_schema(catalog):
    bad = CanonicalTable([("a", "text"), ("b", "text")], [("x", "y")])
    with pytest.raises(SchemaError):
        catalog.load("kv", "bad", bad, {})


def test_kv_matmul_rejects_text_values(catalog):
    catalog.load("kv", "notes", NOTES, {})
    with pytest.raises(TypeMismatchError):
        catalog.execute_native("kv", "MATMUL notes notes")


# --- array -----------------------------------------------------------------------

WAVE = CanonicalTable(
    [("p", "int"), ("t", "int"), ("v", "real")],
    [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)],
)


def test_array_subarray_and_filter(catalog):
    catalog.load("arr", "w", WAVE, {"dims": [("p", 2), ("t", 2)]})
    out = catalog.execute_native("arr", "SUBARRAY w p=0:0")
    assert out.rows == [(0, 0, 1.0), (0, 1, 2.0)]
    out = catalog.execute_native("arr", "FILTER w v >= 3.0")
    assert out.rows == [(1, 0, 3.0), (1, 1, 4.0)]


def test_array_agg(catalog):
    catalog.load("arr", "w", WAVE, {"dims": [("p", 2), ("t", 2)]})
    out = catalog.execute_native("arr", "AGG sum(v) w BY (p)")
    assert out.rows == [(0, 3.0), (1, 7.0)]


def test_array_bounds_checked_on_load(catalog):
    with pytest.raises(SchemaError):
        catalog.load("arr", "w", WAVE, {"dims": [("p", 1), ("t", 2)]})
    dup = CanonicalTable([("p", "int"), ("v", "real")], [(0, 1.0), (0, 2.0)])
    with pytest.raises(SchemaError):
        catalog.load("arr", "d", dup, {"dims": [("p", 1)]})



def load_assoc(catalog, engine, name, entries, val_tag):
    """Load {(row, col): value} on kv as triples, or on arr as rank
    coordinates plus key maps."""
    if engine == "kv":
        catalog.load("kv", name, generators.entries_table(entries, val_tag), {})
        return
    rmap = sorted({r for r, _ in entries})
    cmap = sorted({c for _, c in entries})
    rows = sorted((rmap.index(r), cmap.index(c), v)
                  for (r, c), v in entries.items())
    catalog.load(
        "arr", name,
        CanonicalTable([("r", "int"), ("c", "int"), ("v", val_tag)], rows),
        {"dims": [("r", len(rmap)), ("c", len(cmap))],
         "dim_maps": [rmap, cmap]})


@pytest.mark.parametrize("engine", ["kv", "arr"])
def test_assoc_ops_agree_on_kv_and_arr(catalog, engine):
    rng = random.Random(23)
    a = generators.random_assoc_entries(rng, max_dim=8, val_tag="int")
    b = generators.random_assoc_entries(rng, max_dim=8, val_tag="int")
    load_assoc(catalog, engine, "A", a, "int")
    load_assoc(catalog, engine, "B", b, "int")
    load_assoc(catalog, engine, "T", {("p1", "n0"): "fever"}, "text")
    for query, want in [
        ("MATMUL A B", oracle.matmul(a, b)),
        ("MATMUL A B SEMIRING plus.times", oracle.matmul(a, b)),
        ("EWISE A B plus", oracle.ewise(a, b, "plus")),
        ("EWISE A B min", oracle.ewise(a, b, "min")),
        ("EWISE A B max", oracle.ewise(a, b, "max")),
    ]:
        got = catalog.execute_native(engine, query)
        assert got.schema == [("row", "text"), ("col", "text"), ("val", "int")]
        assert got.rows == oracle.entries_to_triples(want), query
    # errors come in the order: parse, numeric operand, semiring/op name
    for query, error in [
        ("MATMUL A B SEMIRING bogus.times", SchemaError),
        ("EWISE A B times", SchemaError),
        ("MATMUL A T", TypeMismatchError),
        ("EWISE T B plus", TypeMismatchError),
        ("MATMUL T B SEMIRING bogus.times", TypeMismatchError),
        ("MATMUL T B trailing", NativeSyntaxError),
    ]:
        with pytest.raises(error):
            catalog.execute_native(engine, query)


@pytest.mark.parametrize("engine", ["kv", "arr"])
def test_matmul_on_kv_and_arr_gives_the_reference_loops_rows(catalog, engine):
    # the reference combines terms in the order of the operand's entries,
    # which both engines hold in key order; int meets real as a real
    rng = random.Random(2702)
    keys = [f"k{i}" for i in range(6)]

    def entries(rows, cols, tag):
        out = {(r, c): (rng.randint(-9, 9) if tag == "int"
                        else rng.choice([-0.0, round(rng.uniform(-9, 9), 3)]))
               for r in rows for c in cols if rng.random() < 0.8}
        return out or {(rows[0], cols[0]): 0 if tag == "int" else -0.0}

    for case in range(12):
        atag, btag = rng.choice(["int", "real"]), rng.choice(["int", "real"])
        tag = atag if atag == btag else "real"
        a = entries(rng.sample(keys, 4), rng.sample(keys, 4), atag)
        b = entries(rng.sample(keys, 4), rng.sample(keys, 5), btag)
        load_assoc(catalog, engine, f"A{case}", a, atag)
        load_assoc(catalog, engine, f"B{case}", b, btag)
        for semiring in sorted(select_reference.SEMIRINGS):
            want = select_reference.assoc_matmul(
                dict(sorted(a.items())), dict(sorted(b.items())), semiring)
            got = catalog.execute_native(
                engine, f"MATMUL A{case} B{case} SEMIRING {semiring}")
            assert got.schema == [("row", "text"), ("col", "text"),
                                  ("val", tag)]
            assert [(r, c, repr(v)) for r, c, v in got.rows] == [
                (r, c, repr(v if tag == atag == btag else float(v)))
                for (r, c), v in sorted(want.items())], (case, semiring)
    load_assoc(catalog, engine, "Big", {("a", "b"): 1e308}, "real")
    load_assoc(catalog, engine, "Ten", {("b", "a"): 10}, "int")
    with pytest.raises(SchemaError,
                       match="^non-finite real values are rejected$"):
        catalog.execute_native(engine, "MATMUL Big Ten")


def test_an_arr_assoc_operand_has_no_entry_for_a_null_cell(catalog):
    # an associative array holds no null, so a null cell is no entry, as
    # in every cast into the associative model
    table = CanonicalTable([("r", "int"), ("c", "int"), ("v", "real")],
                           [(0, 0, 1.5), (0, 1, None)])
    catalog.load("arr", "N", table, {"dims": [("r", 1), ("c", 2)]})
    for query, val in (("MATMUL N N", 2.25), ("EWISE N N plus", 3.0)):
        assert catalog.execute_native("arr", query).rows == [("0", "0", val)]


# --- catalog --------------------------------------------------------------------

def test_catalog_object_names_are_engine_unique(catalog):
    catalog.load("rel", "patients", PATIENTS, {"key": ["id"]})
    with pytest.raises(CatalogError):
        catalog.load("kv", "patients", NOTES, {})
    assert catalog.owner("patients") == "rel"
    assert catalog.owner("nothere") is None


def test_catalog_object_names_are_identifiers(catalog):
    # a snapshot names each object's file after it
    for name in ("../x", "a/b", "a b", "", "9a"):
        with pytest.raises(CatalogError, match="not an identifier"):
            catalog.load("rel", name, PATIENTS, {})
    assert catalog.directory() == {}


def test_catalog_temporaries_dropped(catalog):
    catalog.load("kv", "tmp1", NOTES, {}, temporary=True)
    assert catalog.owner("tmp1") == "kv"
    catalog.drop_temporaries()
    assert catalog.owner("tmp1") is None


def test_catalog_snapshot_restore_round_trip(catalog, tmp_path):
    catalog.load("rel", "patients", PATIENTS, {"key": ["id"]})
    catalog.load("kv", "notes", NOTES, {})
    catalog.load("arr", "w", WAVE, {"dims": [("p", 2), ("t", 2)]})
    catalog.snapshot(str(tmp_path))

    other = default_catalog()
    other.restore(str(tmp_path))
    for name in ("patients", "notes", "w"):
        assert other.owner(name) == catalog.owner(name)
        a = catalog.export(catalog.owner(name), name)
        b = other.export(other.owner(name), name)
        assert a.schema == b.schema and a.rows == b.rows
    # restored arrays keep their dimensions
    out = other.execute_native("arr", "SUBARRAY w p=1:1")
    assert out.rows == [(1, 0, 3.0), (1, 1, 4.0)]


def test_directory_maps_each_name_to_its_engine_temporaries_included(catalog):
    catalog.load("rel", "patients", PATIENTS, {"key": ["id"]})
    catalog.load("kv", "__mig_c0_kv", NOTES, {}, temporary=True)
    assert catalog.directory() == {"patients": "rel", "__mig_c0_kv": "kv"}
    catalog.drop_temporaries()
    assert catalog.directory() == {"patients": "rel"}
    catalog.drop("patients")
    assert catalog.directory() == {}
    with pytest.raises(CatalogError):
        catalog.drop("patients")


def test_snapshot_of_the_standard_catalog_restores_every_object(tmp_path):
    catalog, _ = generators.standard_catalog()
    catalog.load("kv", "tmp", NOTES, {}, temporary=True)
    catalog.snapshot(str(tmp_path))
    other = default_catalog()
    other.restore(str(tmp_path))
    catalog.drop_temporaries()
    assert other.directory() == catalog.directory()
    for name, eid in catalog.directory().items():
        assert other.export(eid, name) == catalog.export(eid, name)
        assert (other.engine(eid).load_options_for(name)
                == catalog.engine(eid).load_options_for(name))


def test_snapshot_of_a_loaded_dataset_is_that_dataset(tmp_path):
    datagen.write_dataset(1, str(tmp_path / "ds"), seed=3)
    catalog = default_catalog()
    loaded = catalog.load_manifest(str(tmp_path / "ds" / "manifest.json"))
    assert [(name, eid) for name, eid, _ in loaded] == [
        ("meds", "rel"), ("notes", "kv"), ("patients", "rel"),
        ("waveform", "arr")]
    catalog.snapshot(str(tmp_path / "snap"))
    names = sorted(p.name for p in (tmp_path / "ds").iterdir())
    assert sorted(p.name for p in (tmp_path / "snap").iterdir()) == names
    for name in names:
        assert (tmp_path / "snap" / name).read_bytes() == \
            (tmp_path / "ds" / name).read_bytes()


@pytest.mark.parametrize("manifest", [
    '[{"engine": "rel", "object": "t", "file": "rel__t.cif", "options": {}}]',
    '{"t": {"file": "t.cif"}}',
    '{"t": {"engine": "rel"}}',
    '{"t": {"engine": "rel", "file": "t.cif", "options": []}}',
    '{"t": ',
])
def test_a_bad_manifest_is_a_catalog_error_naming_it(catalog, tmp_path,
                                                     manifest):
    save_cif(PATIENTS, str(tmp_path / "t.cif"))
    path = tmp_path / "manifest.json"
    path.write_text(manifest)
    with pytest.raises(CatalogError, match=re.escape(str(path))):
        catalog.restore(str(tmp_path))
    assert catalog.directory() == {}


def test_a_bad_manifest_entry_option_is_a_catalog_error_naming_it(
        catalog, tmp_path):
    save_cif(WAVE, str(tmp_path / "w.cif"))
    path = tmp_path / "manifest.json"
    for options in ('{"dims": [["p"]]}', '{"dims": [["p", 0]]}',
                    '{"dims": "p"}', '{"key": "id"}', '{"key": [1]}',
                    '{"dims": [["p", 2], ["t", 2]], "dim_maps": [3, null]}'):
        path.write_text(f'{{"w": {{"engine": "arr", "file": "w.cif", '
                        f'"options": {options}}}}}')
        with pytest.raises(CatalogError, match=re.escape(f"{path}: entry 'w'")):
            catalog.restore(str(tmp_path))
        with pytest.raises(CatalogError, match=re.escape(f"{path}: entry 'w'")):
            catalog.load_manifest(str(path))
        assert catalog.directory() == {}


# --- lazy restore and atomic snapshots -----------------------------------------

def _snapshot_dir(tmp_path):
    catalog = default_catalog()
    catalog.load("rel", "patients", PATIENTS, {"key": ["id"]})
    catalog.load("kv", "notes", NOTES, {})
    catalog.load("arr", "w", WAVE, {"dims": [("p", 2), ("t", 2)]})
    catalog.snapshot(str(tmp_path))


def test_restore_parses_an_object_only_when_it_is_first_read(
        tmp_path, monkeypatch):
    _snapshot_dir(tmp_path)
    parsed = []
    monkeypatch.setattr(base, "load_cif",
                        lambda path: parsed.append(path) or load_cif(path))
    other = default_catalog()
    other.restore(str(tmp_path))
    assert other.directory() == {"patients": "rel", "notes": "kv", "w": "arr"}
    assert parsed == []
    assert other.engine("rel").schema_of("patients") == PATIENTS.schema
    assert other.export("rel", "patients") == PATIENTS
    assert parsed == [str(tmp_path / "patients.cif")]
    other.drop("notes")  # dropping a pending object does not parse it
    assert parsed == [str(tmp_path / "patients.cif")]
    assert other.engine("kv").object_names() == []


def test_threads_reading_one_pending_object_parse_it_once(
        tmp_path, monkeypatch):
    _snapshot_dir(tmp_path)
    other = default_catalog()
    other.restore(str(tmp_path))
    parsed, start = [], threading.Barrier(8, timeout=10)

    def slow_load(path):
        parsed.append(path)
        time.sleep(0.05)  # every other thread reaches the object meanwhile
        return load_cif(path)

    monkeypatch.setattr(base, "load_cif", slow_load)
    schemas = [None] * 8

    def read(i):
        start.wait()
        schemas[i] = other.engine("arr").schema_of("w")

    threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert parsed == [str(tmp_path / "w.cif")]
    assert schemas == [WAVE.schema] * 8


def test_a_bad_object_file_fails_on_first_read_naming_it(tmp_path):
    _snapshot_dir(tmp_path)
    (tmp_path / "w.cif").write_text("#schema:p:int,t:int,v:real\n0,0\n")
    (tmp_path / "notes.cif").unlink()
    other = default_catalog()
    other.restore(str(tmp_path))
    for eid, name in (("arr", "w"), ("kv", "notes")):
        path = str(tmp_path / f"{name}.cif")
        with pytest.raises(CatalogError, match=re.escape(path)):
            other.engine(eid).schema_of(name)
    assert other.export("rel", "patients") == PATIENTS


def test_snapshot_writes_only_objects_without_a_file_there(tmp_path):
    _snapshot_dir(tmp_path)
    other = default_catalog()
    other.restore(str(tmp_path))
    before = {p.name: p.stat() for p in tmp_path.iterdir()}
    other.load("rel", "extra", PATIENTS, {"key": ["id"]})
    other.snapshot(str(tmp_path))
    after = {p.name: p.stat() for p in tmp_path.iterdir()}
    # the manifest stays; the snapshot appends one line to its journal
    assert sorted(after) == sorted([*before, "extra.cif", base.JOURNAL])
    changed = {name for name in after if name not in before
               or (after[name].st_ino, after[name].st_mtime_ns)
               != (before[name].st_ino, before[name].st_mtime_ns)}
    assert changed == {"extra.cif", base.JOURNAL}
    assert other.engine("rel").object_names() == ["extra", "patients"]
    assert other.engine("arr")._pending  # nothing else was parsed

    # a dropped and reloaded name gets its new file
    other.drop("w")
    other.load("arr", "w", WAVE, {"dims": [("p", 2), ("t", 3)]})
    other.snapshot(str(tmp_path))
    again = default_catalog()
    again.restore(str(tmp_path))
    assert again.engine("arr").array("w").dims == [("p", 2), ("t", 3)]
    assert again.export("rel", "extra") == PATIENTS


def test_stray_temporary_files_are_ignored(tmp_path):
    _snapshot_dir(tmp_path)
    (tmp_path / "x.cif.tmp").write_text("#schema:a:int\n1\n")
    (tmp_path / "manifest.json.tmp").write_text('{"torn": ')
    other = default_catalog()
    other.restore(str(tmp_path))
    assert other.directory() == {"patients": "rel", "notes": "kv", "w": "arr"}
    other.load("rel", "x", PATIENTS, {})
    other.snapshot(str(tmp_path))
    again = default_catalog()
    again.restore(str(tmp_path))
    assert again.export("rel", "x") == PATIENTS
    assert not (tmp_path / "manifest.json.tmp").exists()


def test_a_snapshot_refusing_an_object_keeps_the_previous_one(tmp_path):
    # text with a line break cannot be written as CIF; nothing is written
    _snapshot_dir(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    other = default_catalog()
    other.restore(str(tmp_path))
    other.load("rel", "bad", CanonicalTable(
        [("id", "text"), ("note", "text")], [("p1", "two\nlines")]), {})
    with pytest.raises(SchemaError, match="'note'"):
        other.snapshot(str(tmp_path))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    again = default_catalog()
    again.restore(str(tmp_path))
    assert again.directory() == {"patients": "rel", "notes": "kv", "w": "arr"}
    assert again.export("rel", "patients") == PATIENTS


def test_the_manifest_is_written_compactly(tmp_path):
    # every snapshot rewrites the whole manifest, so its bytes count
    _snapshot_dir(tmp_path)
    text = (tmp_path / base.MANIFEST).read_text(encoding="ascii")
    assert text == json.dumps(json.loads(text), separators=(",", ":"),
                              sort_keys=True) + "\n"
