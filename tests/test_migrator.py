import random

import pytest

import generators
from polydawg.canonical import CanonicalTable, bag_equal
from polydawg.engines import default_catalog
from polydawg.errors import CastError
from polydawg.migrator import (
    ARRAY, KEYVALUE, RELATIONAL, CastSpec, apply_cast, assoc_entries,
    chain_for, migrate,
)


def test_relation_to_assoc_and_back_pivot():
    table = CanonicalTable(
        [("id", "text"), ("age", "int"), ("visits", "int")],
        [("p1", 70, 3), ("p2", 50, 1)],
    )
    assoc, inverse = apply_cast(table, CastSpec(RELATIONAL, KEYVALUE, key=("id",)))
    assert assoc.schema == [("row", "text"), ("col", "text"), ("val", "int")]
    assert set(assoc.rows) == {
        ("p1", "age", 70), ("p1", "visits", 3),
        ("p2", "age", 50), ("p2", "visits", 1),
    }
    back, _ = apply_cast(assoc, inverse)
    assert bag_equal(back, table)
    assert back.schema == table.schema


def test_relation_to_assoc_composite_key_with_escaping():
    table = CanonicalTable(
        [("a", "text"), ("b", "text"), ("v", "int")],
        [("x|y", "z", 1), ("x", "y|z", 2)],
    )
    assoc, inverse = apply_cast(table, CastSpec(RELATIONAL, KEYVALUE, key=("a", "b")))
    back, _ = apply_cast(assoc, inverse)
    assert bag_equal(back, table)


@pytest.mark.parametrize("tag, keys", [
    ("int", [-7, 0, 3, 12]),
    ("real", [-2.5, 0.1, 1e-07, 3.0, 1e16]),
])
def test_relation_to_assoc_and_back_with_a_numeric_key(tag, keys):
    # a numeric key is written as text in the row key and read back as a
    # value of its tag, so the round trip keeps it exactly
    table = CanonicalTable(
        [("k", tag), ("x", "real"), ("y", "real")],
        [(k, float(i), None if i % 2 else -float(i))
         for i, k in enumerate(keys)],
    )
    assoc, inverse = apply_cast(table, CastSpec(RELATIONAL, KEYVALUE,
                                                key=("k",)))
    assert {r for r, _, _ in assoc.rows} == {
        repr(k) if tag == "real" else str(k) for k in keys}
    back, _ = apply_cast(assoc, inverse)
    assert back.schema == table.schema
    assert sorted(back.rows) == sorted(table.rows)
    assert [type(k) for k, _, _ in back.rows] == [type(keys[0])] * len(keys)


def test_relation_to_assoc_drops_nulls_lossy_edge():
    table = CanonicalTable(
        [("id", "text"), ("age", "int")], [("p1", None), ("p2", 4)]
    )
    assoc, inverse = apply_cast(table, CastSpec(RELATIONAL, KEYVALUE, key=("id",)))
    assert assoc.rows == [("p2", "age", 4)]
    back, _ = apply_cast(assoc, inverse)
    # p1's row had only null attributes, so it does not survive the round trip
    assert back.rows == [("p2", 4)]


def test_triple_relation_casts_by_reinterpretation():
    table = CanonicalTable(
        [("r", "text"), ("c", "text"), ("v", "real")],
        [("r1", "c1", 1.5), ("r1", "c2", 2.5)],
    )
    assoc, inverse = apply_cast(table, CastSpec(RELATIONAL, KEYVALUE, key=("r",)))
    # reinterpretation: column keys come from the data, not the schema
    assert set(assoc.rows) == {("r1", "c1", 1.5), ("r1", "c2", 2.5)}
    back, _ = apply_cast(assoc, inverse)
    assert bag_equal(back, table)


def test_assoc_array_round_trip_with_maps():
    rng = random.Random(11)
    entries = generators.random_assoc_entries(rng, max_dim=10)
    assoc = generators.entries_table(entries, "real")
    arr, inverse = apply_cast(assoc, CastSpec(KEYVALUE, ARRAY))
    assert inverse.dim_maps is not None
    back, _ = apply_cast(arr, inverse)
    assert bag_equal(back, assoc)


def test_array_to_assoc_without_maps_uses_coordinate_strings():
    arr = CanonicalTable(
        [("x", "int"), ("y", "int"), ("v", "real")], [(0, 2, 1.0)]
    )
    assoc, inverse = apply_cast(arr, CastSpec(ARRAY, KEYVALUE, dim_cols=("x", "y")))
    assert assoc.rows == [("0", "2", 1.0)]
    assert inverse is None


def test_assoc_entries_take_keys_from_maps_or_coordinates():
    cells = [((0, 0), 1.0), ((1, 2), 2.0), ((1, 0), None)]
    assert assoc_entries(cells) == {("0", "0"): 1.0, ("1", "2"): 2.0}
    assert assoc_entries(cells, [["a", "b"], None]) == {
        ("a", "0"): 1.0, ("b", "2"): 2.0}
    with pytest.raises(CastError, match=r"coordinate \(1, 2\) outside"):
        assoc_entries(cells, [["a", "b"], ["x", "y"]])


def test_array_to_assoc_with_a_partial_map_drops_nulls():
    arr = CanonicalTable([("x", "int"), ("y", "int"), ("v", "int")],
                         [(0, 1, 3), (1, 0, None)])
    spec, = chain_for(ARRAY, KEYVALUE, dim_cols=("x", "y"),
                      dim_maps=[["a", "b"], None])
    assoc, inverse = apply_cast(arr, spec)
    assert assoc.rows == [("a", "1", 3)]
    assert inverse is None


def test_an_unkeyed_relation_casts_only_when_triple_encoded():
    spec, = chain_for(RELATIONAL, KEYVALUE)
    assert spec.key is None
    triples = CanonicalTable([("r", "text"), ("c", "text"), ("v", "int")],
                             [("a", "b", 1), ("b", "a", None)])
    assoc, _ = apply_cast(triples, spec)
    assert assoc.rows == [("a", "b", 1)]
    for schema in ([("r", "text"), ("c", "text"), ("w", "int")],
                   [("r", "int"), ("c", "text"), ("v", "int")]):
        with pytest.raises(CastError, match="triple-encoded"):
            apply_cast(CanonicalTable(schema), spec)


def test_relation_array_round_trip():
    table = CanonicalTable(
        [("p", "int"), ("t", "int"), ("v", "real")],
        [(0, 0, 1.0), (1, 2, 3.0)],
    )
    arr, inverse = apply_cast(
        table, CastSpec(RELATIONAL, ARRAY, dim_cols=("p", "t")))
    back, _ = apply_cast(arr, inverse)
    assert bag_equal(back, table)
    assert back.schema == table.schema


def test_cast_errors():
    with pytest.raises(CastError):
        CastSpec("relational", "nope")
    with pytest.raises(CastError):
        CastSpec(KEYVALUE, ARRAY, dim_maps=[["b", "a"], ["c"]])
    table = CanonicalTable([("id", "text"), ("v", "int")], [("a", 1)])
    with pytest.raises(CastError):
        apply_cast(table, CastSpec(RELATIONAL, KEYVALUE))  # missing key
    with pytest.raises(CastError):
        apply_cast(table, CastSpec(RELATIONAL, KEYVALUE, key=("nope",)))
    dup = CanonicalTable(
        [("row", "text"), ("col", "text"), ("val", "int")],
        [("r", "c", 1), ("r", "c", 2)],
    )
    with pytest.raises(CastError):
        apply_cast(dup, CastSpec(KEYVALUE, ARRAY))
    mixed = CanonicalTable(
        [("id", "text"), ("a", "int"), ("b", "text")], [("x", 1, "y")]
    )
    with pytest.raises(CastError):
        apply_cast(mixed, CastSpec(RELATIONAL, KEYVALUE, key=("id",)))


def test_chain_for_routes_through_assoc():
    assert chain_for(RELATIONAL, RELATIONAL) == []
    direct = chain_for(RELATIONAL, KEYVALUE, key=("id",))
    assert [s.target_model for s in direct] == [KEYVALUE]
    assert direct[0].key == ("id",)
    direct = chain_for(ARRAY, RELATIONAL)
    assert [(s.source_model, s.target_model) for s in direct] == [
        (ARRAY, RELATIONAL)]
    # only relational->array lacks the metadata for its direct rule
    via = chain_for(RELATIONAL, ARRAY, key=("id",))
    assert [(s.source_model, s.target_model, s.key) for s in via] == [
        (RELATIONAL, KEYVALUE, ("id",)), (KEYVALUE, ARRAY, None)]
    table = CanonicalTable(
        [("r", "text"), ("c", "text"), ("v", "int")], [("a", "b", 1)]
    )
    out = table
    for spec in chain_for(RELATIONAL, KEYVALUE):
        out, _ = apply_cast(out, spec)
    assert out.rows == [("a", "b", 1)]


def test_migrate_creates_idempotent_temporaries():
    catalog = default_catalog()
    table = CanonicalTable(
        [("r", "text"), ("c", "text"), ("v", "int")], [("a", "b", 1)]
    )
    catalog.load("rel", "t", table, {"key": ["r", "c"]})
    specs = chain_for(RELATIONAL, KEYVALUE)
    name1 = migrate(catalog, "t", "kv", specs,
                    table=catalog.export("rel", "t"))
    name2 = migrate(catalog, "t", "kv", specs,
                    table=catalog.export("rel", "t"))
    assert name1 == name2
    assert name1.startswith("__mig_")
    assert catalog.owner(name1) == "kv"
    moved = catalog.export("kv", name1)
    assert moved.rows == [("a", "b", 1)]
    catalog.drop_temporaries()
    assert catalog.owner(name1) is None
    assert catalog.owner("t") == "rel"


def test_migrate_empty_table_to_array_engine():
    catalog = default_catalog()
    empty = CanonicalTable(
        [("row", "text"), ("col", "text"), ("val", "real")], []
    )
    catalog.load("kv", "e", empty, {})
    name = migrate(catalog, "e", "arr", chain_for(KEYVALUE, ARRAY),
                   table=catalog.export("kv", "e"))
    assert catalog.owner(name) == "arr"
    assert catalog.export("arr", name).rows == []
