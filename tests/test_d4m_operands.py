"""Every d4m operand either fails validation, with the span of the operand,
or every plan of its query runs and agrees.

Validation takes a d4m leaf's value tag from the cast a migration of it
runs, so what it accepts is what every plan can run. The operands are
generated: arrays with 1-3 dimensions and 0-2 attributes of each tag,
with full, partial or no key maps and with or without null cells, and
relations with and without the (r, c, v) names and text key columns. A
relation reaches every d4m op through the one cast into the associative
model, so a triple relation with a null ``v`` or, without a key, with a
duplicate ``(r, c)`` gives one answer or one error on every plan.
"""

import itertools
import random

import pytest

import oracle
from polydawg.canonical import CanonicalTable, bag_equal
from polydawg.engines import default_catalog
from polydawg.errors import CastError, PolydawgError, ValidationError
from polydawg.executor import System, VirtualClock
from polydawg.island import register_defaults
from polydawg.monitor import MonitorDB

TAGS = ("int", "real", "text")
NUMERIC = ("int", "real")
DIM_LENGTH = 3

# (the op that takes the operand x, query text)
QUERIES = [
    ("transpose", "d4m(transpose({x}))"),
    ("select", "d4m(select({x}, rows='1':'z'))"),
    ("matmul", "d4m(matmul({x}, {x}))"),
    ("matmul", "d4m(matmul({x}, transpose({x})))"),
    ("ewise", "d4m(ewise({x}, transpose({x}), max))"),
]


def _value(rng, tag):
    if tag == "int":
        return rng.randint(-9, 9)
    if tag == "real":
        return round(rng.uniform(-9.0, 9.0), 2)
    return rng.choice(["lo", "mid", "hi"])


def _array(rng, ndims, attrs, maps, nulls):
    """(table, load options) of an array; ``maps`` is full, partial (only
    the first dimension mapped) or none."""
    schema = [(f"d{i}", "int") for i in range(ndims)]
    schema += [(f"a{i}", tag) for i, tag in enumerate(attrs)]
    rows = []
    for coords in itertools.product(range(DIM_LENGTH), repeat=ndims):
        if rng.random() < 0.7:
            rows.append(coords + tuple(_value(rng, t) for t in attrs))
    if nulls and attrs:
        rows = [(0,) * ndims + (None,) * len(attrs)] + [
            r for r in rows if r[:ndims] != (0,) * ndims]
    options = {"dims": [(f"d{i}", DIM_LENGTH) for i in range(ndims)]}
    keys = [[f"{chr(ord('a') + i)}{k}" for k in range(DIM_LENGTH)]
            for i in range(ndims)]
    if maps == "full":
        options["dim_maps"] = keys
    elif maps == "partial":
        options["dim_maps"] = keys[:1] + [None] * (ndims - 1)
    return CanonicalTable(schema, rows), options


def _relation(rng, names, key_tags, val_tag):
    schema = [(names[0], key_tags[0]), (names[1], key_tags[1]),
              (names[2], val_tag)]
    key = [(lambda i: f"k{i}") if t == "text" else (lambda i: i)
           for t in key_tags]
    rows = [(key[0](i), key[1](j), _value(rng, val_tag))
            for i in range(DIM_LENGTH) for j in range(DIM_LENGTH)
            if rng.random() < 0.7]
    return CanonicalTable(schema, rows), {"key": list(names[:2])}


def _operands():
    """(name, engine, table, options, acceptable, oracle_ok) per operand;
    ``acceptable(op)`` says whether the d4m ``op`` may take it."""
    rng = random.Random(12)
    attr_sets = [()] + [(t,) for t in TAGS] + list(
        itertools.product(TAGS, TAGS))
    out = []
    for n, (ndims, attrs, maps, nulls) in enumerate(itertools.product(
            (1, 2, 3), attr_sets, ("full", "partial", "none"),
            (False, True))):
        table, options = _array(rng, ndims, attrs, maps, nulls)
        ok = ndims == 2 and len(attrs) == 1 and attrs[0] in NUMERIC
        out.append((f"a{n}", "arr", table, options, lambda op, ok=ok: ok,
                    maps != "partial" and not nulls))
    for n, (names, key_tags, val_tag) in enumerate(itertools.product(
            (("r", "c", "v"), ("a", "b", "v")),
            itertools.product(("text", "int"), repeat=2), TAGS)):
        table, options = _relation(rng, names, key_tags, val_tag)
        triple = names == ("r", "c", "v") and key_tags == ("text", "text")

        def ok(op, triple=triple, val_tag=val_tag):
            return triple and (op in ("transpose", "select")
                               or val_tag in NUMERIC)
        out.append((f"t{n}", "rel", table, options, ok, True))
    return out


OPERANDS = _operands()


def _system(loads):
    catalog = default_catalog()
    for name, engine, table, options in loads:
        catalog.load(engine, name, table, options)
    return System(catalog, register_defaults(catalog), MonitorDB(),
                  clock=VirtualClock())


@pytest.fixture(scope="module")
def system():
    return _system([o[:4] for o in OPERANDS])


@pytest.mark.parametrize("op, query", QUERIES)
def test_a_d4m_operand_fails_validation_or_every_plan_agrees(
        system, op, query):
    accepted = 0
    for name, _, _, _, acceptable, oracle_ok in OPERANDS:
        text = query.format(x=name)
        if not acceptable(op):
            with pytest.raises(ValidationError) as caught:
                system.plan_query(text)
            assert text[slice(*caught.value.span)] == name, text
            continue
        # run_training runs every plan and raises unless they agree
        report = system.run_training(text)
        accepted += 1
        if oracle_ok:
            _, want = oracle.Oracle(system.catalog).query(text)
            assert oracle.rows_bag_equal(report.result.rows, want), text
    assert 0 < accepted < len(OPERANDS)


def test_a_partial_key_map_keys_its_unmapped_dimension_by_coordinate():
    table = CanonicalTable([("i", "int"), ("j", "int"), ("v", "real")],
                           [(0, 0, 1.0), (1, 1, 2.0)])
    system = _system([("half", "arr", table, {
        "dims": [("i", 2), ("j", 2)], "dim_maps": [["a", "b"], None]})])
    report = system.run_training("d4m(transpose(half))")
    assert sorted(report.result.rows) == [("0", "a", 1.0), ("1", "b", 2.0)]
    report = system.run_training("d4m(matmul(half, transpose(half)))")
    assert sorted(report.result.rows) == [("a", "a", 1.0), ("b", "b", 4.0)]


def test_a_triple_relation_with_a_null_v_agrees_on_every_plan():
    table = CanonicalTable([("r", "text"), ("c", "text"), ("v", "real")],
                           [("a", "a", 2.0), ("a", "b", 1.0),
                            ("b", "a", None)])
    system = _system([("tn", "rel", table, {"key": ["r", "c"]})])
    system.run_training("d4m(matmul(tn, transpose(tn)))")


def _odd_triples():
    """(name, table, load options) of triple relations on rel that the
    associative model cannot hold as they are: keyed ones with a null
    ``v``, and keyless ones with a duplicate ``(r, c)``."""
    rng = random.Random(24)
    out = []
    for n, (val_tag, keyed) in enumerate(itertools.product(
            NUMERIC, (True, False))):
        table, options = _relation(rng, ("r", "c", "v"), ("text", "text"),
                                   val_tag)
        rows = list(table.rows)
        i = rng.randrange(len(rows))
        if keyed:
            rows[i] = rows[i][:2] + (None,)
        else:
            rows.append(rows[i][:2] + (_value(rng, val_tag),))
            options = {}
        out.append((f"odd{n}", CanonicalTable(table.schema, rows), options))
    return out


def _outcome(system, pq, plan):
    try:
        result, _ = system.execute_plan(pq, plan)
    except PolydawgError as e:
        return type(e), str(e)
    return result


@pytest.mark.parametrize("op, query", QUERIES)
def test_an_odd_triple_relation_gives_one_answer_or_one_error_on_every_plan(
        op, query):
    odd = _odd_triples()
    system = _system([(name, "rel", table, options)
                      for name, table, options in odd])
    for name, _, options in odd:
        text = query.format(x=name)
        pq = system.plan_query(text)
        first, *rest = [_outcome(system, pq, plan) for plan in pq.plans]
        if isinstance(first, tuple):
            assert all(o == first for o in rest), text
            assert first[0] is CastError, text
            assert not options and first[1].startswith("duplicate entry"), \
                text
            continue
        assert options, text
        for other in rest:
            assert not isinstance(other, tuple), (text, other)
            assert bag_equal(first, other, rel_tol=1e-9), text
        # a null is no entry, on every plan
        assert None not in (v for _, _, v in first.rows), text

