"""The pipelined SELECT: a join probe that builds no joined row unless it
is output, one GROUP BY loop that keeps each aggregate's values per
group and defers its argument's errors, and ORDER BY ... LIMIT as a
top-k. Each case is compared with the closure compiler in
``select_reference``: the same rows in the same order with the same
float bits, or the same first error, class and message."""

import random

import pytest

import select_reference as ref
from polydawg import sql
from polydawg.engines import relational
from polydawg.errors import PolydawgError
from test_codegen import _Gen, _table

BIG = 1.5e308  # doubling it overflows to inf

T = [("g", "int"), ("a", "int"), ("b", "real")]
L = [("k", "text"), ("i", "int"), ("x", "real"), ("j", "int"), ("j2", "int")]
R = [("i", "int"), ("y", "real"), ("j", "int"), ("j2", "int")]
SCHEMAS = {"t": T, "l": L, "r": R}


def _outcome(compile_select, text, tables):
    """("ok", schema, repr of the rows) or (error class, message); the
    repr tells 1 from 1.0 and 0.0 from -0.0."""
    try:
        compiled = compile_select(sql.parse_select_text(text), SCHEMAS)
        return "ok", compiled.schema, repr(compiled.run(*tables).rows)
    except PolydawgError as e:
        return type(e), str(e)


def _same(text, *tables):
    want = _outcome(ref.compile_select, text, tables)
    assert _outcome(relational.compile_select, text, tables) == want, text
    return want


# --- the first error -----------------------------------------------------------

def test_an_earlier_groups_overflow_comes_before_a_later_division_by_zero():
    rows = [(1, 1, BIG), (1, 2, BIG), (2, 0, 1.0)]
    want = _same("SELECT g, SUM(b) AS s, SUM(b / a) AS d FROM t GROUP BY g",
                 rows)
    assert want[0] is relational.SchemaError
    # the other way round, the division comes first
    want = _same("SELECT g, SUM(b) AS s, SUM(b / a) AS d FROM t GROUP BY g",
                 rows[2:] + rows[:2])
    assert want == (relational.TypeMismatchError, "division by zero")


def test_within_a_group_the_first_item_raises_first():
    rows = [(1, 0, BIG), (1, 1, BIG)]
    for text, error in [
            ("SELECT g, SUM(b * 2.0) AS s, SUM(b / a) AS d FROM t GROUP BY g",
             relational.SchemaError),
            ("SELECT g, SUM(b / a) AS d, SUM(b * 2.0) AS s FROM t GROUP BY g",
             relational.TypeMismatchError),
            ("SELECT SUM(b * 2.0) AS s, MAX(g / a) AS d FROM t",
             relational.SchemaError)]:
        assert _same(text, rows)[0] is error


def test_the_first_error_of_a_group_stays_its_error():
    # row 2 overflows in the argument, row 1 divides by zero first
    rows = [(1, 0, 1.0), (1, 1, BIG), (2, 1, 1.0)]
    assert _same("SELECT g, SUM(b * b / a) AS s FROM t GROUP BY g",
                 rows)[0] is relational.TypeMismatchError


@pytest.mark.parametrize("text", [
    "SELECT g, COUNT(a / b) AS n FROM t GROUP BY g",
    "SELECT COUNT(a / b) AS n, COUNT(*) AS m FROM t",
    "SELECT g, COUNT(a / b) AS n FROM t WHERE a > 0 GROUP BY g",
])
def test_count_of_an_argument_that_may_raise(text):
    for rows in ([(1, 1, 2.0), (1, None, 0.0), (2, 3, None)],
                 [(1, 1, 2.0), (2, 1, 0.0)], []):
        _same(text, rows)


def test_where_errors_come_before_projection_errors():
    rows = [(1, 1, BIG), (2, 0, 1.0)]
    for text in ["SELECT b * 2.0 AS q FROM t WHERE 1 / a > 0",
                 "SELECT g, SUM(b * 2.0) AS s FROM t WHERE 1 / a > 0 GROUP BY g"]:
        assert _same(text, rows) == (relational.TypeMismatchError,
                                     "division by zero")
    left = [("a", 1, BIG, 1, 1), ("b", 0, 1.0, 1, 1)]
    right = [(1, 1.0, 1, 2)]
    want = _same("SELECT l.x * 2.0 AS q FROM l JOIN r ON l.j = r.j "
                 "WHERE r.y / l.i > 0", left, right)
    assert want == (relational.TypeMismatchError, "division by zero")


@pytest.mark.parametrize("text", [
    "SELECT g, SUM(a * b) AS s, AVG(b / a) AS q, COUNT(a - b) AS n "
    "FROM t GROUP BY g",
    "SELECT MIN(b / a) AS m, MAX(a * b) AS x, SUM(b * b) AS s FROM t",
])
def test_a_nullable_aggregate_argument_skips_its_nulls(text):
    # null operands on either side, and -0.0, which repr tells from 0.0
    rows = [(1, None, 1.0), (1, 2, None), (1, 2, -0.0), (2, None, None),
            (2, 3, 0.1), (2, 7, 1e-300)]
    assert _same(text, rows)[0] == "ok"
    assert _same(text, [(2, None, None)])[0] == "ok"
    # a division by zero in a row whose operands are both set still raises,
    # after the nulls before it are skipped
    assert _same(text, rows + [(1, 0, 1.0), (3, 1, BIG)]) == (
        relational.TypeMismatchError, "division by zero")


# --- joins ---------------------------------------------------------------------

LEFT = [("a", 1, 0.5, 1, 2), ("b", 2, -0.0, 2, 2), ("c", None, 1.5, None, 1),
        ("d", 3, 0.0, 1, 1), ("e", 1, 2.0, 2, None)]
RIGHT = [(1, 0.5, 1, 1), (2, 1.0, 2, 1), (3, 1.0, None, 2), (1, -0.0, 1, 1),
         (None, 2.0, 2, None)]


@pytest.mark.parametrize("text", [
    # WHERE over a join reading both sides
    "SELECT l.k, r.y FROM l JOIN r ON l.j = r.j WHERE l.x < r.y",
    "SELECT l.k, r.i FROM l JOIN r ON r.j = l.j WHERE l.i = r.i OR r.y > 0.7",
    # SELECT * over a join is the joined rows
    "SELECT * FROM l JOIN r ON l.j = r.j",
    "SELECT * FROM l JOIN r ON l.j = r.j WHERE r.y >= l.x",
    # same-table ON, on either table
    "SELECT l.k, r.y FROM l JOIN r ON l.j = l.j2",
    "SELECT * FROM l JOIN r ON r.j2 = r.j WHERE l.i > 1",
    "SELECT l.k, COUNT(*) AS n FROM l JOIN r ON l.j2 = l.j GROUP BY l.k",
    # GROUP BY over both sides
    "SELECT l.k, r.j, SUM(l.x * r.y) AS s, MIN(r.y) AS m, COUNT(r.i) AS n "
    "FROM l JOIN r ON l.j = r.j GROUP BY l.k, r.j",
    "SELECT SUM(l.x) AS s, AVG(r.y / l.x) AS q FROM l JOIN r ON l.i = r.i",
    # int keys meet real ones of equal value
    "SELECT l.k, r.y FROM l JOIN r ON l.i = r.y ORDER BY k LIMIT 3",
])
def test_joins_match_the_closure_compiler(text):
    _same(text, LEFT, RIGHT)
    _same(text, LEFT, [])
    _same(text, [], RIGHT)


# --- ORDER BY and LIMIT --------------------------------------------------------

@pytest.mark.parametrize("limit", [0, 1, 3, 5, 6, 50])
def test_limit_is_the_first_rows_of_the_sort(limit):
    for text in [f"SELECT g, b FROM t LIMIT {limit}",
                 f"SELECT g, b FROM t ORDER BY b LIMIT {limit}",
                 f"SELECT g, SUM(b) AS s FROM t GROUP BY g ORDER BY s "
                 f"LIMIT {limit}"]:
        want = _same(text, [(2, 1, 0.0), (1, 1, -0.0), (2, None, None),
                            (1, 2, 0.0), (3, 3, 1.0)])
        assert want[0] == "ok"


def test_order_by_ties_between_equal_int_and_real_values():
    """1 and 1.0 tie as keys, and 0.0 and -0.0 tie as keys and as rows:
    the row order of the stable sort is kept, float bits included."""
    left = [("a", 1, 0.0, 1, 1), ("a", 1, -0.0, 1, 1), ("b", 2, 1.0, 1, 1)]
    right = [(1, 1.0, 1, 1), (2, 2.0, 1, 1), (1, 1.0, 1, 1)]
    for text in [
            "SELECT l.i AS o, r.y AS p, l.x AS q FROM l JOIN r ON l.i = r.y "
            "ORDER BY o, p",
            "SELECT l.i AS o, r.y AS p, l.x AS q FROM l JOIN r ON l.i = r.y "
            "ORDER BY p LIMIT 2",
            "SELECT l.x AS q FROM l JOIN r ON l.j = r.j ORDER BY q LIMIT 4",
            "SELECT l.x AS q, r.y AS p FROM l JOIN r ON l.j = r.j LIMIT 5"]:
        assert _same(text, left, right)[0] == "ok"


# --- generated statements ------------------------------------------------------

def _grouped_join(rng):
    """A join with GROUP BY, ORDER BY over its output and LIMIT."""
    on = rng.choice([("l.j", "r.j"), ("r.j", "l.j2"), ("l.i", "r.i"),
                     ("l.j", "l.j2"), ("r.j2", "r.j"), ("l.i", "r.y")])
    cols = [(f"l.{n}", t) for n, t in L] + [(f"r.{n}", t) for n, t in R]
    gen = _Gen(rng, cols)
    group = rng.sample(["l.k", "l.i", "r.j", "r.i"], rng.randint(0, 2))
    items = list(group) + [
        "COUNT(*)" if fn == "count" and rng.random() < 0.3
        else f"{fn.upper()}({gen.scalar(0, True)})"
        for fn in rng.sample(sql.AGG_FNS, rng.randint(1, 3))]
    text = (f"SELECT {', '.join(f'{e} AS o{i}' for i, e in enumerate(items))}"
            f" FROM l JOIN r ON {on[0]} = {on[1]}")
    if rng.random() < 0.5:
        text += f" WHERE {gen.pred()}"
    if group:
        text += " GROUP BY " + ", ".join(group)
    if rng.random() < 0.7:
        order = rng.sample(range(len(items)), rng.randint(1, len(items)))
        text += " ORDER BY " + ", ".join(f"o{i}" for i in order)
    if rng.random() < 0.7:
        text += f" LIMIT {rng.randint(0, 8)}"
    return text


def test_generated_grouped_joins_match_the_closure_compiler():
    rng = random.Random(2201)
    kinds = {"ok": 0, "error": 0}
    for case in range(400):
        text = _grouped_join(rng)
        tables = [_table(rng, L), _table(rng, R)]
        want = _same(text, *tables)
        kinds["ok" if want[0] == "ok" else "error"] += 1
    assert kinds["ok"] > 250 and kinds["error"] > 20
