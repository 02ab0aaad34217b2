"""Generated SELECT and FILTER code, SUBARRAY's box walk and the
row-at-a-time semiring kernel, each checked against the closure compilers
and loops they replaced (``select_reference``): the same rows in the same
order, and the same error class and message."""

import ast
import io
import keyword
import math
import random
import re
import tokenize

import pytest

import select_reference as ref
from polydawg import sql
from polydawg.engines import relational
from polydawg.canonical import CanonicalTable
from polydawg.engines.array import ArrayEngine, NDArray, _rows, _subarray, array_op
from polydawg.engines.keyvalue import assoc_ewise, assoc_matmul
from polydawg.errors import PolydawgError

BIG = 1.5e308  # doubling it overflows to inf


def _outcome(compile_select, stmt, schemas, tables):
    """("ok", schema, rows) or (error class, message) of compiling and
    running ``stmt``; compile errors and run errors alike."""
    try:
        compiled = compile_select(stmt, schemas)
        table = compiled.run(*tables)
        return "ok", compiled.schema, table.rows
    except PolydawgError as e:
        return type(e), str(e)


# --- generated SELECTs ---------------------------------------------------------

def _value(rng, tag):
    if rng.random() < 0.15:
        return None
    if tag == "int":
        return rng.choice([0, 1, -2, 3, rng.randint(-50, 50)])
    if tag == "real":
        return rng.choice([0.0, 0.5, -1.25, BIG, rng.uniform(-9, 9)])
    return rng.choice(["a", "b", "", "it's", rng.choice("xyz") * 2])


def _table(rng, schema):
    return [tuple(_value(rng, t) for _, t in schema)
            for _ in range(rng.choice([0, 2, 4, 6, 8, 12]))]


def _literal(rng, tag):
    if tag == "int":
        return str(rng.choice([0, 1, 2, 7]))
    if tag == "real":
        return rng.choice(["0.0", "2.5", "1.0", "2.0"])
    return sql.quote_sq(rng.choice(["a", "b", "it's", ""]))


class _Gen:
    """Random well-typed (mostly) expressions over the columns
    ``(qualified name, tag)``."""

    def __init__(self, rng, cols):
        self.rng, self.cols = rng, cols

    def scalar(self, depth=0, numeric=None):
        rng = self.rng
        want = numeric if numeric is not None else rng.random() < 0.75
        pool = [n for n, tag in self.cols if (tag != "text") == want]
        if depth < 2 and want and rng.random() < 0.45:
            left, right = self.scalar(depth + 1, True), self.scalar(depth + 1, True)
            return f"({left} {rng.choice('+-*/')} {right})"
        if pool and rng.random() < 0.75:
            return rng.choice(pool)
        return _literal(rng, rng.choice(["int", "real"]) if want else "text")

    def pred(self, depth=0):
        rng = self.rng
        if depth < 2 and rng.random() < 0.35:
            kind = rng.choice(["AND", "OR", "NOT"])
            if kind == "NOT":
                return f"NOT ({self.pred(depth + 1)})"
            return f"({self.pred(depth + 1)}) {kind} ({self.pred(depth + 1)})"
        numeric = rng.random() < 0.75
        if rng.random() < 0.03:  # a cross-tag comparison: a compile error
            left, right = self.scalar(0, True), self.scalar(0, False)
        else:
            left, right = self.scalar(0, numeric), self.scalar(0, numeric)
        return f"{left} {rng.choice(sql.CMP_OPS)} {right}"


def _select(rng, lcols, rcols, joined):
    """Text of a random SELECT with aliased items o0, o1, ..."""
    cols = lcols + (rcols if joined else [])
    gen = _Gen(rng, cols)
    group = []
    if rng.random() < 0.45:  # grouping, with or without keys
        group = rng.sample([n for n, _ in cols], rng.randint(0, 2))
        items = list(group)
        for _ in range(rng.randint(1, 3)):
            fn = rng.choice(sql.AGG_FNS)
            if fn == "count" and rng.random() < 0.4:
                items.append("COUNT(*)")
            else:
                numeric = fn in ("sum", "avg") or rng.random() < 0.7
                if rng.random() < 0.02:
                    numeric = not numeric  # SUM over text: a compile error
                items.append(f"{fn.upper()}({gen.scalar(0, numeric)})")
        if rng.random() < 0.02:
            items.append(rng.choice(cols)[0])  # maybe not in GROUP BY
        if not items:
            items = ["COUNT(*)"]
    elif rng.random() < 0.15:
        items = None
    else:
        items = [gen.scalar() for _ in range(rng.randint(1, 3))]
    text = "SELECT " + (
        "*" if items is None
        else ", ".join(f"{e} AS o{i}" for i, e in enumerate(items)))
    text += " FROM l"
    if joined:
        on = rng.choice([("l.j", "r.j"), ("r.j", "l.j2"), ("l.j", "l.j2"),
                         ("r.j2", "r.j"), ("l.i", "r.i")])
        text += f" JOIN r ON {on[0]} = {on[1]}"
    if rng.random() < 0.5:
        text += f" WHERE {gen.pred()}"
    if group:
        text += " GROUP BY " + ", ".join(group)
    if items is not None and rng.random() < 0.4:
        order = rng.sample(range(len(items)), rng.randint(1, len(items)))
        text += " ORDER BY " + ", ".join(f"o{i}" for i in order)
    if rng.random() < 0.3:
        text += f" LIMIT {rng.randint(0, 6)}"
    return text


def test_generated_selects_match_the_closure_compiler():
    rng = random.Random(1401)
    outcomes = {"ok": 0, "error": 0}
    for case in range(1200):
        jtag = rng.choice(["int", "real", "text"])
        lschema = [("k", "text"), ("i", "int"), ("x", "real"), ("t", "text"),
                   ("j", jtag), ("j2", jtag)]
        rschema = [("i", "int"), ("y", "real"), ("j", jtag),
                   ("j2", rng.choice(["int", "text"]))]
        tables = [_table(rng, lschema), _table(rng, rschema)]
        joined = rng.random() < 0.4
        lcols = [(f"l.{n}", t) for n, t in lschema]
        rcols = [(f"r.{n}", t) for n, t in rschema]
        text = _select(rng, lcols, rcols, joined)
        stmt = sql.parse_select_text(text)
        schemas = {"l": lschema, "r": rschema}
        want = _outcome(ref.compile_select, stmt, schemas, tables)
        got = _outcome(relational.compile_select, stmt, schemas, tables)
        assert got == want, (case, text, tables)
        outcomes["ok" if want[0] == "ok" else "error"] += 1
    # most statements run; the errors include each kind the rows can raise
    assert outcomes["ok"] > 700 and outcomes["error"] > 100


def test_run_time_errors_match_the_closure_compiler():
    """Division by zero and overflow, alone and together, in each stage."""
    schema = [("a", "int"), ("b", "real"), ("g", "int")]
    rows = [(1, 2.0, 1), (0, BIG, 1), (None, None, 2), (2, 0.0, 2),
            (3, None, 3)]
    queries = [
        "SELECT a / 0 AS q FROM t",
        "SELECT b + a / 0 AS q FROM t",
        "SELECT b + 1 / 0 AS q FROM t",
        "SELECT a FROM t WHERE b < 1 / 0",
        "SELECT (b + 1.0) * (a / 0) AS q FROM t",
        "SELECT a FROM t WHERE b < a / 0",
        "SELECT a FROM t WHERE b = 1.0 AND a / 0 > 1",
        "SELECT g, SUM(b + g / 0) AS s FROM t GROUP BY g",
        "SELECT b * 2.0 AS q FROM t",
        "SELECT b * 2.0 AS q, a / a AS z FROM t",
        "SELECT a / a AS z, b * 2.0 AS q FROM t",
        "SELECT g, SUM(b) AS s FROM t GROUP BY g",
        "SELECT g, SUM(b * 2.0) AS s, SUM(1 / a) AS d FROM t GROUP BY g",
        "SELECT g, SUM(1 / a) AS d, SUM(b * 2.0) AS s FROM t GROUP BY g",
        "SELECT SUM(b * 2.0) AS s, MAX(g / a) AS d FROM t",
        "SELECT AVG(b) AS s FROM t GROUP BY g",
        "SELECT a FROM t WHERE b * 2.0 > a / a",
        "SELECT a FROM t WHERE a + b = 1",
        "SELECT a FROM t WHERE (a / 0 > 1) OR a = 1",
        "SELECT a FROM t WHERE b + a / (a - a) = a",
        "SELECT MIN(a) AS m, COUNT(*) AS n FROM t WHERE a > 5",
        "SELECT g, COUNT(*) AS n FROM t WHERE a > 5 GROUP BY g",
    ]
    for text in queries:
        stmt = sql.parse_select_text(text)
        for tables in ([rows], [rows[:1]], [rows[2:3]], [rows[4:]], [[]]):
            want = _outcome(ref.compile_select, stmt, {"t": schema}, tables)
            got = _outcome(relational.compile_select, stmt, {"t": schema},
                           tables)
            assert got == want, (text, tables)


# --- generated FILTERs ---------------------------------------------------------

def _random_array(rng, ndims):
    dims = [(f"d{i}", rng.randint(1, 5)) for i in range(ndims)]
    attrs = [("v", "real"), ("w", "int"), ("s", "text")]
    cells = {}
    for coords in _coords(dims):
        if rng.random() < 0.6:
            cells[coords] = tuple(_value(rng, t) for _, t in attrs)
    return NDArray("waves", dims, attrs, cells)


def _coords(dims):
    out = [()]
    for _, length in dims:
        out = [c + (i,) for c in out for i in range(length)]
    return out


def test_generated_filters_match_the_closure_compiler():
    rng = random.Random(1402)
    ran = 0
    for case in range(400):
        arr = _random_array(rng, rng.randint(1, 3))
        schema = arr.export_schema()
        cols = [(n if rng.random() < 0.5 else f"waves.{n}", t)
                for n, t in schema]
        pred = sql.parse_pred(sql.Cursor(sql.tokenize(_Gen(rng, cols).pred())))
        try:
            keep = ref.compile_predicate(pred, "waves", schema)
            want = ("ok", [r for r in _rows(arr) if keep(r)])
        except PolydawgError as e:
            want = (type(e), str(e))
        try:
            out_schema, run = array_op("filter", {"pred": pred}, "waves",
                                       schema, len(arr.dims))
            assert out_schema == schema
            got = ("ok", run(arr))
        except PolydawgError as e:
            got = (type(e), str(e))
        assert got == want, (case, pred)
        ran += want[0] == "ok"
    assert ran > 250


def test_array_agg_matches_the_reference_loop():
    """AGG runs as a generated GROUP BY: the same groups in key order,
    empty arrays and repeated BY dimensions included."""
    rng = random.Random(1405)
    ran = 0
    for case in range(300):
        arr = _random_array(rng, rng.randint(1, 3))
        if rng.random() < 0.1:
            arr.cells.clear()
        schema = arr.export_schema()
        ndims = len(arr.dims)
        fn = rng.choice(["count", "sum", "avg", "min", "max"])
        attr = rng.choice(["v", "w", "s"] if fn in ("count", "min", "max")
                          else ["v", "w"])
        by = [rng.randrange(ndims) for _ in range(rng.randint(0, 2))]
        params = {"fn": fn, "attr": attr, "by": [f"d{i}" for i in by]}
        out_schema, run = array_op("agg", params, "waves", schema, ndims)
        tag = out_schema[-1][1]
        ai = [n for n, _ in schema].index(attr)
        try:
            want = ("ok", ref.agg_loop(fn, tag, by, ai, _rows(arr)))
        except PolydawgError as e:
            want = (type(e), str(e))
        try:
            got = ("ok", run(arr))
        except PolydawgError as e:
            got = (type(e), str(e))
        assert got == want, (case, params)
        assert out_schema == [(f"d{i}", "int") for i in by] + [(fn, tag)]
        ran += want[0] == "ok"
    assert ran > 250


# --- the generated source is safe ----------------------------------------------

HOSTILE = ["a'); __import__('os').system('echo owned') #",
           'b") or os.system("x', "c\n    import os", "d)]; #"]
NAME = re.compile(r"_[a-z]+[0-9]*\Z")  # a generated name
METHODS = {"append", "get", "items", "key", "setdefault", "sort"}


def _assert_safe(source, texts):
    for text in texts:
        for part in (text, "__import__", "os.system", "system", "owned"):
            assert part not in source, (part, source)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            assert (keyword.iskeyword(tok.string) or tok.string in METHODS
                    or NAME.match(tok.string)), (tok.string, source)
        elif tok.type == tokenize.NUMBER:
            assert tok.string.isdigit(), tok.string  # a slot index
        else:
            assert tok.type in (tokenize.OP, tokenize.NEWLINE, tokenize.NL,
                                tokenize.INDENT, tokenize.DEDENT,
                                tokenize.ENDMARKER), tok


def test_no_name_or_literal_text_enters_the_source(monkeypatch):
    sources = []
    code = relational._code
    monkeypatch.setattr(relational, "_code",
                        lambda source: sources.append(source) or code(source))
    cols = [sql.Col(None, name) for name in HOSTILE]
    schema = [(name, tag) for name, tag in zip(HOSTILE, ["text", "int", "real", "int"])]
    evil = HOSTILE[0]
    text_lit = sql.Lit("text", evil)
    where = sql.Logic("or", sql.Cmp("=", cols[0], text_lit),
                      sql.Cmp(">", sql.Bin("/", cols[1], sql.Lit("int", 7)),
                              sql.Lit("real", 1.5)))
    items = [sql.SelectItem(cols[0], HOSTILE[1]),
             sql.SelectItem(sql.Agg("sum", sql.Bin("*", cols[2],
                                                   sql.Lit("real", 2.0))),
                            HOSTILE[2]),
             sql.SelectItem(sql.Agg("count", None), HOSTILE[3])]
    stmt = sql.SelectStmt(items, sql.TableRef(HOSTILE[2], HOSTILE[3]), None,
                          where, [cols[0]], [sql.Col(None, HOSTILE[1])], 3)
    rows = [(evil, 14, 1.0, 0), ("x", 0, 2.0, 1), (evil, None, 3.0, 2)]
    compiled = relational.compile_select(stmt, {HOSTILE[3]: schema})
    assert compiled.run(rows).rows == [(evil, 8.0, 2)]
    # the array engine's FILTER over a hostile object name and literal
    arr = NDArray(HOSTILE[0], [("i", 3)], [("s", "text")],
                  {(0,): (evil,), (1,): ("y",), (2,): (None,)})
    pred = sql.Logic("and", sql.Cmp("=", sql.Col(HOSTILE[0], "s"), text_lit),
                     sql.Not(sql.Cmp("<", sql.Col(None, "i"),
                                     sql.Lit("int", 0))))
    _, run = array_op("filter", {"pred": pred}, HOSTILE[0],
                      arr.export_schema(), 1)
    assert run(arr) == [(0, evil)]
    assert len(sources) == 2
    for source in sources:
        _assert_safe(source, HOSTILE)
        assert str(BIG) not in source and "1.5" not in source


def test_generated_source_uses_only_safe_tokens_and_python_3_10_syntax():
    rng = random.Random(1403)
    schema = [("k", "text"), ("i", "int"), ("x", "real"), ("t", "text"),
              ("j", "int"), ("j2", "int")]
    cols = [(f"l.{n}", t) for n, t in schema]
    checked = 0
    while checked < 200:
        text = _select(rng, cols, [(f"r.{n}", t) for n, t in schema],
                       rng.random() < 0.4)
        try:
            compiled = relational.compile_select(
                sql.parse_select_text(text), {"l": schema, "r": schema})
        except PolydawgError:
            continue
        _assert_safe(compiled.source, ["'"])
        ast.parse(compiled.source, feature_version=(3, 10))  # the floor
        checked += 1


# --- the code cache ------------------------------------------------------------

def test_code_is_compiled_once_per_shape_and_not_at_compile_time():
    relational._code.cache_clear()
    schema = {"t": [("a", "int"), ("b", "text")]}
    rows = [(i, str(i)) for i in range(10)]
    rng = random.Random(1404)
    for _ in range(100):  # fresh literals, one shape
        n, word = rng.randint(-5, 15), rng.choice(["x", "3", "it's"])
        stmt = sql.parse_select_text(
            f"SELECT a, b FROM t WHERE a > {n} OR b = {sql.quote_sq(word)} "
            f"LIMIT {n % 7}")
        compiled = relational.compile_select(stmt, schema)
        assert relational._code.cache_info().currsize == (0 if _ == 0 else 1)
        got = compiled.run(rows).rows
        assert got == ref.compile_select(stmt, schema).run(rows).rows
    info = relational._code.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 99, 1)


def test_the_code_cache_stays_at_its_bound():
    bound = relational._code.cache_info().maxsize
    assert bound is not None
    schema = {"t": [(f"c{i}", "int") for i in range(bound + 40)]}
    row = tuple(range(bound + 40))
    for i in range(bound + 40):  # one distinct source per column slot
        stmt = sql.parse_select_text(f"SELECT c{i} FROM t")
        assert relational.compile_select(stmt, schema).run([row]).rows == [(i,)]
    assert relational._code.cache_info().currsize == bound


# --- SUBARRAY's box ------------------------------------------------------------

def _sparse(rng, dims, n):
    cells = {}
    for _ in range(n):
        cells[tuple(rng.randrange(length) for _, length in dims)] = (
            rng.choice([None, 1.5, -2.0]), rng.randint(0, 9))
    return NDArray("a", dims, [("v", "real"), ("w", "int")], cells)


@pytest.mark.parametrize("ndims", [1, 2, 3])
def test_subarray_box_matches_the_scan(ndims):
    rng = random.Random(1405 + ndims)
    walked = scanned = 0
    for case in range(150):
        dims = [(f"d{i}", rng.choice([1, 3, 8, 40, 10 ** 6]))
                for i in range(ndims)]
        arr = _sparse(rng, dims, rng.choice([0, 1, 5, 60]))
        if rng.random() < 0.3:  # dense, so the box may cover every cell
            dims = [(d, min(n, 6)) for d, n in dims]
            arr = NDArray("a", dims, [("v", "real")],
                          {c: (float(sum(c)),) for c in _coords(dims)})
        bounds = {}
        for i, (_, length) in enumerate(dims):
            if rng.random() < 0.8:
                lo = rng.choice([0, 1, length - 1, length, length + 5,
                                 rng.randrange(length)])
                hi = rng.choice([lo, lo + 1, lo + 3, length - 1, length + 9])
                bounds[i] = (lo, max(lo, hi))
        ranges = [(i, lo, hi) for i, (lo, hi) in bounds.items()]
        want = ref.subarray_scan(arr, ranges)
        assert _subarray(arr, bounds) == want, (dims, bounds)
        box = math.prod(min(hi + 1, n) - min(lo, n) for (_, n), (lo, hi) in (
            (dims[i], bounds.get(i, (0, dims[i][1] - 1)))
            for i in range(ndims)))
        if box < len(arr.cells):
            walked += 1
        else:
            scanned += 1
    assert walked > 10 and scanned > 10


def test_subarray_through_the_engine_walks_the_box(catalog_with_wave):
    catalog, arr = catalog_with_wave
    got = catalog.execute_native("arr", "SUBARRAY wave p=1:2, t=3:200")
    assert got.rows == ref.subarray_scan(arr, [(0, 1, 2), (1, 3, 200)])
    assert [r[:2] for r in got.rows] == sorted(r[:2] for r in got.rows)


@pytest.fixture
def catalog_with_wave():
    from polydawg.canonical import CanonicalTable
    from polydawg.engines import default_catalog
    catalog = default_catalog()
    rows = [(p, t, float(p * t)) for p in range(4) for t in range(0, 9, 2)]
    catalog.load("arr", "wave",
                 CanonicalTable([("p", "int"), ("t", "int"), ("v", "real")],
                                rows), {"dims": [("p", 4), ("t", 9)]})
    return catalog, catalog.engine("arr").array("wave")


# --- array builds ------------------------------------------------------------

def _build_outcome(build, table, options):
    """("ok", the array's fields and its cells in order) or (error
    class, message) of building ``table`` as the array ``w``."""
    try:
        arr = build("w", table, options)
        return "ok", arr.dims, arr.attrs, list(arr.cells.items())
    except PolydawgError as e:
        return type(e), str(e)


def test_array_build_matches_the_row_at_a_time_reference():
    # tables with null, negative, out-of-range and duplicate coordinates,
    # no attribute or no row, and dimensions anywhere among the columns
    rng = random.Random(2703)
    build = ArrayEngine("arr")._build
    outcomes = set()
    for case in range(400):
        ndims, nattrs = rng.randint(1, 3), rng.randint(0, 2)
        tags = ["int"] * ndims + [rng.choice(["int", "real", "text"])
                                  for _ in range(nattrs)]
        names = [f"x{i}" for i in range(len(tags))]
        order = rng.sample(range(len(tags)), len(tags))
        schema = [(names[i], tags[i]) for i in order]
        lengths = [rng.randint(1, 4) for _ in range(ndims)]
        bad = rng.random() < 0.5
        raw = []
        for _ in range(rng.choice([0, 1, 3, 8, 20])):
            raw.append([rng.choice([None, -1, n] if bad and rng.random() < 0.1
                                   else range(n)) for n in lengths]
                       + [_value(rng, tag) for tag in tags[ndims:]])
        if not bad:  # one row per cell, so that most tables load
            raw = list({tuple(vals[:ndims]): vals for vals in raw}.values())
        rows = [tuple(vals[i] for i in order) for vals in raw]
        table = CanonicalTable(schema, rows)
        options = {"dims": [(names[i], n) for i, n in enumerate(lengths)]}
        want = _build_outcome(ref.array_build, table, options)
        assert _build_outcome(build, table, options) == want, (table, options)
        outcomes.add(want[0] if want[0] == "ok" else want[1].split()[0])
    assert outcomes == {"ok", "coordinate", "duplicate"}


# --- semiring loops ------------------------------------------------------------

def _entries(rng, rows, cols, tag, density=0.5):
    return {(r, c): (rng.randint(-9, 9) if tag == "int"
                     else round(rng.uniform(-9, 9), 3))
            for r in rows for c in cols if rng.random() < density}


def _reprs(rows):
    """``(r, c, repr(v))`` of each row, so that int and real, and -0.0 and
    0.0, tell apart."""
    return [(r, c, repr(v)) for r, c, v in rows]


def _key_order(entries):
    """The reference loops' entries as ``(r, c, v)`` rows in key order."""
    return [(r, c, v) for (r, c), v in sorted(entries.items())]


def _matmul_reprs(a, b, semiring):
    """Whether the kernel's rows are the reference loops' entries in key
    order, each value down to its ``repr``."""
    return (_reprs(assoc_matmul(a, b, semiring))
            == _reprs(_key_order(ref.assoc_matmul(a, b, semiring))))


@pytest.mark.parametrize("semiring", sorted(ref.SEMIRINGS))
def test_matmul_matches_the_reference_loops(semiring):
    rng = random.Random(1406)
    keys = [f"k{i}" for i in range(6)]
    for case in range(120):
        atag, btag = rng.choice(["int", "real"]), rng.choice(["int", "real"])
        rows, mid, cols = (rng.sample(keys, rng.randint(0, 6))
                           for _ in range(3))
        a = _entries(rng, rows, mid, atag, rng.random())
        other = mid if rng.random() < 0.8 else ["z1", "z2"]  # disjoint
        b = _entries(rng, other, cols, btag, rng.random())
        assert _matmul_reprs(a, b, semiring), (a, b)


@pytest.mark.parametrize("semiring", sorted(ref.SEMIRINGS))
def test_matmul_row_at_a_time_matches_the_reference_loops(semiring):
    # B rows that share one column list fold in whole; a row with other
    # columns switches its A row to column-by-column sums
    rng = random.Random(2701)
    values = [-0.0, 0.0, 1.5, -2.25, 3.0, -1, 0, 2]  # a -0.0 sum keeps order
    mid = [f"k{i}" for i in range(5)]
    cols = [f"c{i}" for i in range(4)]
    cases = [({}, {}), ({("r", "k0"): 1.5}, {}), ({}, {("k0", "c0"): 2}),
             ({("r", "k0"): 1.5}, {("k1", "c0"): 2})]  # empty, disjoint
    for _ in range(60):
        a = {(r, k): rng.choice(values) for r in ("r1", "r0", "r2")
             for k in rng.sample(mid, rng.randint(1, 5))}
        dense = {(k, c): rng.choice(values) for k in mid for c in cols}
        reordered = {(k, c): dense[(k, c)] for k in mid
                     for c in rng.sample(cols, len(cols))}
        ragged = {key: v for key, v in dense.items() if rng.random() < 0.85}
        cases += [(a, dense), (a, reordered), (a, ragged)]
    for a, b in cases:
        assert _matmul_reprs(a, b, semiring), (a, b)


@pytest.mark.parametrize("op", ["plus", "min", "max"])
def test_ewise_matches_the_reference_loops(op):
    rng = random.Random(1407)
    keys = [f"k{i}" for i in range(5)]
    for case in range(120):
        atag, btag = rng.choice(["int", "real"]), rng.choice(["int", "real"])
        a = _entries(rng, rng.sample(keys, rng.randint(0, 5)), keys, atag,
                     rng.random())
        b = _entries(rng, rng.sample(keys, rng.randint(0, 5)),
                     keys if rng.random() < 0.7 else ["other"], btag,
                     rng.random())
        want = _key_order(ref.assoc_ewise(a, b, op))
        assert _reprs(assoc_ewise(a, b, op)) == _reprs(want), (a, b)
