import random
from collections import Counter

import pytest

import cif_reference
import generators
from polydawg.canonical import (
    CanonicalTable, CIFError, bag_equal, load_cif, parse_cif, save_cif,
    write_cif,
)
from polydawg.errors import SchemaError
from polydawg.values import TAGS


def test_schema_conformance_checked_on_construction():
    with pytest.raises(SchemaError):
        CanonicalTable([("a", "int")], [("text",)])
    with pytest.raises(SchemaError):
        CanonicalTable([("a", "int")], [(1, 2)])
    with pytest.raises(SchemaError):
        CanonicalTable([("a", "bogus")], [(1,)])


def test_bag_equal_ignores_order_and_names():
    a = CanonicalTable([("x", "int")], [(1,), (2,), (2,)])
    b = CanonicalTable([("y", "int")], [(2,), (1,), (2,)])
    c = CanonicalTable([("x", "int")], [(1,), (2,)])
    assert bag_equal(a, b)
    assert not bag_equal(a, c)


def test_bag_equal_float_tolerance():
    a = CanonicalTable([("v", "real")], [(1.0,)])
    b = CanonicalTable([("v", "real")], [(1.0 + 1e-12,)])
    assert bag_equal(a, b, rel_tol=1e-9)
    c = CanonicalTable([("v", "real")], [(1.01,)])
    assert not bag_equal(a, c, rel_tol=1e-9)


def test_cif_round_trip_random_tables():
    rng = random.Random(3)
    for _ in range(100):
        table, _ = generators.random_relation(rng)
        again = parse_cif(write_cif(table))
        assert again.schema == table.schema
        assert again.rows == table.rows


def test_cif_quoting_edge_cases():
    table = CanonicalTable(
        [("t", "text"), ("v", "real")],
        [('say "hi"', 1.5), ("comma, colon", -0.25), ("", None)],
    )
    again = parse_cif(write_cif(table))
    assert again.rows == table.rows


def test_cif_errors_carry_line_numbers():
    with pytest.raises(CIFError) as err:
        parse_cif("not a header\n")
    assert "1" in str(err.value)
    with pytest.raises(CIFError) as err:
        parse_cif('#schema:a:int\n"text"\n')
    assert "2" in str(err.value)


def test_save_and_load(tmp_path):
    table = CanonicalTable([("a", "int"), ("b", "text")],
                           [(1, "x"), (None, "y")])
    path = tmp_path / "t.cif"
    save_cif(table, str(path))
    assert bag_equal(load_cif(str(path)), table)


# --- the column-wise parser and check against the reference ---------------
#
# ``cif_reference`` keeps the parser and the value check as they ran one
# character and one value at a time. The parser and the constructor must
# give the same rows, the same Python types and the same errors.

def outcome(parse, text):
    """A parse of ``text``: its schema, rows, row types and value types,
    or its error's class, message and line."""
    try:
        schema, rows = parse(text)
    except SchemaError as e:
        return ("error", type(e), str(e), getattr(e, "lineno", None))
    return ("table", schema, rows, [type(r) for r in rows],
            [[type(v) for v in r] for r in rows])


def columnwise_parse(text):
    table = parse_cif(text)
    return table.schema, table.rows


def assert_parses_like_the_reference(text):
    want = outcome(cif_reference.parse_cif, text)
    assert outcome(columnwise_parse, text) == want, text[:300]
    return want


# fields a column of each tag accepts, and fields it may not
GOOD_FIELDS = {
    "int": ["0", "-7", "12", "", "987654321987654321", " 12", "+3", "1_0",
            "١٢"],
    "real": ["0.5", "-2.25", "3", "", "-0.0", "5e-324", " 1.5", "+3",
             "1_0.5", "1e-400"],
    "text": ['"a"', '"a,b"', '"say ""hi"""', '""', '""""', "", '","',
             '"é \t x"'],
}
ODD_FIELDS = ["nan", "inf", "-Infinity", "1e400", "1.5", "x", " ", '"3"',
              'a"b', "abc", '"abc"x', '"abc', '"a"b"', ' "a"', '"a" ',
              '"a""', "1__0"]
BAD_HEADERS = ["", "schema:a:int", "#schema:", "#schema:a", "#schema:a:bogus",
               "#schema::int", "#schema:a:int,", "#schema:a:int,b"]


def random_cif(rng, n_lines):
    tags = [rng.choice(TAGS) for _ in range(rng.randint(1, 4))]
    header = "#schema:" + ",".join(f"c{i}:{t}" for i, t in enumerate(tags))
    if rng.random() < 0.05:
        header = rng.choice(BAD_HEADERS)
    lines = [header]
    odds = rng.random() * 2 / max(n_lines, 1)  # of a line being odd
    for _ in range(n_lines):
        if rng.random() < 0.05:
            lines.append("")
            continue
        fields = [rng.choice(GOOD_FIELDS[t]) for t in tags]
        if rng.random() < odds:
            how = rng.randrange(3)
            if how == 0:
                fields[rng.randrange(len(fields))] = rng.choice(ODD_FIELDS)
            elif how == 1:
                fields.append(rng.choice(GOOD_FIELDS[rng.choice(TAGS)]))
            else:
                fields.pop()
        lines.append(",".join(fields))
    end = rng.choice(["\n", "\n", "\r\n", "\r", " "])
    return end.join(lines) + (end if rng.random() < 0.8 else "")


def test_parse_cif_matches_the_reference_on_random_texts():
    rng = random.Random(10)
    kinds = Counter()
    for _ in range(400):
        # 600 and 1300 lines cross the boundaries of the parse's chunks
        text = random_cif(rng, rng.choice([0, 1, 3, 20, 60, 600, 1300]))
        kinds[assert_parses_like_the_reference(text)[0]] += 1
    assert kinds["table"] > 100 and kinds["error"] > 100


@pytest.mark.parametrize("text", [
    '#schema:a:text,b:int\n"x, y",1\n"a,b,c",\n',  # quoted commas
    '#schema:a:text\n"say ""hi"""\n""""\n"a""b""c"\n',  # "" escapes
    '#schema:a:text,b:text\n"",\n,""\n,\n',  # "" is empty text, not null
    '#schema:a:int,b:real\n\n1,2.5\n\n\n3,\n\n',  # blank lines
    '#schema:a:int,b:real\n1,2.5\n3,4.5',  # no final newline
    "#schema:a:int,b:real\r\n1,2.5\r3,4\x1c5,6\x857,8 9,0\r\n",
    "#schema:a:int,b:real\n 12,1\n+3, 1.5\n1_0,1_0.5\n",
    "#schema:a:int,b:real\n1,2\n١٢,٣.5\n",
    "#schema:a:int\nnan\n", "#schema:a:int\ninf\n", "#schema:a:int\n1e400\n",
    "#schema:a:int\n1.0\n", "#schema:a:int\n \n",
    "#schema:a:real\nnan\n", "#schema:a:real\n-inf\n",
    "#schema:a:real\n1e400\n", "#schema:a:real\n1e-400\n",
    # a non-finite real is a table error at line 1, but only once every
    # line has parsed
    "#schema:a:real,b:int\nnan,1\n2.0,x\n", "#schema:a:real,b:int\nnan,1\n",
    '#schema:a:int\n1"2\n', '#schema:a:text\nab"c\n',  # quote unquoted
    '#schema:a:text,b:int\n"ab"c,1\n', '#schema:a:text\n"ab" \n',
    '#schema:a:text\n"abc\n', '#schema:a:text\n"ab""\n',
    '#schema:a:int\n"1"\n', "#schema:a:text\nabc\n",
    "#schema:a:int,b:int\n1,2\n1\n", "#schema:a:int,b:int\n1,2,3\n",
    "#schema:a:int,b:int\n1,2\n,,\n", "#schema:a:int\n1,\n",
    "", "\n1\n", "schema:a:int\n", "#schema:\n1\n", "#schema:a\n",
    "#schema:a:bogus\n", "#schema::int\n", "#schema:a:int,\n",
    "#schema:a:b:int\n1\n",  # a colon in a name
    "#schema:a:int\n1\n\n2\n",  # one column: a blank line is no row
    "#schema:a:text\n\"\"\n\n\"x\"\n",
    "#schema:a:int\n" + "1\n" * 1200 + "x\n" + "2\n" * 10,  # a later chunk
    "#schema:a:int,b:text\n" + '1,"x"\n\n' * 700 + '2,"y"z\n',
])
def test_parse_cif_matches_the_reference_on_edge_cases(text):
    assert_parses_like_the_reference(text)


def test_edge_cases_parse_to_what_cif_means():
    assert parse_cif('#schema:a:text,b:text\n"",\n,""\n').rows == [
        ("", None), (None, "")]
    assert parse_cif('#schema:a:text,b:int\n"x, ""y""",3\n').rows == [
        ('x, "y"', 3)]
    rows = parse_cif("#schema:a:int,b:real\n 12,3\n+3,1_0.5\n").rows
    assert rows == [(12, 3.0), (3, 10.5)]
    assert [type(v) for r in rows for v in r] == [int, float, int, float]
    with pytest.raises(CIFError) as err:
        parse_cif("#schema:a:real,b:int\nnan,1\n2.0,x\n")
    assert (str(err.value), err.value.lineno) == (
        "line 3: bad int literal 'x'", 3)
    with pytest.raises(CIFError) as err:
        parse_cif("#schema:a:int\n" + "1\n" * 1200 + "x\n")
    assert err.value.lineno == 1202


class Text(str):
    pass


class Count(int):
    pass


def built(build, schema, rows):
    try:
        got = build(schema, rows)
    except (SchemaError, TypeError, OverflowError) as e:
        return ("error", type(e), str(e))
    return ("rows", got, [type(r) for r in got],
            [[type(v) for v in r] for r in got])


def columnwise_conform(schema, rows):
    return CanonicalTable(schema, rows).rows


def assert_builds_like_the_reference(schema, make_rows):
    want = built(cif_reference.conform, schema, make_rows())
    assert built(columnwise_conform, schema, make_rows()) == want
    return want


@pytest.mark.parametrize("schema, rows", [
    ([("a", "int")], [(1,), (True,)]),  # bool
    ([("a", "real")], [(False,)]),
    ([("a", "real"), ("b", "int")], [(1, 2), (2.5, None)]),  # widened
    ([("a", "real")], [(10 ** 400,)]),  # too large to widen
    ([("a", "text")], [("x",), (Text("y"),)]),  # a str subclass
    ([("a", "int")], [(Count(3),)]),
    ([("a", "real")], [(float("nan"),)]),
    ([("a", "real")], [(1.0,), (None,), (float("-inf"),)]),
    ([("a", "real")], [(0.0,), (-0.0,), (None,), (5e-324,)]),
    ([("a", "int"), ("b", "text")], [[1, "x"], (2, "y")]),  # list rows
    ([("a", "int"), ("b", "text")], [(1, "x"), (2,)]),  # ragged
    ([("a", "int"), ("b", "text")], [(1, 2), (3,)]),  # row order decides
    ([("a", "int"), ("b", "text")], [(1, "x", 3), ("y", "z")]),
    ([("a", "int")], [(1,), 7]),  # not a row at all
    ([("a", "int")], [(1,), "1"]),
    ([("a", "int"), ("b", "int")], [(1, 2), "12"]),
    ([("a", "text")], [(1,)]),
    ([("a", "int")], [("1",)]),
    ([("a", "int")], [(1.0,)]),
    ([("a", "bogus")], []),
    ([("a", "int")], []),
    ([], [(), ()]),
    ([("a", "int"), ("b", "real")], [(None, None)] * 3),
])
def test_the_checking_constructor_matches_the_reference(schema, rows):
    assert_builds_like_the_reference(schema, lambda: list(rows))
    assert_builds_like_the_reference(schema, lambda: iter(rows))


def test_the_checking_constructor_matches_the_reference_on_random_rows():
    pools = [0, 1, -5, 10 ** 30, Count(2), True, False, 2.5, 0.0, -0.0,
             float("nan"), float("inf"), "x", "", Text("t"), None, b"x", []]
    rng = random.Random(11)
    kinds = Counter()
    for _ in range(600):
        schema = [(f"c{i}", rng.choice(TAGS))
                  for i in range(rng.randint(1, 4))]
        plain = [0, 1, 2.5, -0.0, "x", "", None]
        rows = []
        for _ in range(rng.randint(0, 12)):
            row = [rng.choice(pools) if rng.random() < 0.03
                   else rng.choice(plain) for _ in schema]
            if rng.random() < 0.02:
                row.append(1)
            rows.append(list(row) if rng.random() < 0.02 else tuple(row))
        # mostly rows that fit their columns, so that some tables pass
        for r, row in enumerate(rows):
            if rng.random() < 0.8 and isinstance(row, tuple) \
                    and len(row) == len(schema):
                rows[r] = tuple(generators.random_value(rng, tag)
                                if v is not None else None
                                for (_, tag), v in zip(schema, row))
        kinds[assert_builds_like_the_reference(schema, lambda: rows)[0]] += 1
    assert kinds["rows"] > 150 and kinds["error"] > 150


# --- what write_cif writes, parse_cif reads back ---------------------------

# every character str.splitlines ends a line on
LINE_BREAKS = [c for c in map(chr, range(0x110000))
               if len(f"a{c}b".splitlines()) == 2]


def cannot_be_read_back(table):
    """Why CIF could not carry ``table``, judged without write_cif."""
    def breaks(text):
        return any(c in text for c in LINE_BREAKS)

    names = [n for n, _ in table.schema]
    if not names or any(not n or "," in n or breaks(n) for n in names):
        return "name"
    for (_, tag), column in zip(table.schema, zip(*table.rows)):
        if tag == "text" and any(v is not None and breaks(v) for v in column):
            return "line break"
    if len(names) == 1 and any(r[0] is None for r in table.rows):
        return "blank line"
    return None


def random_table(rng):
    names = ["a", "b:c", "x y", "é", "#schema:q", "", "a,b", "n\nm",
             "t\x85"]
    schema = [(rng.choice(names) if rng.random() < 0.1 else f"c{i}",
               rng.choice(TAGS)) for i in range(rng.randint(0, 4) or 1)]
    if rng.random() < 0.02:
        schema = []
    alphabet = 'ab ,"\'é\t\x00;:#'

    def value(tag):
        if rng.random() < 0.1:
            return None
        if tag == "int":
            return rng.choice([0, -1, 2 ** 70, rng.randint(-10 ** 6, 10 ** 6)])
        if tag == "real":
            return rng.choice([0.1, -0.0, 5e-324, 1.7976931348623157e308,
                               1 / 3, rng.uniform(-1e9, 1e9)])
        chars = [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.03:
            chars.insert(rng.randint(0, len(chars)), rng.choice(LINE_BREAKS))
        return "".join(chars)

    rows = [tuple(value(tag) for _, tag in schema)
            for _ in range(rng.randint(0, 8))]
    return CanonicalTable(schema, rows)


def test_every_table_write_cif_accepts_reads_back_equal():
    rng = random.Random(12)
    seen = Counter()
    for _ in range(3000):
        table = random_table(rng)
        reason = cannot_be_read_back(table)
        try:
            text = write_cif(table)
        except SchemaError:
            assert reason in ("name", "line break"), table
            seen[reason] += 1
            continue
        assert reason in (None, "blank line"), (reason, table)
        want = table.rows
        if reason == "blank line":
            # no CIF line holds a lone null: write_cif prints it as a
            # blank line, which reads back as no row, and save_cif
            # refuses the table
            want = [r for r in table.rows if r != (None,)]
            seen[reason] += 1
        again = parse_cif(text)
        assert again.schema == table.schema
        assert again.rows == want
        assert ([[type(v) for v in r] for r in again.rows]
                == [[type(v) for v in r] for r in want])
    assert min(seen[r] for r in ("name", "line break", "blank line")) > 5


def test_write_cif_refuses_each_line_break_naming_the_column(tmp_path):
    assert set(LINE_BREAKS) >= {"\n", "\r", "\x0b", "\x0c", "\x1c", "\x85",
                                " ", " "}
    path = tmp_path / "t.cif"
    good = CanonicalTable([("id", "int"), ("note", "text")], [(1, "ok")])
    save_cif(good, str(path))
    for c in LINE_BREAKS:
        bad = CanonicalTable([("id", "int"), ("note", "text")],
                             [(1, "ok"), (2, f"two{c}lines")])
        with pytest.raises(SchemaError, match="'note'"):
            write_cif(bad)
        with pytest.raises(SchemaError, match="'note'"):
            save_cif(bad, str(path))
    assert path.read_text(encoding="utf-8") == write_cif(good)
    # every other character is written, and read back
    others = "".join(c for c in map(chr, range(0x110000))
                     if c not in LINE_BREAKS)
    table = CanonicalTable([("id", "int"), ("note", "text")], [(1, others)])
    assert parse_cif(write_cif(table)) == table
    one = CanonicalTable([("v", "int")], [(1,), (None,)])
    with pytest.raises(SchemaError, match="'v'"):
        save_cif(one, str(path))
    assert path.read_text(encoding="utf-8") == write_cif(good)
