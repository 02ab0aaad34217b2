import random
import struct

import pytest

from polydawg import sql
from polydawg.errors import QuerySyntaxError


def roundtrip(text):
    stmt = sql.parse_select_text(text)
    printed = sql.pp_select(stmt)
    again = sql.parse_select_text(printed)
    assert sql.pp_select(again) == printed
    return printed


def test_round_trip_basic_select():
    assert roundtrip("SELECT a, b FROM t") == "SELECT a, b FROM t"


def test_round_trip_star():
    assert roundtrip("SELECT * FROM t WHERE x > 3") == \
        "SELECT * FROM t WHERE x > 3"


def test_round_trip_join_group_order_limit():
    text = ("SELECT a.x, SUM(b.y * 2) AS total FROM t a JOIN u b "
            "ON a.k = b.k WHERE a.x >= 1 AND NOT b.y = 0 "
            "GROUP BY a.x ORDER BY x LIMIT 5")
    assert roundtrip(text)


def test_string_literals_preserved():
    printed = roundtrip("SELECT * FROM t WHERE name = 'o''brien'")
    assert "'o''brien'" in printed


def test_normalized_pretty_print_masks_literals():
    stmt = sql.parse_select_text("SELECT a FROM t WHERE x > 3 AND y = 'v'")
    normal = sql.pp_select(stmt, normalize=True)
    assert "3" not in normal and "'v'" not in normal
    assert normal.count("?") == 2


def test_collect_literals():
    stmt = sql.parse_select_text(
        "SELECT a FROM t WHERE x > 3 AND y = 'v' LIMIT 7")
    lits = []
    sql.collect_literals(stmt, lits)
    assert sorted(lits) == ["'v'", "3", "7"]


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def test_real_lexemes_read_back_as_the_same_float():
    rng = random.Random(11)
    lo, hi = _bits(5e-324), _bits(1e308)
    # every float is a bit pattern, so these are spread over all exponents
    values = [struct.unpack("<d", struct.pack("<q", rng.randint(lo, hi)))[0]
              for _ in range(2000)]
    values += [5e-324, 1e-05, 0.0001, 0.5, 1.0, 1e15, 1e16, 1e308]
    for v in values:
        lexeme = sql.Lit("real", v).lexeme
        tokens = sql.tokenize(lexeme)
        assert [t.kind for t in tokens] == ["REAL", "EOF"], lexeme
        assert float(tokens[0].text) == v, lexeme
    assert sql.Lit("real", 1e-05).lexeme == "0.00001"
    assert sql.Lit("real", 1e16).lexeme == "10000000000000000.0"
    assert sql.Lit("real", 2.5).lexeme == "2.5"


@pytest.mark.parametrize("bad", [
    "SELECT",
    "SELECT FROM t",
    "SELECT a FROM",
    "SELECT a FROM t WHERE",
    "SELECT a FROM t GROUP BY",
    "SELECT a FROM t ORDER BY 1",
    "SELECT a, FROM t",
    "SELECT a FROM t JOIN",
    "SELECT a FROM t JOIN u ON a",
])
def test_syntax_errors_have_spans(bad):
    with pytest.raises(QuerySyntaxError) as err:
        sql.parse_select_text(bad)
    start, end = err.value.span
    assert 0 <= start <= end <= max(len(bad), 1)


def test_reserved_words_cannot_name_tables():
    with pytest.raises(QuerySyntaxError):
        sql.parse_select_text("SELECT a FROM select")


def test_qualified_columns_and_aliases():
    stmt = sql.parse_select_text("SELECT p.id AS pid FROM patients p")
    item = stmt.items[0]
    assert item.alias == "pid"
    assert item.expr.qual == "p" and item.expr.name == "id"
    assert stmt.table.binding == "p"
