"""Key-value engine over the associative-array data model.

Objects are maps from (row-key, col-key) string pairs to values, kept
in row-major lexicographic order. The native language covers range
scans, value grep, and the D4M-style semiring matmul / elementwise ops,
kernels the array engine shares (MATMUL folds in a row of B at a time).
"""

import math
import operator
from dataclasses import dataclass
from itertools import repeat

from .. import sql
from ..errors import NativeSyntaxError, QuerySyntaxError, SchemaError, TypeMismatchError
from ..migrator import entries_to_table, triple_schema, triples_to_table
from ..values import REAL, TEXT, is_numeric_tag
from .base import Engine

SEMIRINGS = {
    "plus.times": (operator.add, operator.mul),
    "min.plus": (min, operator.add),
    "max.times": (max, operator.mul),
}


@dataclass
class AssociativeArray:
    name: str
    entries: dict  # (row-key, col-key) -> value
    val_tag: str = REAL


def assoc_matmul(a_entries, b_entries, semiring="plus.times"):
    """``(r, c, v)`` rows, in key order, of C(r,c) = oplus_k A(r,k)
    otimes B(k,c) over keys present in both; values are numeric. Each B
    row is a sorted column list and its values. An A row folds in its B
    rows a whole row at a time while they share one column list, then
    column by column in a dict; either way each C(r,c) combines its
    terms in the order of A's entries."""
    try:
        oplus, otimes = SEMIRINGS[semiring]
    except KeyError:
        raise SchemaError(f"unknown semiring {semiring!r}") from None
    a_rows = {}
    for (r, k), v in a_entries.items():
        a_rows.setdefault(r, []).append((k, v))
    b_rows = {}
    for (k, c), v in b_entries.items():
        b_rows.setdefault(k, {})[c] = v
    for k, brow in b_rows.items():
        cols = sorted(brow)
        b_rows[k] = cols, list(map(brow.__getitem__, cols))
    out = []
    for r in sorted(a_rows):
        cols = acc = None  # acc: a list over cols, or a dict once cols is None
        for k, av in a_rows[r]:
            if k not in b_rows:
                continue
            bcols, bvals = b_rows[k]
            terms = map(otimes, repeat(av), bvals)
            if acc is None:
                cols, acc = bcols, list(terms)
            elif bcols == cols:
                acc = list(map(oplus, acc, terms))
            else:
                if cols is not None:
                    cols, acc = None, dict(zip(cols, acc))
                for c, term in zip(bcols, terms):
                    acc[c] = oplus(acc[c], term) if c in acc else term
        if cols is not None:
            out += zip(repeat(r), cols, acc)
        elif acc:
            out += [(r, c, acc[c]) for c in sorted(acc)]
    return out


def assoc_ewise(a_entries, b_entries, op="plus"):
    """``(r, c, v)`` rows, in key order, of the union of key sets; the op
    applies on overlap, copies elsewhere."""
    fns = {"plus": operator.add, "min": min, "max": max}
    try:
        fn = fns[op]
    except KeyError:
        raise SchemaError(f"unknown elementwise op {op!r}") from None
    out = dict(a_entries)
    for key, bv in b_entries.items():
        out[key] = fn(out[key], bv) if key in out else bv
    return [(r, c, v) for (r, c), v in sorted(out.items())]


def result_tag(a_tag, b_tag):
    """Value tag of a MATMUL or EWISE result, for engines and validation."""
    if a_tag == b_tag:
        return a_tag
    if is_numeric_tag(a_tag) and is_numeric_tag(b_tag):
        return REAL
    raise TypeMismatchError(f"mixed value tags {a_tag}/{b_tag}")


def run_assoc_op(verb, cur, operand):
    """Parse and run ``MATMUL a b [SEMIRING x.y]`` or ``EWISE a b op``
    after its verb. ``operand(name, opname)`` returns an object's
    (entries, value tag), raising if the object cannot take part in the
    op. Entries hold no null: an array's null cell is no entry, as in
    every cast into the associative model. Errors come in the order
    parse, operand, semiring/op name."""
    a = cur.expect_ident("object name").text
    b = cur.expect_ident("object name").text
    if verb == "matmul":
        how = "plus.times"
        if cur.accept_keyword("semiring"):
            parts = [cur.expect_ident().text]
            while cur.accept_op("."):
                parts.append(cur.expect_ident().text)
            how = ".".join(parts).lower()
    else:
        how = cur.expect_ident("elementwise op (plus/min/max)").lower
    cur.expect_end()
    opname = verb.upper()
    (ae, atag), (be, btag) = operand(a, opname), operand(b, opname)
    run = assoc_matmul if verb == "matmul" else assoc_ewise
    rows, tag = run(ae, be, how), result_tag(atag, btag)
    if tag != atag or tag != btag:  # int meets real: every value is real
        rows = [(r, c, float(v)) for r, c, v in rows]
    values = map(operator.itemgetter(2), rows)
    if tag == REAL and not all(map(math.isfinite, values)):
        raise SchemaError("non-finite real values are rejected")
    return triples_to_table(rows, tag)


class KeyValueEngine(Engine):
    model = "keyvalue"

    def _build(self, name, table, options):
        names = table.column_names
        tags = table.tags
        if len(names) != 3 or tags[0] != TEXT or tags[1] != TEXT:
            raise SchemaError(
                "keyvalue load expects schema (row:text, col:text, val:any)"
            )
        if names != ["row", "col", "val"]:
            raise SchemaError(
                f"keyvalue load expects columns (row, col, val), got {names}"
            )
        entries = {}
        for r, c, v in table.rows:
            if not r or not c:
                raise SchemaError("row/col keys must be non-empty strings")
            if v is None:
                raise SchemaError("associative arrays cannot store null values")
            if (r, c) in entries:
                raise SchemaError(f"duplicate entry for ({r!r}, {c!r})")
            entries[(r, c)] = v
        return AssociativeArray(name, entries, tags[2])

    def export(self, name):
        arr = self._get(name)
        return entries_to_table(arr.entries, arr.val_tag)

    def schema_of(self, name):
        return triple_schema(self._get(name).val_tag)

    def execute_native(self, query):
        try:
            cur = sql.Cursor(sql.tokenize(query))
        except QuerySyntaxError as e:
            raise NativeSyntaxError(f"keyvalue parse error: {e}") from e
        try:
            return self._run(cur)
        except QuerySyntaxError as e:
            raise NativeSyntaxError(f"keyvalue parse error: {e}") from e

    def _run(self, cur):
        verb = cur.expect_ident("command").lower
        if verb == "scan":
            return self._scan(cur)
        if verb == "grep":
            return self._grep(cur)
        if verb in ("matmul", "ewise"):
            return run_assoc_op(verb, cur, self._operand)
        cur.fail("expected SCAN, GREP, MATMUL, or EWISE")

    def _range(self, cur):
        lo_tok = cur.peek()
        if lo_tok.kind != "DQSTR":
            cur.fail("expected double-quoted range bound", {"DQSTR"})
        cur.next()
        cur.expect_op(":")
        hi_tok = cur.peek()
        if hi_tok.kind != "DQSTR":
            cur.fail("expected double-quoted range bound", {"DQSTR"})
        cur.next()
        return sql.unquote(lo_tok), sql.unquote(hi_tok)

    def _scan(self, cur):
        arr = self._get(cur.expect_ident("object name").text)
        row_rng = col_rng = None
        while cur.peek().kind == "IDENT":
            word = cur.next().lower
            if word == "rows":
                row_rng = self._range(cur)
            elif word == "cols":
                col_rng = self._range(cur)
            else:
                cur.fail("expected ROWS or COLS")
        cur.expect_end()
        hit = {
            (r, c): v
            for (r, c), v in arr.entries.items()
            if (row_rng is None or row_rng[0] <= r <= row_rng[1])
            and (col_rng is None or col_rng[0] <= c <= col_rng[1])
        }
        return entries_to_table(hit, arr.val_tag)

    def _grep(self, cur):
        arr = self._get(cur.expect_ident("object name").text)
        tok = cur.peek()
        if tok.kind != "DQSTR":
            cur.fail("expected double-quoted substring", {"DQSTR"})
        cur.next()
        cur.expect_end()
        needle = sql.unquote(tok)
        hit = {
            k: v for k, v in arr.entries.items()
            if isinstance(v, str) and needle in v
        }
        return entries_to_table(hit, arr.val_tag)

    def _operand(self, name, opname):
        arr = self._get(name)
        if not is_numeric_tag(arr.val_tag):
            raise TypeMismatchError(
                f"{opname} requires numeric values, {name!r} holds {arr.val_tag}"
            )
        return arr.entries, arr.val_tag
