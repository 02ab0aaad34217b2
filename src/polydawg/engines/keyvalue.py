"""Key-value engine over the associative-array data model.

Objects are maps from (row-key, col-key) string pairs to values, kept
in row-major lexicographic order. The native language covers range
scans, value grep, and the D4M-style semiring matmul / elementwise ops.
"""

import operator
from dataclasses import dataclass

from .. import sql
from ..errors import NativeSyntaxError, QuerySyntaxError, SchemaError, TypeMismatchError
from ..migrator import entries_to_table, triple_schema
from ..values import REAL, TEXT, finite, is_numeric_tag
from .base import Engine

SEMIRINGS = {
    "plus.times": (lambda a, b: a + b, lambda a, b: a * b),
    "min.plus": (min, lambda a, b: a + b),
    "max.times": (max, lambda a, b: a * b),
}


@dataclass
class AssociativeArray:
    name: str
    entries: dict  # (row-key, col-key) -> value
    val_tag: str = REAL


def assoc_matmul(a_entries, b_entries, semiring="plus.times"):
    """C(r,c) = oplus_k A(r,k) otimes B(k,c) over keys present in both.
    Every value is numeric: ``run_assoc_op`` takes only operands whose
    value tag is. Terms are combined in the order of A's entries, and
    ``plus.times`` runs inline, with the same floats as its lambdas."""
    try:
        oplus, otimes = SEMIRINGS[semiring]
    except KeyError:
        raise SchemaError(f"unknown semiring {semiring!r}") from None
    a_rows = {}
    for (r, k), v in a_entries.items():
        a_rows.setdefault(r, {})[k] = v
    b_rows = {}
    for (k, c), v in b_entries.items():
        b_rows.setdefault(k, {})[c] = v
    plus_times = semiring == "plus.times"
    out = {}
    for r, arow in a_rows.items():
        acc = {}
        get = acc.get  # values are never null
        for k, av in arow.items():
            brow = b_rows.get(k)
            if brow is None:
                continue
            if plus_times:
                for c, bv in brow.items():
                    s = get(c)
                    acc[c] = av * bv if s is None else s + av * bv
            else:
                for c, bv in brow.items():
                    term = otimes(av, bv)
                    acc[c] = term if c not in acc else oplus(acc[c], term)
        for c, v in acc.items():
            out[(r, c)] = v
    return out


def assoc_ewise(a_entries, b_entries, op="plus"):
    """Union of key sets; the op applies on overlap, copies elsewhere."""
    fns = {"plus": operator.add, "min": min, "max": max}
    try:
        fn = fns[op]
    except KeyError:
        raise SchemaError(f"unknown elementwise op {op!r}") from None
    out = dict(a_entries)
    for key, bv in b_entries.items():
        out[key] = fn(out[key], bv) if key in out else bv
    return out


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
    entries, tag = run(ae, be, how), result_tag(atag, btag)
    if tag != atag or tag != btag:  # int meets real: every value is real
        entries = {k: float(v) for k, v in entries.items()}
    if tag == REAL:
        for v in entries.values():
            finite(v)
    return entries_to_table(entries, tag)


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
