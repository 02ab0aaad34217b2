"""Tokenizer and SELECT grammar shared by the relational engine and the
polystore query language.

The grammar::

    SELECT <items|*> FROM <tref> [JOIN <tref> ON col = col]
        [WHERE pred] [GROUP BY cols] [ORDER BY cols] [LIMIT n]

Keywords are case-insensitive; identifiers are case-sensitive. In
polystore mode a table reference may be a ``cast(...)`` expression,
parsed by a callback supplied by the query-language parser.
"""

import re
from dataclasses import dataclass, field
from decimal import Decimal

from .errors import QuerySyntaxError

# --- tokens ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<real>\d+\.\d+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sqstr>'(?:[^']|'')*')
  | (?P<dqstr>"(?:[^"]|"")*")
  | (?P<op><=|>=|!=|[-+*/=<>(),.:|])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str  # IDENT INT REAL SQSTR DQSTR OP EOF
    text: str
    start: int
    end: int

    @property
    def lower(self):
        return self.text.lower()


def tokenize(text):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise QuerySyntaxError(
                f"unexpected character {text[pos]!r}", (pos, pos + 1)
            )
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append(
            Token(
                {"ident": "IDENT", "int": "INT", "real": "REAL",
                 "sqstr": "SQSTR", "dqstr": "DQSTR", "op": "OP"}[kind],
                m.group(), m.start(), m.end(),
            )
        )
    tokens.append(Token("EOF", "", len(text), len(text)))
    return tokens


def unquote(tok):
    q = tok.text[0]
    return tok.text[1:-1].replace(q + q, q)


def quote_sq(s):
    return "'" + s.replace("'", "''") + "'"


def quote_dq(s):
    return '"' + s.replace('"', '""') + '"'


class Cursor:
    """Token stream with single-token lookahead and error helpers."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at_keyword(self, *words):
        tok = self.peek()
        return tok.kind == "IDENT" and tok.lower in words

    def accept_keyword(self, *words):
        if self.at_keyword(*words):
            return self.next()
        return None

    def expect_keyword(self, word):
        tok = self.accept_keyword(word)
        if tok is None:
            self.fail(f"expected {word.upper()}", {word.upper()})
        return tok

    def at_op(self, *ops):
        tok = self.peek()
        return tok.kind == "OP" and tok.text in ops

    def accept_op(self, *ops):
        if self.at_op(*ops):
            return self.next()
        return None

    def expect_op(self, op):
        tok = self.accept_op(op)
        if tok is None:
            self.fail(f"expected {op!r}", {op})
        return tok

    def expect_ident(self, what="identifier"):
        tok = self.peek()
        if tok.kind != "IDENT":
            self.fail(f"expected {what}", {"IDENT"})
        return self.next()

    def expect_end(self):
        if self.peek().kind != "EOF":
            self.fail("unexpected trailing input")

    def fail(self, message, expected=()):
        tok = self.peek()
        got = tok.text or "end of input"
        raise QuerySyntaxError(
            f"{message}, got {got!r}", (tok.start, tok.end), expected
        )


RESERVED = {
    "select", "from", "join", "on", "where", "group", "order", "by",
    "limit", "and", "or", "not", "as", "cast", "key",
}
AGG_FNS = ("count", "sum", "avg", "min", "max")
CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


# --- AST ------------------------------------------------------------------

def _span_field():
    return field(default=None, compare=False, repr=False)


@dataclass
class Col:
    qual: object  # str or None
    name: str
    span: tuple = _span_field()


@dataclass
class Lit:
    tag: str  # int real text
    value: object
    span: tuple = _span_field()

    @property
    def lexeme(self):
        if self.tag == "text":
            return quote_sq(self.value)
        if self.tag == "real":
            # the shortest digits that read back as the value, written
            # positionally and always with a point so that the tokenizer
            # reads a REAL: 1e-05 is 0.00001, 1e+16 is 10000000000000000.0
            text = format(Decimal(repr(float(self.value))), "f")
            return text if "." in text else text + ".0"
        return str(self.value)


@dataclass
class Bin:
    op: str  # + - * /
    left: object
    right: object
    span: tuple = _span_field()


@dataclass
class Agg:
    fn: str  # count sum avg min max
    arg: object  # Expr or None for COUNT(*)
    span: tuple = _span_field()


@dataclass
class Cmp:
    op: str
    left: object
    right: object
    span: tuple = _span_field()


@dataclass
class Logic:
    op: str  # and / or
    left: object
    right: object
    span: tuple = _span_field()


@dataclass
class Not:
    expr: object
    span: tuple = _span_field()


@dataclass
class SelectItem:
    expr: object
    alias: object  # str or None
    span: tuple = _span_field()


@dataclass
class TableRef:
    name: object  # str, or None when this ref is a cast
    alias: object  # str or None
    cast: object = None  # querylang CastNode when polystore-mode
    span: tuple = _span_field()

    @property
    def binding(self):
        """Name usable in column qualifiers."""
        if self.alias:
            return self.alias
        return self.name


@dataclass
class SelectStmt:
    items: object  # list of SelectItem, or None for '*'
    table: TableRef
    join: object  # (TableRef, Col, Col) or None
    where: object
    group_by: list
    order_by: list
    limit: object
    span: tuple = _span_field()

    def table_refs(self):
        refs = [self.table]
        if self.join:
            refs.append(self.join[0])
        return refs


# --- parsing ---------------------------------------------------------------

def _parse_colref(cur):
    first = cur.expect_ident("column name")
    if cur.at_op(".") and cur.peek(1).kind == "IDENT":
        cur.next()
        second = cur.next()
        return Col(first.text, second.text, span=(first.start, second.end))
    return Col(None, first.text, span=(first.start, first.end))


def _parse_literal_token(cur):
    tok = cur.peek()
    if tok.kind == "INT":
        cur.next()
        return Lit("int", int(tok.text), span=(tok.start, tok.end))
    if tok.kind == "REAL":
        cur.next()
        return Lit("real", float(tok.text), span=(tok.start, tok.end))
    if tok.kind == "SQSTR":
        cur.next()
        return Lit("text", unquote(tok), span=(tok.start, tok.end))
    return None


def _parse_factor(cur):
    tok = cur.peek()
    if cur.at_op("-"):
        start = cur.next().start
        inner = _parse_factor(cur)
        if isinstance(inner, Lit) and inner.tag in ("int", "real"):
            return Lit(inner.tag, -inner.value, span=(start, inner.span[1]))
        return Bin("-", Lit("int", 0), inner, span=(start, inner.span[1]))
    lit = _parse_literal_token(cur)
    if lit is not None:
        return lit
    if cur.at_op("("):
        cur.next()
        e = parse_expr(cur)
        cur.expect_op(")")
        return e
    if tok.kind == "IDENT" and tok.lower in AGG_FNS and cur.peek(1).text == "(":
        cur.next()
        cur.expect_op("(")
        if tok.lower == "count" and cur.at_op("*"):
            cur.next()
            end = cur.expect_op(")")
            return Agg("count", None, span=(tok.start, end.end))
        arg = parse_expr(cur)
        end = cur.expect_op(")")
        return Agg(tok.lower, arg, span=(tok.start, end.end))
    if tok.kind == "IDENT" and tok.lower not in RESERVED:
        return _parse_colref(cur)
    cur.fail("expected expression", {"expression"})


def _parse_term(cur):
    e = _parse_factor(cur)
    while cur.at_op("*", "/"):
        op = cur.next()
        r = _parse_factor(cur)
        e = Bin(op.text, e, r, span=(e.span[0], r.span[1]))
    return e


def parse_expr(cur):
    e = _parse_term(cur)
    while cur.at_op("+", "-"):
        op = cur.next()
        r = _parse_term(cur)
        e = Bin(op.text, e, r, span=(e.span[0], r.span[1]))
    return e


def _parse_cmp(cur):
    # backtracking: '(' may open a grouped predicate or a grouped expression
    if cur.at_op("("):
        mark = cur.pos
        cur.next()
        try:
            pred = parse_pred(cur)
            cur.expect_op(")")
            if not cur.at_op(*CMP_OPS):
                return pred
        except QuerySyntaxError:
            pass
        cur.pos = mark
    left = parse_expr(cur)
    if not cur.at_op(*CMP_OPS):
        cur.fail("expected comparison operator", set(CMP_OPS))
    op = cur.next()
    right = parse_expr(cur)
    return Cmp(op.text, left, right, span=(left.span[0], right.span[1]))


def _parse_not(cur):
    tok = cur.accept_keyword("not")
    if tok:
        inner = _parse_not(cur)
        return Not(inner, span=(tok.start, inner.span[1]))
    return _parse_cmp(cur)


def _parse_and(cur):
    e = _parse_not(cur)
    while cur.at_keyword("and"):
        cur.next()
        r = _parse_not(cur)
        e = Logic("and", e, r, span=(e.span[0], r.span[1]))
    return e


def parse_pred(cur):
    e = _parse_and(cur)
    while cur.at_keyword("or"):
        cur.next()
        r = _parse_and(cur)
        e = Logic("or", e, r, span=(e.span[0], r.span[1]))
    return e


def _parse_table_ref(cur, cast_parser):
    tok = cur.peek()
    if cast_parser is not None and tok.lower == "cast" and cur.peek(1).text == "(":
        cast = cast_parser(cur)
        ref = TableRef(None, None, cast=cast, span=cast.span)
    else:
        name = cur.expect_ident("table name")
        if name.lower in RESERVED:
            cur.fail("expected table name", {"IDENT"})
        ref = TableRef(name.text, None, span=(name.start, name.end))
    nxt = cur.peek()
    if nxt.kind == "IDENT" and nxt.lower not in RESERVED:
        alias = cur.next()
        ref.alias = alias.text
        ref.span = (ref.span[0], alias.end)
    elif ref.cast is not None and ref.cast.alias:
        ref.alias = ref.cast.alias
    return ref


def _parse_col_list(cur):
    cols = [_parse_colref(cur)]
    while cur.accept_op(","):
        cols.append(_parse_colref(cur))
    return cols


def parse_select(cur, cast_parser=None):
    start = cur.expect_keyword("select").start
    if cur.at_op("*"):
        cur.next()
        items = None
    else:
        items = []
        while True:
            e = parse_expr(cur)
            alias = None
            if cur.accept_keyword("as"):
                alias = cur.expect_ident("alias").text
            items.append(SelectItem(e, alias, span=e.span))
            if not cur.accept_op(","):
                break
    cur.expect_keyword("from")
    table = _parse_table_ref(cur, cast_parser)
    join = None
    if cur.accept_keyword("join"):
        jref = _parse_table_ref(cur, cast_parser)
        cur.expect_keyword("on")
        lcol = _parse_colref(cur)
        cur.expect_op("=")
        rcol = _parse_colref(cur)
        join = (jref, lcol, rcol)
    where = None
    if cur.accept_keyword("where"):
        where = parse_pred(cur)
    group_by = []
    if cur.accept_keyword("group"):
        cur.expect_keyword("by")
        group_by = _parse_col_list(cur)
    order_by = []
    if cur.accept_keyword("order"):
        cur.expect_keyword("by")
        order_by = _parse_col_list(cur)
    limit = None
    if cur.accept_keyword("limit"):
        tok = cur.peek()
        if tok.kind != "INT":
            cur.fail("expected integer after LIMIT", {"INT"})
        cur.next()
        limit = int(tok.text)
    end = cur.peek().start
    return SelectStmt(items, table, join, where, group_by, order_by, limit,
                      span=(start, end))


def parse_select_text(text, cast_parser=None):
    cur = Cursor(tokenize(text))
    stmt = parse_select(cur, cast_parser)
    cur.expect_end()
    return stmt


# --- pretty printing --------------------------------------------------------

def pp_expr(e, normalize=False):
    if isinstance(e, Col):
        return f"{e.qual}.{e.name}" if e.qual else e.name
    if isinstance(e, Lit):
        return "?" if normalize else e.lexeme
    if isinstance(e, Bin):
        return f"{pp_expr(e.left, normalize)} {e.op} {pp_expr(e.right, normalize)}"
    if isinstance(e, Agg):
        arg = "*" if e.arg is None else pp_expr(e.arg, normalize)
        return f"{e.fn.upper()}({arg})"
    if isinstance(e, Cmp):
        return f"{pp_expr(e.left, normalize)} {e.op} {pp_expr(e.right, normalize)}"
    if isinstance(e, Logic):
        return f"({pp_expr(e.left, normalize)} {e.op.upper()} {pp_expr(e.right, normalize)})"
    if isinstance(e, Not):
        return f"NOT {pp_expr(e.expr, normalize)}"
    raise TypeError(f"not an expression node: {e!r}")


def pp_select(stmt, table_name_fn=None, normalize=False):
    """Render a SELECT. table_name_fn maps a TableRef to its printed name
    (used to substitute temp objects for cast references)."""

    def ref_text(ref):
        if table_name_fn is not None:
            base = table_name_fn(ref)
        elif ref.name is not None:
            base = ref.name
        else:
            raise TypeError("cast table ref needs a table_name_fn")
        if ref.cast is not None and ref.alias == getattr(ref.cast, "alias", None):
            return base
        if ref.alias and ref.alias != base:
            return f"{base} {ref.alias}"
        return base

    if stmt.items is None:
        items = "*"
    else:
        parts = []
        for it in stmt.items:
            s = pp_expr(it.expr, normalize)
            if it.alias:
                s += f" AS {it.alias}"
            parts.append(s)
        items = ", ".join(parts)
    out = [f"SELECT {items} FROM {ref_text(stmt.table)}"]
    if stmt.join:
        jref, lcol, rcol = stmt.join
        out.append(
            f"JOIN {ref_text(jref)} ON {pp_expr(lcol)} = {pp_expr(rcol)}"
        )
    if stmt.where is not None:
        out.append("WHERE " + pp_expr(stmt.where, normalize))
    if stmt.group_by:
        out.append("GROUP BY " + ", ".join(pp_expr(c) for c in stmt.group_by))
    if stmt.order_by:
        out.append("ORDER BY " + ", ".join(pp_expr(c) for c in stmt.order_by))
    if stmt.limit is not None:
        out.append("LIMIT " + ("?" if normalize else str(stmt.limit)))
    return " ".join(out)


def collect_literals(node, out):
    """Append the lexemes of every literal under an expression/stmt node."""
    if isinstance(node, Lit):
        out.append(node.lexeme)
    elif isinstance(node, (Bin, Cmp, Logic)):
        collect_literals(node.left, out)
        collect_literals(node.right, out)
    elif isinstance(node, Not):
        collect_literals(node.expr, out)
    elif isinstance(node, Agg):
        if node.arg is not None:
            collect_literals(node.arg, out)
    elif isinstance(node, SelectStmt):
        for it in node.items or []:
            collect_literals(it.expr, out)
        if node.where is not None:
            collect_literals(node.where, out)
        if node.limit is not None:
            out.append(str(node.limit))
