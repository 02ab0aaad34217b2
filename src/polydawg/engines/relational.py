"""Embedded relational engine with a small SQL dialect.

SELECT/JOIN/WHERE/GROUP BY/ORDER BY/LIMIT over bag-typed relations,
compiled once per statement (``compile_select``), which validation and
the array engine's FILTER use too. Compiling checks every type: int and
real compare as numbers, and text against a number is an error. JOIN is
a hash equi-join in which NULL keys never match. ORDER BY ties are
broken by full-tuple lexicographic order so results are deterministic.

Compiling writes the statement as the source of one Python function:
one loop probes the join, tests WHERE and projects or groups each pair
of rows, building a joined row only for ``SELECT *``; ORDER BY sorts,
or with LIMIT keeps a top-k. The source holds only slot indexes,
operators from fixed tables and generated names; literals are values
bound in its namespace, so no query text ever enters it. GROUP BY keeps
each aggregate's non-null values in row order, an argument's error waits
until its group is reduced, and the helpers are those of the closure
compiler it replaced (``tests/select_reference.py``), so every result
and first error is the same. Code is compiled once per source text.
"""

import functools
import heapq
from collections import namedtuple
from dataclasses import dataclass, field

from .. import sql
from ..canonical import CanonicalTable
from ..errors import (
    CatalogError, NativeSyntaxError, QuerySyntaxError, SchemaError,
    TypeMismatchError,
)
from ..values import INT, REAL, TEXT, finite
from .base import Engine


@dataclass
class Relation:
    name: str
    schema: list
    key: object  # tuple of column names or None
    rows: list = field(default_factory=list)


class RelationalEngine(Engine):
    model = "relational"

    def _build(self, name, table, options):
        key = options.get("key")
        if key:
            key = tuple(key)
            idx = [table.column_index(k) for k in key]
            seen = set()
            for row in table.rows:
                proj = tuple(row[i] for i in idx)
                if any(v is None for v in proj):
                    raise SchemaError(f"null in key column of {name!r}")
                if proj in seen:
                    raise SchemaError(f"duplicate key {proj!r} in {name!r}")
                seen.add(proj)
        else:
            key = None
        return Relation(name, list(table.schema), key, list(table.rows))

    def load_options_for(self, name):
        rel = self._get(name)
        return {"key": list(rel.key)} if rel.key else {}

    def export(self, name):
        rel = self._get(name)
        return CanonicalTable.trusted(list(rel.schema), list(rel.rows))

    def schema_of(self, name):
        return list(self._get(name).schema)

    def execute_native(self, query):
        try:
            stmt = sql.parse_select_text(query)
        except QuerySyntaxError as e:
            raise NativeSyntaxError(f"relational parse error: {e}") from e
        refs = stmt.table_refs()
        tables = {ref.binding: self._get(ref.name) for ref in refs}
        compiled = compile_select(
            stmt, {b: t.schema for b, t in tables.items()})
        return compiled.run(*(tables[ref.binding].rows for ref in refs))


# --- SELECT compilation -------------------------------------------------------

class _Scope:
    """Column slots of the table refs' rows, read as ``_l[i]`` or ``_x[j]``."""

    def __init__(self, tables):  # (binding, schema) per table ref
        self.columns = [(b, n, t) for b, schema in tables for n, t in schema]
        self.n_left = len(tables[0][1])

    def code(self, i):
        return f"_l[{i}]" if i < self.n_left else f"_x[{i - self.n_left}]"

    def resolve(self, col):
        hits = [
            i for i, (b, n, _) in enumerate(self.columns)
            if n == col.name and (col.qual is None or col.qual == b)
        ]
        if not hits:
            raise CatalogError(f"unknown column {sql.pp_expr(col)!r}",
                               col.span)
        if len(hits) > 1:
            raise SchemaError(f"ambiguous column {sql.pp_expr(col)!r}",
                              col.span)
        return hits[0]

    def tag_at(self, i):
        return self.columns[i][2]


def _infer_tag(expr, scope):
    if isinstance(expr, sql.Col):
        return scope.tag_at(scope.resolve(expr))
    if isinstance(expr, sql.Lit):
        return expr.tag
    if isinstance(expr, sql.Bin):
        lt = _infer_tag(expr.left, scope)
        rt = _infer_tag(expr.right, scope)
        if TEXT in (lt, rt):
            raise TypeMismatchError(
                f"arithmetic over text: {sql.pp_expr(expr)}", expr.span)
        if expr.op == "/":
            return REAL
        return INT if lt == rt == INT else REAL
    if isinstance(expr, sql.Agg):
        if expr.fn == "count":
            return INT
        arg = _infer_tag(expr.arg, scope)
        if expr.fn in ("avg", "sum") and arg == TEXT:
            raise TypeMismatchError(f"{expr.fn.upper()} over text", expr.span)
        return REAL if expr.fn == "avg" else arg  # sum/min/max keep the tag
    raise TypeMismatchError(f"not a value expression: {sql.pp_expr(expr)}",
                            expr.span)


def _divide(a, b):
    if b == 0:
        raise TypeMismatchError("division by zero")
    return a / b


def _check_comparable(lt, rt, span):
    """Raise unless values of tags ``lt`` and ``rt`` compare: text only
    with text, and int with real as numbers."""
    if (lt == TEXT) != (rt == TEXT):
        raise TypeMismatchError(f"cross-tag comparison: {lt} vs {rt}", span)


# --- source generation --------------------------------------------------------

_ARITH = {"+": "({} + {})", "-": "({} - {})", "*": "({} * {})",
          "/": "_divide({}, {})"}
_CMP = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_LOGIC = {"and": "and", "or": "or"}


class _Failed(list):
    """Values of an aggregate whose argument first raised ``self[0]`` in
    a group; every reduction takes their length first, which raises it."""

    def __len__(self):
        raise self[0]


_HELPERS = {"__builtins__": {}, "_divide": _divide, "_finite": finite,
            "_len": len, "_sum": sum, "_min": min, "_max": max,
            "_fault": TypeMismatchError, "_nsmallest": heapq.nsmallest,
            "_fail": lambda values, error: (
                values if isinstance(values, _Failed) else _Failed([error]))}


# each benchmark workload runs at most 9 shapes, and a code object takes
# about 2 KB, so a full cache stays near 0.15 MB
@functools.lru_cache(maxsize=64)
def _code(source):
    """The code object of generated ``source``, compiled once per text."""
    return compile(source, "<select>", "exec")


# the source of a value over the rows ``_l`` and ``_x``; whether it may be
# null; whether it is a slot or a bound name, cheap to repeat; and, for
# arithmetic over nullable operands, its null test and its value otherwise
_Expr = namedtuple("_Expr", "code nullable simple null value",
                   defaults=(None, None))


def _items(codes):
    """The items of a tuple display of ``codes``."""
    return "".join(f"{code}, " for code in codes)


class _Emitter:
    """Writes a statement's expressions as source over the rows ``_l`` and
    ``_x``, resolving and checking them as it goes. ``names`` binds each
    literal, aggregate and helper to the generated name that stands for it."""

    def __init__(self, scope):
        self.scope = scope
        self.names = dict(_HELPERS)
        self.temps = 0

    def bind(self, value):
        name = f"_v{len(self.names)}"
        self.names[name] = value
        return name

    def twice(self, e):
        """Source that evaluates ``e``, and source that reads it again."""
        if e.simple:
            return e.code, e.code
        self.temps += 1
        return f"(_t{self.temps} := {e.code})", f"_t{self.temps}"

    def scalar(self, expr):
        """Arithmetic over text and an aggregate outside grouping raise
        here; only division by zero waits for a row."""
        if isinstance(expr, sql.Col):
            return _Expr(self.scope.code(self.scope.resolve(expr)), True, True)
        if isinstance(expr, sql.Lit):
            return _Expr(self.bind(expr.value), False, True)
        if isinstance(expr, sql.Agg):
            raise SchemaError("aggregate used outside a grouping context",
                              expr.span)
        _infer_tag(expr, self.scope)  # raises for arithmetic over text
        a, b = self.scalar(expr.left), self.scalar(expr.right)
        if not (a.nullable or b.nullable):
            return _Expr(_ARITH[expr.op].format(a.code, b.code), False, False)
        nulls, (x, y) = self.operands(a, b)
        value = _ARITH[expr.op].format(x, y)
        return _Expr(f"(None if {nulls} else {value})", True, False, nulls,
                     value)

    def operands(self, a, b):
        """The test that ``a`` or ``b`` is null, and the source reading
        each again. The test evaluates both in order, whatever the first
        gives, so a division by zero raises as it did in the closures."""
        tests, again = [], []
        for e in (a, b):
            if e.nullable or not e.simple:
                first, code = self.twice(e)
                tests.append(f"({first} is None)")
            else:
                code = e.code
            again.append(code)
        return " | ".join(tests), again

    def compare(self, pred):
        a, b = self.scalar(pred.left), self.scalar(pred.right)
        _check_comparable(_infer_tag(pred.left, self.scope),
                          _infer_tag(pred.right, self.scope), pred.span)
        op = _CMP[pred.op]
        if not (a.nullable or b.nullable):
            return f"({a.code} {op} {b.code})"
        nulls, (x, y) = self.operands(a, b)
        # null sorts below every value and equals itself
        return (f"(({x} is not None) {op} ({y} is not None) if {nulls} "
                f"else {x} {op} {y})")

    def predicate(self, pred):
        """Source of a WHERE or FILTER predicate; null equals itself."""
        if isinstance(pred, sql.Cmp):
            return self.compare(pred)
        if isinstance(pred, sql.Logic):
            left, right = self.predicate(pred.left), self.predicate(pred.right)
            return f"({left} {_LOGIC[pred.op]} {right})"
        if isinstance(pred, sql.Not):
            return f"(not {self.predicate(pred.expr)})"
        raise TypeMismatchError("WHERE requires a predicate", pred.span)


def _join(stmt, scope):
    """The lines that prepare ``JOIN ... ON a = b`` over ``_rows`` and
    ``_rows1``, and the source of the rows ``_x`` each row ``_l`` meets.
    NULL keys never match, and an int key matches a real one of equal
    value; a text key against a number raises here."""
    _, lcol, rcol = stmt.join
    a, b = scope.resolve(lcol), scope.resolve(rcol)
    _check_comparable(scope.tag_at(a), scope.tag_at(b),
                      (lcol.span[0], rcol.span[1]))
    x, y = scope.code(a), scope.code(b)
    if (a < scope.n_left) == (b < scope.n_left):
        # both ON columns name one table: filter it, then pair every row
        row, rows = ("_l", "_rows") if a < scope.n_left else ("_x", "_rows1")
        return [f"{rows} = [{row} for {row} in {rows} "
                f"if {x} is not None and {x} == {y}]"], "_rows1"
    lkey, rkey = (x, y) if a < b else (y, x)
    return ["_index = {}", "for _x in _rows1:", f"    if {rkey} is not None:",
            f"        _index.setdefault({rkey}, []).append(_x)"], \
        f"_index.get({lkey}, ())"


def _has_agg(expr):
    if isinstance(expr, sql.Agg):
        return True
    if isinstance(expr, sql.Bin):
        return _has_agg(expr.left) or _has_agg(expr.right)
    return False


def _derived_name(expr):
    if isinstance(expr, sql.Col):
        return expr.name
    if isinstance(expr, sql.Agg):
        return expr.fn
    return "expr"


# each aggregate over the source ``{0}`` of a group's non-null values
_AGG_SOURCE = {"count": "_len({0})", "sum": "_sum({0})", "min": "_min({0})",
               "max": "_max({0})", "avg": "_sum({0}) / _len({0})"}


def _aggregate(agg, i, emit):
    """Lines adding a row to ``_g[i]``, the state of ``agg`` in its group
    (a count for COUNT(*), else the argument's non-null values in row
    order); the state's initial source; and the aggregate's source."""
    g = f"_g[{i}]"
    if agg.arg is None:  # a row is never null
        return [f"{g} += 1"], "0", g
    arg = emit.scalar(agg.arg)
    add = (f"if not ({arg.null}): {g}.append({arg.value})" if arg.null else
           f"if (_a := {arg.code}) is not None: {g}.append(_a)"
           if arg.nullable else f"{g}.append({arg.code})")
    lines = ["try:", f"    {add}", "except _fault as _e:",
             f"    {g} = _fail({g}, _e)"]
    value = _AGG_SOURCE[agg.fn].format(g)
    if _infer_tag(agg, emit.scope) == REAL:  # arithmetic may overflow
        value = f"_finite({value})"
    return lines, "[]", (value if agg.fn == "count"
                         else f"({value} if {g} else None)")


def _projection(stmt, emit, clauses):
    """Output schema and the source of the projection or the GROUP BY loop
    inside ``clauses``: the probe of the rows, then the WHERE test, in the
    order of a comprehension's clauses."""
    scope, items = emit.scope, stmt.items
    pair = "_l, _x" if stmt.join else "_l"
    if not stmt.group_by and not any(_has_agg(it.expr) for it in items or []):
        if items is None:  # the joined row is built only to be output
            schema = [(n, t) for _, n, t in scope.columns]
            out = "_l + _x" if stmt.join else "_l"
        else:
            schema = [(it.alias or _derived_name(it.expr),
                       _infer_tag(it.expr, scope)) for it in items]
            cells = []
            for it, (_, tag) in zip(items, schema):
                code = emit.scalar(it.expr).code
                # a computed real may have overflowed
                computed = tag == REAL and not isinstance(it.expr, sql.Col)
                cells.append(f"_finite({code})" if computed else code)
            out = f"({_items(cells)})"
        if stmt.where is not None and not all(
                isinstance(it.expr, (sql.Col, sql.Lit)) for it in items or []):
            # WHERE raises for any row before a projection does
            return schema, [f"_rows = [({pair}) {' '.join(clauses)}]",
                            f"_rows = [{out} for {pair} in _rows]"]
        return schema, [f"_rows = [{out} {' '.join(clauses)}]"]
    if items is None:
        raise SchemaError("SELECT * cannot be combined with grouping")
    gidx = [scope.resolve(c) for c in stmt.group_by]
    schema, cells, states, body = [], [], [], []
    for it in items:
        if _has_agg(it.expr):
            if not isinstance(it.expr, sql.Agg):
                raise SchemaError("aggregates cannot be nested in arithmetic")
            add, state, cell = _aggregate(it.expr, len(states), emit)
            body, states, cells = body + add, states + [state], cells + [cell]
        elif not isinstance(it.expr, sql.Col) or scope.resolve(it.expr) not in gidx:
            raise SchemaError(
                f"non-aggregate select item {sql.pp_expr(it.expr)!r} "
                "is not in GROUP BY"
            )
        else:
            pos = gidx.index(scope.resolve(it.expr))
            cells.append(f"_k[{pos}]" if len(gidx) > 1 else "_k")
        schema.append((it.alias or _derived_name(it.expr), _infer_tag(it.expr, scope)))
    # each row adds itself to its group, and each group gives one row
    init, out = f"[{', '.join(states)}]", f"({_items(cells)})"
    head = [f"_g = {init}"]
    if gidx:
        keys = [scope.code(i) for i in gidx]
        head = ["_groups = {}", "_get = _groups.get"]
        body = [f"_k = {keys[0] if len(keys) == 1 else f'({_items(keys)})'}",
                "_g = _get(_k)", "if _g is None:",
                f"    _g = _groups[_k] = {init}"] + body
        out += " for _k, _g in _groups.items()"
    pad = "    " * len(clauses)
    return schema, (head + [f"{'    ' * d}{c}:" for d, c in enumerate(clauses)]
                    + [pad + line for line in body] + [f"_rows = [{out}]"])


def _ordering(stmt, schema, emit):
    """Source of the ORDER BY and LIMIT stage: a sort, or a top-k for LIMIT,
    by ``row_sort_key`` of the ORDER BY columns and then of the whole row."""
    names = [n for n, _ in schema]
    keys = []
    for c in stmt.order_by:
        if c.qual is not None or c.name not in names:
            raise CatalogError(f"ORDER BY column {sql.pp_expr(c)!r} not in output")
        keys.append(names.index(c.name))
    if not keys and stmt.limit is None:
        return []
    key = "".join(f"_r[{i}] is not None, _r[{i}], "
                  for i in keys + list(range(len(schema))))
    if stmt.limit is None:
        return [f"_rows.sort(key=lambda _r: ({key}))"]
    return [f"_rows = _nsmallest({emit.bind(stmt.limit)}, _rows, "
            f"key=lambda _r: ({key}))"]


@dataclass
class CompiledSelect:
    """A SELECT bound to its input schemas: the output schema, and the
    source of the function that evaluates the statement over rows."""

    schema: list  # output (name, tag) pairs
    source: str  # defines _select(rows, join rows) -> output rows
    names: dict  # the value of each generated name in the source
    _select: object = field(default=None, repr=False)

    def run(self, rows, join_rows=None):
        """Evaluate over the rows of the FROM table and the JOIN table."""
        if self._select is None:
            exec(_code(self.source), self.names)
            self._select = self.names["_select"]
        return CanonicalTable.trusted(self.schema,
                                      self._select(rows, join_rows))


def compile_select(stmt, table_schemas):
    """Compile a SELECT over ``binding -> schema`` once. Unknown or
    ambiguous columns, grouping errors and ORDER BY columns missing from
    the output raise here, before any row is read. Table refs are keyed
    by binding, so two refs may not share one."""
    refs = stmt.table_refs()
    if len(refs) == 2 and refs[0].binding == refs[1].binding:
        raise SchemaError(f"duplicate table binding {refs[1].binding!r}")
    emit = _Emitter(_Scope([(ref.binding, table_schemas[ref.binding])
                            for ref in refs]))
    stages, clauses = [], ["for _l in _rows"]
    if stmt.join:
        stages, rows1 = _join(stmt, emit.scope)
        clauses.append(f"for _x in {rows1}")
    if stmt.where is not None:
        clauses.append(f"if {emit.predicate(stmt.where)}")
    schema, project = _projection(stmt, emit, clauses)
    stages += project + _ordering(stmt, schema, emit)
    source = "\n    ".join(
        ["def _select(_rows, _rows1):", *stages, "return _rows"])
    return CompiledSelect(schema, source, emit.names)
