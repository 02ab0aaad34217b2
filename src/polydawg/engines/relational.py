"""Embedded relational engine with a small SQL dialect.

SELECT/JOIN/WHERE/GROUP BY/ORDER BY/LIMIT over bag-typed relations,
compiled once per statement (``compile_select``), which validation and
the array engine's FILTER use too. Compiling checks every type: int and
real compare as numbers, and text against a number is an error. JOIN is
a hash equi-join in which NULL keys never match. ORDER BY ties are
broken by full-tuple lexicographic order so results are deterministic.
"""

import operator
from dataclasses import dataclass, field

from .. import sql
from ..canonical import CanonicalTable
from ..errors import (
    CatalogError, NativeSyntaxError, QuerySyntaxError, SchemaError,
    TypeMismatchError,
)
from ..values import INT, REAL, TEXT, finite, row_sort_key
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
    """Column slots of the concatenated row of all table refs."""

    def __init__(self, tables):  # (binding, schema) per table ref
        self.columns = [(b, n, t) for b, schema in tables for n, t in schema]

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


def _getter(idx):
    """``row -> tuple`` of the values at the slots ``idx``."""
    if len(idx) == 1:
        (i,) = idx
        return lambda row: (row[i],)
    return operator.itemgetter(*idx)


def _divide(a, b):
    if b == 0:
        raise TypeMismatchError("division by zero")
    return a / b


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}
_CMP = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _scalar(expr, scope):
    """``row -> value`` for a scalar expression. Arithmetic over text and
    an aggregate outside grouping raise here; only division by zero
    waits for a row, in the closure."""
    if isinstance(expr, sql.Col):
        return operator.itemgetter(scope.resolve(expr))
    if isinstance(expr, sql.Lit):
        value = expr.value
        return lambda row: value
    if isinstance(expr, sql.Agg):
        raise SchemaError("aggregate used outside a grouping context",
                          expr.span)
    _infer_tag(expr, scope)  # raises for arithmetic over text
    left, right = _scalar(expr.left, scope), _scalar(expr.right, scope)
    op = _ARITH[expr.op]

    def arith(row):
        a, b = left(row), right(row)
        if a is None or b is None:
            return None
        return op(a, b)
    return arith


def _check_comparable(lt, rt, span):
    """Raise unless values of tags ``lt`` and ``rt`` compare: text only
    with text, and int with real as numbers."""
    if (lt == TEXT) != (rt == TEXT):
        raise TypeMismatchError(f"cross-tag comparison: {lt} vs {rt}", span)


def _pred(pred, scope):
    """``row -> bool`` for a WHERE or FILTER predicate, whose comparisons
    are checked here. Null sorts below every value and equals itself."""
    if isinstance(pred, sql.Cmp):
        left, right = _scalar(pred.left, scope), _scalar(pred.right, scope)
        _check_comparable(_infer_tag(pred.left, scope),
                          _infer_tag(pred.right, scope), pred.span)
        test = _CMP[pred.op]

        def compare(row):
            a, b = left(row), right(row)
            if a is None or b is None:
                return test(a is not None, b is not None)
            return test(a, b)
        return compare
    if isinstance(pred, sql.Logic):
        left, right = _pred(pred.left, scope), _pred(pred.right, scope)
        if pred.op == "and":
            return lambda row: left(row) and right(row)
        return lambda row: left(row) or right(row)
    if isinstance(pred, sql.Not):
        inner = _pred(pred.expr, scope)
        return lambda row: not inner(row)
    raise TypeMismatchError("WHERE requires a predicate", pred.span)


def compile_predicate(pred, binding, schema):
    """``row -> bool`` for ``pred`` over the rows of one table."""
    return _pred(pred, _Scope([(binding, schema)]))


def _join(stmt, scope, n_left):
    """``(left rows, right rows) -> joined rows`` for ``JOIN ... ON a = b``,
    in left-major order. NULL keys never match, and an int key matches a
    real one of equal value; a text key against a number raises here."""
    _, lcol, rcol = stmt.join
    a, b = scope.resolve(lcol), scope.resolve(rcol)
    _check_comparable(scope.tag_at(a), scope.tag_at(b),
                      (lcol.span[0], rcol.span[1]))
    if (a < n_left) == (b < n_left):  # both ON columns name one table
        def on(row):
            x, y = row[a], row[b]
            return x is not None and x == y
        return lambda left_rows, right_rows: [
            row for row in (lrow + rrow for lrow in left_rows
                            for rrow in right_rows) if on(row)]
    lkey, rkey = (a, b - n_left) if a < n_left else (b, a - n_left)

    def hash_join(left_rows, right_rows):
        index = {}
        for r in right_rows:
            if r[rkey] is not None:
                index.setdefault(r[rkey], []).append(r)
        return [lrow + rrow for lrow in left_rows
                for rrow in index.get(lrow[lkey], ())]
    return hash_join


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


_AGG_FNS = {"count": len, "sum": sum, "min": min, "max": max,
            "avg": lambda vals: sum(vals) / len(vals)}


def aggregator(fn, tag):
    """``values -> value`` of the aggregate ``fn`` whose result has
    ``tag``. Nulls are dropped, and no values give null except for COUNT.
    A real result is checked to be finite, as a sum or its operands'
    arithmetic may have overflowed."""
    reduce, count = _AGG_FNS[fn], fn == "count"

    def aggregate(values):
        vals = [v for v in values if v is not None]
        return reduce(vals) if vals or count else None
    if tag == REAL:
        return lambda values: finite(aggregate(values))
    return aggregate


def _aggregate(agg, scope):
    """``(group key, group rows) -> value`` for one aggregate item."""
    if agg.fn == "count" and agg.arg is None:
        return lambda key, rows: len(rows)
    arg = _scalar(agg.arg, scope)
    aggregate = aggregator(agg.fn, _infer_tag(agg, scope))
    return lambda key, rows: aggregate(map(arg, rows))


def _computed(fn, expr, tag):
    """``row -> value`` of the output column ``expr`` of ``tag``; a real
    that arithmetic computed is checked to be finite, as it may have
    overflowed."""
    if tag != REAL or isinstance(expr, sql.Col):
        return fn
    return lambda row: finite(fn(row))


def _projection(stmt, scope):
    """Output schema and ``rows -> output rows``, grouping included."""
    items = stmt.items
    if not stmt.group_by and not any(_has_agg(it.expr) for it in items or []):
        if items is None:
            # a copy, so a result never shares a stored relation's list
            return [(n, t) for _, n, t in scope.columns], list
        schema = [(it.alias or _derived_name(it.expr), _infer_tag(it.expr, scope))
                  for it in items]
        fns = [_computed(_scalar(it.expr, scope), it.expr, tag)
               for it, (_, tag) in zip(items, schema)]
        return schema, lambda rows: [tuple([f(r) for f in fns]) for r in rows]
    if items is None:
        raise SchemaError("SELECT * cannot be combined with grouping")
    gidx = [scope.resolve(c) for c in stmt.group_by]
    schema, cells = [], []  # cells: (group key, group rows) -> value
    for it in items:
        if _has_agg(it.expr):
            if not isinstance(it.expr, sql.Agg):
                raise SchemaError("aggregates cannot be nested in arithmetic")
            cells.append(_aggregate(it.expr, scope))
        elif not isinstance(it.expr, sql.Col) or scope.resolve(it.expr) not in gidx:
            raise SchemaError(
                f"non-aggregate select item {sql.pp_expr(it.expr)!r} "
                "is not in GROUP BY"
            )
        else:
            pos = gidx.index(scope.resolve(it.expr))
            cells.append(lambda key, rows, pos=pos: key[pos])
        schema.append((it.alias or _derived_name(it.expr), _infer_tag(it.expr, scope)))
    group_key = _getter(gidx) if gidx else None

    def group(rows):
        if group_key is None:
            groups = {(): rows}
        else:
            groups = {}
            for r in rows:
                groups.setdefault(group_key(r), []).append(r)
        return [tuple([cell(k, g) for cell in cells]) for k, g in groups.items()]
    return schema, group


def _ordering(stmt, schema):
    """``rows -> rows`` applying ORDER BY and LIMIT, or None for neither."""
    names = [n for n, _ in schema]
    keys = []
    for c in stmt.order_by:
        if c.qual is not None or c.name not in names:
            raise CatalogError(f"ORDER BY column {sql.pp_expr(c)!r} not in output")
        keys.append(names.index(c.name))
    limit = stmt.limit
    if keys:
        by = _getter(keys)
        key = lambda r: (row_sort_key(by(r)), row_sort_key(r))  # noqa: E731
    elif limit is not None:
        key = row_sort_key
    else:
        return None
    return lambda rows: sorted(rows, key=key)[:limit]


@dataclass
class CompiledSelect:
    """A SELECT bound to its input schemas: the output schema, and the
    closures that evaluate the statement over rows."""

    schema: list  # output (name, tag) pairs
    join: object  # (left rows, right rows) -> rows, or None
    where: object  # row -> bool, or None
    project: object  # rows -> output rows
    order: object  # output rows -> ordered, limited rows, or None

    def run(self, rows, join_rows=None):
        """Evaluate over the rows of the FROM table and the JOIN table."""
        if self.join is not None:
            rows = self.join(rows, join_rows)
        if self.where is not None:
            rows = list(filter(self.where, rows))
        rows = self.project(rows)
        if self.order is not None:
            rows = self.order(rows)
        return CanonicalTable.trusted(self.schema, rows)


def compile_select(stmt, table_schemas):
    """Compile a SELECT over ``binding -> schema`` once. Unknown or
    ambiguous columns, grouping errors and ORDER BY columns missing from
    the output raise here, before any row is read. Table refs are keyed
    by binding, so two refs may not share one."""
    refs = stmt.table_refs()
    if len(refs) == 2 and refs[0].binding == refs[1].binding:
        raise SchemaError(f"duplicate table binding {refs[1].binding!r}")
    scope = _Scope([(ref.binding, table_schemas[ref.binding])
                    for ref in refs])
    join = None
    if stmt.join:
        join = _join(stmt, scope, len(table_schemas[stmt.table.binding]))
    where = _pred(stmt.where, scope) if stmt.where is not None else None
    schema, project = _projection(stmt, scope)
    return CompiledSelect(schema, join, where, project, _ordering(stmt, schema))
