"""The closure compilers that the generated code replaced, kept as the
reference that property tests compare the engines against.

``compile_select`` builds one closure per expression node and calls it
once per row; ``agg_loop`` groups an array's rows for AGG;
``subarray_scan`` filters every cell of an array; the semiring loops
call one function per term; ``array_build`` checks and files an array's
cells one row at a time. Name resolution, type
inference and the compile-time checks they make are shared with
``polydawg.engines.relational``, which did not change them.
"""

import operator

from polydawg import sql
from polydawg.canonical import CanonicalTable
from polydawg.engines.relational import (
    _Scope, _check_comparable, _derived_name, _has_agg, _infer_tag,
)
from polydawg.engines.array import NDArray
from polydawg.errors import CatalogError, SchemaError, TypeMismatchError
from polydawg.values import INT, REAL, finite, row_sort_key


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
    """``row -> value`` for a scalar expression."""
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


def _pred(pred, scope):
    """``row -> bool`` for a WHERE or FILTER predicate."""
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


_AGG_FNS = {"count": len, "sum": sum, "min": min, "max": max,
            "avg": lambda vals: sum(vals) / len(vals)}


def aggregator(fn, tag):
    """``values -> value``: nulls are dropped, and no values give null
    except for COUNT; a real result is checked to be finite."""
    reduce, count = _AGG_FNS[fn], fn == "count"

    def aggregate(values):
        vals = [v for v in values if v is not None]
        return reduce(vals) if vals or count else None
    if tag == REAL:
        return lambda values: finite(aggregate(values))
    return aggregate


def _aggregate(agg, scope):
    if agg.fn == "count" and agg.arg is None:
        return lambda key, rows: len(rows)
    arg = _scalar(agg.arg, scope)
    aggregate = aggregator(agg.fn, _infer_tag(agg, scope))
    return lambda key, rows: aggregate(map(arg, rows))


def _computed(fn, expr, tag):
    if tag != REAL or isinstance(expr, sql.Col):
        return fn
    return lambda row: finite(fn(row))


def _projection(stmt, scope):
    items = stmt.items
    if not stmt.group_by and not any(_has_agg(it.expr) for it in items or []):
        if items is None:
            return [(n, t) for _, n, t in scope.columns], list
        schema = [(it.alias or _derived_name(it.expr), _infer_tag(it.expr, scope))
                  for it in items]
        fns = [_computed(_scalar(it.expr, scope), it.expr, tag)
               for it, (_, tag) in zip(items, schema)]
        return schema, lambda rows: [tuple([f(r) for f in fns]) for r in rows]
    if items is None:
        raise SchemaError("SELECT * cannot be combined with grouping")
    gidx = [scope.resolve(c) for c in stmt.group_by]
    schema, cells = [], []
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


class CompiledSelect:
    def __init__(self, schema, join, where, project, order):
        self.schema, self.join, self.where = schema, join, where
        self.project, self.order = project, order

    def run(self, rows, join_rows=None):
        if self.join is not None:
            rows = self.join(rows, join_rows)
        if self.where is not None:
            rows = list(filter(self.where, rows))
        rows = self.project(rows)
        if self.order is not None:
            rows = self.order(rows)
        return CanonicalTable.trusted(self.schema, rows)


def compile_select(stmt, table_schemas):
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


# --- array and associative-array loops ----------------------------------------

def subarray_scan(arr, ranges):
    """SUBARRAY's rows by a test of every cell, in coordinate order;
    ``ranges`` are checked ``(dimension index, lo, hi)`` triples."""
    rows = [coords + attrs for coords, attrs in sorted(arr.cells.items())]
    return [r for r in rows
            if all(lo <= r[i] <= hi for i, lo, hi in ranges)]


def agg_loop(fn, tag, bidx, ai, rows):
    """AGG's rows: ``rows`` in coordinate order grouped by the slots
    ``bidx``, with ``fn`` of result ``tag`` over the slot ``ai``, in
    group key order."""
    aggregate = aggregator(fn, tag)
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[i] for i in bidx), []).append(row[ai])
    return [gkey + (aggregate(groups[gkey]),) for gkey in sorted(groups)]


SEMIRINGS = {
    "plus.times": (lambda a, b: a + b, lambda a, b: a * b),
    "min.plus": (min, lambda a, b: a + b),
    "max.times": (max, lambda a, b: a * b),
}


def assoc_matmul(a_entries, b_entries, semiring="plus.times"):
    oplus, otimes = SEMIRINGS[semiring]
    a_rows = {}
    for (r, k), v in a_entries.items():
        a_rows.setdefault(r, {})[k] = v
    b_rows = {}
    for (k, c), v in b_entries.items():
        b_rows.setdefault(k, {})[c] = v
    out = {}
    for r, arow in a_rows.items():
        acc = {}
        for k, av in arow.items():
            for c, bv in b_rows.get(k, {}).items():
                term = otimes(av, bv)
                acc[c] = term if c not in acc else oplus(acc[c], term)
        for c, v in acc.items():
            out[(r, c)] = v
    return out


def assoc_ewise(a_entries, b_entries, op="plus"):
    fn = {"plus": lambda a, b: a + b, "min": min, "max": max}[op]
    out = dict(a_entries)
    for key, bv in b_entries.items():
        out[key] = fn(out[key], bv) if key in out else bv
    return out


def array_build(name, table, options):
    """The array ``ArrayEngine._build`` makes of ``table`` under
    ``options``, without key maps, its cells checked for bounds and
    duplicates one row at a time."""
    dims = options.get("dims")
    if not dims:
        raise SchemaError("array load requires options['dims']")
    dims = [(d, int(l)) for d, l in dims]
    dim_idx = []
    for dname, length in dims:
        i = table.column_index(dname)
        if table.tags[i] != INT:
            raise SchemaError(f"dimension column {dname!r} must be int")
        if length <= 0:
            raise SchemaError(f"dimension {dname!r} needs positive length")
        dim_idx.append(i)
    attrs = [
        (n, t) for i, (n, t) in enumerate(table.schema) if i not in dim_idx
    ]
    attr_idx = [i for i in range(len(table.schema)) if i not in dim_idx]
    cells = {}
    for row in table.rows:
        coords = tuple(row[i] for i in dim_idx)
        for c, (_, length) in zip(coords, dims):
            if c is None or not (0 <= c < length):
                raise SchemaError(
                    f"coordinate {c!r} out of bounds in {name!r}"
                )
        if coords in cells:
            raise SchemaError(f"duplicate cell {coords!r} in {name!r}")
        cells[coords] = tuple(row[i] for i in attr_idx)
    return NDArray(name, dims, attrs, cells)
