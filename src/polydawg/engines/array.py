"""Sparse n-dimensional array engine.

Cells live in a map from index-vector to attribute tuple; empty cells
are simply absent. Objects may carry per-dimension key maps (sorted
distinct string keys whose ranks are the coordinates, or None for a
dimension keyed by its coordinates), which is how associative arrays are
encoded here; MATMUL/EWISE take their keys through migrator.assoc_entries.
A load checks coordinates and duplicate cells a column at a time; only a
table that fails runs the per-row loop, which raises its first bad row.

FILTER runs as ``SELECT * ... WHERE`` and AGG as a GROUP BY SELECT,
generated code under the rules of ``relational``. SUBARRAY walks its box
when the box holds fewer coordinates than the array has cells, and
filters the cells otherwise.
"""

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

from .. import sql
from ..canonical import CanonicalTable
from ..errors import NativeSyntaxError, QuerySyntaxError, SchemaError, TypeMismatchError
from ..migrator import assoc_entries
from ..values import INT, TEXT, is_numeric_tag
from .base import Engine
from .keyvalue import run_assoc_op
from .relational import compile_select


@dataclass
class NDArray:
    name: str
    dims: list  # (dim-name, length)
    attrs: list  # (attr-name, tag)
    cells: dict  # index-vector tuple -> attr tuple
    dim_maps: object = None  # list (len dims) of key lists, or None

    def export_schema(self):
        return [(n, INT) for n, _ in self.dims] + list(self.attrs)


def _rows(arr):
    """The array's cells as export rows, in coordinate order."""
    return [coords + attrs for coords, attrs in sorted(arr.cells.items())]


def _subarray(arr, bounds):
    """SUBARRAY's rows, in coordinate order, for ``bounds``: dimension
    index -> (lo, hi). A box of fewer coordinates than the array has
    cells is walked cell by cell; otherwise the cells are filtered."""
    box = [range(lo, min(hi + 1, length)) for lo, hi, length in (
        (*bounds.get(i, (0, length - 1)), length)
        for i, (_, length) in enumerate(arr.dims))]
    if math.prod(map(len, box)) < len(arr.cells):
        get = arr.cells.get
        return [coords + attrs for coords in itertools.product(*box)
                if (attrs := get(coords)) is not None]
    return sorted(coords + attrs for coords, attrs in arr.cells.items()
                  if all(c in rng for c, rng in zip(coords, box)))


def array_op(op, params, name, schema, ndims):
    """``(output schema, run)`` of SUBARRAY, FILTER or AGG with parsed
    ``params`` over the array ``name`` whose export ``schema`` starts with
    its ``ndims`` dimensions; ``run`` maps the array to the output rows.
    Every operand error is raised here, before a cell is read, so query
    validation reports what the engine would."""
    names = [n for n, _ in schema]
    dims = names[:ndims]

    def dim(d):
        if d not in dims:
            raise SchemaError(f"unknown dimension {d!r}")
        return dims.index(d)

    if op == "subarray":
        bounds = {}
        for d, lo, hi in params["ranges"]:
            i = dim(d)
            if lo < 0 or hi < lo:
                raise SchemaError(f"bad range {lo}:{hi} for {d!r}")
            bounds[i] = (lo, hi)
        return list(schema), lambda arr: _subarray(arr, bounds)
    if op == "filter":
        select = compile_select(
            sql.SelectStmt(None, sql.TableRef(name, None), None,
                           params["pred"], [], [], None), {name: schema})
        return select.schema, lambda arr: select.run(_rows(arr)).rows
    fn, attr = params["fn"], params["attr"]
    if attr not in names[ndims:]:
        raise SchemaError(f"unknown attribute {attr!r}")
    if fn in ("sum", "avg") and schema[names.index(attr)][1] == TEXT:
        raise TypeMismatchError(f"{fn.upper()} over text attribute")
    for d in params["by"]:
        dim(d)  # raises for an unknown dimension
    by = [sql.Col(None, d) for d in params["by"]]
    items = [sql.SelectItem(c, None) for c in by]
    items.append(sql.SelectItem(sql.Agg(fn, sql.Col(None, attr)), None))
    select = compile_select(
        sql.SelectStmt(items, sql.TableRef(name, None), None, None, by, by,
                       None), {name: schema})
    # an empty array has no groups, even with no BY dimension
    return select.schema, lambda arr: (
        select.run(_rows(arr)).rows if arr.cells else [])


class ArrayEngine(Engine):
    model = "array"

    def _build(self, name, table, options):
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
        rows = table.rows
        columns = list(zip(*rows)) or [()] * len(table.schema)
        coords = [columns[i] for i in dim_idx]
        cells = dict(zip(zip(*coords), zip(*[columns[i] for i in attr_idx])
                         if attr_idx else itertools.repeat(())))
        if not (all(None not in col and min(col, default=0) >= 0
                    and max(col, default=0) < length
                    for col, (_, length) in zip(coords, dims))
                and len(cells) == len(rows)):
            seen = set()  # the first bad row, in row order, raises
            for row in rows:
                coords = tuple(row[i] for i in dim_idx)
                for c, (_, length) in zip(coords, dims):
                    if c is None or not (0 <= c < length):
                        raise SchemaError(
                            f"coordinate {c!r} out of bounds in {name!r}"
                        )
                if coords in seen:
                    raise SchemaError(f"duplicate cell {coords!r} in {name!r}")
                seen.add(coords)
        dim_maps = options.get("dim_maps")
        if dim_maps is not None:
            if len(dim_maps) != len(dims):
                raise SchemaError("one key map per dimension required")
            for keys, (dname, length) in zip(dim_maps, dims):
                if keys is not None:
                    if len(keys) != len(set(keys)) or list(keys) != sorted(keys):
                        raise SchemaError(
                            f"key map for {dname!r} must be sorted and duplicate-free"
                        )
                    if len(keys) != length:
                        raise SchemaError(
                            f"key map for {dname!r} has {len(keys)} keys "
                            f"for length {length}"
                        )
            dim_maps = [list(k) if k is not None else None for k in dim_maps]
        return NDArray(name, dims, attrs, cells, dim_maps)

    def load_options_for(self, name):
        arr = self._get(name)
        opts = {"dims": [list(d) for d in arr.dims]}
        if arr.dim_maps is not None:
            opts["dim_maps"] = arr.dim_maps
        return opts

    def array(self, name):
        return self._get(name)

    def schema_of(self, name):
        return self._get(name).export_schema()

    def export(self, name):
        arr = self._get(name)
        return CanonicalTable.trusted(arr.export_schema(), _rows(arr))

    def execute_native(self, query):
        try:
            cur = sql.Cursor(sql.tokenize(query))
            verb = cur.expect_ident("command").lower
            if verb == "subarray":
                return self._subarray(cur)
            if verb == "filter":
                return self._filter(cur)
            if verb == "agg":
                return self._agg(cur)
            if verb in ("matmul", "ewise"):
                return run_assoc_op(verb, cur, self._as_entries)
            cur.fail("expected SUBARRAY, FILTER, AGG, MATMUL, or EWISE")
        except QuerySyntaxError as e:
            raise NativeSyntaxError(f"array parse error: {e}") from e

    def _int(self, cur):
        tok = cur.peek()
        if tok.kind != "INT":
            cur.fail("expected integer", {"INT"})
        cur.next()
        return int(tok.text)

    def _subarray(self, cur):
        name = cur.expect_ident("object name").text
        ranges = []
        while True:
            dname = cur.expect_ident("dimension name").text
            cur.expect_op("=")
            lo = self._int(cur)
            cur.expect_op(":")
            hi = self._int(cur)
            ranges.append((dname, lo, hi))
            if not cur.accept_op(","):
                break
        return self._run_op(cur, name, "subarray", {"ranges": ranges})

    def _filter(self, cur):
        name = cur.expect_ident("object name").text
        return self._run_op(cur, name, "filter", {"pred": sql.parse_pred(cur)})

    def _agg(self, cur):
        fn = cur.expect_ident("aggregate function").lower
        if fn not in sql.AGG_FNS:
            cur.fail("expected COUNT, SUM, AVG, MIN, or MAX")
        cur.expect_op("(")
        attr = cur.expect_ident("attribute name").text
        cur.expect_op(")")
        name = cur.expect_ident("object name").text
        by = []
        cur.expect_keyword("by")
        cur.expect_op("(")
        if not cur.at_op(")"):
            by.append(cur.expect_ident("dimension name").text)
            while cur.accept_op(","):
                by.append(cur.expect_ident("dimension name").text)
        cur.expect_op(")")
        return self._run_op(cur, name, "agg",
                            {"fn": fn, "attr": attr, "by": by})

    def _run_op(self, cur, name, op, params):
        cur.expect_end()
        arr = self._get(name)
        schema, run = array_op(op, params, name, arr.export_schema(),
                               len(arr.dims))
        return CanonicalTable.trusted(schema, run(arr))

    # --- associative-array ops over key-mapped 2-D arrays ------------------

    def _as_entries(self, name, opname):
        arr = self._get(name)
        if len(arr.dims) != 2 or len(arr.attrs) != 1:
            raise SchemaError(
                f"{opname} needs a 2-dimensional single-attribute array"
            )
        if not is_numeric_tag(arr.attrs[0][1]):
            raise TypeMismatchError(f"{opname} requires a numeric attribute")
        values = map(itemgetter(0), arr.cells.values())
        return (assoc_entries(zip(arr.cells, values), arr.dim_maps),
                arr.attrs[0][1])
