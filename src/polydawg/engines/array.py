"""Sparse n-dimensional array engine.

Cells live in a map from index-vector to attribute tuple; empty cells
are simply absent. Objects may carry per-dimension key maps (sorted
distinct string keys whose ranks are the coordinates), which is how
associative arrays are encoded here; MATMUL/EWISE use those maps to
align keys and emit triple tables.
"""

from dataclasses import dataclass, field

from .. import sql
from ..canonical import CanonicalTable
from ..errors import NativeSyntaxError, QuerySyntaxError, SchemaError, TypeMismatchError
from ..values import INT, REAL, TEXT, is_numeric_tag
from .base import Engine
from .keyvalue import run_assoc_op
from .relational import compile_predicate


@dataclass
class NDArray:
    name: str
    dims: list  # (dim-name, length)
    attrs: list  # (attr-name, tag)
    cells: dict  # index-vector tuple -> attr tuple
    dim_maps: object = None  # list (len dims) of key lists, or None

    def export_schema(self):
        return [(n, INT) for n, _ in self.dims] + list(self.attrs)


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

    def object_meta(self, name):
        arr = self._get(name)
        return {"dims": list(arr.dims), "attrs": list(arr.attrs),
                "cells": len(arr.cells), "dim_maps": arr.dim_maps}

    def load_options_for(self, name):
        arr = self._get(name)
        opts = {"dims": [list(d) for d in arr.dims]}
        if arr.dim_maps is not None:
            opts["dim_maps"] = arr.dim_maps
        return opts

    def array(self, name):
        return self._get(name)

    def export(self, name):
        arr = self._get(name)
        rows = [coords + attrs for coords, attrs in sorted(arr.cells.items())]
        return CanonicalTable(arr.export_schema(), rows)

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

    def _finish(self, cur):
        if cur.peek().kind != "EOF":
            cur.fail("unexpected trailing input")

    def _int(self, cur):
        tok = cur.peek()
        if tok.kind != "INT":
            cur.fail("expected integer", {"INT"})
        cur.next()
        return int(tok.text)

    def _subarray(self, cur):
        arr = self._get(cur.expect_ident("object name").text)
        dim_names = [n for n, _ in arr.dims]
        ranges = {}
        while True:
            dname = cur.expect_ident("dimension name").text
            if dname not in dim_names:
                raise SchemaError(f"unknown dimension {dname!r}")
            cur.expect_op("=")
            lo = self._int(cur)
            cur.expect_op(":")
            hi = self._int(cur)
            ranges[dname] = (lo, hi)
            if not cur.accept_op(","):
                break
        self._finish(cur)
        rows = []
        for coords, attrs in sorted(arr.cells.items()):
            ok = all(
                ranges.get(n, (0, length - 1))[0] <= c <= ranges.get(n, (0, length - 1))[1]
                for c, (n, length) in zip(coords, arr.dims)
            )
            if ok:
                rows.append(coords + attrs)
        return CanonicalTable(arr.export_schema(), rows)

    def _filter(self, cur):
        arr = self._get(cur.expect_ident("object name").text)
        pred = sql.parse_pred(cur)
        self._finish(cur)
        schema = arr.export_schema()
        keep = compile_predicate(pred, arr.name, schema)
        rows = [coords + attrs for coords, attrs in sorted(arr.cells.items())]
        return CanonicalTable(schema, [row for row in rows if keep(row)])

    def _agg(self, cur):
        fn = cur.expect_ident("aggregate function").lower
        if fn not in sql.AGG_FNS:
            cur.fail("expected COUNT, SUM, AVG, MIN, or MAX")
        cur.expect_op("(")
        attr = cur.expect_ident("attribute name").text
        cur.expect_op(")")
        arr = self._get(cur.expect_ident("object name").text)
        by = []
        cur.expect_keyword("by")
        cur.expect_op("(")
        if not cur.at_op(")"):
            by.append(cur.expect_ident("dimension name").text)
            while cur.accept_op(","):
                by.append(cur.expect_ident("dimension name").text)
        cur.expect_op(")")
        self._finish(cur)
        attr_names = [n for n, _ in arr.attrs]
        if attr not in attr_names:
            raise SchemaError(f"unknown attribute {attr!r}")
        ai = attr_names.index(attr)
        atag = arr.attrs[ai][1]
        if fn in ("sum", "avg") and atag == TEXT:
            raise TypeMismatchError(f"{fn.upper()} over text attribute")
        dim_names = [n for n, _ in arr.dims]
        for d in by:
            if d not in dim_names:
                raise SchemaError(f"unknown dimension {d!r}")
        bidx = [dim_names.index(d) for d in by]
        groups = {}
        for coords, attrs in sorted(arr.cells.items()):
            gkey = tuple(coords[i] for i in bidx)
            groups.setdefault(gkey, []).append(attrs[ai])
        out_tag = {"count": INT, "avg": REAL, "sum": atag,
                   "min": atag, "max": atag}[fn]
        schema = [(d, INT) for d in by] + [(fn, out_tag)]
        rows = []
        for gkey in sorted(groups):
            vals = [v for v in groups[gkey] if v is not None]
            if fn == "count":
                agg = len(vals)
            elif not vals:
                agg = None
            elif fn == "sum":
                agg = sum(vals)
            elif fn == "avg":
                agg = sum(vals) / len(vals)
            elif fn == "min":
                agg = min(vals)
            else:
                agg = max(vals)
            rows.append(gkey + (agg,))
        return CanonicalTable(schema, rows)

    # --- associative-array ops over key-mapped 2-D arrays ------------------

    def _as_entries(self, name, opname):
        arr = self._get(name)
        if len(arr.dims) != 2 or len(arr.attrs) != 1:
            raise SchemaError(
                f"{opname} needs a 2-dimensional single-attribute array"
            )
        if not is_numeric_tag(arr.attrs[0][1]):
            raise TypeMismatchError(f"{opname} requires a numeric attribute")
        maps = arr.dim_maps or [None, None]
        out = {}
        for (i, j), (v,) in arr.cells.items():
            rkey = maps[0][i] if maps[0] is not None else str(i)
            ckey = maps[1][j] if maps[1] is not None else str(j)
            out[(rkey, ckey)] = v
        return out, arr.attrs[0][1]
