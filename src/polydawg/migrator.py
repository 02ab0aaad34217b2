"""CAST mechanics: convert tables between the relational, associative-array
and array data models, and move objects between engines.

All conversions route through CanonicalTable, so three models need six
rules rather than per-engine-pair code. Each cast returns the converted
table plus an inverse spec when the conversion is lossless; dropping
null attribute values on relation->assoc is the single lossy edge.
"""

import hashlib
from dataclasses import dataclass, replace

from .canonical import CanonicalTable, write_cif
from .errors import CastError
from .values import INT, REAL, TEXT, is_numeric_tag

RELATIONAL = "relational"
KEYVALUE = "keyvalue"
ARRAY = "array"
MODELS = (RELATIONAL, KEYVALUE, ARRAY)


@dataclass
class CastSpec:
    source_model: str
    target_model: str
    key: object = None          # relation->assoc: key column names
    dim_cols: object = None     # relation->array / array source: dim column names
    dim_lengths: object = None  # optional per-dim lengths (relation->array)
    dim_maps: object = None     # per-dim sorted key lists (assoc<->array)
    pivot: object = None        # assoc->relation: (key_schema, attr_schema)
    column_order: object = None # array->relation: original column names

    def __post_init__(self):
        if self.source_model not in MODELS or self.target_model not in MODELS:
            raise CastError(
                f"unknown model pair {self.source_model}/{self.target_model}"
            )
        if self.dim_maps is not None:
            for keys in self.dim_maps:
                if len(keys) != len(set(keys)) or list(keys) != sorted(keys):
                    raise CastError("dimension maps must be sorted and duplicate-free")


def _escape_key_part(s):
    return s.replace("\\", "\\\\").replace("|", "\\|")


def _unescape_key(s):
    parts, buf, i = [], [], 0
    while i < len(s):
        ch = s[i]
        if ch == "\\" and i + 1 < len(s):
            buf.append(s[i + 1])
            i += 2
        elif ch == "|":
            parts.append("".join(buf))
            buf = []
            i += 1
        else:
            buf.append(ch)
            i += 1
    parts.append("".join(buf))
    return parts


def _key_text(tag, v):
    if v is None:
        raise CastError("null in key column")
    if tag == TEXT:
        return v
    if tag == REAL:
        return repr(float(v))
    return str(v)


def _key_value(tag, s):
    if tag == TEXT:
        return s
    if tag == REAL:
        return float(s)
    return int(s)


def _is_triple_schema(schema):
    return (
        len(schema) == 3
        and schema[0][1] == TEXT
        and schema[1][1] == TEXT
    )


def cast_table(table, spec):
    """Apply a model cast; returns (table, inverse CastSpec or None)."""
    pair = (spec.source_model, spec.target_model)
    if pair == (RELATIONAL, KEYVALUE):
        return _relation_to_assoc(table, spec)
    if pair == (KEYVALUE, RELATIONAL):
        return _assoc_to_relation(table, spec)
    if pair == (RELATIONAL, ARRAY):
        return _relation_to_array(table, spec)
    if pair == (ARRAY, RELATIONAL):
        return _array_to_relation(table, spec)
    if pair == (KEYVALUE, ARRAY):
        return _assoc_to_array(table, spec)
    if pair == (ARRAY, KEYVALUE):
        return _array_to_assoc(table, spec)
    if spec.source_model == spec.target_model:
        return table, CastSpec(spec.target_model, spec.source_model)
    raise CastError(f"no cast rule for {pair}")


def _relation_to_assoc(table, spec):
    if not spec.key:
        raise CastError("relation->assoc cast requires 'key'")
    key = tuple(spec.key)
    names = table.column_names
    # a triple-encoded relation keyed by its row column casts by
    # reinterpretation: (r, c, v) rows become (r, c) -> v entries
    if names == ["r", "c", "v"] and key == ("r",) and _is_triple_schema(table.schema):
        entries = {}
        for r, c, v in table.rows:
            if v is None:
                continue
            if (r, c) in entries:
                raise CastError(f"duplicate entry for ({r!r}, {c!r})")
            entries[(r, c)] = v
        out = CanonicalTable(
            [("row", TEXT), ("col", TEXT), ("val", table.schema[2][1])],
            [(r, c, v) for (r, c), v in sorted(entries.items())],
        )
        return out, CastSpec(KEYVALUE, RELATIONAL)
    for k in key:
        if k not in names:
            raise CastError(f"key column {k!r} not in source schema")
    kidx = [table.column_index(k) for k in key]
    aidx = [i for i in range(len(names)) if i not in kidx]
    if not aidx:
        raise CastError("relation->assoc needs at least one non-key column")
    attr_tags = {table.schema[i][1] for i in aidx}
    if len(attr_tags) > 1:
        raise CastError("non-key columns must share one value tag")
    val_tag = attr_tags.pop()
    entries = {}
    for row in table.rows:
        rkey = "|".join(
            _escape_key_part(_key_text(table.schema[i][1], row[i])) for i in kidx
        )
        for i in aidx:
            if row[i] is None:
                continue  # documented lossy edge: nulls produce no triple
            ckey = names[i]
            if (rkey, ckey) in entries:
                raise CastError(f"duplicate key projection {rkey!r}")
            entries[(rkey, ckey)] = row[i]
    out = CanonicalTable(
        [("row", TEXT), ("col", TEXT), ("val", val_tag)],
        [(r, c, v) for (r, c), v in sorted(entries.items())],
    )
    inverse = CastSpec(
        KEYVALUE, RELATIONAL,
        pivot=(
            [(names[i], table.schema[i][1]) for i in kidx],
            [(names[i], table.schema[i][1]) for i in aidx],
        ),
    )
    return out, inverse


def _require_triples(table, what):
    if not _is_triple_schema(table.schema):
        raise CastError(f"{what} expects a (text, text, value) triple table")


def _assoc_to_relation(table, spec):
    _require_triples(table, "assoc->relation cast")
    val_tag = table.schema[2][1]
    if spec.pivot is None:
        out = CanonicalTable(
            [("r", TEXT), ("c", TEXT), ("v", val_tag)], list(table.rows)
        )
        return out, CastSpec(RELATIONAL, KEYVALUE, key=("r",))
    key_schema, attr_schema = spec.pivot
    attr_pos = {name: i for i, (name, _) in enumerate(attr_schema)}
    rows = {}
    for rkey, ckey, v in table.rows:
        if ckey not in attr_pos:
            raise CastError(f"column key {ckey!r} not in pivot schema")
        cells = rows.setdefault(rkey, [None] * len(attr_schema))
        if cells[attr_pos[ckey]] is not None:
            raise CastError(f"duplicate triple for ({rkey!r}, {ckey!r})")
        cells[attr_pos[ckey]] = v
    out_rows = []
    for rkey in sorted(rows):
        parts = _unescape_key(rkey)
        if len(parts) != len(key_schema):
            raise CastError(f"row key {rkey!r} does not split into the pivot key")
        keyvals = [
            _key_value(tag, part) for (name, tag), part in zip(key_schema, parts)
        ]
        out_rows.append(tuple(keyvals) + tuple(rows[rkey]))
    out = CanonicalTable(list(key_schema) + list(attr_schema), out_rows)
    return out, CastSpec(RELATIONAL, KEYVALUE, key=tuple(n for n, _ in key_schema))


def _relation_to_array(table, spec):
    if not spec.dim_cols:
        raise CastError("relation->array cast requires 'dim_cols'")
    dim_cols = tuple(spec.dim_cols)
    names = table.column_names
    didx = []
    for d in dim_cols:
        if d not in names:
            raise CastError(f"dimension column {d!r} not in source schema")
        i = table.column_index(d)
        if table.schema[i][1] != INT:
            raise CastError(f"dimension column {d!r} must be int")
        didx.append(i)
    aidx = [i for i in range(len(names)) if i not in didx]
    if spec.dim_lengths:
        lengths = list(spec.dim_lengths)
    else:
        lengths = []
        for i in didx:
            coords = [r[i] for r in table.rows]
            if any(c is None or c < 0 for c in coords):
                raise CastError("dimension coordinates must be non-negative ints")
            lengths.append((max(coords) + 1) if coords else 1)
    seen = set()
    out_rows = []
    for row in table.rows:
        coords = tuple(row[i] for i in didx)
        if any(c is None for c in coords):
            raise CastError("null dimension coordinate")
        for c, length in zip(coords, lengths):
            if not (0 <= c < length):
                raise CastError(f"coordinate {c} out of bounds (length {length})")
        if coords in seen:
            raise CastError(f"duplicate index vector {coords!r}")
        seen.add(coords)
        out_rows.append(coords + tuple(row[i] for i in aidx))
    schema = [(names[i], INT) for i in didx] + [table.schema[i] for i in aidx]
    out = CanonicalTable(schema, sorted(out_rows, key=lambda r: r[: len(didx)]))
    inverse = CastSpec(ARRAY, RELATIONAL, dim_cols=dim_cols,
                       column_order=list(names))
    return out, inverse, lengths


def _array_to_relation(table, spec):
    dim_cols = tuple(spec.dim_cols or ())
    names = table.column_names
    for d in dim_cols:
        if d not in names:
            raise CastError(f"dimension column {d!r} not in source schema")
    if spec.column_order:
        order = [table.column_index(n) for n in spec.column_order]
        schema = [table.schema[i] for i in order]
        rows = [tuple(r[i] for i in order) for r in table.rows]
        out = CanonicalTable(schema, rows)
    else:
        out = CanonicalTable(list(table.schema), list(table.rows))
    return out, CastSpec(RELATIONAL, ARRAY, dim_cols=dim_cols or None)


def _assoc_to_array(table, spec):
    _require_triples(table, "assoc->array cast")
    val_tag = table.schema[2][1]
    if spec.dim_maps is not None:
        if len(spec.dim_maps) != 2:
            raise CastError("assoc->array needs exactly two dimension maps")
        row_map, col_map = [list(m) for m in spec.dim_maps]
    else:
        row_map = sorted({r for r, _, _ in table.rows})
        col_map = sorted({c for _, c, _ in table.rows})
    rrank = {k: i for i, k in enumerate(row_map)}
    crank = {k: i for i, k in enumerate(col_map)}
    out_rows = []
    seen = set()
    for r, c, v in table.rows:
        if r not in rrank or c not in crank:
            raise CastError(f"key ({r!r}, {c!r}) missing from dimension maps")
        coords = (rrank[r], crank[c])
        if coords in seen:
            raise CastError(f"duplicate entry for ({r!r}, {c!r})")
        seen.add(coords)
        out_rows.append(coords + (v,))
    out = CanonicalTable(
        [("r", INT), ("c", INT), ("v", val_tag)], sorted(out_rows)
    )
    inverse = CastSpec(ARRAY, KEYVALUE, dim_maps=[row_map, col_map])
    return out, inverse, [max(len(row_map), 1), max(len(col_map), 1)]


def _array_to_assoc(table, spec):
    names = table.column_names
    dim_cols = tuple(spec.dim_cols or names[:2])
    if len(dim_cols) != 2:
        raise CastError("array->assoc requires exactly 2 dimensions")
    didx = [table.column_index(d) for d in dim_cols]
    aidx = [i for i in range(len(names)) if i not in didx]
    if len(aidx) != 1:
        raise CastError("array->assoc requires exactly 1 attribute")
    if not is_numeric_tag(table.schema[aidx[0]][1]):
        raise CastError("array->assoc requires a numeric attribute")
    maps = spec.dim_maps
    out_rows = []
    for row in table.rows:
        i, j = row[didx[0]], row[didx[1]]
        v = row[aidx[0]]
        if v is None:
            continue
        if maps is not None:
            try:
                rkey, ckey = maps[0][i], maps[1][j]
            except IndexError:
                raise CastError(f"coordinate ({i}, {j}) outside dimension maps") from None
        else:
            rkey, ckey = str(i), str(j)
        out_rows.append((rkey, ckey, v))
    out = CanonicalTable(
        [("row", TEXT), ("col", TEXT), ("val", table.schema[aidx[0]][1])],
        sorted(out_rows),
    )
    inverse = None
    if maps is not None:
        inverse = CastSpec(KEYVALUE, ARRAY, dim_maps=[list(maps[0]), list(maps[1])])
    return out, inverse


def apply_cast(table, spec):
    """cast_table wrapper that normalizes the 2- and 3-tuple rule returns."""
    result = cast_table(table, spec)
    if len(result) == 3:
        return result[0], result[1]
    return result


# --- moving objects between engines ----------------------------------------

def chain_for(source_model, target_model, key=None):
    """Cast specs converting source_model to target_model (may be empty).

    ``key`` feeds any relation->assoc leg (triple-encoded data uses
    key=('r',), which casts by reinterpretation).
    """
    if source_model == target_model:
        return []
    if KEYVALUE in (source_model, target_model):
        spec = CastSpec(source_model, target_model)
        if source_model == RELATIONAL:
            spec.key = tuple(key) if key else ("r",)
        return [spec]
    # relational <-> array have direct rules but require dim metadata the
    # caller rarely has; route through the assoc triple form instead
    return (chain_for(source_model, KEYVALUE, key)
            + chain_for(KEYVALUE, target_model))


def temp_name(to_engine, table, options):
    payload = (to_engine + "\x00" + repr(sorted((options or {}).items()))
               + "\x00" + write_cif(table))
    return "__mig_" + hashlib.sha256(payload.encode()).hexdigest()[:16]


def load_options_for_model(target_model, table, last_spec_result=None):
    """Engine load options for a freshly cast table."""
    if target_model != ARRAY:
        return {}
    if last_spec_result is not None:
        maps = last_spec_result.dim_maps if last_spec_result else None
    else:
        maps = None
    if not table.rows:
        # empty value: no keys to map, load as a 1x1 all-empty array
        return {"dims": [(n, 1) for n, _ in table.schema[:2]]}
    dims = []
    dim_names = [n for n, t in table.schema[:2]]
    for axis, name in enumerate(dim_names):
        if maps:
            length = max(len(maps[axis]), 1)
        else:
            i = table.column_index(name)
            coords = [r[i] for r in table.rows]
            length = (max(coords) + 1) if coords else 1
        dims.append((name, length))
    opts = {"dims": dims}
    if maps:
        opts["dim_maps"] = [list(m) for m in maps]
    return opts


def normalize_for_engine(target_model, table):
    """Rename columns to what the target engine's loader requires."""
    if target_model == KEYVALUE:
        if not _is_triple_schema(table.schema):
            raise CastError("keyvalue load needs a triple table")
        return CanonicalTable(
            [("row", TEXT), ("col", TEXT), ("val", table.schema[2][1])],
            [r for r in table.rows if r[2] is not None],
        )
    return table


def migrate(catalog, alias, from_engine, to_engine, specs, table=None):
    """Move a table (an engine object or a materialized alias) onto
    ``to_engine`` as a temporary object; returns the temp object name."""
    if table is None:
        table = catalog.export(from_engine, alias)
    inverse = None
    for spec in specs:
        table, inverse = apply_cast(table, spec)
    target_model = catalog.engine(to_engine).model
    table = normalize_for_engine(target_model, table)
    options = {}
    if target_model == ARRAY:
        options = load_options_for_model(ARRAY, table, inverse)
    name = temp_name(to_engine, table, options)
    if catalog.owner(name) is None:
        catalog.load(to_engine, name, table, options, temporary=True)
    return name
