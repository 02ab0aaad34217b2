"""CAST mechanics: convert tables between the relational, associative-array
and array data models, and move objects between engines.

All conversions route through CanonicalTable, so three models need six
rules rather than per-engine-pair code. Every rule returns the converted
table plus an inverse spec when the conversion is lossless. An
associative array holds no null, so a cast into the associative model
drops every null value: a null is no entry on every path.

``chain_for`` is the one place that picks which rules a cast chains:
every pair of models is one direct rule except relational->array, which
passes through the associative triple form because its direct rule needs
dimension columns the caller does not have.
"""

from dataclasses import dataclass
from operator import itemgetter

from .canonical import CanonicalTable
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
    dim_maps: object = None     # per-dim sorted key lists or None
    pivot: object = None        # assoc->relation: (key_schema, attr_schema)
    column_order: object = None # array->relation: original column names

    def __post_init__(self):
        if self.source_model not in MODELS or self.target_model not in MODELS:
            raise CastError(
                f"unknown model pair {self.source_model}/{self.target_model}"
            )
        for keys in self.dim_maps or ():
            if keys is not None and (
                    len(keys) != len(set(keys)) or list(keys) != sorted(keys)):
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


def _relation_to_assoc(table, spec):
    key = tuple(spec.key or ())
    names = table.column_names
    # a triple-encoded relation, unkeyed or keyed by its row column, casts
    # by reinterpretation: (r, c, v) rows become (r, c) -> v entries
    if names == ["r", "c", "v"] and key in ((), ("r",)) \
            and _is_triple_schema(table.schema):
        entries = {}
        for r, c, v in table.rows:
            if v is None:
                continue
            if (r, c) in entries:
                raise CastError(f"duplicate entry for ({r!r}, {c!r})")
            entries[(r, c)] = v
        out = entries_to_table(entries, table.schema[2][1])
        return out, CastSpec(KEYVALUE, RELATIONAL)
    if not key:
        raise CastError("relation->assoc cast requires 'key' or a "
                        "triple-encoded relation (r:text, c:text, v)")
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
    out = entries_to_table(entries, val_tag)
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
        out = CanonicalTable.trusted(
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
    out = CanonicalTable.trusted(list(key_schema) + list(attr_schema),
                                 out_rows)
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
    seen = set()
    out_rows = []
    for row in table.rows:
        coords = tuple(row[i] for i in didx)
        if any(c is None or c < 0 for c in coords):
            raise CastError("dimension coordinates must be non-negative ints")
        if coords in seen:
            raise CastError(f"duplicate index vector {coords!r}")
        seen.add(coords)
        out_rows.append(coords + tuple(row[i] for i in aidx))
    schema = [(names[i], INT) for i in didx] + [table.schema[i] for i in aidx]
    out = CanonicalTable.trusted(
        schema, sorted(out_rows, key=lambda r: r[: len(didx)]))
    inverse = CastSpec(ARRAY, RELATIONAL, dim_cols=dim_cols,
                       column_order=list(names))
    return out, inverse


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
        out = CanonicalTable.trusted(schema, rows)
    else:
        out = CanonicalTable.trusted(list(table.schema), list(table.rows))
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
    out = CanonicalTable.trusted(
        [("r", INT), ("c", INT), ("v", val_tag)], sorted(out_rows)
    )
    return out, CastSpec(ARRAY, KEYVALUE, dim_maps=[row_map, col_map])


def assoc_entries(cells, dim_maps=None):
    """``{(row key, col key): value}`` of the 2-D array ``cells``, an
    iterable of ``((i, j), value)``. A key is the coordinate's entry in
    its dimension's map, or the coordinate in decimal where that
    dimension has no map; a null value is no entry."""
    rmap, cmap = dim_maps or (None, None)
    out = {}
    for (i, j), v in cells:
        if v is not None:
            try:
                out[(str(i) if rmap is None else rmap[i],
                     str(j) if cmap is None else cmap[j])] = v
            except IndexError:
                raise CastError(
                    f"coordinate ({i}, {j}) outside dimension maps") from None
    return out


def triple_schema(val_tag):
    """Schema of a value in the associative model, as the kv engine
    stores it."""
    return [("row", TEXT), ("col", TEXT), ("val", val_tag)]


def entries_to_table(entries, val_tag):
    """Triple table of the associative entries ``{(row key, col key):
    value}``, in key order."""
    return triples_to_table(
        [(r, c, v) for (r, c), v in sorted(entries.items())], val_tag)


def triples_to_table(rows, val_tag):
    """Triple table of checked ``(row key, col key, value)`` rows."""
    return CanonicalTable.trusted(triple_schema(val_tag), rows)


def _array_to_assoc(table, spec):
    names = table.column_names
    dim_cols = tuple(spec.dim_cols or names[:2])
    if len(dim_cols) != 2:
        raise CastError("array->assoc requires exactly 2 dimensions")
    di, dj = [table.column_index(d) for d in dim_cols]
    aidx = [i for i in range(len(names)) if i not in (di, dj)]
    if len(aidx) != 1:
        raise CastError("array->assoc requires exactly 1 attribute")
    (ai,) = aidx
    if not is_numeric_tag(table.schema[ai][1]):
        raise CastError("array->assoc requires a numeric attribute")
    maps = spec.dim_maps
    rows = table.rows
    entries = assoc_entries(
        zip(map(itemgetter(di, dj), rows), map(itemgetter(ai), rows)), maps)
    out = entries_to_table(entries, table.schema[ai][1])
    inverse = None
    if maps is not None and None not in maps:
        inverse = CastSpec(KEYVALUE, ARRAY, dim_maps=[list(m) for m in maps])
    return out, inverse


_RULES = {
    (RELATIONAL, KEYVALUE): _relation_to_assoc,
    (KEYVALUE, RELATIONAL): _assoc_to_relation,
    (RELATIONAL, ARRAY): _relation_to_array,
    (ARRAY, RELATIONAL): _array_to_relation,
    (KEYVALUE, ARRAY): _assoc_to_array,
    (ARRAY, KEYVALUE): _array_to_assoc,
}


def apply_cast(table, spec):
    """Apply one model cast; returns (table, inverse CastSpec or None)."""
    pair = (spec.source_model, spec.target_model)
    if pair not in _RULES:
        raise CastError(f"no cast rule for {pair}")
    return _RULES[pair](table, spec)


# --- moving objects between engines ----------------------------------------

def chain_for(source_model, target_model, key=None, dim_cols=None,
              dim_maps=None):
    """Cast specs converting source_model to target_model (may be empty).

    ``key`` feeds a relational source (without one, only triple-encoded
    data casts, by reinterpretation); ``dim_cols`` and ``dim_maps``
    describe an array source. A query reads each operand and cast in its
    island's model by one call (``querylang.read_chain``), and a plan
    moves a value from an island's model to a site engine's by another.
    """
    if source_model == target_model:
        return []
    if (source_model, target_model) == (RELATIONAL, ARRAY):
        return (chain_for(RELATIONAL, KEYVALUE, key)
                + chain_for(KEYVALUE, ARRAY))
    if source_model != RELATIONAL:
        key = None
    return [CastSpec(source_model, target_model,
                     key=tuple(key) if key else None,
                     dim_cols=tuple(dim_cols) if dim_cols else None,
                     dim_maps=dim_maps)]


def temp_name(alias, to_engine):
    """Name of the temporary holding ``alias`` on ``to_engine``: a plan
    moves each alias to each site at most once, and every plan drops its
    temporaries when it ends."""
    return f"__mig_{alias}_{to_engine}"


def array_dims(schema):
    """Dimension names of a value in the array model with ``schema``:
    its first two columns, which must be int. Query validation applies
    this to every cast into the array model, as migration does."""
    for name, tag in schema[:2]:
        if tag != INT:
            raise CastError(f"dimension column {name!r} must be int")
    return [name for name, _ in schema[:2]]


def _array_load_options(table, maps):
    """Array engine load options for a cast triple table; ``maps`` are
    the dimension key maps of the last cast, if it produced any."""
    names = array_dims(table.schema)
    if not table.rows:
        # empty value: no keys to map, load as a 1x1 all-empty array
        return {"dims": [(n, 1) for n in names]}
    dims = []
    for axis, name in enumerate(names):
        if maps:
            length = max(len(maps[axis]), 1)
        else:
            i = table.column_index(name)
            length = max(r[i] for r in table.rows) + 1
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
        return CanonicalTable.trusted(
            triple_schema(table.schema[2][1]),
            [r for r in table.rows if r[2] is not None],
        )
    return table


def migrate(catalog, alias, to_engine, specs, table):
    """Cast the materialized value ``table`` of ``alias`` by ``specs`` and
    load it onto ``to_engine`` as a temporary object; returns its name."""
    inverse = None
    for spec in specs:
        table, inverse = apply_cast(table, spec)
    target_model = catalog.engine(to_engine).model
    table = normalize_for_engine(target_model, table)
    options = {}
    if target_model == ARRAY:
        options = _array_load_options(
            table, inverse.dim_maps if inverse is not None else None)
    name = temp_name(alias, to_engine)
    if catalog.owner(name) is None:
        catalog.load(to_engine, name, table, options, temporary=True)
    return name
