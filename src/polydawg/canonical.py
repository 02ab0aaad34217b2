"""CanonicalTable: the tabular interchange value, plus the CIF file format.

Values are checked where data comes into the system and nowhere else:
``CanonicalTable(schema, rows)`` runs ``check_value`` on every value, and
CIF parsing, the tables a user builds for ``catalog.load`` and
``datagen`` all construct tables that way. Engines, casts and the
migrator build their outputs from values already checked, so they use
``CanonicalTable.trusted``, which checks nothing: every row is a tuple
as long as the schema and every non-null value already has its column's
exact Python type (``int``, ``float`` or ``str``), as ``check_value``
would return it.

CIF is line oriented. The first line is
``#schema:<name>:<tag>[,<name>:<tag>...]`` with tag in {int,real,text};
every following line is one comma-separated row. Text values are
double-quoted with ``""`` escaping; an empty field is null.
"""

import math
from dataclasses import dataclass, field

from .errors import SchemaError
from .values import INT, REAL, TEXT, TAGS, check_value, row_sort_key


@dataclass
class CanonicalTable:
    schema: list  # list of (column-name, tag)
    rows: list = field(default_factory=list)  # list of tuples

    def __post_init__(self):
        for name, tag in self.schema:
            if tag not in TAGS:
                raise SchemaError(f"unknown tag {tag!r} for column {name!r}")
        self.rows = [self._conform(r) for r in self.rows]

    @classmethod
    def trusted(cls, schema, rows):
        """A table of rows the system built from checked values; nothing
        is checked (see the module docstring for what the caller owes)."""
        table = cls.__new__(cls)
        table.schema = schema
        table.rows = rows
        return table

    def _conform(self, row):
        if len(row) != len(self.schema):
            raise SchemaError(
                f"row has {len(row)} values, schema has {len(self.schema)}"
            )
        return tuple(
            check_value(tag, v) for (_, tag), v in zip(self.schema, row)
        )

    @property
    def column_names(self):
        return [name for name, _ in self.schema]

    @property
    def tags(self):
        return [tag for _, tag in self.schema]

    def column_index(self, name):
        for i, (n, _) in enumerate(self.schema):
            if n == name:
                return i
        raise SchemaError(f"no column named {name!r}")

    def sorted_rows(self):
        """Rows in ``row_sort_key`` order. Rows whose columns each hold
        one tag compare natively in that order until a null meets a
        value, which raises TypeError: only then is the key needed."""
        try:
            return sorted(self.rows)
        except TypeError:
            return sorted(self.rows, key=row_sort_key)

    def __len__(self):
        return len(self.rows)


def bag_equal(a, b, rel_tol=0.0, a_sorted=None):
    """Bag equality of two tables: tags and rows, ignoring column names.

    With rel_tol > 0, real values match within the given relative
    tolerance (rows are aligned by sorted order). ``a_sorted`` is
    ``a.sorted_rows()`` when the caller already has it, so a reference
    compared with many tables is sorted once.
    """
    tags = a.tags
    if tags != b.tags:
        return False
    if len(a.rows) != len(b.rows):
        return False
    ra = a.sorted_rows() if a_sorted is None else a_sorted
    rb = b.sorted_rows()
    if ra == rb:
        return True
    if rel_tol == 0.0:
        return False
    for xa, xb in zip(ra, rb):
        for tag, va, vb in zip(tags, xa, xb):
            if va is None or vb is None:
                if va is not vb:
                    return False
            elif tag == REAL:
                if not math.isclose(va, vb, rel_tol=rel_tol, abs_tol=1e-12):
                    return False
            elif va != vb:
                return False
    return True


# --- CIF serialization ---------------------------------------------------

def _format_value(tag, v):
    if v is None:
        return ""
    if tag == TEXT:
        return '"' + v.replace('"', '""') + '"'
    if tag == REAL:
        return repr(float(v))
    return str(v)


def write_cif(table):
    head = "#schema:" + ",".join(f"{n}:{t}" for n, t in table.schema)
    lines = [head]
    for row in table.rows:
        lines.append(
            ",".join(_format_value(t, v) for (_, t), v in zip(table.schema, row))
        )
    return "\n".join(lines) + "\n"


def save_cif(table, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(write_cif(table))


class CIFError(SchemaError):
    def __init__(self, message, lineno):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _split_fields(line, lineno):
    fields, i, n = [], 0, len(line)
    while True:
        if i < n and line[i] == '"':
            buf = []
            i += 1
            while True:
                if i >= n:
                    raise CIFError("unterminated quoted field", lineno)
                ch = line[i]
                if ch == '"':
                    if i + 1 < n and line[i + 1] == '"':
                        buf.append('"')
                        i += 2
                    else:
                        i += 1
                        break
                else:
                    buf.append(ch)
                    i += 1
            fields.append(('text', "".join(buf)))
        else:
            j = line.find(",", i)
            raw = line[i:] if j < 0 else line[i:j]
            if '"' in raw:
                raise CIFError("stray quote outside quoted field", lineno)
            fields.append(('raw', raw))
            i = n if j < 0 else j
        if i >= n:
            return fields
        if line[i] != ",":
            raise CIFError("expected comma after field", lineno)
        i += 1


def parse_cif(text):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#schema:"):
        raise CIFError("missing #schema header", 1)
    schema = []
    for part in lines[0][len("#schema:"):].split(","):
        if ":" not in part:
            raise CIFError(f"bad schema entry {part!r}", 1)
        name, tag = part.rsplit(":", 1)
        if tag not in TAGS or not name:
            raise CIFError(f"bad schema entry {part!r}", 1)
        schema.append((name, tag))
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        fields = _split_fields(line, lineno)
        if len(fields) != len(schema):
            raise CIFError(
                f"{len(fields)} fields for {len(schema)} columns", lineno
            )
        row = []
        for (kind, raw), (name, tag) in zip(fields, schema):
            if kind == 'text':
                if tag != TEXT:
                    raise CIFError(f"quoted value in {tag} column {name!r}", lineno)
                row.append(raw)
            elif raw == "":
                row.append(None)
            elif tag == TEXT:
                raise CIFError(f"unquoted text in column {name!r}", lineno)
            else:
                try:
                    row.append(int(raw) if tag == INT else float(raw))
                except ValueError:
                    raise CIFError(f"bad {tag} literal {raw!r}", lineno) from None
        rows.append(tuple(row))
    try:
        return CanonicalTable(schema, rows)
    except SchemaError as e:
        raise CIFError(str(e), 1) from None


def load_cif(path):
    with open(path, "r", encoding="utf-8") as f:
        return parse_cif(f.read())
