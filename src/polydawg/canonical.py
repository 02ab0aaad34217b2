"""CanonicalTable: the tabular interchange value, plus the CIF file format.

Values are checked where data comes into the system and nowhere else:
``CanonicalTable(schema, rows)`` checks every value, and CIF parsing,
the tables a user builds for ``catalog.load`` and ``datagen`` all
construct tables that way. Engines, casts and the migrator build their
outputs from values already checked, so they use
``CanonicalTable.trusted``, which checks nothing: every row is a tuple
as long as the schema and every non-null value already has its column's
exact Python type (``int``, ``float`` or ``str``), as ``check_value``
would return it.

The check runs a column at a time, in builtins (``map``, ``set``,
``zip``) rather than a Python loop per value: every row a tuple as long
as the schema, every column's non-null values of its tag's exact type,
every real finite. A table that fails it goes through ``check_value``
value by value in row order, which widens an int in a real column and
raises the error the first bad value gives.

CIF is line oriented. The first line is
``#schema:<name>:<tag>[,<name>:<tag>...]`` with tag in {int,real,text};
every following line is one comma-separated row. Text values are
double-quoted with ``""`` escaping; an empty field is null. Lines end
where ``str.splitlines`` ends them, and blank lines are skipped.

``parse_cif`` reads the rows a chunk of lines at a time. One regular
expression per schema matches whole rows, the matches are transposed
into columns, and each column is converted at once (``map(int, ...)``,
``map(float, ...)``). A chunk holding a line that the pattern or a
conversion refuses is read again a character at a time, only to word
the error and give its line number. ``write_cif`` refuses a table that
``parse_cif`` could not read back equal: text or a column name holding
a line break, a column name that is empty or holds a comma, or no
columns. A null in a one-column table is a blank line, which CIF
cannot tell from no row, so ``save_cif`` refuses that too; a snapshot
that refuses an object writes nothing.
"""

import math
import operator
import re
from dataclasses import dataclass, field
from types import NoneType

from .errors import SchemaError
from .values import (
    INT, PY_TYPE, REAL, TEXT, TAGS, check_value, row_sort_key,
)


@dataclass
class CanonicalTable:
    schema: list  # list of (column-name, tag)
    rows: list = field(default_factory=list)  # list of tuples

    def __post_init__(self):
        for name, tag in self.schema:
            if tag not in TAGS:
                raise SchemaError(f"unknown tag {tag!r} for column {name!r}")
        rows = list(self.rows)
        self.rows = rows if self._conforms(rows) else [
            self._conform(r) for r in rows]

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

    def _conforms(self, rows):
        """Whether ``_conform`` would return every row as it is: a tuple
        as long as the schema, each non-null value of its column's exact
        type and, if real, finite. Checked a column at a time; on False
        the caller runs ``_conform``, which widens ints in real columns
        and raises the first error in row order."""
        if not (set(map(type, rows)) <= {tuple}
                and set(map(len, rows)) <= {len(self.schema)}):
            return False
        for (_, tag), column in zip(self.schema, zip(*rows)):
            if not set(map(type, column)) <= {PY_TYPE[tag], NoneType}:
                return False
            # filter(None, ...) drops the nulls, and the zeros, which are
            # finite
            if tag == REAL and not all(map(math.isfinite,
                                           filter(None, column))):
                return False
        return True

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

# What str.splitlines breaks a line on, so what no CIF line can hold.
_LINE_BREAK = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _format_value(tag, v):
    if v is None:
        return ""
    if tag == TEXT:
        return '"' + v.replace('"', '""') + '"'
    if tag == REAL:
        return repr(float(v))
    return str(v)


def _check_writable(table):
    """Raise SchemaError for a table ``write_cif`` cannot write so that
    ``parse_cif`` reads it back: one without columns, a column name that
    is empty or holds a comma or a line break, or text holding a line
    break."""
    if not table.schema:
        raise SchemaError("a table without columns cannot be written as CIF")
    for name, _ in table.schema:
        if not name or "," in name or _LINE_BREAK.search(name):
            raise SchemaError(
                f"column name {name!r} cannot be written as CIF")
    for (name, tag), column in zip(table.schema, zip(*table.rows)):
        if tag == TEXT and _LINE_BREAK.search("".join(filter(None, column))):
            raise SchemaError(
                f"text in column {name!r} holds a line break, "
                f"which CIF cannot write")


def write_cif(table):
    _check_writable(table)
    head = "#schema:" + ",".join(f"{n}:{t}" for n, t in table.schema)
    lines = [head]
    for row in table.rows:
        lines.append(
            ",".join(_format_value(t, v) for (_, t), v in zip(table.schema, row))
        )
    return "\n".join(lines) + "\n"


def save_cif(table, path):
    """Write ``table`` to ``path``, or nothing if ``load_cif`` could not
    read it back. That includes a null in a one-column table: its line
    is blank, which ``parse_cif`` skips. ``write_cif`` still writes such
    a table, as a query's printed result."""
    if len(table.schema) == 1 and (None,) in table.rows:
        raise SchemaError(
            f"a null in {table.schema[0][0]!r}, the only column, cannot be "
            f"stored as CIF: its line would be blank")
    text = write_cif(table)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


class CIFError(SchemaError):
    def __init__(self, message, lineno):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


# A row of a schema matches its columns' field patterns joined by commas.
# Rows are matched a chunk of lines at a time, joined by "\n", which no
# field pattern matches, so each match is one whole line.
_FIELD = {
    TEXT: r'("[^"\n]*(?:""[^"\n]*)*"|)',  # quoted, or empty for null
    INT: r'([^",\n]*)',  # unquoted; empty is null
    REAL: r'([^",\n]*)',
}
_CHUNK_LINES = 512  # bounds the matches and columns held at once
_UNQUOTE = operator.itemgetter(slice(1, -1))
_UNESCAPE = operator.methodcaller("replace", '""', '"')


def _column_values(tag, fields):
    """One column's values from the fields the row pattern matched; an
    empty field is null. Raises ValueError where ``int`` or ``float``
    does."""
    if tag == TEXT:
        if "" not in fields:
            return list(map(_UNESCAPE, map(_UNQUOTE, fields)))
        return [f[1:-1].replace('""', '"') if f else None for f in fields]
    convert = int if tag == INT else float
    if "" not in fields:
        return list(map(convert, fields))
    return [convert(f) if f else None for f in fields]


def _chunk_rows(pattern, tags, lines):
    """The rows ``lines`` hold, or None when one of them is no row of
    the schema whose column tags are ``tags`` and row pattern
    ``pattern``."""
    lines = list(filter(None, lines))  # a blank line holds no row
    if not lines:  # "" would match a one-column row pattern
        return []
    found = pattern.findall("\n".join(lines))
    if len(found) != len(lines):
        return None
    # with one group, findall gives each match's text, not a tuple
    columns = zip(*found) if len(tags) > 1 else [found]
    try:
        values = [_column_values(t, c) for t, c in zip(tags, columns)]
    except ValueError:
        return None
    return list(zip(*values))


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


def _check_row(schema, line, lineno):
    """Raise the CIFError that makes ``line`` no row of ``schema``, if
    there is one, reading it a character at a time."""
    fields = _split_fields(line, lineno)
    if len(fields) != len(schema):
        raise CIFError(
            f"{len(fields)} fields for {len(schema)} columns", lineno
        )
    for (kind, raw), (name, tag) in zip(fields, schema):
        if kind == 'text':
            if tag != TEXT:
                raise CIFError(f"quoted value in {tag} column {name!r}", lineno)
        elif raw == "":
            continue
        elif tag == TEXT:
            raise CIFError(f"unquoted text in column {name!r}", lineno)
        else:
            try:
                int(raw) if tag == INT else float(raw)
            except ValueError:
                raise CIFError(f"bad {tag} literal {raw!r}", lineno) from None


def _parse_header(lines):
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
    return schema


def parse_cif(text):
    lines = text.splitlines()
    schema = _parse_header(lines)
    tags = [tag for _, tag in schema]
    pattern = re.compile(
        "^" + ",".join(_FIELD[tag] for tag in tags) + "$", re.MULTILINE)
    rows = []
    for start in range(1, len(lines), _CHUNK_LINES):
        chunk = lines[start:start + _CHUNK_LINES]
        found = _chunk_rows(pattern, tags, chunk)
        if found is None:
            # line numbers count from 1, so lines[start] is line start + 1
            for lineno, line in enumerate(chunk, start + 1):
                if line:
                    _check_row(schema, line, lineno)
            raise AssertionError("_check_row passed a refused chunk")
        rows += found
    try:
        return CanonicalTable(schema, rows)
    except SchemaError as e:
        raise CIFError(str(e), 1) from None


def load_cif(path):
    with open(path, "r", encoding="utf-8") as f:
        return parse_cif(f.read())
