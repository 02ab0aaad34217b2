"""The CIF parser and value check as they ran one character and one value
at a time, kept as the reference the column-wise ones in
``polydawg.canonical`` must agree with: the same rows, the same Python
types and the same errors."""

from polydawg.canonical import CIFError
from polydawg.errors import SchemaError
from polydawg.values import INT, TAGS, TEXT, check_value


def conform(schema, rows):
    """The rows ``CanonicalTable(schema, rows)`` holds, each value passed
    through ``check_value`` in row order."""
    for name, tag in schema:
        if tag not in TAGS:
            raise SchemaError(f"unknown tag {tag!r} for column {name!r}")
    out = []
    for row in rows:
        if len(row) != len(schema):
            raise SchemaError(
                f"row has {len(row)} values, schema has {len(schema)}")
        out.append(tuple(check_value(tag, v)
                         for (_, tag), v in zip(schema, row)))
    return out


def split_fields(line, lineno):
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
    """``(schema, rows)`` of a CIF text, or the CIFError it raises."""
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
        fields = split_fields(line, lineno)
        if len(fields) != len(schema):
            raise CIFError(
                f"{len(fields)} fields for {len(schema)} columns", lineno
            )
        row = []
        for (kind, raw), (name, tag) in zip(fields, schema):
            if kind == 'text':
                if tag != TEXT:
                    raise CIFError(f"quoted value in {tag} column {name!r}",
                                   lineno)
                row.append(raw)
            elif raw == "":
                row.append(None)
            elif tag == TEXT:
                raise CIFError(f"unquoted text in column {name!r}", lineno)
            else:
                try:
                    row.append(int(raw) if tag == INT else float(raw))
                except ValueError:
                    raise CIFError(f"bad {tag} literal {raw!r}",
                                   lineno) from None
        rows.append(tuple(row))
    try:
        return schema, conform(schema, rows)
    except SchemaError as e:
        raise CIFError(str(e), 1) from None
