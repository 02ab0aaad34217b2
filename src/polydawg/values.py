"""Tagged scalar values.

A value is one of: 64-bit int, finite float, str, or None (null).
Tags are the strings "int", "real", "text". Null carries no tag and
compares less than everything. Int and real compare as numbers; text
against a number is a validation error, reported when a statement
compiles, so no comparison of values ever meets one.
"""

import math

from .errors import SchemaError

INT = "int"
REAL = "real"
TEXT = "text"
TAGS = (INT, REAL, TEXT)

PY_TYPE = {INT: int, REAL: float, TEXT: str}  # each tag's exact type


def check_value(tag, v):
    """Validate v against tag (null always allowed); returns v."""
    if tag not in TAGS:
        raise SchemaError(f"unknown tag {tag!r}")
    if v is None:
        return v
    if isinstance(v, bool) or not isinstance(v, PY_TYPE[tag]):
        # ints are accepted into real columns and widened
        if tag == REAL and isinstance(v, int) and not isinstance(v, bool):
            return float(v)
        raise SchemaError(f"value {v!r} does not match tag {tag!r}")
    return finite(v) if tag == REAL else v


def finite(v):
    """Real ``v`` (or null) unless it is infinite or NaN, which raises.
    Checked values are finite, so only arithmetic that overflows can make
    such a value: engines pass each real they compute through this."""
    if v is not None and not math.isfinite(v):
        raise SchemaError("non-finite real values are rejected")
    return v


def row_sort_key(row):
    """Sort key for rows whose columns each hold one tag (as every
    CanonicalTable column does): column by column, null below every value
    and values in their native order."""
    return tuple([(v is not None, v) for v in row])


def is_numeric_tag(tag):
    return tag in (INT, REAL)
