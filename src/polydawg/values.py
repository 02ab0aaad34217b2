"""Tagged scalar values.

A value is one of: 64-bit int, finite float, str, or None (null).
Tags are the strings "int", "real", "text". Null carries no tag and
compares less than everything; any other cross-tag comparison is an
error.
"""

import math

from .errors import SchemaError, TypeMismatchError

INT = "int"
REAL = "real"
TEXT = "text"
TAGS = (INT, REAL, TEXT)

PY_TYPE = {INT: int, REAL: float, TEXT: str}  # each tag's exact type


def tag_of(v):
    """Tag of a non-null value, or None for null."""
    if v is None:
        return None
    if isinstance(v, bool):
        raise SchemaError("bool is not a storable value")
    if isinstance(v, int):
        return INT
    if isinstance(v, float):
        return REAL
    if isinstance(v, str):
        return TEXT
    raise SchemaError(f"unstorable value of type {type(v).__name__}")


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


def compare(a, b):
    """Total order: null < everything; same-tag values use native order.

    Cross-tag comparison between non-null values raises.
    """
    if a is None and b is None:
        return 0
    if a is None:
        return -1
    if b is None:
        return 1
    ta, tb = tag_of(a), tag_of(b)
    if ta != tb:
        raise TypeMismatchError(f"cross-tag comparison: {ta} vs {tb}")
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def row_sort_key(row):
    """Sort key giving ``compare``'s order, column by column, to rows whose
    columns each hold one tag (as every CanonicalTable column does)."""
    return tuple([(v is not None, v) for v in row])


def is_numeric_tag(tag):
    return tag in (INT, REAL)
