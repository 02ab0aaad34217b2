import random

import pytest

from polydawg.errors import SchemaError, TypeMismatchError
from polydawg.values import INT, REAL, TEXT, check_value, row_sort_key


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


def compare(a, b):
    """The reference order ``row_sort_key`` gives a column: null below
    everything, values of one tag in native order. Values of two tags
    have no place in one column, so comparing them raises."""
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


def test_tag_of():
    assert tag_of(3) == INT
    assert tag_of(3.5) == REAL
    assert tag_of("x") == TEXT
    assert tag_of(None) is None


def test_compare_total_order_within_tag():
    assert compare(1, 2) < 0
    assert compare(2.5, 2.5) == 0
    assert compare("b", "a") > 0


def test_null_sorts_below_everything_and_equals_itself():
    assert compare(None, None) == 0
    assert compare(None, -10) < 0
    assert compare("", None) > 0


def test_cross_tag_comparison_raises():
    with pytest.raises(TypeMismatchError):
        compare(1, "1")
    with pytest.raises(TypeMismatchError):
        compare(1, 1.0)


def test_check_value_widens_int_into_real_columns():
    assert check_value(REAL, 3) == 3.0
    assert isinstance(check_value(REAL, 3), float)
    with pytest.raises(SchemaError):
        check_value(INT, 3.5)
    with pytest.raises(SchemaError):
        check_value(INT, True)
    with pytest.raises(SchemaError):
        check_value(REAL, float("nan"))


def test_row_sort_key_is_a_total_order_property():
    rng = random.Random(5)
    pools = ([None, -3, 0, 7], [None, -1.5, 2.25], [None, "a", "zz", ""])
    for _ in range(200):
        rows = [tuple(rng.choice(pool) for pool in pools) for _ in range(20)]
        ordered = sorted(rows, key=row_sort_key)
        assert sorted(ordered, key=row_sort_key) == ordered
        assert sorted(rows, key=row_sort_key) == ordered
        # the key orders rows as compare() does, column by column
        for a, b in zip(ordered, ordered[1:]):
            first = next((compare(x, y) for x, y in zip(a, b) if x != y), 0)
            assert first <= 0
