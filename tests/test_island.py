import random

import pytest

import generators
import oracle
from polydawg import sql
from polydawg.engines import default_catalog
from polydawg.island import ShimError, operator_of, register_defaults
from polydawg.querylang import D4mOp, ObjRef, RawExpr, TextOp


@pytest.fixture
def registry():
    return register_defaults(default_catalog())


def test_island_membership_and_defaults(registry):
    assert set(registry.islands) == {
        "relational", "array", "text", "d4m", "raw.rel", "raw.kv", "raw.arr"}
    d4m = registry.island("d4m")
    assert d4m.members == ("rel", "kv", "arr")
    assert d4m.default_engine == "rel"
    assert registry.island("relational").members == ("rel",)
    assert registry.island("text").members == ("kv",)
    assert registry.island("nope") is None


def test_supporting_engines_follow_member_order(registry):
    assert registry.supporting_engines("d4m", "matmul") == ["rel", "kv", "arr"]
    assert registry.supporting_engines("d4m", "ewise") == ["kv", "arr"]
    assert registry.supporting_engines("d4m", "select") == ["rel", "kv"]
    assert registry.supporting_engines("d4m", "transpose") == ["rel"]
    assert registry.supporting_engines("relational", "select") == ["rel"]
    assert not registry.supports("d4m", "arr", "select")


def test_operator_of_classifies_expressions():
    assert operator_of(sql.parse_select_text("SELECT a FROM t")) == "select"
    assert operator_of(D4mOp("matmul", [ObjRef("a"), ObjRef("b")])) == "matmul"
    assert operator_of(TextOp("grep", ObjRef("n"), {"needle": "x"})) == "grep"
    assert operator_of(RawExpr("SCAN n")) == "native-passthrough"


def test_exact_shim_translations(registry):
    mm = D4mOp("matmul", [ObjRef("a"), ObjRef("b")])
    assert registry.translate("d4m", mm, "kv") == \
        "MATMUL a b SEMIRING plus.times"
    assert registry.translate("d4m", mm, "arr") == \
        "MATMUL a b SEMIRING plus.times"
    assert registry.translate("d4m", mm, "rel") == (
        "SELECT a.r AS row, b.c AS col, SUM(a.v * b.v) AS val "
        "FROM a a JOIN b b ON a.c = b.r GROUP BY a.r, b.c")
    sel = D4mOp("select", [ObjRef("a")],
                {"rows": ("p1", "p2"), "cols": ("c1", "c2")})
    assert registry.translate("d4m", sel, "kv") == \
        'SCAN a ROWS "p1":"p2" COLS "c1":"c2"'
    assert registry.translate("d4m", sel, "rel") == (
        "SELECT r AS row, c AS col, v AS val FROM a "
        "WHERE r >= 'p1' AND r <= 'p2' "
        "AND c >= 'c1' AND c <= 'c2'")
    tp = D4mOp("transpose", [ObjRef("a")])
    assert registry.translate("d4m", tp, "rel") == \
        "SELECT a.c AS row, a.r AS col, a.v AS val FROM a a"
    ew = D4mOp("ewise", [ObjRef("a"), ObjRef("b")], {"ewise_op": "plus"})
    assert registry.translate("d4m", ew, "kv") == "EWISE a b plus"


def test_translate_honors_binding(registry):
    mm = D4mOp("matmul", [ObjRef("a"), ObjRef("b")])
    out = registry.translate(
        "d4m", mm, "kv", binding=lambda leaf: "__mig_" + leaf.name)
    assert out == "MATMUL __mig_a __mig_b SEMIRING plus.times"


def test_missing_shim_raises(registry):
    sel = D4mOp("select", [ObjRef("a")], {"rows": ("x", "y")})
    with pytest.raises(ShimError):
        registry.translate("d4m", sel, "arr")
    tp = D4mOp("transpose", [ObjRef("a")])
    with pytest.raises(ShimError):
        registry.translate("d4m", tp, "kv")


def test_raw_passthrough_is_byte_identical(registry):
    body = "SCAN notes   ROWS \"a\":\"b\"  -- odd spacing preserved"
    assert registry.translate("raw.kv", RawExpr(body), "kv") == body


def test_shim_coherence_matmul_on_kv_and_rel():
    """The kv MATMUL shim and the rel join shim compute the same product."""
    catalog = default_catalog()
    registry = register_defaults(catalog)
    rng = random.Random(17)
    for i in range(30):
        a = generators.random_assoc_entries(rng, max_dim=10, val_tag="int")
        b = generators.random_assoc_entries(rng, max_dim=10, val_tag="int")
        catalog.load("kv", f"A{i}", generators.entries_table(a, "int"), {})
        catalog.load("kv", f"B{i}", generators.entries_table(b, "int"), {})
        catalog.load("rel", f"Ar{i}", generators.triple_relation(a, "int"),
                     {"key": ["r", "c"]})
        catalog.load("rel", f"Br{i}", generators.triple_relation(b, "int"),
                     {"key": ["r", "c"]})
        want = sorted(
            (r, c, v) for (r, c), v in oracle.dense_matmul(a, b).items())
        kv_q = registry.translate(
            "d4m", D4mOp("matmul", [ObjRef(f"A{i}"), ObjRef(f"B{i}")]), "kv")
        rel_q = registry.translate(
            "d4m", D4mOp("matmul", [ObjRef(f"Ar{i}"), ObjRef(f"Br{i}")]),
            "rel")
        assert sorted(catalog.execute_native("kv", kv_q).rows) == want
        assert sorted(catalog.execute_native("rel", rel_q).rows) == want
