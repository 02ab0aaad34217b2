import random
import re

import pytest

import generators
from polydawg import querylang as ql
from polydawg.errors import CatalogError, QuerySyntaxError, ValidationError
from polydawg.querylang import CastNode, D4mOp, ObjRef, RawExpr


def roundtrip(text):
    first = ql.parse(text)
    printed = ql.pretty_print(first)
    second = ql.parse(printed)
    assert first.root == second.root
    assert ql.pretty_print(second) == printed
    return printed


# --- parsing -------------------------------------------------------------------

def test_round_trip_each_island():
    roundtrip("relational(SELECT a, b FROM t WHERE a > 3)")
    roundtrip("d4m(matmul(a, b))")
    roundtrip("d4m(select(a, rows='p1':'p9', cols='c1':'c9'))")
    roundtrip("d4m(ewise(transpose(a), b, plus))")
    roundtrip("text(scan(notes, rows='a':'z'))")
    roundtrip("text(grep(notes, 'fever'))")
    roundtrip("array(subarray(w, p=0:3, t=-1:5))")
    roundtrip("array(filter(w, v >= 2.5))")
    roundtrip("array(agg(sum(v), w, by(p)))")
    roundtrip("raw.kv(SCAN notes)")
    # a quoted paren does not close the raw body
    assert roundtrip('raw.kv(GREP notes ")" (a, (b)) )') == \
        'raw.kv(GREP notes ")" (a, (b)) )'


def test_round_trip_casts_in_every_position():
    roundtrip("relational(SELECT v FROM cast(text(grep(n, 'x')), "
              "relational) t WHERE v > 1)")
    roundtrip("d4m(matmul(cast(relational(SELECT r, c, v FROM t), d4m, "
              "key=r), b))")
    roundtrip("relational(SELECT r, v FROM cast(d4m(matmul(a, b)), "
              "relational) j)")


def test_cast_placeholders_are_deterministic():
    text = "d4m(matmul(cast(text(scan(n)), d4m), cast(text(scan(m)), d4m)))"
    a = ql.parse(text)
    b = ql.parse(text)
    names_a = [c.placeholder for c in a.root.casts]
    names_b = [c.placeholder for c in b.root.casts]
    assert names_a == names_b == ["__cast0", "__cast1"]


def test_cast_alias_and_key_parsing():
    ast = ql.parse("d4m(matmul(cast(relational(SELECT * FROM t), d4m, "
                   "key=a, b), x))")
    cast = ast.root.casts[0]
    assert isinstance(cast, CastNode)
    assert cast.key == ("a", "b") and cast.alias is None
    ast = ql.parse("relational(SELECT v FROM cast(text(scan(n)), "
                   "relational, t))")
    assert ast.root.casts[0].alias == "t"


def test_raw_bodies_are_byte_identical():
    body = "SELECT  a ,b FROM t  WHERE x = 'odd (paren'"
    ast = ql.parse(f"raw.rel({body})")
    assert isinstance(ast.root.expr, RawExpr)
    assert ast.root.expr.body == body
    assert ql.pretty_print(ast) == f"raw.rel({body})"


@pytest.mark.parametrize("bad", [
    "",
    "bogus(SELECT a FROM t)",
    "relational(SELECT a FROM t) trailing",
    "d4m(matmul(a))",
    "d4m(select(a, rows=\"p1\":\"p2\"))",   # ranges must be single-quoted
    "d4m(ewise(a, b, times))",
    "text(scan())",
    "text(grep(n))",
    "array(subarray(w))",
    "array(agg(sum(v), w, by(p))",
    "raw.kv(SCAN (unbalanced",
    "d4m(matmul(cast(text(scan(n)), d4m, a, b), x))",  # two aliases
])
def test_syntax_errors_have_spans(bad):
    with pytest.raises(QuerySyntaxError) as err:
        ql.parse(bad)
    start, end = err.value.span
    assert 0 <= start <= end <= max(len(bad), 1)


def test_collect_constants_covers_all_islands():
    assert sorted(ql.collect_constants(ql.parse(
        "relational(SELECT a FROM t WHERE x > 3 AND y = 'v')"))) == \
        ["'v'", "3"]
    assert sorted(ql.collect_constants(ql.parse(
        "d4m(select(a, rows='p1':'p2'))"))) == ["'p1'", "'p2'"]
    assert ql.collect_constants(ql.parse(
        "text(grep(n, 'fever'))")) == ["'fever'"]
    assert sorted(ql.collect_constants(ql.parse(
        "array(subarray(w, p=0:3))"))) == ["0", "3"]
    assert sorted(ql.collect_constants(ql.parse(
        "raw.rel(SELECT a FROM t WHERE x = 7)"))) == ["7"]
    # constants inside casts are part of the enclosing query
    assert "'z'" in ql.collect_constants(ql.parse(
        "d4m(matmul(cast(text(grep(n, 'z')), d4m), b))"))


# --- validation ------------------------------------------------------------------

@pytest.fixture(scope="module")
def env():
    return generators.standard_catalog()


def check(env, text):
    catalog, registry = env
    return ql.validate(ql.parse(text), registry, catalog)


def test_validate_annotates_leaves_and_scopes(env):
    resolved = check(env, "d4m(matmul(dose_rc, vitals))")
    root = resolved.ast.root
    assert resolved.scope_info(root).model == "keyvalue"
    a, b = root.expr.inputs
    assert resolved.leaf(a).engine == "rel"
    assert resolved.leaf(b).engine == "kv"


def test_validate_unknown_objects_and_islands(env):
    with pytest.raises(ValidationError):
        check(env, "relational(SELECT a FROM nothere)")
    with pytest.raises(ValidationError):
        check(env, "text(grep(patients, 'x'))")  # patients is relational


def test_validate_cast_target_island_must_exist(env):
    with pytest.raises(ValidationError):
        check(env, "relational(SELECT v FROM cast(text(scan(notes)), "
                   "bogus) t)")


def test_validate_d4m_leaf_encoding(env):
    # patients is a relation but not triple-encoded, so d4m rejects it
    with pytest.raises(ValidationError):
        check(env, "d4m(matmul(patients, vitals))")
    # dose_rc is a triple relation, so it is a valid d4m operand
    check(env, "d4m(transpose(dose_rc))")


@pytest.mark.parametrize("text, fragment, message", [
    ("array(agg(sum(t), waveform, by(patient)))",
     "agg(sum(t), waveform, by(patient))", "unknown attribute 't'"),
    ("array(subarray(waveform, v=0:1))", "subarray(waveform, v=0:1)",
     "unknown dimension 'v'"),
    ("d4m(transpose(cast(raw.kv(SCAN notes), d4m)))",
     "cast(raw.kv(SCAN notes), d4m)",
     "a raw scope result has no schema and cannot be cast"),
    ("d4m(matmul(cast(relational(SELECT id, age FROM patients), d4m), "
     "vitals))", "cast(relational(SELECT id, age FROM patients), d4m)",
     "cast from relational to keyvalue requires key=..."),
    ("d4m(matmul(vitals, patients))", "patients",
     "relation->assoc cast requires 'key' or a triple-encoded relation "
     "(r:text, c:text, v)"),
    ("d4m(ewise(vitals, notes, plus))", "notes",
     "ewise requires numeric values"),
    ("d4m(matmul(vitals, cast(raw.foo(SCAN notes), d4m)))",
     "raw.foo(SCAN notes)", "unknown island 'raw.foo'"),
])
def test_validation_errors_span_the_node_they_check(
        env, text, fragment, message):
    # an error that names no span of its own takes the span of the leaf,
    # operator or cast whose check raised it
    with pytest.raises(ValidationError) as caught:
        check(env, text)
    assert str(caught.value) == message
    assert text[slice(*caught.value.span)] == fragment


def test_validate_relational_cast_key_rules(env):
    # casting a relation into d4m requires a key
    with pytest.raises(ValidationError):
        check(env, "d4m(matmul(cast(relational(SELECT id, age FROM "
                   "patients), d4m), vitals))")
    check(env, "d4m(matmul(cast(relational(SELECT r, c, v FROM dose_rc), "
               "d4m, key=r), vitals))")


def test_validate_columns_against_schema(env):
    with pytest.raises(ValidationError):
        check(env, "relational(SELECT bogus_col FROM patients)")
    with pytest.raises(ValidationError):
        check(env, "array(subarray(waveform, bogus_dim=0:1))")


def test_validate_reports_statement_errors_like_the_engine(env):
    catalog, _ = env
    for body, message in [
        ("SELECT id FROM patients WHERE bogus > 1", "unknown column 'bogus'"),
        ("SELECT id FROM patients ORDER BY age",
         "ORDER BY column 'age' not in output"),
    ]:
        with pytest.raises(ValidationError, match=re.escape(message)):
            check(env, f"relational({body})")
        with pytest.raises(CatalogError, match=re.escape(message)):
            catalog.execute_native("rel", body)
    # so are type errors, which need no row
    with pytest.raises(ValidationError,
                       match="cross-tag comparison: int vs text"):
        check(env, "relational(SELECT id FROM patients WHERE age > 'x')")


NOTES_AS_ARRAY = "array(filter(cast(text(scan(notes)), array), r >= 0))"


@pytest.mark.parametrize("text, message", [
    ("array(filter(waveform, bogus > 1))", "unknown column 'bogus'"),
    ("array(filter(cast(text(scan(notes)), array, w), w.v > 1))",
     "unknown column 'w.v'"),
    (f"d4m(transpose(cast({NOTES_AS_ARRAY}, d4m)))",
     "array->assoc requires a numeric attribute"),
    ("d4m(transpose(cast(relational(SELECT age AS r, sex AS c, age AS v "
     "FROM patients), d4m, key=r)))", "non-key columns must share one"),
    ("array(agg(sum(t), waveform, by(patient)))", "unknown attribute 't'"),
    ("array(agg(count(v), waveform, by(v)))", "unknown dimension 'v'"),
    ("array(subarray(waveform, v=0:1))", "unknown dimension 'v'"),
    ("d4m(transpose(cast(raw.kv(SCAN notes), d4m)))", "raw scope"),
    # the first two columns of a value in the array model are its
    # dimensions, as migration loads it
    ("array(filter(cast(array(agg(sum(v), waveform, by(patient))), array), "
     "sum > 1))", "dimension column 'sum' must be int"),
])
def test_validate_reports_what_the_engine_or_cast_would(env, text, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        check(env, text)


def test_validate_rejects_duplicate_table_bindings(env):
    for body, binding in [
        ("SELECT * FROM patients x JOIN meds x ON x.id = x.patient_id", "x"),
        ("SELECT * FROM meds JOIN meds ON drug = drug", "meds"),
    ]:
        with pytest.raises(ValidationError,
                           match=f"duplicate table binding '{binding}'"):
            check(env, f"relational({body})")


def test_validate_raw_scope_is_opaque(env):
    resolved = check(env, "raw.kv(SCAN notes)")
    assert resolved.scope_info(resolved.ast.root).schema is None


def test_random_query_corpus_parses_and_validates(env):
    rng = random.Random(123)
    for _ in range(200):
        text = generators.random_query(rng)
        roundtrip(text)
        check(env, text)


def test_each_cast_of_a_random_query_has_its_own_alias(env):
    # seed 5 once drew one alias for two casts of the same query
    rng = random.Random(5)
    for _ in range(400):
        text = generators.random_query(rng)
        aliases = re.findall(r", d4m, (\w+), key=", text)
        assert len(aliases) == len(set(aliases)), text
        check(env, text)
