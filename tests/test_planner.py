import hashlib
import random

import pytest

import generators
from polydawg import planner, querylang as ql
from polydawg.errors import PlanningError
from polydawg.island import Island, IslandRegistry
from polydawg.planner import (
    CrossOp, ExecuteContainer, Migrate, decompose, enumerate_plans,
    signature_of,
)


@pytest.fixture(scope="module")
def env():
    return generators.standard_catalog()


def resolve(env, text):
    catalog, registry = env
    return ql.validate(ql.parse(text), registry, catalog)


def plan(env, text, cap=16):
    catalog, registry = env
    resolved = resolve(env, text)
    containers, remainder = decompose(resolved)
    plans = enumerate_plans(containers, remainder, registry, catalog, cap=cap)
    return containers, remainder, plans


def test_single_engine_query_is_one_container(env):
    containers, remainder, plans = plan(
        env, "relational(SELECT id FROM patients WHERE age > 60)")
    assert len(containers) == 1
    assert containers[0].engine_id == "rel"
    assert remainder.nodes == []
    assert len(plans) == 1
    assert plans[0].estimated_moves == 0
    assert [type(s) for s in plans[0].steps] == [ExecuteContainer]


def test_cross_engine_matmul_enumerates_one_plan_per_site(env):
    containers, remainder, plans = plan(env, "d4m(matmul(dose_rc, vitals))")
    assert len(containers) == 2
    assert {c.engine_id for c in containers} == {"rel", "kv"}
    assert [n.kind for n in remainder.nodes] == ["matmul"]
    assert len(plans) == 3
    sites = sorted(s.site for p in plans for s in p.steps
                   if isinstance(s, CrossOp))
    assert sites == ["arr", "kv", "rel"]
    # each plan moves only the operands not already resident at the site
    by_site = {next(s.site for s in p.steps if isinstance(s, CrossOp)): p
               for p in plans}
    assert by_site["rel"].estimated_moves == 1  # vitals moves to rel
    assert by_site["kv"].estimated_moves == 1   # dose_rc moves to kv
    assert by_site["arr"].estimated_moves == 2  # both move


def test_resident_operand_binds_direct_without_migration(env):
    _, _, plans = plan(env, "d4m(matmul(dose_rc, vitals))")
    kv_plan = next(p for p in plans
                   if any(isinstance(s, CrossOp) and s.site == "kv"
                          for s in p.steps))
    cross = next(s for s in kv_plan.steps if isinstance(s, CrossOp))
    kinds = sorted(b[0] for b in cross.bindings.values())
    assert kinds == ["direct", "migrated"]
    # the direct operand is never exported, so no ExecuteContainer for it
    executed = [s.container.engine_id for s in kv_plan.steps
                if isinstance(s, ExecuteContainer)]
    assert executed == ["rel"]


def test_pushed_down_filters_stay_in_containers(env):
    containers, remainder, _ = plan(
        env,
        "relational(SELECT p.id FROM patients p JOIN "
        "cast(text(grep(notes, 'fever')), relational) n "
        "ON p.id = n.r WHERE p.age > 60)")
    rel = [c for c in containers if c.engine_id == "rel"]
    assert any("age > 60" in c.query for c in rel)
    kinds = [n.kind for n in remainder.nodes]
    assert "cast" in kinds and "select" in kinds


def test_plan_ids_are_constant_normalized(env):
    def ids(text):
        _, _, plans = plan(env, text)
        return [p.id for p in plans]

    a = ids("relational(SELECT id FROM patients WHERE age > 60)")
    b = ids("relational(SELECT id FROM patients WHERE age > 75)")
    assert a == b


def test_signature_structure_objects_constants(env):
    def sig(text):
        resolved = resolve(env, text)
        _, remainder = decompose(resolved)
        return signature_of(remainder, resolved)

    a = sig("d4m(select(vitals, rows='p1':'p5'))")
    b = sig("d4m(select(vitals, rows='p2':'p9'))")
    assert a.structure == b.structure
    assert a.objects == b.objects == frozenset({"kv.vitals"})
    assert a.constants != b.constants

    c = sig("d4m(transpose(vitals))")
    assert c.structure != a.structure

    empty = sig("relational(SELECT id FROM patients)")
    empty2 = sig("relational(SELECT age FROM patients)")
    # fully-contained queries share the empty-remainder structure
    assert empty.structure == empty2.structure


def test_plan_cap_is_enforced(env):
    text = ("d4m(matmul(matmul(dose_rc, vitals), "
            "matmul(vitals, dose_rc)))")
    _, _, plans = plan(env, text)
    assert 1 <= len(plans) <= 16
    _, _, capped = plan(env, text, cap=4)
    assert len(capped) == 4
    assert [p.id for p in capped] == [p.id for p in plans[:4]]
    # ordered by estimated migrations first
    moves = [p.estimated_moves for p in plans]
    assert moves == sorted(moves)


def test_missing_shims_raise_planning_error(env):
    catalog, _ = env
    registry = IslandRegistry()
    registry.add_island(
        Island("d4m", "keyvalue", frozenset({"matmul"}),
               ("rel", "kv", "arr"), "kv"),
        {"kv": {}},  # member engines but no translations at all
    )
    resolved = ql.validate(
        ql.parse("d4m(matmul(dose_rc, vitals))"), registry, catalog)
    containers, remainder = decompose(resolved)
    with pytest.raises(PlanningError):
        enumerate_plans(containers, remainder, registry, catalog)


def test_render_explain_mentions_all_parts(env):
    catalog, registry = env
    resolved = resolve(env, "d4m(matmul(dose_rc, vitals))")
    containers, remainder = decompose(resolved)
    plans = enumerate_plans(containers, remainder, registry, catalog)
    text = planner.render_explain(
        containers, remainder, signature_of(remainder, resolved), plans)
    assert "containers:" in text
    assert "remainder:" in text
    assert "structure:" in text
    assert "plans (3):" in text
    assert text.count("plan ") == 3


# Plan ids are the identities stored in the monitor log, so these are
# pinned: a refactor that changes a plan's steps or chains shows up here.
CODOSE = ("cast(relational(SELECT patient_id, SUM(dose) AS dose "
          "FROM meds GROUP BY patient_id), d4m, key=patient_id)")


def migrations(p):
    return [s for s in p.steps if isinstance(s, Migrate)]


def by_site(plans):
    return {next(s.site for s in p.steps if isinstance(s, CrossOp)): p
            for p in plans}


def hops(step):
    return [(s.source_model, s.target_model) for s in step.chain]


def test_array_leaf_reaches_rel_through_assoc_with_its_key_maps(env):
    catalog, _ = env
    _, _, plans = plan(env, "d4m(matmul(dosemat, vitals))")
    assert [p.id for p in plans] == [
        "4116667b97c6b3ba", "da58e7d525ccad8e", "b08ba081f882444b"]
    moved = migrations(by_site(plans)["rel"])
    assert [m.norm() for m in moved] == [
        "M[arr->rel:c0:array->keyvalue,keyvalue->relational]",
        "M[kv->rel:c1:keyvalue->relational]"]
    assert hops(moved[0]) == [("array", "keyvalue"), ("keyvalue", "relational")]
    dosemat = catalog.engine("arr").array("dosemat")
    assert moved[0].chain[0].dim_maps == dosemat.dim_maps
    assert moved[0].chain[0].dim_cols == ("r", "c")


def test_triple_relation_reaches_arr_through_assoc(env):
    _, _, plans = plan(env, "d4m(matmul(dose_rc, dosemat))")
    assert [p.id for p in plans] == [
        "1e60bdcb8a4abec4", "aaea8cddd8fa8d01", "c394ef574d05b071"]
    (moved,) = migrations(by_site(plans)["arr"])
    assert moved.norm() == (
        "M[rel->arr:c0:relational->keyvalue,keyvalue->array]")
    assert [(s.source_model, s.target_model, s.key) for s in moved.chain] == [
        ("relational", "keyvalue", None), ("keyvalue", "array", None)]


def test_codosing_plan_ids_and_migrations_are_pinned(env):
    # the repeated operand is one container and one cast node (r0), so the
    # rel-site plan moves r0 to rel once, for both the transpose and the
    # matmul
    _, _, plans = plan(env, f"d4m(matmul({CODOSE}, transpose({CODOSE})))")
    assert {p.id: [m.norm() for m in migrations(p)] for p in plans} == {
        "ace116943c7b51c6": ["M[None->rel:r0:keyvalue->relational]",
                             "M[None->rel:r1:keyvalue->relational]"],
        "3783b0e1299aa0ed": ["M[None->rel:r0:keyvalue->relational]",
                             "M[None->arr:r0:keyvalue->array]",
                             "M[None->arr:r1:keyvalue->array]"],
        "3801db41290e1641": ["M[None->rel:r0:keyvalue->relational]",
                             "M[None->kv:r0:]", "M[None->kv:r1:]"],
    }
    assert [p.id for p in plans] == [
        "ace116943c7b51c6", "3783b0e1299aa0ed", "3801db41290e1641"]


KV_SELECT = "d4m(select(matmul(vitals, vitals), rows='a':'z'))"


def test_cross_op_reads_its_inputs_in_its_site_engines_model(env):
    # the kv matmul result feeds a d4m select placed at kv as it is; only
    # the select placed at rel moves it into the relational model
    _, _, plans = plan(env, KV_SELECT)
    sites = by_site(plans)
    assert migrations(sites["kv"]) == []
    assert sites["kv"].estimated_moves == 0
    assert [m.norm() for m in migrations(sites["rel"])] == [
        "M[kv->rel:c0:keyvalue->relational]"]
    assert [p.id for p in plans] == ["c56814afa3db9517", "cfb47b25906aa0ce"]


# The digest of what planning 400 generated queries gives: each query's
# signature structure, its plan ids in order and its containers. A change
# to how a query decomposes or how its plans are named changes it.
GENERATED_PLANS_SHA256 = "2adb6829f1c8ad201db6b07e6e4c6b1cf80c0ffbc84f9bf846e6abb517a07da2"


def test_plans_of_generated_queries_are_pinned(env):
    catalog, registry = env
    rng = random.Random(5)
    digest = hashlib.sha256()
    for _ in range(400):
        resolved = resolve(env, generators.random_query(rng))
        containers, remainder = decompose(resolved)
        plans = enumerate_plans(containers, remainder, registry, catalog)
        record = [signature_of(remainder, resolved).structure,
                  [p.id for p in plans],
                  [(c.alias, c.engine_id, c.query) for c in containers]]
        digest.update(repr(record).encode() + b"\n")
    assert digest.hexdigest() == GENERATED_PLANS_SHA256


def test_only_conjuncts_naming_one_table_alone_are_pushed_down(env):
    # an unqualified column of the fetched table is pushed; a column
    # qualified with the other binding, or an unqualified one of the
    # other table, keeps its conjunct in the remainder's SELECT
    containers, remainder, _ = plan(
        env,
        "relational(SELECT p.id FROM patients p JOIN "
        "cast(text(grep(notes, 'fever')), relational) n ON p.id = n.r "
        "WHERE age > 60 AND n.r > 'p00002' AND r < 'p00090')")
    (rel,) = [c for c in containers if c.engine_id == "rel"]
    assert "age > 60" in rel.query
    assert "p00002" not in rel.query and "p00090" not in rel.query
    (select,) = [n for n in remainder.nodes if n.kind == "select"]
    assert "n.r > ?" in select.norm() and "r < ?" in select.norm()


@pytest.mark.parametrize("text, norm", [
    ("text(grep(cast(text(scan(notes, rows='p00001':'p00009')), text), "
     "'fever'))", "grep@text[grep(r0,?)]"),
    ("array(agg(sum(v), cast(array(subarray(waveform, patient=0:3, t=0:5)),"
     " array), by(patient)))", "agg@array[agg(r0,sum(v),by(patient))]"),
    ("array(subarray(cast(array(filter(waveform, v > 70.0)), array), "
     "patient=0:3))", "subarray@array[subarray(r0,patient=?)]"),
])
def test_text_and_array_remainder_nodes_norm_without_literals(env, text, norm):
    _, remainder, plans = plan(env, text)
    assert [n.norm() for n in remainder.nodes][1:] == [norm]
    assert plans
