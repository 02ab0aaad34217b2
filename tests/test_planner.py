import hashlib
import importlib.util
import pathlib
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
    # the rel-resident relation is read as associative data by a cast
    assert [n.kind for n in remainder.nodes] == ["cast", "matmul"]
    assert len(plans) == 3
    # each plan moves only the operands not already resident at the site
    # in its model; the cast's value is resident nowhere
    sites = by_site(plans)
    assert sorted(sites) == ["arr", "kv", "rel"]
    assert sites["rel"].estimated_moves == 2  # both move
    assert sites["kv"].estimated_moves == 1   # dose_rc moves to kv
    assert sites["arr"].estimated_moves == 2  # both move


def test_resident_operand_binds_direct_without_migration(env):
    _, _, plans = plan(env, "d4m(matmul(dose_rc, vitals))")
    kv_plan = next(p for p in plans
                   if any(isinstance(s, CrossOp) and s.site == "kv"
                          for s in p.steps))
    cross = next(s for s in kv_plan.steps
                 if isinstance(s, CrossOp) and s.site == "kv")
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


def test_explain_shows_a_middleware_cast_in_memory(env):
    catalog, registry = env
    resolved = resolve(env, "d4m(transpose(dose_rc))")
    containers, remainder = decompose(resolved)
    (p,) = enumerate_plans(containers, remainder, registry, catalog)
    text = planner.render_explain(
        containers, remainder, signature_of(remainder, resolved), [p])
    assert "    - cross-op cast (r0) in memory\n" in text
    assert "None" not in text
    assert "cross-op transpose (r1) at rel" in text


# Plan ids are the identities stored in the monitor log, so these are
# pinned: a refactor that changes a plan's steps or chains shows up here.
CODOSE = ("cast(relational(SELECT patient_id, SUM(dose) AS dose "
          "FROM meds GROUP BY patient_id), d4m, key=patient_id)")


def migrations(p):
    return [s for s in p.steps if isinstance(s, Migrate)]


def by_site(plans):
    return {next(s.site for s in p.steps
                 if isinstance(s, CrossOp) and s.site is not None): p
            for p in plans}


def cast_chains(remainder):
    return [[(s.source_model, s.target_model, s.key) for s in n.params["chain"]]
            for n in remainder.nodes if n.kind == "cast"]


def test_array_leaf_reaches_rel_through_assoc_with_its_key_maps(env):
    # the array leaf is read as associative data by its cast node, with
    # its key maps, and the rel-site plan moves that value
    catalog, _ = env
    _, remainder, plans = plan(env, "d4m(matmul(dosemat, vitals))")
    assert [p.id for p in plans] == [
        "f028cc7c12777049", "75ae0574b62c6ccd", "f93ec8b627128d14"]
    moved = migrations(by_site(plans)["rel"])
    assert [m.norm() for m in moved] == [
        "M[None->rel:r0:keyvalue->relational]",
        "M[kv->rel:c1:keyvalue->relational]"]
    assert cast_chains(remainder) == [[("array", "keyvalue", None)]]
    (spec,) = remainder.nodes[0].params["chain"]
    dosemat = catalog.engine("arr").array("dosemat")
    assert spec.dim_maps == dosemat.dim_maps
    assert spec.dim_cols == ("r", "c")


def test_triple_relation_reaches_arr_through_assoc(env):
    _, remainder, plans = plan(env, "d4m(matmul(dose_rc, dosemat))")
    assert [p.id for p in plans] == [
        "1369006011baebbe", "2521e75966cda2aa", "530d760dcb7a4384"]
    assert [m.norm() for m in migrations(by_site(plans)["arr"])] == [
        "M[None->arr:r0:keyvalue->array]", "M[None->arr:r1:keyvalue->array]"]
    assert cast_chains(remainder) == [[("relational", "keyvalue", None)],
                                      [("array", "keyvalue", None)]]


@pytest.mark.parametrize("text, plan_moves", [
    ("d4m(transpose(dose_rc))", {"rel": 1}),
    ("d4m(matmul(dosemat, dosemat))", {"arr": 1, "kv": 1, "rel": 1}),
])
def test_an_object_of_another_model_is_read_through_one_cast(
        env, text, plan_moves):
    # no shim reads an object outside its island's model directly, so even
    # a query over one engine's objects casts them and moves the cast's
    # value to each site, once per plan
    containers, remainder, plans = plan(env, text)
    assert len(containers) == 1
    assert remainder.nodes[0].kind == "cast"
    assert {site: p.estimated_moves
            for site, p in by_site(plans).items()} == plan_moves


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
GENERATED_PLANS_SHA256 = "c6357b0fc714f9b626cac4b3570fd0c83013fb34aafc68000a28929ec93682ae"


@pytest.fixture(scope="module")
def generated(env):
    """(resolved, containers, remainder, plans, the read chains validation
    typed operands and casts with) of 400 generated queries."""
    catalog, registry = env
    rng = random.Random(5)
    read_chain = ql.read_chain
    out = []
    for _ in range(400):
        typed = []

        def recording(*args, **kw):
            typed.append(read_chain(*args, **kw))
            return typed[-1]
        with pytest.MonkeyPatch.context() as mp:  # validation only
            mp.setattr(ql, "read_chain", recording)
            resolved = resolve(env, generators.random_query(rng))
        containers, remainder = decompose(resolved)
        plans = enumerate_plans(containers, remainder, registry, catalog)
        out.append((resolved, containers, remainder, plans, typed))
    return out


def test_plans_of_generated_queries_are_pinned(generated):
    digest = hashlib.sha256()
    for resolved, containers, remainder, plans, _ in generated:
        record = [signature_of(remainder, resolved).structure,
                  [p.id for p in plans],
                  [(c.alias, c.engine_id, c.query) for c in containers]]
        digest.update(repr(record).encode() + b"\n")
    assert digest.hexdigest() == GENERATED_PLANS_SHA256


def test_every_operand_is_read_in_its_islands_model_by_its_typed_chain(
        env, generated):
    _, registry = env
    for _, containers, remainder, _, typed in generated:
        model = {c.alias: c.out_model for c in containers}
        for node in remainder.nodes:
            if node.kind == "cast":
                assert node.params["chain"] in typed
            else:
                want = registry.island(node.island).model
                assert {model[a] for a in node.inputs} == {want}
            model[node.alias] = node.out_model


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


# A digest per benchmark query shape of its signature structure and plan
# ids at scale 1. The benchmark compares runs of two trees by these plans,
# so a change to any of them must be recorded where the shape's numbers
# are read.
WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "workloads.py"
BENCHMARK_SHAPE_PLANS = {
    "rel_select": "5cf08010bce8c6cb",
    "rel_group": "f3305b5b67f9828b",
    "rel_join": "7debbf299bd19b4b",
    "join_grep": "7da7164fdd04e7d1",
    "text_scan": "af5e1f9e0bc47270",
    "text_grep": "960645f7044e342f",
    "array_subarray": "e02ab0d53fa92f3a",
    "array_filter": "f3485ecff29b43ad",
    "codose": "6c2a9b23b7d37058",
    "wave_sim": "3487b533b0c25721",
    "wave_ewise": "2b3dfe38274f526f",
    "codose_rel": "7296c2c9f33f52c5",
}


def test_plans_of_benchmark_query_shapes_are_pinned(env):
    catalog, registry = env
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    gen = workloads.QueryGen(random.Random(1), scale=1, window=40)
    got = {}
    for shapes in workloads.FAMILIES.values():
        for shape in shapes:
            resolved = resolve(env, getattr(gen, shape)())
            containers, remainder = decompose(resolved)
            plans = enumerate_plans(containers, remainder, registry, catalog)
            record = [signature_of(remainder, resolved).structure,
                      [p.id for p in plans]]
            got[shape] = hashlib.sha256(repr(record).encode()).hexdigest()[:16]
    assert got == BENCHMARK_SHAPE_PLANS

