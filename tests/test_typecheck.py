"""Predicate types are checked once, when a SELECT or FILTER compiles.

An ill-typed WHERE, FILTER or JOIN ON fails at validation with the span
of the offending expression, before any plan runs; int and real compare
as numbers, as the oracle answers them.
"""

import random

import pytest

import generators
import oracle
from polydawg.canonical import CanonicalTable
from polydawg.engines import default_catalog
from polydawg.errors import PolydawgError, ValidationError
from polydawg.executor import System, SystemConfig, VirtualClock
from polydawg.island import register_defaults
from polydawg.monitor import MonitorDB


def _emptied(catalog):
    """(catalog, registry) holding every object of ``catalog``, with its
    schema and load options, but no rows."""
    empty = default_catalog()
    for name, engine_id in sorted(catalog.directory().items()):
        engine = catalog.engine(engine_id)
        empty.load(engine_id, name,
                   CanonicalTable(engine.schema_of(name), []),
                   engine.load_options_for(name))
    return empty, register_defaults(empty)


def _system(catalog, registry, log=None):
    return System(catalog, registry, MonitorDB(log), SystemConfig(seed=0),
                  clock=VirtualClock())


@pytest.mark.parametrize("emptied", [False, True])
def test_ill_typed_predicates_fail_at_validation_with_a_span(
        tmp_path, emptied):
    catalog, registry = generators.standard_catalog()
    if emptied:
        catalog, registry = _emptied(catalog)
    objects = catalog.directory()
    log = tmp_path / "monitor.log"
    system = _system(catalog, registry, str(log))
    rng = random.Random(1111)
    for _ in range(200):
        text, span, message = generators.ill_typed_query(rng)
        for run in (system.plan_query, system.run_production,
                    system.run_training):
            with pytest.raises(ValidationError) as caught:
                run(text)
            assert str(caught.value).startswith(message), text
            assert caught.value.span == span, text
        assert system.monitor.pending == [] and system.monitor.records == []
    assert not log.exists()
    assert catalog.directory() == objects


@pytest.mark.parametrize("body, fragment, message", [
    ("SELECT id FROM patients WHERE age > 'x'", "age > 'x'",
     "cross-tag comparison: int vs text"),
    ("SELECT p.id FROM patients p JOIN meds m ON p.id = m.dose",
     "p.id = m.dose", "cross-tag comparison: text vs real"),
    ("SELECT id FROM patients WHERE COUNT(*) > 1", "COUNT(*)",
     "aggregate used outside a grouping context"),
    ("SELECT id FROM patients WHERE nosuch > 1", "nosuch",
     "unknown column 'nosuch'"),
])
def test_relational_type_errors_fail_at_validation_as_the_engine_words_them(
        body, fragment, message):
    for catalog, registry in [generators.standard_catalog(),
                              _emptied(generators.standard_catalog()[0])]:
        text = f"relational({body})"
        with pytest.raises(ValidationError) as caught:
            _system(catalog, registry).plan_query(text)
        assert str(caught.value) == message
        start = text.index(fragment)
        assert caught.value.span == (start, start + len(fragment))
        # the engine raises the same text, compiling the same statement
        with pytest.raises(PolydawgError) as native:
            catalog.execute_native("rel", body)
        assert str(native.value) == message
        start = body.index(fragment)
        assert native.value.span == (start, start + len(fragment))


def test_filter_type_error_fails_at_validation_with_a_span():
    text = "array(filter(waveform, v > 'x'))"
    for catalog, registry in [generators.standard_catalog(),
                              _emptied(generators.standard_catalog()[0])]:
        with pytest.raises(ValidationError,
                           match="cross-tag comparison: real vs text") as e:
            _system(catalog, registry).plan_query(text)
        assert text[slice(*e.value.span)] == "v > 'x'"


@pytest.mark.parametrize("text", [
    "relational(SELECT id, age FROM patients WHERE age > 50.5)",
    "relational(SELECT patient_id, drug, dose FROM meds WHERE dose <= 3)",
    "array(filter(waveform, v > 42))",
    "array(filter(waveform, v < 80.5 AND t >= 2.5))",
    "relational(SELECT p.id, m.dose FROM patients p JOIN meds m "
    "ON p.age = m.dose)",
    "relational(SELECT p.id, m.dose FROM patients p JOIN meds m "
    "ON m.dose = p.age WHERE m.dose > p.age - 60)",
    # more than one plan each, with a cast on the way
    "relational(SELECT r, c, v FROM cast(d4m(ewise(dose_rc, vitals, "
    "plus)), relational) t WHERE v > 1)",
    "array(filter(cast(d4m(ewise(dose_rc, vitals, plus)), array), "
    "v <= 1 OR r > 2))",
])
def test_int_and_real_compare_as_numbers_on_every_plan(text):
    catalog, registry = generators.standard_catalog()
    system = _system(catalog, registry)
    _, want = oracle.Oracle(catalog).query(text)
    assert want
    pq = system.plan_query(text)
    for plan in pq.plans:
        got, _ = system.execute_plan(pq, plan)
        assert oracle.rows_bag_equal(got.rows, want), plan.id
