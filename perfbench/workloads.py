"""Seeded inputs for the polydawg benchmark.

Everything a run feeds the program comes from here: query text with
fresh literals for each query family, the small CIF objects that the
``cli-restart`` workload loads, and the pre-written monitor history of
``serve-history``. The dataset itself comes from ``polydawg.datagen``
with the run's seed. The same seed gives the same inputs.
"""

import random

from polydawg import querylang
from polydawg.canonical import CanonicalTable
from polydawg.monitor import MonitorDB, PerfRecord
from polydawg.planner import Signature

NOTE_WORDS = ["stable", "fever", "improving", "sedated", "alert",
              "hypotensive", "tachycardic", "extubated", "transfused",
              "discharged"]
DRUGS = ["aspirin", "heparin", "insulin", "lisinopril", "metformin",
         "morphine", "propofol", "vancomycin"]
WAVEFORM_TICKS = 10  # polydawg.datagen emits ticks 0..9 per patient

# family -> query shapes; a shape is one query template whose literals
# are the only thing that varies, so it has one signature structure,
# one object set and one set of candidate plans
FAMILIES = {
    "rel_select": ["rel_select"],
    "rel_group": ["rel_group"],
    "rel_join": ["rel_join"],
    "join_grep": ["join_grep"],
    "text": ["text_scan", "text_grep"],
    "array": ["array_subarray", "array_filter"],
    "codose": ["codose"],
    "wave_sim": ["wave_sim"],
    "wave_ewise": ["wave_ewise"],
    "codose_rel": ["codose_rel"],
}


def _pid(i):
    return f"p{i:05d}"


class QueryGen:
    """Query text with fresh literals, one method per query shape.

    ``window`` is the number of patients the cross-engine shapes touch;
    their matmul results have about ``window ** 2`` entries.
    """

    def __init__(self, rng, scale, window):
        self.rng = rng
        self.patients = 100 * scale
        self.window = min(window, self.patients)

    def query(self, family):
        return getattr(self, self.rng.choice(FAMILIES[family]))()

    def _span(self, width):
        lo = self.rng.randint(0, self.patients - width)
        return lo, lo + width - 1

    def _ages(self):
        lo = self.rng.randint(18, 70)
        return lo, self.rng.randint(lo + 5, 95)

    def rel_select(self):
        lo, hi = self._ages()
        return (f"relational(SELECT id, age FROM patients "
                f"WHERE age > {lo} AND age <= {hi})")

    def rel_group(self):
        lo, hi = self._ages()
        return (f"relational(SELECT sex, COUNT(*), AVG(age) FROM patients "
                f"WHERE age > {lo} AND age <= {hi} GROUP BY sex)")

    def rel_join(self):
        drug = self.rng.choice(DRUGS)
        dose = round(self.rng.uniform(0.5, 15.0), 2)
        return ("relational(SELECT p.id, m.dose FROM patients p JOIN meds m "
                f"ON p.id = m.patient_id WHERE m.drug = '{drug}' "
                f"AND m.dose > {dose} ORDER BY id LIMIT 20)")

    def join_grep(self):
        word = self.rng.choice(NOTE_WORDS)
        age = self.rng.randint(18, 80)
        return ("relational(SELECT p.id, p.age FROM patients p JOIN "
                f"cast(text(grep(notes, '{word}')), relational) n "
                f"ON p.id = n.r WHERE p.age > {age} ORDER BY id LIMIT 15)")

    def text_scan(self):
        lo, hi = self._span(self.rng.randint(5, self.patients // 2))
        return f"text(scan(notes, rows='{_pid(lo + 1)}':'{_pid(hi + 1)}'))"

    def text_grep(self):
        return f"text(grep(notes, '{self.rng.choice(NOTE_WORDS)}'))"

    def array_subarray(self):
        lo, hi = self._span(self.rng.randint(5, self.patients // 2))
        t = self.rng.randint(3, WAVEFORM_TICKS - 1)
        return f"array(subarray(waveform, patient={lo}:{hi}, t=0:{t}))"

    def array_filter(self):
        return f"array(filter(waveform, v > {self.rng.uniform(70, 100):.2f}))"

    def _doses(self):
        lo, hi = self._span(self.window)
        dose = round(self.rng.uniform(0.5, 5.0), 2)
        return ("cast(relational(SELECT patient_id, SUM(dose) AS dose "
                f"FROM meds WHERE patient_id >= '{_pid(lo + 1)}' AND "
                f"patient_id <= '{_pid(hi + 1)}' AND dose > {dose} "
                "GROUP BY patient_id), d4m, key=patient_id)")

    def _wave(self):
        lo, hi = self._span(self.window)
        return (f"cast(array(subarray(waveform, patient={lo}:{hi}, "
                f"t=0:{WAVEFORM_TICKS - 1})), d4m)")

    def codose(self):
        x = self._doses()
        return f"d4m(matmul({x}, transpose({x})))"

    def wave_sim(self):
        w = self._wave()
        return f"d4m(matmul({w}, transpose({w})))"

    def wave_ewise(self):
        return f"d4m(ewise({self._wave()}, {self._wave()}, plus))"

    def codose_rel(self):
        x = self._doses()
        return ("relational(SELECT r, v FROM cast(d4m(matmul("
                f"{x}, transpose({x}))), relational) t ORDER BY r LIMIT 25)")


def shape_queries(families, scale, window, seed):
    """One query per shape of the given families, for training."""
    gen = QueryGen(random.Random(f"{seed}-train"), scale, window)
    return [getattr(gen, shape)()
            for family in families for shape in FAMILIES[family]]


def extra_object(index, rng, rows=8):
    """A small relation for ``polydawg load``: (k text key, v real)."""
    return CanonicalTable(
        [("k", "text"), ("v", "real")],
        [(f"k{index:05d}-{i:02d}", round(rng.uniform(0.0, 100.0), 3))
         for i in range(rows)],
    )


def build_history(system, families, scale, window, seed, signatures):
    """A monitor history of about ``signatures`` distinct signatures, the
    kind a long-lived ``repl`` over these families leaves behind.

    ``system`` plans one query per shape; every history entry reuses that
    shape's structure, objects and candidate plans with fresh literals.
    Returns a ``MonitorDB`` without a log file; the caller writes its
    ``dump_lines()``.
    """
    rng = random.Random(f"{seed}-history")
    gen = QueryGen(rng, scale, window)
    shapes = {}
    for family in families:
        for shape in FAMILIES[family]:
            pq = system.plan_query(getattr(gen, shape)())
            shapes[shape] = (pq.signature, [p.id for p in pq.plans])
    names = sorted(shapes)
    engines = sorted(system.catalog.engines)
    db = MonitorDB(None)
    seen = set()
    constants_of = {}  # query text -> sorted literal lexemes
    ts = 1.0e9
    # bounded, in case the shapes' literal spaces hold fewer distinct
    # signatures than asked for
    for _ in range(signatures * 3):
        if len(seen) >= signatures:
            break
        shape = rng.choice(names)
        text = getattr(gen, shape)()
        trained, plan_ids = shapes[shape]
        if text not in constants_of:
            constants_of[text] = tuple(sorted(querylang.collect_constants(
                querylang.parse(text))))
        constants = constants_of[text]
        sig = Signature(trained.structure, trained.objects, constants)
        seen.add(sig)
        usage = {e: round(rng.uniform(0.0, 0.3), 4) for e in engines}
        phase = "training" if len(plan_ids) > 1 else "production"
        for plan_id in plan_ids:
            ts += rng.uniform(0.05, 2.0)
            db.record(PerfRecord(
                ts=ts, phase=phase, signature=sig, plan_id=plan_id,
                runtime_ms=round(rng.lognormvariate(1.5, 0.8), 3),
                usage=usage))
    return db
