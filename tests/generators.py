"""Seeded random builders shared by the property and acceptance tests."""

import itertools
import random

from polydawg.canonical import CanonicalTable
from polydawg.engines import default_catalog
from polydawg.island import register_defaults
from polydawg import datagen

DRUGS = ["aspirin", "heparin", "insulin", "lisinopril", "metformin",
         "morphine", "propofol", "vancomycin"]
NOTE_WORDS = ["stable", "fever", "improving", "sedated", "alert",
              "hypotensive", "tachycardic", "extubated", "transfused",
              "discharged"]


def random_word(rng, length=None):
    length = length or rng.randint(1, 8)
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                   for _ in range(length))


def random_value(rng, tag):
    if tag == "int":
        return rng.randint(-1000, 1000)
    if tag == "real":
        return round(rng.uniform(-100.0, 100.0), 4)
    return random_word(rng)


def random_relation(rng, max_rows=30, allow_null=True, uniform_tags=False):
    """(CanonicalTable, key columns) with a unique text key column."""
    n_cols = rng.randint(1, 4)
    schema = [("k", "text")]
    shared = rng.choice(["int", "real", "text"])
    for i in range(n_cols):
        tag = shared if uniform_tags else rng.choice(["int", "real", "text"])
        schema.append((f"a{i}", tag))
    keys = rng.sample(range(10000), rng.randint(1, max_rows))
    rows = []
    for k in keys:
        row = [f"k{k:05d}"]
        for _, tag in schema[1:]:
            if allow_null and rng.random() < 0.1:
                row.append(None)
            else:
                row.append(random_value(rng, tag))
        rows.append(tuple(row))
    return CanonicalTable(schema, rows), ("k",)


def random_assoc_entries(rng, max_dim=20, density=0.5, val_tag="real"):
    """Sparse associative array as {(row-key, col-key): value}."""
    n_rows = rng.randint(1, max_dim)
    n_cols = rng.randint(1, max_dim)
    row_keys = [f"r{i:03d}" for i in range(n_rows)]
    col_keys = [f"c{j:03d}" for j in range(n_cols)]
    entries = {}
    for r in row_keys:
        for c in col_keys:
            if rng.random() < density:
                if val_tag == "real":
                    entries[(r, c)] = round(rng.uniform(-9.0, 9.0), 3)
                else:
                    entries[(r, c)] = rng.randint(-9, 9)
    if not entries:
        entries[(row_keys[0], col_keys[0])] = 1.0 if val_tag == "real" else 1
    return entries


def entries_table(entries, val_tag="real"):
    rows = sorted((r, c, v) for (r, c), v in entries.items())
    return CanonicalTable(
        [("row", "text"), ("col", "text"), ("val", val_tag)], rows)


def triple_relation(entries, val_tag="real"):
    rows = sorted((r, c, v) for (r, c), v in entries.items())
    return CanonicalTable(
        [("r", "text"), ("c", "text"), ("v", val_tag)], rows)


def random_array_table(rng, max_len=8):
    """(CanonicalTable, dims) for a dense-ish 2-d array with one attr."""
    d0, d1 = rng.randint(1, max_len), rng.randint(1, max_len)
    rows = []
    for i in range(d0):
        for j in range(d1):
            if rng.random() < 0.7:
                rows.append((i, j, round(rng.uniform(-50, 50), 3)))
    if not rows:
        rows.append((0, 0, 1.0))
    table = CanonicalTable(
        [("x", "int"), ("y", "int"), ("v", "real")], rows)
    return table, [("x", d0), ("y", d1)]


# --- the standard query-generation corpus --------------------------------------


def standard_catalog(seed=0):
    """Scale-1 synthetic dataset plus numeric associative objects spread
    across all three engines; returns (catalog, registry)."""
    catalog = default_catalog()
    for name, (engine, table, options) in datagen.generate(1, seed).items():
        opts = dict(options)
        if "dims" in opts:
            opts["dims"] = [tuple(d) for d in opts["dims"]]
        catalog.load(engine, name, table, opts)
    rng = random.Random(seed + 1)

    dose = random_assoc_entries(rng, max_dim=12, density=0.4)
    catalog.load("rel", "dose_rc", triple_relation(dose),
                 {"key": ["r", "c"]})
    # orient vitals so matmul(dose_rc, vitals) has matching inner keys
    vitals = {(c, r): v for (r, c), v
              in random_assoc_entries(rng, max_dim=12, density=0.4).items()}
    catalog.load("kv", "vitals", entries_table(vitals), {})

    # arr-resident associative operand: rank coordinates plus key maps
    grid = random_assoc_entries(rng, max_dim=10, density=0.5)
    rmap = sorted({r for r, _ in grid})
    cmap = sorted({c for _, c in grid})
    rows = sorted((rmap.index(r), cmap.index(c), v)
                  for (r, c), v in grid.items())
    catalog.load("arr", "dosemat",
                 CanonicalTable([("r", "int"), ("c", "int"), ("v", "real")],
                                rows),
                 {"dims": [("r", len(rmap)), ("c", len(cmap))],
                  "dim_maps": [rmap, cmap]})
    registry = register_defaults(catalog)
    return catalog, registry


ASSOC_OBJECTS = ["dose_rc", "vitals", "dosemat"]


def random_query(rng):
    """One random cross-island query over standard_catalog objects."""
    return rng.choice([
        _q_relational, _q_relational_join_cast, _q_d4m, _q_text, _q_array,
        _q_cast_into_relational,
    ])(rng)


def _q_relational(rng):
    kind = rng.randrange(4)
    age = rng.randint(20, 90)
    if kind == 0:
        return f"relational(SELECT id, age FROM patients WHERE age > {age})"
    if kind == 1:
        return ("relational(SELECT sex, COUNT(*), AVG(age) FROM patients "
                f"WHERE age <= {age} GROUP BY sex)")
    if kind == 2:
        drug = rng.choice(DRUGS)
        return ("relational(SELECT p.id, m.dose FROM patients p JOIN meds m "
                f"ON p.id = m.patient_id WHERE m.drug = '{drug}' "
                "ORDER BY id LIMIT 20)")
    return (f"relational(SELECT drug, SUM(dose) AS total FROM meds "
            f"GROUP BY drug ORDER BY drug LIMIT {rng.randint(2, 8)})")


def _q_relational_join_cast(rng):
    word = rng.choice(NOTE_WORDS)
    return ("relational(SELECT p.id, p.age FROM patients p JOIN "
            f"cast(text(grep(notes, '{word}')), relational) n "
            "ON p.id = n.r ORDER BY id LIMIT 15)")


def _d4m_operand(rng, aliases, depth=0):
    if depth < 1 and rng.random() < 0.3:
        return _d4m_expr(rng, aliases, depth + 1)
    name = rng.choice(ASSOC_OBJECTS)
    if rng.random() < 0.3:
        return ("cast(relational(SELECT r, c, v FROM dose_rc), d4m, "
                f"x{next(aliases)}, key=r)")
    return name


def _d4m_expr(rng, aliases, depth=0):
    """A d4m expression; ``aliases`` counts its casts, so that each cast
    of one query has an alias of its own."""
    op = rng.choice(["matmul", "ewise", "transpose", "select"])
    if op == "matmul":
        return (f"matmul({_d4m_operand(rng, aliases, depth)}, "
                f"{_d4m_operand(rng, aliases, depth)})")
    if op == "ewise":
        ew = rng.choice(["plus", "min", "max"])
        return (f"ewise({_d4m_operand(rng, aliases, depth)}, "
                f"{_d4m_operand(rng, aliases, depth)}, {ew})")
    if op == "transpose":
        return f"transpose({_d4m_operand(rng, aliases, depth)})"
    lo, hi = sorted([random_word(rng, 2), random_word(rng, 2)])
    return f"select({_d4m_operand(rng, aliases, depth)}, rows='{lo}':'{hi}~')"


def _q_d4m(rng):
    return f"d4m({_d4m_expr(rng, itertools.count())})"


def _q_text(rng):
    if rng.random() < 0.5:
        lo = f"p{rng.randint(1, 50):05d}"
        hi = f"p{rng.randint(50, 100):05d}"
        return f"text(scan(notes, rows='{lo}':'{hi}'))"
    return f"text(grep(notes, '{rng.choice(NOTE_WORDS)}'))"


def _q_array(rng):
    kind = rng.randrange(3)
    if kind == 0:
        lo = rng.randint(0, 50)
        hi = rng.randint(lo, 99)
        return f"array(subarray(waveform, patient={lo}:{hi}, t=0:5))"
    if kind == 1:
        bound = round(rng.uniform(60, 100), 1)
        return f"array(filter(waveform, v > {bound}))"
    fn = rng.choice(["avg", "sum", "min", "max", "count"])
    dim = rng.choice(["patient", "t"])
    return f"array(agg({fn}(v), waveform, by({dim})))"


def _q_cast_into_relational(rng):
    inner = _d4m_expr(rng, itertools.count())
    return (f"relational(SELECT r, v FROM cast(d4m({inner}), relational) t "
            "ORDER BY r LIMIT 25)")


# --- ill-typed predicates ---------------------------------------------------

# (query with one "{}" slot for a predicate, text operands, numeric
# operands), each over standard_catalog objects
_PREDICATE_SITES = [
    ("relational(SELECT id FROM patients WHERE {})", ["id", "sex"], ["age"]),
    ("relational(SELECT drug FROM meds WHERE {} ORDER BY drug)",
     ["patient_id", "drug"], ["dose"]),
    ("relational(SELECT p.id FROM patients p JOIN meds m "
     "ON p.id = m.patient_id WHERE {})", ["p.sex", "m.drug"],
     ["p.age", "m.dose"]),
    ("relational(SELECT r FROM cast(d4m(matmul(dose_rc, vitals)), "
     "relational) t WHERE {})", ["r", "c"], ["v"]),
    ("d4m(transpose(cast(relational(SELECT patient_id, dose FROM meds "
     "WHERE {}), d4m, key=patient_id)))", ["drug"], ["dose"]),
    ("array(filter(waveform, {}))", [], ["patient", "t", "v"]),
    ("array(filter(dosemat, {}))", [], ["r", "c", "v"]),
    ("array(filter(cast(text(scan(notes)), array), {}))", ["v"], ["r", "c"]),
]
# (query with one "{}" slot for the ON condition, text and numeric columns)
_JOIN_SITES = [
    ("relational(SELECT p.id FROM patients p JOIN meds m ON {} "
     "WHERE p.age > 30)", ["p.id", "p.sex", "m.patient_id", "m.drug"],
     ["p.age", "m.dose"]),
    ("relational(SELECT p.id FROM patients p JOIN "
     "cast(d4m(matmul(dose_rc, vitals)), relational) t ON {})",
     ["p.id", "t.r", "t.c"], ["p.age", "t.v"]),
]
_CMP_OPS = ["=", "!=", "<", "<=", ">", ">="]


def _ill_typed_predicate(rng, texts, numbers):
    """(before, fragment, after, message): a predicate ``before + fragment
    + after`` whose one type error is ``fragment``."""
    text = rng.choice(texts + [f"'{random_word(rng)}'"])
    number = rng.choice(numbers + [str(rng.randint(0, 99)),
                                   f"{rng.uniform(0, 99):.2f}"])
    op = rng.choice(_CMP_OPS)
    kind = rng.choice(["compare", "arithmetic", "aggregate"])
    if kind == "compare":
        if rng.random() < 0.3:
            number = f"{number} {rng.choice('+-*/')} {rng.randint(1, 9)}"
        sides = [text, number]
        rng.shuffle(sides)
        return "", f"{sides[0]} {op} {sides[1]}", "", "cross-tag comparison"
    if kind == "arithmetic":
        if text in texts and rng.random() < 0.3:
            fragment = f"-{text}"
        else:
            sides = [text, number]
            rng.shuffle(sides)
            fragment = f"{sides[0]} {rng.choice('+-*/')} {sides[1]}"
        message = "arithmetic over text"
    else:
        fn = rng.choice(["count", "sum", "avg", "min", "max"])
        arg = "*" if fn == "count" and rng.random() < 0.5 else \
            rng.choice(texts + numbers)
        fragment = f"{fn.upper()}({arg})"
        message = "aggregate used outside a grouping context"
    other = rng.choice(numbers)
    if rng.random() < 0.5:
        return "", fragment, f" {op} {other}", message
    return f"{other} {op} ", fragment, "", message


def ill_typed_query(rng):
    """(query, span, message): a query over standard_catalog objects with
    one type error in a WHERE, FILTER or JOIN ON, at ``span`` of the
    query text, and the start of the message it fails with. The errors
    are a comparison of text with a number, arithmetic over text and an
    aggregate outside grouping."""
    if rng.random() < 0.2:
        site, texts, numbers = rng.choice(_JOIN_SITES)
        sides = [rng.choice(texts), rng.choice(numbers)]
        rng.shuffle(sides)
        before, fragment, after = "", f"{sides[0]} = {sides[1]}", ""
        message = "cross-tag comparison"
    else:
        site, texts, numbers = rng.choice(_PREDICATE_SITES)
        before, fragment, after, message = _ill_typed_predicate(
            rng, texts, numbers)
        good = f"{rng.choice(numbers)} >= 0"
        outer, outer_after = rng.choice([
            ("", ""), ("", " AND " + good), (good + " OR ", ""),
            ("NOT ", ""), (f"({good} AND ", ")")])
        before, after = outer + before, after + outer_after
    site_before, site_after = site.split("{}")
    start = len(site_before) + len(before)
    return (site_before + before + fragment + after + site_after,
            (start, start + len(fragment)), message)
