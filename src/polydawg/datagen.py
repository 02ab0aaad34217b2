"""Synthetic clinical-style dataset generator.

Scale 1 produces 100 patients, their medications, free-text note triples,
and a 1000-cell waveform array; everything is deterministic given the
seed, so repeated runs emit byte-identical files.
"""

import random

from .canonical import CanonicalTable
from .engines.base import write_manifest
from .errors import ValidationError

PATIENTS_PER_SCALE = 100
WAVEFORM_CELLS_PER_SCALE = 1000
WAVEFORM_TICKS = 10  # cells = patients * ticks

_SEXES = ["f", "m"]
_DRUGS = ["aspirin", "heparin", "insulin", "lisinopril", "metformin",
          "morphine", "propofol", "vancomycin"]
_NOTE_WORDS = ["stable", "fever", "improving", "sedated", "alert",
               "hypotensive", "tachycardic", "extubated", "transfused",
               "discharged"]


def generate(scale, seed=0):
    """Returns {name: (engine, CanonicalTable, load options)}."""
    if scale < 1:
        raise ValidationError("scale must be a positive integer")
    rng = random.Random(seed)
    n_patients = PATIENTS_PER_SCALE * scale
    ids = [f"p{i:05d}" for i in range(1, n_patients + 1)]

    patients = CanonicalTable(
        [("id", "text"), ("age", "int"), ("sex", "text")],
        [(pid, rng.randint(18, 95), rng.choice(_SEXES)) for pid in ids],
    )

    med_rows = []
    for pid in ids:
        for drug in rng.sample(_DRUGS, rng.randint(1, 3)):
            med_rows.append((pid, drug, round(rng.uniform(0.5, 20.0), 2)))
    meds = CanonicalTable(
        [("patient_id", "text"), ("drug", "text"), ("dose", "real")],
        med_rows,
    )

    note_rows = []
    for pid in ids:
        for seq in range(rng.randint(1, 2)):
            text = " ".join(rng.choice(_NOTE_WORDS) for _ in range(4))
            note_rows.append((pid, f"n{seq:02d}", text))
    notes = CanonicalTable(
        [("row", "text"), ("col", "text"), ("val", "text")], note_rows,
    )

    wave_rows = []
    for p in range(n_patients):
        for t in range(WAVEFORM_TICKS):
            wave_rows.append((p, t, round(rng.gauss(80.0, 12.0), 3)))
    waveform = CanonicalTable(
        [("patient", "int"), ("t", "int"), ("v", "real")], wave_rows,
    )

    return {
        "patients": ("rel", patients, {"key": ["id"]}),
        "meds": ("rel", meds, {"key": ["patient_id", "drug"]}),
        "notes": ("kv", notes, {}),
        "waveform": ("arr", waveform, {
            "dims": [["patient", n_patients], ["t", WAVEFORM_TICKS]],
        }),
    }


def write_dataset(scale, out_dir, seed=0):
    """Write the generated tables as CIF plus a load manifest; returns
    the list of file paths written."""
    data = generate(scale, seed)
    return write_manifest(out_dir, ((name,) + data[name]
                                    for name in sorted(data)))
