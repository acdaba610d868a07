"""Regenerate refdata.json: the bound pools and the optima the program gives for them.

    python3 perfbench/make_refdata.py

The optima are the benchmark's frozen outputs; regenerate them only on a
commit whose bounds are known to be right, because every later run is checked
against them (rel 1e-6).  Takes about two minutes on one core.
"""

from __future__ import annotations

import json
import os
import sys

from common import HERE, SRC

sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from mdiqkd.bsa import DetectorModel  # noqa: E402
from mdiqkd.decoy import analyze, analyze_matrices  # noqa: E402
from mdiqkd.session import CountTables  # noqa: E402

from bound import geometric_matrices, population_matrices  # noqa: E402
from law import CLASS_LABELS, MUS, column_law, expectation_counts, law_matrices  # noqa: E402

GEOMETRIC = {7: 1200, 30: 200}
LOSSES_DB = (0.0, 5.0, 10.0, 15.0, 19.5, 25.0)
MISALIGNMENTS = (0.0, 0.019, 0.05)
DARK_PROB = 1.5e-5
EXPECTATION_PULSES_PER_CELL = 10**10


def population_entries() -> list[dict]:
    detector = DetectorModel(dark_prob=DARK_PROB)
    entries = []
    for loss in LOSSES_DB:
        for mis in MISALIGNMENTS:
            law = column_law(loss, loss, mis, 0.0, detector)
            matrices = law_matrices(law)
            entries.append(
                {
                    "loss_db": loss,
                    "misalignment": mis,
                    "dark_prob": DARK_PROB,
                    "mus": list(MUS),
                    **{key: value.tolist() for key, value in matrices.items()},
                }
            )
    return entries


def expectation_tables(entry: dict) -> CountTables:
    law = column_law(entry["loss_db"], entry["loss_db"], entry["misalignment"], 0.0,
                     DetectorModel(dark_prob=entry["dark_prob"]))
    pulses, counts = expectation_counts(law, EXPECTATION_PULSES_PER_CELL)
    return CountTables(
        class_labels=CLASS_LABELS,
        class_mus=MUS,
        pulses_total=int(pulses.sum()),
        seed=0,
        mode="random",
        pulses_sent=pulses,
        counts=counts,
    )


def bounds(result) -> list[float]:
    return [result.y11_lower, result.e11_upper]


def main() -> None:
    rng = np.random.default_rng(20261017)
    geometric = [
        [float(10.0 ** rng.uniform(-5.0, -2.0)), float(rng.uniform(0.01, 0.35))]
        for _ in range(max(GEOMETRIC.values()))
    ]
    population = population_entries()
    reference = {}
    for truncation, n_geo in GEOMETRIC.items():
        reference[str(truncation)] = {
            "geometric": [
                bounds(analyze_matrices(geometric_matrices(*params), truncation=truncation))
                for params in geometric[:n_geo]
            ],
            "population": [
                bounds(analyze_matrices(population_matrices(entry), truncation=truncation))
                for entry in population
            ],
        }
    reference["7"]["expectation_counts"] = [
        bounds(analyze(expectation_tables(entry))) for entry in population
    ]
    data = {
        "about": "bound pools and the optima the program gave for them; see make_refdata.py",
        "expectation_pulses_per_cell": EXPECTATION_PULSES_PER_CELL,
        "geometric": geometric,
        "population": population,
        "reference": reference,
    }
    with open(os.path.join(HERE, "refdata.json"), "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
