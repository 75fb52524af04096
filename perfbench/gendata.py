"""Seeded raw screening CSV in the bundled 45-column layout.

The class structure (which features carry signal, and how strongly) is fixed
by a constant seed, so every benchmark seed samples patients from the same
population; ``--seed`` only changes which patients are drawn. Planted
defects are counted exactly, so the benchmark can check what ingest reports.

Run as a script to write one file::

    python3 perfbench/gendata.py out.csv --rows 2000 --seed 1
"""

from __future__ import annotations

import argparse
import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import SCHEMA, TASKS

#: subclass code -> disorder code, following the real label hierarchy
SUBCLASS_DISORDER = (0, 0, 2, 2, 1, 2, 0, 1, 1)
SUBCLASS_PRIOR = np.array([0.22, 0.19, 0.15, 0.12, 0.09, 0.08, 0.06, 0.05, 0.04])

MISSING_RATE = 0.08
UNKNOWN_RATE = 0.01
UNLABELED_RATE = 0.05
UNKNOWN_TOKENS = ("-99", "Not available", "No record")

#: binary or 0/1 numeric features whose rate depends on the subclass
SIGNAL_FLAGS = (
    "Genes in mother's side",
    "Inherited from father",
    "Maternal gene",
    "Paternal gene",
    "Symptom 1",
    "Symptom 2",
    "Symptom 3",
    "Symptom 4",
    "Symptom 5",
)
#: continuous features whose mean depends on the subclass: (mean, sd, shift, lo, hi, decimals)
SIGNAL_CONTINUOUS = {
    "Blood cell count (mcL)": (4.9, 0.2, 0.12, 4.0, 5.7, 6),
    "White Blood cell count (thousand per microliter)": (7.5, 2.0, 1.0, 3.0, 12.0, 6),
}
#: integer-valued numeric noise features: (low, high) inclusive
INTEGER_NOISE = {
    "Patient Age": (0, 14),
    "Mother's age": (18, 51),
    "Father's age": (20, 64),
    "No. of previous abortion": (0, 4),
    "Test 1": (0, 1),
    "Test 2": (0, 1),
    "Test 3": (0, 1),
    "Test 4": (0, 1),
    "Test 5": (0, 1),
}
NAMES = ("Alex", "Sam", "Robin", "Kim", "Jo", "Lee", "Max", "Ari", "Noa", "Eli")
INSTITUTES = ("Boston Specialty", "Mercy Hospital", "Rural Clinic", "Not applicable")
LOCATIONS = ("North", "South", "East", "West", "Not applicable")
IGNORED_POOLS = {"Institute Name": INSTITUTES, "Location of Institute": LOCATIONS}
TASK_COLUMNS = dict(zip(TASKS, ("Genetic Disorder", "Disorder Subclass")))


@dataclass(frozen=True)
class Planted:
    """What the generator put into one file, for checking ingest against."""

    rows: int
    missing_cells: int
    unknown_tokens: int
    unlabeled: dict  # task name -> rows whose target cell is blank

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "missing_cells": self.missing_cells,
            "unknown_tokens": self.unknown_tokens,
            "unlabeled": dict(self.unlabeled),
        }


def _population(schema: list[dict]) -> dict:
    """Per-subclass feature distributions, identical for every sample seed."""
    rng = np.random.default_rng(20241202)
    k = len(SUBCLASS_PRIOR)
    pop = {"flags": {name: rng.uniform(0.03, 0.97, size=k) for name in SIGNAL_FLAGS}}
    pop["shift"] = {name: rng.normal(0.0, 1.0, size=k) for name in SIGNAL_CONTINUOUS}
    blood = next(c for c in schema if c["name"] == "Blood test result")
    pop["blood"] = rng.dirichlet(np.full(len(blood["categories"]), 0.5), size=k)
    return pop


def generate(path: str | Path, rows: int, seed: int, schema_path: str | Path = SCHEMA) -> Planted:
    """Write a raw CSV of ``rows`` patients and return the planted counts."""
    schema = json.loads(Path(schema_path).read_text(encoding="utf-8"))
    pop = _population(schema)
    rng = np.random.default_rng(seed)
    sub = rng.choice(len(SUBCLASS_PRIOR), size=rows, p=SUBCLASS_PRIOR)
    disorder = np.asarray(SUBCLASS_DISORDER)[sub]

    cells: dict[str, list[str]] = {}
    missing_cells = unknown_tokens = 0
    unlabeled = {}
    for col in schema:
        name, kind, role = col["name"], col["kind"], col["role"]
        cats = col.get("categories", [])
        if role == "ignore":
            if name == "Patient Id":
                cells[name] = [f"PID0x{v:06x}" for v in rng.integers(0, 1 << 24, size=rows)]
            else:
                pool = IGNORED_POOLS.get(name, NAMES)
                cells[name] = [pool[i] for i in rng.integers(0, len(pool), size=rows)]
            continue
        if role.startswith("target"):
            codes = disorder if role == "target_disorder" else sub
            blank = rng.random(rows) < UNLABELED_RATE
            task = next(t for t, c in TASK_COLUMNS.items() if c == name)
            unlabeled[task] = int(blank.sum())
            cells[name] = ["" if b else cats[c] for c, b in zip(codes, blank)]
            continue

        if name in SIGNAL_FLAGS:
            codes = (rng.random(rows) < pop["flags"][name][sub]).astype(np.int64)
        elif name == "Blood test result":
            u = rng.random(rows)[:, None]
            codes = np.minimum((u > np.cumsum(pop["blood"][sub], axis=1)).sum(axis=1), len(cats) - 1)
        elif name in SIGNAL_CONTINUOUS:
            mean, sd, shift, lo, hi, _ = SIGNAL_CONTINUOUS[name]
            codes = np.clip(rng.normal(mean + shift * pop["shift"][name][sub], sd), lo, hi)
        elif name in INTEGER_NOISE:
            lo, hi = INTEGER_NOISE[name]
            codes = rng.integers(lo, hi + 1, size=rows)
        else:
            codes = rng.integers(0, len(cats), size=rows)

        blank = rng.random(rows) < MISSING_RATE
        missing_cells += int(blank.sum())
        if kind == "numeric":
            decimals = SIGNAL_CONTINUOUS[name][5] if name in SIGNAL_CONTINUOUS else 0
            text = [f"{v:.{decimals}f}" for v in codes]
        else:
            text = [cats[c] for c in codes]
            bad = ~blank & (rng.random(rows) < UNKNOWN_RATE)
            unknown_tokens += int(bad.sum())
            for i in np.flatnonzero(bad):
                text[i] = UNKNOWN_TOKENS[i % len(UNKNOWN_TOKENS)]
        for i in np.flatnonzero(blank):
            text[i] = ""
        cells[name] = text

    header = [c["name"] for c in schema]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(cells[h] for h in header)))
    return Planted(rows, missing_cells, unknown_tokens, unlabeled)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(generate(args.out, args.rows, args.seed).to_json()))


if __name__ == "__main__":
    main()
