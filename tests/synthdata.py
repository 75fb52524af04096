"""Synthetic patient tables with a planted class signal.

The generator mirrors the production schema closely enough to drive the full
prepare/train/evaluate path: ten columns carry a planted signal for the
nine-way subclass code, eight columns are pure noise, and both target columns
are present.  The coarse disorder label is subclass // 3, so the same planted
columns are informative for either target.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from genoclass import ColumnSchema, Dataset
from genoclass.dataset import load_csv, schema_from_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DISORDER_LABELS = (
    "Mitochondrial genetic inheritance disorders",
    "Multifactorial genetic inheritance disorders",
    "Single-gene inheritance diseases",
)

SUBCLASS_LABELS = (
    "Leigh syndrome",
    "Mitochondrial myopathy",
    "Cystic fibrosis",
    "Tay-Sachs",
    "Diabetes",
    "Hemochromatosis",
    "Leber's hereditary optic neuropathy",
    "Alzheimer's",
    "Cancer",
)

BLOOD_TEST = ("abnormal", "inconclusive", "normal", "slightly abnormal")

INFORMATIVE = (
    "Patient Age",
    "Blood cell count (mcL)",
    "White Blood cell count (thousand per microliter)",
    "Mother's age",
    "Blood test result",
    "Symptom 1",
    "Symptom 2",
    "Symptom 3",
    "Symptom 4",
    "Symptom 5",
)

NOISE = (
    "Test 1",
    "Test 2",
    "Test 3",
    "Gender",
    "Maternal gene",
    "Paternal gene",
    "Heart Rate (rates/min",
    "Respiratory Rate (breaths/min)",
)


def planted_schema():
    """Schema for the synthetic table, feature columns first."""
    return [
        ColumnSchema("Patient Age", "numeric"),
        ColumnSchema("Blood cell count (mcL)", "numeric"),
        ColumnSchema("White Blood cell count (thousand per microliter)", "numeric"),
        ColumnSchema("Mother's age", "numeric"),
        ColumnSchema("Blood test result", "categorical", categories=BLOOD_TEST),
        ColumnSchema("Symptom 1", "numeric"),
        ColumnSchema("Symptom 2", "numeric"),
        ColumnSchema("Symptom 3", "numeric"),
        ColumnSchema("Symptom 4", "numeric"),
        ColumnSchema("Symptom 5", "numeric"),
        ColumnSchema("Test 1", "numeric"),
        ColumnSchema("Test 2", "numeric"),
        ColumnSchema("Test 3", "numeric"),
        ColumnSchema("Gender", "categorical", categories=("Female", "Male", "Ambiguous")),
        ColumnSchema("Maternal gene", "binary", categories=("No", "Yes")),
        ColumnSchema("Paternal gene", "binary", categories=("No", "Yes")),
        ColumnSchema("Heart Rate (rates/min", "binary", categories=("Tachycardia", "Normal")),
        ColumnSchema(
            "Respiratory Rate (breaths/min)",
            "binary",
            categories=("Tachypnea", "Normal (30-60)"),
        ),
        ColumnSchema(
            "Genetic Disorder", "categorical", role="target_disorder", categories=DISORDER_LABELS
        ),
        ColumnSchema(
            "Disorder Subclass", "categorical", role="target_subclass", categories=SUBCLASS_LABELS
        ),
    ]


def planted_dataset(n, seed):
    """Draw a synthetic table whose class signal lives in INFORMATIVE columns.

    Each informative column either shifts its mean with the subclass code k
    or concentrates its mass on a k-dependent category, while the NOISE
    columns are drawn independently of k.

    Args:
        n: Number of rows.
        seed: Generator seed; the same seed reproduces the table exactly.

    Returns:
        Dataset covering the planted_schema columns plus both targets.
    """
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 9, size=n)

    def flip(bits, p=0.1):
        noise = rng.random(n) < p
        return np.where(noise, 1 - bits, bits).astype(np.float64)

    blood_test = np.where(rng.random(n) < 0.9, k % 4, rng.integers(0, 4, size=n))
    values = {
        "Patient Age": 2.0 * k + rng.normal(0.0, 0.3, size=n),
        "Blood cell count (mcL)": 4.1 + 0.15 * k + rng.normal(0.0, 0.02, size=n),
        "White Blood cell count (thousand per microliter)": 3.0
        + k
        + rng.normal(0.0, 0.2, size=n),
        "Mother's age": 20.0 + 3.0 * k + rng.normal(0.0, 0.5, size=n),
        "Blood test result": blood_test.astype(np.int64),
        "Symptom 1": flip((k >> 0) & 1),
        "Symptom 2": flip((k >> 1) & 1),
        "Symptom 3": flip((k >> 2) & 1),
        "Symptom 4": flip((k >> 3) & 1),
        "Symptom 5": flip((k >= 5).astype(np.int64)),
        "Test 1": rng.normal(0.0, 1.0, size=n),
        "Test 2": rng.normal(0.0, 1.0, size=n),
        "Test 3": rng.normal(0.0, 1.0, size=n),
        "Gender": rng.integers(0, 3, size=n),
        "Maternal gene": rng.integers(0, 2, size=n),
        "Paternal gene": rng.integers(0, 2, size=n),
        "Heart Rate (rates/min": rng.integers(0, 2, size=n),
        "Respiratory Rate (breaths/min)": rng.integers(0, 2, size=n),
        "Genetic Disorder": (k // 3).astype(np.int64),
        "Disorder Subclass": k.astype(np.int64),
    }
    return Dataset(planted_schema(), values)


def gendata_matrix(n, seed, target="Disorder Subclass"):
    """Feature matrix and class codes of n labeled patients from the benchmark's
    population (``perfbench/gendata.py``), missing cells filled with the column
    median. Its two 6-decimal features hold about as many distinct values as
    rows, and labels overlap, so trees on it grow wide levels."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    from gendata import generate
    from workloads import SCHEMA

    with tempfile.TemporaryDirectory() as tmp:
        generate(Path(tmp) / "raw.csv", n, seed)
        ds = load_csv(Path(tmp) / "raw.csv", schema_from_json(SCHEMA))
    labeled = ~ds.missing_mask(target)
    columns = []
    for col in ds.columns:
        if col.role == "feature":
            x = ds.values(col.name).astype(np.float64)[labeled]
            gap = ds.missing_mask(col.name)[labeled]
            x[gap] = np.median(x[~gap])
            columns.append(x)
    return np.column_stack(columns), ds.values(target)[labeled].astype(np.int64)
