"""Feature engineering and chi-squared feature ranking.

Five derived columns capture domain signals (maternal age threshold, symptom
count, inherited-gene flag, high white-cell count, cardiac/respiratory
irregularity), and a contingency-table chi-squared statistic ranks features
by dependence on the chosen target. Continuous features are quantile-binned
before the statistic is computed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .codec import JsonCodec, write_csv_rows
from .dataset import ColumnSchema, Dataset
from .errors import (
    ArgumentError,
    DataTypeError,
    DegenerateDataError,
    ImputationError,
    SchemaError,
    StateError,
)

ENGINEERED_COLUMNS = (
    "maternal_age_above_40",
    "number_of_symptoms",
    "any_inherited_gene",
    "high_wbc_count",
    "heart_or_respiratory_issues",
)

BINARY_TOKENS = ("0", "1")


@dataclass(frozen=True)
class EngineeredSpec(JsonCodec):
    """Source columns and thresholds for the five engineered features.

    Defaults name the columns of the bundled screening schema; override any
    field for datasets with different headers. ``abnormal`` for the heart and
    respiratory columns means category code 0 per the schema encodings.
    """

    maternal_age: str = "Mother's age"
    symptoms: tuple[str, ...] = (
        "Symptom 1",
        "Symptom 2",
        "Symptom 3",
        "Symptom 4",
        "Symptom 5",
    )
    maternal_gene: str = "Maternal gene"
    paternal_gene: str = "Paternal gene"
    wbc: str = "White Blood cell count (thousand per microliter)"
    heart_rate: str = "Heart Rate (rates/min"
    respiratory_rate: str = "Respiratory Rate (breaths/min)"
    age_threshold: float = 40.0
    wbc_threshold: float = 11.0


def _source_values(ds: Dataset, name: str) -> tuple[np.ndarray, ColumnSchema]:
    try:
        col = ds.schema_of(name)
    except SchemaError:
        raise SchemaError(f"engineered-feature source column {name!r} is missing") from None
    if ds.missing_mask(name).any():
        raise ImputationError(f"source column {name!r} has missing cells; impute before engineering")
    return ds.values(name), col


def engineered_column_schemas() -> list[ColumnSchema]:
    """Schemas of the five appended columns, in append order."""
    out = []
    for name in ENGINEERED_COLUMNS:
        if name == "number_of_symptoms":
            out.append(ColumnSchema(name, "numeric", "feature"))
        else:
            out.append(ColumnSchema(name, "binary", "feature", BINARY_TOKENS))
    return out


def engineer_features(ds: Dataset, spec: EngineeredSpec = EngineeredSpec()) -> Dataset:
    """Append the five engineered columns.

    Never mutates existing columns; running on a dataset that already carries
    any engineered column is an error, which makes the operation effectively
    run-once per dataset.
    """
    already = [name for name in ENGINEERED_COLUMNS if name in ds.column_names]
    if already:
        raise StateError(f"dataset already carries engineered columns {already}")

    age, _ = _source_values(ds, spec.maternal_age)
    above_40 = (age >= spec.age_threshold).astype(np.int64)

    symptom_sum = np.zeros(ds.n_rows, dtype=np.float64)
    for name in spec.symptoms:
        vals, _ = _source_values(ds, name)
        symptom_sum += vals.astype(np.float64)

    m_gene, _ = _source_values(ds, spec.maternal_gene)
    p_gene, _ = _source_values(ds, spec.paternal_gene)
    any_gene = ((m_gene.astype(np.int64) != 0) | (p_gene.astype(np.int64) != 0)).astype(np.int64)

    wbc, _ = _source_values(ds, spec.wbc)
    high_wbc = (wbc > spec.wbc_threshold).astype(np.int64)

    heart, _ = _source_values(ds, spec.heart_rate)
    resp, _ = _source_values(ds, spec.respiratory_rate)
    issues = ((heart.astype(np.int64) == 0) | (resp.astype(np.int64) == 0)).astype(np.int64)

    columns = {
        "maternal_age_above_40": above_40,
        "number_of_symptoms": symptom_sum,
        "any_inherited_gene": any_gene,
        "high_wbc_count": high_wbc,
        "heart_or_respiratory_issues": issues,
    }
    out = ds
    for schema in engineered_column_schemas():
        out = out.with_column(schema, columns[schema.name])
    return out


# -- discretization -------------------------------------------------------------


def bin_values(values: np.ndarray, bins: int) -> np.ndarray:
    """Equal-frequency bin indices for a 1-D numeric array.

    Cut points are the 1/bins .. (bins-1)/bins quantiles; equal values always
    share a bin and larger values never get a smaller index. When duplicate
    quantiles collapse the requested resolution (constant or heavily tied
    columns), fewer bins come back and a warning is emitted.
    """
    if bins < 2:
        raise ArgumentError(f"bins must be >= 2, got {bins}")
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        raise ImputationError("cannot bin values with missing entries")
    quantiles = np.quantile(values, [i / bins for i in range(1, bins)])
    edges = np.unique(quantiles)
    codes = np.searchsorted(edges, values, side="left").astype(np.int64)
    realized = np.unique(codes).size
    if realized < bins:
        warnings.warn(
            f"requested {bins} bins but data supports {realized}; duplicate quantile edges collapsed",
            stacklevel=2,
        )
    return codes


def bin_continuous(ds: Dataset, col: str, bins: int) -> Dataset:
    """Replace a numeric column's cells with its equal-frequency bin indices."""
    schema = ds.schema_of(col)
    if schema.kind != "numeric":
        raise DataTypeError(f"column {col!r} is {schema.kind}, not numeric")
    if ds.missing_mask(col).any():
        raise ImputationError(f"column {col!r} has missing cells; impute before binning")
    codes = bin_values(ds.values(col), bins)
    return ds.replace_values(col, codes.astype(np.float64))


# -- contingency + chi2 ----------------------------------------------------------


@dataclass(frozen=True)
class ContingencyTable:
    """Observed co-occurrence counts: rows = feature values, columns = classes."""

    observed: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        obs = np.asarray(self.observed, dtype=np.int64)
        if obs.ndim != 2:
            raise ArgumentError("observed counts must be a 2-D matrix")
        if (obs < 0).any():
            raise ArgumentError("observed counts must be non-negative")
        if obs.sum() <= 0:
            raise DegenerateDataError("contingency table has zero total count")
        obs.setflags(write=False)
        object.__setattr__(self, "observed", obs)


def _discrete_codes(ds: Dataset, name: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """Integer codes + level labels for a column usable in a contingency table."""
    col = ds.schema_of(name)
    if ds.missing_mask(name).any():
        raise ImputationError(f"column {name!r} has missing cells")
    vals = ds.values(name)
    if col.discrete:
        return vals.astype(np.int64), col.categories
    as_int = vals.astype(np.int64)
    if not np.array_equal(as_int.astype(np.float64), vals) or (as_int < 0).any():
        raise DataTypeError(
            f"column {name!r} is continuous; bin it before building a contingency table"
        )
    levels = tuple(str(v) for v in range(int(as_int.max()) + 1))
    return as_int, levels


def contingency(ds: Dataset, feature: str, target: str) -> ContingencyTable:
    """Count co-occurrences of a discrete feature's values against class labels."""
    f_codes, f_levels = _discrete_codes(ds, feature)
    t_codes, t_levels = _discrete_codes(ds, target)
    m, k = len(f_levels), len(t_levels)
    flat = np.bincount(f_codes * k + t_codes, minlength=m * k)
    return ContingencyTable(flat.reshape(m, k), f_levels, t_levels)


def chi2_statistic(table: ContingencyTable) -> float:
    """Pearson chi-squared statistic of a contingency table.

    All-zero rows and columns are dropped first so every expected count is
    positive. Expected cell count = row total * column total / grand total.
    A table that collapses to a single row or column has observed == expected
    everywhere and scores exactly 0.
    """
    obs = np.asarray(table.observed, dtype=np.float64)
    obs = obs[obs.sum(axis=1) > 0][:, obs.sum(axis=0) > 0]
    if obs.size == 0:
        raise DegenerateDataError("contingency table is empty after dropping zero margins")
    total = obs.sum()
    if total <= 0:
        raise DegenerateDataError("contingency table has zero total count")
    expected = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / total
    return float(((obs - expected) ** 2 / expected).sum())


# -- ranking ----------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureRanking:
    """Features sorted by descending chi-squared score, names ascending on ties."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        for name, score in self.entries:
            if score < 0:
                raise ArgumentError(f"negative chi2 for {name!r}")
        ordered = tuple(sorted(self.entries, key=lambda e: (-e[1], e[0])))
        object.__setattr__(self, "entries", ordered)

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def to_csv(self, path: str | Path) -> None:
        rows = ([rank, name, repr(score)] for rank, (name, score) in enumerate(self.entries, start=1))
        write_csv_rows(path, ["rank", "feature", "chi2"], rows)

    @staticmethod
    def from_pairs(pairs: Sequence[tuple[str, float]]) -> "FeatureRanking":
        return FeatureRanking(tuple((str(n), float(s)) for n, s in pairs))


def rank_features(ds: Dataset, target: str, bins: int = 10) -> FeatureRanking:
    """Score every feature column against the target and sort by dependence.

    Numeric features are quantile-binned (features with at most ``bins``
    distinct values are used as-is, dense-coded). Features whose statistic is
    undefined are skipped with a warning rather than failing the ranking.
    """
    t_col = ds.schema_of(target)
    if not t_col.discrete:
        raise DataTypeError(f"ranking target {target!r} must be discrete")
    pairs: list[tuple[str, float]] = []
    for col in ds.columns:
        if col.role != "feature":
            continue
        try:
            if col.discrete:
                work = ds
            else:
                vals = ds.values(col.name)
                if ds.missing_mask(col.name).any():
                    raise ImputationError(f"column {col.name!r} has missing cells")
                distinct = np.unique(vals)
                if distinct.size <= bins:
                    dense = np.searchsorted(distinct, vals).astype(np.float64)
                    work = ds.replace_values(col.name, dense)
                else:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        work = bin_continuous(ds, col.name, bins)
            score = chi2_statistic(contingency(work, col.name, target))
        except (DegenerateDataError, DataTypeError, ImputationError) as exc:
            warnings.warn(f"skipping feature {col.name!r} in ranking: {exc}", stacklevel=2)
            continue
        pairs.append((col.name, score))
    return FeatureRanking.from_pairs(pairs)


def select_top_k(ranking: FeatureRanking, k: int) -> list[str]:
    """First k feature names of the ranking."""
    if not 1 <= k <= len(ranking):
        raise ArgumentError(f"k must be in [1, {len(ranking)}], got {k}")
    return ranking.names[:k]
