"""Column-typed tabular data model: schema, CSV ingestion, imputation, splitting.

Every stage of the pipeline transforms a :class:`Dataset`, an immutable
column-oriented table. Numeric columns are stored as ``float64`` (NaN where
missing), categorical/binary columns as ``int64`` category codes (-1 where
missing); a boolean mask per column is the authoritative missing marker.

Schemas are explicit: no inference happens at ingest, so category encodings
stay exactly as the schema document declares them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .codec import write_csv_rows
from .errors import (
    ArgumentError,
    DataTypeError,
    DegenerateDataError,
    EmptyInputError,
    ImputationError,
    SchemaError,
    StratificationError,
)

KINDS = ("numeric", "categorical", "binary")
ROLES = ("feature", "target_disorder", "target_subclass", "ignore")

#: config-facing names for the two prediction tasks, keyed to schema roles
TASK_ROLES = {
    "genetic_disorder": "target_disorder",
    "disorder_subclass": "target_subclass",
}


@dataclass(frozen=True)
class ColumnSchema:
    """Declared name, kind, role, and category encoding of one column.

    Args:
        name: column header, matched case-sensitively against CSV files.
        kind: one of ``numeric``, ``categorical``, ``binary``.
        role: one of ``feature``, ``target_disorder``, ``target_subclass``,
            ``ignore``. Ignored columns are dropped at ingest.
        categories: ordered category tokens; the list index is the integer
            code. Required for categorical/binary columns unless the column
            is ignored.
    """

    name: str
    kind: str
    role: str = "feature"
    categories: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.kind not in KINDS:
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.role not in ROLES:
            raise SchemaError(f"column {self.name!r}: unknown role {self.role!r}")
        object.__setattr__(self, "categories", tuple(self.categories))
        if self.role == "ignore":
            return
        if self.kind == "numeric":
            if self.categories:
                raise SchemaError(f"numeric column {self.name!r} must not list categories")
        else:
            if len(set(self.categories)) != len(self.categories):
                raise SchemaError(f"column {self.name!r}: duplicate category tokens")
            if self.kind == "binary" and len(self.categories) != 2:
                raise SchemaError(f"binary column {self.name!r} needs exactly 2 categories")
            if self.kind == "categorical" and len(self.categories) < 2:
                raise SchemaError(f"categorical column {self.name!r} needs >= 2 categories")

    @property
    def discrete(self) -> bool:
        return self.kind in ("categorical", "binary")

    def code_of(self, token: str) -> int | None:
        """Integer code for a category token, or None if unknown."""
        try:
            return self.categories.index(token)
        except ValueError:
            return None

    def token_of(self, code: int) -> str:
        return self.categories[int(code)]


def validate_schema(columns: Sequence[ColumnSchema]) -> None:
    """Full-document rules for a schema used at ingestion.

    Column-level rules live in ``ColumnSchema``; this enforces the
    document-level ones: unique names, exactly one column per target role,
    and classification-ready (discrete) target columns.
    """
    names = [c.name for c in columns]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise SchemaError(f"duplicate column names in schema: {dupes}")
    for role in ("target_disorder", "target_subclass"):
        owners = [c for c in columns if c.role == role]
        if len(owners) != 1:
            raise SchemaError(f"schema must have exactly one {role} column, found {len(owners)}")
        if not owners[0].discrete:
            raise SchemaError(f"{role} column {owners[0].name!r} must be categorical or binary")


def schema_from_json(source: str | Path | Sequence[Mapping]) -> list[ColumnSchema]:
    """Load a schema document (path to JSON, or an already-parsed list)."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = source
    if not isinstance(doc, list):
        raise SchemaError("schema document must be a JSON list of column objects")
    columns = []
    for entry in doc:
        unknown = set(entry) - {"name", "kind", "role", "categories"}
        if unknown:
            raise SchemaError(f"schema entry {entry.get('name')!r}: unknown keys {sorted(unknown)}")
        columns.append(
            ColumnSchema(
                name=entry["name"],
                kind=entry["kind"],
                role=entry.get("role", "feature"),
                categories=tuple(entry.get("categories", ())),
            )
        )
    validate_schema(columns)
    return columns


def schema_to_json(columns: Sequence[ColumnSchema]) -> list[dict]:
    out = []
    for c in columns:
        entry: dict = {"name": c.name, "kind": c.kind, "role": c.role}
        if c.categories:
            entry["categories"] = list(c.categories)
        out.append(entry)
    return out


class Dataset:
    """Immutable column-typed table.

    Construction copies and freezes the provided arrays, so instances are
    safe for concurrent reads; every transforming operation returns a new
    Dataset.
    """

    def __init__(
        self,
        columns: Sequence[ColumnSchema],
        values: Mapping[str, np.ndarray],
        missing: Mapping[str, np.ndarray] | None = None,
        ingest_warnings: Mapping[str, int] | None = None,
    ) -> None:
        self.columns: tuple[ColumnSchema, ...] = tuple(columns)
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names")
        if any(c.role == "ignore" for c in self.columns):
            raise SchemaError("ignored columns are dropped at ingest and cannot be stored")
        if set(values) != set(names):
            raise SchemaError("values must cover exactly the schema columns")

        n_rows = None
        self._values: dict[str, np.ndarray] = {}
        self._missing: dict[str, np.ndarray] = {}
        for col in self.columns:
            dtype = np.float64 if col.kind == "numeric" else np.int64
            arr = np.array(values[col.name], dtype=dtype, copy=True).reshape(-1)
            if n_rows is None:
                n_rows = arr.shape[0]
            elif arr.shape[0] != n_rows:
                raise SchemaError(f"column {col.name!r} has {arr.shape[0]} cells, expected {n_rows}")
            if missing is not None and col.name in missing:
                mask = np.array(missing[col.name], dtype=bool, copy=True).reshape(-1)
                if mask.shape[0] != arr.shape[0]:
                    raise SchemaError(f"missing mask for {col.name!r} has wrong length")
            else:
                mask = np.zeros(arr.shape[0], dtype=bool)
            if col.kind == "numeric":
                mask = mask | np.isnan(arr)
                arr = np.where(mask, np.nan, arr)
            else:
                present = arr[~mask]
                if present.size and (present.min() < 0 or present.max() >= len(col.categories)):
                    raise SchemaError(
                        f"column {col.name!r}: codes outside [0, {len(col.categories)})"
                    )
                arr = np.where(mask, -1, arr)
            arr.setflags(write=False)
            mask.setflags(write=False)
            self._values[col.name] = arr
            self._missing[col.name] = mask
        self.n_rows: int = 0 if n_rows is None else int(n_rows)
        self.ingest_warnings: dict[str, int] = dict(ingest_warnings or {})
        self._by_name = {c.name: c for c in self.columns}

    # -- lookups ------------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def feature_names(self) -> list[str]:
        return [c.name for c in self.columns if c.role == "feature"]

    def schema_of(self, name: str) -> ColumnSchema:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no such column: {name!r}") from None

    def values(self, name: str) -> np.ndarray:
        self.schema_of(name)
        return self._values[name]

    def missing_mask(self, name: str) -> np.ndarray:
        self.schema_of(name)
        return self._missing[name]

    def target_column(self, role: str) -> ColumnSchema:
        for c in self.columns:
            if c.role == role:
                return c
        raise SchemaError(f"dataset has no column with role {role!r}")

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """Stack the named columns into a float64 design matrix.

        Categorical codes are cast to float. All requested cells must be
        observed; models never see missing values.
        """
        cols = []
        for name in names:
            self.schema_of(name)
            if self._missing[name].any():
                raise ImputationError(f"column {name!r} has missing cells; impute first")
            cols.append(self.values(name).astype(np.float64))
        if not cols:
            return np.empty((self.n_rows, 0), dtype=np.float64)
        return np.column_stack(cols)

    # -- transforms ---------------------------------------------------------

    def with_column(self, schema: ColumnSchema, values: np.ndarray, missing: np.ndarray | None = None) -> "Dataset":
        """Return a new dataset with one appended column."""
        if schema.name in self._by_name:
            raise SchemaError(f"column {schema.name!r} already exists")
        cols = self.columns + (schema,)
        vals = {n: self._values[n] for n in self._values}
        vals[schema.name] = values
        miss = {n: self._missing[n] for n in self._missing}
        if missing is not None:
            miss[schema.name] = missing
        return Dataset(cols, vals, miss, self.ingest_warnings)

    def replace_values(self, name: str, values: np.ndarray, missing: np.ndarray | None = None) -> "Dataset":
        """Return a new dataset with one column's cells (not schema) replaced."""
        self.schema_of(name)
        vals = {n: self._values[n] for n in self._values}
        vals[name] = values
        miss = {n: self._missing[n] for n in self._missing if n != name}
        if missing is not None:
            miss[name] = missing
        return Dataset(self.columns, vals, miss, self.ingest_warnings)

    def select_columns(self, names: Sequence[str]) -> "Dataset":
        """Return a new dataset restricted to the named columns, in given order."""
        for n in names:
            self.schema_of(n)
        cols = [self._by_name[n] for n in names]
        return Dataset(
            cols,
            {n: self._values[n] for n in names},
            {n: self._missing[n] for n in names},
            self.ingest_warnings,
        )

    def take(self, indices: np.ndarray) -> "Dataset":
        """Return a new dataset with the given rows, in given order."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.columns,
            {n: self._values[n][idx] for n in self._values},
            {n: self._missing[n][idx] for n in self._missing},
            self.ingest_warnings,
        )

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Cell-identical comparison: schema, masks, and observed values."""
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.columns != other.columns or self.n_rows != other.n_rows:
            return False
        for name in self._values:
            m1, m2 = self._missing[name], other._missing[name]
            if not np.array_equal(m1, m2):
                return False
            v1, v2 = self._values[name][~m1], other._values[name][~m2]
            if not np.array_equal(v1, v2):
                return False
        return True

    def __repr__(self) -> str:
        return f"Dataset({self.n_rows} rows, {len(self.columns)} columns)"


@dataclass(frozen=True)
class SplitPair:
    """A stratified train/test partition plus the parameters that made it."""

    train: Dataset
    test: Dataset
    seed: int
    ratio: float


def supervised_arrays(ds: Dataset, target: str, discrete: bool) -> tuple[np.ndarray, np.ndarray, tuple[str, ...], list[str]]:
    """Extract (X, y, class labels, feature names) for a supervised fit.

    X is the raw code/value matrix of every feature column other than the
    target. ``discrete`` selects classification (integer codes, labels from
    the schema) versus regression (float targets, empty labels).
    """
    col = ds.schema_of(target)
    if ds.missing_mask(target).any():
        raise DataTypeError(f"target column {target!r} has missing values")
    if discrete:
        if not col.discrete:
            raise DataTypeError(f"target column {target!r} must be categorical or binary")
        y = ds.values(target).astype(np.int64)
        labels = col.categories
    else:
        if col.kind != "numeric":
            raise DataTypeError(f"regression target {target!r} must be numeric")
        y = ds.values(target).astype(np.float64)
        labels = ()
    feature_names = [n for n in ds.feature_names if n != target]
    if not feature_names:
        raise DegenerateDataError("no feature columns available to fit on")
    return ds.matrix(feature_names), y, labels, feature_names


# -- ingestion ----------------------------------------------------------------


def load_csv(path: str | Path, schema: Sequence[ColumnSchema]) -> Dataset:
    """Read a CSV file against an explicit schema.

    Header names must match the schema names exactly (case-sensitive, as a
    set; column order follows the schema). Empty cells become missing;
    category tokens not listed in the schema become missing and are tallied
    in ``Dataset.ingest_warnings``; malformed numeric cells are errors.
    Ignored columns are checked for presence and then dropped.
    """
    validate_schema(schema)
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: file is empty") from None
        expected = {c.name for c in schema}
        seen = set(header)
        if len(seen) != len(header):
            raise SchemaError(f"{path}: duplicate header names")
        if seen != expected:
            msg = []
            if expected - seen:
                msg.append(f"missing columns {sorted(expected - seen)}")
            if seen - expected:
                msg.append(f"unexpected columns {sorted(seen - expected)}")
            raise SchemaError(f"{path}: header does not match schema: " + "; ".join(msg))
        position = {name: i for i, name in enumerate(header)}
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise SchemaError(f"{path}: line {line_no} has {len(row)} cells, expected {len(header)}")
            rows.append(row)
    if not rows:
        raise EmptyInputError(f"{path}: no data rows")

    n = len(rows)
    kept = [c for c in schema if c.role != "ignore"]
    values: dict[str, np.ndarray] = {}
    missing: dict[str, np.ndarray] = {}
    warnings_count: dict[str, int] = {}
    for col in kept:
        pos = position[col.name]
        mask = np.zeros(n, dtype=bool)
        if col.kind == "numeric":
            out = np.empty(n, dtype=np.float64)
            for i, row in enumerate(rows):
                token = row[pos].strip()
                if not token:
                    mask[i] = True
                    out[i] = np.nan
                    continue
                try:
                    out[i] = float(token)
                except ValueError:
                    raise DataTypeError(
                        f"{path}: column {col.name!r}, line {i + 2}: not a number: {row[pos]!r}"
                    ) from None
        else:
            out = np.empty(n, dtype=np.int64)
            codes = {tok: k for k, tok in enumerate(col.categories)}
            unknown = 0
            for i, row in enumerate(rows):
                token = row[pos]
                if token == "":
                    mask[i] = True
                    out[i] = -1
                    continue
                code = codes.get(token)
                if code is None:
                    unknown += 1
                    mask[i] = True
                    out[i] = -1
                else:
                    out[i] = code
            if unknown:
                warnings_count[col.name] = unknown
        values[col.name] = out
        missing[col.name] = mask
    return Dataset(kept, values, missing, warnings_count)


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Write a dataset back to CSV, decoding category codes to their tokens.

    Missing cells become empty strings; numeric cells use shortest
    round-trip formatting, so load_csv on the result reproduces the dataset
    cell-identically. The file is replaced atomically.
    """
    cols = []
    for col in ds.columns:
        vals = ds.values(col.name)
        mask = ds.missing_mask(col.name)
        if col.kind == "numeric":
            rendered = [("" if mask[i] else repr(float(vals[i]))) for i in range(ds.n_rows)]
        else:
            rendered = [("" if mask[i] else col.token_of(vals[i])) for i in range(ds.n_rows)]
        cols.append(rendered)
    write_csv_rows(path, ds.column_names, zip(*cols))


# -- imputation ----------------------------------------------------------------


def fit_imputation(ds: Dataset, policy: str = "mode_median") -> dict[str, float]:
    """Compute fill values (mode for discrete, median for numeric) per feature column.

    Target columns are never imputed. Raises for columns that are entirely
    missing, since neither aggregate exists there.
    """
    if policy != "mode_median":
        raise ArgumentError(f"no fill values to fit for policy {policy!r}")
    fills: dict[str, float] = {}
    for col in ds.columns:
        if col.role != "feature":
            continue
        # Fills are computed for every feature column, not just the gappy
        # ones, so a split fitted on clean training rows still covers holes
        # that only show up in later data.
        mask = ds.missing_mask(col.name)
        present = ds.values(col.name)[~mask]
        if present.size == 0:
            raise ImputationError(f"column {col.name!r} is entirely missing; cannot impute")
        if col.kind == "numeric":
            fills[col.name] = float(np.median(present))
        else:
            counts = np.bincount(present.astype(np.int64), minlength=len(col.categories))
            fills[col.name] = int(np.argmax(counts))  # ties resolve to the lowest code
    return fills


def apply_imputation(ds: Dataset, fills: Mapping[str, float]) -> Dataset:
    """Fill missing feature cells with previously fitted values."""
    out = ds
    for name, fill in fills.items():
        col = ds.schema_of(name)
        mask = out.missing_mask(name)
        if not mask.any():
            continue
        vals = np.array(out.values(name), copy=True)
        vals[mask] = fill
        out = out.replace_values(name, vals, np.zeros(ds.n_rows, dtype=bool))
    # a stored fill set may not cover columns that had no training-time gaps
    for col in ds.columns:
        if col.role == "feature" and out.missing_mask(col.name).any():
            raise ImputationError(
                f"column {col.name!r} has missing cells not covered by the fitted fill values"
            )
    return out


def impute_missing(ds: Dataset, policy: str = "mode_median") -> Dataset:
    """Resolve missing cells per policy.

    ``mode_median`` fills discrete columns with their mode and numeric columns
    with their median; ``drop_rows`` removes every row that has a missing
    feature or target cell.
    """
    if policy == "mode_median":
        return apply_imputation(ds, fit_imputation(ds, policy))
    if policy == "drop_rows":
        bad = np.zeros(ds.n_rows, dtype=bool)
        for col in ds.columns:
            bad |= ds.missing_mask(col.name)
        return ds.take(np.flatnonzero(~bad))
    raise ArgumentError(f"unknown imputation policy {policy!r}")


# -- splitting ----------------------------------------------------------------


def stratified_split(ds: Dataset, ratio: float, seed: int, target: str) -> SplitPair:
    """Partition rows into train/test, stratified on a discrete target.

    Per class: round(count * ratio) rows go to train (clamped so both parts
    keep at least one row), the rest to test; within-class order is shuffled
    by a seeded generator. Deterministic for fixed (ds, ratio, seed, target).
    """
    if not (0.0 < ratio < 1.0):
        raise ArgumentError(f"split ratio must be in (0,1), got {ratio}")
    col = ds.schema_of(target)
    if not col.discrete:
        raise DataTypeError(f"split target {target!r} must be a discrete column")
    mask = ds.missing_mask(target)
    if mask.any():
        raise StratificationError(f"target {target!r} has {int(mask.sum())} missing values")
    codes = ds.values(target)
    rng = np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for code in range(len(col.categories)):
        rows = np.flatnonzero(codes == code)
        count = rows.size
        if count == 0:
            continue
        if count < 2:
            raise StratificationError(
                f"class {col.token_of(code)!r} has {count} row(s); need at least 2 to appear in both parts"
            )
        n_train = int(math.floor(count * ratio + 0.5))
        n_train = min(max(n_train, 1), count - 1)
        shuffled = rng.permutation(rows)
        train_idx.append(shuffled[:n_train])
        test_idx.append(shuffled[n_train:])
    if not train_idx:
        raise StratificationError(f"target {target!r} has no populated classes")
    return SplitPair(
        train=ds.take(np.concatenate(train_idx)),
        test=ds.take(np.concatenate(test_idx)),
        seed=seed,
        ratio=ratio,
    )
