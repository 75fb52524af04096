"""Column-typed tabular data model: schema, CSV ingestion, imputation, splitting.

Every stage of the pipeline transforms a :class:`Dataset`, an immutable table
of one frozen array per column: ``float64`` numbers (NaN where missing) or
``int64`` category codes (-1 where missing); ``missing_mask`` derives a
column's mask from those cells. The constructor copies and checks every
array it is given; a transform shares the frozen arrays of the columns it
leaves alone, so it costs only the columns it changes. CSV files are read and
written in blocks of ``CSV_BLOCK_ROWS`` rows, so memory holds one block of
strings besides the arrays.

Schemas are explicit: no inference happens at ingest, so category encodings
stay exactly as the schema document declares them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .codec import atomic_write, decode, read_json
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

#: rows that load_csv converts, and write_csv renders, per pass over each column
CSV_BLOCK_ROWS = 128


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
    """Load a schema document (path to JSON, or an already-parsed list); a
    malformed entry is a SchemaError naming its position."""
    doc = read_json(source, "schema file") if isinstance(source, (str, Path)) else source
    if not isinstance(doc, list):
        raise SchemaError("schema document must be a JSON list of column objects")
    columns = []
    for i, entry in enumerate(doc):
        try:
            columns.append(decode(ColumnSchema, entry, partial=True, name="column"))
        except ArgumentError as exc:
            raise SchemaError(f"schema entry {i}: {exc}") from exc
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


def _frozen_column(col: ColumnSchema, values: np.ndarray, missing: np.ndarray | None, n_rows: int | None) -> np.ndarray:
    """Copy, check and freeze one column's cells: the cells missing marks become NaN or -1,
    codes must be in the category range, and there must be ``n_rows`` cells unless that is None."""
    if col.role == "ignore":
        raise SchemaError("ignored columns are dropped at ingest and cannot be stored")
    arr = np.asarray(values, dtype=np.float64 if col.kind == "numeric" else np.int64).reshape(-1)
    if n_rows is not None and arr.shape[0] != n_rows:
        raise SchemaError(f"column {col.name!r} has {arr.shape[0]} cells, expected {n_rows}")
    mask = np.zeros(arr.shape[0], dtype=bool) if missing is None else np.asarray(missing, dtype=bool).reshape(-1)
    if mask.shape[0] != arr.shape[0]:
        raise SchemaError(f"missing mask for {col.name!r} has wrong length")
    if col.kind == "numeric":
        # np.where allocates, so the caller's array is never stored, and every missing cell is a plain NaN
        arr = np.where(mask | np.isnan(arr), np.nan, arr)
    elif ((arr < 0) | (arr >= len(col.categories)))[~mask].any():
        raise SchemaError(f"column {col.name!r}: codes outside [0, {len(col.categories)})")
    else:
        arr = np.where(mask, -1, arr)
    arr.setflags(write=False)
    return arr


class Dataset:
    """Immutable column-typed table.

    The constructor copies, checks and freezes every array it is given, so
    instances are safe for concurrent reads. Every transform returns a new
    Dataset that shares the frozen arrays of the columns it leaves alone and
    checks only the cells it adds, so a transform costs only the columns it
    changes.
    """

    def __init__(
        self,
        columns: Sequence[ColumnSchema],
        values: Mapping[str, np.ndarray],
        missing: Mapping[str, np.ndarray] | None = None,
        ingest_warnings: Mapping[str, int] | None = None,
    ) -> None:
        columns = tuple(columns)
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names")
        if set(values) != set(names):
            raise SchemaError("values must cover exactly the schema columns")
        frozen: dict[str, np.ndarray] = {}
        n_rows = None
        for col in columns:
            frozen[col.name] = _frozen_column(col, values[col.name], (missing or {}).get(col.name), n_rows)
            n_rows = frozen[col.name].shape[0]
        self._adopt(columns, frozen, n_rows or 0, ingest_warnings)

    def _adopt(self, columns: Sequence[ColumnSchema], values: dict[str, np.ndarray], n_rows: int, ingest_warnings: Mapping[str, int] | None) -> "Dataset":
        """Store already checked, frozen arrays as they are."""
        self.columns: tuple[ColumnSchema, ...] = tuple(columns)
        self._values = values
        self.n_rows: int = int(n_rows)
        self.ingest_warnings: dict[str, int] = dict(ingest_warnings or {})
        self._by_name = {c.name: c for c in self.columns}
        return self

    def _derive(self, columns: Sequence[ColumnSchema], values: dict[str, np.ndarray], n_rows: int) -> "Dataset":
        return Dataset.__new__(Dataset)._adopt(columns, values, n_rows if columns else 0, self.ingest_warnings)

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
        """A read-only mask of the column's missing cells: its -1 codes (discrete) or NaNs (numeric)."""
        values = self.values(name)
        mask = values < 0 if self.schema_of(name).discrete else np.isnan(values)
        mask.setflags(write=False)
        return mask

    def target_column(self, role: str) -> ColumnSchema:
        for c in self.columns:
            if c.role == role:
                return c
        raise SchemaError(f"dataset has no column with role {role!r}")

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """Stack the named columns into a float64 design matrix.

        Categorical codes are cast to float. All requested cells must be
        observed and finite; models never see missing or infinite values.
        """
        out = np.empty((self.n_rows, len(names)))
        for j, name in enumerate(names):
            if self.missing_mask(name).any():
                raise ImputationError(f"column {name!r} has missing cells; impute first")
            if self.schema_of(name).kind == "numeric" and np.isinf(self._values[name]).any():
                raise DataTypeError(f"column {name!r} has infinite cells; models need finite features")
            out[:, j] = self._values[name]
        return out

    # -- transforms ---------------------------------------------------------

    def with_column(self, schema: ColumnSchema, values: np.ndarray, missing: np.ndarray | None = None) -> "Dataset":
        """Return a new dataset with one appended column."""
        if schema.name in self._by_name:
            raise SchemaError(f"column {schema.name!r} already exists")
        arr = _frozen_column(schema, values, missing, self.n_rows if self.columns else None)
        return self._derive(self.columns + (schema,), {**self._values, schema.name: arr}, arr.shape[0])

    def replace_values(self, name: str, values: np.ndarray, missing: np.ndarray | None = None) -> "Dataset":
        """Return a new dataset with one column's cells (not schema) replaced."""
        arr = _frozen_column(self.schema_of(name), values, missing, self.n_rows)
        return self._derive(self.columns, {**self._values, name: arr}, self.n_rows)

    def select_columns(self, names: Sequence[str]) -> "Dataset":
        """Return a new dataset restricted to the named columns, in given order."""
        cols = [self.schema_of(n) for n in names]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names")
        return self._derive(cols, {n: self._values[n] for n in names}, self.n_rows)

    def take(self, indices: np.ndarray) -> "Dataset":
        """Return a new dataset with the given rows, in given order."""
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        # rows of checked arrays need no new checks, only freezing
        values = {n: v[idx] for n, v in self._values.items()}
        for arr in values.values():
            arr.setflags(write=False)
        return self._derive(self.columns, values, idx.size)

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Cell-identical comparison: schema and cells, a missing cell equal only to a missing one."""
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.columns != other.columns or self.n_rows != other.n_rows:
            return False
        return all(np.array_equal(v, other._values[name], equal_nan=True) for name, v in self._values.items())

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


@contextlib.contextmanager
def csv_reader(path: str | Path) -> Iterator[Iterator[list[str]]]:
    """A csv reader over a UTF-8 file, with or without a byte-order mark. A cell over the csv module's
    field limit is a DataTypeError naming the line; bytes that are not UTF-8 are one naming the file."""
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except UnicodeDecodeError as exc:
            raise DataTypeError(f"{path} is not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise DataTypeError(f"{path}: line {reader.line_num}: {exc}") from None


def _records(reader: Iterator[list[str]], width: int, path: str | Path) -> Iterator[list[str]]:
    """The reader's records, each checked to have ``width`` cells as it is read."""
    for line_no, row in enumerate(reader, start=2):
        if len(row) != width:
            raise SchemaError(f"{path}: line {line_no} has {len(row)} cells, expected {width}")
        yield row


def _is_number(token: str) -> bool:
    """Whether a numeric cell parses: blank, or a number with or without surrounding whitespace."""
    try:
        float(token.strip() or "nan")
    except ValueError:
        return False
    return True


def load_csv(path: str | Path, schema: Sequence[ColumnSchema]) -> Dataset:
    """Read a CSV file against an explicit schema.

    Header names must match the schema names exactly (case-sensitive, as a
    set; column order follows the schema). Empty cells become missing;
    category tokens not listed in the schema become missing and are tallied
    in ``Dataset.ingest_warnings``; malformed numeric cells are errors.
    Ignored columns are checked for presence and then dropped, their cells
    never converted, so a caller that needs some columns only reads those.
    Each column of a block of records converts in one pass (memory: one block
    plus the arrays): a numeric block without a blank cell goes to ``float``
    as it is, and a categorical column's unknown tokens are counted once,
    after the last block, as its missing codes minus its blank cells.
    A malformed record anywhere wins over a bad number; the first bad column
    in schema order is named, at its first bad line.
    """
    validate_schema(schema)
    kept = [c for c in schema if c.role != "ignore"]
    blocks: dict[str, list[np.ndarray]] = {c.name: [] for c in kept}
    unknown = dict.fromkeys(blocks, 0)  # a categorical column's missing codes minus its blank cells
    bad: dict[int, str] = {}  # index in kept of a numeric column -> the error for its first bad cell
    n = 0
    with csv_reader(path) as reader:
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
        codes = {c.name: {tok: k for k, tok in enumerate(c.categories) if tok != ""} for c in kept if c.discrete}
        records = _records(reader, len(header), path)
        while rows := list(itertools.islice(records, CSV_BLOCK_ROWS)):
            cells = list(zip(*rows))
            for j, col in enumerate(kept):
                if j in bad:
                    continue
                tokens = cells[position[col.name]]
                if col.discrete:
                    found = np.fromiter(map(codes[col.name].get, tokens, itertools.repeat(-1)), np.int64, len(rows))
                    unknown[col.name] -= tokens.count("")
                else:
                    try:
                        # float takes surrounding whitespace; a whitespace-only cell needs the strip
                        found = np.fromiter(map(float, [t or "nan" for t in tokens] if "" in tokens else tokens), np.float64, len(rows))
                    except ValueError:
                        try:
                            found = np.fromiter(map(float, [t.strip() or "nan" for t in tokens]), np.float64, len(rows))
                        except ValueError:
                            k = next(k for k, t in enumerate(tokens) if not _is_number(t))
                            bad[j] = f"{path}: column {col.name!r}, line {n + k + 2}: not a number: {tokens[k]!r}"
                            continue
                blocks[col.name].append(found)
            n += len(rows)
    if not n:
        raise EmptyInputError(f"{path}: no data rows")
    if bad:
        raise DataTypeError(bad[min(bad)])
    values: dict[str, np.ndarray] = {}
    for col in kept:
        arr = np.concatenate(blocks.pop(col.name))
        if col.discrete:
            unknown[col.name] += int(np.count_nonzero(arr < 0))
        else:
            arr[np.isnan(arr)] = np.nan  # a parsed "-nan" keeps its sign bit; a missing cell holds a plain NaN
        arr.setflags(write=False)
        values[col.name] = arr
    # the arrays are new and every code is in range by construction, so the constructor's checks are skipped
    return Dataset.__new__(Dataset)._adopt(kept, values, n, {k: v for k, v in unknown.items() if v})


def _csv_field(text: str, alone: bool) -> str:
    """text as the default csv dialect writes it: as a row's only field when alone, else among others."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text] if alone else ["", text])
    return buf.getvalue()[0 if alone else 1 : -2]  # without the leading delimiter and the "\r\n"


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Write a dataset back to CSV, decoding category codes to their tokens.

    Missing cells become empty strings; numeric cells use shortest
    round-trip formatting, so load_csv on the result reproduces the dataset
    cell-identically. The bytes are ``csv.writer``'s; each block of rows renders
    a column at a time and is written at once. The file is replaced atomically.
    """
    alone = len(ds.columns) == 1
    gap = _csv_field("", alone)
    # a missing code is -1, so the gap appended last renders it
    fields = {c.name: [_csv_field(t, alone) for t in c.categories] + [gap] for c in ds.columns if c.discrete}
    with atomic_write(path, newline="") as fh:
        csv.writer(fh).writerow(ds.column_names)
        for lo in range(0, ds.n_rows, CSV_BLOCK_ROWS):
            cols = []
            for col in ds.columns:
                block = ds.values(col.name)[lo : lo + CSV_BLOCK_ROWS]
                if col.discrete:
                    cols.append(list(map(fields[col.name].__getitem__, block.tolist())))
                    continue
                cells = list(map(float.__repr__, block.tolist()))
                for k in np.flatnonzero(np.isnan(block)).tolist():
                    cells[k] = gap
                cols.append(cells)
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*cols)]))


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
        present = ds.values(col.name)[~ds.missing_mask(col.name)]
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
        mask = out.missing_mask(name)
        if mask.any():
            out = out.replace_values(name, np.where(mask, fill, out.values(name)))
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
        gappy = np.any([ds.missing_mask(col.name) for col in ds.columns], axis=0)
        return ds.take(np.flatnonzero(~gappy))
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
