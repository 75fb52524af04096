"""Batch pipeline stages behind the command-line interface.

Four stages, each a plain function over a run config:

* prepare: ingest the raw CSV, split, impute, engineer, rank, select, and
  persist the prepared splits plus a replayable preprocessing record.
* train: fit one configured algorithm on the prepared train split and
  persist a versioned model artifact.
* evaluate: replay the stored preprocessing on a test file, predict, and
  write report files.
* report: merge evaluation reports into cross-algorithm comparison tables.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .artifact import ModelArtifact, revive_model
from .codec import JsonCodec, decode, json_digest, make_dirs, read_json, write_json
from .config import RunConfig, config_fingerprint
from .dataset import (
    TASK_ROLES,
    ColumnSchema,
    Dataset,
    apply_imputation,
    csv_reader,
    fit_imputation,
    impute_missing,
    load_csv,
    schema_from_json,
    schema_to_json,
    stratified_split,
    write_csv,
)
from .errors import (
    ArgumentError,
    ConfigError,
    EmptyInputError,
    PersistenceError,
    SchemaError,
    StateError,
)
from .features import (
    EngineeredSpec,
    FeatureRanking,
    engineer_features,
    engineered_column_schemas,
    rank_features,
    select_top_k,
)
from .metrics import EvaluationReport, build_report, render_report
from .registry import ALGORITHMS

TRAIN_CSV = "train.csv"
TEST_CSV = "test.csv"
RANKING_CSV = "feature_ranking.csv"
PIPELINE_JSON = "pipeline.json"


def _file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def prepare_fingerprint(cfg: RunConfig) -> str:
    """Hash of the preparation-relevant config subset.

    The model section and the output directory stay out, so one prepared
    directory can serve several train invocations that differ only in the
    algorithm or its hyperparameters.
    """
    doc = cfg.to_json()
    del doc["model"]
    del doc["output_dir"]
    return json_digest(doc)


# -- preprocessing record -------------------------------------------------------


@dataclass(frozen=True)
class FeaturePipeline(JsonCodec):
    """Replayable record of every preprocessing decision of one prepare run.

    Args:
        raw_schema_doc: Schema of the raw CSV, as parsed JSON.
        task: Task name the preparation targeted.
        target: Name of the active target column.
        class_labels: Decoded target labels, in code order.
        imputation: Missing-cell policy used.
        fills: Fitted fill value per feature column (empty for drop_rows).
        engineer: Whether the five derived columns were appended.
        sources: Engineered-feature source columns and thresholds.
        bins: Bin count used while ranking numeric features.
        top_k: How many ranked features were selected.
        ranking: Every scored feature with its dependence statistic.
        selected: The feature names models consume, best first.
        prepare_hash: Fingerprint of the preparation-relevant config subset.
        file_hashes: Content digest per prepared CSV.
    """

    raw_schema_doc: tuple[dict, ...] = field(metadata={"key": "raw_schema"})
    task: str
    target: str
    class_labels: tuple[str, ...]
    imputation: str
    # a plain dict: discrete fills are integer codes and must stay integers in the record
    fills: dict
    engineer: bool
    sources: EngineeredSpec
    bins: int
    top_k: int
    ranking: tuple[tuple[str, float], ...]
    selected: tuple[str, ...]
    prepare_hash: str
    file_hashes: dict[str, str]

    def raw_schema(self) -> list[ColumnSchema]:
        return schema_from_json(list(self.raw_schema_doc))

    def prepared_schema(self, raw: list[ColumnSchema] | None = None) -> list[ColumnSchema]:
        """Schema of the prepared CSVs: raw columns (``raw``, if already decoded) minus
        ignores, plus the engineered columns when they were enabled."""
        cols = [c for c in raw or self.raw_schema() if c.role != "ignore"]
        if self.engineer:
            cols.extend(engineered_column_schemas())
        return cols

    @classmethod
    def from_json(cls, doc: dict) -> "FeaturePipeline":
        try:
            return decode(cls, doc)
        except ArgumentError as exc:
            raise PersistenceError(f"pipeline record is malformed: {exc}") from exc

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())

    @staticmethod
    def load(path: str | Path) -> "FeaturePipeline":
        return FeaturePipeline.from_json(read_json(path, "pipeline record"))


# -- stages ---------------------------------------------------------------------


def _labeled(ds: Dataset, target: str, where: str | Path) -> Dataset:
    """The rows with an observed target: rows without a label cannot be split, trained on, or scored."""
    keep = np.flatnonzero(~ds.missing_mask(target))
    if keep.size == 0:
        raise EmptyInputError(f"{where}: no rows with an observed {target!r} value")
    return ds.take(keep) if keep.size < ds.n_rows else ds


def _replay(ds: Dataset, imputation: str, fills: dict, sources: EngineeredSpec | None, where: str | Path) -> Dataset:
    """Apply the train-fitted fills, or drop the rows with gaps, then append the engineered columns.

    The one preprocessing path of both prepare's splits and evaluate's rows;
    sources is None where no engineered columns are appended. Refuses a
    table that drop_rows empties.
    """
    if imputation == "mode_median":
        ds = apply_imputation(ds, fills)
    else:
        ds = impute_missing(ds, "drop_rows")
        if ds.n_rows == 0:
            raise EmptyInputError(f"{where}: every row had missing feature cells and was dropped")
    return ds if sources is None else engineer_features(ds, sources)


@dataclass(frozen=True)
class PrepareResult:
    """What a prepare run produced, for logging."""

    out_dir: Path
    pipeline: FeaturePipeline
    train_rows: int
    test_rows: int
    dropped_rows: int


def run_prepare(cfg: RunConfig) -> PrepareResult:
    """Ingest, split, impute, engineer, rank, select, and persist.

    Writes train.csv, test.csv, feature_ranking.csv, and pipeline.json into
    the configured output directory. Rerunning with the same config rewrites
    byte-identical files.
    """
    in_path = Path(cfg.input)
    schema_path = Path(cfg.schema)
    if not in_path.is_file():
        raise ConfigError(f"input file {cfg.input!r} does not exist")
    if not schema_path.is_file():
        raise ConfigError(f"schema file {cfg.schema!r} does not exist")

    schema = schema_from_json(schema_path)
    ds = load_csv(in_path, schema)
    target = ds.target_column(TASK_ROLES[cfg.target]).name
    n_rows = ds.n_rows
    # rebinding the name lets the unlabeled table go
    ds = _labeled(ds, target, cfg.input)
    dropped = n_rows - ds.n_rows

    pair = stratified_split(ds, cfg.split_ratio, cfg.split_seed, target)
    fills = fit_imputation(pair.train) if cfg.imputation == "mode_median" else {}
    sources = cfg.sources if cfg.engineer else None
    train = _replay(pair.train, cfg.imputation, fills, sources, f"{cfg.input} (train split)")
    test = _replay(pair.test, cfg.imputation, fills, sources, f"{cfg.input} (test split)")

    ranking = rank_features(train, target, bins=cfg.bins)
    selected = select_top_k(ranking, cfg.top_k)

    out_dir = make_dirs(cfg.output_dir)
    write_csv(train, out_dir / TRAIN_CSV)
    write_csv(test, out_dir / TEST_CSV)
    ranking.to_csv(out_dir / RANKING_CSV)

    pipeline = FeaturePipeline(
        raw_schema_doc=tuple(schema_to_json(schema)),
        task=cfg.target,
        target=target,
        class_labels=train.schema_of(target).categories,
        imputation=cfg.imputation,
        fills=fills,
        engineer=cfg.engineer,
        sources=cfg.sources,
        bins=cfg.bins,
        top_k=cfg.top_k,
        ranking=ranking.entries,
        selected=tuple(selected),
        prepare_hash=prepare_fingerprint(cfg),
        file_hashes={
            TRAIN_CSV: _file_sha256(out_dir / TRAIN_CSV),
            TEST_CSV: _file_sha256(out_dir / TEST_CSV),
        },
    )
    pipeline.save(out_dir / PIPELINE_JSON)
    return PrepareResult(out_dir, pipeline, train.n_rows, test.n_rows, dropped)


@dataclass(frozen=True)
class TrainResult:
    """What a train run produced, for logging."""

    artifact_path: Path
    algorithm: str
    task: str
    class_labels: tuple
    train_rows: int
    final_loss: float | None
    train_accuracy: float


def run_train(cfg: RunConfig) -> TrainResult:
    """Fit the configured algorithm on the prepared train split.

    Refuses to run against stale preparation: the pipeline record must have
    been written by a prepare run with the same preparation settings, and the
    prepared CSVs must still hash to what that run recorded. The hashes vouch
    for every cell, so only the model's features and the targets are converted.
    """
    out_dir = Path(cfg.output_dir)
    record_path = out_dir / PIPELINE_JSON
    if not record_path.is_file():
        raise StateError(f"no pipeline record in {str(out_dir)!r}; run prepare first")
    pipeline = FeaturePipeline.load(record_path)
    if pipeline.prepare_hash != prepare_fingerprint(cfg):
        raise StateError("stale preparation: preparation settings changed since prepare; rerun prepare")
    for name, digest in sorted(pipeline.file_hashes.items()):
        path = out_dir / name
        if not path.is_file():
            raise StateError(f"stale preparation: {name} is missing; rerun prepare")
        if _file_sha256(path) != digest:
            raise StateError(f"stale preparation: {name} changed since prepare; rerun prepare")

    schema = _reading_only(pipeline.prepared_schema(), pipeline.selected)
    view = load_csv(out_dir / TRAIN_CSV, schema).select_columns([*pipeline.selected, pipeline.target])

    alg = ALGORITHMS[cfg.algorithm]
    model_cfg = alg.build_config(cfg.model_params, cfg.model_seed)
    model = alg.fit(view, pipeline.target, model_cfg)

    artifact = ModelArtifact(
        algorithm=cfg.algorithm,
        task=cfg.target,
        class_labels=tuple(model.class_labels),
        model_doc=model.to_json(),
        pipeline_doc=pipeline.to_json(),
        config_hash=config_fingerprint(cfg),
        seed=cfg.model_seed,
    )
    artifact_path = out_dir / f"model_{cfg.algorithm}_{cfg.target}.json"
    artifact.save(artifact_path)

    X = view.matrix(list(pipeline.selected))
    y = view.values(pipeline.target)
    accuracy = float(np.mean(model.predict(X) == y))
    history = getattr(model, "loss_history", ())
    final_loss = float(history[-1]) if len(history) else None
    return TrainResult(
        artifact_path,
        cfg.algorithm,
        cfg.target,
        tuple(model.class_labels),
        view.n_rows,
        final_loss,
        accuracy,
    )


def _reading_only(schema: list[ColumnSchema], features: Sequence[str]) -> list[ColumnSchema]:
    """schema with every other feature ignored: load_csv checks those columns' names but converts none of their cells."""
    return [c if c.role != "feature" or c.name in features else replace(c, role="ignore") for c in schema]


def _read_header(path: Path) -> list[str]:
    with csv_reader(path) as reader:
        try:
            return next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: file is empty") from None


def _load_eval_rows(pipeline: FeaturePipeline, path: Path, features: Sequence[str]) -> Dataset:
    """Load evaluation rows, replaying preprocessing when they are raw.

    The file may be either a raw CSV (full original layout, including the
    ignored columns) or a prepared one as written by the prepare stage; the
    header decides. Raw rows get the stored imputation and feature
    engineering replayed on top, using only train-fitted statistics. A file
    that hashes to the recorded test split is prepare's own, already replayed:
    of its features only the model's (``features``) are converted.
    """
    header = set(_read_header(path))
    raw_schema = pipeline.raw_schema()
    prepared_schema = pipeline.prepared_schema(raw_schema)
    raw_names = {c.name for c in raw_schema}
    prepared_names = {c.name for c in prepared_schema}

    if header == prepared_names:
        if _file_sha256(path) == pipeline.file_hashes.get(TEST_CSV):
            return load_csv(path, _reading_only(prepared_schema, features))
        ds = load_csv(path, prepared_schema)
        sources = None
    elif header == raw_names:
        ds = load_csv(path, raw_schema)
        sources = pipeline.sources if pipeline.engineer else None
    else:
        ref = prepared_names if len(header & prepared_names) >= len(header & raw_names) else raw_names
        parts = []
        if ref - header:
            parts.append(f"missing columns {sorted(ref - header)}")
        if header - ref:
            parts.append(f"unexpected columns {sorted(header - ref)}")
        raise SchemaError(
            f"{path}: header matches neither the raw nor the prepared layout ({'; '.join(parts)})"
        )

    ds = _labeled(ds, pipeline.target, path)
    return _replay(ds, pipeline.imputation, pipeline.fills, sources, path)


@dataclass(frozen=True)
class EvalResult:
    """What an evaluate run produced, for logging."""

    report_path: Path
    tables_dir: Path
    algorithm: str
    task: str
    rows: int
    accuracy: float


def run_evaluate(artifact_path: str | Path, data_path: str | Path, out_dir: str | Path | None = None) -> EvalResult:
    """Score a stored model on a test file and write report files.

    Writes the evaluation report JSON plus rendered tables; the output
    directory defaults to the artifact's own directory.
    """
    artifact_path = Path(artifact_path)
    artifact = ModelArtifact.load(artifact_path)
    model = revive_model(artifact)
    pipeline = FeaturePipeline.from_json(artifact.pipeline_doc)

    data_path = Path(data_path)
    if not data_path.is_file():
        raise ConfigError(f"data file {str(data_path)!r} does not exist")
    ds = _load_eval_rows(pipeline, data_path, model.feature_names)

    X = ds.matrix(list(model.feature_names))
    y_true = ds.values(pipeline.target)
    scores = model.predict_proba(X)
    # every model's predict takes the argmax of these scores or of a decision they
    # rise with, so reading it off the scores spares scoring the rows twice
    y_pred = np.argmax(scores, axis=1)
    report = build_report(
        artifact.algorithm,
        artifact.task,
        tuple(artifact.class_labels),
        y_true,
        y_pred,
        scores,
        config_hash=artifact.config_hash,
    )

    out = make_dirs(out_dir if out_dir is not None else artifact_path.parent)
    report_path = out / f"evaluation_{artifact.algorithm}_{artifact.task}.json"
    report.save(report_path)
    tables_dir = make_dirs(out / f"report_{artifact.algorithm}_{artifact.task}")
    render_report([report], tables_dir)
    return EvalResult(report_path, tables_dir, artifact.algorithm, artifact.task, ds.n_rows, report.metrics.accuracy)


def run_report(report_paths: Sequence[str | Path], out_dir: str | Path) -> list[EvaluationReport]:
    """Merge evaluation reports into comparison tables under out_dir."""
    if not report_paths:
        raise ArgumentError("need at least one evaluation report")
    reports = [EvaluationReport.load(p) for p in report_paths]
    out = make_dirs(out_dir)
    render_report(reports, out)
    return reports
