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

import csv
import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifact import ModelArtifact, revive_model
from .codec import read_json, write_json
from .config import RunConfig, config_fingerprint
from .dataset import (
    TASK_ROLES,
    ColumnSchema,
    Dataset,
    apply_imputation,
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
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- preprocessing record -------------------------------------------------------


@dataclass(frozen=True)
class FeaturePipeline:
    """Replayable record of every preprocessing decision of one prepare run.

    Args:
        raw_schema_doc: Schema of the raw CSV, as parsed JSON.
        task: Task name the preparation targeted.
        target: Name of the active target column.
        class_labels: Decoded target labels, in code order.
        imputation: Missing-cell policy used.
        fills: Fitted fill value per feature column (empty for drop_rows).
        engineer: Whether the five derived columns were appended.
        sources_doc: Engineered-feature source columns, as parsed JSON.
        bins: Bin count used while ranking numeric features.
        top_k: How many ranked features were selected.
        ranking: Every scored feature with its dependence statistic.
        selected: The feature names models consume, best first.
        prepare_hash: Fingerprint of the preparation-relevant config subset.
        file_hashes: Content digest per prepared CSV.
    """

    raw_schema_doc: tuple
    task: str
    target: str
    class_labels: tuple
    imputation: str
    fills: dict
    engineer: bool
    sources_doc: dict
    bins: int
    top_k: int
    ranking: tuple
    selected: tuple
    prepare_hash: str
    file_hashes: dict

    def raw_schema(self) -> list[ColumnSchema]:
        return schema_from_json(list(self.raw_schema_doc))

    def prepared_schema(self) -> list[ColumnSchema]:
        """Schema of the prepared CSVs: raw columns minus ignores, plus
        the engineered columns when they were enabled."""
        cols = [c for c in self.raw_schema() if c.role != "ignore"]
        if self.engineer:
            cols.extend(engineered_column_schemas())
        return cols

    def sources(self) -> EngineeredSpec:
        return EngineeredSpec.from_json(self.sources_doc)

    def to_json(self) -> dict:
        return {
            "raw_schema": [dict(d) for d in self.raw_schema_doc],
            "task": self.task,
            "target": self.target,
            "class_labels": list(self.class_labels),
            "imputation": self.imputation,
            "fills": dict(self.fills),
            "engineer": self.engineer,
            "sources": dict(self.sources_doc),
            "bins": self.bins,
            "top_k": self.top_k,
            "ranking": [[name, score] for name, score in self.ranking],
            "selected": list(self.selected),
            "prepare_hash": self.prepare_hash,
            "file_hashes": dict(self.file_hashes),
        }

    @staticmethod
    def from_json(doc: dict) -> "FeaturePipeline":
        try:
            return FeaturePipeline(
                raw_schema_doc=tuple(dict(d) for d in doc["raw_schema"]),
                task=str(doc["task"]),
                target=str(doc["target"]),
                class_labels=tuple(doc["class_labels"]),
                imputation=str(doc["imputation"]),
                fills=dict(doc["fills"]),
                engineer=bool(doc["engineer"]),
                sources_doc=dict(doc["sources"]),
                bins=int(doc["bins"]),
                top_k=int(doc["top_k"]),
                ranking=tuple((str(n), float(s)) for n, s in doc["ranking"]),
                selected=tuple(doc["selected"]),
                prepare_hash=str(doc["prepare_hash"]),
                file_hashes=dict(doc["file_hashes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"pipeline record is malformed: {exc}") from exc

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())

    @staticmethod
    def load(path: str | Path) -> "FeaturePipeline":
        return FeaturePipeline.from_json(read_json(path, "pipeline record"))


# -- stages ---------------------------------------------------------------------


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

    # Rows without a target label cannot be split, trained on, or scored.
    keep = np.flatnonzero(~ds.missing_mask(target))
    dropped = ds.n_rows - keep.size
    if keep.size == 0:
        raise EmptyInputError(f"no rows with an observed {target!r} value")
    if dropped:
        ds = ds.take(keep)

    pair = stratified_split(ds, cfg.split_ratio, cfg.split_seed, target)
    train, test = pair.train, pair.test

    fills: dict[str, float] = {}
    if cfg.imputation == "mode_median":
        fills = fit_imputation(train)
        train = apply_imputation(train, fills)
        test = apply_imputation(test, fills)
    else:
        train = impute_missing(train, "drop_rows")
        test = impute_missing(test, "drop_rows")

    if cfg.engineer:
        train = engineer_features(train, cfg.sources)
        test = engineer_features(test, cfg.sources)

    ranking = rank_features(train, target, bins=cfg.bins)
    selected = select_top_k(ranking, cfg.top_k)

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
        sources_doc=cfg.sources.to_json(),
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
    prepared CSVs must still hash to what that run recorded.
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

    train = load_csv(out_dir / TRAIN_CSV, pipeline.prepared_schema())
    view = train.select_columns([*pipeline.selected, pipeline.target])

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


def _read_header(path: Path) -> list[str]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        try:
            return next(csv.reader(fh))
        except StopIteration:
            raise EmptyInputError(f"{path}: file is empty") from None


def _load_eval_rows(pipeline: FeaturePipeline, path: Path) -> Dataset:
    """Load evaluation rows, replaying preprocessing when they are raw.

    The file may be either a raw CSV (full original layout, including the
    ignored columns) or a prepared one as written by the prepare stage; the
    header decides. Raw rows get the stored imputation and feature
    engineering replayed on top, using only train-fitted statistics.
    """
    header = set(_read_header(path))
    raw_schema = pipeline.raw_schema()
    prepared_schema = pipeline.prepared_schema()
    raw_names = {c.name for c in raw_schema}
    prepared_names = {c.name for c in prepared_schema}

    if header == prepared_names:
        ds = load_csv(path, prepared_schema)
        replay_engineer = False
    elif header == raw_names:
        ds = load_csv(path, raw_schema)
        replay_engineer = pipeline.engineer
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

    target = pipeline.target
    keep = np.flatnonzero(~ds.missing_mask(target))
    if keep.size == 0:
        raise EmptyInputError(f"{path}: no rows with an observed {target!r} value")
    if keep.size < ds.n_rows:
        ds = ds.take(keep)

    if pipeline.imputation == "mode_median":
        ds = apply_imputation(ds, pipeline.fills)
    else:
        ds = impute_missing(ds, "drop_rows")
        if ds.n_rows == 0:
            raise EmptyInputError(f"{path}: every row had missing feature cells and was dropped")
    if replay_engineer:
        ds = engineer_features(ds, pipeline.sources())
    return ds


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
    ds = _load_eval_rows(pipeline, data_path)

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

    out = Path(out_dir) if out_dir is not None else artifact_path.parent
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / f"evaluation_{artifact.algorithm}_{artifact.task}.json"
    report.save(report_path)
    tables_dir = out / f"report_{artifact.algorithm}_{artifact.task}"
    tables_dir.mkdir(parents=True, exist_ok=True)
    render_report([report], tables_dir)
    return EvalResult(report_path, tables_dir, artifact.algorithm, artifact.task, ds.n_rows, report.metrics.accuracy)


def run_report(report_paths: Sequence[str | Path], out_dir: str | Path) -> list[EvaluationReport]:
    """Merge evaluation reports into comparison tables under out_dir."""
    if not report_paths:
        raise ArgumentError("need at least one evaluation report")
    reports = [EvaluationReport.load(p) for p in report_paths]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    render_report(reports, out)
    return reports
