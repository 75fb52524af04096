"""Multiclass evaluation: confusion matrices, per-class metrics, ROC/AUC, reports.

Per-class precision/recall/F1 come from the one-vs-rest reduction of the
confusion matrix; overall accuracy is trace/total. Zero-denominator metrics
are defined as 0 and flagged instead of propagating NaN into report tables.
ROC curves sweep descending distinct scores with tied scores grouped, and
AUC is the trapezoidal area (equivalent to pairwise concordance with ties
counted half).
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .codec import atomic_write, read_json, write_csv_rows, write_json
from .errors import ArgumentError, DegenerateDataError, EvaluationError, PersistenceError


@dataclass(frozen=True)
class ConfusionMatrix:
    """k x k count matrix; rows are true classes, columns are predictions."""

    counts: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ArgumentError("confusion matrix must be square")
        if counts.shape[0] != len(self.labels):
            raise ArgumentError("label count must match matrix size")
        if (counts < 0).any():
            raise ArgumentError("confusion matrix counts must be non-negative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_matrix(y_true: Sequence[int], y_pred: Sequence[int], k: int, labels: Sequence[str] | None = None) -> ConfusionMatrix:
    """Tally (true, predicted) pairs into a k x k matrix.

    Empty inputs are legal and produce an all-zero matrix with a warning so
    degenerate evaluations surface without crashing mid-report.
    """
    true = np.asarray(y_true, dtype=np.int64).reshape(-1)
    pred = np.asarray(y_pred, dtype=np.int64).reshape(-1)
    if true.shape != pred.shape:
        raise ArgumentError(f"label arrays differ in length: {true.size} vs {pred.size}")
    if k < 1:
        raise ArgumentError("class count must be >= 1")
    if labels is None:
        labels = tuple(str(i) for i in range(k))
    if len(labels) != k:
        raise ArgumentError("labels must have one entry per class")
    if true.size == 0:
        warnings.warn("confusion matrix built from zero rows", stacklevel=2)
        return ConfusionMatrix(np.zeros((k, k), dtype=np.int64), tuple(labels))
    if true.min() < 0 or true.max() >= k or pred.min() < 0 or pred.max() >= k:
        raise ArgumentError(f"labels must lie in [0, {k})")
    counts = np.bincount(true * k + pred, minlength=k * k).reshape(k, k)
    return ConfusionMatrix(counts, tuple(labels))


@dataclass(frozen=True)
class ClassMetrics:
    """Per-class precision/recall/F1 plus overall and macro-averaged numbers.

    ``flags`` records every (class label, metric name) whose denominator was
    zero and whose value was therefore defined as 0.
    """

    labels: tuple[str, ...]
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    support: tuple[int, ...]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    flags: tuple[tuple[str, str], ...] = field(default_factory=tuple)


def class_metrics(cm: ConfusionMatrix) -> ClassMetrics:
    """Derive the per-class and overall metrics from a confusion matrix."""
    if cm.total == 0:
        raise DegenerateDataError("metrics are undefined on an empty confusion matrix")
    counts = cm.counts.astype(np.float64)
    k = counts.shape[0]
    tp = np.diag(counts)
    pred_sum = counts.sum(axis=0)
    true_sum = counts.sum(axis=1)

    flags: list[tuple[str, str]] = []
    precision = np.zeros(k)
    recall = np.zeros(k)
    f1 = np.zeros(k)
    for c in range(k):
        if pred_sum[c] > 0:
            precision[c] = tp[c] / pred_sum[c]
        else:
            flags.append((cm.labels[c], "precision"))
        if true_sum[c] > 0:
            recall[c] = tp[c] / true_sum[c]
        else:
            flags.append((cm.labels[c], "recall"))
        if precision[c] + recall[c] > 0:
            f1[c] = 2 * precision[c] * recall[c] / (precision[c] + recall[c])
        else:
            flags.append((cm.labels[c], "f1"))
    accuracy = float(tp.sum() / cm.total)
    return ClassMetrics(
        labels=cm.labels,
        precision=tuple(float(p) for p in precision),
        recall=tuple(float(r) for r in recall),
        f1=tuple(float(v) for v in f1),
        support=tuple(int(s) for s in true_sum),
        accuracy=accuracy,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class RocCurve:
    """Threshold-sweep operating points plus the trapezoidal area under them."""

    fpr: tuple[float, ...]
    tpr: tuple[float, ...]
    auc: float


def roc_curve(y_true: Sequence[int], scores: Sequence[float]) -> RocCurve:
    """One-vs-rest ROC curve for binary labels (1 = positive) and real scores.

    Thresholds sweep the distinct scores in descending order; rows with tied
    scores enter in one step, which makes the trapezoidal area equal to the
    pairwise concordance fraction with ties counted half.
    """
    true = np.asarray(y_true, dtype=np.int64).reshape(-1)
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if true.shape != s.shape:
        raise ArgumentError("labels and scores differ in length")
    n_pos = int((true == 1).sum())
    n_neg = int((true == 0).sum())
    if n_pos + n_neg != true.size:
        raise ArgumentError("binary labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise DegenerateDataError("ROC needs both classes present in the true labels")

    order = np.argsort(-s, kind="stable")
    sorted_scores = s[order]
    sorted_true = true[order]
    # indices where a score group ends (last occurrence of each distinct value)
    group_end = np.flatnonzero(np.r_[sorted_scores[1:] != sorted_scores[:-1], True])
    cum_tp = np.cumsum(sorted_true == 1)[group_end]
    cum_fp = np.cumsum(sorted_true == 0)[group_end]
    fpr = np.r_[0.0, cum_fp / n_neg]
    tpr = np.r_[0.0, cum_tp / n_pos]
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    return RocCurve(tuple(float(x) for x in fpr), tuple(float(y) for y in tpr), auc)


def multiclass_roc(y_true: Sequence[int], probas: np.ndarray, labels: Sequence[str] | None = None) -> dict[str, RocCurve | None]:
    """One-vs-rest curve per class from a per-class score matrix.

    Classes absent from the true labels get None (curve undefined) while the
    others are still computed.
    """
    true = np.asarray(y_true, dtype=np.int64).reshape(-1)
    scores = np.asarray(probas, dtype=np.float64)
    if scores.ndim != 2:
        raise ArgumentError("score matrix must be 2-D (rows x classes)")
    if scores.shape[0] != true.size:
        raise ArgumentError("score matrix row count must match label count")
    k = scores.shape[1]
    if labels is None:
        labels = tuple(str(i) for i in range(k))
    if len(labels) != k:
        raise ArgumentError("labels must have one entry per class")
    out: dict[str, RocCurve | None] = {}
    for c in range(k):
        binary = (true == c).astype(np.int64)
        if binary.sum() == 0 or binary.sum() == binary.size:
            out[labels[c]] = None
            continue
        out[labels[c]] = roc_curve(binary, scores[:, c])
    return out


@dataclass
class EvaluationReport:
    """Everything one (algorithm, task) evaluation produced, serializable to JSON."""

    algorithm: str
    task: str
    labels: tuple[str, ...]
    confusion: ConfusionMatrix
    metrics: ClassMetrics
    roc: dict[str, RocCurve | None]
    config_hash: str = ""

    def to_json(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "task": self.task,
            "labels": list(self.labels),
            "confusion": [[int(v) for v in row] for row in self.confusion.counts],
            "accuracy": self.metrics.accuracy,
            "precision": list(self.metrics.precision),
            "recall": list(self.metrics.recall),
            "f1": list(self.metrics.f1),
            "support": list(self.metrics.support),
            "macro": {
                "precision": self.metrics.macro_precision,
                "recall": self.metrics.macro_recall,
                "f1": self.metrics.macro_f1,
            },
            "flags": [list(f) for f in self.metrics.flags],
            "roc": {
                label: (None if curve is None else {"fpr": list(curve.fpr), "tpr": list(curve.tpr), "auc": curve.auc})
                for label, curve in self.roc.items()
            },
            "config_hash": self.config_hash,
        }

    @staticmethod
    def from_json(doc: dict) -> "EvaluationReport":
        labels = tuple(doc["labels"])
        cm = ConfusionMatrix(np.asarray(doc["confusion"], dtype=np.int64), labels)
        metrics = ClassMetrics(
            labels=labels,
            precision=tuple(doc["precision"]),
            recall=tuple(doc["recall"]),
            f1=tuple(doc["f1"]),
            support=tuple(doc["support"]),
            accuracy=float(doc["accuracy"]),
            macro_precision=float(doc["macro"]["precision"]),
            macro_recall=float(doc["macro"]["recall"]),
            macro_f1=float(doc["macro"]["f1"]),
            flags=tuple((str(a), str(b)) for a, b in doc["flags"]),
        )
        roc: dict[str, RocCurve | None] = {}
        for label, curve in doc["roc"].items():
            roc[label] = None if curve is None else RocCurve(tuple(curve["fpr"]), tuple(curve["tpr"]), float(curve["auc"]))
        return EvaluationReport(
            algorithm=str(doc["algorithm"]),
            task=str(doc["task"]),
            labels=labels,
            confusion=cm,
            metrics=metrics,
            roc=roc,
            config_hash=str(doc["config_hash"]),
        )

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json(), end="\n")

    @staticmethod
    def load(path: str | Path) -> "EvaluationReport":
        doc = read_json(path, "evaluation report")
        try:
            return EvaluationReport.from_json(doc)
        except (ArgumentError, AttributeError, KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"evaluation report {str(path)!r} is malformed: {exc!r}") from exc


def build_report(algorithm: str, task: str, labels: Sequence[str], y_true: Sequence[int], y_pred: Sequence[int], scores: np.ndarray, config_hash: str = "") -> EvaluationReport:
    """Assemble the full evaluation for one model on one task."""
    labels = tuple(labels)
    cm = confusion_matrix(y_true, y_pred, len(labels), labels)
    return EvaluationReport(
        algorithm=algorithm,
        task=task,
        labels=labels,
        confusion=cm,
        metrics=class_metrics(cm),
        roc=multiclass_roc(y_true, scores, labels),
        config_hash=config_hash,
    )


# -- rendering --------------------------------------------------------------------


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", text).strip("_").lower()


def _fmt2(x: float) -> str:
    return f"{x:.2f}"


def _bold_winners(values: list[float]) -> list[str]:
    best = max(values)
    return [f"**{_fmt2(v)}**" if v == best else _fmt2(v) for v in values]


def render_report(reports: Sequence[EvaluationReport], out_dir: str | Path, formats: Sequence[str] = ("markdown", "csv")) -> list[Path]:
    """Write comparison tables and ROC point files for a set of evaluations.

    Produces one overall-accuracy table (algorithms x tasks), per-task
    precision/recall/F1/AUC tables with the best value per class bolded in
    markdown, and one ROC CSV per (algorithm, class). Table cells render to
    2 decimals; CSVs carry full double precision.
    """
    if not reports:
        raise EvaluationError("nothing to render: no evaluation reports given")
    for fmt in formats:
        if fmt not in ("markdown", "csv"):
            raise ArgumentError(f"unknown report format {fmt!r}")
    seen: set[tuple[str, str]] = set()
    for rep in reports:
        key = (rep.algorithm, rep.task)
        if key in seen:
            raise EvaluationError(f"duplicate evaluation for algorithm {key[0]!r} on task {key[1]!r}")
        seen.add(key)
    by_task: dict[str, list[EvaluationReport]] = {}
    for rep in reports:
        group = by_task.setdefault(rep.task, [])
        if group and group[0].labels != rep.labels:
            raise EvaluationError(
                f"conflicting class lists for task {rep.task!r}: "
                f"{list(group[0].labels)} vs {list(rep.labels)}"
            )
        group.append(rep)
    tasks = sorted(by_task)
    algorithms = sorted({rep.algorithm for rep in reports})

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    accuracy: dict[tuple[str, str], float] = {(r.algorithm, r.task): r.metrics.accuracy for r in reports}

    if "csv" in formats:
        path = out_dir / "overall_accuracy.csv"
        write_csv_rows(path, ["algorithm"] + tasks, (
            [algo] + [repr(accuracy[(algo, t)]) if (algo, t) in accuracy else "" for t in tasks] for algo in algorithms
        ))
        written.append(path)

        for task in tasks:
            path = out_dir / f"metrics_{_slug(task)}.csv"
            rows = []
            for rep in sorted(by_task[task], key=lambda r: r.algorithm):
                m = rep.metrics
                for i, label in enumerate(rep.labels):
                    curve = rep.roc.get(label)
                    auc = "" if curve is None else repr(curve.auc)
                    rows.append([rep.algorithm, label, repr(m.precision[i]), repr(m.recall[i]), repr(m.f1[i]), auc])
                rows.append([rep.algorithm, "macro", repr(m.macro_precision), repr(m.macro_recall), repr(m.macro_f1), ""])
            write_csv_rows(path, ["algorithm", "class", "precision", "recall", "f1", "auc"], rows)
            written.append(path)

        for rep in reports:
            for label, curve in rep.roc.items():
                if curve is None:
                    continue
                path = out_dir / f"roc_{_slug(rep.algorithm)}_{_slug(label)}.csv"
                write_csv_rows(path, ["fpr", "tpr"], ([repr(x), repr(y)] for x, y in zip(curve.fpr, curve.tpr)))
                written.append(path)

    if "markdown" in formats:
        lines: list[str] = ["# Evaluation report", "", "## Overall accuracy", ""]
        lines.append("| Algorithm | " + " | ".join(tasks) + " |")
        lines.append("|" + "---|" * (len(tasks) + 1))
        task_best = {
            t: max(accuracy[(a, t)] for a in algorithms if (a, t) in accuracy) for t in tasks
        }
        for algo in algorithms:
            cells = []
            for t in tasks:
                if (algo, t) not in accuracy:
                    cells.append("")
                    continue
                v = accuracy[(algo, t)]
                cells.append(f"**{_fmt2(v)}**" if v == task_best[t] else _fmt2(v))
            lines.append("| " + " | ".join([algo] + cells) + " |")
        for task in tasks:
            group = sorted(by_task[task], key=lambda r: r.algorithm)
            labels = group[0].labels
            for metric in ("precision", "recall", "f1"):
                lines += ["", f"## {metric.capitalize()} by class: {task}", ""]
                lines.append("| Algorithm | " + " | ".join(labels) + " |")
                lines.append("|" + "---|" * (len(labels) + 1))
                columns = {
                    label: [getattr(rep.metrics, metric)[i] for rep in group]
                    for i, label in enumerate(labels)
                }
                rendered = {label: _bold_winners(vals) for label, vals in columns.items()}
                for row_i, rep in enumerate(group):
                    cells = [rendered[label][row_i] for label in labels]
                    lines.append("| " + " | ".join([rep.algorithm] + cells) + " |")
            lines += ["", f"## AUC by class: {task}", ""]
            lines.append("| Algorithm | " + " | ".join(labels) + " |")
            lines.append("|" + "---|" * (len(labels) + 1))
            for rep in group:
                cells = []
                for label in labels:
                    curve = rep.roc.get(label)
                    cells.append("n/a" if curve is None else _fmt2(curve.auc))
                lines.append("| " + " | ".join([rep.algorithm] + cells) + " |")
        path = out_dir / "report.md"
        with atomic_write(path) as fh:
            fh.write("\n".join(lines) + "\n")
        written.append(path)

    return written
