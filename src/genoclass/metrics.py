"""Multiclass evaluation: confusion matrices, per-class metrics, ROC/AUC, reports.

Per-class precision/recall/F1 come from the one-vs-rest reduction of the
confusion matrix; overall accuracy is trace/total. Zero-denominator metrics
are defined as 0 and flagged instead of propagating NaN into report tables.
ROC curves sweep descending distinct scores with tied scores grouped, and
AUC is the trapezoidal area (equivalent to pairwise concordance with ties
counted half).
"""

from __future__ import annotations

import functools
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .codec import JsonCodec, NumberTexts, atomic_write, decode, encode, float_texts, make_dirs, read_json, write_csv_rows, write_json
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

    @functools.cached_property
    def texts(self) -> tuple[list[str], list[str]]:
        """The ``float.__repr__`` of each fpr and of each tpr item, rendered once for both the
        evaluation JSON and the ROC CSV; each point moves one of them, so half their values repeat."""
        return float_texts(self.fpr), float_texts(self.tpr)


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
    return RocCurve(tuple(fpr.tolist()), tuple(tpr.tolist()), auc)


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


@dataclass(frozen=True)
class _StoredCurve(JsonCodec):
    """One ROC curve as an evaluation JSON stores it; as arrays, its points decode in numpy."""

    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


@dataclass(frozen=True)
class _StoredReport:
    """An evaluation JSON key by key, with each value's JSON type, for the codec.

    The ``ClassMetrics`` fields sit at the top level, the macro averages in a
    ``macro`` section, and the confusion matrix as bare integer counts.
    """

    algorithm: str
    task: str
    labels: tuple[str, ...]
    confusion: tuple[tuple[int, ...], ...]
    accuracy: float
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    support: tuple[int, ...]
    macro_precision: float = field(metadata={"key": "macro.precision"})
    macro_recall: float = field(metadata={"key": "macro.recall"})
    macro_f1: float = field(metadata={"key": "macro.f1"})
    flags: tuple[tuple[str, str], ...]
    roc: dict[str, _StoredCurve | None]
    config_hash: str


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
        m = self.metrics
        # the codec copies a dict as it is, so the curves go in as plain lists: through
        # _StoredCurve it would encode their points one call each (0.5 s, not 3 ms, at 20k rows)
        roc = {label: None if c is None else {"fpr": list(c.fpr), "tpr": list(c.tpr), "auc": c.auc} for label, c in self.roc.items()}
        return encode(_StoredReport(
            self.algorithm, self.task, self.labels, self.confusion.counts, m.accuracy, m.precision, m.recall, m.f1,
            m.support, m.macro_precision, m.macro_recall, m.macro_f1, m.flags, roc, self.config_hash,
        ))

    @staticmethod
    def from_json(doc: dict) -> "EvaluationReport":
        """Rebuild a report; a missing key, a value of the wrong JSON type, a per-class list without
        one item per label, or a curve whose fpr and tpr differ in length is an ArgumentError."""
        d = decode(_StoredReport, doc, name="evaluation report")
        for name in ("precision", "recall", "f1", "support"):
            if len(getattr(d, name)) != len(d.labels):
                raise ArgumentError(f"{name} must be a JSON array of one item per label ({len(d.labels)})")
        metrics = ClassMetrics(
            d.labels, d.precision, d.recall, d.f1, d.support, d.accuracy, d.macro_precision, d.macro_recall, d.macro_f1, d.flags
        )
        cm = ConfusionMatrix(np.asarray(d.confusion, dtype=np.int64), d.labels)
        if any(c is not None and ((c.fpr.ndim, c.tpr.ndim) != (1, 1) or c.fpr.size != c.tpr.size) for c in d.roc.values()):
            raise ArgumentError("roc fpr and tpr must each be a flat JSON array of numbers, the two of one length")
        roc = {label: None if c is None else RocCurve(tuple(c.fpr.tolist()), tuple(c.tpr.tolist()), c.auc) for label, c in d.roc.items()}
        return EvaluationReport(d.algorithm, d.task, d.labels, cm, metrics, roc, d.config_hash)

    def save(self, path: str | Path) -> None:
        doc = self.to_json()
        for label, curve in self.roc.items():
            if curve is not None:
                fpr, tpr = curve.texts
                doc["roc"][label].update(fpr=NumberTexts(fpr), tpr=NumberTexts(tpr))
        write_json(path, doc, end="\n")

    @staticmethod
    def load(path: str | Path) -> "EvaluationReport":
        doc = read_json(path, "evaluation report")
        try:
            return EvaluationReport.from_json(doc)
        except (ArgumentError, ValueError) as exc:  # ValueError: ragged confusion rows
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


def _roc_file(rep: EvaluationReport, label: str) -> str:
    return f"roc_{_slug(rep.algorithm)}_{_slug(rep.task)}_{_slug(label)}.csv"


def _cell(value: float, best: float) -> str:
    """A table value to 2 decimals, bold where it is the best of its column."""
    return f"**{value:.2f}**" if value == best else f"{value:.2f}"


def _table(title: str, columns: Sequence[str], rows: Iterable[Sequence[str]]) -> list[str]:
    """The markdown lines of one titled table whose first column is the algorithm."""
    head = ["", f"## {title}", "", "| Algorithm | " + " | ".join(columns) + " |", "|" + "---|" * (len(columns) + 1)]
    return head + ["| " + " | ".join(row) + " |" for row in rows]


def render_report(reports: Sequence[EvaluationReport], out_dir: str | Path) -> list[Path]:
    """Write comparison tables and ROC point files for a set of evaluations.

    Produces one overall-accuracy table (algorithms x tasks), per-task
    precision/recall/F1/AUC tables with the best value per class bolded in
    markdown, and one ROC CSV per (algorithm, task, class). Table cells
    render to 2 decimals; CSVs carry full double precision.
    """
    if not reports:
        raise EvaluationError("nothing to render: no evaluation reports given")
    seen: set[tuple[str, str]] = set()
    for rep in reports:
        key = (rep.algorithm, rep.task)
        if key in seen:
            raise EvaluationError(f"duplicate evaluation for algorithm {key[0]!r} on task {key[1]!r}")
        seen.add(key)
        slugs: dict[str, str] = {}
        for label in rep.labels:
            other = slugs.setdefault(_slug(label), label)
            if other != label:
                name = _roc_file(rep, label)
                raise EvaluationError(f"class labels {other!r} and {label!r} of task {rep.task!r} would share the ROC file {name}")
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

    out_dir = make_dirs(out_dir)
    written: list[Path] = []

    accuracy: dict[tuple[str, str], float] = {(r.algorithm, r.task): r.metrics.accuracy for r in reports}

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
            path = out_dir / _roc_file(rep, label)
            # a float's repr never needs quoting, so these are csv.writer's bytes
            with atomic_write(path, newline="") as fh:
                fh.write("fpr,tpr\r\n")
                fh.writelines(map("{},{}\r\n".format, *curve.texts))
            written.append(path)

    best = {t: max(accuracy[(a, t)] for a in algorithms if (a, t) in accuracy) for t in tasks}
    lines = ["# Evaluation report", *_table("Overall accuracy", tasks, (
        [algo] + [_cell(accuracy[(algo, t)], best[t]) if (algo, t) in accuracy else "" for t in tasks] for algo in algorithms
    ))]
    for task in tasks:
        group = sorted(by_task[task], key=lambda r: r.algorithm)
        labels = group[0].labels
        for metric in ("precision", "recall", "f1"):
            values = [getattr(rep.metrics, metric) for rep in group]
            column_best = [max(column) for column in zip(*values)]
            lines += _table(f"{metric.capitalize()} by class: {task}", labels, (
                [rep.algorithm] + list(map(_cell, row, column_best)) for rep, row in zip(group, values)
            ))
        lines += _table(f"AUC by class: {task}", labels, (
            [rep.algorithm] + ["n/a" if rep.roc.get(label) is None else f"{rep.roc[label].auc:.2f}" for label in labels] for rep in group
        ))
    path = out_dir / "report.md"
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")
    written.append(path)

    return written
