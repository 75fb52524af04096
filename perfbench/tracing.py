"""Spans around the calls into each genoclass layer, recorded from outside.

``install`` rebinds the names that ``genoclass.pipeline`` and
``genoclass.cli`` call (``load_csv``, ``write_csv``, ``engineer_features``,
``rank_features``, the ``ALGORITHMS`` fit entries, the model, artifact and
report classes' public methods) to wrappers that record a span per call.
Nothing under ``src/`` changes. Spans stay in memory and are written out
once, by ``Tracer.dump``.

``layer_metrics`` turns a list of spans into the per-layer metrics; it needs
only the standard library, so the parent benchmark process can use it
without importing numpy or genoclass.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
import tracemalloc

#: Per-layer metric -> unit, in report order.
LAYER_METRICS = {
    "dataset.load_csv_s": "s",
    "dataset.load_csv_rows": "count",
    "dataset.write_csv_s": "s",
    "dataset.write_csv_rows": "count",
    "dataset.split_impute_s": "s",
    "dataset.unknown_tokens": "count",
    "dataset.rows_dropped": "count",
    "features.engineer_s": "s",
    "features.rank_s": "s",
    "features.ranked_ratio": "fraction",
    "ensemble.fit_random_forest_s": "s",
    "ensemble.fit_gbdt_plain_s": "s",
    "ensemble.fit_gbdt_goss_s": "s",
    "ensemble.fit_gbdt_oblivious_s": "s",
    "ensemble.predict_s": "s",
    "ensemble.tree_nodes": "count",
    "linear.fit_svm_s": "s",
    "linear.fit_logistic_s": "s",
    "linear.fit_svm_peak_mb": "MB",
    "linear.svm_support_vectors": "count",
    "linear.svm_converged_ratio": "fraction",
    "linear.svm_kkt_violation_ratio": "fraction",
    "linear.predict_s": "s",
    "artifact.save_s": "s",
    "artifact.load_s": "s",
    "artifact.bytes": "bytes",
    "metrics.build_report_s": "s",
    "metrics.render_report_s": "s",
    "metrics.bytes_written": "bytes",
    "pipeline.run_prepare_s": "s",
    "pipeline.run_train_s": "s",
    "pipeline.run_evaluate_s": "s",
    "pipeline.run_report_s": "s",
    "cli.startup_s": "s",
}

#: Self-time metric -> the span names whose self time it sums.
SELF_TIME = {
    "dataset.load_csv_s": ("dataset.load_csv",),
    "dataset.write_csv_s": ("dataset.write_csv",),
    "dataset.split_impute_s": ("dataset.split_impute",),
    "features.engineer_s": ("features.engineer",),
    "features.rank_s": ("features.rank",),
    "ensemble.fit_random_forest_s": ("ensemble.fit_random_forest",),
    "ensemble.fit_gbdt_plain_s": ("ensemble.fit_gbdt_plain",),
    "ensemble.fit_gbdt_goss_s": ("ensemble.fit_gbdt_goss",),
    "ensemble.fit_gbdt_oblivious_s": ("ensemble.fit_gbdt_oblivious",),
    "ensemble.predict_s": ("ensemble.predict",),
    "linear.fit_svm_s": ("linear.fit_svm",),
    "linear.fit_logistic_s": ("linear.fit_logistic",),
    "linear.predict_s": ("linear.predict",),
    "artifact.save_s": ("artifact.save",),
    "artifact.load_s": ("artifact.load", "artifact.revive"),
    "metrics.build_report_s": ("metrics.build_report",),
    "metrics.render_report_s": ("metrics.render_report", "metrics.save_report"),
    "pipeline.run_prepare_s": ("pipeline.run_prepare",),
    "pipeline.run_train_s": ("pipeline.run_train",),
    "pipeline.run_evaluate_s": ("pipeline.run_evaluate",),
    "pipeline.run_report_s": ("pipeline.run_report",),
    "cli.startup_s": ("cli.command",),
}

#: Count metric -> (span name prefix, extra field summed over those spans).
COUNTS = {
    "dataset.load_csv_rows": ("dataset.load_csv", "rows"),
    "dataset.write_csv_rows": ("dataset.write_csv", "rows"),
    "dataset.unknown_tokens": ("dataset.load_csv", "unknown"),
    "dataset.rows_dropped": ("pipeline.run_", "dropped"),
    "ensemble.tree_nodes": ("ensemble.fit_", "nodes"),
    "linear.svm_support_vectors": ("linear.fit_svm", "support_vectors"),
    "artifact.bytes": ("artifact.save", "bytes"),
    "metrics.bytes_written": ("metrics.", "bytes"),
}

#: Ratio metric -> (span name, numerator field, denominator field).
RATIOS = {
    "features.ranked_ratio": ("features.rank", "ranked", "attempted"),
    "linear.svm_converged_ratio": ("linear.fit_svm", "converged", "submodels"),
    "linear.svm_kkt_violation_ratio": ("linear.fit_svm", "kkt_violated", "kkt_rows"),
}


class Tracer:
    """In-memory span recorder for one process.

    A span is a dict with ``name``, ``start`` and ``end`` (``time.perf_counter``
    seconds, which on Linux reads the system-wide monotonic clock, so spans
    of parent and child processes share one time axis), ``parent`` (index of
    the enclosing span or None), ``run`` (the run id) and optional counts.
    """

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span.

        ``after(result, args, index)`` returns counts to attach to span
        ``index``; it runs in a child span of its own, so its cost is not
        charged to the layer.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            rec = {"name": name, "run": self.run, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(rec)
            self._stack.append(index)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    rec.update(self.span("bench.count", after)(result, args, index))
                return result
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def children(self, index: int, name: str) -> list[dict]:
        return [s for s in self.spans if s["parent"] == index and s["name"] == name]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _tree_nodes(trees) -> int:
    """Node count of a list (or list of lists) of linked tree nodes."""
    stack, count = list(trees), 0
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack.extend(node)
            continue
        count += 1
        if getattr(node, "left", None) is not None:
            stack.extend((node.left, node.right))
    return count


def _kkt_violations(model, ds, target: str) -> tuple[int, int]:
    """Training rows left out of an SVM submodel's support set whose margin breaks the KKT condition.

    A row with a zero dual coefficient must have margin ``y f(x) >= 1 - tol``.
    Returns (violating rows, rows checked), summed over the submodels that
    were solved (not the degenerate single-label ones).
    """
    import numpy as np

    names = list(model.feature_names)
    X = ds.matrix(names)
    y = ds.values(target).astype(np.int64)
    Z = model._design(X)
    decision = model.decision_matrix(X)
    violated = rows = 0
    for c, sub in enumerate(model.submodels):
        if sub.support_x.shape[0] == 0:
            continue
        support = {row.tobytes() for row in sub.support_x}
        free = np.array([row.tobytes() not in support for row in Z])
        margin = np.where(y == c, 1.0, -1.0) * decision[:, c]
        violated += int((free & (margin < 1.0 - model.config.tol)).sum())
        rows += y.size
    return violated, rows


def install(tracer: Tracer) -> None:
    """Rebind genoclass's public entry points to span-recording wrappers."""
    from genoclass import cli, pipeline
    from genoclass.artifact import ModelArtifact
    from genoclass.ensemble import ForestModel, GbdtModel
    from genoclass.linear import LogisticModel, SvmModel
    from genoclass.metrics import EvaluationReport

    def rebind(owner, attr, name, after=None, static=False):
        wrapped = tracer.span(name, getattr(owner, attr), after)
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)

    rebind(pipeline, "load_csv", "dataset.load_csv",
           lambda ds, a, i: {"rows": ds.n_rows, "unknown": sum(ds.ingest_warnings.values())})
    rebind(pipeline, "write_csv", "dataset.write_csv", lambda r, a, i: {"rows": a[0].n_rows})
    for attr in ("stratified_split", "fit_imputation", "apply_imputation", "impute_missing"):
        rebind(pipeline, attr, "dataset.split_impute")
    rebind(pipeline, "engineer_features", "features.engineer")
    rebind(pipeline, "rank_features", "features.rank",
           lambda r, a, i: {"ranked": len(r), "attempted": len(a[0].feature_names)})
    rebind(pipeline, "build_report", "metrics.build_report")
    rebind(pipeline, "render_report", "metrics.render_report",
           lambda paths, a, i: {"bytes": sum(os.path.getsize(p) for p in paths)})
    rebind(pipeline, "revive_model", "artifact.revive")
    rebind(ModelArtifact, "save", "artifact.save", lambda r, a, i: {"bytes": os.path.getsize(a[1])})
    rebind(ModelArtifact, "load", "artifact.load", static=True)
    rebind(EvaluationReport, "save", "metrics.save_report", lambda r, a, i: {"bytes": os.path.getsize(a[1])})
    for model, layer in ((ForestModel, "ensemble"), (GbdtModel, "ensemble"), (LogisticModel, "linear"), (SvmModel, "linear")):
        for attr in ("predict", "predict_proba"):
            rebind(model, attr, f"{layer}.predict")

    def tree_counts(model, a, i):
        return {"nodes": _tree_nodes(model.trees)}

    def svm_counts(model, a, i):
        subs = model.submodels
        violated, rows = _kkt_violations(model, *a[:2])
        return {
            "support_vectors": sum(s.support_x.shape[0] for s in subs),
            "converged": sum(bool(s.converged) for s in subs),
            "submodels": len(subs),
            "kkt_violated": violated,
            "kkt_rows": rows,
        }

    for algo, entry in list(pipeline.ALGORITHMS.items()):
        if algo in ("svm", "logistic"):
            fit = tracer.span(f"linear.fit_{algo}", entry.fit, svm_counts if algo == "svm" else None)
        else:
            fit = tracer.span(f"ensemble.fit_{algo}", entry.fit, tree_counts)
        pipeline.ALGORITHMS[algo] = dataclasses.replace(entry, fit=fit)

    def prepare_counts(result, a, i):
        return {"dropped": result.dropped_rows}

    def evaluate_counts(result, a, i):
        loaded = sum(s["rows"] for s in tracer.children(i, "dataset.load_csv"))
        return {"dropped": loaded - result.rows}

    for stage, after in (("prepare", prepare_counts), ("train", None), ("evaluate", evaluate_counts), ("report", None)):
        wrapped = tracer.span(f"pipeline.run_{stage}", getattr(pipeline, f"run_{stage}"), after)
        setattr(pipeline, f"run_{stage}", wrapped)
        setattr(cli, f"run_{stage}", wrapped)


def track_peak_memory(peaks: list) -> None:
    """Run every SVM fit under tracemalloc and append its traced peak (MB) to ``peaks``.

    tracemalloc slows the allocation-heavy SMO loop more than twofold, so
    this runs in a run of its own whose times are not reported.
    """
    from genoclass import pipeline

    entry = pipeline.ALGORITHMS["svm"]

    @functools.wraps(entry.fit)
    def fit(*args, **kwargs):
        tracemalloc.start()
        try:
            return entry.fit(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    pipeline.ALGORITHMS["svm"] = dataclasses.replace(entry, fit=fit)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict], svm_peak_mb: float) -> tuple[dict, dict]:
    """Per-layer metric values of one job's spans, and the base of each ratio.

    ``svm_peak_mb`` comes from a separate run (see ``track_peak_memory``). A
    ratio whose base is 0 (the layer was not used) reads 0.
    """
    own = self_times(spans)
    values = {"linear.fit_svm_peak_mb": svm_peak_mb}
    for metric, names in SELF_TIME.items():
        values[metric] = sum(t for s, t in zip(spans, own) if s["name"] in names)
    for metric, (prefix, field) in COUNTS.items():
        values[metric] = sum(s.get(field, 0) for s in spans if s["name"].startswith(prefix))
    bases = {}
    for metric, (name, num, den) in RATIOS.items():
        top = sum(s.get(num, 0) for s in spans if s["name"] == name)
        bases[metric] = sum(s.get(den, 0) for s in spans if s["name"] == name)
        values[metric] = top / bases[metric] if bases[metric] else 0.0
    return {m: values[m] for m in LAYER_METRICS}, bases


def stage_shares(spans: list[dict], stage: str) -> tuple[dict, float]:
    """Share of the ``pipeline.run_<stage>`` wall time spent in each layer's own code.

    Returns ``({layer: share}, base)`` where base is the summed duration of
    the stage's spans.
    """
    own = self_times(spans)
    root = f"pipeline.run_{stage}"
    base = sum(s["end"] - s["start"] for s in spans if s["name"] == root)
    shares: dict[str, float] = {}
    for i, s in enumerate(spans):
        j = i
        while j is not None and spans[j]["name"] != root:
            j = spans[j]["parent"]
        if j is not None:
            layer = s["name"].split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + own[i]
    return {k: v / base for k, v in sorted(shares.items())} if base else {}, base
