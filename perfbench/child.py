"""Child-process steps of the benchmark: set-up, one timed library run, output checks.

Each step runs in a fresh interpreter, so the parent reads the step's peak
resident set from ``os.wait4`` and no two runs share state. The parent puts
``src`` on ``PYTHONPATH`` and pins the BLAS thread count in the environment.
Each step writes ``<step>.json`` into its ``--dir``::

    python3 perfbench/child.py setup --workload train_trees --seed 1 --raw R --dir D
    python3 perfbench/child.py job   --workload train_trees --seed 1 --raw R --setup D --dir J [--trace | --peak-memory]
    python3 perfbench/child.py check --workload train_trees --seed 1 --raw R --setup D --dir J
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
import traceback
from pathlib import Path

from gendata import generate
from workloads import SCHEMA, TASKS, TINY_ROWS, WORKLOADS, run_config_doc

PREPARED_FILES = ("train.csv", "test.csv", "pipeline.json")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_op(ops: list, name: str, fn):
    """Time one operation; an exception marks it failed instead of ending the run."""
    start = time.perf_counter()
    try:
        result = fn()
    except Exception:
        ops.append({"op": name, "ok": False, "error": traceback.format_exc(limit=3)})
        return None, time.perf_counter() - start
    ops.append({"op": name, "ok": True})
    return result, time.perf_counter() - start


def run_config(raw: str, setup_dir: Path, task: str, algo: str, params: dict, seed: int):
    from genoclass.config import RunConfig

    return RunConfig.from_json(run_config_doc(raw, task, str(setup_dir / f"prep_{task}"), algo, params, seed))


def setup(args, wl) -> dict:
    """Generate the raw CSV; for library workloads also prepare both tasks.

    Every set-up of a run writes the raw CSV to the same path, because that
    path is part of the preparation fingerprint in ``pipeline.json``.
    """
    import numpy

    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    planted = generate(args.raw, TINY_ROWS if args.tiny else wl.rows, args.seed)
    doc = {"planted": planted.to_json(), "numpy": numpy.__version__, "ops": [], "prepare_s": 0.0, "hashes": {}}
    if wl.cli:
        return doc
    from genoclass.pipeline import run_prepare

    for task in TASKS:
        cfg = run_config(args.raw, out, task, *wl.models[0], args.seed)
        result, seconds = run_op(doc["ops"], f"prepare:{task}", lambda: run_prepare(cfg))
        doc["prepare_s"] += seconds
        if result is None:
            continue
        if result.dropped_rows != planted.unlabeled[task]:
            doc["ops"][-1].update(ok=False, error=f"dropped {result.dropped_rows} rows, planted {planted.unlabeled[task]}")
        for name in PREPARED_FILES:
            doc["hashes"][f"prepare:{task}|{name}"] = sha256(out / f"prep_{task}" / name)
    return doc


def job(args, wl) -> dict:
    """One timed run: train every model on each task, evaluating each artifact after its fit."""
    from tracing import Tracer, install, track_peak_memory

    tracer, peaks = None, []
    if args.trace:
        tracer = Tracer(args.run)
        install(tracer)
    if args.peak_memory:
        track_peak_memory(peaks)
    from genoclass import pipeline

    setup_dir, out = Path(args.setup), Path(args.dir)
    cfgs = {(algo, task): run_config(args.raw, setup_dir, task, algo, params, args.seed) for task in wl.tasks for algo, params in wl.models}
    doc = {"ops": [], "train_s": 0.0, "evaluate_s": 0.0, "accuracy": {}, "hashes": {}}
    ops = doc["ops"]
    start = time.perf_counter()
    artifacts = {}
    # Each artifact is evaluated right after its fit, not all at the end, so
    # that evaluate_s, a tenth of a run, samples the machine's speed across
    # the whole run rather than in one burst of under half a second.
    for (algo, task), cfg in cfgs.items():
        result, seconds = run_op(ops, f"train:{algo}:{task}", lambda: pipeline.run_train(cfg))
        doc["train_s"] += seconds
        if result is None:
            continue
        path = artifacts[algo, task] = result.artifact_path
        test_csv = setup_dir / f"prep_{task}" / "test.csv"
        result, seconds = run_op(ops, f"evaluate:{algo}:{task}", lambda: pipeline.run_evaluate(path, test_csv, out / f"eval_{task}"))
        doc["evaluate_s"] += seconds
        if result is not None:
            doc["accuracy"][f"{algo}:{task}"] = result.accuracy
            doc["hashes"][f"evaluate:{algo}:{task}|{result.report_path.name}"] = sha256(result.report_path)
    doc["job_s"] = time.perf_counter() - start
    for (algo, task), path in artifacts.items():
        doc["hashes"][f"train:{algo}:{task}|{path.name}"] = sha256(path)
    if tracer is not None:
        tracer.dump(str(out / "spans.json"))
    doc["svm_peak_mb"] = max(peaks, default=0.0)
    return doc


def check(args, wl) -> dict:
    """Checks too costly for every run, made once on the run's last outputs.

    Every artifact's class probabilities on its prepared test split are
    finite, sum to 1 per row and rank first the class it predicts; every
    SVM submodel meets its dual constraints (each ``|coef|`` at most C, the
    coefficients summing to 0); and ingest of the raw CSV counts exactly the
    unknown category tokens the generator planted.
    """
    import numpy as np

    from genoclass.artifact import ModelArtifact, revive_model
    from genoclass.dataset import load_csv, schema_from_json
    from genoclass.pipeline import FeaturePipeline

    setup_dir, job_dir = Path(args.setup), Path(args.dir)
    prepared_root = job_dir if wl.cli else setup_dir
    failures = []
    for task in wl.tasks:
        prep = prepared_root / (f"out_{task}" if wl.cli else f"prep_{task}")
        for algo, _ in wl.models:
            artifact = ModelArtifact.load(prep / f"model_{algo}_{task}.json")
            model = revive_model(artifact)
            pipe = FeaturePipeline.from_json(artifact.pipeline_doc)
            test = load_csv(prep / "test.csv", pipe.prepared_schema())
            X = test.matrix(list(model.feature_names))
            proba = model.predict_proba(X)
            if proba.shape != (test.n_rows, len(artifact.class_labels)) or not np.isfinite(proba).all():
                failures.append([f"train:{algo}:{task}", f"probabilities have shape {proba.shape} or are not finite"])
            elif np.abs(proba.sum(axis=1) - 1.0).max() > 1e-9:
                failures.append([f"train:{algo}:{task}", "probability rows do not sum to 1"])
            elif (proba[np.arange(test.n_rows), model.predict(X)] < proba.max(axis=1)).any():
                failures.append([f"train:{algo}:{task}", "predicted classes are not the most probable ones"])
            if algo == "svm":
                failures.extend([f"train:{algo}:{task}", message] for message in svm_dual_violations(model))
    planted = json.loads((setup_dir / "setup.json").read_text())["planted"]
    raw = load_csv(args.raw, schema_from_json(SCHEMA))
    unknown = sum(raw.ingest_warnings.values())
    if unknown != planted["unknown_tokens"]:
        failures.extend([f"prepare:{task}", f"ingest counted {unknown} unknown tokens, planted {planted['unknown_tokens']}"] for task in TASKS)
    return {"failures": failures}


def svm_dual_violations(model) -> list:
    """The dual constraints of each SVM submodel that its coefficients break."""
    import numpy as np

    out = []
    for c, sub in enumerate(model.submodels):
        if sub.coef.size and np.abs(sub.coef).max() > model.config.C * (1 + 1e-9):
            out.append(f"submodel {c}: a coefficient exceeds C={model.config.C}")
        if abs(sub.coef.sum()) > 1e-6:
            out.append(f"submodel {c}: coefficients sum to {sub.coef.sum():.3g}, not 0")
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("setup", "job", "check"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--raw", required=True, help="raw CSV path")
    parser.add_argument("--setup")
    parser.add_argument("--run", default="job")
    parser.add_argument("--trace", action="store_true", help="record spans")
    parser.add_argument("--peak-memory", action="store_true", help="record each SVM fit's tracemalloc peak")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    doc = {"setup": setup, "job": job, "check": check}[args.step](args, WORKLOADS[args.workload])
    Path(args.dir, f"{args.step}.json").write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    main()
