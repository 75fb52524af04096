"""genoclass benchmark: batch workloads, end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload train_trees --seed 1 --seconds 36 --trace 0

Run from the repository root. The run sets up its inputs several times
(the raw CSV from ``--seed``, plus preparation for the library workloads),
then repeats timed runs of the workload, each in fresh child processes,
until ``--seconds`` would be exceeded. It prints a report, then one JSON
line: with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of the traced runs (traced and untraced runs alternate,
so the tracing overhead can be reported).

Every run is a closed loop from one process at a time with no extra
threads, so nothing waits on a queue or a lock: waiting time is zero by
construction and is not reported. Work files go to ``.perfbench/work`` and
are removed at exit; results and spans stay in ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import LAYER_METRICS, RATIOS, layer_metrics, stage_shares
from workloads import ROOT, TASKS, WORKLOADS, run_config_doc

HERE = Path(__file__).resolve().parent
END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "train_s": "s",
    "evaluate_s": "s",
    "prepare_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_mean": "fraction",
}
SETUPS = 5
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0
ENV_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Child:
    code: int
    start: float
    end: float
    peak_mb: float

    @property
    def wall(self) -> float:
        return self.end - self.start


class Runner:
    """Starts child processes with a pinned environment and a run deadline."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        for name in ENV_THREADS:
            self.env[name] = str(BLAS_THREADS)

    def run(self, argv: list, cwd: Path, out: Path) -> Child:
        """Run argv to completion; stdout goes to ``out``, stderr to ``out`` + ``.err``."""
        with open(out, "wb") as fh, open(f"{out}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *map(str, argv)], cwd=cwd, env=self.env, stdout=fh, stderr=err)
            try:
                signal.setitimer(signal.ITIMER_REAL, max(self.deadline - time.monotonic(), 0.01))
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # deadline or interrupt: leave no child running
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                proc.returncode = -1  # reaped here; keeps Popen from waiting on it again
            end = time.perf_counter()
        return Child(os.waitstatus_to_exitcode(status), start, end, usage.ru_maxrss / 1024)


def _on_alarm(signum, frame):
    raise TimeoutError("run deadline passed while a child process was running")


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def tail(path: Path, lines: int = 5) -> str:
    try:
        return "\n".join(Path(path).read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


class Bench:
    """One invocation: set-ups, timed runs, checks, and the report."""

    def __init__(self, args, work: Path) -> None:
        self.args = args
        self.wl = WORKLOADS[args.workload]
        self.work = work
        self.raw = work / "raw.csv"
        self.runner = Runner(time.monotonic() + RUN_LIMIT_S)
        self.ops: dict[str, str | None] = {}  # operation -> failure message, None when it passed
        self.tiny = ["--tiny"] if args.tiny else []

    def fail(self, op: str, message: str) -> None:
        if self.ops.get(op) is None:
            self.ops[op] = message

    def add_ops(self, prefix: str, ops: list) -> None:
        for op in ops:
            self.ops.setdefault(f"{prefix}:{op['op']}", None)
            if not op["ok"]:
                self.fail(f"{prefix}:{op['op']}", op["error"])

    def child(self, step: str, out_dir: Path, extra: list) -> tuple[Child, dict | None]:
        out_dir.mkdir(parents=True, exist_ok=True)
        argv = [HERE / "child.py", step, "--workload", self.wl.name, "--seed", self.args.seed, "--raw", self.raw, "--dir", out_dir, *extra, *self.tiny]
        c = self.runner.run(argv, ROOT, out_dir / f"{step}.log")
        doc_path = out_dir / f"{step}.json"
        if c.code != 0 or not doc_path.is_file():
            return c, None
        return c, read_json(doc_path)

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """The first set-up; the others run between timed runs (see ``run_jobs``)."""
        self.setups = []
        self.setup_once()
        self.setup_dir = self.work / "setup0"
        self.planted = self.setups[0][1]["planted"]
        if self.wl.cli:
            self.write_configs()

    def setup_once(self) -> None:
        i = len(self.setups)
        out = self.work / f"setup{i}"
        c, doc = self.child("setup", out, [])
        if doc is None:
            raise RuntimeError(f"set-up {i} exited with {c.code}:\n{tail(out / 'setup.log.err')}")
        self.add_ops(f"setup{i}", doc["ops"])
        if self.setups:
            self.compare_hashes(f"setup{i}", doc["hashes"], self.setups[0][1]["hashes"], "set-up 0")
            shutil.rmtree(out, ignore_errors=True)
        self.setups.append((c, doc))

    def write_configs(self) -> None:
        configs = self.work / "configs"
        configs.mkdir()
        for task in TASKS:
            for algo, params in self.wl.models:
                doc = run_config_doc(self.raw, task, f"out_{task}", algo, params, self.args.seed)
                (configs / f"{task}_{algo}.json").write_text(json.dumps(doc), encoding="utf-8")

    # -- timed runs ----------------------------------------------------------

    def run_jobs(self) -> None:
        """Timed runs until the window would be exceeded.

        The remaining set-ups are spread between the runs, so that set-up
        times sample the same stretch of machine time as the runs do.
        """
        self.jobs = []
        start = time.perf_counter()
        while True:
            k = len(self.jobs)
            traced = bool(self.args.trace) and k % 2 == 0
            job = self.cli_job(k, traced) if self.wl.cli else self.library_job(k, traced)
            self.jobs.append(job)
            if len(self.setups) < SETUPS:
                self.setup_once()
            if self.args.trace and k == 0:
                continue  # a traced run needs an untraced one beside it
            # Start another run only if it is expected to end within the window.
            elapsed = time.perf_counter() - start
            typical = statistics.median(j["wall"] for j in self.jobs)
            if elapsed + typical > self.args.seconds or time.monotonic() + 2 * typical > self.runner.deadline:
                break
        while len(self.setups) < SETUPS:
            self.setup_once()
        self.svm_peak_mb = 0.0
        if self.args.trace and "svm" in dict(self.wl.models):
            job = self.library_job(len(self.jobs), traced=False, peak_memory=True)
            self.svm_peak_mb = job.get("svm_peak_mb", 0.0)
        self.check_outputs()

    def library_job(self, k: int, traced: bool, peak_memory: bool = False) -> dict:
        out = self.work / f"job{k}"
        extra = ["--setup", self.setup_dir, "--run", f"job{k}"] + (["--trace"] if traced else []) + (["--peak-memory"] if peak_memory else [])
        c, doc = self.child("job", out, extra)
        if doc is None:
            self.fail(f"job{k}:child", f"exit {c.code}:\n{tail(out / 'job.log.err')}")
            return {"k": k, "traced": traced, "wall": c.wall, "ok": False}
        self.add_ops(f"job{k}", doc["ops"])
        doc.update(k=k, traced=traced, wall=c.wall, ok=True, peak_rss_mb=c.peak_mb)
        if traced:
            doc["spans"] = read_json(out / "spans.json")
        self.check_job(doc)
        return doc

    def cli_commands(self) -> list:
        """(stage, operation, arguments) of one round trip, in order; paths are relative to the run's directory."""
        configs = self.work / "configs"
        algos = [algo for algo, _ in self.wl.models]
        cmds = [("prepare", f"prepare:{t}", ["prepare", "--config", configs / f"{t}_{algos[0]}.json"]) for t in TASKS]
        cmds += [("train", f"train:{a}:{t}", ["train", "--config", configs / f"{t}_{a}.json"]) for t in self.wl.tasks for a in algos]
        for where in ("prepared", "raw"):
            for t in self.wl.tasks:
                data = Path(f"out_{t}") / "test.csv" if where == "prepared" else self.raw
                for a in algos:
                    argv = ["evaluate", "--artifact", Path(f"out_{t}") / f"model_{a}_{t}.json", "--data", data, "--out", f"eval_{where}"]
                    cmds.append(("evaluate", f"evaluate:{where}:{a}:{t}", argv))
        reports = [f"eval_raw/evaluation_{a}_{t}.json" for t in self.wl.tasks for a in algos]
        cmds.append(("report", "report", ["report", *reports, "--out", "tables"]))
        return cmds

    def cli_job(self, k: int, traced: bool) -> dict:
        out = self.work / f"job{k}"
        out.mkdir()
        doc = {"k": k, "traced": traced, "ok": True, "spans": [], "accuracy": {}, "hashes": {}, "peak_rss_mb": 0.0}
        stage_s = {"prepare": 0.0, "train": 0.0, "evaluate": 0.0, "report": 0.0}
        stdout = {}
        start = time.perf_counter()
        for i, (stage, op, argv) in enumerate(self.cli_commands()):
            spans_file = out / f"spans{i}.json"
            launch = [HERE / "launch.py"] + (["--spans", spans_file, "--run", f"job{k}"] if traced else []) + argv
            c = self.runner.run(launch, out, out / f"cmd{i}.out")
            stage_s[stage] += c.wall
            doc["peak_rss_mb"] = max(doc["peak_rss_mb"], c.peak_mb)
            self.ops.setdefault(f"job{k}:{op}", None)
            if c.code != 0:
                self.fail(f"job{k}:{op}", f"exit {c.code}: {tail(out / f'cmd{i}.out.err')}")
            stdout[op] = (out / f"cmd{i}.out").read_text(errors="replace")
            if traced:
                doc["spans"].append({"name": "cli.command", "run": f"job{k}", "parent": None, "start": c.start, "end": c.end, "op": op})
                if spans_file.is_file():
                    self.merge_spans(doc["spans"], read_json(spans_file))
        doc["wall"] = doc["job_s"] = time.perf_counter() - start
        doc.update({f"{stage}_s": seconds for stage, seconds in stage_s.items()})
        self.check_cli_outputs(k, out, stdout, doc)
        self.check_job(doc)
        return doc

    @staticmethod
    def merge_spans(into: list, spans: list) -> None:
        """Append a command's spans under the parent's span for that command."""
        parent, offset = len(into) - 1, len(into)
        for s in spans:
            s["parent"] = parent if s["parent"] is None else s["parent"] + offset
            into.append(s)

    # -- output checks ---------------------------------------------------------

    def check_cli_outputs(self, k: int, out: Path, stdout: dict, doc: dict) -> None:
        algos = [algo for algo, _ in self.wl.models]
        for t in TASKS:
            found = re.search(r"\((\d+) unlabeled rows dropped\)", stdout[f"prepare:{t}"])
            if found is None or int(found.group(1)) != self.planted["unlabeled"][t]:
                self.fail(f"job{k}:prepare:{t}", f"expected {self.planted['unlabeled'][t]} dropped rows in: {stdout[f'prepare:{t}']!r}")
            for name in ("train.csv", "test.csv", "pipeline.json", "feature_ranking.csv"):
                path = out / f"out_{t}" / name
                if not path.is_file():
                    self.fail(f"job{k}:prepare:{t}", f"{path.name} missing")
                elif name != "feature_ranking.csv":
                    doc["hashes"][f"prepare:{t}|{name}"] = _sha256(path)
        for t in self.wl.tasks:
            for a in algos:
                artifact = out / f"out_{t}" / f"model_{a}_{t}.json"
                if not artifact.is_file():
                    self.fail(f"job{k}:train:{a}:{t}", "artifact missing")
                    continue
                doc["hashes"][f"train:{a}:{t}|{artifact.name}"] = _sha256(artifact)
                for where in ("prepared", "raw"):
                    op = f"evaluate:{where}:{a}:{t}"
                    report = out / f"eval_{where}" / f"evaluation_{a}_{t}.json"
                    if not report.is_file() or not (out / f"eval_{where}" / f"report_{a}_{t}" / "report.md").is_file():
                        self.fail(f"job{k}:{op}", "evaluation JSON or tables missing")
                        continue
                    doc["accuracy"][f"{where}:{a}:{t}"] = read_json(report)["accuracy"]
                    if where == "raw":
                        scored = re.search(r"on (\d+) rows", stdout[op])
                        expect = self.planted["rows"] - self.planted["unlabeled"][t]
                        if scored is None or int(scored.group(1)) != expect:
                            self.fail(f"job{k}:{op}", f"expected {expect} scored rows in: {stdout[op]!r}")
        tables = ["overall_accuracy.csv", "report.md"] + [f"metrics_{t}.csv" for t in self.wl.tasks]
        missing = [name for name in tables if not (out / "tables" / name).is_file()]
        if missing:
            self.fail(f"job{k}:report", f"report tables missing: {missing}")

    def check_job(self, doc: dict) -> None:
        """Accuracy floors, and byte-identical outputs across runs with one seed."""
        k = doc["k"]
        floors = {} if self.args.tiny else self.wl.floors
        for pair, acc in doc["accuracy"].items():
            algo, task = pair.split(":")[-2:]
            floor = floors.get(f"{algo}:{task}")
            if floor is not None and acc < floor:
                op = f"evaluate:{pair}"
                self.fail(f"job{k}:{op}", f"accuracy {acc:.4f} below the floor {floor}")
        first = next((j for j in self.jobs if j.get("ok")), None)
        if first is not None:
            self.compare_hashes(f"job{k}", doc["hashes"], first["hashes"], f"run {first['k']}")

    def compare_hashes(self, prefix: str, hashes: dict, reference: dict, what: str) -> None:
        """Fail the operation behind each output whose bytes differ from the reference's.

        Keys are ``<operation>|<file>``.
        """
        for key, digest in hashes.items():
            if reference.get(key, digest) != digest:
                op, name = key.split("|")
                self.fail(f"{prefix}:{op}", f"{name} differs from {what} with the same seed")

    def check_outputs(self) -> None:
        last = next((j for j in reversed(self.jobs) if j.get("ok")), None)
        if last is None:
            return
        job_dir = self.work / f"job{last['k']}"
        c, doc = self.child("check", job_dir, ["--setup", self.setup_dir])
        if doc is None:
            self.fail("check", f"exit {c.code}: {tail(job_dir / 'check.log.err')}")
            return
        self.ops.setdefault("check", None)
        for op, message in doc["failures"]:
            prefix = "setup0" if op.startswith("prepare") and not self.wl.cli else f"job{last['k']}"
            self.fail(f"{prefix}:{op}", message)

    # -- metrics ----------------------------------------------------------------

    def end_to_end(self) -> dict:
        jobs = [j for j in self.jobs if j.get("ok") and not j["traced"]]
        samples = {
            "setup_s": [c.wall for c, _ in self.setups],
            "job_s": [j["job_s"] for j in jobs],
            "train_s": [j["train_s"] for j in jobs],
            "evaluate_s": [j["evaluate_s"] for j in jobs],
            "prepare_s": [j["prepare_s"] for j in jobs] if self.wl.cli else [d["prepare_s"] for _, d in self.setups],
            "peak_rss_mb": [j["peak_rss_mb"] for j in jobs],
            "accuracy_mean": [_test_accuracy_mean(j["accuracy"]) for j in jobs],
        }
        return samples

    def env_record(self) -> dict:
        return {
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": self.setups[0][1]["numpy"],
            "nproc": len(os.sched_getaffinity(0)),
        }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _test_accuracy_mean(accuracy: dict) -> float:
    """Mean accuracy on the prepared test splits (raw-CSV scores include train rows)."""
    values = [v for pair, v in accuracy.items() if not pair.startswith("raw:")]
    return sum(values) / len(values) if values else 0.0


def describe(samples: list) -> str:
    """Median, the highest percentile with ten samples beyond it, and the count."""
    n = len(samples)
    if n == 0:
        return "no samples"
    text = f"median {statistics.median(samples):.6g} (n={n}"
    if n >= 11:
        ordered = sorted(samples)
        text += f"; p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.6g}"
    else:
        text += "; too few samples for a percentile with 10 beyond it"
    return text + ")"


def report(bench: Bench, args) -> dict:
    attempted = len(bench.ops)
    failed = sum(1 for message in bench.ops.values() if message is not None)
    env = bench.env_record()
    head = f"{bench.wl.name} seed={args.seed} trace={args.trace}{' tiny' if args.tiny else ''}"
    print(f"{head}: {len(bench.jobs)} timed runs after {SETUPS} set-ups")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print("waiting time: 0 by construction (closed loop, one process at a time, no queues or locks)")
    for op, message in sorted(bench.ops.items()):
        if message is not None:
            print(f"FAILED {op}: {message}")
    samples = bench.end_to_end()
    first = next((j for j in bench.jobs if j.get("ok")), {})
    result = {"env": env, "ops": bench.ops, "samples": samples, "accuracy": first.get("accuracy", {})}
    if not args.trace:
        print("end-to-end metrics:")
        for name, unit in END_TO_END.items():
            print(f"  {name:14s} {unit:8s} {describe(samples[name])}")
        print(f"  {'failed_frac':14s} {'fraction':8s} {failed / attempted:.6g} ({failed} of {attempted} operations)")
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in END_TO_END.items() if samples[name]}
    else:
        metrics = traced_report(bench, samples, result)
    result["metrics"] = metrics
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{bench.wl.name}_seed{args.seed}_trace{args.trace}{'_tiny' if args.tiny else ''}"
    (results / f"{name}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return {"correct": failed == 0 and len(metrics) > 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_report(bench: Bench, samples: dict, result: dict) -> dict:
    traced = [j for j in bench.jobs if j.get("ok") and j["traced"]]
    if not traced:
        return {}
    per_job = [layer_metrics(j["spans"], bench.svm_peak_mb) for j in traced]
    bases = per_job[-1][1]
    values = {m: statistics.median(v[0][m] for v in per_job) for m in LAYER_METRICS}
    print(f"per-layer metrics (median of {len(traced)} traced runs; times are self time):")
    for name, unit in LAYER_METRICS.items():
        note = f"  (base {bases[name]} {RATIOS[name][2]})" if name in RATIOS else ""
        print(f"  {name:30s} {values[name]:12.6g} {unit}{note}")
    spans = []
    for j in traced:
        offset = len(spans)
        spans.extend(dict(s, parent=None if s["parent"] is None else s["parent"] + offset) for s in j["spans"])
    for stage in ("prepare", "train", "evaluate"):
        shares, base = stage_shares(spans, stage)
        if shares:
            parts = ", ".join(f"{layer} {share:.3f}" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]))
            print(f"  layer shares of pipeline.run_{stage} time (base {base / len(traced):.4g} s per run): {parts}")
    untraced = samples["job_s"]
    traced_job = statistics.median(j["job_s"] for j in traced)
    if untraced:
        plain = statistics.median(untraced)
        print(f"tracing overhead: traced job_s {traced_job:.4f} s - untraced job_s {plain:.4f} s = {traced_job - plain:+.4f} s ({(traced_job - plain) / plain:+.1%})")
    spans_path = ROOT / ".perfbench" / "results" / f"spans_{bench.wl.name}_seed{bench.args.seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(spans), encoding="utf-8")
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    result["layer_bases"] = bases
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test size: small inputs, no accuracy floors")
    args = parser.parse_args()
    if not (ROOT / "src" / "genoclass" / "__init__.py").is_file():
        print(f"error: no genoclass sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        bench = Bench(args, work)
        bench.setup()
        bench.run_jobs()
        result = report(bench, args)
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
