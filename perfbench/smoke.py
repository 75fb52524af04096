"""Smoke test of the benchmark: every workload once at a tiny size.

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py

It checks that each workload prints every end-to-end metric by name and
unit with no failed operation, that a traced run reports every per-layer
metric, and that ``BENCHMARK.json`` lists the metrics the code reports.
It takes about a minute on 2 CPUs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PRINTED = {**END_TO_END, "failed_frac": "fraction"}


def bench(workload: str, trace: int) -> tuple[str, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == LAYER_METRICS


def test_every_workload_prints_every_metric():
    for workload in WORKLOADS:
        out, result = bench(workload, trace=0)
        for name, unit in PRINTED.items():
            assert any(line.split()[:2] == [name, unit] for line in out.splitlines()), (workload, name)
        assert result["failed"] == 0 and result["correct"], (workload, out)
        assert "failed_frac    fraction 0 (0 of" in out
        assert set(result["metrics"]) == set(END_TO_END)


def test_traced_run_reports_every_layer_metric():
    out, result = bench("cli_roundtrip", trace=1)
    assert result["failed"] == 0 and result["correct"], out
    assert set(result["metrics"]) == set(LAYER_METRICS)
    assert result["metrics"]["cli.startup_s"]["value"] > 0
    assert result["metrics"]["dataset.unknown_tokens"]["value"] > 0


if __name__ == "__main__":
    for test in (test_benchmark_json_matches_code, test_every_workload_prints_every_metric, test_traced_run_reports_every_layer_metric):
        test()
        print(f"{test.__name__}: ok")
