"""The benchmark's workloads: data size and the models each run trains.

Sizes fit the benchmark's time budget on a 2-CPU machine: one timed run of
each workload takes a few seconds, so a measurement window holds several.
This module imports only the standard library; the parent benchmark
process reads it without loading numpy or genoclass.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = ROOT / "src" / "genoclass" / "schemas" / "genetic_disorder.json"
TASKS = ("genetic_disorder", "disorder_subclass")
TINY_ROWS = 600  # raw CSV rows of every workload in the smoke-test size


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Args:
        name: Workload name, as given to ``--workload``.
        rows: Raw CSV rows generated per seed.
        tasks: Targets trained and evaluated on; every workload prepares
            both.
        models: ``(algorithm, params)`` pairs trained on every task per run.
        cli: Whether a run goes through ``genoclass`` commands (one process
            each) rather than the ``genoclass.pipeline`` functions.
        floors: Lowest acceptable test accuracy per ``(algorithm, task)``;
            a pair without a floor has no accuracy check.
    """

    name: str
    rows: int
    tasks: tuple
    models: tuple
    cli: bool
    floors: dict


# Floors are the lowest test accuracy seen over seeds 1-12 at these sizes,
# less 0.1, rounded down to a multiple of 0.05; over 25 further seeds every
# pair of ``train_trees`` and ``train_kernel`` stayed at least 0.08 above it. The SVM has no floor: its SMO
# solver stops while most training rows still violate the KKT conditions,
# so its test accuracy ranges from 0.19 to 0.70 over seeds, at times below
# the majority-class rate. The SVM is checked against its dual constraints
# instead (``child.check``), and ``linear.svm_kkt_violation_ratio`` measures
# how far its solutions are from optimal.
WORKLOADS = {
    "train_trees": Workload(
        name="train_trees",
        rows=3000,
        tasks=TASKS,
        models=(
            ("random_forest", {"trees": 4, "max_depth": 10}),
            ("gbdt_plain", {"rounds": 3}),
            ("gbdt_goss", {"rounds": 3}),
            ("gbdt_oblivious", {"rounds": 3}),
        ),
        cli=False,
        floors={
            "random_forest:genetic_disorder": 0.55,
            "gbdt_plain:genetic_disorder": 0.55,
            "gbdt_goss:genetic_disorder": 0.5,
            "gbdt_oblivious:genetic_disorder": 0.55,
            "random_forest:disorder_subclass": 0.45,
            "gbdt_plain:disorder_subclass": 0.45,
            "gbdt_goss:disorder_subclass": 0.4,
            "gbdt_oblivious:disorder_subclass": 0.45,
        },
    ),
    "train_kernel": Workload(
        name="train_kernel",
        rows=5000,
        tasks=TASKS,
        models=(("svm", {}), ("logistic", {})),
        cli=False,
        floors={
            "logistic:genetic_disorder": 0.6,
            "logistic:disorder_subclass": 0.55,
        },
    ),
    "cli_roundtrip": Workload(
        name="cli_roundtrip",
        rows=3000,
        # Trained and evaluated on one task: a run's nine commands take
        # 4-6 s, so a measurement window holds six or more runs, where both
        # tasks' fifteen allowed three. Both tasks are prepared, so that
        # prepare_s sums two commands, as it sums two calls elsewhere.
        tasks=("genetic_disorder",),
        models=(("logistic", {}), ("random_forest", {"trees": 3, "max_depth": 6})),
        cli=True,
        floors={
            "logistic:genetic_disorder": 0.6,
            "random_forest:genetic_disorder": 0.55,
        },
    ),
}


def run_config_doc(raw_csv: Path, task: str, out_dir: str, algo: str, params: dict, seed: int) -> dict:
    """The ``genoclass`` run config of one (task, algorithm) pair."""
    return {
        "input": str(raw_csv),
        "schema": str(SCHEMA),
        "target": task,
        "output_dir": out_dir,
        "split": {"ratio": 0.8, "seed": seed},
        "model": {"algorithm": algo, "seed": seed, "params": dict(params)},
    }
