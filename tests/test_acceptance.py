"""Acceptance checks: one test per shipping criterion, each printing PASS or FAIL.

Every criterion validates the library against an independent oracle or a
worked-out fixture, under an explicit wall-clock budget where one applies.
Criterion 11 runs only when GENOCLASS_DATASET points at the real screening
CSV; without it the criterion is reported as skipped.
"""

import json
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import synthdata
from conftest import xy_dataset
from genoclass.artifact import ModelArtifact, revive_model
from genoclass.config import RunConfig
from genoclass.dataset import schema_to_json, write_csv
from genoclass.ensemble.boosting import GbdtConfig, fit_gbdt, goss_gain, goss_sample, loss_gradients, loss_value
from genoclass.ensemble.cart import Tree, tree_from_splits
from genoclass.ensemble.forest import ForestConfig, ForestModel, forest_diagnostics
from genoclass.features import ContingencyTable, chi2_statistic
from genoclass.linear import KernelSpec, SvmConfig, fit_svm, logistic_loss_gradient, svm_decision
from genoclass.metrics import ClassMetrics, ConfusionMatrix, class_metrics, roc_curve
from genoclass.pipeline import ALGORITHMS, FeaturePipeline, run_evaluate, run_prepare, run_train


@contextmanager
def criterion(number: int, label: str):
    """Print exactly one pass/fail line for the wrapped criterion body."""
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{label}]: FAIL", flush=True)
        raise
    print(f"criterion {number} [{label}]: PASS", flush=True)


def test_criterion_01_confusion_metrics():
    with criterion(1, "confusion metrics"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            counts = rng.integers(0, 51, size=(k, k))
            counts[0, 0] += 1
            cm = ConfusionMatrix(counts, tuple(f"c{i}" for i in range(k)))
            got = class_metrics(cm)

            tp_sum = fp_sum = fn_sum = 0
            for c in range(k):
                tp = fp = fn = 0
                for i in range(k):
                    for j in range(k):
                        v = int(counts[i, j])
                        if i == c and j == c:
                            tp += v
                        elif j == c:
                            fp += v
                        elif i == c:
                            fn += v
                precision = tp / (tp + fp) if tp + fp else 0.0
                recall = tp / (tp + fn) if tp + fn else 0.0
                f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
                assert got.precision[c] == precision
                assert got.recall[c] == recall
                assert got.f1[c] == f1
                assert got.support[c] == tp + fn
                tp_sum += tp
                fp_sum += fp
                fn_sum += fn
            assert got.accuracy == tp_sum / counts.sum()
            # micro-averaged precision and recall collapse to accuracy
            assert tp_sum / (tp_sum + fp_sum) == got.accuracy
            assert tp_sum / (tp_sum + fn_sum) == got.accuracy
        assert time.perf_counter() - start < 1.0


def chi2_double_loop(counts: np.ndarray) -> float:
    counts = np.asarray(counts, dtype=np.float64)
    counts = counts[counts.sum(axis=1) > 0][:, counts.sum(axis=0) > 0]
    total = counts.sum()
    stat = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            expected = counts[i].sum() * counts[:, j].sum() / total
            stat += (counts[i, j] - expected) ** 2 / expected
    return stat


def as_table(counts: np.ndarray) -> ContingencyTable:
    return ContingencyTable(
        counts,
        tuple(f"v{i}" for i in range(counts.shape[0])),
        tuple(f"c{j}" for j in range(counts.shape[1])),
    )


def test_criterion_02_chi_squared():
    with criterion(2, "chi-squared statistic"):
        start = time.perf_counter()
        rng = np.random.default_rng(102)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            k = int(rng.integers(2, 7))
            counts = rng.integers(0, 51, size=(m, k))
            counts[0, 0] += 1
            got = chi2_statistic(as_table(counts))
            assert got == pytest.approx(chi2_double_loop(counts), abs=1e-10)

            # invariant under any row or column permutation
            shuffled = counts[rng.permutation(m)][:, rng.permutation(k)]
            assert chi2_statistic(as_table(shuffled)) == pytest.approx(got, abs=1e-10)

            # scaling every count by c scales the statistic by c
            assert chi2_statistic(as_table(counts * 3)) == pytest.approx(3.0 * got, abs=1e-8)
        assert time.perf_counter() - start < 1.0


def test_criterion_03_roc_auc():
    with criterion(3, "roc auc concordance"):
        start = time.perf_counter()
        rng = np.random.default_rng(103)
        for trial in range(100):
            n = int(rng.integers(10, 201))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            scores = rng.normal(size=n)
            if trial % 3 == 0:
                scores = np.round(scores, 1)

            pos = scores[y == 1]
            neg = scores[y == 0]
            wins = 0.0
            for p in pos:
                for q in neg:
                    if p > q:
                        wins += 1.0
                    elif p == q:
                        wins += 0.5
            expected = wins / (pos.size * neg.size)
            assert roc_curve(y, scores).auc == pytest.approx(expected, abs=1e-12)
        assert time.perf_counter() - start < 1.0


def test_criterion_04_gradient_checks():
    with criterion(4, "finite-difference gradients"):
        start = time.perf_counter()
        eps = 1e-5
        rng = np.random.default_rng(104)

        X = rng.normal(size=(40, 5))
        y = rng.integers(0, 2, size=40).astype(np.float64)
        w = rng.normal(size=5)
        alpha = 0.3
        _, grad_w, grad_a = logistic_loss_gradient(w, alpha, X, y, l2=0.3)
        worst = 0.0
        for j in range(5):
            shift = np.zeros(5)
            shift[j] = eps
            up, _, _ = logistic_loss_gradient(w + shift, alpha, X, y, l2=0.3)
            down, _, _ = logistic_loss_gradient(w - shift, alpha, X, y, l2=0.3)
            fd = (up - down) / (2.0 * eps)
            worst = max(worst, abs(fd - grad_w[j]) / abs(grad_w[j]))
        up, _, _ = logistic_loss_gradient(w, alpha + eps, X, y, l2=0.3)
        down, _, _ = logistic_loss_gradient(w, alpha - eps, X, y, l2=0.3)
        fd = (up - down) / (2.0 * eps)
        worst = max(worst, abs(fd - grad_a) / abs(grad_a))
        assert worst < 1e-5

        n, k = 12, 4
        yc = rng.integers(0, k, size=n)
        F = rng.normal(size=(n, k))
        residuals, _ = loss_gradients("multiclass_logloss", yc, F)
        worst = 0.0
        for i in range(n):
            for c in range(k):
                up_f, down_f = F.copy(), F.copy()
                up_f[i, c] += eps
                down_f[i, c] -= eps
                fd = (
                    loss_value("multiclass_logloss", yc, up_f)
                    - loss_value("multiclass_logloss", yc, down_f)
                ) / (2.0 * eps)
                # pseudo-residual = -n * d(mean loss)/dscore
                worst = max(worst, abs(-n * fd - residuals[i, c]) / abs(residuals[i, c]))
        assert worst < 1e-5
        assert time.perf_counter() - start < 1.0


def test_criterion_05_svm_margins():
    with criterion(5, "svm margins and duals"):
        start = time.perf_counter()

        two_points = xy_dataset(np.array([-1.0, 1.0]), [0, 1])
        model = fit_svm(two_points, "y", SvmConfig(C=10.0, kernel=KernelSpec("linear")))
        scores = svm_decision(model, np.array([[-1.0], [0.0], [1.0]]))[:, 1]
        assert scores[0] == pytest.approx(-1.0, abs=1e-3)
        assert scores[1] == pytest.approx(0.0, abs=1e-3)
        assert scores[2] == pytest.approx(1.0, abs=1e-3)

        xor = xy_dataset(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]), [0, 0, 1, 1])
        config = SvmConfig(C=10.0, kernel=KernelSpec("rbf", gamma=1.0))
        model = fit_svm(xor, "y", config)
        X = xor.matrix(["x0", "x1"])
        assert (model.predict(X) == xor.values("y")).mean() == 1.0
        for sub in model.submodels:
            # coef stores beta * y, so the box constraint bounds |coef|
            assert (np.abs(sub.coef) >= 0.0).all()
            assert (np.abs(sub.coef) <= config.C + 1e-12).all()
            assert abs(sub.coef.sum()) < 1e-6
        assert time.perf_counter() - start < 5.0


def test_criterion_06_goss_sampling():
    with criterion(6, "goss sampling and gain"):
        start = time.perf_counter()
        rng = np.random.default_rng(106)
        for _ in range(20):
            n = int(rng.integers(4, 60))
            v = rng.normal(size=n)
            g = rng.normal(size=n)
            d = float(rng.choice(v))
            sample = goss_sample(g, a=1.0, b=0.3, seed=int(rng.integers(2**32)))
            left = v <= d
            exact = 0.0
            for side in (left, ~left):
                if side.sum():
                    exact += g[side].sum() ** 2 / side.sum()
            exact /= n
            assert goss_gain(v, g, d, sample) == pytest.approx(exact, abs=1e-12)

        sample = goss_sample(np.arange(10.0, 0.0, -1.0), a=0.2, b=0.1, seed=0)
        assert sample.top_idx.size == 2
        assert sample.rand_idx.size == 1
        assert sample.weight == pytest.approx(8.0)
        assert time.perf_counter() - start < 1.0


def test_criterion_07_boosting_monotone():
    with criterion(7, "boosting loss monotone"):
        start = time.perf_counter()
        rng = np.random.default_rng(107)
        n = 500
        X = rng.normal(size=(n, 4))
        y = 1.5 * X[:, 0] - np.cos(2.0 * X[:, 1]) + 0.5 * X[:, 2] * X[:, 3]
        y += 0.1 * rng.normal(size=n)
        from test_boosting import reg_dataset

        ds = reg_dataset(X, y)
        for variant in ("plain", "goss", "oblivious"):
            cfg = GbdtConfig(loss="squared", rounds=50, learning_rate=0.1, variant=variant)
            model = fit_gbdt(ds, "y", cfg)
            history = np.array(model.loss_history)
            assert history.size == 51
            assert np.all(np.diff(history) <= 1e-12), variant
        assert time.perf_counter() - start < 10.0


def chain_tree(thresholds, votes) -> Tree:
    # split i is node 2i, its left child 2i + 1 leaf votes[i]; the last node is leaf votes[-1]
    return tree_from_splits([(2 * i, 0, t, 2 * i + 1) for i, t in enumerate(thresholds)], np.eye(2)[votes])


def test_criterion_08_forest_margins():
    with criterion(8, "forest margin diagnostics"):
        trees = [
            chain_tree([0.5, 1.5, 2.5, 3.5], [0, 1, 0, 1, 0]),
            chain_tree([0.5, 3.5], [0, 1, 0]),
            chain_tree([1.5], [1, 0]),
        ]
        model = ForestModel(
            feature_names=("x0",),
            class_labels=("c0", "c1"),
            trees=trees,
            tree_seeds=(0, 1, 2),
            config=ForestConfig(trees=3),
        )
        ds = xy_dataset(np.arange(5.0).reshape(-1, 1), np.array([0, 1, 0, 1, 0]), n_classes=2)
        diag = forest_diagnostics(model, ds, "y")
        np.testing.assert_allclose(diag.margins, [1 / 3, 1.0, 1 / 3, 1 / 3, 1.0], atol=1e-15)
        assert diag.strength == pytest.approx(0.6, abs=1e-15)
        assert diag.rho_bar == pytest.approx(-1.0 / (3.0 * np.sqrt(6.0)), abs=1e-12)
        assert diag.bound == pytest.approx(diag.rho_bar * (1 - 0.36) / 0.36, abs=1e-12)

        perfect = trees[0]
        unanimous = ForestModel(
            feature_names=("x0",),
            class_labels=("c0", "c1"),
            trees=[perfect, perfect],
            tree_seeds=(0, 1),
            config=ForestConfig(trees=2),
        )
        diag = forest_diagnostics(unanimous, ds, "y")
        assert diag.strength == 1.0
        assert diag.bound == 0.0


def planted_corpus(root: Path) -> dict:
    ds = synthdata.planted_dataset(2000, 7)
    raw = root / "raw.csv"
    schema = root / "schema.json"
    write_csv(ds, raw)
    schema.write_text(json.dumps(schema_to_json(ds.columns)), encoding="utf-8")
    return {"raw": str(raw), "schema": str(schema)}


def test_criterion_09_planted_recovery(tmp_path):
    with criterion(9, "planted signal recovery"):
        start = time.perf_counter()
        corpus = planted_corpus(tmp_path)
        for target in ("genetic_disorder", "disorder_subclass"):
            out = tmp_path / target
            base = dict(
                input=corpus["raw"],
                schema=corpus["schema"],
                target=target,
                output_dir=str(out),
                engineer=False,
                top_k=10,
            )
            prepare_cfg = RunConfig(**base, algorithm="gbdt_plain", model_params={"rounds": 30})
            run_prepare(prepare_cfg)

            # every planted-signal column must outrank every pure-noise column
            pipeline = FeaturePipeline.load(out / "pipeline.json")
            scores = dict(pipeline.ranking)
            informative_floor = min(scores[name] for name in synthdata.INFORMATIVE)
            noise_ceiling = max(scores[name] for name in synthdata.NOISE)
            assert informative_floor > noise_ceiling
            assert set(pipeline.selected) == set(synthdata.INFORMATIVE)

            svm_cfg = RunConfig(
                **base,
                algorithm="svm",
                model_params={"C": 10.0, "kernel": {"kind": "rbf", "gamma": 1.0}},
            )
            for cfg in (prepare_cfg, svm_cfg):
                trained = run_train(cfg)
                evaluated = run_evaluate(
                    trained.artifact_path, out / "test.csv", out / f"eval_{cfg.algorithm}"
                )
                assert evaluated.accuracy >= 0.90, (target, cfg.algorithm, evaluated.accuracy)
        assert time.perf_counter() - start < 60.0


SMALL_PARAMS = {
    "logistic": {"epochs": 40},
    "svm": {"max_passes": 10, "tol": 0.01},
    "random_forest": {"trees": 8, "max_depth": 4},
    "gbdt_plain": {"rounds": 4, "max_depth": 2},
    "gbdt_goss": {"rounds": 4, "max_depth": 2, "a": 0.3, "b": 0.2},
    "gbdt_oblivious": {"rounds": 4, "max_depth": 2},
}


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "determinism and round trips"):
        corpus = planted_corpus(tmp_path)
        out = tmp_path / "run"
        cfg = RunConfig(
            input=corpus["raw"],
            schema=corpus["schema"],
            target="genetic_disorder",
            output_dir=str(out),
            engineer=False,
            top_k=10,
            algorithm="gbdt_plain",
            model_params={"rounds": 5},
        )

        def full_cycle() -> bytes:
            run_prepare(cfg)
            trained = run_train(cfg)
            evaluated = run_evaluate(trained.artifact_path, out / "test.csv", out / "eval")
            return evaluated.report_path.read_bytes()

        assert full_cycle() == full_cycle()

        rng = np.random.default_rng(110)
        n = 120
        y = rng.integers(0, 3, size=n)
        X = rng.normal(size=(n, 4))
        X[:, 0] += 2.0 * y
        ds = xy_dataset(X, y, n_classes=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name, alg in ALGORITHMS.items():
                model = alg.fit(ds, "y", alg.build_config(SMALL_PARAMS[name], 3))
                artifact = ModelArtifact(
                    algorithm=name,
                    task="genetic_disorder",
                    class_labels=tuple(model.class_labels),
                    model_doc=model.to_json(),
                    pipeline_doc={},
                    config_hash="0" * 64,
                    seed=3,
                )
                path = tmp_path / f"{name}.json"
                artifact.save(path)
                revived = revive_model(ModelArtifact.load(path))
                np.testing.assert_array_equal(model.predict(X), revived.predict(X), err_msg=name)
                np.testing.assert_array_equal(
                    model.predict_proba(X), revived.predict_proba(X), err_msg=name
                )


REFERENCE_ACCURACY = {
    ("svm", "genetic_disorder"): 0.76,
    ("svm", "disorder_subclass"): 0.80,
    ("gbdt_oblivious", "genetic_disorder"): 0.77,
    ("gbdt_oblivious", "disorder_subclass"): 0.79,
    ("gbdt_plain", "genetic_disorder"): 0.72,
    ("gbdt_plain", "disorder_subclass"): 0.71,
    ("gbdt_goss", "genetic_disorder"): 0.75,
    ("gbdt_goss", "disorder_subclass"): 0.75,
    ("random_forest", "genetic_disorder"): 0.74,
    ("random_forest", "disorder_subclass"): 0.73,
}


@pytest.mark.skipif(
    not os.environ.get("GENOCLASS_DATASET"),
    reason="set GENOCLASS_DATASET to the screening CSV to run the reference comparison",
)
def test_criterion_11_reference_dataset(tmp_path):
    with criterion(11, "reference dataset accuracy"):
        start = time.perf_counter()
        from importlib import resources

        schema_path = resources.files("genoclass") / "schemas" / "genetic_disorder.json"
        results = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for target in ("genetic_disorder", "disorder_subclass"):
                out = tmp_path / target
                base_cfg = RunConfig(
                    input=os.environ["GENOCLASS_DATASET"],
                    schema=str(schema_path),
                    target=target,
                    output_dir=str(out),
                )
                run_prepare(base_cfg)
                for algorithm in ("svm", "random_forest", "gbdt_plain", "gbdt_goss", "gbdt_oblivious"):
                    cfg = replace(base_cfg, algorithm=algorithm, model_params={})
                    trained = run_train(cfg)
                    evaluated = run_evaluate(
                        trained.artifact_path, out / "test.csv", out / f"eval_{algorithm}"
                    )
                    results[(algorithm, target)] = evaluated.accuracy
                    assert (evaluated.tables_dir / "report.md").is_file()
                    assert (evaluated.tables_dir / "overall_accuracy.csv").is_file()
        for key, expected in REFERENCE_ACCURACY.items():
            got = results[key]
            assert abs(got - expected) <= 0.10, (key, got, expected)
        assert time.perf_counter() - start < 900.0
