"""Tests for confusion matrices, per-class metrics, ROC/AUC, and report rendering."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genoclass import (
    ArgumentError,
    ConfusionMatrix,
    DegenerateDataError,
    EvaluationError,
    EvaluationReport,
    build_report,
    class_metrics,
    confusion_matrix,
    multiclass_roc,
    render_report,
    roc_curve,
)


def brute_force_counts(counts, c):
    """TP/FP/FN/TN for one class by summing individual cells."""
    k = counts.shape[0]
    tp = fp = fn = tn = 0
    for i in range(k):
        for j in range(k):
            v = int(counts[i, j])
            if i == c and j == c:
                tp += v
            elif j == c:
                fp += v
            elif i == c:
                fn += v
            else:
                tn += v
    return tp, fp, fn, tn


class TestConfusionMatrix:
    def test_all_correct_is_diagonal(self):
        y = [0, 1, 2, 1, 0, 2, 2, 1, 0, 2]
        cm = confusion_matrix(y, y, 3)
        assert np.trace(cm.counts) == 10
        assert cm.counts.sum() - np.trace(cm.counts) == 0

    def test_small_binary_example(self):
        cm = confusion_matrix([0, 0, 1, 1], [0, 0, 0, 1], 2)
        np.testing.assert_array_equal(cm.counts, [[2, 0], [1, 1]])

    def test_empty_input_warns_and_zeroes(self):
        with pytest.warns(UserWarning, match="zero rows"):
            cm = confusion_matrix([], [], 3)
        assert cm.total == 0
        np.testing.assert_array_equal(cm.counts, np.zeros((3, 3)))

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            confusion_matrix([0, 1], [0], 2)

    def test_out_of_range_labels(self):
        with pytest.raises(ArgumentError):
            confusion_matrix([0, 2], [0, 1], 2)
        with pytest.raises(ArgumentError):
            confusion_matrix([0, -1], [0, 1], 2)

    def test_non_square_rejected(self):
        with pytest.raises(ArgumentError):
            ConfusionMatrix(np.zeros((2, 3), dtype=np.int64), ("a", "b"))


class TestClassMetrics:
    def test_frozen_binary_example(self):
        # positive class: TP=8, FN=2, FP=1, TN=9
        cm = ConfusionMatrix(np.array([[9, 1], [2, 8]]), ("neg", "pos"))
        m = class_metrics(cm)
        assert m.accuracy == pytest.approx(0.85)
        assert m.precision[1] == pytest.approx(8 / 9)
        assert m.recall[1] == pytest.approx(0.8)
        assert m.f1[1] == pytest.approx(0.8421, abs=1e-4)
        assert m.support == (10, 10)

    def test_perfect_prediction(self):
        cm = confusion_matrix([0, 1, 2], [0, 1, 2], 3)
        m = class_metrics(cm)
        assert m.accuracy == 1.0
        assert m.precision == (1.0, 1.0, 1.0)
        assert m.recall == (1.0, 1.0, 1.0)
        assert m.f1 == (1.0, 1.0, 1.0)
        assert m.flags == ()

    def test_zero_denominators_flagged_as_zero(self):
        # class 2 never occurs and is never predicted
        cm = confusion_matrix([0, 1], [1, 0], 3)
        m = class_metrics(cm)
        assert m.precision[2] == 0.0 and m.recall[2] == 0.0 and m.f1[2] == 0.0
        flagged = {(label, metric) for label, metric in m.flags}
        assert {("2", "precision"), ("2", "recall"), ("2", "f1")} <= flagged

    def test_empty_matrix_rejected(self):
        with pytest.warns(UserWarning):
            cm = confusion_matrix([], [], 2)
        with pytest.raises(DegenerateDataError):
            class_metrics(cm)

    def test_property_matches_cell_by_cell_counts(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            counts = rng.integers(0, 20, size=(k, k))
            counts[0, 0] += 1  # keep the total positive
            cm = ConfusionMatrix(counts, tuple(str(i) for i in range(k)))
            m = class_metrics(cm)
            for c in range(k):
                tp, fp, fn, tn = brute_force_counts(cm.counts, c)
                want_p = tp / (tp + fp) if tp + fp else 0.0
                want_r = tp / (tp + fn) if tp + fn else 0.0
                assert m.precision[c] == pytest.approx(want_p, abs=1e-12)
                assert m.recall[c] == pytest.approx(want_r, abs=1e-12)
                if want_p + want_r:
                    want_f = 2 * want_p * want_r / (want_p + want_r)
                    assert m.f1[c] == pytest.approx(want_f, abs=1e-12)
            assert m.accuracy == pytest.approx(np.trace(cm.counts) / cm.total)


def concordance_auc(y, s):
    """Mann-Whitney pairwise concordance with ties counted one half."""
    y = np.asarray(y)
    s = np.asarray(s, dtype=np.float64)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (pos.size * neg.size)


class TestRocCurve:
    def test_perfect_separation(self):
        curve = roc_curve([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert curve.auc == pytest.approx(1.0)

    def test_identical_scores_are_chance(self):
        curve = roc_curve([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5])
        assert curve.auc == pytest.approx(0.5)

    def test_frozen_small_example(self):
        curve = roc_curve([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1])
        assert curve.auc == pytest.approx(0.75)

    def test_endpoints_and_monotone_axes(self):
        rng = np.random.default_rng(43)
        y = rng.integers(0, 2, size=50)
        y[:2] = [0, 1]
        s = rng.normal(size=50)
        curve = roc_curve(y, s)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.tpr) >= 0).all()

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateDataError):
            roc_curve([1, 1, 1], [0.1, 0.2, 0.3])

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(ArgumentError):
            roc_curve([0, 2], [0.1, 0.2])

    def test_property_auc_equals_concordance(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            n = int(rng.integers(4, 80))
            y = rng.integers(0, 2, size=n)
            y[:2] = [0, 1]
            s = np.round(rng.normal(size=n), 1)  # rounding forces ties
            curve = roc_curve(y, s)
            assert curve.auc == pytest.approx(concordance_auc(y, s), abs=1e-12)

    def test_property_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(6, 60))
            y = rng.integers(0, 2, size=n)
            y[:2] = [0, 1]
            s = rng.normal(size=n)
            base = roc_curve(y, s).auc
            assert roc_curve(y, 3.0 * s + 7.0).auc == pytest.approx(base, abs=1e-12)
            assert roc_curve(y, np.exp(s)).auc == pytest.approx(base, abs=1e-12)


class TestMulticlassRoc:
    def test_separable_scores_per_class(self):
        y = [0, 0, 1, 1, 2, 2]
        probas = np.eye(3)[y] * 0.8 + 0.1
        curves = multiclass_roc(y, probas, ("a", "b", "c"))
        assert all(curves[l].auc == pytest.approx(1.0) for l in ("a", "b", "c"))

    def test_reversed_scores_mirror_auc(self):
        rng = np.random.default_rng(59)
        y = rng.integers(0, 3, size=40)
        y[:3] = [0, 1, 2]
        probas = rng.random((40, 3))
        forward = multiclass_roc(y, probas)
        backward = multiclass_roc(y, -probas)
        for label in ("0", "1", "2"):
            assert backward[label].auc == pytest.approx(1.0 - forward[label].auc, abs=1e-12)

    def test_two_class_probability_rows_give_equal_aucs(self):
        rng = np.random.default_rng(61)
        y = rng.integers(0, 2, size=40)
        y[:2] = [0, 1]
        p1 = rng.random(40)
        curves = multiclass_roc(y, np.column_stack([1 - p1, p1]))
        assert curves["0"].auc == pytest.approx(curves["1"].auc, abs=1e-12)

    def test_absent_class_is_undefined(self):
        y = [0, 0, 1, 1]
        probas = np.full((4, 3), 1 / 3)
        curves = multiclass_roc(y, probas, ("a", "b", "c"))
        assert curves["c"] is None
        assert curves["a"] is not None

    def test_row_count_mismatch(self):
        with pytest.raises(ArgumentError):
            multiclass_roc([0, 1], np.zeros((3, 2)))


def small_report(algorithm, task, seed=0, labels=("x", "y", "z")):
    rng = np.random.default_rng(seed)
    n, k = 60, len(labels)
    y = rng.integers(0, k, size=n)
    scores = rng.random((n, k)) + np.eye(k)[y] * rng.uniform(0.5, 2.0)
    pred = scores.argmax(axis=1)
    return build_report(algorithm, task, labels, y, pred, scores)


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(2, 4),
    rows=st.lists(st.tuples(st.integers(0, 3), st.lists(st.sampled_from([0.0, 0.1, 1 / 3, 0.5, 1.0]), min_size=4, max_size=4)), min_size=1, max_size=40),
)
def test_saved_curves_load_bit_for_bit_and_render_the_same_bytes(k, rows):
    """Scores from a few values tie often and repeat coordinates; a class can be absent, so its curve is null."""
    y = np.array([label % k for label, _ in rows])
    scores = np.array([row[:k] for _, row in rows])
    rep = build_report("svm", "t", ("a", "b", "c", "d")[:k], y, scores.argmax(axis=1), scores)
    with tempfile.TemporaryDirectory() as tmp:
        rep.save(Path(tmp) / "evaluation.json")
        back = EvaluationReport.load(Path(tmp) / "evaluation.json")
        assert back.roc.keys() == rep.roc.keys()
        for label, curve in rep.roc.items():
            if curve is None:
                assert back.roc[label] is None
            else:
                assert (back.roc[label].fpr.tobytes(), back.roc[label].tpr.tobytes()) == (curve.fpr.tobytes(), curve.tpr.tobytes())
                assert back.roc[label].auc == curve.auc
        written = render_report([rep], Path(tmp) / "original")
        again = render_report([back], Path(tmp) / "loaded")
        assert [p.name for p in again] == [p.name for p in written]
        assert all(a.read_bytes() == w.read_bytes() for a, w in zip(again, written))


class TestReports:
    def test_round_trip_preserves_everything(self, tmp_path):
        rep = small_report("svm", "genetic_disorder", seed=3)
        path = tmp_path / "evaluation.json"
        rep.save(path)
        back = EvaluationReport.load(path)
        assert back.algorithm == rep.algorithm and back.task == rep.task
        np.testing.assert_array_equal(back.confusion.counts, rep.confusion.counts)
        assert back.metrics == rep.metrics
        assert back.roc.keys() == rep.roc.keys()
        for label, curve in rep.roc.items():
            np.testing.assert_array_equal(back.roc[label].fpr, curve.fpr)
            np.testing.assert_array_equal(back.roc[label].tpr, curve.tpr)
            assert back.roc[label].auc == curve.auc

    def test_two_by_two_grid(self, tmp_path):
        reports = [
            small_report(alg, task, seed=s)
            for s, (alg, task) in enumerate(
                [
                    ("svm", "genetic_disorder"),
                    ("svm", "disorder_subclass"),
                    ("random_forest", "genetic_disorder"),
                    ("random_forest", "disorder_subclass"),
                ]
            )
        ]
        written = render_report(reports, tmp_path)
        names = [p.name for p in written]
        assert "overall_accuracy.csv" in names
        assert "metrics_genetic_disorder.csv" in names
        assert "metrics_disorder_subclass.csv" in names
        assert "report.md" in names
        roc_names = [
            f"roc_{alg}_{task}_{label}.csv"
            for alg, task in (("svm", "genetic_disorder"), ("svm", "disorder_subclass"), ("random_forest", "genetic_disorder"), ("random_forest", "disorder_subclass"))
            for label in "xyz"
        ]
        assert sorted(n for n in names if n.startswith("roc_")) == sorted(roc_names)
        md = (tmp_path / "report.md").read_text(encoding="utf-8")
        assert "| Algorithm | disorder_subclass | genetic_disorder |" in md

    def test_tasks_sharing_labels_write_their_own_roc_files(self, tmp_path):
        """Two tasks with the same class labels: each curve gets its own file, listed once."""
        reports = [small_report("svm", "genetic_disorder", seed=1), small_report("svm", "disorder_subclass", seed=2)]
        written = render_report(reports, tmp_path)
        roc_files = [p for p in written if p.name.startswith("roc_")]
        assert len(roc_files) == len(set(roc_files)) == 6
        for rep in reports:
            for label in rep.labels:
                path = tmp_path / f"roc_svm_{rep.task}_{label}.csv"
                assert path in roc_files
                rows = path.read_text(encoding="utf-8").splitlines()[1:]
                assert rows == [f"{x!r},{y!r}" for x, y in zip(rep.roc[label].fpr.tolist(), rep.roc[label].tpr.tolist())]
        assert reports[0].roc["x"].fpr.tolist() != reports[1].roc["x"].fpr.tolist()

    def test_single_report_renders(self, tmp_path):
        written = render_report([small_report("svm", "genetic_disorder")], tmp_path)
        assert (tmp_path / "report.md") in written

    def test_duplicate_algorithm_task_pair_rejected(self, tmp_path):
        reports = [small_report("svm", "t", seed=1), small_report("svm", "t", seed=2)]
        with pytest.raises(EvaluationError, match="duplicate"):
            render_report(reports, tmp_path)

    def test_conflicting_class_lists_rejected(self, tmp_path):
        reports = [
            small_report("svm", "t", labels=("a", "b", "c")),
            small_report("forest", "t", labels=("a", "b", "d")),
        ]
        with pytest.raises(EvaluationError, match="conflicting"):
            render_report(reports, tmp_path)

    def test_empty_report_list_rejected(self, tmp_path):
        with pytest.raises(EvaluationError):
            render_report([], tmp_path)

    def test_markdown_and_csv_agree_to_two_decimals(self, tmp_path):
        import csv

        reports = [small_report("svm", "t", seed=5), small_report("forest", "t", seed=6)]
        render_report(reports, tmp_path)
        md = (tmp_path / "report.md").read_text(encoding="utf-8")
        with open(tmp_path / "overall_accuracy.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["algorithm", "t"]
        for algo, cell in rows[1:]:
            rendered = f"{float(cell):.2f}"
            row = next(l for l in md.splitlines() if l.startswith(f"| {algo} |"))
            assert rendered in row.replace("**", "")

    def test_roc_csv_points_match_curve(self, tmp_path):
        import csv

        rep = small_report("svm", "t", seed=7, labels=("a", "b"))
        render_report([rep], tmp_path)
        with open(tmp_path / "roc_svm_t_a.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["fpr", "tpr"]
        fpr = [float(r[0]) for r in rows[1:]]
        tpr = [float(r[1]) for r in rows[1:]]
        assert fpr == list(rep.roc["a"].fpr)
        assert tpr == list(rep.roc["a"].tpr)
