"""Tests for bootstrap vote forests and their margin diagnostics."""

import numpy as np
import pytest

from conftest import xy_dataset
from genoclass.ensemble.cart import Tree, TreeParams, fit_tree, predict_tree, tree_from_splits
from genoclass.ensemble.forest import (
    ForestConfig,
    ForestDiagnostics,
    ForestModel,
    fit_random_forest,
    forest_diagnostics,
)
from genoclass.errors import ArgumentError, DegenerateDataError


def leaf_tree(counts) -> Tree:
    """One-node tree whose leaf holds the class-count vector counts."""
    return Tree(np.array([-1]), np.array([0.0]), np.array([-1]), np.array([-1]), np.array([counts], dtype=np.float64))


def chain_tree(thresholds: list[float], votes: list[int], k: int = 2) -> Tree:
    """Right-spine chain on feature 0: leaf votes[i] covers the i-th threshold bucket.

    Split i is node 2i; its left child 2i + 1 is leaf votes[i], its right
    child the next split; the last node, 2 * len(thresholds), is leaf votes[-1].
    """
    n = 2 * len(thresholds) + 1
    value = np.zeros((n, k))
    value[[*range(1, n, 2), n - 1], votes] = 1.0  # one-hot vote of each leaf
    return tree_from_splits(n, [(2 * i, 0, t, 2 * i + 1) for i, t in enumerate(thresholds)], value)


def hand_forest() -> tuple[ForestModel, "Dataset"]:
    """Three fixed trees over five one-feature rows with worked-out diagnostics."""
    t1 = chain_tree([0.5, 1.5, 2.5, 3.5], [0, 1, 0, 1, 0])
    t2 = chain_tree([0.5, 3.5], [0, 1, 0])
    t3 = chain_tree([1.5], [1, 0])
    model = ForestModel(
        feature_names=("x0",),
        class_labels=("c0", "c1"),
        trees=[t1, t2, t3],
        tree_seeds=(0, 1, 2),
        config=ForestConfig(trees=3),
    )
    ds = xy_dataset(np.arange(5.0).reshape(-1, 1), np.array([0, 1, 0, 1, 0]), n_classes=2)
    return model, ds


class TestForestConfig:
    def test_zero_trees_rejected(self):
        with pytest.raises(ArgumentError, match="at least 1"):
            ForestConfig(trees=0)

    def test_bad_mtry_rejected(self):
        with pytest.raises(ArgumentError, match="mtry"):
            ForestConfig(mtry=0)

    def test_bad_leaf_size_rejected(self):
        with pytest.raises(ArgumentError, match="min_samples_leaf"):
            ForestConfig(min_samples_leaf=0)

    def test_round_trip(self):
        cfg = ForestConfig(trees=7, mtry=2, max_depth=4, bootstrap=False, seed=3)
        assert ForestConfig.from_json(cfg.to_json()) == cfg


class TestFitRandomForest:
    def test_single_unsampled_tree_matches_plain_cart(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        ds = xy_dataset(X, y, n_classes=2)
        forest = fit_random_forest(ds, "y", ForestConfig(trees=1, mtry=3, bootstrap=False, seed=5))
        solo = fit_tree(X, y.astype(np.float64), TreeParams(criterion="gini", n_classes=2))
        np.testing.assert_array_equal(
            forest.predict(X), np.argmax(predict_tree(solo, X), axis=1)
        )

    def test_same_seed_reproduces_forest(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(60, 4))
        y = rng.integers(0, 3, size=60)
        ds = xy_dataset(X, y, n_classes=3)
        cfg = ForestConfig(trees=12, seed=9)
        a = fit_random_forest(ds, "y", cfg)
        b = fit_random_forest(ds, "y", cfg)
        assert a.to_json() == b.to_json()

    def test_ensemble_beats_single_tree_on_noisy_data(self):
        rng = np.random.default_rng(23)
        n = 500
        y = rng.integers(0, 2, size=n)
        X = rng.normal(size=(n, 6)) * 1.4
        X[:, 0] += 2.0 * y
        X[:, 1] -= 1.5 * y
        ds_train = xy_dataset(X[:350], y[:350], n_classes=2)
        X_test, y_test = X[350:], y[350:]
        lone = fit_random_forest(ds_train, "y", ForestConfig(trees=1, seed=0))
        many = fit_random_forest(ds_train, "y", ForestConfig(trees=100, seed=0))
        acc_lone = float(np.mean(lone.predict(X_test) == y_test))
        acc_many = float(np.mean(many.predict(X_test) == y_test))
        assert acc_many > acc_lone

    def test_labels_and_seed_count_recorded(self):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(30, 2))
        y = rng.integers(0, 2, size=30)
        ds = xy_dataset(X, y, n_classes=2, labels=("No", "Yes"))
        forest = fit_random_forest(ds, "y", ForestConfig(trees=5))
        assert forest.class_labels == ("No", "Yes")
        assert len(forest.trees) == 5
        assert len(forest.tree_seeds) == 5


class TestForestModel:
    def test_vote_fractions_sum_to_one(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(50, 3))
        y = rng.integers(0, 3, size=50)
        ds = xy_dataset(X, y, n_classes=3)
        forest = fit_random_forest(ds, "y", ForestConfig(trees=9, seed=1))
        probs = forest.predict_proba(X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert probs.min() >= 0.0

    def test_unanimous_trees_give_certain_vote(self):
        model = ForestModel(
            feature_names=("x0",),
            class_labels=("c0", "c1", "c2"),
            trees=[leaf_tree([0.0, 0.0, 3.0])] * 4,
            tree_seeds=(0, 1, 2, 3),
            config=ForestConfig(trees=4),
        )
        probs = model.predict_proba(np.array([[0.0], [9.0]]))
        np.testing.assert_array_equal(probs, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])

    def test_width_mismatch_rejected(self):
        model, _ = hand_forest()
        with pytest.raises(ArgumentError, match="feature columns"):
            model.predict(np.ones((2, 3)))

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        ds = xy_dataset(X, y, n_classes=2)
        forest = fit_random_forest(ds, "y", ForestConfig(trees=8, seed=2))
        clone = ForestModel.from_json(forest.to_json())
        np.testing.assert_array_equal(forest.predict(X), clone.predict(X))
        np.testing.assert_array_equal(forest.predict_proba(X), clone.predict_proba(X))
        assert clone.config == forest.config


class TestForestDiagnostics:
    def test_hand_forest_margins(self):
        model, ds = hand_forest()
        diag = forest_diagnostics(model, ds, "y")
        np.testing.assert_allclose(diag.margins, [1 / 3, 1.0, 1 / 3, 1 / 3, 1.0], atol=1e-12)
        assert diag.strength == pytest.approx(0.6, abs=1e-12)

    def test_hand_forest_correlation_and_bound(self):
        model, ds = hand_forest()
        diag = forest_diagnostics(model, ds, "y")
        # raw-margin vectors: all-ones, one flip, two flips; the constant
        # vector pairs contribute 0, the remaining pair -1/sqrt(6)
        assert diag.rho_bar == pytest.approx(-1.0 / (3.0 * np.sqrt(6.0)), abs=1e-12)
        expected_bound = diag.rho_bar * (1.0 - 0.36) / 0.36
        assert diag.bound == pytest.approx(expected_bound, abs=1e-12)

    def test_identical_trees_fully_correlated(self):
        t3 = chain_tree([1.5], [1, 0])
        model = ForestModel(
            feature_names=("x0",),
            class_labels=("c0", "c1"),
            trees=[t3, t3],
            tree_seeds=(0, 1),
            config=ForestConfig(trees=2),
        )
        ds = xy_dataset(np.arange(5.0).reshape(-1, 1), np.array([0, 1, 0, 1, 0]), n_classes=2)
        diag = forest_diagnostics(model, ds, "y")
        assert diag.rho_bar == pytest.approx(1.0, abs=1e-12)

    def test_all_correct_forest_has_unit_strength_and_zero_bound(self):
        perfect = chain_tree([0.5, 1.5, 2.5, 3.5], [0, 1, 0, 1, 0])
        model = ForestModel(
            feature_names=("x0",),
            class_labels=("c0", "c1"),
            trees=[perfect, perfect],
            tree_seeds=(0, 1),
            config=ForestConfig(trees=2),
        )
        ds = xy_dataset(np.arange(5.0).reshape(-1, 1), np.array([0, 1, 0, 1, 0]), n_classes=2)
        diag = forest_diagnostics(model, ds, "y")
        np.testing.assert_array_equal(diag.margins, np.ones(5))
        assert diag.strength == 1.0
        assert diag.bound == 0.0

    def test_non_positive_strength_gives_infinite_bound(self):
        always_one = leaf_tree([0.0, 1.0])
        model = ForestModel(
            feature_names=("x0",),
            class_labels=("c0", "c1"),
            trees=[always_one, always_one],
            tree_seeds=(0, 1),
            config=ForestConfig(trees=2),
        )
        ds = xy_dataset(np.arange(5.0).reshape(-1, 1), np.array([0, 1, 0, 0, 0]), n_classes=2)
        diag = forest_diagnostics(model, ds, "y")
        assert diag.strength < 0.0
        assert diag.bound == np.inf

    def test_single_tree_rejected(self):
        model, ds = hand_forest()
        lone = ForestModel(
            feature_names=model.feature_names,
            class_labels=model.class_labels,
            trees=model.trees[:1],
            tree_seeds=(0,),
            config=ForestConfig(trees=1),
        )
        with pytest.raises(DegenerateDataError, match="at least 2 trees"):
            forest_diagnostics(lone, ds, "y")

    def test_margins_track_vote_correctness(self):
        rng = np.random.default_rng(27)
        X = rng.normal(size=(80, 3))
        y = rng.integers(0, 3, size=80)
        ds = xy_dataset(X, y, n_classes=3)
        forest = fit_random_forest(ds, "y", ForestConfig(trees=15, max_depth=3, seed=4))
        diag = forest_diagnostics(forest, ds, "y")
        assert np.all(diag.margins >= -1.0) and np.all(diag.margins <= 1.0)
        preds = forest.predict(X)
        decisive = diag.margins != 0.0
        np.testing.assert_array_equal(
            (preds == y)[decisive], diag.margins[decisive] > 0.0
        )

    def test_fitted_forest_bound_is_non_negative(self):
        rng = np.random.default_rng(28)
        y = rng.integers(0, 2, size=120)
        X = rng.normal(size=(120, 3))
        X[:, 0] += 3.0 * y
        ds = xy_dataset(X, y, n_classes=2)
        forest = fit_random_forest(ds, "y", ForestConfig(trees=25, seed=6))
        diag = forest_diagnostics(forest, ds, "y")
        assert diag.strength > 0.0
        assert diag.bound >= 0.0

    def test_csv_layout(self, tmp_path):
        model, ds = hand_forest()
        diag = forest_diagnostics(model, ds, "y")
        path = tmp_path / "diag.csv"
        diag.to_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "row_id,margin"
        assert len(lines) == 1 + 5 + 3
        assert lines[1].split(",")[0] == "0"
        assert lines[6].startswith("s,")
        assert float(lines[6].split(",")[1]) == pytest.approx(0.6)
        assert lines[7].startswith("rho_bar,")
        assert lines[8].startswith("bound,")

    def test_infinite_bound_written_as_inf(self, tmp_path):
        diag = ForestDiagnostics(
            margins=np.array([-1.0]), strength=-1.0, rho_bar=0.5, bound=float("inf")
        )
        path = tmp_path / "diag.csv"
        diag.to_csv(path)
        assert path.read_text(encoding="utf-8").splitlines()[-1] == "bound,inf"
