"""Tests for gradient boosting: losses, GOSS sampling, and the three tree variants."""

import json

import numpy as np
import pytest

from conftest import make_dataset, xy_dataset
from genoclass.ensemble.boosting import (
    GbdtConfig,
    GbdtModel,
    GossSample,
    fit_gbdt,
    goss_gain,
    goss_sample,
    loss_gradients,
    loss_value,
    softmax,
)
from genoclass.ensemble.cart import Tree
from genoclass.errors import ArgumentError


def reg_dataset(X, y):
    """Wrap (X, y) with a real-valued target column for squared-loss fits."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    cols = [(f"x{j}", "numeric") for j in range(X.shape[1])]
    cols.append(("y", "numeric"))
    values = {f"x{j}": X[:, j] for j in range(X.shape[1])}
    values["y"] = np.asarray(y, dtype=np.float64)
    return make_dataset(cols, values)


def regression_fixture(n=200, seed=33):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = 2.0 * X[:, 0] + np.sin(3.0 * X[:, 1]) + 0.1 * rng.normal(size=n)
    return X, y


def blob_fixture(n=150, seed=34):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    y = rng.integers(0, 3, size=n)
    X = centers[y] + 0.5 * rng.normal(size=(n, 2))
    return X, y


def level_tests(tree: Tree) -> list[set]:
    """Distinct (feature, threshold) pairs used at each depth of the tree."""
    levels: list[set] = []
    frontier = [0]
    split = np.cumsum(tree.left >= 0) - 1  # an internal node's rank, which indexes feature and threshold
    while True:
        internal = [node for node in frontier if tree.left[node] >= 0]
        if not internal:
            return levels
        levels.append({(tree.feature[split[node]], tree.threshold[split[node]]) for node in internal})
        frontier = [child for node in internal for child in (tree.left[node], tree.right[node])]


class TestGbdtConfig:
    def test_unknown_loss_rejected(self):
        with pytest.raises(ArgumentError, match="unknown loss"):
            GbdtConfig(loss="absolute")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ArgumentError, match="unknown variant"):
            GbdtConfig(variant="dart")

    def test_negative_rounds_rejected(self):
        with pytest.raises(ArgumentError, match="rounds"):
            GbdtConfig(rounds=-1)

    def test_learning_rate_bounds(self):
        with pytest.raises(ArgumentError, match="learning rate"):
            GbdtConfig(learning_rate=0.0)
        with pytest.raises(ArgumentError, match="learning rate"):
            GbdtConfig(learning_rate=1.5)

    def test_goss_fraction_bounds(self):
        with pytest.raises(ArgumentError, match="fraction a"):
            GbdtConfig(a=0.0)
        with pytest.raises(ArgumentError, match="fraction b"):
            GbdtConfig(b=1.5)

    def test_round_trip(self):
        cfg = GbdtConfig(loss="squared", rounds=7, learning_rate=0.5, variant="goss", a=0.4, b=0.2)
        assert GbdtConfig.from_json(cfg.to_json()) == cfg


class TestLossFunctions:
    def test_uniform_scores_give_log_k(self):
        F = np.zeros((3, 3))
        y = np.array([0, 1, 2])
        assert loss_value("multiclass_logloss", y, F) == pytest.approx(np.log(3.0), abs=1e-12)

    def test_squared_loss_value(self):
        F = np.array([[1.0], [3.0]])
        y = np.array([2.0, 3.0])
        assert loss_value("squared", y, F) == pytest.approx(0.25)

    def test_squared_gradients(self):
        F = np.array([[1.0], [5.0]])
        y = np.array([2.0, 3.0])
        residuals, hessians = loss_gradients("squared", y, F)
        np.testing.assert_array_equal(residuals, [[1.0], [-2.0]])
        np.testing.assert_array_equal(hessians, [[1.0], [1.0]])

    def test_logloss_residuals_at_zero_scores(self):
        residuals, hessians = loss_gradients("multiclass_logloss", np.array([0, 1, 2]), np.zeros((3, 3)))
        np.testing.assert_allclose(residuals[0], [2 / 3, -1 / 3, -1 / 3], atol=1e-12)
        np.testing.assert_allclose(hessians, np.full((3, 3), 2 / 9), atol=1e-12)

    def test_logloss_residuals_match_finite_differences(self):
        rng = np.random.default_rng(31)
        eps = 1e-5
        for _ in range(5):
            n, k = 6, 3
            y = rng.integers(0, k, size=n)
            F = rng.normal(size=(n, k))
            residuals, _ = loss_gradients("multiclass_logloss", y, F)
            for i in range(n):
                for c in range(k):
                    up, down = F.copy(), F.copy()
                    up[i, c] += eps
                    down[i, c] -= eps
                    fd = (
                        loss_value("multiclass_logloss", y, up)
                        - loss_value("multiclass_logloss", y, down)
                    ) / (2.0 * eps)
                    # mean loss differentiates to (softmax - onehot) / n
                    assert -n * fd == pytest.approx(residuals[i, c], rel=1e-5, abs=1e-8)

    def test_logloss_hessians_match_residual_slope(self):
        rng = np.random.default_rng(32)
        eps = 1e-6
        y = rng.integers(0, 4, size=5)
        F = rng.normal(size=(5, 4))
        _, hessians = loss_gradients("multiclass_logloss", y, F)
        for i in range(5):
            for c in range(4):
                up, down = F.copy(), F.copy()
                up[i, c] += eps
                down[i, c] -= eps
                r_up, _ = loss_gradients("multiclass_logloss", y, up)
                r_down, _ = loss_gradients("multiclass_logloss", y, down)
                slope = (r_up[i, c] - r_down[i, c]) / (2.0 * eps)
                assert -slope == pytest.approx(hessians[i, c], rel=1e-4, abs=1e-8)

    def test_unknown_loss_rejected(self):
        with pytest.raises(ArgumentError, match="loss"):
            loss_value("hinge", np.array([0]), np.zeros((1, 2)))
        with pytest.raises(ArgumentError, match="loss"):
            loss_gradients("hinge", np.array([0]), np.zeros((1, 2)))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(35)
        P = softmax(rng.normal(size=(20, 4)) * 50.0)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.isfinite(P).all()


class TestGossSample:
    def test_hand_example(self):
        sample = goss_sample(np.array([4.0, 3.0, 2.0, 1.0]), a=0.5, b=0.5, seed=0)
        np.testing.assert_array_equal(sample.top_idx, [0, 1])
        assert sample.rand_idx.size == 1
        assert sample.rand_idx[0] in (2, 3)
        assert sample.weight == 1.0

    def test_counts_and_weight_for_small_fractions(self):
        g = np.arange(10, 0, -1, dtype=np.float64)
        sample = goss_sample(g, a=0.2, b=0.1, seed=1)
        assert sample.top_idx.size == 2
        assert sample.rand_idx.size == 1
        assert sample.weight == pytest.approx(8.0)

    def test_full_keep_leaves_no_remainder(self):
        sample = goss_sample(np.array([1.0, -2.0, 3.0]), a=1.0, b=0.5, seed=2)
        np.testing.assert_array_equal(sample.top_idx, [0, 1, 2])
        assert sample.rand_idx.size == 0
        assert sample.weight == 0.0

    def test_zero_remainder_fraction(self):
        sample = goss_sample(np.array([1.0, 2.0, 3.0, 4.0]), a=0.5, b=0.0, seed=3)
        assert sample.rand_idx.size == 0
        assert sample.weight == 0.0

    def test_gradient_ties_break_by_row_index(self):
        sample = goss_sample(np.ones(6), a=0.5, b=0.0, seed=4)
        np.testing.assert_array_equal(sample.top_idx, [0, 1, 2])

    def test_magnitude_not_sign_selects(self):
        sample = goss_sample(np.array([-9.0, 1.0, 8.0, -2.0]), a=0.5, b=0.0, seed=5)
        np.testing.assert_array_equal(sample.top_idx, [0, 2])

    def test_bad_arguments_rejected(self):
        with pytest.raises(ArgumentError, match="zero rows"):
            goss_sample(np.empty(0), a=0.5, b=0.5, seed=0)
        with pytest.raises(ArgumentError, match="finite"):
            goss_sample(np.array([1.0, np.nan]), a=0.5, b=0.5, seed=0)
        with pytest.raises(ArgumentError, match="fraction a"):
            goss_sample(np.ones(4), a=0.0, b=0.5, seed=0)
        with pytest.raises(ArgumentError, match="fraction b"):
            goss_sample(np.ones(4), a=0.5, b=-0.1, seed=0)

    def test_sets_disjoint_and_sized(self):
        rng = np.random.default_rng(36)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            g = rng.normal(size=n)
            a = float(rng.uniform(0.05, 1.0))
            b = float(rng.uniform(0.0, 1.0))
            sample = goss_sample(g, a, b, seed=int(rng.integers(2**32)))
            top, rand = set(sample.top_idx.tolist()), set(sample.rand_idx.tolist())
            assert not top & rand
            assert sample.top_idx.size == min(n, int(np.ceil(a * n - 1e-9)))
            rest = n - sample.top_idx.size
            expect_rand = int(np.ceil(b * rest - 1e-9)) if (b > 0 and rest) else 0
            assert sample.rand_idx.size == expect_rand
            # kept rows dominate every unsampled row by gradient magnitude
            if top and rest:
                others = np.setdiff1d(np.arange(n), sample.top_idx)
                assert np.abs(g)[sample.top_idx].min() >= np.abs(g)[others].max() - 1e-12


class TestGossGain:
    def test_full_sample_matches_exact_variance_gain(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(4, 50))
            v = rng.normal(size=n)
            g = rng.normal(size=n)
            d = float(rng.choice(v))
            sample = goss_sample(g, a=1.0, b=0.5, seed=0)
            left = v <= d
            exact = 0.0
            for side in (left, ~left):
                if side.sum():
                    exact += g[side].sum() ** 2 / side.sum()
            exact /= n
            assert goss_gain(v, g, d, sample) == pytest.approx(exact, abs=1e-12)

    def test_hand_weighted_example(self):
        v = np.array([0.0, 1.0, 2.0, 3.0])
        g = np.array([4.0, 3.0, 2.0, 1.0])
        sample = GossSample(top_idx=np.array([0, 1]), rand_idx=np.array([2]), weight=1.0)
        # left sum 7 over 2 rows, right sum 2 over 1 row: (49/2 + 4) / 3
        assert goss_gain(v, g, 1.5, sample) == pytest.approx(9.5, abs=1e-12)
        doubled = GossSample(top_idx=np.array([0, 1]), rand_idx=np.array([2]), weight=2.0)
        assert goss_gain(v, g, 1.5, doubled) == pytest.approx(13.5, abs=1e-12)

    def test_zero_gradients_give_zero_gain(self):
        sample = goss_sample(np.ones(4), a=1.0, b=0.0, seed=0)
        assert goss_gain(np.arange(4.0), np.zeros(4), 1.5, sample) == 0.0

    def test_one_sided_threshold(self):
        v = np.array([0.0, 1.0, 2.0])
        g = np.array([1.0, 2.0, 3.0])
        sample = goss_sample(g, a=1.0, b=0.0, seed=0)
        assert goss_gain(v, g, 10.0, sample) == pytest.approx(36.0 / 9.0, abs=1e-12)

    def test_bad_arguments_rejected(self):
        sample = goss_sample(np.ones(3), a=1.0, b=0.0, seed=0)
        with pytest.raises(ArgumentError, match="differ in length"):
            goss_gain(np.arange(4.0), np.ones(3), 0.5, sample)
        with pytest.raises(ArgumentError, match="outside"):
            goss_gain(np.arange(2.0), np.ones(2), 0.5, sample)
        empty = GossSample(top_idx=np.empty(0, dtype=np.int64), rand_idx=np.empty(0, dtype=np.int64), weight=0.0)
        with pytest.raises(ArgumentError, match="empty"):
            goss_gain(np.arange(3.0), np.ones(3), 0.5, empty)


class TestSquaredLossFits:
    def test_zero_rounds_predict_the_mean(self):
        ds = reg_dataset(np.arange(4.0), np.array([1.0, 2.0, 3.0, 6.0]))
        model = fit_gbdt(ds, "y", GbdtConfig(loss="squared", rounds=0))
        np.testing.assert_allclose(model.predict_value(np.arange(4.0).reshape(-1, 1)), 3.0)
        assert len(model.loss_history) == 1

    def test_single_full_step_memorizes_distinct_rows(self):
        rng = np.random.default_rng(38)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        ds = reg_dataset(X, y)
        cfg = GbdtConfig(loss="squared", rounds=1, learning_rate=1.0, max_depth=32)
        model = fit_gbdt(ds, "y", cfg)
        np.testing.assert_allclose(model.predict_value(X), y, atol=1e-9)

    @pytest.mark.parametrize("variant", ["plain", "goss", "oblivious"])
    def test_training_loss_never_increases(self, variant):
        X, y = regression_fixture()
        ds = reg_dataset(X, y)
        cfg = GbdtConfig(loss="squared", rounds=20, learning_rate=0.1, variant=variant, a=0.3, b=0.2)
        model = fit_gbdt(ds, "y", cfg)
        history = np.array(model.loss_history)
        assert history.size == 21
        assert np.all(np.diff(history) <= 1e-12)
        assert history[-1] < history[0]

    def test_class_label_free(self):
        X, y = regression_fixture(n=40)
        model = fit_gbdt(reg_dataset(X, y), "y", GbdtConfig(loss="squared", rounds=2))
        assert model.class_labels == ()
        with pytest.raises(ArgumentError, match="multiclass_logloss"):
            model.predict_proba(X)


class TestLoglossFits:
    def test_zero_rounds_predict_class_priors(self):
        ds = xy_dataset(np.arange(5.0).reshape(-1, 1), np.array([0, 0, 0, 1, 2]), n_classes=3)
        model = fit_gbdt(ds, "y", GbdtConfig(rounds=0))
        probs = model.predict_proba(np.array([[0.0], [99.0]]))
        np.testing.assert_allclose(probs, [[0.6, 0.2, 0.2], [0.6, 0.2, 0.2]], atol=1e-12)
        assert len(model.loss_history) == 1

    @pytest.mark.parametrize("variant", ["plain", "goss", "oblivious"])
    def test_training_loss_never_increases(self, variant):
        X, y = blob_fixture(n=200, seed=39)
        ds = xy_dataset(X, y, n_classes=3)
        cfg = GbdtConfig(rounds=20, learning_rate=0.1, variant=variant, a=0.3, b=0.2)
        model = fit_gbdt(ds, "y", cfg)
        history = np.array(model.loss_history)
        assert history.size == 21
        assert np.all(np.diff(history) <= 1e-9)

    @pytest.mark.parametrize("variant", ["plain", "goss", "oblivious"])
    def test_separable_blobs_learned(self, variant):
        X, y = blob_fixture()
        ds = xy_dataset(X, y, n_classes=3)
        cfg = GbdtConfig(rounds=30, learning_rate=0.3, max_depth=2, variant=variant, a=0.3, b=0.2)
        model = fit_gbdt(ds, "y", cfg)
        assert np.mean(model.predict(X) == y) >= 0.95

    def test_regression_api_rejected(self):
        X, y = blob_fixture(n=30)
        model = fit_gbdt(xy_dataset(X, y, n_classes=3), "y", GbdtConfig(rounds=1))
        with pytest.raises(ArgumentError, match="squared"):
            model.predict_value(X)

    def test_oblivious_levels_share_one_test(self):
        X, y = blob_fixture(n=120, seed=40)
        ds = xy_dataset(X, y, n_classes=3)
        cfg = GbdtConfig(rounds=5, max_depth=4, variant="oblivious")
        model = fit_gbdt(ds, "y", cfg)
        seen_split = False
        for root in model.trees:
            for tests in level_tests(root):
                assert len(tests) == 1
                seen_split = True
        assert seen_split

    def test_plain_trees_may_vary_tests_within_a_level(self):
        X, y = blob_fixture(n=120, seed=41)
        # a shared tree separates clean blobs in two cuts and stops at pure leaves,
        # so 30% of the labels are redrawn to leave something to split below them
        rng = np.random.default_rng(41)
        y = np.where(rng.random(y.size) < 0.3, rng.integers(0, 3, size=y.size), y)
        ds = xy_dataset(X, y, n_classes=3)
        model = fit_gbdt(ds, "y", GbdtConfig(rounds=5, max_depth=4, variant="plain"))
        varied = any(len(tests) > 1 for root in model.trees for tests in level_tests(root))
        assert varied


class TestGbdtModel:
    def test_same_seed_reproduces_model(self):
        X, y = blob_fixture(n=100, seed=42)
        ds = xy_dataset(X, y, n_classes=3)
        cfg = GbdtConfig(rounds=8, variant="goss", a=0.3, b=0.3, seed=11)
        a = fit_gbdt(ds, "y", cfg)
        b = fit_gbdt(ds, "y", cfg)
        assert a.to_json() == b.to_json()

    def test_serialization_round_trip_is_bit_exact(self):
        X, y = blob_fixture(n=80, seed=43)
        ds = xy_dataset(X, y, n_classes=3)
        model = fit_gbdt(ds, "y", GbdtConfig(rounds=6, max_depth=3))
        doc = json.loads(json.dumps(model.to_json()))
        clone = GbdtModel.from_json(doc)
        np.testing.assert_array_equal(model.raw_scores(X), clone.raw_scores(X))
        np.testing.assert_array_equal(model.predict_proba(X), clone.predict_proba(X))
        assert clone.config == model.config
        assert clone.loss_history == model.loss_history

    def test_width_mismatch_rejected(self):
        X, y = blob_fixture(n=30)
        model = fit_gbdt(xy_dataset(X, y, n_classes=3), "y", GbdtConfig(rounds=1))
        with pytest.raises(ArgumentError, match="feature columns"):
            model.predict(np.ones((2, 5)))

    def test_single_row_vector_accepted(self):
        X, y = blob_fixture(n=30)
        model = fit_gbdt(xy_dataset(X, y, n_classes=3), "y", GbdtConfig(rounds=1))
        assert model.predict(X[0]).shape == (1,)
