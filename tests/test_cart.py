"""Tests for single greedy CART trees."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthdata
from genoclass.ensemble import cart
from genoclass.ensemble.cart import (
    TIE_RTOL,
    Tree,
    TreeParams,
    apply,
    fit_tree,
    predict_tree,
)
from genoclass.errors import ArgumentError


def leaf_sizes(tree: Tree, X: np.ndarray) -> list[int]:
    """Row count reaching each leaf when X is routed through the tree."""
    counts = np.bincount(apply(tree, X), minlength=tree.feature.size)
    return [int(counts[i]) for i in np.flatnonzero(tree.left < 0)]


def tree_depth(tree: Tree) -> int:
    """Edges on the longest root-to-leaf path (child ids exceed their parent's)."""
    depth = np.zeros(tree.feature.size, dtype=np.int64)
    for i in np.flatnonzero(tree.left >= 0):
        depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
    return int(depth.max())


def is_leaf(tree: Tree, node: int = 0) -> bool:
    return bool(tree.left[node] < 0)


def stump(threshold=1.5, values=(0.0, 1.0)):
    """Root split on feature 0 with two leaves."""
    return Tree(np.array([0, -1, -1]), np.array([threshold, 0.0, 0.0]), np.array([1, -1, -1]), np.array([2, -1, -1]), np.array([0.0, *values]))


class TestTreeParams:
    def test_defaults(self):
        p = TreeParams()
        assert p.criterion == "variance"
        assert p.max_depth is None
        assert p.min_samples_leaf == 1
        assert p.mtry is None

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ArgumentError, match="criterion"):
            TreeParams(criterion="entropy")

    def test_negative_depth_rejected(self):
        with pytest.raises(ArgumentError, match="max_depth"):
            TreeParams(max_depth=-1)

    def test_small_leaf_rejected(self):
        with pytest.raises(ArgumentError, match="min_samples_leaf"):
            TreeParams(min_samples_leaf=0)

    def test_bad_mtry_rejected(self):
        with pytest.raises(ArgumentError, match="mtry"):
            TreeParams(mtry=0)


class TestFitTreeValidation:
    def test_one_dimensional_x_rejected(self):
        with pytest.raises(ArgumentError, match="2-D"):
            fit_tree(np.array([1.0, 2.0]), np.array([0.0, 1.0]))

    def test_zero_rows_rejected(self):
        with pytest.raises(ArgumentError, match="zero rows"):
            fit_tree(np.empty((0, 2)), np.empty(0))

    def test_non_finite_features_rejected(self):
        X = np.array([[1.0], [np.nan]])
        with pytest.raises(ArgumentError, match="non-finite"):
            fit_tree(X, np.array([0.0, 1.0]))

    def test_length_mismatch_rejected(self):
        X = np.array([[1.0], [2.0]])
        with pytest.raises(ArgumentError, match="expected 2"):
            fit_tree(X, np.array([0.0, 1.0, 2.0]))

    def test_non_finite_targets_rejected(self):
        X = np.array([[1.0], [2.0]])
        with pytest.raises(ArgumentError, match="non-finite"):
            fit_tree(X, np.array([0.0, np.inf]))

    def test_negative_class_code_rejected(self):
        X = np.array([[1.0], [2.0]])
        with pytest.raises(ArgumentError, match="non-negative"):
            fit_tree(X, np.array([0, -1]), TreeParams(criterion="gini"))

    def test_code_outside_declared_range_rejected(self):
        X = np.array([[1.0], [2.0]])
        with pytest.raises(ArgumentError, match="outside"):
            fit_tree(X, np.array([0, 3]), TreeParams(criterion="gini", n_classes=2))


class TestVarianceTrees:
    def test_constant_target_gives_single_leaf(self):
        X = np.arange(6, dtype=np.float64).reshape(-1, 1)
        root = fit_tree(X, np.full(6, 2.5))
        assert is_leaf(root)
        assert root.value[0] == 2.5

    def test_two_cluster_split_lands_between_clusters(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        root = fit_tree(X, y, TreeParams(max_depth=1))
        assert not is_leaf(root)
        assert root.feature[0] == 0
        assert 2.0 < root.threshold[0] < 3.0
        left, right = root.left[0], root.right[0]
        assert is_leaf(root, left) and is_leaf(root, right)
        assert root.value[left] == 0.0
        assert root.value[right] == 1.0

    def test_max_depth_zero_gives_mean_leaf(self):
        X = np.array([[1.0], [2.0], [3.0]])
        root = fit_tree(X, np.array([1.0, 2.0, 6.0]), TreeParams(max_depth=0))
        assert is_leaf(root)
        assert root.value[0] == pytest.approx(3.0)

    def test_unlimited_depth_memorizes_distinct_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(5, 40))
            X = rng.normal(size=(n, 3))
            y = rng.normal(size=n)
            root = fit_tree(X, y)
            np.testing.assert_allclose(predict_tree(root, X), y, atol=1e-12)

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(60, 2))
        y = rng.normal(size=60)
        root = fit_tree(X, y, TreeParams(min_samples_leaf=7))
        assert min(leaf_sizes(root, X)) >= 7

    def test_split_blocked_when_leaves_would_shrink(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        root = fit_tree(X, y, TreeParams(min_samples_leaf=3))
        assert is_leaf(root)

    def test_depth_limit_holds_everywhere(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            X = rng.normal(size=(50, 4))
            y = rng.normal(size=50)
            depth = int(rng.integers(1, 5))
            root = fit_tree(X, y, TreeParams(max_depth=depth))
            assert tree_depth(root) <= depth


class TestGiniTrees:
    def test_constant_class_gives_count_leaf(self):
        X = np.arange(4, dtype=np.float64).reshape(-1, 1)
        root = fit_tree(X, np.array([1, 1, 1, 1]), TreeParams(criterion="gini", n_classes=3))
        assert is_leaf(root)
        np.testing.assert_array_equal(root.value[0], [0.0, 4.0, 0.0])

    def test_two_cluster_split_lands_between_clusters(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        root = fit_tree(X, y, TreeParams(criterion="gini", max_depth=1, n_classes=2))
        assert not is_leaf(root)
        assert 2.0 < root.threshold[0] < 3.0
        np.testing.assert_array_equal(root.value[root.left[0]], [2.0, 0.0])
        np.testing.assert_array_equal(root.value[root.right[0]], [0.0, 2.0])

    def test_leaf_counts_use_declared_class_count(self):
        X = np.array([[1.0], [2.0]])
        root = fit_tree(X, np.array([0, 0]), TreeParams(criterion="gini", n_classes=5))
        assert is_leaf(root)
        assert root.value[0].shape == (5,)
        assert root.value[0].sum() == 2.0

    def test_unlimited_depth_memorizes_distinct_rows(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(5, 40))
            k = int(rng.integers(2, 5))
            X = rng.normal(size=(n, 3))
            y = rng.integers(0, k, size=n)
            root = fit_tree(X, y, TreeParams(criterion="gini", n_classes=k))
            counts = predict_tree(root, X)
            assert counts.shape == (n, k)
            np.testing.assert_array_equal(np.argmax(counts, axis=1), y)

    def test_pure_leaves_on_separable_data(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        root = fit_tree(X, y, TreeParams(criterion="gini", n_classes=2))
        counts = predict_tree(root, X)
        # each row's leaf holds only its own class
        assert np.all(counts[np.arange(4), y] == counts.sum(axis=1))


class TestMtry:
    def test_same_seed_reproduces_structure(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(80, 6))
        y = rng.normal(size=80)
        params = TreeParams(mtry=2, seed=42, max_depth=4)
        a = fit_tree(X, y, params)
        b = fit_tree(X, y, params)
        assert a.to_json() == b.to_json()

    def test_mtry_at_full_width_matches_unrestricted(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        full = fit_tree(X, y, TreeParams(max_depth=3))
        capped = fit_tree(X, y, TreeParams(max_depth=3, mtry=3, seed=99))
        assert full.to_json() == capped.to_json()


class TestPredictTree:
    def test_single_row_vector_accepted(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        root = fit_tree(X, y, TreeParams(max_depth=1))
        assert predict_tree(root, np.array([0.5])) == pytest.approx(0.0)

    def test_width_mismatch_rejected(self):
        X = np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 7.0], [4.0, 8.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        root = fit_tree(X, y, TreeParams(max_depth=1))
        if is_leaf(root):
            pytest.skip("no split found")
        with pytest.raises(ArgumentError, match="tree expects feature index"):
            predict_tree(root, np.ones((3, root.feature[0])))


class TestSerialization:
    def test_round_trip_preserves_predictions(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        root = fit_tree(X, y, TreeParams(max_depth=5))
        clone = Tree.from_json(root.to_json())
        np.testing.assert_array_equal(predict_tree(root, X), predict_tree(clone, X))
        assert tree_depth(clone) == tree_depth(root)

    def test_round_trip_preserves_count_leaves(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(40, 2))
        y = rng.integers(0, 3, size=40)
        root = fit_tree(X, y, TreeParams(criterion="gini", n_classes=3))
        clone = Tree.from_json(root.to_json())
        np.testing.assert_array_equal(predict_tree(root, X), predict_tree(clone, X))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_leaves_only_round_trip_is_exact(self, data):
        """Greedy and oblivious trees, with 1-D and 2-D leaf values, come back bit for bit through JSON text."""
        from genoclass.ensemble import boosting

        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n, d = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 3))
        X = rng.integers(0, data.draw(st.integers(1, 6)), size=(n, d)).astype(np.float64)
        kind = data.draw(st.sampled_from(["variance", "gini", "oblivious"]))
        if kind == "oblivious":
            bins, values = cart.rank_codes(X)
            k = data.draw(st.integers(1, 3))
            tree = boosting._fit_oblivious_structure(bins, values, rng.normal(size=(n, k)), data.draw(st.integers(0, 3)))[0]
            tree.value[tree.left < 0] = rng.normal(size=(int((tree.left < 0).sum()), k))
        elif kind == "gini":
            tree = fit_tree(X, rng.integers(0, 3, size=n), TreeParams(criterion="gini", n_classes=3))
        else:
            tree = fit_tree(X, np.round(rng.normal(size=n), data.draw(st.integers(0, 3))), TreeParams(max_depth=data.draw(st.none() | st.integers(0, 4))))
        doc = tree.to_json()
        assert len(doc["feature"]) == len(doc["threshold"]) == int((tree.left >= 0).sum())
        assert len(doc["value"]) == int((tree.left < 0).sum())
        if kind == "gini":
            assert all(type(c) is int for row in doc["value"] for c in row)
        clone = Tree.from_json(json.loads(json.dumps(doc)))
        for name in ("feature", "threshold", "left", "right", "value"):
            a, b = getattr(tree, name), getattr(clone, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name

    def test_leaf_document_shape(self):
        doc = Tree(np.array([-1]), np.array([0.0]), np.array([-1]), np.array([-1]), np.array([1.5])).to_json()
        assert doc == {"feature": [], "threshold": [], "left": [-1], "value": [1.5]}
        assert is_leaf(Tree.from_json(doc))
        # leaves-only: internal nodes keep their test, leaves their value; counts are integers
        assert stump(2.5, (3.0, 0.0)).to_json() == {"feature": [0], "threshold": [2.5], "left": [1, -1, -1], "value": [3, 0]}


def walk(tree: Tree, x: np.ndarray) -> int:
    """Reference descent of one row, node by node."""
    node = 0
    while tree.left[node] >= 0:
        node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
    return int(node)


class TestApply:
    def test_matches_row_by_row_descent(self):
        rng = np.random.default_rng(19)
        for criterion, y in (("variance", rng.normal(size=80)), ("gini", rng.integers(0, 3, size=80))):
            X = rng.integers(0, 6, size=(80, 3)).astype(np.float64)
            tree = fit_tree(X, y, TreeParams(criterion=criterion, mtry=2, seed=3))
            probe = rng.integers(-1, 7, size=(50, 3)).astype(np.float64)
            np.testing.assert_array_equal(apply(tree, probe), [walk(tree, x) for x in probe])

    def test_single_leaf_sends_every_row_to_the_root(self):
        leaf = Tree(np.array([-1]), np.array([0.0]), np.array([-1]), np.array([-1]), np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(apply(leaf, np.ones((3, 4))), [0, 0, 0])

    def test_ties_route_left(self):
        np.testing.assert_array_equal(apply(stump(), np.array([[1.0], [1.5], [2.0]])), [1, 1, 2])


class TestTreeValidation:
    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("threshold", [1.5, 0.0], "equal lengths"),
            ("value", [0.0, 1.0], "equal lengths"),
            ("left", [1, -1, 0], "leaf"),
            ("feature", [-1, -1, -1], "leaf"),
            ("feature", [-2, -1, -1], "leaf"),
            ("right", [3, -1, -1], "between"),
            ("left", [0, -1, -1], "between"),
            ("left", [1.5, -1, -1], "integers"),
            ("feature", [True, False, False], "integers"),
        ],
    )
    def test_malformed_arrays_rejected(self, field, value, match):
        arrays = {**vars(stump()), field: value}
        with pytest.raises(ArgumentError, match=match):
            Tree(**{k: np.asarray(v) for k, v in arrays.items()})

    def test_child_before_its_parent_rejected(self):
        # node 1 points back at node 0: a descent would never end
        doc = {"feature": [0, 0], "threshold": [1.0, 2.0], "left": [1, 0, -1], "value": [1.0]}
        with pytest.raises(ArgumentError, match="between"):
            Tree.from_json(doc)

    def test_integral_float_ids_become_int64(self):
        doc = {**stump().to_json(), "left": [1.0, -1.0, -1.0]}
        tree = Tree.from_json(doc)
        assert tree.left.dtype == np.int64 and tree.feature.dtype == np.int64


class TestGrowthPath:
    """One level-by-level loop grows every tree; mtry trees draw a feature subset per node."""

    @pytest.mark.parametrize("mtry", [None, 2], ids=["unsampled", "mtry"])
    @pytest.mark.parametrize("criterion", ["variance", "gini"])
    def test_tree_does_not_depend_on_nodes_per_call(self, monkeypatch, criterion, mtry):
        rng = np.random.default_rng(31)
        X = rng.integers(0, 12, size=(400, 5)).astype(np.float64)
        y = rng.integers(0, 3, size=400) if criterion == "gini" else rng.normal(size=400)
        params = TreeParams(criterion=criterion, mtry=mtry, seed=8, min_samples_leaf=2)
        wide = fit_tree(X, y, params)
        # some level splits more than 16 nodes, all of them scored in one call
        depth = np.zeros(wide.feature.size, dtype=np.int64)
        for i in np.flatnonzero(wide.left >= 0):
            depth[[wide.left[i], wide.right[i]]] = depth[i] + 1
        assert np.bincount(depth[wide.left >= 0]).max() > 16
        search = cart._level_splits

        def one_node_per_call(bins, values, S, node, nodes, size, kept, drawn, msl, keep):
            # each node scored alone, from its own rows, with no histograms handed down
            found = [search(bins, values, S, node, nodes[i : i + 1], size, None, None if drawn is None else drawn[i : i + 1], msl, False)[0] for i in range(nodes.size)]
            return tuple(np.concatenate(part) for part in zip(*found)), None

        monkeypatch.setattr(cart, "_level_splits", one_node_per_call)
        narrow = fit_tree(X, y, params)
        assert narrow.to_json() == wide.to_json()

    @pytest.mark.parametrize("stats", ["target", "classes", "residuals"])
    def test_tree_does_not_depend_on_how_a_level_is_scored(self, stats):
        X, y = synthdata.gendata_matrix(1500, 3)
        rng = np.random.default_rng(3)
        onehot = np.eye(y.max() + 1)[y]
        S = {
            "target": np.round(y + rng.normal(size=y.size), 2)[:, None],
            "classes": onehot,
            # boosting-like residuals of large magnitude: float sums whose rounding the two kernels order differently
            "residuals": (onehot - onehot.mean(axis=0) + rng.normal(size=onehot.shape) * 0.01) * 1e3,
        }[stats]
        bins, values = cart.rank_codes(X)
        params = TreeParams(min_samples_leaf=2)
        search, dense, present = cart._level_splits, cart.level_histograms, cart.present_cells
        scored = []

        def every_feature_drawn(bins, values, S, node, nodes, size, kept, drawn, msl, keep):
            # a level whose nodes each draw every feature is scored by present cells
            drawn = np.tile(np.arange(bins.shape[1]), (nodes.size, 1))
            return search(bins, values, S, node, nodes, size, kept, drawn, msl, keep)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cart, "level_histograms", lambda *args: scored.append("dense") or dense(*args))
            patch.setattr(cart, "present_cells", lambda *args: scored.append("present") or present(*args))
            both, leaf = cart.grow_tree(bins, values, S, params)
        # the root and the shallow levels are scored dense, the wide ones by present cells
        assert scored[0] == "dense" and "present" in scored
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cart, "_level_splits", every_feature_drawn)
            patch.setattr(cart, "level_histograms", None)
            cells_only, cells_leaf = cart.grow_tree(bins, values, S, params)
        assert cells_only.to_json() == both.to_json()
        np.testing.assert_array_equal(cells_leaf, leaf)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mtry_splits_are_the_best_over_the_drawn_features(self, data):
        n, d, k = data.draw(st.integers(4, 60)), data.draw(st.integers(2, 6)), data.draw(st.integers(2, 4))
        # a drawn seed, not drawn cells: shrinking cells toward zero would leave little to split
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        X = rng.integers(0, data.draw(st.integers(2, 8)), size=(n, d)).astype(np.float64)
        y = rng.integers(0, k, size=n)
        msl = data.draw(st.integers(1, 3))
        params = TreeParams("gini", data.draw(st.none() | st.integers(1, 4)), msl, data.draw(st.integers(1, d - 1)), data.draw(st.integers(0, 2**32 - 1)), k)
        calls = []
        search = cart._level_splits

        def recording(bins, values, S, node, nodes, size, kept, drawn, msl, keep):
            found, hist = search(bins, values, S, node, nodes, size, kept, drawn, msl, keep)
            calls.append(([np.flatnonzero(node == v) for v in nodes], np.array(drawn), found))
            return found, hist

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cart, "_level_splits", recording)
            tree = fit_tree(X, y, params)
        onehot = np.eye(k)[y]
        splits = 0
        for groups, features, found in calls:
            assert features.shape == (len(groups), params.mtry)
            for rows, drawn, gain, f, t, _ in zip(groups, features, *found):
                assert len(set(drawn.tolist())) == params.mtry
                gains = [brute_gain(onehot[rows], X[rows, f] <= t, msl) for f in drawn for t in np.unique(X[rows, f])[:-1]]
                top = max((g for g in gains if g is not None), default=None)
                if gain == -np.inf:
                    # no valid cut, or rows of one class, which no cut improves
                    assert top is None or np.unique(y[rows]).size == 1
                    continue
                assert top is not None
                assert f in drawn
                parent = (onehot[rows].sum(axis=0) ** 2).sum() / rows.size
                realized = brute_gain(onehot[rows], X[rows, f] <= t, msl)
                assert realized is not None and abs(realized - top) <= TIE_RTOL * (top + parent) + 1e-12
                assert abs(gain - top) <= TIE_RTOL * (top + parent) + 1e-12
                splits += gain > cart.GAIN_EPS
        assert splits == int((tree.left >= 0).sum())


def brute_gain(stats: np.ndarray, go_left: np.ndarray, msl: int) -> float | None:
    """Gini score gain of one cut from its two sides' class sums; None when a side has fewer than msl rows."""
    if min(go_left.sum(), (~go_left).sum()) < msl:
        return None
    side = lambda mask: (stats[mask].sum(axis=0) ** 2).sum() / mask.sum()
    return side(go_left) + side(~go_left) - (stats.sum(axis=0) ** 2).sum() / stats.shape[0]


class TestHistogramReuse:
    """Unsampled levels count the smaller child of each split and get its sibling by subtraction."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_subtracted_histogram_equals_the_direct_one(self, data):
        n, d, k = data.draw(st.integers(2, 60)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        bins, values = cart.rank_codes(rng.integers(0, data.draw(st.integers(1, 9)), size=(n, d)).astype(np.float64))
        n_bins = cart.feature_offsets(values)[-1]
        S = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-3, 4, size=k)
        # a level of parents, each split j sending its rows to children 2j + 1 (left) and 2j + 2
        n_parents = data.draw(st.integers(1, 4))
        parent = rng.integers(0, n_parents, size=n)
        child = 2 * parent + 1 + (rng.random(n) < data.draw(st.floats(0.0, 1.0)))
        size = np.bincount(child, minlength=2 * n_parents + 1)
        above = cart.level_histograms(bins, S, parent, np.arange(n_parents), np.bincount(parent, minlength=2 * n_parents + 1), None, n_bins)
        # score a subset of the children, so some smaller siblings are counted without being scored
        scored = np.flatnonzero(size * rng.integers(0, 2, size=size.size))
        if not scored.size:
            return
        kept = (2 * np.arange(n_parents) + 1, above)
        reused = cart.level_histograms(bins, S, child, scored, size, kept, n_bins)
        direct = cart.level_histograms(bins, S, child, scored, size, None, n_bins)
        np.testing.assert_array_equal(reused[-1], direct[-1])
        assert (reused[-1] == np.round(reused[-1])).all()
        for j in range(k):
            scale = np.abs(S[:, j]).sum()
            np.testing.assert_allclose(reused[j], direct[j], rtol=0, atol=1e-12 * scale)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_levels_from_subtracted_histograms_split_best(self, data):
        # few distinct values, so that levels of up to 4 nodes keep every bin and reuse histograms
        n, d = data.draw(st.integers(30, 80)), data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        X = rng.integers(0, data.draw(st.integers(2, 5)), size=(n, d)).astype(np.float64)
        y = np.round(rng.normal(size=n), 2)
        msl = data.draw(st.integers(1, 3))
        calls, reused = [], []
        search, build = cart._level_splits, cart.level_histograms

        def recording(bins, values, S, node, nodes, size, kept, drawn, msl, keep):
            before = len(reused)
            found, hist = search(bins, values, S, node, nodes, size, kept, drawn, msl, keep)
            # scored whole: the level built its histograms over every bin; the deepest keeps none
            calls.append((node.copy(), nodes, len(reused) > before, found))
            assert (hist is not None) == (len(reused) > before and keep)
            return found, hist

        def building(bins, S, node, nodes, size, kept, n_bins):
            reused.append(kept is not None)
            return build(bins, S, node, nodes, size, kept, n_bins)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cart, "_level_splits", recording)
            patch.setattr(cart, "level_histograms", building)
            bins, values = cart.rank_codes(X)
            tree, leaf = cart.grow_tree(bins, values, y, TreeParams(max_depth=4, min_samples_leaf=msl))
        np.testing.assert_array_equal(leaf, apply(tree, X))
        stats = y[:, None]
        # one call per level; a level scored whole over every bin subtracts when the level above was too
        whole = [False] + [w for _, _, w, _ in calls]
        assert reused == [above for above, here in zip(whole, whole[1:]) if here]
        for node, nodes, _, found in calls:
            for v, gain, f, t, _ in zip(nodes, *found):
                rows = np.flatnonzero(node == v)
                gains = [brute_gain(stats[rows], X[rows, f] <= t, msl) for f in range(d) for t in np.unique(X[rows, f])[:-1]]
                top = max((g for g in gains if g is not None), default=None)
                if gain == -np.inf:
                    assert top is None
                    continue
                parent = (stats[rows].sum(axis=0) ** 2).sum() / rows.size
                realized = brute_gain(stats[rows], X[rows, f] <= t, msl)
                assert realized is not None and abs(realized - top) <= TIE_RTOL * (top + parent) + 1e-9
                assert abs(gain - top) <= TIE_RTOL * (top + parent) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_oblivious_levels_from_subtracted_histograms_split_best(self, data):
        from genoclass.ensemble import boosting

        n, d, depth = data.draw(st.integers(8, 60)), data.draw(st.integers(1, 4)), data.draw(st.integers(2, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        X = rng.integers(0, data.draw(st.integers(2, 8)), size=(n, d)).astype(np.float64)
        g = np.round(rng.normal(size=n), 2)
        reused = []
        build = boosting.level_histograms

        def recording(bins, S, node, nodes, size, kept, n_bins):
            reused.append(kept is not None)
            return build(bins, S, node, nodes, size, kept, n_bins)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(boosting, "level_histograms", recording)
            bins, values = cart.rank_codes(X)
            tree, leaf = boosting._fit_oblivious_structure(bins, values, g, depth)
        np.testing.assert_array_equal(leaf, apply(tree, X))
        # every level below the root is scored in one call and reuses the histograms of the level above
        assert reused == [False] + [True] * (len(reused) - 1)
        cells, node, stats = [np.arange(n)], 0, g[:, None]
        while True:
            # an oblivious level's gain sums its cells' gains; a cell left whole gains 0
            gain = lambda f, t: sum(brute_gain(stats[c], X[c, f] <= t, 1) or 0.0 for c in cells)
            candidates = {(f, t) for f in range(d) for t in (np.unique(X[:, f])[:-1] + np.unique(X[:, f])[1:]) / 2.0}
            top = max((gain(f, t) for f, t in candidates), default=None)
            scale = sum((stats[c].sum() ** 2) / c.size for c in cells if c.size)
            if tree.left[node] < 0:
                assert len(cells) == 2**depth or top is None or top <= cart.GAIN_EPS + TIE_RTOL * scale
                break
            f, t = tree.feature[node], tree.threshold[node]
            assert abs(gain(f, t) - top) <= TIE_RTOL * (top + scale) + 1e-9
            cells = [side for c in cells for side in (c[X[c, f] <= t], c[X[c, f] > t])]
            node = tree.left[node]


class TestBinnedFeatures:
    """A feature with more than MAX_BINS distinct values is cut at row quantiles; every
    split is the best over the bins, and its threshold routes rows as their codes do."""

    @staticmethod
    def binned_problem(data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(cart.MAX_BINS + 1, 2 * cart.MAX_BINS))
        # many distinct values, few values, and a long tail of tied values
        X = np.column_stack([np.round(rng.normal(size=n), 3), rng.integers(0, 4, size=n), np.round(rng.exponential(size=n), 2)])
        return X, rng

    @staticmethod
    def routes_as_codes(X, codes, f, t) -> int:
        """The code a such that X[:, f] <= t holds exactly for the rows (of X and their codes) coded a or lower."""
        left = X[:, f] <= t
        assert left.any() and not left.all()
        a = int(codes[left, f].max())
        assert a < codes[~left, f].min()
        return a

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_bins_hold_consecutive_values(self, data):
        X, _ = self.binned_problem(data)
        bins, values = cart.rank_codes(X)
        codes = bins - cart.feature_offsets(values)[:-1]  # each feature's own code, bins[:, f] - offsets[f]
        for f, (lo, hi) in enumerate(values):
            distinct = np.unique(X[:, f])
            assert lo.size == min(distinct.size, cart.MAX_BINS) or cart.MAX_BINS // 2 < lo.size < cart.MAX_BINS
            np.testing.assert_array_equal(lo, [X[codes[:, f] == c, f].min() for c in range(lo.size)])
            np.testing.assert_array_equal(hi, [X[codes[:, f] == c, f].max() for c in range(lo.size)])
            assert (hi[:-1] < lo[1:]).all()
            if distinct.size <= cart.MAX_BINS:
                np.testing.assert_array_equal(lo, distinct)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_global_bins_lie_in_their_feature_range_in_value_order(self, data):
        if data.draw(st.booleans()):
            X, _ = self.binned_problem(data)
        else:
            n, d = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 4))
            X = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n * d, max_size=n * d))).reshape(n, d)
        bins, values = cart.rank_codes(X)
        offsets = cart.feature_offsets(values)
        assert bins.dtype == np.intp and bins.shape == X.shape
        for f in range(X.shape[1]):
            # feature f's rows fill exactly the bins [offsets[f], offsets[f + 1])
            np.testing.assert_array_equal(np.unique(bins[:, f]), np.arange(offsets[f], offsets[f + 1]))
            # within the feature, a larger value never has a lower bin, and equal values share one
            order = np.argsort(X[:, f], kind="stable")
            step, rise = np.diff(bins[order, f]), np.diff(X[order, f])
            assert (step >= 0).all() and (step[rise == 0] == 0).all()

    @pytest.mark.parametrize("criterion, mtry", [("variance", None), ("gini", None), ("gini", 2)], ids=["greedy-variance", "greedy-gini", "mtry"])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_splits_are_the_best_over_the_bins(self, criterion, mtry, data):
        X, rng = self.binned_problem(data)
        S = np.eye(3)[rng.integers(0, 3, size=X.shape[0])] if criterion == "gini" else np.round(rng.normal(size=(X.shape[0], 1)), 2)
        msl = data.draw(st.integers(1, 5))
        params = TreeParams(criterion, data.draw(st.integers(1, 3)), msl, mtry, data.draw(st.integers(0, 2**32 - 1)))
        bins, values = cart.rank_codes(X)
        codes = bins - cart.feature_offsets(values)[:-1]
        calls, search = [], cart._level_splits

        def recording(bins, values, S, node, nodes, size, kept, drawn, msl, keep):
            found, hist = search(bins, values, S, node, nodes, size, kept, drawn, msl, keep)
            calls.append(([np.flatnonzero(node == v) for v in nodes], drawn, found))
            return found, hist

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cart, "_level_splits", recording)
            tree, leaf = cart.grow_tree(bins, values, S, params)
        np.testing.assert_array_equal(leaf, apply(tree, X))
        for groups, drawn, found in calls:
            for i, (rows, gain, f, t, _) in enumerate(zip(groups, *found)):
                features = range(X.shape[1]) if drawn is None else drawn[i]
                gains = [brute_gain(S[rows], codes[rows, g] <= c, msl) for g in features for c in np.unique(codes[rows, g])[:-1]]
                top = max((g for g in gains if g is not None), default=None)
                if gain == -np.inf:
                    assert top is None
                    continue
                parent = (S[rows].sum(axis=0) ** 2).sum() / rows.size
                # the threshold lies between the node's bins, so it routes the node's rows as their codes do
                a = self.routes_as_codes(X[rows], codes[rows], f, t)
                realized = brute_gain(S[rows], codes[rows, f] <= a, msl)
                assert realized is not None and abs(realized - top) <= TIE_RTOL * (top + parent) + 1e-9
                assert abs(gain - top) <= TIE_RTOL * (top + parent) + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_oblivious_levels_are_the_best_over_the_bins(self, data):
        from genoclass.ensemble import boosting

        X, rng = self.binned_problem(data)
        S = np.round(rng.normal(size=(X.shape[0], data.draw(st.integers(1, 2)))), 2)
        depth = data.draw(st.integers(1, 3))
        bins, values = cart.rank_codes(X)
        codes = bins - cart.feature_offsets(values)[:-1]
        tree, leaf = boosting._fit_oblivious_structure(bins, values, S, depth)
        np.testing.assert_array_equal(leaf, apply(tree, X))
        cells, node = [np.arange(X.shape[0])], 0
        while True:
            # a level's gain sums its cells' gains; a cell the cut leaves whole gains 0
            gain = lambda f, a: sum(brute_gain(S[c], codes[c, f] <= a, 1) or 0.0 for c in cells)
            top = max(gain(f, a) for f in range(X.shape[1]) for a in range(values[f].shape[1] - 1))
            scale = sum((S[c].sum(axis=0) ** 2).sum() / c.size for c in cells if c.size)
            if tree.left[node] < 0:
                assert len(cells) == 2**depth or top <= cart.GAIN_EPS + TIE_RTOL * scale
                break
            f, t = tree.feature[node], tree.threshold[node]
            # every row lies in a cell, so the threshold routes every row as its code does
            assert abs(gain(f, self.routes_as_codes(X, codes, f, t)) - top) <= TIE_RTOL * (top + scale) + 1e-9
            cells = [side for c in cells for side in (c[X[c, f] <= t], c[X[c, f] > t])]
            node = tree.left[node]
