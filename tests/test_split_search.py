"""Property tests for the greedy split search shared by CART and GBDT trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_dataset, xy_dataset
from genoclass.ensemble.boosting import GbdtConfig, fit_gbdt, goss_gain, goss_sample, loss_gradients
from genoclass.ensemble.cart import GAIN_EPS, TreeParams, fit_tree

TOL = 1e-9


def brute_gain(x: np.ndarray, y: np.ndarray, t: float, criterion: str) -> float:
    """Impurity drop of splitting at x <= t, in row-weighted units, computed side by side."""

    def cost(part: np.ndarray) -> float:
        if criterion == "variance":
            # summed over the columns of a statistic matrix
            return float(((part - part.mean(axis=0)) ** 2).sum())
        counts = np.bincount(part)
        return part.size - float((counts * counts).sum()) / part.size

    left = x <= t
    return cost(y) - cost(y[left]) - cost(y[~left])


def midpoints(x: np.ndarray) -> np.ndarray:
    values = np.unique(x)
    return (values[:-1] + values[1:]) / 2.0


def candidates(X: np.ndarray, msl: int):
    """Every (feature, midpoint) that leaves at least msl rows on each side."""
    for f in range(X.shape[1]):
        for t in midpoints(X[:, f]):
            n_left = int((X[:, f] <= t).sum())
            if min(n_left, X.shape[0] - n_left) >= msl:
                yield f, t


@st.composite
def split_problems(draw, criterion):
    """Small matrices of few distinct integer values, so that ties abound."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    X = draw(hnp.arrays(np.float64, (n, d), elements=st.integers(0, 3).map(float)))
    if criterion == "gini":
        y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2)))
    else:
        y = draw(hnp.arrays(np.float64, n, elements=st.integers(-20, 20).map(lambda v: v / 4.0)))
    return X, y, draw(st.integers(1, 5))


@pytest.mark.parametrize("criterion", ["variance", "gini"])
class TestRootSplitProperties:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_root_split_is_a_best_valid_midpoint(self, criterion, data):
        X, y, msl = data.draw(split_problems(criterion))
        tree = fit_tree(X, y, TreeParams(criterion=criterion, max_depth=1, min_samples_leaf=msl))
        best = max((brute_gain(X[:, f], y, t, criterion) for f, t in candidates(X, msl)), default=None)
        if tree.left[0] < 0:
            assert best is None or best <= GAIN_EPS + TOL
            return
        assert best is not None
        f, t = tree.feature[0], tree.threshold[0]
        assert brute_gain(X[:, f], y, t, criterion) >= best - TOL
        values = np.unique(X[:, f])
        assert ((values[:-1] < t) & (t < values[1:])).sum() == 1
        n_left = int((X[:, f] <= t).sum())
        assert n_left >= msl and X.shape[0] - n_left >= msl


class TestGossRootSplit:
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_root_split_maximizes_goss_gain(self, seed):
        rng = np.random.default_rng(seed)
        n = 90
        X = np.column_stack([rng.integers(0, 5, n), rng.integers(0, 3, n), rng.normal(size=n)]).astype(np.float64)
        y = X[:, 0] - 2.0 * (X[:, 1] == 1) + rng.normal(size=n)
        cols = [("x0", "numeric"), ("x1", "numeric"), ("x2", "numeric"), ("y", "numeric")]
        ds = make_dataset(cols, {"x0": X[:, 0], "x1": X[:, 1], "x2": X[:, 2], "y": y})
        cfg = GbdtConfig(loss="squared", rounds=1, max_depth=1, variant="goss", a=0.2, b=0.3, seed=seed)
        tree = fit_gbdt(ds, "y", cfg).trees[0]
        assert tree.left[0] >= 0

        # round 0's residuals and sample, drawn as fit_gbdt draws them
        g = y - y.mean()
        sample = goss_sample(np.sqrt(g * g), cfg.a, cfg.b, seed=int(np.random.default_rng(cfg.seed).integers(2**32)))
        assert sample.weight > 1.0
        best = max(
            goss_gain(X[:, f], g, t, sample) for f in range(X.shape[1]) for t in midpoints(X[sample.indices, f])
        )
        assert goss_gain(X[:, tree.feature[0]], g, tree.threshold[0], sample) >= best - TOL


# -- whole trees from the histogram kernel ------------------------------------------


def best_candidate_gain(X: np.ndarray, y: np.ndarray, msl: int, criterion: str):
    return max((brute_gain(X[:, f], y, t, criterion) for f, t in candidates(X, msl)), default=None)


def assert_greedy_tree(tree, X, y, criterion, msl, max_depth):
    """Every internal node holds a brute-force best split of its rows; no leaf could still split."""
    stack = [(0, np.arange(X.shape[0]), 0)]
    split = np.cumsum(tree.left >= 0) - 1  # an internal node's rank, which indexes feature and threshold
    while stack:
        node, rows, depth = stack.pop()
        best = best_candidate_gain(X[rows], y[rows], msl, criterion)
        if tree.left[node] < 0:
            if depth < max_depth:
                assert best is None or best <= GAIN_EPS + TOL * max(1.0, abs(best))
            continue
        f, t = tree.feature[split[node]], tree.threshold[split[node]]
        assert best is not None
        assert brute_gain(X[rows, f], y[rows], t, criterion) >= best - TOL * max(1.0, abs(best))
        assert t in set(midpoints(X[rows, f]))
        left = X[rows, f] <= t
        assert min(left.sum(), (~left).sum()) >= msl
        stack += [(tree.left[node], rows[left], depth + 1), (tree.right[node], rows[~left], depth + 1)]


def level_tests_of(tree) -> list[tuple[int, float]]:
    """(feature, threshold) of each level of an oblivious tree, read down the left spine;
    in heap order the internal nodes come first, so a node's id is its internal rank."""
    out, node = [], 0
    while tree.left[node] >= 0:
        out.append((tree.feature[node], tree.threshold[node]))
        node = tree.left[node]
    return out


def level_score(cells: list[np.ndarray], x: np.ndarray, g: np.ndarray, t: float) -> float:
    """sum over cells, sides and the columns of g (a vector is one column) of (column sum)^2 / rows."""
    total = 0.0
    for rows in cells:
        for side in (x[rows] <= t, x[rows] > t):
            if side.any():
                total += float((g[rows][side].sum(axis=0) ** 2).sum()) / side.sum()
    return total


def oblivious_problems():
    return st.tuples(
        st.integers(8, 50).flatmap(
            lambda n: st.tuples(
                hnp.arrays(np.float64, (n, 3), elements=st.integers(0, 4).map(float)),
                hnp.arrays(np.float64, n, elements=st.integers(-40, 40).map(lambda v: v / 8.0)),
            )
        ),
        st.integers(1, 3),
    )


def oblivious_fit(X: np.ndarray, y: np.ndarray, depth: int):
    cols = [(f"x{j}", "numeric") for j in range(X.shape[1])] + [("y", "numeric")]
    ds = make_dataset(cols, {**{f"x{j}": X[:, j] for j in range(X.shape[1])}, "y": y})
    cfg = GbdtConfig(loss="squared", rounds=1, max_depth=depth, variant="oblivious")
    return fit_gbdt(ds, "y", cfg).trees[0]


@pytest.mark.parametrize("criterion", ["variance", "gini"])
class TestGreedyTreeProperties:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_node_holds_a_best_split(self, criterion, data):
        X, y, msl = data.draw(split_problems(criterion))
        depth = data.draw(st.integers(2, 4))
        tree = fit_tree(X, y, TreeParams(criterion=criterion, max_depth=depth, min_samples_leaf=msl))
        assert_greedy_tree(tree, X, y, criterion, msl, depth)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_ties_go_to_the_lower_of_two_equal_columns(self, criterion, data):
        """A strictly monotone copy of a column, placed last, splits exactly as the column does."""
        X, y, msl = data.draw(split_problems(criterion))
        if criterion == "variance":
            y = data.draw(hnp.arrays(np.float64, y.size, elements=st.floats(-100, 100, allow_subnormal=False)))
        j = data.draw(st.integers(0, X.shape[1] - 1))
        slope = data.draw(st.sampled_from([-3.0, -1.0, -0.5, 2.0]))
        X = np.column_stack([X, slope * X[:, j] + 1.0])
        tree = fit_tree(X, y, TreeParams(criterion=criterion, max_depth=3, min_samples_leaf=msl))
        assert (tree.feature != X.shape[1] - 1).all()


class TestGossTreeProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_node_holds_a_best_weighted_split(self, data):
        n = data.draw(st.integers(20, 60))
        X = data.draw(hnp.arrays(np.float64, (n, 3), elements=st.integers(0, 3).map(float)))
        y = data.draw(hnp.arrays(np.float64, n, elements=st.integers(-20, 20).map(lambda v: v / 4.0)))
        msl, depth, seed = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 3)), data.draw(st.integers(0, 99))
        cols = [(f"x{j}", "numeric") for j in range(3)] + [("y", "numeric")]
        ds = make_dataset(cols, {**{f"x{j}": X[:, j] for j in range(3)}, "y": y})
        cfg = GbdtConfig(loss="squared", rounds=1, max_depth=depth, min_samples_leaf=msl, variant="goss", a=0.3, b=0.5, seed=seed)
        tree = fit_gbdt(ds, "y", cfg).trees[0]

        # round 0's residuals and sample, drawn as fit_gbdt draws them
        g = y - float(y.mean())
        sample = goss_sample(np.sqrt(g * g), cfg.a, cfg.b, seed=int(np.random.default_rng(seed).integers(2**32)))
        stats = sample.row_weights * g[sample.indices]
        assert_greedy_tree(tree, X[sample.indices], stats, "variance", msl, depth)


class TestObliviousLevelProperties:
    @settings(max_examples=100, deadline=None)
    @given(problem=oblivious_problems())
    def test_each_level_maximizes_the_summed_score(self, problem):
        (X, y), depth = problem
        levels = level_tests_of(oblivious_fit(X, y, depth))
        g = y - float(y.mean())
        cells = [np.arange(y.size)]
        for level in range(depth):
            # every row lies in a cell, so the candidates are the cuts between adjacent values of X
            pool = {(f, t) for f in range(X.shape[1]) for t in midpoints(X[:, f])}
            scores = {c: level_score(cells, X[:, c[0]], g, c[1]) for c in pool}
            parent = level_score(cells, np.zeros(y.size), g, 0.0)
            best = max(scores.values(), default=None)
            if level == len(levels):
                assert best is None or best - parent <= GAIN_EPS + TOL * max(1.0, best)
                return
            f, t = levels[level]
            assert (f, t) in pool
            assert scores[f, t] >= best - TOL * max(1.0, best)
            cells = [side for cell in cells for side in (cell[X[cell, f] <= t], cell[X[cell, f] > t])]

    @settings(max_examples=100, deadline=None)
    @given(problem=oblivious_problems(), data=st.data())
    def test_ties_go_to_the_lower_of_two_equal_columns(self, problem, data):
        (X, _), depth = problem
        y = data.draw(hnp.arrays(np.float64, X.shape[0], elements=st.floats(-100, 100, allow_subnormal=False)))
        j = data.draw(st.integers(0, X.shape[1] - 1))
        slope = data.draw(st.sampled_from([-3.0, -1.0, -0.5, 2.0]))
        X = np.column_stack([X, slope * X[:, j] + 1.0])
        assert all(f != X.shape[1] - 1 for f, _ in level_tests_of(oblivious_fit(X, y, depth)))


class TestMulticlassTreeProperties:
    """One tree per round serves every class: its splits maximize the gain summed over the k residual columns."""

    @staticmethod
    def first_round(data, variant):
        k = data.draw(st.integers(2, 4))
        n = data.draw(st.integers(8, 50))
        X = data.draw(hnp.arrays(np.float64, (n, 3), elements=st.integers(0, 3).map(float)))
        y = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
        msl, depth = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        cfg = GbdtConfig(rounds=1, max_depth=depth, min_samples_leaf=msl, variant=variant)
        model = fit_gbdt(xy_dataset(X, y, n_classes=k), "y", cfg)
        # round 0's residuals, from the class-prior scores every row starts at
        residuals = loss_gradients(cfg.loss, y, np.tile(model.f0, (n, 1)))[0]
        return X, residuals, msl, depth, model.trees[0]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_plain_node_holds_the_best_summed_split(self, data):
        X, S, msl, depth, tree = self.first_round(data, "plain")
        assert tree.value.shape == (tree.left.size - tree.feature.size, S.shape[1])
        assert_greedy_tree(tree, X, S, "variance", msl, depth)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_oblivious_level_holds_the_best_summed_test(self, data):
        X, S, _, depth, tree = self.first_round(data, "oblivious")
        assert tree.value.shape == (tree.left.size - tree.feature.size, S.shape[1])
        levels, cells = level_tests_of(tree), [np.arange(X.shape[0])]
        for level in range(depth):
            pool = {(f, t) for f in range(X.shape[1]) for t in midpoints(X[:, f])}
            scores = {c: level_score(cells, X[:, c[0]], S, c[1]) for c in pool}
            parent = level_score(cells, np.zeros(X.shape[0]), S, 0.0)
            best = max(scores.values(), default=None)
            if level == len(levels):
                assert best is None or best - parent <= GAIN_EPS + TOL * max(1.0, best)
                return
            f, t = levels[level]
            assert (f, t) in pool
            assert scores[f, t] >= best - TOL * max(1.0, best)
            cells = [side for cell in cells for side in (cell[X[cell, f] <= t], cell[X[cell, f] > t])]
