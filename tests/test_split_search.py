"""Property tests for the greedy split search shared by CART and GBDT trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_dataset
from genoclass.ensemble.boosting import GbdtConfig, fit_gbdt, goss_gain, goss_sample
from genoclass.ensemble.cart import GAIN_EPS, TreeParams, fit_tree

TOL = 1e-9


def brute_gain(x: np.ndarray, y: np.ndarray, t: float, criterion: str) -> float:
    """Impurity drop of splitting at x <= t, in row-weighted units, computed side by side."""

    def cost(part: np.ndarray) -> float:
        if criterion == "variance":
            return float(((part - part.mean()) ** 2).sum())
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
        root = fit_tree(X, y, TreeParams(criterion=criterion, max_depth=1, min_samples_leaf=msl))
        best = max((brute_gain(X[:, f], y, t, criterion) for f, t in candidates(X, msl)), default=None)
        if root.is_leaf:
            assert best is None or best <= GAIN_EPS + TOL
            return
        assert best is not None
        f, t = root.feature, root.threshold
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
        root = fit_gbdt(ds, "y", cfg).trees[0][0]
        assert not root.is_leaf

        # round 0's residuals and sample, drawn as fit_gbdt draws them
        g = y - y.mean()
        sample = goss_sample(np.sqrt(g * g), cfg.a, cfg.b, seed=int(np.random.default_rng(cfg.seed).integers(2**32)))
        assert sample.weight > 1.0
        best = max(
            goss_gain(X[:, f], g, t, sample) for f in range(X.shape[1]) for t in midpoints(X[sample.indices, f])
        )
        assert goss_gain(X[:, root.feature], g, root.threshold, sample) >= best - TOL
