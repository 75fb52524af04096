"""Random forest of CART trees plus margin/strength/correlation diagnostics.

Each tree grows on one-hot class columns, so its leaves hold class counts,
over a bootstrap resample (of rank codes computed once per fit), searching
mtry features drawn per node, and casts one vote (its leaf's plurality
class) per row; the forest predicts the vote-fraction argmax.
Diagnostics summarize the ensemble by the margin

    mg(x, y) = votes_for(y)/B - max_{j != y} votes_for(j)/B

its mean s (strength), the mean pairwise correlation rho_bar of per-tree raw
margins, and the generalization bound rho_bar * (1 - s^2) / s^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..codec import JsonCodec, write_csv_rows
from ..dataset import Dataset, supervised_arrays
from ..errors import ArgumentError, DataTypeError, DegenerateDataError
from .cart import Tree, TreeParams, feature_rows, grow_tree, predict_tree, rank_codes


@dataclass(frozen=True)
class ForestConfig(JsonCodec):
    """Ensemble shape and sampling settings.

    Args:
        trees: ensemble size B.
        mtry: features drawn per node; None = floor(sqrt(d)), at least 1.
        max_depth: per-tree depth limit; None = unlimited.
        min_samples_leaf: smallest row count per leaf.
        bootstrap: draw n rows with replacement per tree; False trains every
            tree on the full sample (useful to reduce to a single CART).
        seed: master seed; per-tree seeds derive from it.
    """

    trees: int = 100
    mtry: int | None = None
    max_depth: int | None = None
    min_samples_leaf: int = 1
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trees < 1:
            raise ArgumentError("forest needs at least 1 tree")
        if self.mtry is not None and self.mtry < 1:
            raise ArgumentError("mtry must be >= 1 or None")
        if self.min_samples_leaf < 1:
            raise ArgumentError("min_samples_leaf must be >= 1")


@dataclass
class ForestModel(JsonCodec):
    """Fitted ensemble: classification trees plus the labels they vote over."""

    feature_names: tuple[str, ...]
    class_labels: tuple[str, ...]
    trees: list[Tree]
    tree_seeds: tuple[int, ...]
    config: ForestConfig = field(default_factory=ForestConfig)

    def __post_init__(self) -> None:
        """Every tree holds one class-count column per class label; raises ArgumentError."""
        k = len(self.class_labels)
        if any(tree.value.shape != (tree.feature.size, k) for tree in self.trees):
            raise ArgumentError(f"forest tree values must have shape (n_nodes, {k})")

    def tree_votes(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predicted class codes, shape (B, n); vote ties go to the lowest code."""
        X = feature_rows(X, len(self.feature_names))
        votes = np.empty((len(self.trees), X.shape[0]), dtype=np.int64)
        for t, tree in enumerate(self.trees):
            votes[t] = np.argmax(predict_tree(tree, X), axis=1)
        return votes

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Vote fractions per class; rows sum to 1."""
        return _vote_fractions(self.tree_votes(X), len(self.class_labels))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


def _vote_fractions(votes: np.ndarray, k: int) -> np.ndarray:
    """Share of the trees voting for each of k classes, (n, k), from (B, n) votes."""
    out, rows = np.zeros((votes.shape[1], k)), np.arange(votes.shape[1])
    for tree_votes in votes:
        out[rows, tree_votes] += 1.0
    return out / votes.shape[0]


def fit_random_forest(ds: Dataset, target: str, config: ForestConfig = ForestConfig()) -> ForestModel:
    """Train B bootstrap trees; deterministic for fixed (data, config)."""
    X, y, labels, feature_names = supervised_arrays(ds, target, discrete=True)
    n = X.shape[0]
    mtry = config.mtry if config.mtry is not None else max(1, int(math.sqrt(X.shape[1])))
    params = TreeParams("gini", config.max_depth, config.min_samples_leaf, mtry)
    codes, values = rank_codes(X)
    onehot = np.eye(len(labels))[y]
    master = np.random.default_rng(config.seed)
    trees: list[Tree] = []
    seeds: list[int] = []
    for _ in range(config.trees):
        tree_seed = int(master.integers(2**32))
        seeds.append(tree_seed)
        tree_rng = np.random.default_rng(tree_seed)
        rows = tree_rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        trees.append(grow_tree(codes[rows], values, onehot[rows], replace(params, seed=int(tree_rng.integers(2**32))))[0])
    return ForestModel(
        feature_names=tuple(feature_names),
        class_labels=labels,
        trees=trees,
        tree_seeds=tuple(seeds),
        config=config,
    )


@dataclass(frozen=True)
class ForestDiagnostics:
    """Margin distribution and the strength/correlation generalization bound.

    ``bound`` is rho_bar * (1 - s^2) / s^2 for strength s > 0 and +inf
    otherwise (the bound is vacuous at non-positive strength).
    """

    margins: np.ndarray
    strength: float
    rho_bar: float
    bound: float

    def to_csv(self, path: str | Path) -> None:
        """Per-row margins followed by the three summary values."""
        write_csv_rows(path, ["row_id", "margin"], [
            *([i, repr(float(m))] for i, m in enumerate(self.margins)),
            ["s", repr(self.strength)],
            ["rho_bar", repr(self.rho_bar)],
            ["bound", "inf" if math.isinf(self.bound) else repr(self.bound)],
        ])


def forest_diagnostics(forest: ForestModel, data: Dataset, target: str) -> ForestDiagnostics:
    """Margins, strength, raw-margin correlation, and the error bound on labeled data.

    Per row: margin = vote fraction of the true class minus the largest
    wrong-class vote fraction; the per-tree raw margin is I(vote = truth) -
    I(vote = most-voted wrong class). rho_bar averages Pearson correlation
    over all tree pairs; a pair where either raw-margin vector is constant
    correlates 1 if the vectors are identical and 0 otherwise.
    """
    if len(forest.trees) < 2:
        raise DegenerateDataError("raw-margin correlation needs at least 2 trees")
    col = data.schema_of(target)
    if not col.discrete:
        raise DataTypeError(f"target column {target!r} must be categorical or binary")
    if data.missing_mask(target).any():
        raise DataTypeError(f"target column {target!r} has missing values")
    X = data.matrix(forest.feature_names)
    y = data.values(target).astype(np.int64)

    votes = forest.tree_votes(X)
    n_trees, n = votes.shape
    fractions = _vote_fractions(votes, len(forest.class_labels))
    rows = np.arange(n)

    true_frac = fractions[rows, y]
    wrong = np.array(fractions, copy=True)
    wrong[rows, y] = -1.0
    j_hat = np.argmax(wrong, axis=1)
    margins = true_frac - wrong[rows, j_hat]

    raw = (votes == y[None, :]).astype(np.float64) - (votes == j_hat[None, :]).astype(np.float64)
    centered = raw - raw.mean(axis=1, keepdims=True)
    sd = np.sqrt((centered * centered).mean(axis=1))
    cov = (centered @ centered.T) / n

    total = 0.0
    pairs = 0
    for u in range(n_trees):
        for v in range(u + 1, n_trees):
            if sd[u] == 0.0 or sd[v] == 0.0:
                corr = 1.0 if np.array_equal(raw[u], raw[v]) else 0.0
            else:
                corr = float(cov[u, v] / (sd[u] * sd[v]))
            total += corr
            pairs += 1
    rho_bar = total / pairs

    s = float(margins.mean())
    bound = math.inf if s <= 0 else rho_bar * (1.0 - s * s) / (s * s)
    margins.setflags(write=False)
    return ForestDiagnostics(margins=margins, strength=s, rho_bar=rho_bar, bound=float(bound))
