"""CART base learner: greedy binary trees for regression and classification.

Split search enumerates midpoints between adjacent distinct sorted values
per feature and scores them all with one prefix-sum scan over a per-row
statistic matrix: a single target column gives the squared-error reduction
(regression), one-hot class columns give the Gini impurity reduction
(classification).
Ties are broken toward the lowest feature index, then the lowest threshold,
so fits are deterministic. Rows route left when value <= threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ArgumentError

CRITERIA = ("variance", "gini")

#: split gains at or below this are treated as zero (stop growing)
GAIN_EPS = 1e-12


@dataclass
class TreeNode:
    """One node: internal (feature/threshold/children) or leaf (value).

    Leaf payloads are a float (regression mean or boosting leaf score) or a
    class-count vector (classification). ``left is None`` marks a leaf.
    """

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float | np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_json(self) -> dict:
        return tree_to_json(self)

    @staticmethod
    def from_json(doc: dict) -> "TreeNode":
        return tree_from_json(doc)


@dataclass(frozen=True)
class TreeParams:
    """Growth limits and split-search settings for one tree.

    Args:
        criterion: "variance" (regression, real y) or "gini" (classification,
            integer class codes).
        max_depth: deepest allowed internal level; None = unlimited; 0 means
            the tree is a single leaf.
        min_samples_leaf: smallest row count either side of a split may have.
        mtry: features sampled (without replacement) per split; None = all.
        seed: generator seed for the mtry sampling stream.
        n_classes: class-count-vector length for gini trees; None infers
            max(y)+1 from the training labels.
    """

    criterion: str = "variance"
    max_depth: int | None = None
    min_samples_leaf: int = 1
    mtry: int | None = None
    seed: int = 0
    n_classes: int | None = None

    def __post_init__(self) -> None:
        if self.criterion not in CRITERIA:
            raise ArgumentError(f"unknown split criterion {self.criterion!r}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ArgumentError("max_depth must be >= 0 or None")
        if self.min_samples_leaf < 1:
            raise ArgumentError("min_samples_leaf must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise ArgumentError("mtry must be >= 1 or None")


def _best_split(X: np.ndarray, S: np.ndarray, features: Sequence[int], msl: int) -> tuple[float, int, float] | None:
    """Highest gain over candidate (feature, midpoint) splits of one node.

    S holds per-row statistics, one column each (the target for variance,
    one-hot class indicators for gini). With L, R and T the left, right and
    node column sums, the gain is sum_j (L_j^2/n_l + R_j^2/n_r) - sum_j T_j^2/n:
    the squared-error reduction for one target column and the drop in
    size-weighted Gini impurity for one-hot columns.
    """
    n = S.shape[0]
    tot = S.sum(axis=0)
    parent = float((tot * tot).sum() / n)
    best: tuple[float, int, float] | None = None
    for f in features:
        v = X[:, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        cuts = np.flatnonzero(vs[:-1] < vs[1:])
        if cuts.size == 0:
            continue
        n_l = (cuts + 1).astype(np.float64)
        n_r = n - n_l
        valid = (n_l >= msl) & (n_r >= msl)
        if not valid.any():
            continue
        cum = np.cumsum(S[order], axis=0)[cuts]
        score_l = (cum * cum).sum(axis=1) / n_l
        score_r = ((tot - cum) ** 2).sum(axis=1) / n_r
        gains = np.where(valid, score_l + score_r - parent, -np.inf)
        i = int(np.argmax(gains))
        if best is None or gains[i] > best[0]:
            best = (float(gains[i]), f, float((vs[cuts[i]] + vs[cuts[i] + 1]) / 2.0))
    return best


def fit_tree(X: np.ndarray, y: np.ndarray, params: TreeParams = TreeParams()) -> TreeNode:
    """Grow one greedy CART tree.

    Args:
        X: n x d feature matrix (category codes consumed as ordinals).
        y: length-n real targets (variance) or integer class codes (gini).
        params: growth limits; see TreeParams.

    Growth stops at max_depth, when a split cannot respect
    min_samples_leaf, or when no candidate improves the criterion.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ArgumentError("X must be a 2-D matrix")
    if X.shape[0] == 0:
        raise ArgumentError("cannot fit a tree on zero rows")
    if not np.isfinite(X).all():
        raise ArgumentError("feature matrix contains non-finite values")
    y_len = np.asarray(y).reshape(-1).shape[0]
    if y_len != X.shape[0]:
        raise ArgumentError(f"y has {y_len} entries, expected {X.shape[0]}")

    if params.criterion == "gini":
        codes = np.asarray(y, dtype=np.int64).reshape(-1)
        if codes.min() < 0:
            raise ArgumentError("class codes must be non-negative")
        k = params.n_classes if params.n_classes is not None else int(codes.max()) + 1
        if codes.max() >= k:
            raise ArgumentError(f"class code {int(codes.max())} outside [0, {k})")
        S = np.zeros((codes.size, k))
        S[np.arange(codes.size), codes] = 1.0
    else:
        S = np.asarray(y, dtype=np.float64).reshape(-1, 1)
        if not np.isfinite(S).all():
            raise ArgumentError("targets contain non-finite values")

    rng = np.random.default_rng(params.seed)
    d = X.shape[1]

    def leaf(rows: np.ndarray) -> TreeNode:
        if params.criterion == "gini":
            return TreeNode(value=S[rows].sum(axis=0))
        return TreeNode(value=float(S[rows].mean()))

    def grow(rows: np.ndarray, depth: int) -> TreeNode:
        if params.max_depth is not None and depth >= params.max_depth:
            return leaf(rows)
        if rows.size < 2 * params.min_samples_leaf or rows.size < 2:
            return leaf(rows)
        if params.mtry is not None and params.mtry < d:
            features = np.sort(rng.choice(d, size=params.mtry, replace=False))
        else:
            features = np.arange(d)
        sub_x = X[rows]
        found = _best_split(sub_x, S[rows], features, params.min_samples_leaf)
        if found is None or found[0] <= GAIN_EPS:
            return leaf(rows)
        gain, f, t = found
        go_left = sub_x[:, f] <= t
        return TreeNode(
            feature=int(f),
            threshold=t,
            left=grow(rows[go_left], depth + 1),
            right=grow(rows[~go_left], depth + 1),
        )

    return grow(np.arange(X.shape[0]), 0)


def predict_tree(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """Leaf payloads for each row: (n,) values or (n, k) class-count vectors."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    probe = root
    while not probe.is_leaf:
        probe = probe.left
    if np.ndim(probe.value) == 0:
        out = np.zeros(X.shape[0])
    else:
        out = np.zeros((X.shape[0], len(probe.value)))

    def route(node: TreeNode, rows: np.ndarray) -> None:
        if node.is_leaf:
            out[rows] = node.value
            return
        if node.feature >= X.shape[1]:
            raise ArgumentError(f"tree expects feature index {node.feature}, matrix has {X.shape[1]} columns")
        go_left = X[rows, node.feature] <= node.threshold
        route(node.left, rows[go_left])
        route(node.right, rows[~go_left])

    route(root, np.arange(X.shape[0]))
    return out


def tree_depth(root: TreeNode) -> int:
    if root.is_leaf:
        return 0
    return 1 + max(tree_depth(root.left), tree_depth(root.right))


def tree_to_json(node: TreeNode) -> dict:
    if node.is_leaf:
        if np.ndim(node.value) == 0:
            return {"leaf": float(node.value)}
        return {"leaf": [float(v) for v in node.value]}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": tree_to_json(node.left),
        "right": tree_to_json(node.right),
    }


def tree_from_json(doc: dict) -> TreeNode:
    if "leaf" in doc:
        value = doc["leaf"]
        if isinstance(value, list):
            return TreeNode(value=np.asarray(value, dtype=np.float64))
        return TreeNode(value=float(value))
    return TreeNode(
        feature=int(doc["feature"]),
        threshold=float(doc["threshold"]),
        left=tree_from_json(doc["left"]),
        right=tree_from_json(doc["right"]),
    )
