"""CART base learner: greedy binary trees for regression and classification.

A fit rank-codes each feature once; the split kernel (``split_scores``)
then scores every cut from ``np.bincount`` histograms of a per-row
statistic matrix over the codes, sorting nothing. One target column gives
the squared-error reduction, one-hot class columns the Gini impurity
reduction. Thresholds are midpoints between adjacent distinct values in the
node. An unsampled tree grows level by level, one kernel call per level; an
``mtry`` tree grows depth first, one call per node, drawing its features in
the order of a recursive fit. Gains within ``TIE_RTOL`` of the best tie,
broken toward the lowest feature, then the lowest threshold. Rows route
left when value <= threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ArgumentError

CRITERIA = ("variance", "gini")

#: split gains at or below this are treated as zero (stop growing)
GAIN_EPS = 1e-12

#: a gain within TIE_RTOL * (best gain + parent score) of the best is a tie; the
#: scale counts the children, as boosting residuals can sum to a zero parent
TIE_RTOL = 1e-9

#: most nodes one kernel call scores, which bounds memory on wide levels
NODES_PER_CALL = 16


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
        if self.is_leaf:
            return {"leaf": float(self.value) if np.ndim(self.value) == 0 else [float(v) for v in self.value]}
        return {"feature": self.feature, "threshold": self.threshold, "left": self.left.to_json(), "right": self.right.to_json()}

    @staticmethod
    def from_json(doc: dict) -> "TreeNode":
        if "leaf" in doc:
            value = doc["leaf"]
            return TreeNode(value=np.asarray(value, dtype=np.float64) if isinstance(value, list) else float(value))
        left, right = TreeNode.from_json(doc["left"]), TreeNode.from_json(doc["right"])
        return TreeNode(feature=int(doc["feature"]), threshold=float(doc["threshold"]), left=left, right=right)


tree_to_json = TreeNode.to_json
tree_from_json = TreeNode.from_json


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


def rank_codes(X: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Rank codes of X (int32, n x d) and each feature's sorted distinct values; X must be finite."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ArgumentError("X must be a 2-D matrix")
    if X.shape[0] == 0:
        raise ArgumentError("cannot fit a tree on zero rows")
    if not np.isfinite(X).all():
        raise ArgumentError("feature matrix contains non-finite values")
    pairs = [np.unique(X[:, f], return_inverse=True) for f in range(X.shape[1])]
    codes = np.empty(X.shape, dtype=np.int32)
    for f, (_, inverse) in enumerate(pairs):
        codes[:, f] = inverse.reshape(-1)
    return codes, tuple(values for values, _ in pairs)


def split_scores(bins: np.ndarray, S: np.ndarray, node: np.ndarray, n_nodes: int, start: np.ndarray):
    """The split kernel: score every cut of every (node, feature) from histograms.

    bins (m x F) holds each row's bin per chosen feature, a feature's bins
    consecutive in value order, start[b] the first bin of b's feature; S
    (m x k) holds per-row statistics. Returns n_nodes x B arrays count, n_left
    (rows in, and at or below, the bin) and score = sum_j L_j^2/n_l + R_j^2/n_r
    for the cut after the bin (L, R the side sums of S; an empty side scores
    0), and each node's unsplit score sum_j T_j^2/n, its last bin's score.
    """
    F, k, B = bins.shape[1], S.shape[1], start.size
    key = (node[:, None] * B + bins).ravel()
    weights = np.repeat(S.T, F, axis=1)
    hist = np.empty((k + 1, n_nodes * B))
    for j in range(k):
        hist[j] = np.bincount(key, weights=weights[j], minlength=n_nodes * B)
    hist[k] = np.bincount(key, minlength=n_nodes * B)
    hist = hist.reshape(k + 1, n_nodes, B)
    cum = np.zeros((k + 1, n_nodes, B + 1))
    np.cumsum(hist, axis=2, out=cum[..., 1:])
    left = cum[..., 1:] - cum[..., start]
    # the last bin closes the last feature: its left side is the whole node
    L, n_l, total = left[:k], left[k], left[..., -1:]
    R, n_r = total[:k] - L, total[k] - n_l
    # an empty side's sums are 0 (R up to rounding, summed by another feature)
    score = (L * L).sum(axis=0) / np.maximum(n_l, 1) + (R * R).sum(axis=0) / np.maximum(n_r, 1)
    return hist[k], n_l, score, score[:, -1]


def compact_bins(codes: np.ndarray, values: Sequence[np.ndarray], rows: np.ndarray, features: np.ndarray, n_nodes: int):
    """Kernel bins of the chosen features for the rows, and each bin's feature start,
    position in features and value (see split_scores). When n_nodes histograms
    over every value would outsize the (row, feature) pairs, only the pairs the
    rows have get a bin, so histograms scale with the rows."""
    sizes = [values[f].size for f in features]
    full = np.cumsum([0] + sizes)
    flat = np.take(codes[rows], features, axis=1) + full[:-1]  # row-major, as split_scores reads it
    value = np.concatenate([values[f] for f in features])
    if flat.size >= n_nodes * full[-1]:
        slot = np.repeat(np.arange(len(sizes)), sizes)
        return flat, full[slot], slot, value
    present = np.bincount(flat.ravel(), minlength=full[-1]) > 0
    used = np.flatnonzero(present)
    slot = np.searchsorted(full, used, side="right") - 1
    start = np.searchsorted(used, full[:-1])[slot]
    return (np.cumsum(present) - 1)[flat], start, slot, value[used]


def _best_splits(codes, values, S, groups: list[np.ndarray], features: np.ndarray, msl: int) -> list:
    """Best (gain, feature, threshold, cut code) of each row group, or None.

    A valid cut separates values present in the group, msl rows or more on each
    side. Empty groups, and groups whose statistic rows are all equal (no cut
    improves them), are not scored."""
    found: list = [None] * len(groups)
    live = [i for i, g in enumerate(groups) if features.size and g.size and (S[g] != S[g[0]]).any()]
    for lo in range(0, len(live), NODES_PER_CALL):
        part = live[lo : lo + NODES_PER_CALL]
        sizes = np.array([groups[i].size for i in part])
        rows = np.concatenate([groups[i] for i in part])
        bins, start, slot, value = compact_bins(codes, values, rows, features, len(part))
        count, n_l, score, parent = split_scores(bins, S[rows], np.repeat(np.arange(len(part)), sizes), len(part), start)
        valid = (count > 0) & (n_l >= msl) & (sizes[:, None] - n_l >= msl)
        gain = np.where(valid, score - parent[:, None], -np.inf)
        for i, best in enumerate(gain.max(axis=1)):
            if best == -np.inf:
                continue
            p = int(np.argmax(gain[i] >= best - TIE_RTOL * (best + parent[i])))
            # rows remain above a valid cut, so the next nonempty bin is the same feature's
            q = p + 1 + int(np.argmax(count[i, p + 1 :] > 0))
            f, t = int(features[slot[p]]), float((value[p] + value[q]) / 2.0)
            found[part[i]] = (float(best), f, t, int(np.searchsorted(values[f], t, side="right")) - 1)
    return found


def grow_tree(codes: np.ndarray, values: Sequence[np.ndarray], y: np.ndarray, params: TreeParams) -> TreeNode:
    """fit_tree on rank codes and values from rank_codes (codes may be a row subset)."""
    n, d = codes.shape
    y_len = np.asarray(y).reshape(-1).shape[0]
    if y_len != n:
        raise ArgumentError(f"y has {y_len} entries, expected {n}")
    if params.criterion == "gini":
        classes = np.asarray(y, dtype=np.int64).reshape(-1)
        if classes.min() < 0:
            raise ArgumentError("class codes must be non-negative")
        k = params.n_classes if params.n_classes is not None else int(classes.max()) + 1
        if classes.max() >= k:
            raise ArgumentError(f"class code {int(classes.max())} outside [0, {k})")
        S = np.eye(k)[classes]
    else:
        S = np.asarray(y, dtype=np.float64).reshape(-1, 1)
        if not np.isfinite(S).all():
            raise ArgumentError("targets contain non-finite values")

    sampled = params.mtry is not None and params.mtry < d
    rng = np.random.default_rng(params.seed)
    limit, min_rows = params.max_depth, max(2, 2 * params.min_samples_leaf)
    root = TreeNode()
    stack = [(root, np.arange(n), 0)]
    while stack:
        # sampled: one node, depth first, left child first; unsampled: the whole level
        batch, stack = ([stack.pop()], stack) if sampled else (stack, [])
        grows = [(limit is None or depth < limit) and rows.size >= min_rows for _, rows, depth in batch]
        features = np.sort(rng.choice(d, size=params.mtry, replace=False)) if sampled and grows[0] else np.arange(d)
        groups = [rows if go else rows[:0] for (_, rows, _), go in zip(batch, grows)]
        splits = _best_splits(codes, values, S, groups, features, params.min_samples_leaf)
        for (node, rows, depth), found in zip(batch, splits):
            if found is None or found[0] <= GAIN_EPS:
                node.value = S[rows].sum(axis=0) if params.criterion == "gini" else float(S[rows].mean())
                continue
            _, node.feature, node.threshold, cut = found
            go_left = codes[rows, node.feature] <= cut
            node.left, node.right = TreeNode(), TreeNode()
            stack += [(node.right, rows[~go_left], depth + 1), (node.left, rows[go_left], depth + 1)]
    return root


def fit_tree(X: np.ndarray, y: np.ndarray, params: TreeParams = TreeParams()) -> TreeNode:
    """Grow one greedy CART tree.

    Args:
        X: n x d feature matrix (category codes consumed as ordinals).
        y: length-n real targets (variance) or integer class codes (gini).
        params: growth limits; see TreeParams.

    Growth stops at max_depth, when a split cannot respect
    min_samples_leaf, or when no candidate improves the criterion.
    """
    codes, values = rank_codes(X)
    return grow_tree(codes, values, y, params)


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
