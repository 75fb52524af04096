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

Every tree, greedy or oblivious, is one ``Tree`` of parallel per-node
arrays, and ``apply`` is the one descent: it maps rows to leaf ids level by
level, and prediction reads the leaf rows of ``Tree.value``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..codec import JsonCodec
from ..errors import ArgumentError

CRITERIA = ("variance", "gini")

#: split gains at or below this are treated as zero (stop growing)
GAIN_EPS = 1e-12

#: a gain within TIE_RTOL * (best gain + parent score) of the best is a tie; the
#: scale counts the children, as boosting residuals can sum to a zero parent
TIE_RTOL = 1e-9

#: most nodes one kernel call scores, which bounds memory on wide levels
NODES_PER_CALL = 16


@dataclass(frozen=True)
class Tree(JsonCodec):
    """One tree as parallel per-node arrays; node 0 is the root.

    ``feature``, ``left`` and ``right`` are int64, -1 at leaves; a row goes
    to ``left`` when its value of ``feature`` is <= ``threshold``. ``value``
    has shape (n_nodes,) (regression mean or boosting leaf score) or
    (n_nodes, k) (class counts); internal rows are zero. Every child id is
    greater than its parent's, so a descent ends within n_nodes steps.
    Raises ArgumentError for arrays that break these rules.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        for name in ("feature", "left", "right"):
            ids = np.asarray(getattr(self, name))
            exact = ids.dtype.kind == "f" and (np.abs(ids) < 2**53).all() and (ids == np.trunc(ids)).all()
            if not (exact or ids.dtype.kind in "iu"):
                raise ArgumentError(f"tree {name} must hold integers")
            object.__setattr__(self, name, ids.astype(np.int64))
        object.__setattr__(self, "threshold", np.asarray(self.threshold, dtype=np.float64))
        object.__setattr__(self, "value", np.asarray(self.value, dtype=np.float64))
        n = self.feature.size
        if n < 1 or {a.shape for a in (self.feature, self.threshold, self.left, self.right)} != {(n,)} or self.value.shape[:1] != (n,):
            raise ArgumentError("tree arrays must be non-empty and of equal lengths")
        internal = self.left != -1
        if ((self.right != -1) != internal).any() or ((self.feature >= 0) != internal).any():
            raise ArgumentError("a tree node must be a leaf (both children -1) or split on a feature")
        children = np.stack([self.left, self.right])[:, internal]
        if ((children <= np.flatnonzero(internal)) | (children >= n)).any():
            raise ArgumentError(f"tree child ids must lie between their parent's id and {n}")


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


def grow_tree(codes: np.ndarray, values: Sequence[np.ndarray], y: np.ndarray, params: TreeParams) -> Tree:
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
    splits, leaves, n_nodes = [], [], 1
    stack = [(0, np.arange(n), 0)]
    while stack:
        # sampled: one node, depth first, left child first; unsampled: the whole level
        batch, stack = ([stack.pop()], stack) if sampled else (stack, [])
        grows = [(limit is None or depth < limit) and rows.size >= min_rows for _, rows, depth in batch]
        features = np.sort(rng.choice(d, size=params.mtry, replace=False)) if sampled and grows[0] else np.arange(d)
        groups = [rows if go else rows[:0] for (_, rows, _), go in zip(batch, grows)]
        best = _best_splits(codes, values, S, groups, features, params.min_samples_leaf)
        for (node, rows, depth), found in zip(batch, best):
            if found is None or found[0] <= GAIN_EPS:
                leaves.append((node, S[rows].sum(axis=0) if params.criterion == "gini" else S[rows].mean()))
                continue
            _, f, t, cut = found
            go_left = codes[rows, f] <= cut
            # a node's children get the next two ids when it splits
            splits.append((node, f, t, n_nodes))
            stack += [(n_nodes + 1, rows[~go_left], depth + 1), (n_nodes, rows[go_left], depth + 1)]
            n_nodes += 2
    value = np.zeros((n_nodes, S.shape[1]))
    for node, payload in leaves:
        value[node] = payload
    return tree_from_splits(n_nodes, splits, value if params.criterion == "gini" else value[:, 0])


def tree_from_splits(n_nodes: int, splits: list[tuple[int, int, float, int]], value: np.ndarray) -> Tree:
    """The Tree of n_nodes whose split (node, feature, threshold, child) sends a
    row to child when its value is <= threshold and to child + 1 otherwise;
    nodes without a split are leaves."""
    feature, threshold, left = np.full(n_nodes, -1), np.zeros(n_nodes), np.full(n_nodes, -1)
    if splits:
        node, f, t, child = map(np.array, zip(*splits))
        feature[node], threshold[node], left[node] = f, t, child
    return Tree(feature, threshold, left, np.where(left >= 0, left + 1, -1), value)


def fit_tree(X: np.ndarray, y: np.ndarray, params: TreeParams = TreeParams()) -> Tree:
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


def feature_rows(X: np.ndarray, width: int | None = None) -> np.ndarray:
    """X as a float64 matrix of rows, width columns if given; one row may come as a vector."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if width is not None and X.shape[1] != width:
        raise ArgumentError(f"expected {width} feature columns, got {X.shape[1]}")
    return X


def apply(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf id of each row of X (one row may come as a vector).

    Descends level by level: each step moves only the rows still at
    internal nodes, one comparison per row.
    """
    X = feature_rows(X)
    if tree.feature.max() >= X.shape[1]:
        raise ArgumentError(f"tree expects feature index {tree.feature.max()}, matrix has {X.shape[1]} columns")
    node = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.arange(X.shape[0])
    while True:
        rows = rows[tree.left[node[rows]] >= 0]
        if not rows.size:
            return node
        at = node[rows]
        node[rows] = np.where(X[rows, tree.feature[at]] <= tree.threshold[at], tree.left[at], tree.right[at])


def predict_tree(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf payloads for each row: (n,) values or (n, k) class-count vectors."""
    return tree.value[apply(tree, X)]
