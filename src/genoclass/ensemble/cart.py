"""CART base learner: greedy binary trees over a per-row statistic matrix.

A fit bins each feature once (``rank_codes``: a bin per distinct value, or
``MAX_BINS`` quantile bins past that many) into one matrix of global bin ids
that every tree grows and routes rows on. The split kernels score every cut
between bins from per-(node, bin) sums of the caller's n x k statistic
matrix S, sorting no rows, summing the score over S's columns: a target
column gives the squared-error reduction, one-hot class columns the Gini
reduction, boosting's k residual columns one tree for every class. A
threshold lies halfway between the largest value below the cut and the
smallest of the next bin the node has, so it routes rows as their bins do.
Rows route left when value <= threshold. Gains within ``TIE_RTOL`` of the
best tie, broken toward the lowest feature, then the lowest threshold.

Every tree grows level by level, one kernel call per level, each node
searching all features or, in an ``mtry`` tree, its own subset, drawn for the
whole level in one call on the tree's generator. Rows carry their node id. An
unsampled level whose histograms over every bin would not outsize its (row,
feature) pairs is scored dense (``split_scores``) and keeps its histograms,
so the next level counts only the smaller child of each split and subtracts
(``level_histograms``; counts stay exact, sums change by rounding, which
``TIE_RTOL`` absorbs). Any other level is scored over only the (node,
feature, bin) cells its rows have (``present_cells``), so its cost follows
its rows. One vectorized ``_pick`` takes each node's best cut from either.

Every tree, greedy or oblivious, is one ``Tree`` of parallel per-node
arrays, and ``apply`` is the one descent: it maps rows to leaf ids level by
level, and prediction reads the leaf rows of ``Tree.value``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..codec import JsonCodec, decode, encode
from ..errors import ArgumentError

CRITERIA = ("variance", "gini")

#: split gains at or below this are treated as zero (stop growing)
GAIN_EPS = 1e-12

#: a gain within TIE_RTOL * (best gain + parent score) of the best is a tie; the
#: scale counts the children, as boosting residuals can sum to a zero parent
TIE_RTOL = 1e-9

#: most bins a feature is cut into, as LightGBM's max_bin
MAX_BINS = 255


@dataclass(frozen=True)
class Tree(JsonCodec):
    """One tree as parallel per-node arrays; node 0 is the root.

    ``feature``, ``left`` and ``right`` (always ``left + 1``) are int64, -1
    at leaves; a row goes left when its ``feature`` value is <= ``threshold``.
    ``value`` is (n_nodes,) leaf means or (n_nodes, k) class counts or
    per-class boosting scores, zero at internal nodes. Child ids exceed their
    parent's, so a descent ends; other arrays raise ArgumentError. Stored
    leaves-only (``to_json``): ``feature`` and ``threshold`` of internal
    nodes, ``value`` of leaves (JSON integers if all are counts), all ``left``.
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
        left, right = self.left[internal], self.right[internal]
        if ((left <= np.flatnonzero(internal)) | (right >= n)).any() or (right != left + 1).any():
            raise ArgumentError(f"tree child ids must lie between their parent's id and {n}, the right one left + 1")

    def to_json(self) -> dict:
        internal, value = self.left >= 0, self.value[self.left < 0]
        counts = not np.signbit(value).any() and (value < 2**53).all() and (value == np.trunc(value)).all()
        return encode(_StoredTree(self.feature[internal], self.threshold[internal], self.left, value.astype(np.int64) if counts else value))

    @classmethod
    def from_json(cls, doc: dict) -> "Tree":
        stored = decode(_StoredTree, doc, name="tree")
        internal = stored.left != -1
        n, leaves = stored.left.size, int(np.count_nonzero(~internal))
        shapes = (stored.left.ndim, stored.feature.shape, stored.threshold.shape, stored.value.shape[:1], stored.value.ndim < 3)
        if shapes != (1, (n - leaves,), (n - leaves,), (leaves,), True):
            raise ArgumentError(f"a stored tree must hold a feature and threshold per internal node ({n - leaves}) and a value per leaf ({leaves})")
        feature, threshold, value = np.full(n, -1.0), np.zeros(n), np.zeros((n, *stored.value.shape[1:]))
        feature[internal], threshold[internal], value[~internal] = stored.feature, stored.threshold, stored.value
        return cls(feature, threshold, stored.left, np.where(internal, stored.left + 1, -1), value)


@dataclass(frozen=True)
class _StoredTree:
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray


@dataclass(frozen=True)
class TreeParams:
    """Growth limits and split-search settings for one tree.

    Args:
        criterion: "variance" (regression, real y) or "gini" (classification,
            integer class codes).
        max_depth: deepest allowed internal level; None = unlimited; 0 means
            the tree is a single leaf.
        min_samples_leaf: smallest row count either side of a split may have.
        mtry: features drawn (without replacement) per node; None = all.
        seed: generator seed for the mtry draws, one per tree level.
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
    """Global bins of X (n x d intp, as bincount reads them; see feature_offsets) and
    each feature's bins' smallest and largest values (a 2 x bins array); X must be
    finite. A feature with at most MAX_BINS distinct values has a bin per value; one
    with more is cut at row quantiles into at most MAX_BINS bins of consecutive values."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ArgumentError("X must be a 2-D matrix")
    if X.shape[0] == 0:
        raise ArgumentError("cannot fit a tree on zero rows")
    if not np.isfinite(X).all():
        raise ArgumentError("feature matrix contains non-finite values")
    bins, values, first_bin = np.empty(X.shape, dtype=np.intp), [], 0
    for f in range(X.shape[1]):
        distinct, inverse, count = np.unique(X[:, f], return_inverse=True, return_counts=True)
        # past MAX_BINS values, each goes to the quantile its first row's rank falls in
        quantile = (np.cumsum(count) - count) * MAX_BINS // X.shape[0]
        group = np.unique(quantile, return_inverse=True)[1].reshape(-1) if distinct.size > MAX_BINS else np.arange(distinct.size)
        bins[:, f] = group[inverse.reshape(-1)] + first_bin
        first = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
        values.append(np.stack([distinct[first], np.maximum.reduceat(distinct, first)]))
        first_bin += first.size
    return bins, tuple(values)


def feature_offsets(values: Sequence[np.ndarray]) -> np.ndarray:
    """First bin of each feature, then the bin count: feature f's bins, in value
    order, run from offsets[f] to offsets[f + 1] - 1."""
    return np.cumsum([0, *(v.shape[-1] for v in values)])


def histograms(key: np.ndarray, S: np.ndarray, n_nodes: int, n_bins: int) -> np.ndarray:
    """The (k + 1) x n_nodes x n_bins histogram planes of rows with keys key
    (m x F), each row's bins plus n_bins times its node: the per-bin sums of
    each column of S (m x k), then the per-bin row counts. A bin sums its
    rows in their order here."""
    flat, k = key.reshape(-1), S.shape[1]
    hist = np.empty((k + 1, n_nodes, n_bins))
    for j, plane in enumerate(hist.reshape(k + 1, -1)):
        plane[:] = np.bincount(flat, weights=np.repeat(S[:, j], key.shape[1]) if j < k else None, minlength=plane.size)
    return hist


def _score(left: list, n_l: np.ndarray, total: list, n) -> np.ndarray:
    """sum_j L_j^2/n_l + R_j^2/n_r of cuts with left sums left (a plane per column of S),
    left counts n_l, and node sums total and rows n (broadcast); an empty side scores 0
    (R up to rounding). The first plane of left is scratch once read."""
    sq_l, sq_r, scratch = np.square(left[0]), np.subtract(total[0], left[0]), left[0]
    np.square(sq_r, out=sq_r)
    for j in range(1, len(left)):
        sq_l += np.square(left[j], out=scratch)
        np.subtract(total[j], left[j], out=scratch)
        sq_r += np.square(scratch, out=scratch)
    sq_l /= np.maximum(n_l, 1, out=scratch)
    np.subtract(n, n_l, out=scratch)
    sq_r /= np.maximum(scratch, 1, out=scratch)
    sq_l += sq_r
    return sq_l


def split_scores(hist: np.ndarray, offsets: np.ndarray):
    """The dense split kernel: score every cut of every (node, feature) from the
    histogram planes of ``histograms`` (built or derived by subtraction; it sums
    the statistic planes in place), bins laid out as feature_offsets says.
    Returns n_nodes x B arrays count, n_left (rows in, and at or below, the bin)
    and score (see _score) for the cut after the bin, and each node's unsplit
    score sum_j T_j^2/n, its last bin's.
    """
    # in place where it can be, as large temporaries cost page faults
    count, sizes = hist[-1], np.diff(offsets)
    left = [*np.cumsum(hist[:-1], axis=2, out=hist[:-1]), np.cumsum(count, axis=1)]
    for plane in left:
        # restart the sums at each feature's first bin
        before = plane[:, offsets[:-1] - 1]
        before[:, offsets[:-1] == 0] = 0.0
        plane -= np.repeat(before, sizes, axis=1)
    # a node's last bin closes its last feature: its left side is the whole node
    total = [plane[:, [-1]] for plane in left]
    score = _score(left[:-1], left[-1], total[:-1], total[-1])
    return count, left[-1], score, score[:, -1]


def present_cells(key: np.ndarray, S: np.ndarray, offsets: np.ndarray):
    """The present-cell split kernel: score the cut after every (node, bin) cell that
    rows with keys key (m x F: node times B plus bin, nodes from 0) have, bins laid
    out as offsets says. Sums S's columns per sort-uniqued cell in row order, prefix
    sums restarting at each (node, feature). Returns the cells' node and bin, in
    order, their n_left and score as split_scores gives them, and each node's
    unsplit score."""
    cell, inverse = np.unique(key, return_inverse=True)
    planes = histograms(inverse.reshape(key.shape), S, 1, cell.size)[:, 0]
    node, at = np.divmod(cell, offsets[-1])
    feature = np.searchsorted(offsets, at, side="right")
    start = np.flatnonzero(np.r_[True, (node[1:] != node[:-1]) | (feature[1:] != feature[:-1])])
    left = np.cumsum(planes, axis=1)
    left -= np.repeat(np.c_[np.zeros(len(left)), left[:, start[1:] - 1]], np.diff(np.r_[start, cell.size]), axis=1)
    # a node's last cell closes its last feature: its left side is the whole node
    end = np.r_[np.flatnonzero(node[1:] != node[:-1]), cell.size - 1]
    score = _score(left[:-1], left[-1], left[:-1, end][:, node], left[-1, end][node])
    return node, at, left[-1], score, score[end]


def level_histograms(bins: np.ndarray, S: np.ndarray, node: np.ndarray, nodes: np.ndarray, size: np.ndarray, kept, n_bins: int) -> np.ndarray:
    """The histograms (see ``histograms``) of the given nodes over every bin,
    rows keyed by their node id node; bins are the rows' global bins (rank_codes).

    size holds the rows of each node id. kept is None, or (left, hist): the
    split nodes of the level above as their left child ids (the right child
    is left + 1) and their histograms. Then only the smaller child of each
    split is counted and its sibling is the parent's histogram minus it:
    counts stay exact, sums change by rounding.
    """
    slot = np.full(size.size, -1)
    slot[nodes] = np.arange(nodes.size)
    n_slots = nodes.size
    if kept is not None:
        left, parent = kept
        pair = np.full(size.size, -1)
        pair[left] = pair[left + 1] = np.arange(left.size)
        pair = pair[nodes]
        small = np.where(size[left[pair]] <= size[left[pair] + 1], left[pair], left[pair] + 1)
        big = np.flatnonzero(small != nodes)
        slot[nodes[big]] = -1
        # a smaller child that is not scored itself is counted after the scored nodes
        spare = small[big][slot[small[big]] < 0]
        slot[spare] = n_slots + np.arange(spare.size)
        n_slots += spare.size
    rows = np.flatnonzero(slot[node] >= 0)
    key, stats = (bins, S) if rows.size == node.size else (bins[rows], S[rows])
    if n_slots > 1:
        key = key + (slot[node[rows]] * n_bins)[:, None]
    hist = histograms(key, stats, n_slots, n_bins)
    if kept is not None:
        for b in big:
            np.subtract(parent[:, pair[b]], hist[:, slot[small[b]]], out=hist[:, b])
    return hist[:, : nodes.size]


def _pick(cell_node, cell_bin, n_l, score, parent, sizes: np.ndarray, msl: int, values: Sequence[np.ndarray]):
    """Each node's gain (-inf if no cut is valid), feature, threshold and cut bin (rows
    with a larger bin go right) of its best cut, from its scored cells (as present_cells
    returns them); sizes holds the nodes' rows. A valid cut leaves msl rows or more on
    each side; ties go to the first cell: the lowest feature, then the lowest threshold."""
    offsets, (lo, hi) = feature_offsets(values), np.concatenate(values, axis=1)
    slot = np.repeat(np.arange(len(values)), np.diff(offsets))
    gain, half = score - parent[cell_node], sizes[cell_node] / 2.0
    # msl <= n_l <= size - msl, in exact half-integer arithmetic
    gain[np.abs(n_l - half) > half - msl] = -np.inf
    first = np.flatnonzero(np.r_[True, cell_node[1:] != cell_node[:-1]])
    best = np.maximum.reduceat(gain, first)
    found = best > -np.inf
    tol = np.where(found, best, 0.0)
    tol -= TIE_RTOL * (tol + parent)
    i = np.minimum.reduceat(np.where(gain >= tol[cell_node], np.arange(gain.size), gain.size), first)[found]
    # rows remain above a valid cut, so the next present cell is the same feature's
    a, b = cell_bin[i], cell_bin[i + 1]
    mid = (hi[a] + lo[b]) / 2.0
    feature, threshold, cut = np.full(sizes.size, -1), np.zeros(sizes.size), np.zeros(sizes.size, dtype=np.int64)
    # a midpoint that rounds up to b's smallest value becomes a's largest, so the threshold routes rows as the bins do
    feature[found], threshold[found], cut[found] = slot[a], np.where(mid < lo[b], mid, hi[a]), a
    return best, feature, threshold, cut


def _level_splits(bins, values, S, node: np.ndarray, nodes: np.ndarray, size: np.ndarray, kept, drawn, msl: int, keep: bool):
    """Best splits (see _pick) of the nodes of a level, rows keyed by their node id
    node, and, if keep asks, the level's histograms when it was scored dense (else
    None, sparing a copy of its k + 1 planes). drawn is None when every node searches
    every feature; else it holds each node's drawn features, whose bins its rows read."""
    offsets = feature_offsets(values)
    if drawn is None and size[nodes].sum() * bins.shape[1] >= nodes.size * offsets[-1]:
        hist = level_histograms(bins, S, node, nodes, size, kept, offsets[-1])
        # scoring sums the statistic planes in place, so the kept histograms are a copy
        count, n_l, score, parent = split_scores(hist.copy() if keep else hist, offsets)
        cell_node, cell_bin = np.nonzero(count)
        return _pick(cell_node, cell_bin, n_l[cell_node, cell_bin], score[cell_node, cell_bin], parent, size[nodes], msl, values), hist if keep else None
    owner = np.full(size.size, -1)
    owner[nodes] = np.arange(nodes.size)
    rows = np.flatnonzero(owner[node] >= 0)
    owner = owner[node[rows]]
    key = bins[rows] if drawn is None else bins[rows[:, None], drawn[owner]]
    key += (owner * offsets[-1])[:, None]
    cells = present_cells(key, S[rows], offsets)
    return _pick(*cells, size[nodes], msl, values), None


def _varies(S: np.ndarray, node: np.ndarray, n_nodes: int) -> np.ndarray:
    """Whether each node's statistic rows differ: no cut improves a node whose rows are all equal."""
    some = np.zeros(n_nodes, dtype=np.int64)
    some[node] = np.arange(node.size)  # one row of each node, whichever
    return np.bincount(node, weights=(S != S[some[node]]).any(axis=1), minlength=n_nodes) > 0


def grow_tree(bins: np.ndarray, values: Sequence[np.ndarray], S: np.ndarray, params: TreeParams) -> tuple[Tree, np.ndarray]:
    """Grow a tree on global bins and values from rank_codes (maybe a row subset) and the
    rows' n x k statistic matrix S (a vector is one column), ignoring params.criterion;
    returns it, valued with each node's column sums of S, and each row's leaf id."""
    n, d = bins.shape
    S = np.asarray(S, dtype=np.float64).reshape(n, -1)
    sampled = params.mtry is not None and params.mtry < d
    rng = np.random.default_rng(params.seed) if sampled else None
    limit, min_rows = params.max_depth, max(2, 2 * params.min_samples_leaf)
    # each row's node id; split j's children get ids 2j + 1 (left) and 2j + 2
    node = np.zeros(n, dtype=np.int64)
    splits: list[tuple[int, int, float, int]] = []
    level, kept, depth = np.zeros(1, dtype=np.int64), None, 0
    while level.size:
        n_nodes = 2 * len(splits) + 1
        size = np.bincount(node, minlength=n_nodes)
        grows = level[size[level] >= min_rows] if limit is None or depth < limit else level[:0]
        live = grows[_varies(S, node, n_nodes)[grows]] if grows.size else grows
        if not live.size:
            break
        drawn = None
        if sampled:
            # an mtry tree draws the features of all the level's growing nodes in one call, in node order
            drawn = np.sort(np.argsort(rng.random((grows.size, d)), axis=1)[:, : params.mtry], axis=1)[np.isin(grows, live)]
        # the histograms are kept only if the next level may split
        (gain, feature, threshold, cut), hist = _level_splits(bins, values, S, node, live, size, kept, drawn, params.min_samples_leaf, limit is None or depth + 1 < limit)
        split = gain > GAIN_EPS
        feature, cut = feature[split], cut[split]
        child = 2 * np.arange(len(splits), len(splits) + feature.size) + 1
        splits += zip(live[split], feature, threshold[split], child)
        kept = None if hist is None else (child, hist[:, split])
        # route the split nodes' rows; the next level lists each right child first
        to = np.full(n_nodes, -1)
        to[live[split]] = np.arange(feature.size)
        moving = np.flatnonzero(to[node] >= 0)
        j = to[node[moving]]
        node[moving] = child[j] + (bins[moving, feature[j]] > cut[j])
        level, depth = np.stack([child + 1, child], axis=1).ravel(), depth + 1
    n_nodes = 2 * len(splits) + 1
    return tree_from_splits(n_nodes, splits, leaf_sums(node, S, n_nodes)), node


def leaf_sums(leaf: np.ndarray, S: np.ndarray, n_nodes: int) -> np.ndarray:
    """(n_nodes, k) column sums of S (n x k) over each node's rows, in row order; leaf is each row's node id."""
    return np.stack([np.bincount(leaf, weights=column, minlength=n_nodes) for column in S.T], axis=1)


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

    The criterion picks S and the leaf payload (target column and means, or
    one-hot classes and counts). Growth stops at max_depth, when a split
    cannot respect min_samples_leaf, or when no candidate improves it.
    """
    bins, values = rank_codes(X)
    if np.size(y) != bins.shape[0]:
        raise ArgumentError(f"y has {np.size(y)} entries, expected {bins.shape[0]}")
    if params.criterion == "gini":
        classes = np.asarray(y, dtype=np.int64).reshape(-1)
        k = params.n_classes if params.n_classes is not None else int(classes.max()) + 1
        if classes.min() < 0 or classes.max() >= k:
            raise ArgumentError(f"class codes must be non-negative, none outside [0, {k})")
        return grow_tree(bins, values, np.eye(k)[classes], params)[0]
    S = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    if not np.isfinite(S).all():
        raise ArgumentError("targets contain non-finite values")
    tree, node = grow_tree(bins, values, S, params)
    # each leaf's mean target; internal nodes hold no rows and stay 0
    return replace(tree, value=tree.value[:, 0] / np.maximum(np.bincount(node, minlength=tree.feature.size), 1))


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
        node[rows] = tree.left[at] + ~(X[rows, tree.feature[at]] <= tree.threshold[at])


def predict_tree(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf payloads for each row: (n,) values or (n, k) class-count vectors."""
    return tree.value[apply(tree, X)]
