"""CART base learner: greedy binary trees for regression and classification.

A fit rank-codes each feature once; the split kernel (``split_scores``)
then scores every cut from ``np.bincount`` histograms (``histograms``) of a
per-row statistic matrix over the codes, sorting nothing. One target column
gives the squared-error reduction, one-hot class columns the Gini impurity
reduction. Thresholds are midpoints between adjacent distinct values in the
node. Every tree grows level by level, one kernel call per ``NODES_PER_CALL``
nodes, each node searching all features or, in an ``mtry`` tree, its own
subset, drawn for the whole level in one call on the tree's generator.
Gains within ``TIE_RTOL`` of the best tie, broken toward the lowest feature,
then the lowest threshold. Rows route left when value <= threshold.

Rows carry their node id. An unsampled level reads its rows' bins from one
offset bin matrix (``offset_bins``), which a fit builds once. A level scored
in one call over every bin keeps its histograms (``level_histograms``), so
the next level counts only the smaller child of each split and takes its
sibling as parent minus child: count planes stay exact integers, statistic
sums change by rounding, which ``TIE_RTOL`` absorbs. The kept histograms are
those of at most ``NODES_PER_CALL`` nodes, B bins per plane. A wider level,
or a call whose histograms over every bin would outnumber its (row, feature)
pairs and so keeps only the bins its rows have (``compact_bins``), builds its
histograms directly, as does every ``mtry`` level: its nodes search
different features, so no parent histogram covers them.

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

#: most nodes one kernel call scores, and most a level keeps histograms of for the
#: next level; this bounds memory on wide levels
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


def feature_offsets(values: Sequence[np.ndarray]) -> np.ndarray:
    """First bin of each feature, then the bin count: feature f's bins, one per
    distinct value in value order, run from offsets[f] to offsets[f + 1] - 1."""
    return np.cumsum([0, *(v.size for v in values)])


def offset_bins(codes: np.ndarray, values: Sequence[np.ndarray]) -> np.ndarray:
    """Each row's bin per feature: its rank code plus the feature's first bin (intp, as bincount reads it)."""
    return codes + feature_offsets(values)[:-1].astype(np.intp)


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


def split_scores(hist: np.ndarray, offsets: np.ndarray, last=-1):
    """The split kernel: score every cut of every (node, feature) from histograms.

    hist holds the histogram planes of ``histograms``, built or derived by
    subtraction; the kernel sums its statistic planes in place. A feature's
    bins are consecutive in value order, from offsets[f] to offsets[f + 1] -
    1 (see feature_offsets), and last (per node or for all) is the last bin
    of a node's last feature. Returns n_nodes x B arrays count, n_left (rows
    in, and at or below, the bin) and score = sum_j L_j^2/n_l + R_j^2/n_r for
    the cut after the bin (L, R the side sums of S; an empty side scores 0),
    and each node's unsplit score sum_j T_j^2/n, its last bin's score.
    """
    # in place where it can be, as large temporaries cost page faults
    count, nodes, sizes = hist[-1], np.arange(hist.shape[1]), np.diff(offsets)
    left = [*np.cumsum(hist[:-1], axis=2, out=hist[:-1]), np.cumsum(count, axis=1)]
    for plane in left:
        # restart the sums at each feature's first bin
        before = plane[:, offsets[:-1] - 1]
        before[:, offsets[:-1] == 0] = 0.0
        plane -= np.repeat(before, sizes, axis=1)
    # a node's last bin closes its last feature: its left side is the whole node
    n_l, total = left[-1], [plane[nodes, last, None] for plane in left]
    # the first statistic plane is scratch once read
    sq_l, sq_r = np.square(left[0]), np.subtract(total[0], left[0])
    np.square(sq_r, out=sq_r)
    scratch = left[0]
    for j in range(1, len(left) - 1):
        sq_l += np.square(left[j], out=scratch)
        np.subtract(total[j], left[j], out=scratch)
        sq_r += np.square(scratch, out=scratch)
    # an empty side's sums are 0 (R up to rounding, summed by another feature or by subtraction)
    sq_l /= np.maximum(n_l, 1, out=scratch)
    np.subtract(total[-1], n_l, out=scratch)
    sq_r /= np.maximum(scratch, 1, out=scratch)
    sq_l += sq_r
    return count, n_l, sq_l, sq_l[nodes, last]


def compact_bins(bins: np.ndarray, offsets: np.ndarray, value: np.ndarray, n_nodes: int):
    """Kernel bins of rows with bins (m x F) in the layout of offsets (see
    feature_offsets), whose bins hold value, with the kernel layout's
    offsets and each kernel bin's feature and value. When n_nodes histograms
    over every bin would outsize the (row, feature) pairs, only the bins the
    rows have are kept, so histograms scale with the rows."""
    slot = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    if bins.size >= n_nodes * offsets[-1]:
        return bins, offsets, slot, value
    present = np.bincount(bins.ravel(), minlength=offsets[-1]) > 0
    used = np.flatnonzero(present)
    return (np.cumsum(present) - 1)[bins], np.searchsorted(used, offsets), slot[used], value[used]


def level_histograms(bins: np.ndarray, S: np.ndarray, node: np.ndarray, nodes: np.ndarray, size: np.ndarray, kept, n_bins: int) -> np.ndarray:
    """The histograms (see ``histograms``) of the given nodes over every bin,
    rows keyed by their node id node; bins are the rows' offset_bins.

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
    if rows.size == node.size:
        key, stats = bins, S
    else:
        key, stats = bins[rows], S[rows]
    if n_slots > 1:
        key = key + (slot[node[rows]] * n_bins)[:, None]
    hist = histograms(key, stats, n_slots, n_bins)
    if kept is not None:
        for b in big:
            np.subtract(parent[:, pair[b]], hist[:, slot[small[b]]], out=hist[:, b])
    return hist[:, : nodes.size]


def _pick(hist: np.ndarray, offsets: np.ndarray, last, slot: np.ndarray, value: np.ndarray, values: Sequence[np.ndarray], sizes: np.ndarray, msl: int) -> list:
    """Best (gain, feature, threshold, cut code) of each node scored from its
    histograms (see split_scores), or None; bins have features slot
    and values value, sizes holds the nodes' rows. A valid cut separates
    values present in the node, msl rows or more on each side."""
    count, n_l, score, parent = split_scores(hist, offsets, last)
    gain = score
    gain -= parent[:, None]
    # msl <= n_l <= size - msl, in exact half-integer arithmetic
    half = sizes[:, None] / 2.0
    valid = (count > 0) & (np.abs(n_l - half) <= half - msl)
    # an invalid cut gains -inf: the minimum with +inf keeps a gain, with -inf drops it (no branches on the mask)
    np.minimum(gain, (valid - 0.5) * np.inf, out=gain)
    best = gain.max(axis=1)
    at = np.flatnonzero(best > -np.inf)
    p = np.argmax(gain[at] >= (best[at] - TIE_RTOL * (best[at] + parent[at]))[:, None], axis=1)
    found: list = [None] * sizes.size
    for i, b in zip(at, p):
        # rows remain above a valid cut, so the next nonempty bin is the same feature's
        t = (value[b] + value[b + 1 + np.argmax(count[i, b + 1 :] > 0)]) / 2.0
        f = int(slot[b])
        found[i] = (float(best[i]), f, float(t), int(np.searchsorted(values[f], t, side="right")) - 1)
    return found


def _best_splits(codes, values, S, groups: list[np.ndarray], features: np.ndarray, msl: int) -> list:
    """Best split (see _pick) of each row group of an mtry level, or None.

    features (groups x F) holds each group's candidate features in ascending
    order; a call's bins cover the union of its groups' features."""
    found: list = []
    for lo in range(0, len(groups), NODES_PER_CALL):
        chunk, drawn = groups[lo : lo + NODES_PER_CALL], features[lo : lo + NODES_PER_CALL]
        sizes = np.array([g.size for g in chunk])
        used = np.where(np.bincount(drawn.ravel(), minlength=len(values)) > 0, [v.size for v in values], 0)
        offsets = np.cumsum([0, *used])
        rows = np.concatenate([np.take(codes[g], f, axis=1) + offsets[f] for g, f in zip(chunk, drawn)])
        value = np.concatenate([v[:size] for v, size in zip(values, used)])
        key, offsets, slot, value = compact_bins(rows, offsets, value, len(chunk))
        key += np.repeat(np.arange(len(chunk)) * slot.size, sizes)[:, None]
        hist = histograms(key, S[np.concatenate(chunk)], len(chunk), slot.size)
        # a node's last bin is that of its own last feature
        found += _pick(hist, offsets, offsets[drawn[:, -1] + 1] - 1, slot, value, values, sizes, msl)
    return found


def _level_splits(bins, values, S, node: np.ndarray, nodes: np.ndarray, size: np.ndarray, kept, msl: int):
    """Best split (see _pick) of each node of an unsampled level, rows keyed by
    their node id node, and the level's histograms when it was scored in one
    call over every bin (else None), for its children to subtract from."""
    offsets, value = feature_offsets(values), np.concatenate(values)
    if nodes.size <= NODES_PER_CALL and size[nodes].sum() * bins.shape[1] >= nodes.size * offsets[-1]:
        hist = level_histograms(bins, S, node, nodes, size, kept, offsets[-1])
        slot = np.repeat(np.arange(len(values)), np.diff(offsets))
        # scoring sums the statistic planes in place, so the kept histograms are a copy
        return _pick(hist.copy(), offsets, -1, slot, value, values, size[nodes], msl), hist
    found: list = []
    for lo in range(0, nodes.size, NODES_PER_CALL):
        part = nodes[lo : lo + NODES_PER_CALL]
        at = np.full(size.size, -1)
        at[part] = np.arange(part.size)
        rows = np.flatnonzero(at[node] >= 0)
        key, part_offsets, slot, part_value = compact_bins(bins[rows], offsets, value, part.size)
        key += (at[node[rows]] * slot.size)[:, None]
        hist = histograms(key, S[rows], part.size, slot.size)
        found += _pick(hist, part_offsets, -1, slot, part_value, values, size[part], msl)
    return found, None


def _varies(S: np.ndarray, node: np.ndarray, n_nodes: int) -> np.ndarray:
    """Whether each node's statistic rows differ: no cut improves a node whose rows are all equal."""
    some = np.zeros(n_nodes, dtype=np.int64)
    some[node] = np.arange(node.size)  # one row of each node, whichever
    return np.bincount(node, weights=(S != S[some[node]]).any(axis=1), minlength=n_nodes) > 0


def _groups(node: np.ndarray, nodes: np.ndarray, size: np.ndarray) -> list[np.ndarray]:
    """The rows of each of nodes, ascending, in nodes' order."""
    pos = np.full(size.size, -1)
    pos[nodes] = np.arange(nodes.size)
    rows = np.flatnonzero(pos[node] >= 0)
    return np.split(rows[np.argsort(pos[node[rows]], kind="stable")], np.cumsum(size[nodes]))[:-1]


def grow_tree(codes: np.ndarray, values: Sequence[np.ndarray], y: np.ndarray, params: TreeParams, bins: np.ndarray | None = None) -> tuple[Tree, np.ndarray]:
    """fit_tree on rank codes and values from rank_codes (codes may be a row
    subset); returns the tree and each row's leaf id. An unsampled tree may
    be handed the codes' offset_bins, so a fit builds them once."""
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
    if not sampled and bins is None:
        bins = offset_bins(codes, values)
    rng = np.random.default_rng(params.seed) if sampled else None
    limit, min_rows = params.max_depth, max(2, 2 * params.min_samples_leaf)
    # each row's node id; split j's children get ids 2j + 1 (left) and 2j + 2
    node = np.zeros(n, dtype=np.int64)
    splits: list[tuple[int, int, float]] = []
    level, kept, depth = np.zeros(1, dtype=np.int64), None, 0
    while level.size:
        n_nodes = 2 * len(splits) + 1
        size = np.bincount(node, minlength=n_nodes)
        grows = level[size[level] >= min_rows] if limit is None or depth < limit else level[:0]
        live = grows[_varies(S, node, n_nodes)[grows]] if grows.size else grows
        if not live.size:
            break
        hist = None
        if sampled:
            # an mtry tree draws the features of all the level's growing nodes in one call, in node order
            drawn = np.sort(np.argsort(rng.random((grows.size, d)), axis=1)[:, : params.mtry], axis=1)
            found = _best_splits(codes, values, S, _groups(node, live, size), drawn[np.isin(grows, live)], params.min_samples_leaf)
        else:
            found, hist = _level_splits(bins, values, S, node, live, size, kept, params.min_samples_leaf)
        split = np.array([f is not None and f[0] > GAIN_EPS for f in found], dtype=bool)
        chosen = [f for f, go in zip(found, split) if go]
        first = len(splits)
        splits += [(int(v), f, t) for v, (_, f, t, _) in zip(live[split], chosen)]
        child = 2 * np.arange(first, len(splits)) + 1
        kept = None if hist is None else (child, hist[:, split])
        # route the split nodes' rows; the next level lists each right child first
        to = np.full(n_nodes, -1)
        to[live[split]] = np.arange(len(chosen))
        moving = np.flatnonzero(to[node] >= 0)
        j = to[node[moving]]
        feature, cut = (np.array([c[i] for c in chosen], dtype=np.int64) for i in (1, 3))
        node[moving] = child[j] + (codes[moving, feature[j]] > cut[j])
        level, depth = np.stack([child + 1, child], axis=1).ravel(), depth + 1
    n_nodes = 2 * len(splits) + 1
    size = np.bincount(node, minlength=n_nodes)
    if params.criterion == "gini":
        value = np.bincount(node * k + classes, minlength=n_nodes * k).reshape(n_nodes, k).astype(np.float64)
    else:
        # each leaf's mean target; internal nodes hold no rows and stay 0
        value = np.bincount(node, weights=S[:, 0], minlength=n_nodes) / np.maximum(size, 1)
    return tree_from_splits(n_nodes, [(v, f, t, 2 * j + 1) for j, (v, f, t) in enumerate(splits)], value), node


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
    return grow_tree(codes, values, y, params)[0]


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
