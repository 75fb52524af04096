"""Gradient-boosted trees: plain, GOSS-sampled, and oblivious variants.

Each round grows one tree for every class, as CatBoost's MultiClass loss
does: splits maximize the score summed over the columns of the residuals
r = -dL/df (squared: y - f; multiclass log-loss: onehot - softmax(f)), and
each leaf holds one Newton step per column over the full data it routes,

    leaf[c] = learning_rate * sum(residuals[:, c]) / sum(hessians[:, c])

Every structure search runs ``cart``'s kernels on one matrix of global bin
ids built once per fit (``cart.rank_codes``). Plain trees grow on every row,
their growth's leaf sums of the residuals kept as the steps' numerators; GOSS
trees on one gradient-magnitude row sample per round, the remainder weighted
by (1 - a) / b (goss_gain), and the full data descends them once; oblivious
trees share one cut between adjacent bins per level, stored as a complete
``cart.Tree`` in heap order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..codec import JsonCodec
from ..dataset import Dataset, supervised_arrays
from ..errors import ArgumentError, ConvergenceError
from .cart import GAIN_EPS, TIE_RTOL, Tree, TreeParams, apply, feature_offsets, feature_rows, grow_tree, leaf_sums, level_histograms, predict_tree, rank_codes, split_scores, tree_from_splits

LOSSES = ("squared", "multiclass_logloss")
VARIANTS = ("plain", "goss", "oblivious")

#: deepest oblivious tree (CatBoost's limit): a complete tree has 2^(d + 1) - 1 nodes of k values
MAX_OBLIVIOUS_DEPTH = 16

#: most cells one oblivious kernel call scores, and most a level keeps histograms of for the next
NODES_PER_CALL = 16


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted for overflow safety; tolerates -inf entries."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class GbdtConfig(JsonCodec):
    """Boosting hyperparameters.

    Args:
        loss: "squared" (regression) or "multiclass_logloss" (classification).
        rounds: boosting iterations N; 0 is legal and leaves only the
            constant initial score.
        learning_rate: shrinkage in (0, 1] applied to every leaf value.
        max_depth: per-tree depth limit, at most MAX_OBLIVIOUS_DEPTH if oblivious.
        min_samples_leaf: smallest leaf size for plain/goss structure search.
        variant: "plain", "goss", or "oblivious".
        a: GOSS top-gradient fraction in (0, 1].
        b: GOSS remainder sampling fraction in [0, 1].
        seed: master seed for the per-round GOSS draws.
    """

    loss: str = "multiclass_logloss"
    rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    min_samples_leaf: int = 1
    variant: str = "plain"
    a: float = 0.2
    b: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.loss not in LOSSES:
            raise ArgumentError(f"unknown loss {self.loss!r}; expected one of {LOSSES}")
        if self.variant not in VARIANTS:
            raise ArgumentError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.rounds < 0:
            raise ArgumentError("rounds must be >= 0")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ArgumentError("learning rate must be in (0, 1]")
        if self.max_depth < 0:
            raise ArgumentError("max_depth must be >= 0")
        if self.variant == "oblivious" and self.max_depth > MAX_OBLIVIOUS_DEPTH:
            raise ArgumentError(f"max_depth of an oblivious tree must be <= {MAX_OBLIVIOUS_DEPTH}")
        if self.min_samples_leaf < 1:
            raise ArgumentError("min_samples_leaf must be >= 1")
        if not (0.0 < self.a <= 1.0):
            raise ArgumentError("GOSS fraction a must be in (0, 1]")
        if not (0.0 <= self.b <= 1.0):
            raise ArgumentError("GOSS fraction b must be in [0, 1]")


# -- GOSS sampling -------------------------------------------------------------------


@dataclass(frozen=True)
class GossSample:
    """One-side sample: kept top-gradient rows, random remainder rows, remainder weight."""

    top_idx: np.ndarray
    rand_idx: np.ndarray
    weight: float

    def __post_init__(self) -> None:
        for name in ("top_idx", "rand_idx"):
            ids = np.asarray(getattr(self, name), dtype=np.int64)
            ids.setflags(write=False)
            object.__setattr__(self, name, ids)

    @property
    def indices(self) -> np.ndarray:
        return np.concatenate([self.top_idx, self.rand_idx])

    @property
    def row_weights(self) -> np.ndarray:
        """Amplification per sampled row: 1 for the kept set, (1-a)/b for the sampled rest."""
        return np.concatenate([np.ones(self.top_idx.size), np.full(self.rand_idx.size, self.weight)])


def _ceil_count(x: float) -> int:
    # ceil with a guard against 0.2 * 10 style float fuzz landing above the integer
    return int(math.ceil(x - 1e-9))


def goss_sample(gradients: np.ndarray, a: float, b: float, seed: int) -> GossSample:
    """Split rows into the top-gradient set A and a weighted random remainder B.

    A holds the ceil(a*n) rows of largest |gradient| (ties by row index
    ascending); B holds ceil(b*|rest|) rows drawn uniformly without
    replacement from the rest, carrying weight (1-a)/b. b=0 yields an empty
    B with weight 0.
    """
    g = np.asarray(gradients, dtype=np.float64).reshape(-1)
    if g.size == 0:
        raise ArgumentError("cannot sample from zero rows")
    if not np.isfinite(g).all():
        raise ArgumentError("gradient magnitudes must be finite")
    if not (0.0 < a <= 1.0):
        raise ArgumentError("GOSS fraction a must be in (0, 1]")
    if not (0.0 <= b <= 1.0):
        raise ArgumentError("GOSS fraction b must be in [0, 1]")
    n = g.size
    order = np.argsort(-np.abs(g), kind="stable")
    n_top = min(n, _ceil_count(a * n))
    top = np.sort(order[:n_top])
    rest = order[n_top:]
    n_rand = _ceil_count(b * rest.size) if (b > 0.0 and rest.size) else 0
    rand = np.sort(np.random.default_rng(seed).choice(rest, size=n_rand, replace=False)) if n_rand else np.empty(0, dtype=np.int64)
    weight = 0.0 if b == 0.0 else (1.0 - a) / b
    return GossSample(top_idx=top, rand_idx=rand, weight=weight)


def goss_gain(feature_values: np.ndarray, gradients: np.ndarray, d: float, sample: GossSample) -> float:
    """Estimated variance gain of splitting the sampled rows at value <= d.

    Left and right terms combine the kept set's gradient sums with the
    (1-a)/b-amplified remainder sums, square them, and divide by the side's
    raw sampled row count; the total is scaled by 1 over the sampled row
    count. An empty side contributes 0.
    """
    v = np.asarray(feature_values, dtype=np.float64).reshape(-1)
    g = np.asarray(gradients, dtype=np.float64).reshape(-1)
    if v.shape != g.shape:
        raise ArgumentError("feature values and gradients differ in length")
    idx = sample.indices
    if idx.size == 0:
        raise ArgumentError("sample is empty")
    if idx.max() >= v.size or idx.min() < 0:
        raise ArgumentError("sample indices fall outside the data")
    left, wg = v[idx] <= d, sample.row_weights * g[idx]
    total = 0.0
    for side in (left, ~left):
        if side.any():
            s = float(wg[side].sum())
            total += s * s / int(side.sum())
    return total / idx.size


# -- model ---------------------------------------------------------------------------


@dataclass
class GbdtModel(JsonCodec):
    """Fitted boosting ensemble: constant initial scores plus one tree per round.

    Leaves hold one score per score column, already scaled by the learning
    rate, so raw scores are f0 plus a plain sum over trees. ``class_labels``
    is empty for squared-loss (regression) models.
    """

    feature_names: tuple[str, ...]
    class_labels: tuple[str, ...]
    f0: np.ndarray
    trees: list[Tree]
    loss_history: tuple[float, ...]
    config: GbdtConfig = field(default_factory=GbdtConfig)

    def __post_init__(self) -> None:
        """One score column per class label, and (n_nodes, columns) values per tree; raises ArgumentError."""
        if self.class_labels and self.f0.size != len(self.class_labels):
            raise ArgumentError(f"f0 holds {self.f0.size} initial scores for {len(self.class_labels)} class labels")
        if any(tree.value.shape != (tree.feature.size, self.f0.size) for tree in self.trees):
            raise ArgumentError(f"boosting tree values must have shape (n_nodes, {self.f0.size})")

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        """Accumulated additive scores, shape (n, classes) (classes = 1 for regression)."""
        X = feature_rows(X, len(self.feature_names))
        out = np.tile(self.f0, (X.shape[0], 1))
        for tree in self.trees:
            out += predict_tree(tree, X)
        return out

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Regression predictions; only defined for the squared loss."""
        if self.config.loss != "squared":
            raise ArgumentError("predict_value applies to squared-loss models only")
        return self.raw_scores(X)[:, 0]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.config.loss != "multiclass_logloss":
            raise ArgumentError("class probabilities require the multiclass_logloss model")
        return softmax(self.raw_scores(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


# -- structure search ----------------------------------------------------------------


def _refit_leaves(tree: Tree, leaf: np.ndarray, h: np.ndarray, lr: float) -> None:
    """Turn each leaf's k residual sums over the full data (the tree's values) into
    learning-rate-scaled Newton steps lr * sum(g) / sum(h).

    leaf holds each row's leaf id, h the n x k hessians, summed per leaf in row
    order. A leaf column whose hessian mass vanishes scores 0, as do leaves no
    row reaches (oblivious cells) and internal rows.
    """
    h_sum = leaf_sums(leaf, h, tree.value.shape[0])
    tiny = h_sum <= 1e-12
    h_sum[tiny] = 1.0
    np.divide(lr * tree.value, h_sum, out=tree.value)
    tree.value[tiny] = 0.0


def _fit_oblivious_structure(bins: np.ndarray, values: tuple[np.ndarray, ...], S: np.ndarray, max_depth: int) -> tuple[Tree, np.ndarray]:
    """Choose one shared (feature, threshold) per level maximizing the score
    summed over the level's cells and the columns of the rows' n x k
    statistic matrix S (a vector is one column).

    Candidates are the cuts between adjacent bins that separate some cell's
    rows (a cell a cut leaves whole adds its unsplit score), each threshold
    between its two bins' values, so it routes every row as the bins do.
    Stops when nothing improves. Rows are keyed by their cell id and their
    global bins (``rank_codes``), and a level scored in one call, unless the
    last, keeps its cells' histograms, so the next counts only the smaller
    half of each cell. Returns the tree, valued with each node's column sums
    of S, and each row's leaf id.
    """
    S = np.asarray(S, dtype=np.float64).reshape(bins.shape[0], -1)
    offsets, (lo, hi) = feature_offsets(values), np.concatenate(values, axis=1)
    slot = np.repeat(np.arange(len(values)), np.diff(offsets))
    # the cut after bin a: the midpoint to the next bin, or a's largest value where it rounds up
    mid = (hi[:-1] + lo[1:]) / 2.0
    threshold = np.where(mid < lo[1:], mid, hi[:-1])
    cell = np.zeros(bins.shape[0], dtype=np.int64)  # cell c splits into cells 2c (left) and 2c + 1
    levels: list[tuple[int, float]] = []
    kept = None
    for depth in range(max_depth):
        size = np.bincount(cell, minlength=2**depth)
        live = np.flatnonzero(size)
        score, parent, valid = np.zeros(slot.size), 0.0, np.zeros(slot.size, dtype=bool)
        # a level scored in one call keeps its histograms for the next, if there is one
        keep = live.size <= NODES_PER_CALL and depth + 1 < max_depth
        for first in range(0, live.size, NODES_PER_CALL):
            part = live[first : first + NODES_PER_CALL]
            hist = level_histograms(bins, S, cell, part, size, kept if part.size == live.size else None, slot.size)
            # scoring sums the statistic planes in place, so kept histograms are a copy
            _, n_l, cell_score, cell_parent = split_scores(hist.copy() if keep else hist, offsets)
            score += cell_score.sum(axis=0)
            parent += cell_parent.sum()
            valid |= ((n_l > 0) & (n_l < size[part, None])).any(axis=0)
        score[~valid] = -np.inf
        best = score.max(initial=-np.inf)
        if not best - parent > GAIN_EPS:
            break
        at = int(np.argmax(score >= best - TIE_RTOL * best))
        f = int(slot[at])
        levels.append((f, float(threshold[at])))
        kept = (2 * live, hist) if keep else None
        cell = 2 * cell + (bins[:, f] > at)

    # the complete tree in heap order: node i, on level floor(log2(i + 1)), has children 2i + 1 and 2i + 2
    n_nodes = 2 ** (len(levels) + 1) - 1
    splits = [(i, *levels[(i + 1).bit_length() - 1], 2 * i + 1) for i in range(n_nodes // 2)]
    return tree_from_splits(n_nodes, splits, leaf_sums(cell + n_nodes // 2, S, n_nodes)), cell + n_nodes // 2


# -- fitting -------------------------------------------------------------------------


def loss_value(loss: str, y: np.ndarray, F: np.ndarray) -> float:
    """Mean training loss of score matrix F against targets y.

    Squared loss reads column 0 of F against real-valued y; multiclass
    log-loss reads one score column per class against integer class codes.
    """
    if loss not in LOSSES:
        raise ArgumentError(f"loss must be one of {list(LOSSES)}, got {loss!r}")
    if loss == "squared":
        diff = y - F[:, 0]
        return float(np.mean(0.5 * diff * diff))
    # multiclass log-loss: mean over rows of logsumexp(F) - F[true]
    m = F.max(axis=1)
    lse = m + np.log(np.exp(F - m[:, None]).sum(axis=1))
    return float(np.mean(lse - F[np.arange(F.shape[0]), y]))


def loss_gradients(loss: str, y: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-residuals (negative loss gradients) and hessian diagonals.

    Both come back with one column per score column of F. Squared loss
    yields y - F and unit hessians; multiclass log-loss yields one-hot(y)
    minus the softmax probabilities and p(1 - p).
    """
    if loss not in LOSSES:
        raise ArgumentError(f"loss must be one of {list(LOSSES)}, got {loss!r}")
    if loss == "squared":
        residuals = (y - F[:, 0])[:, None]
        hessians = np.ones((F.shape[0], 1))
    else:
        P = softmax(F)
        residuals = np.eye(F.shape[1])[y] - P
        hessians = P * (1.0 - P)
    return residuals, hessians


def fit_gbdt(ds: Dataset, target: str, config: GbdtConfig = GbdtConfig()) -> GbdtModel:
    """Boost one tree per round, with a score per class in each leaf, against the configured loss.

    The initial score minimizes the loss over constants (squared: the target
    mean; log-loss: per-class log priors, so zero rounds predict the training
    class distribution). loss_history holds the training loss before any
    round and after each one, so it has rounds + 1 entries.
    """
    discrete = config.loss == "multiclass_logloss"
    X, y, labels, feature_names = supervised_arrays(ds, target, discrete=discrete)
    n = X.shape[0]
    if discrete:
        priors = np.eye(len(labels))[y].mean(axis=0)
        with np.errstate(divide="ignore"):
            f0 = np.log(priors)
    else:
        f0 = np.array([float(y.mean())])

    params = TreeParams(max_depth=config.max_depth, min_samples_leaf=config.min_samples_leaf)
    bins, values = rank_codes(X)
    F = np.tile(f0, (n, 1))
    history = [loss_value(config.loss, y, F)]
    trees: list[Tree] = []
    master = np.random.default_rng(config.seed)

    for round_no in range(config.rounds):
        residuals, hessians = loss_gradients(config.loss, y, F)
        if not np.isfinite(residuals).all():
            raise ConvergenceError(f"non-finite pseudo-residuals at round {round_no}")
        if config.variant == "plain":
            tree, leaf = grow_tree(bins, values, residuals, params)
        elif config.variant == "goss":
            magnitude = np.sqrt((residuals * residuals).sum(axis=1))
            sample = goss_sample(magnitude, config.a, config.b, seed=int(master.integers(2**32)))
            idx = sample.indices
            # grown on the sample, so the full data descends the tree and is summed in its leaves
            tree = grow_tree(bins[idx], values, sample.row_weights[:, None] * residuals[idx], params)[0]
            leaf = apply(tree, X)
            tree.value[:] = leaf_sums(leaf, residuals, tree.value.shape[0])
        else:
            tree, leaf = _fit_oblivious_structure(bins, values, residuals, config.max_depth)
        _refit_leaves(tree, leaf, hessians, config.learning_rate)
        trees.append(tree)
        F += tree.value[leaf]
        history.append(loss_value(config.loss, y, F))

    return GbdtModel(
        feature_names=tuple(feature_names),
        class_labels=labels,
        f0=f0,
        trees=trees,
        loss_history=tuple(history),
        config=config,
    )
