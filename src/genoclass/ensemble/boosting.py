"""Gradient-boosted regression trees: plain, GOSS-sampled, and oblivious variants.

Each round fits one regression tree per class to the pseudo-residuals
r = -dL/df (squared loss: y - f; multiclass log-loss: onehot - softmax(f)),
then replaces every leaf value with a one-step Newton update

    leaf = learning_rate * sum(residuals) / sum(hessians)

computed over the full training data routed to that leaf (the step size is
absorbed into the stored leaf values). One ``cart.apply`` descent per tree
gives each row's leaf for both this refit and the score update. Features
are rank-coded once per fit, and every structure search runs the histogram
kernel of ``cart``.
Plain and GOSS trees grow level by level with the variance criterion:
plain on every row's residuals, GOSS on one gradient-magnitude-based row
sample per round, with the random remainder's residuals weighted by
(1 - a) / b, so each node's split maximizes goss_gain over its rows. The
oblivious variant gives each level one shared (feature, threshold) test
maximizing the score summed over the level's nodes, stored as a complete
``cart.Tree`` in heap order, so every variant predicts through one path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..codec import JsonCodec
from ..dataset import Dataset, supervised_arrays
from ..errors import ArgumentError, ConvergenceError
from .cart import GAIN_EPS, NODES_PER_CALL, TIE_RTOL, Tree, TreeParams, apply, compact_bins, feature_rows, grow_tree, predict_tree, rank_codes, split_scores, tree_from_splits

LOSSES = ("squared", "multiclass_logloss")
VARIANTS = ("plain", "goss", "oblivious")


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
        max_depth: per-tree depth limit.
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
        top = np.asarray(self.top_idx, dtype=np.int64)
        rand = np.asarray(self.rand_idx, dtype=np.int64)
        top.setflags(write=False)
        rand.setflags(write=False)
        object.__setattr__(self, "top_idx", top)
        object.__setattr__(self, "rand_idx", rand)

    @property
    def indices(self) -> np.ndarray:
        return np.concatenate([self.top_idx, self.rand_idx])

    @property
    def row_weights(self) -> np.ndarray:
        """Amplification per sampled row: 1 for the kept set, (1-a)/b for the sampled rest."""
        return np.concatenate([
            np.ones(self.top_idx.size),
            np.full(self.rand_idx.size, self.weight),
        ])


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
    if n_rand:
        rng = np.random.default_rng(seed)
        rand = np.sort(rng.choice(rest, size=n_rand, replace=False))
    else:
        rand = np.empty(0, dtype=np.int64)
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
    w = sample.row_weights
    left = v[idx] <= d
    n = idx.size
    wg = w * g[idx]
    total = 0.0
    for side in (left, ~left):
        count = int(side.sum())
        if count == 0:
            continue
        s = float(wg[side].sum())
        total += s * s / count
    return total / n


# -- model ---------------------------------------------------------------------------


@dataclass
class GbdtModel(JsonCodec):
    """Fitted boosting ensemble: constant initial scores plus per-round class trees.

    Stored leaf values already include the learning-rate scaling, so raw
    scores are f0 plus a plain sum over trees. ``class_labels`` is empty for
    squared-loss (regression) models.
    """

    feature_names: tuple[str, ...]
    class_labels: tuple[str, ...]
    f0: np.ndarray
    trees: list[list[Tree]]
    loss_history: tuple[float, ...]
    config: GbdtConfig = field(default_factory=GbdtConfig)

    def check_stored(self) -> None:
        """Every round holds one tree of (n_nodes,) leaf scores per score column."""
        if any(len(r) != self.f0.size or any(tree.value.ndim != 1 for tree in r) for r in self.trees):
            raise ArgumentError(f"each boosting round must hold {self.f0.size} trees of (n_nodes,) values")

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        """Accumulated additive scores, shape (n, classes) (classes = 1 for regression)."""
        X = feature_rows(X, len(self.feature_names))
        out = np.tile(self.f0, (X.shape[0], 1))
        for round_trees in self.trees:
            for c, tree in enumerate(round_trees):
                out[:, c] += predict_tree(tree, X)
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


def _refit_leaves(tree: Tree, leaf: np.ndarray, g: np.ndarray, h: np.ndarray, lr: float) -> None:
    """Set leaf values to learning-rate-scaled Newton steps over the full data.

    leaf holds each training row's leaf id (``cart.apply``); each leaf sums
    its rows in ascending row order. Leaves no full-data row reaches
    (possible for oblivious cells) score 0, as does a leaf whose hessian
    mass vanishes; internal rows, which no row ends at, stay 0.
    """
    counts = np.bincount(leaf, minlength=tree.value.shape[0])
    for node, rows in enumerate(np.split(np.argsort(leaf, kind="stable"), np.cumsum(counts)[:-1])):
        h_sum = float(h[rows].sum())
        tree.value[node] = 0.0 if h_sum <= 1e-12 else lr * float(g[rows].sum()) / h_sum


def _fit_oblivious_structure(codes: np.ndarray, values: tuple[np.ndarray, ...], g: np.ndarray, max_depth: int) -> Tree:
    """Choose one shared (feature, threshold) per level maximizing the summed score.

    Candidates are the union over the level's nodes of midpoints between
    adjacent distinct values in the node; each scores as the cut of the codes
    it falls at (a node it leaves whole adds its unsplit score), and a cut
    several midpoints reach keeps the lowest. Stops when nothing improves.
    """
    features = np.arange(codes.shape[1])[None]
    cells: list[np.ndarray] = [np.arange(codes.shape[0])]
    levels: list[tuple[int, float]] = []
    for _ in range(max_depth):
        live = [c for c in cells if c.size]
        rows = np.concatenate(live)
        bins, start, slot, value = compact_bins(codes, values, [rows], features, min(len(live), NODES_PER_CALL))
        key = slot + 1j * value  # complex order is (feature, value): one search finds a value's bin in its feature
        node = np.repeat(np.arange(len(live)), [c.size for c in live])
        score, threshold, parent = np.zeros(value.size), np.full(value.size, np.inf), 0.0
        for lo in range(0, len(live), NODES_PER_CALL):
            part = (node >= lo) & (node < lo + NODES_PER_CALL)
            n_cells = min(NODES_PER_CALL, len(live) - lo)
            count, _, cell_score, cell_parent = split_scores(bins[part], g[rows[part], None], node[part] - lo, n_cells, start)
            score += cell_score.sum(axis=0)
            parent += cell_parent.sum()
            cell, at = np.nonzero(count)
            pair = (cell[:-1] == cell[1:]) & (slot[at[:-1]] == slot[at[1:]])
            a, b = at[:-1][pair], at[1:][pair]
            mids = (value[a] + value[b]) / 2.0
            np.minimum.at(threshold, np.searchsorted(key, slot[a] + 1j * mids, side="right") - 1, mids)
        score[np.isinf(threshold)] = -np.inf
        best = score.max(initial=-np.inf)
        if not best - parent > GAIN_EPS:
            break
        at = int(np.argmax(score >= best - TIE_RTOL * best))
        f, t = int(slot[at]), float(threshold[at])
        levels.append((f, t))
        cut = int(np.searchsorted(values[f], t, side="right")) - 1
        cells = [side for cell in cells for side in (cell[codes[cell, f] <= cut], cell[codes[cell, f] > cut])]

    # the complete tree in heap order: node i, on level floor(log2(i + 1)), has children 2i + 1 and 2i + 2
    n_nodes = 2 ** (len(levels) + 1) - 1
    splits = [(i, *levels[(i + 1).bit_length() - 1], 2 * i + 1) for i in range(n_nodes // 2)]
    return tree_from_splits(n_nodes, splits, np.zeros(n_nodes))


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
    """Boost regression trees against the configured loss.

    The initial score minimizes the loss over constants (squared: the target
    mean; log-loss: per-class log priors, so zero rounds predict the training
    class distribution). loss_history holds the training loss before any
    round and after each one, so it has rounds + 1 entries.
    """
    discrete = config.loss == "multiclass_logloss"
    X, y, labels, feature_names = supervised_arrays(ds, target, discrete=discrete)
    n = X.shape[0]
    if discrete:
        k = len(labels)
        priors = np.eye(k)[y].mean(axis=0)
        with np.errstate(divide="ignore"):
            f0 = np.log(priors)
    else:
        k = 1
        f0 = np.array([float(y.mean())])

    params = TreeParams(criterion="variance", max_depth=config.max_depth, min_samples_leaf=config.min_samples_leaf)
    codes, values = rank_codes(X)
    F = np.tile(f0, (n, 1))
    history = [loss_value(config.loss, y, F)]
    trees: list[list[Tree]] = []
    master = np.random.default_rng(config.seed)

    for round_no in range(config.rounds):
        residuals, hessians = loss_gradients(config.loss, y, F)
        if not np.isfinite(residuals).all():
            raise ConvergenceError(f"non-finite pseudo-residuals at round {round_no}")

        if config.variant == "goss":
            magnitude = np.sqrt((residuals * residuals).sum(axis=1))
            sample = goss_sample(magnitude, config.a, config.b, seed=int(master.integers(2**32)))
            idx, weights = sample.indices, sample.row_weights

        round_trees: list[Tree] = []
        for c in range(k):
            g = residuals[:, c]
            if config.variant == "plain":
                tree = grow_tree(codes, values, g, params)
            elif config.variant == "goss":
                tree = grow_tree(codes[idx], values, weights * g[idx], params)
            else:
                tree = _fit_oblivious_structure(codes, values, g, config.max_depth)
            leaf = apply(tree, X)
            _refit_leaves(tree, leaf, g, hessians[:, c], config.learning_rate)
            round_trees.append(tree)
            F[:, c] += tree.value[leaf]
        trees.append(round_trees)
        history.append(loss_value(config.loss, y, F))

    return GbdtModel(
        feature_names=tuple(feature_names),
        class_labels=labels,
        f0=f0,
        trees=trees,
        loss_history=tuple(history),
        config=config,
    )
