"""Linear-family classifiers: one-vs-rest logistic regression and kernel SVM.

Both models share the same input plumbing: categorical feature columns are
one-hot expanded (tree ensembles consume the raw codes instead, so the
expansion lives here), then every design column is standardized to zero
mean and unit variance with statistics fitted on the training rows only.

The logistic side fits one binary sigmoid model per class by full-batch
gradient descent on the mean negative log-likelihood of

    pi(x) = e^(alpha + beta.x) / (1 + e^(alpha + beta.x))

and predicts by normalizing the per-class pi values. An epoch takes one exp
per margin z, e^-|z|, for both the sigmoid and the loss (through log1p), so
neither overflows. The SVM side trains one-vs-rest binary subproblems with a
sequential-minimal-optimization solver on the dual

    minimize   0.5 * b' Q b - sum(b)
    subject to 0 <= b_i <= C,  sum_i y_i b_i = 0,   Q_ij = y_i y_j K(x_i, x_j)

and classifies by the largest decision value across classes. The solver
picks each pair by second-order working-set selection and stops on the
maximal-violating-pair gap, as LIBSVM does (Fan, Chen & Lin, JMLR 2005;
Chang & Lin, ACM TIST 2011), so a converged fit meets every KKT condition
within tol. It reads kernel rows on demand from a cache of KERNEL_CACHE_MB
that the k subproblems share, so no n x n matrix is ever built. The model
stores one support set of raw rows with an n_sv x k coefficient matrix.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .codec import JsonCodec
from .dataset import Dataset, supervised_arrays
from .errors import ArgumentError, ConvergenceError

KERNEL_KINDS = ("linear", "rbf", "polynomial")


@dataclass(frozen=True)
class KernelSpec(JsonCodec):
    """Kernel family and hyperparameters for SVM decision functions.

    gamma is the RBF width in exp(-gamma ||u - v||^2) and the inner-product
    scale in (gamma u'v + coef0)^degree; gamma=None means 1 / n_features,
    resolved at fit time.
    """

    kind: str = "rbf"
    gamma: float | None = None
    degree: int = 3
    coef0: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ArgumentError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise ArgumentError("kernel gamma must be positive and finite")
        if not math.isfinite(self.coef0):
            raise ArgumentError("kernel coef0 must be finite")
        if self.degree < 1:
            raise ArgumentError("polynomial degree must be >= 1")

    def resolve_gamma(self, n_features: int) -> float:
        return 1.0 / n_features if self.gamma is None else float(self.gamma)


def kernel_eval(spec: KernelSpec, u: np.ndarray, v: np.ndarray, gamma: float | None = None) -> float | np.ndarray:
    """Kernel values between rows of u and rows of v.

    Accepts single vectors (returns a float) or matrices (returns the m x n
    value matrix). gamma=None falls back to 1 over the input width.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    scalar = u.ndim == 1 and v.ndim == 1
    u2 = np.atleast_2d(u)
    v2 = np.atleast_2d(v)
    if u2.shape[1] != v2.shape[1]:
        raise ArgumentError(f"kernel inputs differ in width: {u2.shape[1]} vs {v2.shape[1]}")
    g = spec.resolve_gamma(u2.shape[1]) if gamma is None else float(gamma)
    out = _kernel_from_dot(spec, g, _operands(spec, u2)[0] @ _operands(spec, v2)[1].T)
    return float(out[0, 0]) if scalar else out


def _operands(spec: KernelSpec, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left and right factors of A's rows: K(a, b) = _kernel_from_dot(left(a) . right(b)).

    Plain rows, except for rbf, whose squared distance is one dot product,
    ||a - b||^2 = [a, ||a||^2, 1] . [-2 b, 1, ||b||^2], so a block of kernel
    values costs one matrix product and three passes.
    """
    if spec.kind != "rbf":
        return A, A
    sq = (A * A).sum(axis=1)[:, None]
    ones = np.ones_like(sq)
    return np.hstack([A, sq, ones]), np.hstack([-2.0 * A, ones, sq])


def _kernel_from_dot(spec: KernelSpec, gamma: float, dot: np.ndarray) -> np.ndarray:
    """Turn products of _operands factors into kernel values in place and return them."""
    if spec.kind == "polynomial":
        dot *= gamma
        dot += spec.coef0
        np.power(dot, spec.degree, out=dot)
    elif spec.kind == "rbf":
        # a squared distance is never negative; rounding can make it so
        np.maximum(dot, 0.0, out=dot)
        dot *= -gamma
        np.exp(dot, out=dot)
    return dot


@dataclass(frozen=True)
class ColumnEncoder(JsonCodec):
    """One-hot expansion map for the model's input columns.

    cardinalities[i] is 0 for a pass-through column (numeric, or binary
    whose code is already a 0/1 indicator) and the category count m for a
    categorical column expanded to m indicators.
    """

    names: tuple[str, ...]
    cardinalities: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.cardinalities):
            raise ArgumentError("encoder names and cardinalities differ in length")
        if any(c == 1 or c < 0 for c in self.cardinalities):
            raise ArgumentError("cardinalities must be 0 (pass-through) or >= 2")

    @staticmethod
    def from_dataset(ds: Dataset, names: Sequence[str]) -> "ColumnEncoder":
        cards = []
        for name in names:
            col = ds.schema_of(name)
            cards.append(len(col.categories) if col.kind == "categorical" else 0)
        return ColumnEncoder(tuple(names), tuple(cards))

    @property
    def width(self) -> int:
        return sum(c if c else 1 for c in self.cardinalities)

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Expand a raw (codes-as-float) matrix into the design matrix."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != len(self.names):
            raise ArgumentError(f"expected {len(self.names)} raw feature columns, got {X.shape[1]}")
        blocks = []
        for i, card in enumerate(self.cardinalities):
            col = X[:, i]
            if card == 0:
                blocks.append(col[:, None])
                continue
            codes = col.astype(np.int64)
            if codes.size and ((codes != col).any() or codes.min() < 0 or codes.max() >= card):
                raise ArgumentError(
                    f"column {self.names[i]!r}: values must be integer codes in [0, {card})"
                )
            onehot = np.zeros((X.shape[0], card))
            onehot[np.arange(X.shape[0]), codes] = 1.0
            blocks.append(onehot)
        return np.hstack(blocks)


@dataclass(frozen=True)
class Standardizer(JsonCodec):
    """Column-wise affine map to zero mean / unit variance; constant columns untouched."""

    mean: np.ndarray
    scale: np.ndarray

    @staticmethod
    def fit(X: np.ndarray) -> "Standardizer":
        X = np.asarray(X, dtype=np.float64)
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
        mean.setflags(write=False)
        scale.setflags(write=False)
        return Standardizer(mean, scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.mean.size:
            raise ArgumentError(f"expected {self.mean.size} design columns, got {X.shape[1]}")
        return (X - self.mean) / self.scale


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    return _sigmoid(z, np.exp(-np.abs(z)))


def _sigmoid(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The logistic function of z given e = exp(-|z|): 1 / (1 + e) where z >= 0, e / (1 + e) elsewhere."""
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _logistic_terms(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell loss log(1 + e^s) = max(s, 0) + log1p(e^-|z|) of margins z, s = -z where label y is 1, else z; and sigmoid(z)."""
    e = np.exp(-np.abs(z))
    return np.maximum(np.where(y, -z, z), 0.0) + np.log1p(e), _sigmoid(z, e)


@dataclass
class _LinearModel(JsonCodec):
    """The input path and predictions both linear models share; a subclass gives decision_matrix, one column per class."""

    feature_names: tuple[str, ...]
    class_labels: tuple[str, ...]
    encoder: ColumnEncoder
    scaler: Standardizer

    def _design(self, X: np.ndarray) -> np.ndarray:
        return self.scaler.transform(self.encoder.transform(X))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Sigmoid-squashed decision values normalized across classes.

        For the SVM a ranking-preserving surrogate, enough for one-vs-rest ROC
        sweeps; sigmoids are strictly positive, so the normalizer never vanishes.
        """
        scores = sigmoid(self.decision_matrix(X))
        return scores / scores.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_matrix(X), axis=1)


def _fit_inputs(ds: Dataset, target: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Raw rows, class codes, standardized design matrix, and the model fields fitted on them
    (feature names, class labels, encoder, standardizer)."""
    X_raw, y, labels, feature_names = supervised_arrays(ds, target, discrete=True)
    encoder = ColumnEncoder.from_dataset(ds, feature_names)
    design = encoder.transform(X_raw)
    scaler = Standardizer.fit(design)
    inputs = {"feature_names": tuple(feature_names), "class_labels": labels, "encoder": encoder, "scaler": scaler}
    return X_raw, y, scaler.transform(design), inputs


# -- logistic regression ------------------------------------------------------------


@dataclass(frozen=True)
class LogisticConfig(JsonCodec):
    """Gradient-descent hyperparameters shared by the per-class binary fits."""

    learning_rate: float = 0.1
    epochs: int = 300
    l2: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise ArgumentError("learning rate must be positive and finite")
        if self.epochs < 1:
            raise ArgumentError("epochs must be >= 1")
        if not 0 <= self.l2 < math.inf:
            raise ArgumentError("l2 penalty must be non-negative and finite")


def logistic_loss_gradient(w: np.ndarray, alpha: float, X: np.ndarray, y: np.ndarray, l2: float = 0.0) -> tuple[float, np.ndarray, float]:
    """Mean negative log-likelihood of one binary sigmoid model and its gradients.

    Args:
        w: weight vector, length = design width.
        alpha: intercept.
        X: design matrix, n x width.
        y: 0/1 labels, length n.
        l2: weight penalty coefficient; intercept is never penalized.

    Returns:
        (loss, dloss/dw, dloss/dalpha).
    """
    w = np.asarray(w, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    cells, p = _logistic_terms(X @ w + alpha, y)
    loss = float(np.mean(cells)) + 0.5 * l2 * float(w @ w)
    diff = (p - y) / X.shape[0]
    return loss, X.T @ diff + l2 * w, float(diff.sum())


@dataclass
class LogisticModel(_LinearModel):
    """One-vs-rest logistic classifier: one (beta, alpha) pair per class.

    W columns are the per-class weight vectors over the expanded and
    standardized design matrix; prediction normalizes the per-class sigmoid
    scores into a probability vector.
    """

    W: np.ndarray
    alpha: np.ndarray
    loss_history: tuple[float, ...]
    config: LogisticConfig = field(default_factory=LogisticConfig)

    def decision_matrix(self, X: np.ndarray) -> np.ndarray:
        return self._design(X) @ self.W + self.alpha


def fit_logistic(ds: Dataset, target: str, config: LogisticConfig = LogisticConfig()) -> LogisticModel:
    """Fit the per-class binary models by full-batch gradient descent.

    All classes share the learning schedule, so the k fits run as one matrix
    recursion; loss_history records the mean per-class loss per epoch.
    Raises ConvergenceError naming the epoch if any loss becomes non-finite.
    """
    _, y, X, inputs = _fit_inputs(ds, target)
    n, k = X.shape[0], len(inputs["class_labels"])
    Y = np.zeros((n, k), dtype=bool)
    Y[np.arange(n), y] = True

    W = np.zeros((X.shape[1], k))
    alpha = np.zeros(k)
    history = []
    for epoch in range(config.epochs):
        # overflow is the divergence itself; so is an infinite margin, whose loss can be 0
        with np.errstate(over="ignore", invalid="ignore"):
            Z = X @ W + alpha
            cells, P = _logistic_terms(Z, Y)
            loss = float((cells.mean(axis=0) + 0.5 * config.l2 * (W * W).sum(axis=0)).mean())
        if not (np.isfinite(loss) and np.isfinite(Z).all()):
            raise ConvergenceError(f"loss diverged at epoch {epoch}; lower the learning rate")
        history.append(loss)
        diff = (P - Y) / n
        W = W - config.learning_rate * (X.T @ diff + config.l2 * W)
        alpha = alpha - config.learning_rate * diff.sum(axis=0)
    return LogisticModel(**inputs, W=W, alpha=alpha, loss_history=tuple(history), config=config)


# -- support vector machine ---------------------------------------------------------

#: megabytes of training-kernel rows an SVM fit caches; its one-vs-rest solves share them
KERNEL_CACHE_MB = 32

#: most (row, support vector) kernel cells one decision_matrix chunk holds: a
#: 2 MB block, so that its passes run in cache rather than in memory
DECISION_CELLS = 2**18

#: curvature floor for a pair whose kernel rows coincide (LIBSVM's TAU)
TAU = 1e-12


@dataclass(frozen=True)
class SvmConfig(JsonCodec):
    """SMO solver settings shared by every one-vs-rest subproblem."""

    C: float = 1.0
    kernel: KernelSpec = field(default_factory=KernelSpec)
    tol: float = 1e-3
    # SMO converges linearly at a rate set by the kernel's conditioning, not
    # by n: 14 rows on three nearly collinear points need 248 passes
    max_passes: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.C < math.inf:
            raise ArgumentError("C must be positive and finite")
        if not 0 < self.tol < math.inf:
            raise ArgumentError("tolerance must be positive and finite")
        if self.max_passes < 1:
            raise ArgumentError("max_passes must be >= 1")


@dataclass(frozen=True)
class SvmSubmodel(JsonCodec):
    """One binary decision function: f(x) = sum_i coef_i K(sv_i, x) + b.

    A read-only view of one class of an SvmModel: support_x holds the
    design-space support rows whose coefficient for that class is nonzero,
    and coef those coefficients, beta_i * y_i, so beta_i = |coef_i|.
    """

    support_x: np.ndarray
    coef: np.ndarray
    b: float
    converged: bool


@dataclass
class SvmModel(_LinearModel):
    """One-vs-rest kernel SVM over one shared support set; predicts the class with the largest decision value.

    support_rows are raw input rows, as predict takes them; row i of coef
    holds that row's coefficient in each class's decision function (0 where
    it is no support vector of the class), and b and converged hold one entry
    per class. support_design, the same rows encoded and standardized, is
    derived on construction and not stored.
    """

    support_rows: np.ndarray
    coef: np.ndarray
    b: np.ndarray
    converged: tuple[bool, ...]
    config: SvmConfig = field(default_factory=SvmConfig)
    gamma: float = 1.0
    support_design: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        k = len(self.class_labels)
        # JSON stores an empty support set as [], which drops its widths
        if self.support_rows.size == 0:
            self.support_rows = self.support_rows.reshape(0, len(self.feature_names))
        if self.coef.size == 0:
            self.coef = self.coef.reshape(0, k)
        if self.b.shape != (k,) or len(self.converged) != k:
            raise ArgumentError(f"an SVM of {k} classes needs {k} biases and convergence flags")
        if self.support_rows.ndim != 2 or self.support_rows.shape[1] != len(self.feature_names):
            raise ArgumentError(f"support rows must have {len(self.feature_names)} columns, one per feature")
        if self.coef.shape != (self.support_rows.shape[0], k):
            raise ArgumentError(f"coefficients must form a {self.support_rows.shape[0]} x {k} matrix")
        self.support_design = self._design(self.support_rows)

    @property
    def submodels(self) -> list[SvmSubmodel]:
        """One binary decision function per class, over its own support vectors."""
        out = []
        for c in range(self.b.size):
            keep = self.coef[:, c] != 0.0
            out.append(SvmSubmodel(self.support_design[keep], self.coef[keep, c], float(self.b[c]), self.converged[c]))
        return out

    def decision_matrix(self, X: np.ndarray) -> np.ndarray:
        """Decision values, one column per class, one kernel product per chunk of rows."""
        spec = self.config.kernel
        left = _operands(spec, self._design(X))[0]
        right = _operands(spec, self.support_design)[1]
        out = np.empty((left.shape[0], self.b.size))
        step = max(1, DECISION_CELLS // max(1, right.shape[0]))
        for lo in range(0, left.shape[0], step):
            k_mat = _kernel_from_dot(spec, self.gamma, left[lo : lo + step] @ right.T)
            np.matmul(k_mat, self.coef, out=out[lo : lo + step])
        out += self.b
        return out


class KernelRows:
    """Rows of the training kernel matrix, computed on demand into a bounded LRU buffer.

    The buffer holds KERNEL_CACHE_MB of rows (at least two, at most all n) in
    preallocated slots; a missed row is computed in place into a free slot,
    or into the least recently used one. Every row comes from the same call,
    so a recomputed row is bit-identical to the one evicted and the solver's
    path does not depend on the cache size. diag holds K(x_t, x_t).
    """

    def __init__(self, spec: KernelSpec, gamma: float, X: np.ndarray) -> None:
        n = X.shape[0]
        self.spec, self.gamma = spec, gamma
        self.left, self.right = _operands(spec, X)
        self.diag = _kernel_from_dot(spec, gamma, np.einsum("ij,ij->i", self.left, self.right))
        self.buffer = np.empty((min(n, max(2, int(KERNEL_CACHE_MB * 2**20) // (8 * n))), n))
        self.slots: OrderedDict[int, int] = OrderedDict()  # row -> slot, least recently used first

    def __getitem__(self, i: int) -> np.ndarray:
        slot = self.slots.get(i)
        if slot is not None:
            self.slots.move_to_end(i)
            return self.buffer[slot]
        slot = len(self.slots) if len(self.slots) < self.buffer.shape[0] else self.slots.popitem(last=False)[1]
        self.slots[i] = slot
        row = self.buffer[slot]
        np.dot(self.left, self.right[i], out=row)
        return _kernel_from_dot(self.spec, self.gamma, row)


def _smo_solve(K: KernelRows, y: np.ndarray, config: SvmConfig) -> tuple[np.ndarray, float, bool]:
    """Solve one binary dual by SMO with second-order working-set selection.

    y has entries in {-1, +1}. The solver works on coef = y * beta, boxed in
    [lo, hi] ([0, C] where y = +1, [-C, 0] where y = -1), and on the residual
    g = y - K coef each row's bias-free decision leaves. A step moves coef_i
    up and coef_j down by one t, so sum(coef) stays 0, and updates
    g -= t (K_i - K_j). i is a row that can rise with the largest g (m); j,
    among rows that can fall with g below m, gains most from its exact line
    search, (m - g_j)^2 / (K_ii + K_jj - 2 K_ij) (WSS2: Fan, Chen & Lin, JMLR
    2005, as in LIBSVM). It stops when m - M < tol, M the smallest g of a row
    that can fall: then every row meets its KKT condition within tol. At most
    max_passes * n steps run. Returns (coef, b, converged); b is the mean g
    of the free rows, or (m + M) / 2 if none is free.
    """
    n, cap = y.size, config.max_passes * y.size
    hi = np.where(y > 0, config.C, 0.0).tolist()
    lo = [h - config.C for h in hi]
    coef = [0.0] * n
    # g kept as two masked copies: rise is g where a row can rise and -inf
    # elsewhere, fall is g where it can fall and +inf elsewhere
    rise = np.where(y > 0, y, -np.inf)
    fall = np.where(y > 0, np.inf, y)
    rbf = K.spec.kind == "rbf"
    gain, curve = np.empty(n), np.empty(n)
    converged = False
    for step in range(cap + 1):
        i = int(rise.argmax())
        m = float(rise[i])
        np.subtract(m, fall, out=gain)
        if gain.max() < config.tol:
            converged = True
            break
        if step == cap:
            break
        K_i = K[i]
        np.maximum(gain, 0.0, out=gain)
        gain *= gain
        # the pair curvature K_ii + K_tt - 2 K_it, floored at TAU; halved for
        # rbf, whose diagonal is 1 and whose values never exceed it
        if rbf:
            np.subtract(1.0 + TAU, K_i, out=curve)
        else:
            np.multiply(K_i, -2.0, out=curve)
            curve += K.diag
            curve += K.diag[i]
            np.maximum(curve, TAU, out=curve)
        gain /= curve
        j = int(gain.argmax())
        K_j = K[j]
        room_i, room_j = hi[i] - coef[i], coef[j] - lo[j]
        t = min((m - float(fall[j])) / (float(curve[j]) * (2.0 if rbf else 1.0)), room_i, room_j)
        coef[i] = hi[i] if t == room_i else coef[i] + t
        coef[j] = lo[j] if t == room_j else coef[j] - t
        np.subtract(K_i, K_j, out=curve)
        curve *= t
        rise -= curve
        fall -= curve
        g_i, g_j = float(rise[i]), float(fall[j])
        rise[i] = g_i if coef[i] < hi[i] else -np.inf
        fall[i] = g_i if coef[i] > lo[i] else np.inf
        rise[j] = g_j if coef[j] < hi[j] else -np.inf
        fall[j] = g_j if coef[j] > lo[j] else np.inf
    free = np.isfinite(rise) & np.isfinite(fall)
    b = float(rise[free].mean()) if free.any() else (float(rise.max()) + float(fall.min())) / 2.0
    return np.array(coef), b, converged


def fit_svm(ds: Dataset, target: str, config: SvmConfig = SvmConfig()) -> SvmModel:
    """Fit one-vs-rest kernel SVMs with the SMO solver.

    The k binary solves read one KernelRows cache, so beyond the design
    matrix a fit holds KERNEL_CACHE_MB of kernel rows and a few length-n
    vectors, never an n x n matrix. A subproblem whose one-vs-rest labels
    are all identical (a class absent from the training rows, or the only
    class present) is degenerate: it has no support vectors and a constant
    decision of +1 or -1 matching that label, so prediction still behaves
    sensibly. The model keeps the rows that support any class.
    """
    X_raw, y, X, inputs = _fit_inputs(ds, target)
    gamma = config.kernel.resolve_gamma(X.shape[1])
    K = KernelRows(config.kernel, gamma, X)

    k = len(inputs["class_labels"])
    coef, b, converged = np.zeros((X.shape[0], k)), np.zeros(k), []
    for c in range(k):
        y_bin = np.where(y == c, 1.0, -1.0)
        if (y_bin == y_bin[0]).all():
            b[c] = y_bin[0]
            converged.append(True)
            continue
        coef[:, c], b[c], done = _smo_solve(K, y_bin, config)
        converged.append(done)
    if not all(converged):
        warnings.warn("SMO hit the sweep cap before satisfying the KKT tolerance", stacklevel=2)
    support = np.flatnonzero(coef.any(axis=1))
    return SvmModel(
        **inputs,
        support_rows=X_raw[support],
        coef=coef[support],
        b=b,
        converged=tuple(converged),
        config=config,
        gamma=gamma,
    )


def svm_decision(model: SvmModel, rows: np.ndarray) -> np.ndarray:
    """Per-class decision values; column c is the one-vs-rest margin for class c."""
    return model.decision_matrix(rows)
