"""Linear-family classifiers: one-vs-rest logistic regression and kernel SVM.

Both models share the same input plumbing: categorical feature columns are
one-hot expanded (tree ensembles consume the raw codes instead, so the
expansion lives here), then every design column is standardized to zero
mean and unit variance with statistics fitted on the training rows only.

The logistic side fits one binary sigmoid model per class by full-batch
gradient descent on the mean negative log-likelihood of

    pi(x) = e^(alpha + beta.x) / (1 + e^(alpha + beta.x))

and predicts by normalizing the per-class pi values. The SVM side trains
one-vs-rest binary subproblems with a sequential-minimal-optimization
solver on the dual

    minimize   0.5 * b' Q b - sum(b)
    subject to 0 <= b_i <= C,  sum_i y_i b_i = 0,   Q_ij = y_i y_j K(x_i, x_j)

and classifies by the largest decision value across classes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .codec import JsonCodec
from .dataset import Dataset, supervised_arrays
from .errors import ArgumentError, ConvergenceError, StateError

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
        if self.gamma is not None and self.gamma <= 0:
            raise ArgumentError("kernel gamma must be positive")
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
    if spec.kind == "linear":
        out = u2 @ v2.T
    elif spec.kind == "polynomial":
        out = (g * (u2 @ v2.T) + spec.coef0) ** spec.degree
    else:
        # rbf: ||u-v||^2 = ||u||^2 + ||v||^2 - 2 u.v, clipped against rounding; in place, one m x n temporary
        out = (u2 * u2).sum(axis=1)[:, None] + (v2 * v2).sum(axis=1)[None, :]
        dot = u2 @ v2.T
        dot *= 2.0
        out -= dot
        np.exp(np.multiply(np.maximum(out, 0.0, out=out), -g, out=out), out=out)
    return float(out[0, 0]) if scalar else out


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
            if (codes != col).any() or codes.min() < 0 or codes.max() >= card:
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
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# -- logistic regression ------------------------------------------------------------


@dataclass(frozen=True)
class LogisticConfig(JsonCodec):
    """Gradient-descent hyperparameters shared by the per-class binary fits."""

    learning_rate: float = 0.1
    epochs: int = 300
    l2: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ArgumentError("learning rate must be positive")
        if self.epochs < 1:
            raise ArgumentError("epochs must be >= 1")
        if self.l2 < 0:
            raise ArgumentError("l2 penalty must be non-negative")


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
    n = X.shape[0]
    z = X @ w + alpha
    # log(1 + e^z) via logaddexp keeps the loss finite for large |z|
    loss = float(np.mean(y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)))
    loss += 0.5 * l2 * float(w @ w)
    diff = (sigmoid(z) - y) / n
    return loss, X.T @ diff + l2 * w, float(diff.sum())


@dataclass
class LogisticModel(JsonCodec):
    """One-vs-rest logistic classifier: one (beta, alpha) pair per class.

    W columns are the per-class weight vectors over the expanded and
    standardized design matrix; prediction normalizes the per-class sigmoid
    scores into a probability vector.
    """

    feature_names: tuple[str, ...]
    class_labels: tuple[str, ...]
    encoder: ColumnEncoder
    scaler: Standardizer
    W: np.ndarray
    alpha: np.ndarray
    loss_history: tuple[float, ...]
    config: LogisticConfig = field(default_factory=LogisticConfig)
    trained: bool = field(default=True, init=False)

    def _design(self, X: np.ndarray) -> np.ndarray:
        if not self.trained:
            raise StateError("model has not been trained")
        return self.scaler.transform(self.encoder.transform(X))

    def decision_matrix(self, X: np.ndarray) -> np.ndarray:
        return self._design(X) @ self.W + self.alpha

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        scores = sigmoid(self.decision_matrix(X))
        return scores / scores.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_matrix(X), axis=1)


def fit_logistic(ds: Dataset, target: str, config: LogisticConfig = LogisticConfig()) -> LogisticModel:
    """Fit the per-class binary models by full-batch gradient descent.

    All classes share the learning schedule, so the k fits run as one matrix
    recursion; loss_history records the mean per-class loss per epoch.
    Raises ConvergenceError naming the epoch if any loss becomes non-finite.
    """
    X_raw, y, labels, feature_names = supervised_arrays(ds, target, discrete=True)
    k = len(labels)
    encoder = ColumnEncoder.from_dataset(ds, feature_names)
    design = encoder.transform(X_raw)
    scaler = Standardizer.fit(design)
    X = scaler.transform(design)
    n = X.shape[0]
    Y = np.zeros((n, k))
    Y[np.arange(n), y] = 1.0

    W = np.zeros((X.shape[1], k))
    alpha = np.zeros(k)
    history = []
    for epoch in range(config.epochs):
        Z = X @ W + alpha
        # overflow here is the divergence condition itself, reported below
        with np.errstate(over="ignore"):
            per_class = np.mean(Y * np.logaddexp(0.0, -Z) + (1.0 - Y) * np.logaddexp(0.0, Z), axis=0)
            per_class = per_class + 0.5 * config.l2 * (W * W).sum(axis=0)
        loss = float(per_class.mean())
        if not np.isfinite(loss):
            raise ConvergenceError(f"loss diverged at epoch {epoch}; lower the learning rate")
        history.append(loss)
        diff = (sigmoid(Z) - Y) / n
        W = W - config.learning_rate * (X.T @ diff + config.l2 * W)
        alpha = alpha - config.learning_rate * diff.sum(axis=0)
    return LogisticModel(
        feature_names=tuple(feature_names),
        class_labels=labels,
        encoder=encoder,
        scaler=scaler,
        W=W,
        alpha=alpha,
        loss_history=tuple(history),
        config=config,
    )


def predict_proba_logistic(model: LogisticModel, rows: np.ndarray) -> np.ndarray:
    """Per-class probabilities (normalized one-vs-rest sigmoids) for raw feature rows."""
    return model.predict_proba(rows)


# -- support vector machine ---------------------------------------------------------


@dataclass(frozen=True)
class SvmConfig(JsonCodec):
    """SMO solver settings shared by every one-vs-rest subproblem."""

    C: float = 1.0
    kernel: KernelSpec = field(default_factory=KernelSpec)
    tol: float = 1e-3
    max_passes: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.C <= 0:
            raise ArgumentError("C must be positive")
        if self.tol <= 0:
            raise ArgumentError("tolerance must be positive")
        if self.max_passes < 1:
            raise ArgumentError("max_passes must be >= 1")


@dataclass
class SvmSubmodel(JsonCodec):
    """One binary decision function: f(x) = sum_i coef_i K(sv_i, x) + b.

    coef holds beta_i * y_i for the retained support vectors, so the stored
    model no longer needs the training labels; beta_i = |coef_i|.
    """

    support_x: np.ndarray
    coef: np.ndarray
    b: float
    converged: bool


@dataclass
class SvmModel(JsonCodec):
    """One-vs-rest kernel SVM; predicts the class with the largest decision value."""

    feature_names: tuple[str, ...]
    class_labels: tuple[str, ...]
    encoder: ColumnEncoder
    scaler: Standardizer
    submodels: list[SvmSubmodel]
    config: SvmConfig = field(default_factory=SvmConfig)
    gamma: float = 1.0
    trained: bool = field(default=True, init=False)

    def __post_init__(self) -> None:
        # JSON stores an empty support set as [], which drops its width
        for sub in self.submodels:
            sub.support_x = sub.support_x.reshape(-1, self.scaler.mean.size)

    def _design(self, X: np.ndarray) -> np.ndarray:
        if not self.trained:
            raise StateError("model has not been trained")
        return self.scaler.transform(self.encoder.transform(X))

    def decision_matrix(self, X: np.ndarray) -> np.ndarray:
        Z = self._design(X)
        out = np.empty((Z.shape[0], len(self.submodels)))
        for c, sub in enumerate(self.submodels):
            if sub.support_x.shape[0] == 0:
                out[:, c] = sub.b
                continue
            k_mat = kernel_eval(self.config.kernel, Z, sub.support_x, self.gamma)
            out[:, c] = k_mat @ sub.coef + sub.b
        return out

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Sigmoid-squashed decision values normalized across classes.

        A ranking-preserving surrogate for class probabilities, sufficient
        for one-vs-rest ROC sweeps; sigmoids are strictly positive so the
        normalizer never vanishes.
        """
        s = sigmoid(self.decision_matrix(X))
        return s / s.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_matrix(X), axis=1)


def _smo_solve(K: np.ndarray, y: np.ndarray, config: SvmConfig) -> tuple[np.ndarray, float, bool]:
    """Solve one binary dual by sequential minimal optimization.

    K is the full kernel Gram matrix, y has entries in {-1, +1}. Returns
    (beta, b, converged). Each sweep visits every i whose KKT condition is
    violated beyond tol and pairs it with the j maximizing |E_i - E_j|
    (ties to the lowest j), updating the cached errors E incrementally.
    A sweep with zero updates means the KKT conditions hold everywhere;
    max_passes caps the total sweep count.
    """
    n = y.size
    beta = np.zeros(n)
    b = 0.0
    C = config.C
    tol = config.tol
    # E_i = f(x_i) - y_i, maintained incrementally
    errors = -y.astype(np.float64)

    sweeps = 0
    converged = False
    while sweeps < config.max_passes:
        sweeps += 1
        changed = 0
        for i in range(n):
            e_i = errors[i]
            r_i = e_i * y[i]
            if not ((r_i < -tol and beta[i] < C) or (r_i > tol and beta[i] > 0)):
                continue
            gaps = np.abs(e_i - errors)
            gaps[i] = -1.0
            j = int(np.argmax(gaps))
            e_j = errors[j]
            b_i_old, b_j_old = beta[i], beta[j]
            if y[i] != y[j]:
                lo = max(0.0, b_j_old - b_i_old)
                hi = min(C, C + b_j_old - b_i_old)
            else:
                lo = max(0.0, b_i_old + b_j_old - C)
                hi = min(C, b_i_old + b_j_old)
            if lo >= hi:
                continue
            eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
            if eta >= 0:
                continue
            b_j = b_j_old - y[j] * (e_i - e_j) / eta
            b_j = min(hi, max(lo, b_j))
            if abs(b_j - b_j_old) < 1e-12:
                continue
            b_i = b_i_old + y[i] * y[j] * (b_j_old - b_j)
            d_i = b_i - b_i_old
            d_j = b_j - b_j_old
            b1 = b - e_i - y[i] * d_i * K[i, i] - y[j] * d_j * K[i, j]
            b2 = b - e_j - y[i] * d_i * K[i, j] - y[j] * d_j * K[j, j]
            if 0 < b_i < C:
                b_new = b1
            elif 0 < b_j < C:
                b_new = b2
            else:
                b_new = (b1 + b2) / 2.0
            errors += y[i] * d_i * K[:, i] + y[j] * d_j * K[:, j] + (b_new - b)
            beta[i], beta[j] = b_i, b_j
            b = b_new
            changed += 1
        if changed == 0:
            converged = True
            break
    return beta, b, converged


def fit_svm(ds: Dataset, target: str, config: SvmConfig = SvmConfig()) -> SvmModel:
    """Fit one-vs-rest kernel SVMs with the SMO solver.

    A subproblem whose one-vs-rest labels are all identical (a class absent
    from the training rows, or the only class present) is degenerate: it gets
    an empty support set and a constant decision of +1 or -1 matching that
    label, so prediction still behaves sensibly.
    """
    X_raw, y, labels, feature_names = supervised_arrays(ds, target, discrete=True)
    encoder = ColumnEncoder.from_dataset(ds, feature_names)
    design = encoder.transform(X_raw)
    scaler = Standardizer.fit(design)
    X = scaler.transform(design)
    gamma = config.kernel.resolve_gamma(X.shape[1])
    K = kernel_eval(config.kernel, X, X, gamma)

    submodels: list[SvmSubmodel] = []
    any_unconverged = False
    for c in range(len(labels)):
        y_bin = np.where(y == c, 1.0, -1.0)
        if (y_bin == y_bin[0]).all():
            submodels.append(SvmSubmodel(np.empty((0, X.shape[1])), np.empty(0), float(y_bin[0]), True))
            continue
        beta, b, converged = _smo_solve(K, y_bin, config)
        if not converged:
            any_unconverged = True
        mask = beta > 1e-12
        submodels.append(SvmSubmodel(X[mask].copy(), beta[mask] * y_bin[mask], float(b), converged))
    if any_unconverged:
        warnings.warn("SMO hit the sweep cap before satisfying the KKT tolerance", stacklevel=2)
    return SvmModel(
        feature_names=tuple(feature_names),
        class_labels=labels,
        encoder=encoder,
        scaler=scaler,
        submodels=submodels,
        config=config,
        gamma=gamma,
    )


def svm_decision(model: SvmModel, rows: np.ndarray) -> np.ndarray:
    """Per-class decision values; column c is the one-vs-rest margin for class c."""
    return model.decision_matrix(rows)
