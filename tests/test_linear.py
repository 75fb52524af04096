"""Tests for the one-vs-rest logistic and kernel SVM classifiers."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from genoclass import (
    ArgumentError,
    ColumnEncoder,
    ConvergenceError,
    KernelSpec,
    LogisticConfig,
    LogisticModel,
    Standardizer,
    SvmConfig,
    SvmModel,
    fit_logistic,
    fit_svm,
    kernel_eval,
    svm_decision,
)
from genoclass import linear
from genoclass.dataset import supervised_arrays
from genoclass.linear import KernelRows, _smo_solve, logistic_loss_gradient, sigmoid

from conftest import BINARY, make_dataset, xy_dataset


class TestKernelEval:
    def test_rbf_at_same_point(self):
        x = np.array([0.3, -1.2, 4.0])
        assert kernel_eval(KernelSpec("rbf", gamma=0.7), x, x) == pytest.approx(1.0, abs=1e-15)

    def test_linear_dot_product(self):
        assert kernel_eval(KernelSpec("linear"), np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_polynomial_closed_form(self):
        spec = KernelSpec("polynomial", gamma=0.5, degree=3, coef0=1.0)
        got = kernel_eval(spec, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert got == pytest.approx((0.5 * 11.0 + 1.0) ** 3)

    def test_rbf_symmetric(self):
        rng = np.random.default_rng(67)
        spec = KernelSpec("rbf", gamma=0.9)
        for _ in range(100):
            x, z = rng.normal(size=(2, 4))
            assert kernel_eval(spec, x, z) == pytest.approx(kernel_eval(spec, z, x), abs=1e-15)

    def test_rbf_gram_matrix_is_psd(self):
        rng = np.random.default_rng(71)
        spec = KernelSpec("rbf", gamma=1.3)
        for _ in range(5):
            X = rng.normal(size=(20, 3))
            K = kernel_eval(spec, X, X)
            eigenvalues = np.linalg.eigvalsh(K)
            assert eigenvalues.min() >= -1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ArgumentError):
            kernel_eval(KernelSpec("linear"), np.zeros(2), np.zeros(3))

    def test_bad_parameters(self):
        with pytest.raises(ArgumentError):
            KernelSpec("rbf", gamma=-1.0)
        with pytest.raises(ArgumentError):
            KernelSpec("polynomial", degree=0)
        with pytest.raises(ArgumentError):
            KernelSpec("sigmoid")


class TestColumnEncoder:
    def test_categorical_expands_numeric_passes_through(self):
        enc = ColumnEncoder(("num", "cat"), (0, 3))
        assert enc.width == 4
        out = enc.transform(np.array([[1.5, 2.0], [-1.0, 0.0]]))
        np.testing.assert_array_equal(out, [[1.5, 0, 0, 1], [-1.0, 1, 0, 0]])

    def test_binary_codes_pass_through(self):
        ds = make_dataset(
            [("b", "binary", "feature", BINARY), ("c", "categorical", "feature", ("x", "y", "z"))],
            {"b": [0, 1], "c": [2, 0]},
        )
        enc = ColumnEncoder.from_dataset(ds, ["b", "c"])
        assert enc.cardinalities == (0, 3)
        assert enc.width == 4

    def test_out_of_range_codes_rejected(self):
        enc = ColumnEncoder(("cat",), (3,))
        with pytest.raises(ArgumentError):
            enc.transform(np.array([[3.0]]))
        with pytest.raises(ArgumentError):
            enc.transform(np.array([[0.5]]))

    def test_cardinality_one_rejected(self):
        with pytest.raises(ArgumentError):
            ColumnEncoder(("cat",), (1,))

    def test_json_round_trip(self):
        enc = ColumnEncoder(("a", "b"), (0, 4))
        assert ColumnEncoder.from_json(enc.to_json()) == enc


class TestStandardizer:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(73)
        X = rng.normal(3.0, 2.5, size=(200, 3))
        out = Standardizer.fit(X).transform(X)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_left_alone(self):
        X = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
        out = Standardizer.fit(X).transform(X)
        np.testing.assert_array_equal(out[:, 0], np.zeros(5))

    def test_width_mismatch(self):
        sc = Standardizer.fit(np.zeros((3, 2)))
        with pytest.raises(ArgumentError):
            sc.transform(np.zeros((3, 5)))


def separable_1d(n=40, seed=79):
    rng = np.random.default_rng(seed)
    x_neg = rng.uniform(-3.0, -0.5, size=n // 2)
    x_pos = rng.uniform(0.5, 3.0, size=n // 2)
    X = np.r_[x_neg, x_pos].reshape(-1, 1)
    y = np.r_[np.zeros(n // 2), np.ones(n // 2)].astype(int)
    return xy_dataset(X, y)


def masked_sigmoid(z):
    """The logistic function as two masked halves, each exp taken of a non-positive value."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_logistic(ds, config):
    """fit_logistic as a plain loop: two logaddexp loss passes and the masked sigmoid.

    Returns (W, alpha, loss_history, epoch), epoch being the one whose loss was
    not finite, or None when every epoch ran.
    """
    X_raw, y, labels, names = supervised_arrays(ds, "y", discrete=True)
    design = ColumnEncoder.from_dataset(ds, names).transform(X_raw)
    X = Standardizer.fit(design).transform(design)
    n, k = X.shape[0], len(labels)
    Y = np.zeros((n, k))
    Y[np.arange(n), y] = 1.0
    W = np.zeros((X.shape[1], k))
    alpha = np.zeros(k)
    history = []
    for epoch in range(config.epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            Z = X @ W + alpha
            per_class = np.mean(Y * np.logaddexp(0.0, -Z) + (1.0 - Y) * np.logaddexp(0.0, Z), axis=0)
            per_class = per_class + 0.5 * config.l2 * (W * W).sum(axis=0)
        loss = float(per_class.mean())
        if not np.isfinite(loss):
            return W, alpha, history, epoch
        history.append(loss)
        diff = (masked_sigmoid(Z) - Y) / n
        W = W - config.learning_rate * (X.T @ diff + config.l2 * W)
        alpha = alpha - config.learning_rate * diff.sum(axis=0)
    return W, alpha, history, None


def scaled_dataset(k, seed=5, scale=100.0):
    rng = np.random.default_rng(seed)
    return xy_dataset(rng.normal(size=(50, 3)) * scale, rng.integers(0, k, size=50), n_classes=k)


class TestLogistic:
    def test_sigmoid_at_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_untrained_weights_give_even_probabilities(self):
        model = LogisticModel(
            feature_names=("x0",),
            class_labels=("a", "b"),
            encoder=ColumnEncoder(("x0",), (0,)),
            scaler=Standardizer(np.zeros(1), np.ones(1)),
            W=np.zeros((1, 2)),
            alpha=np.zeros(2),
            loss_history=(),
        )
        probas = model.predict_proba(np.array([[3.7], [-200.0]]))
        np.testing.assert_allclose(probas, 0.5)

    def test_initial_loss_is_log_two(self):
        model = fit_logistic(separable_1d(), "y", LogisticConfig(epochs=1))
        assert model.loss_history[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_separable_data_learns_positive_weight(self):
        ds = separable_1d()
        model = fit_logistic(ds, "y", LogisticConfig(learning_rate=0.5, epochs=400))
        assert model.W[0, 1] > 0.0
        X = ds.matrix(["x0"])
        assert (model.predict(X) == ds.values("y")).mean() == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(83)
        X = rng.normal(size=(5, 3))
        y = rng.integers(0, 2, size=5).astype(float)
        w = rng.normal(size=3)
        alpha = float(rng.normal())
        l2 = 0.3
        _, grad_w, grad_a = logistic_loss_gradient(w, alpha, X, y, l2)
        step = 1e-5

        def loss_at(wv, av):
            return logistic_loss_gradient(wv, av, X, y, l2)[0]

        for idx in range(3):
            bump = np.zeros(3)
            bump[idx] = step
            fd = (loss_at(w + bump, alpha) - loss_at(w - bump, alpha)) / (2 * step)
            assert abs(fd - grad_w[idx]) / max(abs(fd), 1e-12) < 1e-5
        fd_a = (loss_at(w, alpha + step) - loss_at(w, alpha - step)) / (2 * step)
        assert abs(fd_a - grad_a) / max(abs(fd_a), 1e-12) < 1e-5

    def test_probabilities_normalized_and_open_interval(self):
        rng = np.random.default_rng(89)
        ds = xy_dataset(rng.normal(size=(60, 3)), rng.integers(0, 3, size=60))
        model = fit_logistic(ds, "y", LogisticConfig(epochs=50))
        probas = model.predict_proba(rng.normal(size=(100, 3)))
        np.testing.assert_allclose(probas.sum(axis=1), 1.0, atol=1e-12)
        assert (probas > 0).all() and (probas < 1).all()

    def test_probability_monotone_in_positive_weight_feature(self):
        model = fit_logistic(separable_1d(), "y", LogisticConfig(learning_rate=0.5, epochs=300))
        grid = np.linspace(-4.0, 4.0, 41).reshape(-1, 1)
        p_pos = model.predict_proba(grid)[:, 1]
        assert (np.diff(p_pos) >= 0).all()

    def test_symmetric_data_gives_even_split_at_midpoint(self):
        ds = xy_dataset(np.array([-2.0, -1.0, 1.0, 2.0]), [0, 0, 1, 1])
        model = fit_logistic(ds, "y", LogisticConfig(epochs=200))
        probas = model.predict_proba(np.array([[0.0]]))
        np.testing.assert_allclose(probas, [[0.5, 0.5]], atol=1e-9)

    def test_loss_non_increasing_at_default_rate(self):
        model = fit_logistic(separable_1d(), "y", LogisticConfig(epochs=200))
        losses = np.array(model.loss_history)
        assert (np.diff(losses) <= 1e-12).all()

    def test_divergence_names_the_epoch(self):
        with pytest.raises(ConvergenceError, match="epoch 26"):
            fit_logistic(
                separable_1d(),
                "y",
                LogisticConfig(learning_rate=1e6, epochs=80, l2=1.0),
            )

    def test_divergence_without_l2_raises_no_warning(self):
        # with l2 = 0 the penalty of overflowed weights is 0 * inf; the pytest
        # settings turn any RuntimeWarning into an error, so this checks that
        # only the ConvergenceError escapes
        with pytest.raises(ConvergenceError, match="epoch 1;"):
            fit_logistic(scaled_dataset(3), "y", LogisticConfig(learning_rate=1e300, epochs=50))

    def test_infinite_margin_counts_as_divergence(self, monkeypatch):
        # Unstandardized inputs of 1e160 let X @ W overflow while W * W stays
        # finite. Every margin then has the sign of its label, so each cell's
        # loss is 0 and only the margin check reports the divergence, at the
        # epoch the logaddexp loss turns NaN.
        identity = Standardizer(np.zeros(1), np.ones(1))
        monkeypatch.setattr(linear.Standardizer, "fit", staticmethod(lambda X: identity))
        ds = xy_dataset(np.r_[-1.0, -2.0, 1.0, 2.0] * 1e160, [0, 0, 1, 1])
        config = LogisticConfig(learning_rate=1e-10, epochs=5)
        *_, epoch = reference_logistic(ds, config)
        assert epoch is not None
        with pytest.raises(ConvergenceError, match=f"epoch {epoch};"):
            fit_logistic(ds, "y", config)

    @pytest.mark.parametrize(
        "ds, config",
        [
            (scaled_dataset(3, seed=2, scale=1.0), LogisticConfig(learning_rate=1e4, epochs=200, l2=2.0)),
            (separable_1d(), LogisticConfig(learning_rate=1e200, epochs=20)),
            (scaled_dataset(4, seed=11, scale=1.0), LogisticConfig(learning_rate=1e150, epochs=50, l2=0.5)),
        ],
    )
    def test_divergence_epoch_matches_the_reference_loop(self, ds, config):
        *_, epoch = reference_logistic(ds, config)
        assert epoch is not None
        with pytest.raises(ConvergenceError, match=f"epoch {epoch};"):
            fit_logistic(ds, "y", config)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("l2", [0.0, 0.5])
    def test_fit_matches_the_reference_loop(self, k, l2):
        rng = np.random.default_rng(101 + k)
        ds = xy_dataset(rng.normal(size=(80, 4)), rng.integers(0, k, size=80), n_classes=k)
        config = LogisticConfig(learning_rate=0.3, epochs=120, l2=l2)
        W, alpha, history, epoch = reference_logistic(ds, config)
        assert epoch is None
        model = fit_logistic(ds, "y", config)
        np.testing.assert_array_equal(model.W, W)
        np.testing.assert_array_equal(model.alpha, alpha)
        np.testing.assert_allclose(model.loss_history, history, rtol=1e-14, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(z=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=8), elements=st.floats(allow_nan=False)))
    @example(z=np.array([np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -0.0, 0.0, 709.8, -745.1, 37.0, -37.0]))
    def test_sigmoid_is_bit_equal_to_the_masked_halves(self, z):
        s = sigmoid(z)
        assert s.view(np.uint64).tolist() == masked_sigmoid(z).view(np.uint64).tolist()
        assert ((s >= 0.0) & (s <= 1.0)).all()

    def test_config_validation(self):
        with pytest.raises(ArgumentError):
            LogisticConfig(learning_rate=0.0)
        with pytest.raises(ArgumentError):
            LogisticConfig(epochs=0)
        with pytest.raises(ArgumentError):
            LogisticConfig(l2=-0.1)

    def test_serialization_reproduces_predictions_exactly(self):
        rng = np.random.default_rng(97)
        ds = xy_dataset(rng.normal(size=(50, 2)), rng.integers(0, 3, size=50))
        model = fit_logistic(ds, "y", LogisticConfig(epochs=60))
        clone = LogisticModel.from_json(model.to_json())
        X = rng.normal(size=(30, 2))
        np.testing.assert_array_equal(model.decision_matrix(X), clone.decision_matrix(X))


TWO_POINTS = xy_dataset(np.array([-1.0, 1.0]), [0, 1])
XOR = xy_dataset(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]), [0, 0, 1, 1])


class TestSvm:
    def test_two_point_analytic_solution(self):
        config = SvmConfig(C=10.0, kernel=KernelSpec("linear"))
        model = fit_svm(TWO_POINTS, "y", config)
        X = np.array([[-1.0], [0.0], [1.0]])
        scores = svm_decision(model, X)[:, 1]
        assert scores[1] == pytest.approx(0.0, abs=1e-3)
        assert scores[0] == pytest.approx(-1.0, abs=1e-3)
        assert scores[2] == pytest.approx(1.0, abs=1e-3)
        sub = model.submodels[1]
        assert sub.support_x.shape[0] == 2

    def test_duals_satisfy_box_and_balance(self):
        config = SvmConfig(C=10.0, kernel=KernelSpec("rbf", gamma=1.0))
        model = fit_svm(XOR, "y", config)
        for sub in model.submodels:
            betas = np.abs(sub.coef)
            assert (betas >= 0).all() and (betas <= config.C).all()
            assert abs(sub.coef.sum()) < 1e-6

    def test_xor_with_rbf_kernel(self):
        model = fit_svm(XOR, "y", SvmConfig(C=10.0, kernel=KernelSpec("rbf", gamma=1.0)))
        X = XOR.matrix(["x0", "x1"])
        assert (model.predict(X) == XOR.values("y")).mean() == 1.0

    def test_margin_is_one_at_free_support_vectors(self):
        config = SvmConfig(C=10.0, kernel=KernelSpec("rbf", gamma=1.0))
        model = fit_svm(XOR, "y", config)
        Z = model.scaler.transform(model.encoder.transform(XOR.matrix(["x0", "x1"])))
        sub = model.submodels[1]
        scores = kernel_eval(config.kernel, Z, sub.support_x, model.gamma) @ sub.coef + sub.b
        for i in range(Z.shape[0]):
            for j in range(sub.support_x.shape[0]):
                if np.allclose(Z[i], sub.support_x[j]) and 1e-6 < abs(sub.coef[j]) < config.C - 1e-6:
                    assert abs(scores[i]) == pytest.approx(1.0, abs=1e-3)

    def test_single_class_training_set(self):
        ds = xy_dataset(np.array([[0.0], [1.0], [2.0]]), [0, 0, 0], n_classes=2)
        model = fit_svm(ds, "y")
        preds = model.predict(np.array([[5.0], [-5.0]]))
        np.testing.assert_array_equal(preds, [0, 0])
        assert model.submodels[0].support_x.shape[0] == 0

    def test_empty_submodel_scores_equal_bias(self):
        model = SvmModel(
            feature_names=("x0",),
            class_labels=("a", "b"),
            encoder=ColumnEncoder(("x0",), (0,)),
            scaler=Standardizer(np.zeros(1), np.ones(1)),
            support_rows=np.empty((0, 1)),
            coef=np.empty((0, 2)),
            b=np.array([-1.0, -1.0]),
            converged=(True, True),
        )
        assert [sub.support_x.shape for sub in model.submodels] == [(0, 1), (0, 1)]
        np.testing.assert_array_equal(model.decision_matrix(np.zeros((2, 1))), -1.0)

    def test_linear_kernel_matches_explicit_weights(self):
        rng = np.random.default_rng(101)
        X = rng.normal(size=(30, 2))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
        ds = xy_dataset(X, y)
        model = fit_svm(ds, "y", SvmConfig(C=1.0, kernel=KernelSpec("linear")))
        sub = model.submodels[1]
        w = sub.support_x.T @ sub.coef
        Z = model.scaler.transform(model.encoder.transform(X))
        direct = Z @ w + sub.b
        np.testing.assert_allclose(svm_decision(model, X)[:, 1], direct, atol=1e-9)

    @pytest.mark.parametrize("damage", ["coef_row", "extra_bias", "missing_flag", "narrow_rows"])
    def test_inconsistent_layout_rejected(self, damage):
        doc = fit_svm(XOR, "y", SvmConfig(C=10.0, kernel=KernelSpec("rbf", gamma=1.0))).to_json()
        if damage == "coef_row":
            doc["coef"].pop()
        elif damage == "extra_bias":
            doc["b"].append(0.0)
        elif damage == "missing_flag":
            doc["converged"].pop()
        else:
            doc["support_rows"] = [row[:1] for row in doc["support_rows"]]
        with pytest.raises(ArgumentError):
            SvmModel.from_json(doc)

    def test_decision_does_not_depend_on_the_chunk_size(self, monkeypatch):
        rng = np.random.default_rng(127)
        ds = xy_dataset(rng.normal(size=(60, 2)), rng.integers(0, 3, size=60))
        model = fit_svm(ds, "y")
        X = rng.normal(size=(25, 2))
        whole = model.decision_matrix(X)
        # chunks of a few rows each, the last one short
        monkeypatch.setattr(linear, "DECISION_CELLS", 3 * model.support_rows.shape[0])
        np.testing.assert_allclose(model.decision_matrix(X), whole, rtol=0.0, atol=1e-12)

    def test_unconverged_fit_warns_and_flags(self):
        config = SvmConfig(C=10.0, kernel=KernelSpec("rbf", gamma=1.0), max_passes=1, tol=1e-9)
        with pytest.warns(UserWarning, match="sweep cap"):
            model = fit_svm(XOR, "y", config)
        assert not all(sub.converged for sub in model.submodels)

    def test_prediction_dimension_mismatch(self):
        model = fit_svm(TWO_POINTS, "y", SvmConfig(kernel=KernelSpec("linear")))
        with pytest.raises(ArgumentError):
            model.predict(np.zeros((2, 3)))

    def test_deterministic_refit(self):
        rng = np.random.default_rng(103)
        ds = xy_dataset(rng.normal(size=(40, 2)), rng.integers(0, 3, size=40))
        a = fit_svm(ds, "y")
        b = fit_svm(ds, "y")
        X = rng.normal(size=(25, 2))
        np.testing.assert_array_equal(a.decision_matrix(X), b.decision_matrix(X))

    def test_serialization_reproduces_predictions_exactly(self):
        rng = np.random.default_rng(107)
        ds = xy_dataset(rng.normal(size=(40, 2)), rng.integers(0, 2, size=40))
        model = fit_svm(ds, "y", SvmConfig(C=2.0))
        clone = SvmModel.from_json(model.to_json())
        X = rng.normal(size=(25, 2))
        np.testing.assert_array_equal(model.decision_matrix(X), clone.decision_matrix(X))

    def test_argmax_invariant_to_constant_shift(self):
        rng = np.random.default_rng(109)
        ds = xy_dataset(rng.normal(size=(40, 2)), rng.integers(0, 3, size=40))
        model = fit_svm(ds, "y")
        X = rng.normal(size=(20, 2))
        scores = model.decision_matrix(X)
        np.testing.assert_array_equal(scores.argmax(axis=1), (scores + 13.5).argmax(axis=1))

    def test_config_validation(self):
        with pytest.raises(ArgumentError):
            SvmConfig(C=0.0)
        with pytest.raises(ArgumentError):
            SvmConfig(tol=0.0)
        with pytest.raises(ArgumentError):
            SvmConfig(max_passes=0)


def assert_smo_solution(X, y, config):
    """A converged SMO solve meets the dual constraints and every KKT condition within tol."""
    gamma = config.kernel.resolve_gamma(X.shape[1])
    coef, b, converged = _smo_solve(KernelRows(config.kernel, gamma, X), y, config)
    assert converged
    beta = y * coef
    assert (beta >= 0.0).all() and (beta <= config.C).all()
    assert abs(coef.sum()) <= 1e-9
    margin = y * (kernel_eval(config.kernel, X, X, gamma) @ coef + b)
    tol = config.tol + 1e-9  # the margins are recomputed, not the solver's running residuals
    assert (margin[beta == 0.0] >= 1.0 - tol).all()
    assert (margin[beta == config.C] <= 1.0 + tol).all()
    free = (beta > 0.0) & (beta < config.C)
    assert (np.abs(margin[free] - 1.0) <= tol).all()


class TestSmoSolver:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_converged_solution_meets_kkt_and_the_dual_constraints(self, data):
        n, d = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 3))
        X = data.draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-3.0, 3.0)))
        # both labels present, so the subproblem is not degenerate
        y = np.where(data.draw(hnp.arrays(np.bool_, n)), 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        config = SvmConfig(C=data.draw(st.floats(0.1, 10.0)), kernel=KernelSpec(data.draw(st.sampled_from(["linear", "rbf"]))))
        assert_smo_solution(X, y, config)

    def test_ill_conditioned_small_problem_converges_by_default(self):
        # three nearly collinear distinct points, two with rows of both labels:
        # the free pairs zig-zag, and the solve takes 248 passes of 14 steps
        X = np.array([[2.875, -2.0], [3.0, 3.0], [3.0, 0.0]] + [[3.0, 3.0]] * 10 + [[3.0, 0.0]])
        y = np.array([1.0, -1.0] + [1.0] * 11 + [-1.0])
        assert_smo_solution(X, y, SvmConfig(C=2.0, kernel=KernelSpec("linear")))

    def test_model_does_not_depend_on_the_kernel_cache_size(self, monkeypatch):
        rng = np.random.default_rng(113)
        X = rng.normal(size=(120, 3))
        ds = xy_dataset(X, rng.integers(0, 3, size=120))
        full = fit_svm(ds, "y")
        assert KernelRows(full.config.kernel, full.gamma, X).buffer.shape[0] == 120
        # room for two rows: the two of the current pair, every other row recomputed
        monkeypatch.setattr(linear, "KERNEL_CACHE_MB", 2 * 8 * 120 / 2**20)
        assert KernelRows(full.config.kernel, full.gamma, X).buffer.shape[0] == 2
        two_rows = fit_svm(ds, "y")
        assert json.dumps(two_rows.to_json()) == json.dumps(full.to_json())
