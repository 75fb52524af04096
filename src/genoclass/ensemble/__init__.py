"""Tree ensembles: CART base learners, random forest, and gradient boosting."""

from __future__ import annotations

from .boosting import (
    LOSSES,
    VARIANTS,
    GbdtConfig,
    GbdtModel,
    GossSample,
    fit_gbdt,
    goss_gain,
    goss_sample,
    loss_gradients,
    loss_value,
    softmax,
)
from .cart import (
    Tree,
    TreeParams,
    apply,
    fit_tree,
    predict_tree,
)
from .forest import (
    ForestConfig,
    ForestDiagnostics,
    ForestModel,
    fit_random_forest,
    forest_diagnostics,
)

__all__ = [
    "LOSSES",
    "VARIANTS",
    "ForestConfig",
    "ForestDiagnostics",
    "ForestModel",
    "GbdtConfig",
    "GbdtModel",
    "GossSample",
    "Tree",
    "TreeParams",
    "apply",
    "fit_gbdt",
    "fit_random_forest",
    "fit_tree",
    "forest_diagnostics",
    "goss_gain",
    "goss_sample",
    "loss_gradients",
    "loss_value",
    "predict_tree",
    "softmax",
]
