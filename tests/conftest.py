"""Shared helpers for building small typed datasets, and a reference tree descent, in tests."""

from __future__ import annotations

import os

import numpy as np
from hypothesis import settings

from genoclass import ColumnSchema, Dataset

# CI runs replay the same examples, so a property failure there reproduces
# (and prints the blob to replay it); local runs keep exploring new ones.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

BINARY = ("No", "Yes")


def make_schema(cols):
    """Build ColumnSchema objects from terse tuples.

    Args:
        cols: Tuples of (name, kind) with optional trailing role and
            categories elements.

    Returns:
        List of ColumnSchema in the given order.
    """
    out = []
    for spec in cols:
        name, kind = spec[0], spec[1]
        role = spec[2] if len(spec) > 2 else "feature"
        categories = tuple(spec[3]) if len(spec) > 3 else ()
        out.append(ColumnSchema(name, kind, role=role, categories=categories))
    return out


def make_dataset(cols, values, missing=None):
    """Assemble a Dataset from column tuples and plain per-column lists."""
    schema = make_schema(cols)
    arrays = {}
    for col in schema:
        dtype = np.float64 if col.kind == "numeric" else np.int64
        arrays[col.name] = np.asarray(values[col.name], dtype=dtype)
    masks = None
    if missing is not None:
        masks = {k: np.asarray(v, dtype=bool) for k, v in missing.items()}
    return Dataset(schema, arrays, missing=masks)


def xy_dataset(X, y, n_classes=None, labels=None):
    """Wrap a plain (X, y) pair as a Dataset with target column "y".

    Args:
        X: 2-D array of numeric feature values.
        y: Integer class codes.
        n_classes: Number of target categories; inferred from y when omitted.
        labels: Category names for the target; defaults to c0, c1, ...

    Returns:
        Dataset whose feature columns are named x0, x1, ... in column order.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    y = np.asarray(y, dtype=np.int64)
    if labels is None:
        k = n_classes if n_classes is not None else int(y.max()) + 1
        labels = tuple(f"c{i}" for i in range(k))
    cols = [(f"x{j}", "numeric") for j in range(X.shape[1])]
    cols.append(("y", "categorical", "target_disorder", tuple(labels)))
    values = {f"x{j}": X[:, j] for j in range(X.shape[1])}
    values["y"] = y
    return make_dataset(cols, values)


def leaf_walk(tree, x) -> int:
    """Reference descent of one row x through a ``cart.Tree``, node by node: the
    leaf id it ends at, that leaf's rank among the tree's leaves."""
    internal = tree.left >= 0
    split = np.cumsum(internal) - 1  # an internal node's rank, which indexes feature and threshold
    node = 0
    while internal[node]:
        s = split[node]
        node = tree.left[node] if x[tree.feature[s]] <= tree.threshold[s] else tree.left[node] + 1
    return int(np.count_nonzero(~internal[:node]))
