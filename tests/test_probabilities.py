"""Property test: every registry algorithm's class probabilities are a distribution its predictions follow."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import xy_dataset
from genoclass.registry import ALGORITHMS

#: small fits, so that each drawn dataset trains in milliseconds
PARAMS = {
    "logistic": {"epochs": 20},
    "svm": {},
    "random_forest": {"trees": 3, "max_depth": 3},
    "gbdt_plain": {"rounds": 2, "max_depth": 2},
    "gbdt_goss": {"rounds": 2, "max_depth": 2},
    "gbdt_oblivious": {"rounds": 2, "max_depth": 2},
}


@st.composite
def datasets(draw):
    """Few rows of few integer-valued features; a declared class may have no rows."""
    n, d, k = draw(st.integers(4, 30)), draw(st.integers(1, 3)), draw(st.integers(2, 4))
    X = draw(hnp.arrays(np.float64, (n, d), elements=st.integers(-3, 3).map(float)))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    return X, y, k


@pytest.mark.parametrize("name", list(ALGORITHMS))
@settings(max_examples=20, deadline=None)
@given(data=datasets(), seed=st.integers(0, 2**32 - 1))
def test_probabilities_are_a_distribution_predict_follows(name, data, seed):
    X, y, k = data
    alg = ALGORITHMS[name]
    model = alg.fit(xy_dataset(X, y, n_classes=k), "y", alg.build_config(PARAMS[name], seed))
    probe = np.vstack([X, X + 0.5])
    proba = model.predict_proba(probe)
    assert proba.shape == (probe.shape[0], k)
    assert np.isfinite(proba).all() and (proba >= 0.0).all()
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    # predict is an argmax: a class of largest probability (the SVM's sigmoid can
    # round two different decision values to one probability, making a tie)
    rows = np.arange(probe.shape[0])
    np.testing.assert_array_equal(proba[rows, model.predict(probe)], proba.max(axis=1))
