"""Property tests for the dataclass JSON codec, the algorithm registry and atomic file writes."""

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_dataset
from genoclass.artifact import ModelArtifact
from genoclass.dataset import write_csv
from genoclass.ensemble import LOSSES, VARIANTS, ForestConfig, ForestModel, GbdtConfig, GbdtModel, Tree
from genoclass.errors import ArgumentError, ConfigError
from genoclass.features import EngineeredSpec, FeatureRanking
from genoclass.linear import (
    KERNEL_KINDS,
    ColumnEncoder,
    KernelSpec,
    LogisticConfig,
    LogisticModel,
    Standardizer,
    SvmConfig,
    SvmModel,
    SvmSubmodel,
)
from genoclass.metrics import build_report, render_report
from genoclass.pipeline import FeaturePipeline
from genoclass.registry import ALGORITHMS

seeds = st.integers(0, 2**32)
reals = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6)
names = st.lists(st.text(max_size=6), max_size=4).map(tuple)


def vectors(n):
    # arrays may hold infinities: a class absent from training has f0 = -inf
    return hnp.arrays(np.float64, n, elements=st.floats(allow_nan=False))


def matrices(rows, cols):
    return hnp.arrays(np.float64, (rows, cols), elements=reals)


kernels = st.builds(
    KernelSpec,
    kind=st.sampled_from(KERNEL_KINDS),
    gamma=st.none() | positive,
    degree=st.integers(1, 9),
    coef0=reals,
)
logistic_configs = st.builds(
    LogisticConfig, learning_rate=positive, epochs=st.integers(1, 10**4), l2=st.floats(0, 1e3), seed=seeds
)
svm_configs = st.builds(
    SvmConfig, C=positive, kernel=kernels, tol=positive, max_passes=st.integers(1, 10**4), seed=seeds
)
forest_configs = st.builds(
    ForestConfig,
    trees=st.integers(1, 500),
    mtry=st.none() | st.integers(1, 50),
    max_depth=st.none() | st.integers(0, 30),
    min_samples_leaf=st.integers(1, 50),
    bootstrap=st.booleans(),
    seed=seeds,
)
gbdt_configs = st.builds(
    GbdtConfig,
    loss=st.sampled_from(LOSSES),
    rounds=st.integers(0, 500),
    learning_rate=st.floats(1e-6, 1.0),
    max_depth=st.integers(0, 10),
    min_samples_leaf=st.integers(1, 50),
    variant=st.sampled_from(VARIANTS),
    a=st.floats(1e-6, 1.0),
    b=st.floats(0.0, 1.0),
    seed=seeds,
)
engineered_specs = st.builds(
    EngineeredSpec,
    maternal_age=st.text(max_size=8),
    symptoms=names,
    maternal_gene=st.text(max_size=8),
    paternal_gene=st.text(max_size=8),
    wbc=st.text(max_size=8),
    heart_rate=st.text(max_size=8),
    respiratory_rate=st.text(max_size=8),
    age_threshold=reals,
    wbc_threshold=reals,
)
encoders = st.lists(st.tuples(st.text(max_size=6), st.sampled_from([0, 2, 3, 7])), max_size=4).map(
    lambda cols: ColumnEncoder(tuple(n for n, _ in cols), tuple(c for _, c in cols))
)


@st.composite
def trees(draw, leaf_values):
    """Up to 8 leaves: each step splits a drawn leaf, appending its two children."""
    feature, threshold, left, right = [-1], [0.0], [-1], [-1]
    for _ in range(draw(st.integers(0, 7))):
        node = draw(st.sampled_from([i for i, child in enumerate(left) if child == -1]))
        feature[node], threshold[node] = draw(st.integers(0, 40)), draw(reals)
        left[node], right[node] = len(left), len(left) + 1
        for ids, fill in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1)):
            ids += [fill, fill]
    value = draw(leaf_values(len(left)))
    value[np.array(left) >= 0] = 0.0
    return Tree(np.array(feature), np.array(threshold), np.array(left), np.array(right), value)


@st.composite
def standardizers(draw, width=None):
    width = draw(st.integers(0, 5)) if width is None else width
    return Standardizer(draw(vectors(width)), draw(vectors(width)))


@st.composite
def logistic_models(draw):
    width, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return LogisticModel(
        feature_names=draw(names),
        class_labels=draw(names),
        encoder=draw(encoders),
        scaler=draw(standardizers(width)),
        W=draw(matrices(width, k)),
        alpha=draw(vectors(k)),
        loss_history=tuple(draw(st.lists(reals, max_size=5))),
        config=draw(logistic_configs),
    )


@st.composite
def svm_submodels(draw, width=None, min_support=1):
    width = draw(st.integers(1, 4)) if width is None else width
    m = draw(st.integers(min_support, 4))
    return SvmSubmodel(draw(matrices(m, width)), draw(vectors(m)), draw(reals), draw(st.booleans()))


@st.composite
def svm_models(draw):
    width = draw(st.integers(1, 4))
    return SvmModel(
        feature_names=draw(names),
        class_labels=draw(names),
        encoder=draw(encoders),
        scaler=draw(standardizers(width)),
        # an empty support set must come back with its width
        submodels=draw(st.lists(svm_submodels(width, min_support=0), max_size=3)),
        config=draw(svm_configs),
        gamma=draw(positive),
    )


@st.composite
def forest_models(draw):
    k = draw(st.integers(1, 4))
    return ForestModel(
        feature_names=draw(names),
        class_labels=draw(names),
        trees=draw(st.lists(trees(lambda n: hnp.arrays(np.float64, (n, k), elements=st.floats(allow_nan=False))), max_size=3)),
        tree_seeds=tuple(draw(st.lists(seeds, max_size=3))),
        config=draw(forest_configs),
    )


@st.composite
def gbdt_models(draw):
    k = draw(st.integers(1, 3))
    return GbdtModel(
        feature_names=draw(names),
        class_labels=draw(names),
        f0=draw(vectors(k)),
        trees=draw(st.lists(st.lists(trees(lambda n: matrices(n, 1).map(np.ravel)), min_size=k, max_size=k), max_size=3)),
        loss_history=tuple(draw(st.lists(reals, max_size=5))),
        config=draw(gbdt_configs),
    )


CODEC_CLASSES = {
    KernelSpec: kernels,
    ColumnEncoder: encoders,
    Standardizer: standardizers(),
    LogisticConfig: logistic_configs,
    LogisticModel: logistic_models(),
    SvmConfig: svm_configs,
    SvmSubmodel: svm_submodels(),
    SvmModel: svm_models(),
    ForestConfig: forest_configs,
    Tree: trees(vectors),
    ForestModel: forest_models(),
    GbdtConfig: gbdt_configs,
    GbdtModel: gbdt_models(),
    EngineeredSpec: engineered_specs,
}


def assert_same(a, b, path="value"):
    """Field-by-field equality; arrays and floats must match bit for bit."""
    assert type(a) is type(b), path
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), path
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    elif isinstance(a, float):
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), path
    else:
        assert a == b, path


def json_trip(doc):
    return json.loads(json.dumps(doc, sort_keys=True, indent=1))


@pytest.mark.parametrize("cls", list(CODEC_CLASSES), ids=lambda c: c.__name__)
class TestCodecProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_exact(self, cls, data):
        obj = data.draw(CODEC_CLASSES[cls])
        clone = cls.from_json(json_trip(obj.to_json()))
        assert_same(obj, clone)
        assert json.dumps(clone.to_json(), sort_keys=True) == json.dumps(obj.to_json(), sort_keys=True)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_extra_key_rejected(self, cls, data):
        doc = json_trip(data.draw(CODEC_CLASSES[cls]).to_json())
        key = data.draw(st.text(min_size=1).filter(lambda k: k not in doc))
        doc[key] = data.draw(st.none() | st.integers() | st.text())
        with pytest.raises(ArgumentError, match="unknown"):
            cls.from_json(doc)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_missing_key_rejected(self, cls, data):
        doc = json_trip(data.draw(CODEC_CLASSES[cls]).to_json())
        del doc[data.draw(st.sampled_from(sorted(doc)))]
        with pytest.raises(ArgumentError, match="missing"):
            cls.from_json(doc)


def test_trained_flag_is_not_serialized():
    scaler = Standardizer(np.zeros(1), np.ones(1))
    model = LogisticModel(("x",), ("a", "b"), ColumnEncoder(("x",), (0,)), scaler, np.zeros((1, 2)), np.zeros(2), ())
    assert "trained" not in model.to_json()


@pytest.mark.parametrize("name", list(ALGORITHMS))
class TestRegistryProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_empty_params_give_the_defaults(self, name, seed):
        alg = ALGORITHMS[name]
        assert alg.build_config({}, seed) == alg.config(seed=seed, **alg.fixed)

    def test_allowed_params_are_the_config_fields(self, name):
        alg = ALGORITHMS[name]
        fields = {f.name for f in dataclasses.fields(alg.config)}
        assert alg.params == fields - {"seed"} - set(alg.fixed)
        for key in sorted(fields - alg.params):
            with pytest.raises(ConfigError, match=repr(key)):
                alg.build_config({key: 0}, 0)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_given_params_override_only_themselves(self, name, data):
        alg = ALGORITHMS[name]
        drawn = data.draw(CODEC_CLASSES[alg.config])
        chosen = data.draw(st.sets(st.sampled_from(sorted(alg.params))))
        doc = json_trip(drawn.to_json())
        built = alg.build_config({k: doc[k] for k in chosen}, drawn.seed)
        expected = dataclasses.replace(
            alg.config(seed=drawn.seed, **alg.fixed), **{k: getattr(drawn, k) for k in chosen}
        )
        assert built == expected


# -- atomic writes ----------------------------------------------------------------


class Unserializable:
    """A value neither json.dump nor repr can render, so a write fails partway."""

    def __repr__(self):
        raise TypeError("cannot render")


def failing_artifact():
    return ModelArtifact("logistic", "genetic_disorder", ("a",), {"a": 1, "z": Unserializable()}, {}, "0", 0)


def failing_pipeline():
    return FeaturePipeline(
        raw_schema_doc=(), task="genetic_disorder", target="y", class_labels=("a",), imputation="mode_median",
        fills={"x": Unserializable()}, engineer=False, sources_doc={}, bins=2, top_k=1, ranking=(),
        selected=(), prepare_hash="0", file_hashes={},
    )


def small_report(config_hash=""):
    scores = np.array([[0.9, 0.1], [0.2, 0.8]])
    return build_report("logistic", "genetic_disorder", ("a", "b"), [0, 1], [0, 1], scores, config_hash=config_hash)


def failing_report():
    return small_report(config_hash=Unserializable())


class UnrenderableScore(float):
    """A chi-squared score that sorts as a float but cannot be rendered."""

    def __repr__(self):
        raise TypeError("cannot render")


def failing_ranking(path):
    FeatureRanking((("a", 2.0), ("b", UnrenderableScore(1.0)))).to_csv(path)


def failing_tables(path):
    report = small_report()
    broken = dataclasses.replace(report, metrics=dataclasses.replace(report.metrics, accuracy=Unserializable()))
    render_report([broken], path.parent, formats=("csv",))


@pytest.mark.parametrize(
    "name, write",
    [
        ("out.json", lambda path: failing_artifact().save(path)),
        ("out.json", lambda path: failing_pipeline().save(path)),
        ("out.json", lambda path: failing_report().save(path)),
        ("ranking.csv", failing_ranking),
        ("overall_accuracy.csv", failing_tables),
    ],
    ids=["failing_artifact", "failing_pipeline", "failing_report", "failing_ranking", "failing_tables"],
)
def test_failed_save_keeps_the_old_file(tmp_path, name, write):
    path = tmp_path / name
    path.write_text("old contents", encoding="utf-8")
    with pytest.raises(TypeError):
        write(path)
    assert path.read_text(encoding="utf-8") == "old contents"
    assert [p.name for p in tmp_path.iterdir()] == [name]


def small_dataset():
    return make_dataset([("x", "numeric"), ("c", "categorical", "feature", ("a", "b"))], {"x": [1.5, 2.0], "c": [0, 1]})


#: every kind of file the package writes, by the name the write replaces
WRITERS = {
    "model.json": lambda path: dataclasses.replace(failing_artifact(), model_doc={"a": 1}).save(path),
    "data.csv": lambda path: write_csv(small_dataset(), path),
    "ranking.csv": lambda path: FeatureRanking((("a", 1.0),)).to_csv(path),
    "overall_accuracy.csv": lambda path: render_report([small_report()], path.parent, formats=("csv",)),
    "report.md": lambda path: render_report([small_report()], path.parent, formats=("markdown",)),
}


@pytest.mark.parametrize("name", list(WRITERS))
def test_failed_rename_keeps_the_old_file(tmp_path, monkeypatch, name):
    """A write that fails at its last step leaves the old file whole and no temporary file."""
    path = tmp_path / name
    path.write_text("old contents", encoding="utf-8")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[name](path)
    assert path.read_text(encoding="utf-8") == "old contents"
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_saved_bytes_match_the_canonical_dump(tmp_path):
    report = small_report()
    report.save(tmp_path / "report.json")
    expected = json.dumps(report.to_json(), sort_keys=True, indent=1) + "\n"
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == expected
    artifact = dataclasses.replace(failing_artifact(), model_doc={"a": 1})
    artifact.save(tmp_path / "model.json")
    expected = json.dumps(artifact.to_json(), sort_keys=True, indent=1)
    assert (tmp_path / "model.json").read_text(encoding="utf-8") == expected


# -- strict scalar decoding -------------------------------------------------------


@pytest.mark.parametrize(
    "name, params",
    [
        ("random_forest", {"bootstrap": "false"}),
        ("random_forest", {"bootstrap": 0}),
        ("random_forest", {"trees": 2.7}),
        ("random_forest", {"trees": 3.0}),
        ("random_forest", {"trees": True}),
        ("random_forest", {"mtry": "2"}),
        ("gbdt_plain", {"learning_rate": "0.1"}),
        ("gbdt_plain", {"learning_rate": False}),
        ("svm", {"kernel": {"kind": "rbf", "degree": 2.5}}),
        ("svm", {"kernel": {"kind": 3}}),
    ],
)
def test_params_of_the_wrong_json_type_are_rejected(name, params):
    with pytest.raises(ConfigError, match="must be a JSON"):
        ALGORITHMS[name].build_config(params, 0)


def test_float_params_take_json_integers():
    built = ALGORITHMS["gbdt_plain"].build_config({"learning_rate": 1, "a": 1}, 0)
    assert built.learning_rate == 1.0 and isinstance(built.learning_rate, float)
    assert built == ALGORITHMS["gbdt_plain"].build_config({"learning_rate": 1.0, "a": 1.0}, 0)


@pytest.mark.parametrize("doc", [{"bootstrap": "false"}, {"trees": 2.5}, {"seed": True}])
def test_stored_configs_of_the_wrong_json_type_are_rejected(doc):
    stored = {**ForestConfig().to_json(), **doc}
    with pytest.raises(ArgumentError, match="must be a JSON"):
        ForestConfig.from_json(stored)


# -- strict array decoding --------------------------------------------------------


@pytest.mark.parametrize(
    "doc, match",
    [
        ({"mean": ["1", "2"], "scale": [True, False]}, "mean"),
        ({"mean": [1.0, 2.0], "scale": [True, False]}, "scale"),
        ({"mean": [1.0, None], "scale": [1.0, 1.0]}, "mean"),
        ({"mean": [[1.0], [1.0, 2.0]], "scale": [1.0]}, "mean"),
        ({"mean": 1.0, "scale": [1.0]}, "mean"),
    ],
    ids=["strings", "booleans", "null", "ragged", "scalar"],
)
def test_arrays_of_non_numbers_are_rejected(doc, match):
    with pytest.raises(ArgumentError, match=f"{match} must be a rectangular JSON array of numbers"):
        Standardizer.from_json(doc)


@pytest.mark.parametrize(
    "doc, match",
    [
        ({"mean": [1, True], "scale": [2.5, 1.0]}, "mean"),
        ({"mean": [1.0, 2.0], "scale": [2.5, False]}, "scale"),
        ({"mean": [[1.0, 2.0], [0, True]], "scale": [1.0, 1.0]}, "mean"),
    ],
    ids=["among_integers", "among_floats", "in_a_matrix"],
)
def test_booleans_among_numbers_are_rejected(doc, match):
    with pytest.raises(ArgumentError, match=f"{match} must be a rectangular JSON array of numbers"):
        Standardizer.from_json(doc)


def test_integer_arrays_decode_as_float64():
    scaler = Standardizer.from_json({"mean": [1, 2], "scale": [1, 0.5]})
    assert scaler.mean.dtype == np.float64 and scaler.mean.tolist() == [1.0, 2.0]
