"""Property tests for the dataclass JSON codec, the algorithm registry and atomic file writes."""

import csv
import dataclasses
import io
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_dataset
from genoclass.artifact import ModelArtifact
from genoclass.codec import NumberTexts, float_texts, write_json
from genoclass.config import ALGORITHM_NAMES, IMPUTATION_POLICIES, RunConfig
from genoclass.dataset import TASK_ROLES, write_csv
from genoclass.ensemble import LOSSES, VARIANTS, ForestConfig, ForestModel, GbdtConfig, GbdtModel, Tree
from genoclass.errors import ArgumentError, ConfigError, PersistenceError
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
from genoclass.metrics import RocCurve, build_report, render_report
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
    # a scaler and W as wide as the encoder's design, and a W column and bias per class label
    encoder, k = draw(encoders.filter(lambda e: e.names)), draw(st.integers(1, 4))
    return LogisticModel(
        feature_names=draw(names),
        class_labels=draw(labels(k)),
        encoder=encoder,
        scaler=draw(standardizers(encoder.width)),
        W=draw(matrices(encoder.width, k)),
        alpha=draw(vectors(k)),
        loss_history=tuple(draw(st.lists(reals, max_size=5))),
        config=draw(logistic_configs),
    )


@st.composite
def svm_submodels(draw):
    # a view of one class; only a whole SvmModel keeps the width of an empty support set
    m, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return SvmSubmodel(draw(matrices(m, width)), draw(vectors(m)), draw(reals), draw(st.booleans()))


@st.composite
def svm_models(draw):
    # support rows are raw input rows the model encodes and standardizes on construction:
    # category codes in range, and numbers the scaler maps to finite values
    moderate = st.floats(-1e6, 1e6)
    columns = draw(st.lists(st.tuples(st.text(max_size=6), st.sampled_from([0, 2, 3, 7])), min_size=1, max_size=4))
    encoder = ColumnEncoder(tuple(n for n, _ in columns), tuple(c for _, c in columns))
    k, m = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    cells = [draw(st.integers(0, card - 1).map(float) if card else moderate) for _ in range(m) for _, card in columns]
    return SvmModel(
        feature_names=encoder.names,
        class_labels=draw(labels(k)),
        encoder=encoder,
        scaler=Standardizer(
            draw(hnp.arrays(np.float64, encoder.width, elements=moderate)),
            draw(hnp.arrays(np.float64, encoder.width, elements=st.floats(1e-3, 1e3))),
        ),
        # an empty support set must come back with its widths
        support_rows=np.array(cells).reshape(m, len(columns)),
        coef=draw(matrices(m, k)),
        b=draw(hnp.arrays(np.float64, k, elements=reals)),
        converged=tuple(draw(st.lists(st.booleans(), min_size=k, max_size=k))),
        config=draw(svm_configs),
        gamma=draw(positive),
    )


def labels(k):
    return st.lists(st.text(max_size=6), min_size=k, max_size=k).map(tuple)


@st.composite
def forest_models(draw):
    # one class-count column per class label, as the model requires
    k = draw(st.integers(1, 4))
    return ForestModel(
        feature_names=draw(names),
        class_labels=draw(labels(k)),
        trees=draw(st.lists(trees(lambda n: hnp.arrays(np.float64, (n, k), elements=st.floats(allow_nan=False))), max_size=3)),
        tree_seeds=tuple(draw(st.lists(seeds, max_size=3))),
        config=draw(forest_configs),
    )


@st.composite
def gbdt_models(draw):
    # one score column per class label, or any number for a regression model, which has none
    k = draw(st.integers(1, 3))
    return GbdtModel(
        feature_names=draw(names),
        class_labels=draw(st.just(()) | labels(k)),
        f0=draw(vectors(k)),
        trees=draw(st.lists(trees(lambda n: matrices(n, k)), max_size=3)),
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
    # 1-D and 2-D leaf values, and class counts, which are stored as JSON integers
    Tree: trees(vectors) | st.integers(1, 3).flatmap(lambda k: trees(lambda n: matrices(n, k) | hnp.arrays(np.float64, (n, k), elements=st.integers(0, 2**53 - 1).map(float)))),
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


json_scalars = st.none() | st.booleans() | st.integers() | reals | st.text(max_size=6)
json_objects = st.dictionaries(st.text(max_size=6), json_scalars | st.lists(json_scalars, max_size=3), max_size=4)
feature_pipelines = st.builds(
    FeaturePipeline,
    raw_schema_doc=st.lists(json_objects, max_size=3).map(tuple),
    task=st.text(max_size=8),
    target=st.text(max_size=8),
    class_labels=names,
    imputation=st.text(max_size=8),
    # discrete fills are integer codes and must come back as integers
    fills=st.dictionaries(st.text(max_size=6), st.integers() | reals, max_size=4),
    engineer=st.booleans(),
    sources=engineered_specs,
    bins=st.integers(),
    top_k=st.integers(),
    ranking=st.lists(st.tuples(st.text(max_size=6), st.floats(allow_nan=False)), max_size=4).map(tuple),
    selected=names,
    prepare_hash=st.text(max_size=8),
    file_hashes=st.dictionaries(st.text(max_size=6), st.text(max_size=8), max_size=3),
)
model_artifacts = st.builds(
    ModelArtifact,
    algorithm=st.text(max_size=8),
    task=st.text(max_size=8),
    class_labels=names,
    model_doc=json_objects,
    pipeline_doc=json_objects,
    config_hash=st.text(max_size=8),
    seed=seeds,
)
run_configs = st.builds(
    RunConfig,
    input=st.text(max_size=8),
    schema=st.text(max_size=8),
    target=st.sampled_from(sorted(TASK_ROLES)),
    output_dir=st.text(max_size=8),
    split_ratio=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    split_seed=seeds,
    imputation=st.sampled_from(IMPUTATION_POLICIES),
    engineer=st.booleans(),
    bins=st.integers(2, 100),
    top_k=st.integers(1, 100),
    sources=engineered_specs,
    algorithm=st.sampled_from(ALGORITHM_NAMES),
    model_seed=seeds,
    model_params=json_objects,
)

#: strategy, error type and document name of each document whose JSON keys differ from its field names
DOCUMENTS = {
    RunConfig: (run_configs, ConfigError, "config"),
    FeaturePipeline: (feature_pipelines, PersistenceError, "FeaturePipeline"),
    ModelArtifact: (model_artifacts, PersistenceError, "ModelArtifact"),
}


@pytest.mark.parametrize("cls", list(DOCUMENTS), ids=lambda c: c.__name__)
class TestDocumentProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_exact(self, cls, data):
        obj = data.draw(DOCUMENTS[cls][0])
        clone = cls.from_json(json_trip(obj.to_json()))
        assert_same(obj, clone)
        # dumps tells 0 from 0.0, which == does not
        assert json.dumps(clone.to_json(), sort_keys=True) == json.dumps(obj.to_json(), sort_keys=True)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_missing_required_key_rejected(self, cls, data):
        strategy, error, _ = DOCUMENTS[cls]
        doc = json_trip(data.draw(strategy).to_json())
        # a run config is user input: only the keys without a default are required
        required = ["input", "schema", "target", "output_dir"] if cls is RunConfig else sorted(doc)
        del doc[data.draw(st.sampled_from(required))]
        with pytest.raises(error, match="missing required keys"):
            cls.from_json(doc)


@pytest.mark.parametrize(
    "cls, section",
    [(RunConfig, None), (RunConfig, "split"), (RunConfig, "features"), (RunConfig, "model"), (FeaturePipeline, None), (ModelArtifact, None)],
)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_unknown_document_key_rejected(cls, section, data):
    strategy, error, name = DOCUMENTS[cls]
    doc = json_trip(data.draw(strategy).to_json())
    where = doc[section] if section else doc
    key = data.draw(st.text(min_size=1).filter(lambda k: k not in where))
    where[key] = data.draw(st.none() | st.integers() | st.text())
    with pytest.raises(error, match=f"unknown {section or name} keys"):
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
        fills={"x": Unserializable()}, engineer=False, sources=EngineeredSpec(), bins=2, top_k=1, ranking=(),
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


def failing_ranking():
    return FeatureRanking((("a", 2.0), ("b", UnrenderableScore(1.0))))


def failing_tables():
    report = small_report()
    return dataclasses.replace(report, metrics=dataclasses.replace(report.metrics, accuracy=Unserializable()))


def save(obj, path):
    obj.save(path)


@pytest.mark.parametrize(
    "name, build, write",
    [
        ("out.json", failing_artifact, save),
        ("out.json", failing_pipeline, save),
        ("out.json", failing_report, save),
        ("ranking.csv", failing_ranking, lambda ranking, path: ranking.to_csv(path)),
        ("overall_accuracy.csv", failing_tables, lambda report, path: render_report([report], path.parent)),
    ],
    ids=["failing_artifact", "failing_pipeline", "failing_report", "failing_ranking", "failing_tables"],
)
def test_failed_save_keeps_the_old_file(tmp_path, name, build, write):
    path = tmp_path / name
    path.write_text("old contents", encoding="utf-8")
    obj = build()  # outside the raises block: only the write may fail
    with pytest.raises(TypeError):
        write(obj, path)
    assert path.read_text(encoding="utf-8") == "old contents"
    assert [p.name for p in tmp_path.iterdir()] == [name]


def small_dataset():
    return make_dataset([("x", "numeric"), ("c", "categorical", "feature", ("a", "b"))], {"x": [1.5, 2.0], "c": [0, 1]})


#: every kind of file the package writes, by the name the write replaces
WRITERS = {
    "model.json": lambda path: dataclasses.replace(failing_artifact(), model_doc={"a": 1}).save(path),
    "data.csv": lambda path: write_csv(small_dataset(), path),
    "ranking.csv": lambda path: FeatureRanking((("a", 1.0),)).to_csv(path),
    "overall_accuracy.csv": lambda path: render_report([small_report()], path.parent),
    "report.md": lambda path: render_report([small_report()], path.parent),
}


@pytest.mark.parametrize("name", list(WRITERS))
def test_failed_rename_keeps_the_old_file(tmp_path, monkeypatch, name):
    """A write that fails at its last step leaves the old file whole and no temporary file,
    and fails as a PersistenceError naming the file."""
    path = tmp_path / name
    path.write_text("old contents", encoding="utf-8")
    rename, renamed = os.replace, []

    def refuse(src, dst):
        # only path's rename fails, so a writer of several files fails on this one
        if Path(dst) == path:
            raise OSError("disk full")
        rename(src, dst)
        renamed.append(Path(dst).name)

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PersistenceError, match=re.escape(f"cannot write {str(path)!r}: disk full")):
        WRITERS[name](path)
    assert path.read_text(encoding="utf-8") == "old contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, *renamed])


def test_saved_bytes_match_the_canonical_dump(tmp_path):
    report = small_report()
    report.save(tmp_path / "report.json")
    expected = json.dumps(report.to_json(), sort_keys=True, indent=1) + "\n"
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == expected
    artifact = dataclasses.replace(failing_artifact(), model_doc={"a": 1})
    artifact.save(tmp_path / "model.json")
    # artifacts are written compactly, without whitespace
    expected = json.dumps(artifact.to_json(), sort_keys=True, separators=(",", ":"))
    assert (tmp_path / "model.json").read_text(encoding="utf-8") == expected


# -- the indented JSON writer and ROC point files ---------------------------------------

#: the floats json renders with care: signed zero, subnormal, exponent switches, NaN and the infinities
special_floats = st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e22, 1e-7, float("nan"), float("inf"), float("-inf")])
json_floats = special_floats | st.floats()
json_strings = st.text(st.sampled_from('"\\\x00\x1f\u00e9\u2028\U0001f600a ') | st.characters(), max_size=6)
json_scalars = st.none() | st.booleans() | st.integers() | json_floats | json_strings
# lists of numbers take the writer's joined path; booleans among them must stay true and false
number_lists = st.lists(json_floats | st.integers() | st.booleans(), max_size=6)
json_docs = st.recursive(
    json_scalars | number_lists | st.lists(st.lists(json_floats, max_size=4), max_size=3),
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(json_strings, children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=json_docs, end=st.sampled_from(["", "\n"]))
@example(doc={"roc": {"a": {"fpr": [0.0, 0.5, 1.0], "tpr": [0, 1, 1.0]}}, "z": []}, end="\n")
@example(doc=[[True, 1, 1.0], [False], [None], [], {}, [1e16, 1e22, 5e-324, -0.0]], end="")
@example(doc=[float("nan"), 1.0, float("inf"), float("-inf")], end="")
@example(doc={'"\\\x00\u00e9': 'x"\\\x00\u00e9'}, end="")
def test_indented_json_is_the_bytes_of_json_dumps(tmp_path, doc, end):
    write_json(tmp_path / "doc.json", doc, end=end)
    expected = json.dumps(doc, sort_keys=True, indent=1) + end
    assert (tmp_path / "doc.json").read_bytes() == expected.encode("utf-8")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(points=st.lists(st.tuples(json_floats, json_floats), max_size=12))
@example(points=[(0.0, 0.0), (1 / 3, 2 / 3), (1.0, 1.0)])
def test_roc_point_files_are_the_bytes_of_csv_writer(tmp_path, points):
    fpr, tpr = tuple(p[0] for p in points), tuple(p[1] for p in points)
    report = dataclasses.replace(small_report(), roc={"a": RocCurve(fpr, tpr, 0.5), "b": None})
    render_report([report], tmp_path)
    expected = io.StringIO()
    csv.writer(expected).writerows([["fpr", "tpr"], *([repr(x), repr(y)] for x, y in points)])
    assert (tmp_path / "roc_logistic_genetic_disorder_a.csv").read_bytes() == expected.getvalue().encode("utf-8")


#: float64 arrays where -0.0 sits beside 0.0, with subnormals, repeats and the non-finite values
float_arrays = hnp.arrays(np.float64, st.integers(0, 40), elements=special_floats | st.floats(), fill=special_floats)


@settings(max_examples=300, deadline=None)
@given(values=float_arrays)
@example(values=np.array([]))
@example(values=np.array([0.0, -0.0, 0.0, 5e-324, -0.0, 5e-324, 2.5e-310, 1 / 3, 1 / 3, float("nan"), -float("nan")]))
def test_float_texts_are_the_reprs_of_the_items(values):
    assert float_texts(values) == [float.__repr__(x) for x in values.tolist()]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(curves=st.dictionaries(json_strings, st.tuples(float_arrays, float_arrays), max_size=3), top=float_arrays)
@example(curves={"a": (np.array([0.0, 0.5, 0.5, 1.0]), np.array([-0.0, 0.0, 1.0, 1.0]))}, top=np.array([]))
@example(curves={}, top=np.array([float("nan"), 1.0, float("inf"), -float("inf"), float("nan")]))
def test_number_texts_write_as_their_floats(tmp_path, curves, top):
    """Pre-rendered texts write the bytes of the floats they render; json spells nan and the infinities."""
    doc = {"roc": {k: {"fpr": NumberTexts(float_texts(x)), "tpr": NumberTexts(float_texts(y)), "auc": 0.5} for k, (x, y) in curves.items()},
           "top": NumberTexts(float_texts(top))}
    floats = {"roc": {k: {"fpr": x.tolist(), "tpr": y.tolist(), "auc": 0.5} for k, (x, y) in curves.items()}, "top": top.tolist()}
    write_json(tmp_path / "doc.json", doc, end="\n")
    assert (tmp_path / "doc.json").read_bytes() == (json.dumps(floats, sort_keys=True, indent=1) + "\n").encode("utf-8")



def test_saved_non_finite_roc_points_are_spelled_as_json_does(tmp_path):
    curve = RocCurve((0.0, float("nan"), -0.0, 1.0), (float("inf"), -float("inf"), 0.0, 1.0), 0.5)
    report = dataclasses.replace(small_report(), roc={"a": curve, "b": None})
    report.save(tmp_path / "report.json")
    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert text == json.dumps(report.to_json(), sort_keys=True, indent=1) + "\n"
    assert all(word in text for word in ("NaN", " Infinity", "-Infinity", "-0.0"))

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


def stump(value) -> Tree:
    return Tree(np.array([0, -1, -1]), np.array([0.5, 0.0, 0.0]), np.array([1, -1, -1]), np.array([2, -1, -1]), np.asarray(value, dtype=np.float64))


class TestModelsCheckTheirTreesWhenBuilt:
    """A model built in code with trees that do not fit its labels fails at once, as a revived one does."""

    @pytest.mark.parametrize("value", [np.zeros(3), np.zeros((3, 2))], ids=["one_dimensional", "two_of_three_columns"])
    def test_forest_tree_values_must_hold_a_column_per_label(self, value):
        with pytest.raises(ArgumentError, match="values must have shape"):
            ForestModel(("x",), ("a", "b", "c"), [stump(value)], (0,))

    def test_gbdt_tree_values_need_a_column_per_class(self):
        # one tree per round, its leaves scoring every class
        for value in (np.zeros(3), np.zeros((3, 2))):
            with pytest.raises(ArgumentError, match=r"values must have shape \(n_nodes, 3\)"):
                GbdtModel(("x",), ("a", "b", "c"), np.zeros(3), [stump(value)], (0.0,))

    def test_gbdt_initial_scores_must_match_the_labels(self):
        with pytest.raises(ArgumentError, match="1 initial scores for 3 class labels"):
            GbdtModel(("x",), ("a", "b", "c"), np.zeros(1), [stump(np.zeros((3, 3)))], (0.0,))

    def test_regression_gbdt_has_no_labels_to_match(self):
        model = GbdtModel(("x",), (), np.zeros(1), [stump([[0.0], [-1.0], [1.0]])], (0.0,), GbdtConfig(loss="squared"))
        np.testing.assert_array_equal(model.predict_value(np.array([[0.0], [1.0]])), [-1.0, 1.0])
