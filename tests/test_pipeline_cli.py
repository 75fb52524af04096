"""End-to-end tests for the run config, pipeline stages, artifacts, and CLI."""

import csv
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

import genoclass
import synthdata
from conftest import make_dataset, xy_dataset
from genoclass import pipeline as pipeline_module
from genoclass.artifact import ModelArtifact, revive_model
from genoclass.cli import LOCK_NAME, main
from genoclass.config import ALGORITHM_NAMES, RunConfig, config_fingerprint, load_run_config
from genoclass.dataset import Dataset, load_csv, schema_from_json, schema_to_json, stratified_split, write_csv
from genoclass.ensemble.boosting import GbdtConfig
from genoclass.ensemble.forest import ForestConfig
from genoclass.errors import (
    ArgumentError,
    ConfigError,
    EmptyInputError,
    EvaluationError,
    PersistenceError,
    SchemaError,
    StateError,
)
from genoclass.features import ENGINEERED_COLUMNS
from genoclass.linear import KernelSpec, LogisticConfig, SvmConfig
from genoclass.metrics import EvaluationReport
from genoclass.pipeline import (
    ALGORITHMS,
    PIPELINE_JSON,
    RANKING_CSV,
    TEST_CSV,
    TRAIN_CSV,
    FeaturePipeline,
    prepare_fingerprint,
    run_evaluate,
    run_prepare,
    run_report,
    run_train,
)

PREPARED_FILES = (TRAIN_CSV, TEST_CSV, RANKING_CSV, PIPELINE_JSON)

# hyperparameters small enough to keep every full-path test quick
SMALL_PARAMS = {
    "logistic": {"epochs": 40},
    "svm": {"max_passes": 10, "tol": 0.01},
    "random_forest": {"trees": 8, "max_depth": 4},
    "gbdt_plain": {"rounds": 4, "max_depth": 2},
    "gbdt_goss": {"rounds": 4, "max_depth": 2, "a": 0.3, "b": 0.2},
    "gbdt_oblivious": {"rounds": 4, "max_depth": 2},
}


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """Synthetic raw CSV plus its schema JSON, shared across the module."""
    root = tmp_path_factory.mktemp("corpus")
    ds = synthdata.planted_dataset(240, 5)
    raw = root / "raw.csv"
    schema = root / "schema.json"
    write_csv(ds, raw)
    schema.write_text(json.dumps(schema_to_json(ds.columns)), encoding="utf-8")
    return {"raw": str(raw), "schema": str(schema)}


def run_cfg(corpus, out_dir, algorithm="gbdt_plain", target="genetic_disorder", **kw):
    params = kw.pop("model_params", SMALL_PARAMS[algorithm])
    return RunConfig(
        input=corpus["raw"],
        schema=corpus["schema"],
        target=target,
        output_dir=str(out_dir),
        top_k=12,
        algorithm=algorithm,
        model_params=params,
        **kw,
    )


@pytest.fixture(scope="session")
def flow(corpus, tmp_path_factory):
    """One prepared directory with two trained models and their evaluations."""
    out = tmp_path_factory.mktemp("flow")
    cfg = run_cfg(corpus, out)
    prep = run_prepare(cfg)
    gbdt = run_train(cfg)
    forest_cfg = replace(cfg, algorithm="random_forest", model_params=SMALL_PARAMS["random_forest"])
    forest = run_train(forest_cfg)
    ev_gbdt = run_evaluate(gbdt.artifact_path, out / TEST_CSV, out / "eval_gbdt")
    ev_forest = run_evaluate(forest.artifact_path, out / TEST_CSV, out / "eval_forest")
    return SimpleNamespace(
        out=out, cfg=cfg, prep=prep, gbdt=gbdt, forest=forest, ev_gbdt=ev_gbdt, ev_forest=ev_forest
    )


class TestRunConfig:
    def doc(self, corpus, **extra):
        doc = {
            "input": corpus["raw"],
            "schema": corpus["schema"],
            "target": "genetic_disorder",
            "output_dir": "out",
        }
        doc.update(extra)
        return doc

    def test_minimal_document_gets_defaults(self, corpus):
        cfg = RunConfig.from_json(self.doc(corpus))
        assert cfg.split_ratio == 0.8
        assert cfg.split_seed == 42
        assert cfg.imputation == "mode_median"
        assert cfg.engineer is True
        assert (cfg.bins, cfg.top_k) == (10, 25)
        assert cfg.algorithm == "gbdt_plain"

    def test_round_trip(self, corpus):
        cfg = run_cfg(corpus, "somewhere", split_seed=7, bins=6)
        assert RunConfig.from_json(cfg.to_json()) == cfg

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ConfigError, match="missing required keys"):
            RunConfig.from_json({"input": "a.csv"})

    def test_unknown_top_level_key_rejected(self, corpus):
        with pytest.raises(ConfigError, match="unknown config keys.*'verbose'"):
            RunConfig.from_json(self.doc(corpus, verbose=True))

    def test_unknown_nested_keys_rejected(self, corpus):
        with pytest.raises(ConfigError, match="unknown split keys"):
            RunConfig.from_json(self.doc(corpus, split={"fraction": 0.5}))
        with pytest.raises(ConfigError, match="unknown features keys"):
            RunConfig.from_json(self.doc(corpus, features={"n_bins": 4}))
        with pytest.raises(ConfigError, match="unknown model keys"):
            RunConfig.from_json(self.doc(corpus, model={"alg": "svm"}))

    def test_bad_values_rejected(self, corpus):
        with pytest.raises(ConfigError, match="split ratio"):
            RunConfig.from_json(self.doc(corpus, split={"ratio": 1.5}))
        with pytest.raises(ConfigError, match="target must be one of"):
            RunConfig.from_json({**self.doc(corpus), "target": "age"})
        with pytest.raises(ConfigError, match="imputation"):
            RunConfig.from_json(self.doc(corpus, imputation="zeros"))
        with pytest.raises(ConfigError, match="bins"):
            RunConfig.from_json(self.doc(corpus, features={"bins": 1}))
        with pytest.raises(ConfigError, match="top_k"):
            RunConfig.from_json(self.doc(corpus, features={"top_k": 0}))
        with pytest.raises(ConfigError, match="algorithm must be one of"):
            RunConfig.from_json(self.doc(corpus, model={"algorithm": "xgboost"}))
        with pytest.raises(ConfigError, match="params must be a JSON object"):
            RunConfig.from_json(self.doc(corpus, model={"params": [1]}))

    def test_load_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_run_config(tmp_path / "absent.json")

    def test_load_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_run_config(path)

    def test_load_overrides(self, corpus, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(self.doc(corpus)), encoding="utf-8")
        cfg = load_run_config(path, seed=9, output_dir="elsewhere")
        assert cfg.split_seed == 9
        assert cfg.model_seed == 9
        assert cfg.output_dir == "elsewhere"

    def test_prepare_fingerprint_ignores_model_and_output(self, corpus):
        a = run_cfg(corpus, "out_a")
        b = replace(
            a, output_dir="out_b", algorithm="svm", model_params={"C": 2.0}, model_seed=5
        )
        assert prepare_fingerprint(a) == prepare_fingerprint(b)
        assert config_fingerprint(a) != config_fingerprint(b)

    def test_prepare_fingerprint_tracks_preparation_settings(self, corpus):
        a = run_cfg(corpus, "out")
        assert prepare_fingerprint(a) != prepare_fingerprint(replace(a, split_seed=1))
        assert prepare_fingerprint(a) != prepare_fingerprint(replace(a, bins=4))
        assert prepare_fingerprint(a) != prepare_fingerprint(replace(a, engineer=False))


class TestAlgorithmBuilders:
    def test_registry_covers_config_names(self):
        assert tuple(ALGORITHMS) == ALGORITHM_NAMES

    def test_logistic_params_forwarded(self):
        cfg = ALGORITHMS["logistic"].build_config({"learning_rate": 0.2, "epochs": 50, "l2": 0.1}, 9)
        assert cfg == LogisticConfig(learning_rate=0.2, epochs=50, l2=0.1, seed=9)

    def test_svm_params_forwarded(self):
        cfg = ALGORITHMS["svm"].build_config(
            {"C": 2.0, "kernel": {"kind": "polynomial", "degree": 2}}, 4
        )
        assert cfg == SvmConfig(C=2.0, kernel=KernelSpec("polynomial", degree=2), seed=4)

    def test_forest_params_forwarded(self):
        cfg = ALGORITHMS["random_forest"].build_config({"trees": 5, "mtry": 2, "bootstrap": False}, 1)
        assert cfg == ForestConfig(trees=5, mtry=2, bootstrap=False, seed=1)

    def test_gbdt_variant_comes_from_the_name(self):
        for name in ("gbdt_plain", "gbdt_goss", "gbdt_oblivious"):
            cfg = ALGORITHMS[name].build_config({"rounds": 3}, 2)
            assert isinstance(cfg, GbdtConfig)
            assert cfg.variant == name.removeprefix("gbdt_")
            assert cfg.loss == "multiclass_logloss"
            assert cfg.seed == 2

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_unknown_param_rejected(self, name):
        with pytest.raises(ConfigError, match="'bogus'"):
            ALGORITHMS[name].build_config({"bogus": 1}, 0)

    def test_gbdt_variant_not_overridable(self):
        with pytest.raises(ConfigError, match="'variant'"):
            ALGORITHMS["gbdt_goss"].build_config({"variant": "plain"}, 0)

    # json.loads reads NaN and Infinity as floats, so a run config can carry them
    @pytest.mark.parametrize(
        "name, params",
        [
            ("logistic", '{"learning_rate": NaN}'),
            ("logistic", '{"learning_rate": Infinity}'),
            ("logistic", '{"l2": NaN}'),
            ("logistic", '{"l2": Infinity}'),
            ("svm", '{"C": NaN}'),
            ("svm", '{"C": Infinity}'),
            ("svm", '{"tol": NaN}'),
            ("svm", '{"tol": Infinity}'),
            ("svm", '{"kernel": {"gamma": NaN}}'),
            ("svm", '{"kernel": {"gamma": Infinity}}'),
            ("svm", '{"kernel": {"coef0": NaN}}'),
            ("svm", '{"kernel": {"kind": "polynomial", "coef0": -Infinity}}'),
        ],
    )
    def test_non_finite_param_rejected(self, name, params):
        with pytest.raises(ConfigError, match="finite"):
            ALGORITHMS[name].build_config(json.loads(params), 0)

    def test_svm_kernel_validation(self):
        with pytest.raises(ConfigError, match="kernel must be a JSON object"):
            ALGORITHMS["svm"].build_config({"kernel": ["rbf"]}, 0)
        with pytest.raises(ConfigError, match="unknown kernel keys"):
            ALGORITHMS["svm"].build_config({"kernel": {"shape": "rbf"}}, 0)


class TestRunPrepare:
    def test_outputs_and_row_accounting(self, flow):
        for name in PREPARED_FILES:
            assert (flow.out / name).is_file()
        assert flow.prep.dropped_rows == 0
        assert flow.prep.train_rows + flow.prep.test_rows == 240
        assert flow.prep.train_rows == 192

    def test_pipeline_record_contents(self, flow):
        pipeline = FeaturePipeline.load(flow.out / PIPELINE_JSON)
        assert pipeline.task == "genetic_disorder"
        assert pipeline.target == "Genetic Disorder"
        assert pipeline.class_labels == synthdata.DISORDER_LABELS
        assert len(pipeline.selected) == 12
        ranked_names = [name for name, _ in pipeline.ranking]
        assert list(pipeline.selected) == ranked_names[:12]
        assert pipeline.prepare_hash == prepare_fingerprint(flow.cfg)

    def test_rerun_is_byte_identical(self, corpus, flow, tmp_path):
        cfg = replace(flow.cfg, output_dir=str(tmp_path))
        run_prepare(cfg)
        for name in PREPARED_FILES:
            assert (tmp_path / name).read_bytes() == (flow.out / name).read_bytes()

    def test_engineered_columns_follow_the_flag(self, corpus, flow, tmp_path):
        header = (flow.out / TRAIN_CSV).read_text(encoding="utf-8").splitlines()[0]
        for name in ENGINEERED_COLUMNS:
            assert name in header
        plain = tmp_path / "plain"
        run_prepare(replace(flow.cfg, output_dir=str(plain), engineer=False))
        bare_header = (plain / TRAIN_CSV).read_text(encoding="utf-8").splitlines()[0]
        for name in ENGINEERED_COLUMNS:
            assert name not in bare_header

    def test_missing_target_rows_dropped(self, corpus, tmp_path):
        rows = list(csv.reader(open(corpus["raw"], newline="", encoding="utf-8")))
        target_col = rows[0].index("Genetic Disorder")
        for i in range(1, 7):
            rows[i][target_col] = ""
        raw = tmp_path / "gappy.csv"
        with open(raw, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        cfg = run_cfg({"raw": str(raw), "schema": corpus["schema"]}, tmp_path / "out")
        result = run_prepare(cfg)
        assert result.dropped_rows == 6
        assert result.train_rows + result.test_rows == 234

    def test_all_targets_missing_rejected(self, corpus, tmp_path):
        rows = list(csv.reader(open(corpus["raw"], newline="", encoding="utf-8")))
        target_col = rows[0].index("Genetic Disorder")
        for row in rows[1:]:
            row[target_col] = ""
        raw = tmp_path / "unlabeled.csv"
        with open(raw, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        cfg = run_cfg({"raw": str(raw), "schema": corpus["schema"]}, tmp_path / "out")
        with pytest.raises(EmptyInputError, match="no rows with an observed"):
            run_prepare(cfg)

    def test_missing_inputs_rejected(self, corpus, tmp_path):
        cfg = run_cfg({"raw": str(tmp_path / "nope.csv"), "schema": corpus["schema"]}, tmp_path)
        with pytest.raises(ConfigError, match="input file"):
            run_prepare(cfg)
        cfg = run_cfg({"raw": corpus["raw"], "schema": str(tmp_path / "nope.json")}, tmp_path)
        with pytest.raises(ConfigError, match="schema file"):
            run_prepare(cfg)


class TestRunTrain:
    def test_artifact_metadata(self, flow):
        artifact = ModelArtifact.load(flow.gbdt.artifact_path)
        assert artifact.algorithm == "gbdt_plain"
        assert artifact.task == "genetic_disorder"
        assert artifact.class_labels == synthdata.DISORDER_LABELS
        assert artifact.config_hash == config_fingerprint(flow.cfg)
        assert flow.gbdt.final_loss is not None
        assert 0.0 <= flow.gbdt.train_accuracy <= 1.0

    def test_subclass_task_records_nine_labels(self, corpus, tmp_path):
        cfg = run_cfg(corpus, tmp_path, algorithm="random_forest", target="disorder_subclass")
        run_prepare(cfg)
        result = run_train(cfg)
        assert result.class_labels == synthdata.SUBCLASS_LABELS

    def test_retrain_is_byte_identical(self, corpus, flow, tmp_path):
        cfg = replace(flow.cfg, output_dir=str(tmp_path))
        run_prepare(cfg)
        first = run_train(cfg).artifact_path.read_bytes()
        second = run_train(cfg).artifact_path.read_bytes()
        assert first == second
        # across directories only the fitted model must agree, since the
        # recorded config hash covers the output path
        here = json.loads(first)
        there = json.loads(flow.gbdt.artifact_path.read_text(encoding="utf-8"))
        assert here["model"] == there["model"]

    def test_without_prepare_rejected(self, corpus, tmp_path):
        with pytest.raises(StateError, match="run prepare first"):
            run_train(run_cfg(corpus, tmp_path))

    def test_changed_preparation_settings_rejected(self, corpus, flow, tmp_path):
        shutil.copytree(flow.out, tmp_path / "copy", dirs_exist_ok=True)
        cfg = replace(flow.cfg, output_dir=str(tmp_path / "copy"), split_seed=1)
        with pytest.raises(StateError, match="preparation settings changed"):
            run_train(cfg)

    def test_model_settings_do_not_stale_the_preparation(self, corpus, flow, tmp_path):
        shutil.copytree(flow.out, tmp_path / "copy", dirs_exist_ok=True)
        cfg = replace(
            flow.cfg,
            output_dir=str(tmp_path / "copy"),
            algorithm="logistic",
            model_params={"epochs": 5},
            model_seed=3,
        )
        result = run_train(cfg)
        assert result.algorithm == "logistic"

    def test_tampered_split_rejected(self, corpus, flow, tmp_path):
        shutil.copytree(flow.out, tmp_path / "copy", dirs_exist_ok=True)
        train_csv = tmp_path / "copy" / TRAIN_CSV
        train_csv.write_text(train_csv.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        cfg = replace(flow.cfg, output_dir=str(tmp_path / "copy"))
        with pytest.raises(StateError, match=f"{TRAIN_CSV} changed since prepare"):
            run_train(cfg)

    def test_missing_split_rejected(self, corpus, flow, tmp_path):
        shutil.copytree(flow.out, tmp_path / "copy", dirs_exist_ok=True)
        (tmp_path / "copy" / TEST_CSV).unlink()
        cfg = replace(flow.cfg, output_dir=str(tmp_path / "copy"))
        with pytest.raises(StateError, match=f"{TEST_CSV} is missing"):
            run_train(cfg)


class TestRunEvaluate:
    def test_outputs(self, flow):
        assert flow.ev_gbdt.report_path.is_file()
        tables = flow.ev_gbdt.tables_dir
        assert (tables / "overall_accuracy.csv").is_file()
        assert (tables / "report.md").is_file()
        assert list(tables.glob("metrics_*.csv"))
        assert 0.0 <= flow.ev_gbdt.accuracy <= 1.0

    def test_raw_layout_replays_preprocessing(self, corpus, flow, tmp_path):
        ds = load_csv(corpus["raw"], schema_from_json(corpus["schema"]))
        split = stratified_split(ds, flow.cfg.split_ratio, flow.cfg.split_seed, "Genetic Disorder")
        raw_test = tmp_path / "raw_test.csv"
        write_csv(split.test, raw_test)
        again = run_evaluate(flow.gbdt.artifact_path, raw_test, tmp_path / "eval_raw")
        assert again.rows == flow.ev_gbdt.rows
        assert again.report_path.read_bytes() == flow.ev_gbdt.report_path.read_bytes()

    @pytest.mark.parametrize("engineer", [True, False])
    @pytest.mark.parametrize("imputation", ["mode_median", "drop_rows"])
    def test_raw_split_evaluates_as_the_prepared_one(self, corpus, tmp_path, imputation, engineer):
        rows = list(csv.reader(open(corpus["raw"], newline="", encoding="utf-8")))
        for name, every in (("Mother's age", 9), ("Blood test result", 13)):
            col = rows[0].index(name)
            for row in rows[1::every]:
                row[col] = ""
        gappy = tmp_path / "gappy.csv"
        with open(gappy, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        cfg = run_cfg({"raw": str(gappy), "schema": corpus["schema"]}, tmp_path / "out", imputation=imputation, engineer=engineer)
        prepared = run_prepare(cfg)
        trained = run_train(cfg)
        expected = run_evaluate(trained.artifact_path, tmp_path / "out" / TEST_CSV, tmp_path / "eval_prepared")

        ds = load_csv(gappy, schema_from_json(corpus["schema"]))
        split = stratified_split(ds, cfg.split_ratio, cfg.split_seed, "Genetic Disorder")
        raw_test = tmp_path / "raw_test.csv"
        write_csv(split.test, raw_test)
        again = run_evaluate(trained.artifact_path, raw_test, tmp_path / "eval_raw")
        assert again.rows == expected.rows == prepared.test_rows
        assert (again.rows < split.test.n_rows) == (imputation == "drop_rows")
        assert again.report_path.read_bytes() == expected.report_path.read_bytes()

    def test_output_defaults_to_artifact_directory(self, flow, tmp_path):
        shutil.copytree(flow.out, tmp_path / "copy", dirs_exist_ok=True)
        artifact = tmp_path / "copy" / flow.gbdt.artifact_path.name
        result = run_evaluate(artifact, tmp_path / "copy" / TEST_CSV)
        assert result.report_path.parent == tmp_path / "copy"

    def test_schema_drift_named(self, flow, tmp_path):
        rows = list(csv.reader(open(flow.out / TEST_CSV, newline="", encoding="utf-8")))
        extra = tmp_path / "extra.csv"
        with open(extra, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([row + (["9"] if i else ["Extra Column"]) for i, row in enumerate(rows)])
        with pytest.raises(SchemaError, match=r"unexpected columns \['Extra Column'\]"):
            run_evaluate(flow.gbdt.artifact_path, extra, tmp_path / "out")

        dropped = tmp_path / "dropped.csv"
        with open(dropped, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([row[1:] for row in rows])
        missing_name = rows[0][0]
        with pytest.raises(SchemaError, match=f"missing columns.*{missing_name!r}"):
            run_evaluate(flow.gbdt.artifact_path, dropped, tmp_path / "out")

    def test_empty_files_rejected(self, flow, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(EmptyInputError, match="file is empty"):
            run_evaluate(flow.gbdt.artifact_path, empty, tmp_path / "out")

        header_only = tmp_path / "header_only.csv"
        header_only.write_text(
            (flow.out / TEST_CSV).read_text(encoding="utf-8").splitlines()[0] + "\n",
            encoding="utf-8",
        )
        with pytest.raises(EmptyInputError, match="no data rows"):
            run_evaluate(flow.gbdt.artifact_path, header_only, tmp_path / "out")

    def test_missing_data_file_rejected(self, flow, tmp_path):
        with pytest.raises(ConfigError, match="data file"):
            run_evaluate(flow.gbdt.artifact_path, tmp_path / "absent.csv", tmp_path)

    def test_unsupported_artifact_version_rejected(self, flow, tmp_path):
        doc = json.loads(flow.gbdt.artifact_path.read_text(encoding="utf-8"))
        doc["format_version"] = 99
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(PersistenceError, match="version 99 is not supported"):
            run_evaluate(tampered, flow.out / TEST_CSV, tmp_path)

    def test_missing_artifact_rejected(self, flow, tmp_path):
        with pytest.raises(PersistenceError, match="does not exist"):
            run_evaluate(tmp_path / "absent.json", flow.out / TEST_CSV, tmp_path)


class TestRunReport:
    def test_merges_two_algorithms(self, flow, tmp_path):
        reports = run_report(
            [flow.ev_gbdt.report_path, flow.ev_forest.report_path], tmp_path
        )
        assert len(reports) == 2
        table = (tmp_path / "overall_accuracy.csv").read_text(encoding="utf-8")
        assert "gbdt_plain" in table and "random_forest" in table
        assert (tmp_path / "report.md").is_file()

    def test_no_reports_rejected(self, tmp_path):
        with pytest.raises(ArgumentError, match="at least one"):
            run_report([], tmp_path)

    def test_duplicate_reports_rejected(self, flow, tmp_path):
        with pytest.raises(EvaluationError, match="duplicate evaluation"):
            run_report([flow.ev_gbdt.report_path, flow.ev_gbdt.report_path], tmp_path)


class TestArtifactRoundTrip:
    def test_all_algorithms_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(44)
        n = 120
        y = rng.integers(0, 3, size=n)
        X = rng.normal(size=(n, 4))
        X[:, 0] += 2.0 * y
        X[:, 1] -= y * y
        ds = xy_dataset(X, y, n_classes=3)
        for name in ALGORITHM_NAMES:
            alg = ALGORITHMS[name]
            model = alg.fit(ds, "y", alg.build_config(SMALL_PARAMS[name], 3))
            artifact = ModelArtifact(
                algorithm=name,
                task="genetic_disorder",
                class_labels=tuple(model.class_labels),
                model_doc=model.to_json(),
                pipeline_doc={},
                config_hash="0" * 64,
                seed=3,
            )
            path = tmp_path / f"{name}.json"
            artifact.save(path)
            revived = revive_model(ModelArtifact.load(path))
            np.testing.assert_array_equal(model.predict(X), revived.predict(X), err_msg=name)
            np.testing.assert_array_equal(
                model.predict_proba(X), revived.predict_proba(X), err_msg=name
            )

    def test_unknown_algorithm_rejected(self):
        artifact = ModelArtifact(
            algorithm="perceptron",
            task="genetic_disorder",
            class_labels=("a",),
            model_doc={},
            pipeline_doc={},
            config_hash="x",
            seed=0,
        )
        with pytest.raises(ArgumentError, match="unknown algorithm"):
            revive_model(artifact)


class TestCli:
    def write_config(self, corpus, tmp_path, out_dir, **kw):
        cfg = run_cfg(corpus, out_dir, **kw)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg.to_json()), encoding="utf-8")
        return path

    def invoke(self, *args, env=None):
        runner = CliRunner()
        merged = {"GENOCLASS_OUTPUT_DIR": ""}
        merged.update(env or {})
        return runner.invoke(main, [str(a) for a in args], env=merged)

    def test_full_flow(self, corpus, tmp_path):
        out = tmp_path / "out"
        cfg_path = self.write_config(corpus, tmp_path, out)

        prepared = self.invoke("prepare", "--config", cfg_path)
        assert prepared.exit_code == 0, prepared.output
        assert "prepared 192 train and 48 test rows" in prepared.output

        trained = self.invoke("train", "--config", cfg_path)
        assert trained.exit_code == 0, trained.output
        assert "trained gbdt_plain" in trained.output
        artifact = out / "model_gbdt_plain_genetic_disorder.json"
        assert artifact.is_file()

        evaluated = self.invoke(
            "evaluate", "--artifact", artifact, "--data", out / TEST_CSV, "--out", out / "eval"
        )
        assert evaluated.exit_code == 0, evaluated.output
        assert "accuracy" in evaluated.output
        report_json = out / "eval" / "evaluation_gbdt_plain_genetic_disorder.json"
        assert report_json.is_file()

        merged = self.invoke("report", report_json, "--out", out / "tables")
        assert merged.exit_code == 0, merged.output
        assert (out / "tables" / "overall_accuracy.csv").is_file()

    def test_validation_failure_exits_1(self, corpus, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"input": "x.csv"}), encoding="utf-8")
        result = self.invoke("prepare", "--config", bad)
        assert result.exit_code == 1
        assert "error:" in result.output

    def test_runtime_failure_exits_2(self, corpus, tmp_path):
        cfg_path = self.write_config(corpus, tmp_path, tmp_path / "out")
        result = self.invoke("train", "--config", cfg_path)
        assert result.exit_code == 2
        assert "run prepare first" in result.output

    def test_out_of_memory_exits_2(self, corpus, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg_path = self.write_config(corpus, tmp_path, out)
        assert self.invoke("prepare", "--config", cfg_path).exit_code == 0

        def exhausted(*args):
            raise MemoryError("Unable to allocate 3.40 GiB for an array with shape (9, 65536, 776) and data type float64")

        monkeypatch.setitem(ALGORITHMS, "gbdt_plain", replace(ALGORITHMS["gbdt_plain"], fit=exhausted))
        result = self.invoke("train", "--config", cfg_path)
        assert result.exit_code == 2
        assert result.output.startswith("error: out of memory: Unable to allocate 3.40 GiB")
        assert "Traceback" not in result.output
        # the lock went with the command
        monkeypatch.undo()
        assert self.invoke("train", "--config", cfg_path).exit_code == 0

    def test_drop_rows_emptying_the_train_split_exits_2(self, corpus, tmp_path):
        rows = list(csv.reader(open(corpus["raw"], newline="", encoding="utf-8")))
        col = rows[0].index("Mother's age")
        for row in rows[1:]:
            row[col] = ""
        raw = tmp_path / "gappy.csv"
        with open(raw, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        cfg_path = self.write_config({"raw": str(raw), "schema": corpus["schema"]}, tmp_path, tmp_path / "out", imputation="drop_rows")
        result = self.invoke("prepare", "--config", cfg_path)
        assert result.exit_code == 2
        assert result.output == f"error: {raw} (train split): every row had missing feature cells and was dropped\n"
        assert "Traceback" not in result.output

    def test_held_lock_exits_2(self, corpus, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        cfg_path = self.write_config(corpus, tmp_path, out)
        # another open file description of the lock file holds the flock, as another process would
        with open(out / LOCK_NAME, "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            result = self.invoke("prepare", "--config", cfg_path)
        assert result.exit_code == 2
        assert "locked by another command" in result.output
        assert not (out / PIPELINE_JSON).exists()

    def test_lock_released_after_success(self, corpus, tmp_path):
        out = tmp_path / "out"
        cfg_path = self.write_config(corpus, tmp_path, out)
        assert self.invoke("prepare", "--config", cfg_path).exit_code == 0
        assert self.invoke("prepare", "--config", cfg_path).exit_code == 0

    def test_killed_train_leaves_the_directory_usable(self, corpus, tmp_path):
        out = tmp_path / "out"
        cfg_path = self.write_config(corpus, tmp_path, out)
        assert self.invoke("prepare", "--config", cfg_path).exit_code == 0
        held = tmp_path / "held"
        # a train whose fit stalls once the command holds the lock, so the kill lands at a known point
        stalled = (
            "import pathlib, sys, time\n"
            "from genoclass import cli\n"
            "def stall(cfg):\n"
            "    pathlib.Path(sys.argv[2]).touch()\n"
            "    time.sleep(300)\n"
            "cli.run_train = stall\n"
            "cli.main(['train', '--config', sys.argv[1]])\n"
        )
        src = str(Path(genoclass.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), "GENOCLASS_OUTPUT_DIR": ""}
        proc = subprocess.Popen([sys.executable, "-c", stalled, str(cfg_path), str(held)], env=env)
        try:
            deadline = time.monotonic() + 60
            while not held.exists() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
            assert held.exists(), "the stalled train never took the lock"
            assert "locked by another command" in self.invoke("train", "--config", cfg_path).output
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signal.SIGKILL
        assert (out / LOCK_NAME).exists()
        rerun = self.invoke("train", "--config", cfg_path)
        assert rerun.exit_code == 0, rerun.output

    def test_evaluate_removes_stale_temporaries(self, flow, tmp_path):
        """A killed command's temporaries, in the locked directory and in a table directory, go;
        a live process's stay, and the outputs are those of a clean run."""
        args = ("evaluate", "--artifact", flow.gbdt.artifact_path, "--data", flow.out / TEST_CSV, "--out")
        assert self.invoke(*args, tmp_path / "clean").exit_code == 0
        out = tmp_path / "out"
        tables = out / "report_gbdt_plain_genetic_disorder"
        tables.mkdir(parents=True)
        finished = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"], capture_output=True, text=True, check=True)
        stale = [out / f".evaluation_gbdt_plain_genetic_disorder.json.{int(finished.stdout)}.tmp", tables / f".report.md.{int(finished.stdout)}.tmp"]
        # this process's temporaries and its parent's: both processes are alive
        live = [out / f".report.md.{os.getpid()}.tmp", tables / f".roc_gbdt_plain_genetic_disorder_a.csv.{os.getppid()}.tmp"]
        for path in stale + live:
            path.write_text("partial", encoding="utf-8")
        result = self.invoke(*args, out)
        assert result.exit_code == 0, result.output
        assert not any(path.exists() for path in stale)
        assert all(path.exists() for path in live)
        for path in live:
            path.unlink()

        def contents(root):
            return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}

        assert contents(out) == contents(tmp_path / "clean")

    def test_labels_sharing_a_roc_file_name_exit_2(self, tmp_path):
        """Two class labels with one slug would write one ROC file twice: evaluate and report refuse them."""
        rng = np.random.default_rng(3)
        y = np.arange(60) % 2
        X = rng.normal(size=(60, 3)) + y[:, None]
        ds = make_dataset(
            [*((f"x{j}", "numeric") for j in range(3)), ("y", "categorical", "target_disorder", ("Type A", "type-a")),
             ("s", "categorical", "target_subclass", ("s0", "s1"))],
            {**{f"x{j}": X[:, j] for j in range(3)}, "y": y, "s": y},
        )
        corpus = {"raw": str(tmp_path / "raw.csv"), "schema": str(tmp_path / "schema.json")}
        write_csv(ds, corpus["raw"])
        Path(corpus["schema"]).write_text(json.dumps(schema_to_json(ds.columns)), encoding="utf-8")
        out = tmp_path / "out"
        cfg = replace(run_cfg(corpus, out, algorithm="logistic"), engineer=False, top_k=3)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg.to_json()), encoding="utf-8")
        assert self.invoke("prepare", "--config", cfg_path).exit_code == 0
        assert self.invoke("train", "--config", cfg_path).exit_code == 0

        message = "error: class labels 'Type A' and 'type-a' of task 'genetic_disorder' would share the ROC file roc_logistic_genetic_disorder_type_a.csv\n"
        evaluated = self.invoke("evaluate", "--artifact", out / "model_logistic_genetic_disorder.json", "--data", out / TEST_CSV)
        assert (evaluated.exit_code, evaluated.output) == (2, message)
        assert not list(out.glob("report_*/*.csv"))
        merged = self.invoke("report", out / "evaluation_logistic_genetic_disorder.json", "--out", tmp_path / "tables")
        assert (merged.exit_code, merged.output) == (2, message)
        assert not (tmp_path / "tables" / "overall_accuracy.csv").exists()

    @pytest.mark.parametrize("command", ["prepare", "evaluate"])
    def test_output_directory_under_a_file_exits_2(self, corpus, flow, tmp_path, command):
        blocker = tmp_path / "afile"
        blocker.write_text("", encoding="utf-8")
        if command == "prepare":
            out = blocker / "out"
            result = self.invoke("prepare", "--config", self.write_config(corpus, tmp_path, out))
        else:
            out = blocker / "sub"
            result = self.invoke("evaluate", "--artifact", flow.gbdt.artifact_path, "--data", flow.out / TEST_CSV, "--out", out)
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: cannot create directory {str(out)!r}"), result.output
        assert "Traceback" not in result.output

    # the entry each malformed schema adds to a good one (None: the file is not JSON), and its error
    BAD_SCHEMAS = {
        "not_json": (None, "is not valid JSON"),
        "entry_not_an_object": ("numeric", "column must be a JSON object"),
        "entry_without_name": ({"kind": "numeric"}, "column is missing required keys ['name']"),
        "categories_not_a_list": ({"name": "x", "kind": "categorical", "categories": 5}, "categories must be a JSON array"),
    }

    @pytest.mark.parametrize("case", list(BAD_SCHEMAS))
    def test_malformed_schema_exits_2(self, corpus, tmp_path, case):
        entry, message = self.BAD_SCHEMAS[case]
        schema = tmp_path / "schema.json"
        doc = json.loads(Path(corpus["schema"]).read_text(encoding="utf-8"))
        schema.write_text("[{not json" if entry is None else json.dumps([*doc, entry]), encoding="utf-8")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(run_cfg({"raw": corpus["raw"], "schema": str(schema)}, tmp_path / "out").to_json()), encoding="utf-8")
        result = self.invoke("prepare", "--config", cfg_path)
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ") and message in result.output, result.output
        assert "Traceback" not in result.output and isinstance(result.exception, SystemExit)

    def test_env_redirects_output_dir(self, corpus, tmp_path):
        ignored = tmp_path / "ignored"
        redirected = tmp_path / "redirected"
        cfg_path = self.write_config(corpus, tmp_path, ignored)
        result = self.invoke(
            "prepare", "--config", cfg_path, env={"GENOCLASS_OUTPUT_DIR": str(redirected)}
        )
        assert result.exit_code == 0, result.output
        assert (redirected / PIPELINE_JSON).is_file()
        assert not ignored.exists()

    def test_seed_override_covers_split_and_model(self, corpus, tmp_path):
        out = tmp_path / "out"
        cfg_path = self.write_config(corpus, tmp_path, out)
        assert self.invoke("prepare", "--config", cfg_path, "--seed", 7).exit_code == 0

        stale = self.invoke("train", "--config", cfg_path)
        assert stale.exit_code == 2
        assert "preparation settings changed" in stale.output

        trained = self.invoke("train", "--config", cfg_path, "--seed", 7)
        assert trained.exit_code == 0, trained.output
        artifact = ModelArtifact.load(out / "model_gbdt_plain_genetic_disorder.json")
        assert artifact.seed == 7

    def test_report_needs_an_output_dir(self, flow):
        result = self.invoke("report", flow.ev_gbdt.report_path)
        assert result.exit_code == 1
        assert "no output directory" in result.output

    @pytest.mark.parametrize(
        "damage",
        [
            "gbdt_without_f0",
            "forest_node_without_threshold",
            "gbdt_unknown_key",
            "gbdt_without_config",
            "forest_child_out_of_range",
            "forest_child_before_parent",
            "forest_arrays_of_unequal_length",
            "forest_leaf_without_a_value",
            "gbdt_leaf_with_an_extra_value",
            "gbdt_internal_node_without_a_feature",
        ],
    )
    def test_malformed_model_document_exits_2(self, flow, tmp_path, damage):
        source = flow.forest if damage.startswith("forest_") else flow.gbdt
        doc = json.loads(source.artifact_path.read_text(encoding="utf-8"))
        tree = doc["model"]["trees"][0]
        if damage == "gbdt_without_f0":
            del doc["model"]["f0"]
        elif damage == "gbdt_unknown_key":
            doc["model"]["bogus"] = 1
        elif damage == "gbdt_without_config":
            del doc["model"]["config"]
        elif damage == "forest_node_without_threshold":
            assert "threshold" in tree
            del tree["threshold"]
        elif damage == "forest_child_out_of_range":
            tree["left"][0] = len(tree["left"])
        elif damage == "forest_child_before_parent":
            # the root's left child points back at the root: a descent would never end
            assert tree["left"][0] > 0
            tree["left"][0] = 0
        elif damage == "forest_leaf_without_a_value":
            tree["value"].pop()
        elif damage == "gbdt_leaf_with_an_extra_value":
            tree["value"].append(tree["value"][-1])
        elif damage == "gbdt_internal_node_without_a_feature":
            tree["feature"].pop()
        else:
            tree["threshold"].pop()
        broken = tmp_path / source.artifact_path.name
        broken.write_text(json.dumps(doc), encoding="utf-8")
        result = self.invoke("evaluate", "--artifact", broken, "--data", flow.out / TEST_CSV, "--out", tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert "model document is malformed" in result.output
        with pytest.raises(PersistenceError, match="malformed"):
            revive_model(ModelArtifact.load(broken))

    @pytest.mark.parametrize("damage", ["forest_one_value_column", "forest_extra_class_column", "gbdt_value_matrix", "gbdt_one_value_column"])
    def test_tree_values_of_the_wrong_shape_exit_2(self, flow, tmp_path, damage):
        source = flow.forest if damage.startswith("forest_") else flow.gbdt
        doc = json.loads(source.artifact_path.read_text(encoding="utf-8"))
        trees = doc["model"]["trees"]
        if damage == "forest_one_value_column":
            trees[0]["value"] = [row[0] for row in trees[0]["value"]]
        elif damage == "forest_extra_class_column":
            trees[-1]["value"] = [[*row, 0.0] for row in trees[-1]["value"]]
        elif damage == "gbdt_value_matrix":
            # one column more than the model has classes
            trees[0]["value"] = [[*row, 0.0] for row in trees[0]["value"]]
        else:
            trees[-1]["value"] = [row[0] for row in trees[-1]["value"]]
        broken = tmp_path / source.artifact_path.name
        broken.write_text(json.dumps(doc), encoding="utf-8")
        result = self.invoke("evaluate", "--artifact", broken, "--data", flow.out / TEST_CSV, "--out", tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert "model document is malformed" in result.output
        with pytest.raises(PersistenceError, match="values"):
            revive_model(ModelArtifact.load(broken))

    def test_format_3_artifact_exits_2(self, flow, tmp_path):
        # format 4 stores trees leaves-only and one boosting tree per round; older files are rejected, not migrated
        doc = json.loads(flow.gbdt.artifact_path.read_text(encoding="utf-8"))
        doc["format_version"] = 3
        old = tmp_path / flow.gbdt.artifact_path.name
        old.write_text(json.dumps(doc), encoding="utf-8")
        result = self.invoke("evaluate", "--artifact", old, "--data", flow.out / TEST_CSV, "--out", tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert "version 3 is not supported (expected 4)" in result.output
        assert "Traceback" not in result.output

    def test_format_2_artifact_exits_2(self, flow, tmp_path):
        # format 3 stores an SVM as one shared support set; older files are rejected, not migrated
        doc = json.loads(flow.gbdt.artifact_path.read_text(encoding="utf-8"))
        doc["format_version"] = 2
        old = tmp_path / flow.gbdt.artifact_path.name
        old.write_text(json.dumps(doc), encoding="utf-8")
        result = self.invoke("evaluate", "--artifact", old, "--data", flow.out / TEST_CSV, "--out", tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert "version 2 is not supported" in result.output

    @pytest.mark.parametrize("content", [None, "not json", '{"x": 1}'], ids=["missing", "not_json", "keyless"])
    def test_bad_evaluation_file_exits_2(self, tmp_path, content):
        path = tmp_path / "evaluation.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        result = self.invoke("report", path, "--out", tmp_path / "tables")
        assert result.exit_code == 2, result.output
        assert "error: evaluation report" in result.output
        with pytest.raises(PersistenceError, match="evaluation report"):
            EvaluationReport.load(path)


class TestUnreadableCsv:
    """Text the csv module cannot read is a data error (exit 2) naming the file, and the line where it can."""

    invoke = TestCli.invoke
    # text decodes in blocks, so only the field limit can name its line
    CASES = [("oversized_cell", "{path}: line {line}: field larger than field limit"), ("not_utf8", "{path} is not UTF-8 text")]

    @staticmethod
    def damaged_copy(source, dest, kind, line):
        lines = Path(source).read_bytes().split(b"\n")
        if kind == "oversized_cell":
            lines[line - 1] = b"x" * 140_000 + lines[line - 1]
        else:
            lines[line - 1] += b"\xff"
        dest.write_bytes(b"\n".join(lines))
        return dest

    @pytest.mark.parametrize("kind, message", CASES)
    def test_prepare_exits_2(self, corpus, tmp_path, kind, message):
        raw = self.damaged_copy(corpus["raw"], tmp_path / "raw.csv", kind, line=6)
        cfg_path = tmp_path / "run.json"
        cfg = run_cfg({"raw": str(raw), "schema": corpus["schema"]}, tmp_path / "out")
        cfg_path.write_text(json.dumps(cfg.to_json()), encoding="utf-8")
        result = self.invoke("prepare", "--config", cfg_path)
        assert result.exit_code == 2, result.output
        assert "error: " + message.format(path=raw, line=6) in result.output

    @pytest.mark.parametrize("line", [1, 6], ids=["header", "row"])
    @pytest.mark.parametrize("kind, message", CASES)
    def test_evaluate_on_a_raw_csv_exits_2(self, corpus, flow, tmp_path, kind, message, line):
        raw = self.damaged_copy(corpus["raw"], tmp_path / "raw.csv", kind, line)
        result = self.invoke("evaluate", "--artifact", flow.gbdt.artifact_path, "--data", raw, "--out", tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert "error: " + message.format(path=raw, line=line) in result.output


class TestByteOrderMark:
    """A CSV that starts with a UTF-8 byte-order mark reads as the same file without one."""

    @staticmethod
    def bom_copy(source, dest):
        dest.write_bytes(b"\xef\xbb\xbf" + Path(source).read_bytes())
        return dest

    def test_prepare_writes_the_same_files(self, corpus, flow, tmp_path):
        raw = self.bom_copy(corpus["raw"], tmp_path / "raw.csv")
        run_prepare(replace(flow.cfg, input=str(raw), output_dir=str(tmp_path / "out")))
        for name in (TRAIN_CSV, TEST_CSV, RANKING_CSV):
            assert (tmp_path / "out" / name).read_bytes() == (flow.out / name).read_bytes()

    def test_evaluate_on_a_raw_csv_scores_the_same_rows(self, corpus, flow, tmp_path):
        raw = self.bom_copy(corpus["raw"], tmp_path / "raw.csv")
        plain = run_evaluate(flow.gbdt.artifact_path, corpus["raw"], tmp_path / "plain")
        marked = run_evaluate(flow.gbdt.artifact_path, raw, tmp_path / "marked")
        assert marked.rows == plain.rows
        assert marked.report_path.read_bytes() == plain.report_path.read_bytes()


class TestStrictDocuments:
    """Values of the wrong JSON type fail with their documented exit code instead of being coerced."""

    invoke = TestCli.invoke

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("features", "engineer", "false"),
            ("features", "bins", 2.5),
            ("features", "top_k", True),
            ("split", "seed", "7"),
            ("split", "ratio", True),
            ("model", "seed", 1.5),
            (None, "output_dir", 5),
        ],
    )
    def test_run_config_value_of_the_wrong_type_exits_1(self, corpus, tmp_path, section, key, value):
        doc = run_cfg(corpus, tmp_path / "out").to_json()
        (doc[section] if section else doc)[key] = value
        with pytest.raises(ConfigError, match="must be a JSON"):
            RunConfig.from_json(doc)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = self.invoke("prepare", "--config", path)
        assert result.exit_code == 1, result.output
        assert "must be a JSON" in result.output

    def test_config_section_that_is_not_an_object_exits_1(self, corpus, tmp_path):
        doc = {**run_cfg(corpus, tmp_path / "out").to_json(), "split": [0.8]}
        with pytest.raises(ConfigError, match="split must be a JSON object"):
            RunConfig.from_json(doc)

    def test_fractional_model_param_exits_1(self, corpus, flow, tmp_path):
        doc = replace(flow.cfg, algorithm="random_forest", model_params={"trees": 2.7}).to_json()
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = self.invoke("train", "--config", path)
        assert result.exit_code == 1, result.output
        assert "trees must be a JSON integer" in result.output

    @pytest.mark.parametrize("depth, code", [(16, 0), (17, 1), (40, 1)])
    def test_oblivious_depth_is_bounded(self, flow, tmp_path, depth, code):
        # a complete oblivious tree of depth d has 2^(d + 1) - 1 nodes of k values each
        doc = replace(flow.cfg, algorithm="gbdt_oblivious", output_dir=str(tmp_path / "out"), model_params={"rounds": 1, "max_depth": depth}).to_json()
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        shutil.copytree(flow.out, tmp_path / "out")
        result = self.invoke("train", "--config", path)
        assert result.exit_code == code, result.output
        assert "Traceback" not in result.output
        if code:
            assert result.output.startswith("error: ") and "max_depth of an oblivious tree must be <= 16" in result.output

    def test_non_finite_model_param_exits_1(self, flow, tmp_path):
        doc = replace(flow.cfg, algorithm="logistic", model_params={"learning_rate": float("nan")}).to_json()
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert '"learning_rate": NaN' in path.read_text(encoding="utf-8")
        result = self.invoke("train", "--config", path)
        assert result.exit_code == 1, result.output
        assert "learning rate must be positive and finite" in result.output

    def test_integer_source_threshold_keeps_its_fingerprint(self, corpus, tmp_path):
        doc = run_cfg(corpus, tmp_path / "out").to_json()
        doc["features"]["sources"] = {"age_threshold": 40}
        as_int = RunConfig.from_json(doc)
        doc["features"]["sources"] = {"age_threshold": 40.0}
        assert config_fingerprint(as_int) == config_fingerprint(RunConfig.from_json(doc))
        assert as_int.sources.age_threshold == 40.0

    def test_stored_config_value_of_the_wrong_type_exits_2(self, flow, tmp_path):
        doc = json.loads(flow.forest.artifact_path.read_text(encoding="utf-8"))
        doc["model"]["config"]["bootstrap"] = "false"
        broken = tmp_path / flow.forest.artifact_path.name
        broken.write_text(json.dumps(doc), encoding="utf-8")
        result = self.invoke("evaluate", "--artifact", broken, "--data", flow.out / TEST_CSV, "--out", tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert "must be a JSON boolean" in result.output
        with pytest.raises(PersistenceError, match="must be a JSON boolean"):
            revive_model(ModelArtifact.load(broken))

    def test_stored_tree_threshold_as_a_string_exits_2(self, flow, tmp_path):
        doc = json.loads(flow.forest.artifact_path.read_text(encoding="utf-8"))
        tree = doc["model"]["trees"][0]
        tree["threshold"][0] = str(tree["threshold"][0])
        broken = tmp_path / flow.forest.artifact_path.name
        broken.write_text(json.dumps(doc), encoding="utf-8")
        result = self.invoke("evaluate", "--artifact", broken, "--data", flow.out / TEST_CSV, "--out", tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert "threshold must be a rectangular JSON array of numbers" in result.output
        with pytest.raises(PersistenceError, match="threshold must be a rectangular JSON array of numbers"):
            revive_model(ModelArtifact.load(broken))

    def test_stored_boolean_among_numbers_exits_2(self, flow, tmp_path):
        doc = json.loads(flow.forest.artifact_path.read_text(encoding="utf-8"))
        tree = doc["model"]["trees"][0]
        tree["threshold"][0] = True
        broken = tmp_path / flow.forest.artifact_path.name
        broken.write_text(json.dumps(doc), encoding="utf-8")
        result = self.invoke("evaluate", "--artifact", broken, "--data", flow.out / TEST_CSV, "--out", tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert "threshold must be a rectangular JSON array of numbers" in result.output
        with pytest.raises(PersistenceError, match="threshold must be a rectangular JSON array of numbers"):
            revive_model(ModelArtifact.load(broken))

    @pytest.mark.parametrize("key", ["roc", "flags", "config_hash"])
    def test_evaluation_file_without_a_written_key_exits_2(self, flow, tmp_path, key):
        doc = json.loads(flow.ev_gbdt.report_path.read_text(encoding="utf-8"))
        del doc[key]
        path = tmp_path / flow.ev_gbdt.report_path.name
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = self.invoke("report", path, "--out", tmp_path / "tables")
        assert result.exit_code == 2, result.output
        assert "malformed" in result.output
        assert not (tmp_path / "tables").exists() or not any(p.name != LOCK_NAME for p in (tmp_path / "tables").iterdir())
        with pytest.raises(PersistenceError, match=key):
            EvaluationReport.load(path)

    @pytest.mark.parametrize(
        "key, value",
        [("accuracy", "0.5"), ("labels", "abc"), ("algorithm", 7), ("precision", [0.5, 0.5]), ("recall", [0.5]), ("f1", []), ("support", [1, 2]), ("support", [1, 2, 3, 4])],
    )
    def test_stored_report_value_of_the_wrong_type_exits_2(self, flow, tmp_path, key, value):
        doc = json.loads(flow.ev_gbdt.report_path.read_text(encoding="utf-8"))
        # as many characters as labels, so a string read as a sequence would still fit the matrix
        assert len(doc["labels"]) == 3
        doc[key] = value
        path = tmp_path / flow.ev_gbdt.report_path.name
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = self.invoke("report", path, "--out", tmp_path / "tables")
        assert result.exit_code == 2, result.output
        assert f"{key} must be a JSON" in result.output
        assert not (tmp_path / "tables").exists() or not any(p.name != LOCK_NAME for p in (tmp_path / "tables").iterdir())
        with pytest.raises(PersistenceError, match=f"{key} must be a JSON"):
            EvaluationReport.load(path)

    # a curve holds at least its (0, 0) and (1, 1) points, so one fpr point is never as many as its tpr's
    @pytest.mark.parametrize("points", [[[0.0, 1.0]], ["0.0", "1.0"], [0.0]], ids=["nested", "strings", "shorter-than-tpr"])
    def test_stored_roc_points_that_are_not_flat_numbers_exit_2(self, flow, tmp_path, points):
        doc = json.loads(flow.ev_gbdt.report_path.read_text(encoding="utf-8"))
        curve = next(c for c in doc["roc"].values() if c is not None)
        curve["fpr"] = points
        path = tmp_path / flow.ev_gbdt.report_path.name
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = self.invoke("report", path, "--out", tmp_path / "tables")
        assert result.exit_code == 2, result.output
        assert "JSON array of numbers" in result.output
        assert not (tmp_path / "tables").exists() or not any(p.name != LOCK_NAME for p in (tmp_path / "tables").iterdir())

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("name", ["age_threshold", "wbc_threshold"])
    def test_non_finite_source_threshold_exits_1(self, corpus, tmp_path, name, value):
        doc = run_cfg(corpus, tmp_path / "out").to_json()
        doc["features"]["sources"] = {name: float(value.replace("Infinity", "inf"))}
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            RunConfig.from_json(doc)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert f'"{name}": {value}' in path.read_text(encoding="utf-8")
        result = self.invoke("prepare", "--config", path)
        assert result.exit_code == 1, result.output
        assert f"{name} must be finite" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("engineer", "false"), ("class_labels", "abc"), ("top_k", 2.9), ("prepare_hash", 5)],
    )
    def test_stored_pipeline_value_of_the_wrong_type_exits_2(self, flow, tmp_path, key, value):
        record = json.loads((flow.out / PIPELINE_JSON).read_text(encoding="utf-8"))
        record[key] = value
        path = tmp_path / PIPELINE_JSON
        path.write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises(PersistenceError, match=f"pipeline record is malformed: {key} must be a JSON"):
            FeaturePipeline.load(path)
        doc = json.loads(flow.gbdt.artifact_path.read_text(encoding="utf-8"))
        doc["pipeline"][key] = value
        broken = tmp_path / flow.gbdt.artifact_path.name
        broken.write_text(json.dumps(doc), encoding="utf-8")
        result = self.invoke("evaluate", "--artifact", broken, "--data", flow.out / TEST_CSV, "--out", tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert f"{key} must be a JSON" in result.output

    @pytest.mark.parametrize("key, value", [("seed", "3"), ("algorithm", 7)])
    def test_stored_artifact_value_of_the_wrong_type_exits_2(self, flow, tmp_path, key, value):
        doc = json.loads(flow.gbdt.artifact_path.read_text(encoding="utf-8"))
        doc[key] = value
        broken = tmp_path / flow.gbdt.artifact_path.name
        broken.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(PersistenceError, match=f"artifact document is malformed: {key} must be a JSON"):
            ModelArtifact.load(broken)
        result = self.invoke("evaluate", "--artifact", broken, "--data", flow.out / TEST_CSV, "--out", tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert f"{key} must be a JSON" in result.output

    @pytest.fixture(scope="class")
    def logistic(self, flow, tmp_path_factory):
        """A logistic model trained on a copy of the prepared directory."""
        out = tmp_path_factory.mktemp("logistic")
        shutil.copytree(flow.out, out, dirs_exist_ok=True)
        return run_train(replace(flow.cfg, algorithm="logistic", model_params=SMALL_PARAMS["logistic"], output_dir=str(out)))

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda doc: doc["model"].update(alpha=doc["model"]["alpha"][:-1]), "logistic model of"),
            (lambda doc: doc["model"].update(W=[row[:-1] for row in doc["model"]["W"]]), "logistic model of"),
            (lambda doc: doc["model"].update(W=doc["model"]["W"][:-1]), "logistic model of"),
            (lambda doc: doc["model"]["scaler"].update(mean=doc["model"]["scaler"]["mean"][:-1], scale=doc["model"]["scaler"]["scale"][:-1]), "logistic model of"),
            (lambda doc: doc.update(class_labels=doc["class_labels"][:-1]), "class labels"),
        ],
        ids=["short-alpha", "narrow-W", "short-W", "narrow-scaler", "short-artifact-labels"],
    )
    def test_stored_logistic_arrays_that_disagree_exit_2(self, flow, logistic, tmp_path, edit, match):
        doc = json.loads(logistic.artifact_path.read_text(encoding="utf-8"))
        edit(doc)
        broken = tmp_path / logistic.artifact_path.name
        broken.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(PersistenceError, match=match):
            revive_model(ModelArtifact.load(broken))
        result = self.invoke("evaluate", "--artifact", broken, "--data", flow.out / TEST_CSV, "--out", tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert match in result.output and "Traceback" not in result.output


def edited_csv(source, dest, edit):
    """Write to dest the records of the CSV at source (header first) after edit(records) changed them in place."""
    with open(source, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    edit(records)
    with open(dest, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(records)
    return dest


class TestTrainReadsTheModelsColumns:
    """train converts only the selected features and the targets of the hash-checked train.csv, and
    fits exactly what a read of every column would."""

    invoke = TestCli.invoke

    @staticmethod
    def copy_of(flow, tmp_path, **changes):
        out = tmp_path / "copy"
        shutil.copytree(flow.out, out)
        return replace(flow.cfg, output_dir=str(out), **changes), out

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_writes_what_a_full_parse_would(self, flow, tmp_path, monkeypatch, algorithm):
        cfg, out = self.copy_of(flow, tmp_path, algorithm=algorithm, model_params=SMALL_PARAMS[algorithm])
        record = FeaturePipeline.load(out / PIPELINE_JSON)
        schemas = []
        monkeypatch.setattr(pipeline_module, "load_csv", lambda path, schema: schemas.append(schema) or load_csv(path, schema))
        subset = run_train(cfg)
        subset_bytes = subset.artifact_path.read_bytes()
        assert [c.name for c in schemas[0] if c.role == "feature"] == [c.name for c in record.prepared_schema() if c.name in record.selected]
        assert len(record.selected) < len(record.ranking)

        monkeypatch.setattr(pipeline_module, "load_csv", lambda path, schema: load_csv(path, record.prepared_schema()))
        full = run_train(cfg)
        assert full.artifact_path.read_bytes() == subset_bytes
        assert (full.train_rows, full.train_accuracy, full.final_loss) == (subset.train_rows, subset.train_accuracy, subset.final_loss)

    def test_tampered_unread_column_exits_2_before_any_parse(self, flow, tmp_path, monkeypatch):
        cfg, out = self.copy_of(flow, tmp_path)
        record = FeaturePipeline.load(out / PIPELINE_JSON)
        unread = next(c.name for c in record.prepared_schema() if c.role == "feature" and c.name not in record.selected)

        def tamper(rows):
            rows[1][rows[0].index(unread)] = "not what prepare wrote"

        edited_csv(out / TRAIN_CSV, out / TRAIN_CSV, tamper)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg.to_json()), encoding="utf-8")
        parsed = []
        monkeypatch.setattr(pipeline_module, "load_csv", lambda *args: parsed.append(args))
        result = self.invoke("train", "--config", cfg_path)
        assert result.exit_code == 2, result.output
        assert result.output == f"error: stale preparation: {TRAIN_CSV} changed since prepare; rerun prepare\n"
        assert parsed == []


class TestEvaluateReadsTheModelsColumns:
    """evaluate converts only the model's features and the targets of a prepared file that hashes to the
    recorded test split, and writes exactly what the full parse and replay of any other file writes."""

    invoke = TestCli.invoke

    @staticmethod
    def lf_copy(source, dest):
        """The same cells as source with LF line ends in place of CRLF, so another SHA-256."""
        dest.write_bytes(Path(source).read_bytes().replace(b"\r\n", b"\n"))
        return dest

    @staticmethod
    def written(root):
        return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_writes_what_a_full_parse_would(self, flow, tmp_path, monkeypatch, algorithm):
        cfg, out = TestTrainReadsTheModelsColumns.copy_of(flow, tmp_path, algorithm=algorithm, model_params=SMALL_PARAMS[algorithm])
        artifact = run_train(cfg).artifact_path
        record = FeaturePipeline.load(out / PIPELINE_JSON)
        copy = self.lf_copy(out / TEST_CSV, tmp_path / "test_lf.csv")
        assert copy.read_bytes() != (out / TEST_CSV).read_bytes()
        schemas = []
        monkeypatch.setattr(pipeline_module, "load_csv", lambda path, schema: schemas.append(schema) or load_csv(path, schema))
        verified = run_evaluate(artifact, out / TEST_CSV, tmp_path / "verified")
        full = run_evaluate(artifact, copy, tmp_path / "full")

        model = revive_model(ModelArtifact.load(artifact))
        assert [c.name for c in schemas[0] if c.role == "feature"] == [c.name for c in record.prepared_schema() if c.name in model.feature_names]
        assert len(model.feature_names) < len(record.ranking)
        assert schemas[1] == record.prepared_schema()
        assert (verified.rows, verified.accuracy) == (full.rows, full.accuracy)
        tables = self.written(tmp_path / "verified")
        assert any(name.endswith(".csv") and "/roc_" in name for name in tables)
        assert tables == self.written(tmp_path / "full")

    def test_malformed_unread_cell_of_an_unverified_file_exits_2(self, flow, tmp_path):
        record = FeaturePipeline.load(flow.out / PIPELINE_JSON)
        unread = next(c.name for c in record.prepared_schema() if c.role == "feature" and c.kind == "numeric" and c.name not in record.selected)

        def damage(rows):
            rows[3][rows[0].index(unread)] = "abc"

        data = edited_csv(flow.out / TEST_CSV, tmp_path / "test.csv", damage)
        result = self.invoke("evaluate", "--artifact", flow.gbdt.artifact_path, "--data", data, "--out", tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert result.output == f"error: {data}: column {unread!r}, line 4: not a number: 'abc'\n"


class TestInfiniteFeatures:
    """An infinite feature cell is a data error (exit 2) that names its column, where every model's
    input is built: prepare keeps such cells, and train and evaluate refuse them."""

    invoke = TestCli.invoke
    COLUMN = "Blood cell count (mcL)"
    MESSAGE = f"error: column {COLUMN!r} has infinite cells; models need finite features\n"

    def infinite(self, rows):
        col = rows[0].index(self.COLUMN)
        for row in rows[1::5]:
            row[col] = "inf"
        rows[3][col] = "-1e400"

    @pytest.mark.parametrize("algorithm", ["svm", "logistic", "random_forest", "gbdt_plain"])
    def test_train_exits_2(self, corpus, tmp_path, algorithm):
        raw = edited_csv(corpus["raw"], tmp_path / "raw.csv", self.infinite)
        out = tmp_path / "out"
        cfg = run_cfg({"raw": str(raw), "schema": corpus["schema"]}, out, algorithm=algorithm)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg.to_json()), encoding="utf-8")
        prepared = self.invoke("prepare", "--config", cfg_path)
        assert prepared.exit_code == 0, prepared.output
        assert self.COLUMN in FeaturePipeline.load(out / PIPELINE_JSON).selected

        result = self.invoke("train", "--config", cfg_path)
        assert result.exit_code == 2, result.output
        assert result.output == self.MESSAGE
        assert not (out / f"model_{algorithm}_genetic_disorder.json").exists()

    def test_evaluate_exits_2(self, flow, tmp_path):
        assert self.COLUMN in FeaturePipeline.load(flow.out / PIPELINE_JSON).selected
        data = edited_csv(flow.out / TEST_CSV, tmp_path / "test.csv", self.infinite)
        result = self.invoke("evaluate", "--artifact", flow.gbdt.artifact_path, "--data", data, "--out", tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert result.output == self.MESSAGE
        assert [p.name for p in (tmp_path / "eval").iterdir()] == [LOCK_NAME]


class TestSavedBytes:
    """What one command writes, the next reads back and writes again unchanged."""

    def test_artifact_carries_the_pipeline_record_with_its_json_types(self, flow):
        record = (flow.out / PIPELINE_JSON).read_text(encoding="utf-8")
        artifact = json.loads(flow.gbdt.artifact_path.read_text(encoding="utf-8"))
        # dumps tells 0 from 0.0, which == does not; discrete fills are integer codes
        assert json.dumps(artifact["pipeline"], sort_keys=True) == json.dumps(json.loads(record), sort_keys=True)
        assert any(type(fill) is int for fill in artifact["pipeline"]["fills"].values())
        assert any(type(fill) is float for fill in artifact["pipeline"]["fills"].values())

    def test_evaluation_report_reloads_to_the_same_bytes(self, flow, tmp_path):
        copy = tmp_path / "evaluation.json"
        EvaluationReport.load(flow.ev_forest.report_path).save(copy)
        assert copy.read_bytes() == flow.ev_forest.report_path.read_bytes()

    def test_minimal_config_fingerprint_is_pinned(self):
        doc = {"input": "a", "schema": "b", "target": "genetic_disorder", "output_dir": "o"}
        expected = "6c6e1c3a66d7bbba2d32d064d35a0080892fbe0c75658a11a6470d9ffeb25bfb"
        assert config_fingerprint(RunConfig.from_json(doc)) == expected


class TestPinnedBytes:
    """SHA-256 of what prepare and a raw-CSV evaluate write for one fixed-seed table.

    The raw table has gaps in every column, so the pins cover the label drop,
    the split, imputation, engineering, ranking and CSV rendering, and the
    raw-CSV evaluation replays take, impute and engineer. Paths are relative
    to the working directory, so the fingerprints inside the files are fixed.
    """

    PINNED = {
        "genetic_disorder": {
            TRAIN_CSV: "f1608a4f4a988ccac58c7afb00afc774eb22fbad2b336902b06f0452ef219a43",
            TEST_CSV: "59bfdbf29ade457063076c2e1a1b11acf9edda933c204050d4e216970935f70e",
            RANKING_CSV: "910327943fb15cf91b917c95d71ba05ef1652bb38d546d5bc880ea8ff2e97568",
            "evaluation": "6763c5de26b3482e79b1445e693bbe8fede4c16728ce54f4ebf4bef94ccca15c",
        },
        "disorder_subclass": {
            TRAIN_CSV: "50bf51cb1d38de07d00a5db66dabf15b8cbb4ad417001ec4489cb646d48c4408",
            TEST_CSV: "f4b5e9c26157287d9a0098f1bd9f20311562c21c7c23cfad35003453d0a41aaf",
            RANKING_CSV: "4c76d20abd16eb3bada9efef7d5b30234a3ad5165553298b4a29b28d8819f0af",
            "evaluation": "c1ebbf32dd0af5b26e961199d692ab51b9751196fda7cc1928a0affeb1aa6063",
        },
    }

    @staticmethod
    def write_gappy_raw(root):
        ds = synthdata.planted_dataset(300, 17)
        rng = np.random.default_rng(17)
        missing = {c.name: rng.random(ds.n_rows) < (0.08 if c.role == "feature" else 0.04) for c in ds.columns}
        ds = Dataset(ds.columns, {c.name: ds.values(c.name) for c in ds.columns}, missing)
        write_csv(ds, root / "raw.csv")
        (root / "schema.json").write_text(json.dumps(schema_to_json(ds.columns)), encoding="utf-8")

    @pytest.mark.parametrize("task", ["genetic_disorder", "disorder_subclass"])
    def test_prepare_and_raw_evaluate_bytes(self, tmp_path, monkeypatch, task):
        monkeypatch.chdir(tmp_path)
        self.write_gappy_raw(tmp_path)
        cfg = RunConfig(
            input="raw.csv",
            schema="schema.json",
            target=task,
            output_dir="out",
            top_k=12,
            algorithm="gbdt_plain",
            model_params=SMALL_PARAMS["gbdt_plain"],
        )
        run_prepare(cfg)
        trained = run_train(cfg)
        evaluated = run_evaluate(trained.artifact_path, "raw.csv", "eval")
        files = {name: Path("out") / name for name in (TRAIN_CSV, TEST_CSV, RANKING_CSV)}
        files["evaluation"] = evaluated.report_path
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}
        assert digests == self.PINNED[task]

    # 600 rows whose labels are 80% redrawn at random grow bushy trees: 7 of
    # the 12 selected features hold more distinct values than MAX_BINS, so they
    # are cut at quantiles; plain trees score some levels dense and some by
    # present cells, forest and GOSS trees every level by present cells
    TREE_PARAMS = {
        "random_forest": {"trees": 3},
        "gbdt_plain": {"rounds": 3, "max_depth": 5},
        "gbdt_goss": {"rounds": 3, "max_depth": 3},
        "gbdt_oblivious": {"rounds": 3, "max_depth": 3},
    }

    PINNED_TREES = {
        ("random_forest", "genetic_disorder"): ("98a54c0aeaa1565f8cb56943b89046c4e08102c96b194548dffe39ae66b7e8bd", "b9727f188f3b71da7d6b1b710434b2d739c05f6b6326bfeee7962800871c3cbc"),
        ("random_forest", "disorder_subclass"): ("af7d44358777ca9ea0e95f636fee57bbbb6e5ba4a5703fd2b60217abdf66ff89", "6c46d9c869cb1dc582449f45c3a32bf74fd97af232a4d779b424648388db17b3"),
        ("gbdt_plain", "genetic_disorder"): ("3deda0556b1a1e5d292246b3bd24e3fb92b72afe58402ad4101dc18c3fab7db6", "d489c27f5ec5af6d1337c16d909c99055bc10ca4c21d197f58dfde04e0283232"),
        ("gbdt_plain", "disorder_subclass"): ("a64ddda65b3dbe7c44328108d7da40de4c7d8d6bb3d4cf890b58575f45c65692", "6d21deed1c0f4c62857c73d972b899144b78ead7b6fbcd54a6ccd6854e558b81"),
        ("gbdt_goss", "genetic_disorder"): ("c0827687c1467fb9dedfaecb118041802ea434e5501a689c66156ad29d5bbd24", "d29bad50d35d8dd7434041587ce3ee61396069991fc9313ce9bd84d1585636f9"),
        ("gbdt_goss", "disorder_subclass"): ("0ea5e09649b4d65a4b1702af89d875e124e820e7f86207479557e9dd0642d0bb", "28e8186840e9c0b771b23e7c6f1685a84d46a8af13e7da1e01014275785cab5b"),
        ("gbdt_oblivious", "genetic_disorder"): ("7361d9acdebf94aa36978a9423f0d7f8bb70940b3367d8810711e90f8b9449d1", "ad8793cd45c7dde12482850ad3c4c9b9baaece8afe8c15f11fdbd869a5133508"),
        ("gbdt_oblivious", "disorder_subclass"): ("1a610fff44654b3836116257c63adaf36cff23b2ea4f34d33a3d746713b56981", "a1e7cf6a429b5facff1903501526b2a4bf294ef0ec4a9144ae5a9e873fe749bb"),
    }

    @staticmethod
    def write_noisy_raw(root):
        ds = synthdata.planted_dataset(600, 23)
        rng = np.random.default_rng(23)
        k = np.where(rng.random(ds.n_rows) < 0.8, rng.integers(0, 9, size=ds.n_rows), ds.values("Disorder Subclass"))
        values = {c.name: ds.values(c.name) for c in ds.columns}
        values.update({"Genetic Disorder": k // 3, "Disorder Subclass": k})
        write_csv(Dataset(ds.columns, values), root / "raw.csv")
        (root / "schema.json").write_text(json.dumps(schema_to_json(ds.columns)), encoding="utf-8")

    @pytest.mark.parametrize("task", ["genetic_disorder", "disorder_subclass"])
    @pytest.mark.parametrize("algorithm", list(TREE_PARAMS))
    def test_tree_artifact_and_evaluation_bytes(self, tmp_path, monkeypatch, algorithm, task):
        monkeypatch.chdir(tmp_path)
        self.write_noisy_raw(tmp_path)
        cfg = RunConfig(
            input="raw.csv",
            schema="schema.json",
            target=task,
            output_dir="out",
            top_k=12,
            algorithm=algorithm,
            model_params=self.TREE_PARAMS[algorithm],
        )
        run_prepare(cfg)
        trained = run_train(cfg)
        evaluated = run_evaluate(trained.artifact_path, Path("out") / TEST_CSV, "eval")
        digests = tuple(hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in (trained.artifact_path, evaluated.report_path))
        assert digests == self.PINNED_TREES[algorithm, task]
