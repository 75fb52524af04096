"""End-to-end tests for the run config, pipeline stages, artifacts, and CLI."""

import csv
import json
import shutil
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

import synthdata
from conftest import xy_dataset
from genoclass.artifact import ModelArtifact, revive_model
from genoclass.cli import main
from genoclass.config import ALGORITHM_NAMES, RunConfig, config_fingerprint, load_run_config
from genoclass.dataset import load_csv, schema_from_json, schema_to_json, stratified_split, write_csv
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

    def test_held_lock_exits_2(self, corpus, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".genoclass.lock").write_text("123\n", encoding="utf-8")
        cfg_path = self.write_config(corpus, tmp_path, out)
        result = self.invoke("prepare", "--config", cfg_path)
        assert result.exit_code == 2
        assert "locked by another command" in result.output

    def test_lock_released_after_success(self, corpus, tmp_path):
        out = tmp_path / "out"
        cfg_path = self.write_config(corpus, tmp_path, out)
        assert self.invoke("prepare", "--config", cfg_path).exit_code == 0
        assert not (out / ".genoclass.lock").exists()
        assert self.invoke("prepare", "--config", cfg_path).exit_code == 0

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
        ],
    )
    def test_malformed_model_document_exits_2(self, flow, tmp_path, damage):
        source = flow.forest if damage.startswith("forest_") else flow.gbdt
        doc = json.loads(source.artifact_path.read_text(encoding="utf-8"))
        tree = doc["model"]["trees"][0] if damage.startswith("forest_") else None
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
        else:
            tree["threshold"].pop()
        broken = tmp_path / source.artifact_path.name
        broken.write_text(json.dumps(doc), encoding="utf-8")
        result = self.invoke("evaluate", "--artifact", broken, "--data", flow.out / TEST_CSV, "--out", tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert "model document is malformed" in result.output
        with pytest.raises(PersistenceError, match="malformed"):
            revive_model(ModelArtifact.load(broken))

    @pytest.mark.parametrize("damage", ["forest_one_value_column", "forest_extra_class_column", "gbdt_value_matrix", "gbdt_round_without_a_tree"])
    def test_tree_values_of_the_wrong_shape_exit_2(self, flow, tmp_path, damage):
        source = flow.forest if damage.startswith("forest_") else flow.gbdt
        doc = json.loads(source.artifact_path.read_text(encoding="utf-8"))
        trees = doc["model"]["trees"]
        if damage == "forest_one_value_column":
            trees[0]["value"] = [row[0] for row in trees[0]["value"]]
        elif damage == "forest_extra_class_column":
            trees[-1]["value"] = [[*row, 0.0] for row in trees[-1]["value"]]
        elif damage == "gbdt_value_matrix":
            trees[0][0]["value"] = [[v] for v in trees[0][0]["value"]]
        else:
            trees[-1].pop()
        broken = tmp_path / source.artifact_path.name
        broken.write_text(json.dumps(doc), encoding="utf-8")
        result = self.invoke("evaluate", "--artifact", broken, "--data", flow.out / TEST_CSV, "--out", tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert "model document is malformed" in result.output
        with pytest.raises(PersistenceError, match="values"):
            revive_model(ModelArtifact.load(broken))

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
        assert not (tmp_path / "tables").exists() or not any((tmp_path / "tables").iterdir())
        with pytest.raises(PersistenceError, match=key):
            EvaluationReport.load(path)
