"""Tests for engineered columns, quantile binning, and chi-squared ranking."""

from __future__ import annotations

import numpy as np
import pytest

from genoclass import (
    ENGINEERED_COLUMNS,
    ArgumentError,
    ContingencyTable,
    DataTypeError,
    DegenerateDataError,
    EngineeredSpec,
    FeatureRanking,
    ImputationError,
    SchemaError,
    StateError,
    bin_continuous,
    bin_values,
    chi2_statistic,
    contingency,
    engineer_features,
    engineered_column_schemas,
    rank_features,
    select_top_k,
)

from conftest import BINARY, make_dataset

SHORT_SPEC = EngineeredSpec(
    maternal_age="mage",
    symptoms=("s1", "s2"),
    maternal_gene="mg",
    paternal_gene="pg",
    wbc="wbc",
    heart_rate="hr",
    respiratory_rate="rr",
)


def source_dataset():
    cols = [
        ("mage", "numeric"),
        ("s1", "numeric"),
        ("s2", "numeric"),
        ("mg", "binary", "feature", BINARY),
        ("pg", "binary", "feature", BINARY),
        ("wbc", "numeric"),
        ("hr", "binary", "feature", ("Tachycardia", "Normal")),
        ("rr", "binary", "feature", ("Tachypnea", "Normal (30-60)")),
    ]
    values = {
        "mage": [40.0, 39.0, 50.0, 10.0],
        "s1": [1, 0, 1, 0],
        "s2": [1, 0, 0, 0],
        "mg": [1, 0, 0, 1],
        "pg": [0, 0, 1, 1],
        "wbc": [12.0, 11.0, 3.0, 11.5],
        "hr": [1, 1, 0, 1],
        "rr": [1, 1, 1, 0],
    }
    return make_dataset(cols, values)


class TestEngineerFeatures:
    def test_age_threshold_is_inclusive(self):
        out = engineer_features(source_dataset(), SHORT_SPEC)
        np.testing.assert_array_equal(out.values("maternal_age_above_40"), [1, 0, 1, 0])

    def test_symptom_count_is_plain_sum(self):
        out = engineer_features(source_dataset(), SHORT_SPEC)
        np.testing.assert_array_equal(out.values("number_of_symptoms"), [2, 0, 1, 0])

    def test_inherited_gene_is_or_of_flags(self):
        out = engineer_features(source_dataset(), SHORT_SPEC)
        np.testing.assert_array_equal(out.values("any_inherited_gene"), [1, 0, 1, 1])

    def test_high_wbc_strictly_above_threshold(self):
        out = engineer_features(source_dataset(), SHORT_SPEC)
        np.testing.assert_array_equal(out.values("high_wbc_count"), [1, 0, 0, 1])

    def test_issue_flag_set_when_either_code_zero(self):
        # code 0 means the abnormal reading; two normals stay 0
        out = engineer_features(source_dataset(), SHORT_SPEC)
        np.testing.assert_array_equal(out.values("heart_or_respiratory_issues"), [0, 0, 1, 1])

    def test_appends_in_declared_order_without_touching_sources(self):
        ds = source_dataset()
        out = engineer_features(ds, SHORT_SPEC)
        assert out.column_names == ds.column_names + list(ENGINEERED_COLUMNS)
        for name in ds.column_names:
            np.testing.assert_array_equal(out.values(name), ds.values(name))

    def test_second_application_rejected(self):
        out = engineer_features(source_dataset(), SHORT_SPEC)
        with pytest.raises(StateError):
            engineer_features(out, SHORT_SPEC)

    def test_missing_source_column(self):
        ds = source_dataset().select_columns(["mage", "s1", "s2", "mg", "pg", "wbc", "hr"])
        with pytest.raises(SchemaError, match="rr"):
            engineer_features(ds, SHORT_SPEC)

    def test_unimputed_source_cells_rejected(self):
        ds = source_dataset().replace_values(
            "wbc", np.array([np.nan, 11.0, 3.0, 11.5]))
        with pytest.raises(ImputationError):
            engineer_features(ds, SHORT_SPEC)

    def test_default_spec_targets_production_headers(self):
        cols = [
            ("Mother's age", "numeric"),
            ("Symptom 1", "numeric"),
            ("Symptom 2", "numeric"),
            ("Symptom 3", "numeric"),
            ("Symptom 4", "numeric"),
            ("Symptom 5", "numeric"),
            ("Maternal gene", "binary", "feature", BINARY),
            ("Paternal gene", "binary", "feature", BINARY),
            ("White Blood cell count (thousand per microliter)", "numeric"),
            ("Heart Rate (rates/min", "binary", "feature", ("Tachycardia", "Normal")),
            ("Respiratory Rate (breaths/min)", "binary", "feature", ("Tachypnea", "Normal (30-60)")),
        ]
        values = {
            "Mother's age": [41.0],
            "Symptom 1": [1],
            "Symptom 2": [1],
            "Symptom 3": [0],
            "Symptom 4": [1],
            "Symptom 5": [0],
            "Maternal gene": [0],
            "Paternal gene": [0],
            "White Blood cell count (thousand per microliter)": [5.0],
            "Heart Rate (rates/min": [0],
            "Respiratory Rate (breaths/min)": [1],
        }
        out = engineer_features(make_dataset(cols, values))
        assert out.values("maternal_age_above_40")[0] == 1
        assert out.values("number_of_symptoms")[0] == 3
        assert out.values("any_inherited_gene")[0] == 0
        assert out.values("high_wbc_count")[0] == 0
        assert out.values("heart_or_respiratory_issues")[0] == 1

    def test_engineered_schemas_match_append_order(self):
        schemas = engineered_column_schemas()
        assert [c.name for c in schemas] == list(ENGINEERED_COLUMNS)
        by_name = {c.name: c for c in schemas}
        assert by_name["number_of_symptoms"].kind == "numeric"
        assert by_name["high_wbc_count"].kind == "binary"

    def test_spec_json_round_trip(self):
        assert EngineeredSpec.from_json(SHORT_SPEC.to_json()) == SHORT_SPEC

    def test_spec_rejects_unknown_keys(self):
        with pytest.raises(ArgumentError):
            EngineeredSpec.from_json({"wbc_thresh": 10.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("name", ["age_threshold", "wbc_threshold"])
    def test_spec_rejects_non_finite_thresholds(self, name, value):
        with pytest.raises(ArgumentError, match=f"{name} must be finite"):
            EngineeredSpec(**{name: value})
        with pytest.raises(ArgumentError, match=f"{name} must be finite"):
            EngineeredSpec.from_json({**EngineeredSpec().to_json(), name: value})


class TestBinning:
    def test_median_cut(self):
        codes = bin_values(np.arange(1.0, 11.0), bins=2)
        np.testing.assert_array_equal(codes, [0] * 5 + [1] * 5)

    def test_three_equal_thirds(self):
        codes = bin_values(np.arange(1.0, 10.0), bins=3)
        np.testing.assert_array_equal(np.bincount(codes), [3, 3, 3])

    def test_constant_column_warns_single_bin(self):
        with pytest.warns(UserWarning, match="bins"):
            codes = bin_values(np.full(6, 3.5), bins=4)
        np.testing.assert_array_equal(codes, np.zeros(6, dtype=np.int64))

    def test_bins_lower_bound(self):
        with pytest.raises(ArgumentError):
            bin_values(np.arange(4.0), bins=1)

    def test_missing_cells_rejected(self):
        with pytest.raises(ImputationError):
            bin_values(np.array([1.0, np.nan]), bins=2)

    def test_property_monotone_and_ties_share_bins(self):
        import warnings

        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(5, 200))
            bins = int(rng.integers(2, 12))
            vals = np.round(rng.normal(size=n), 1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                codes = bin_values(vals, bins)
            order = np.argsort(vals, kind="stable")
            assert (np.diff(codes[order]) >= 0).all()
            for v in np.unique(vals):
                assert np.unique(codes[vals == v]).size == 1
            assert codes.min() >= 0 and codes.max() < bins

    def test_bin_continuous_replaces_cells(self):
        ds = make_dataset([("x", "numeric")], {"x": np.arange(1.0, 11.0)})
        out = bin_continuous(ds, "x", 2)
        np.testing.assert_array_equal(out.values("x"), [0.0] * 5 + [1.0] * 5)

    def test_bin_continuous_needs_numeric(self):
        ds = make_dataset([("g", "binary", "feature", BINARY)], {"g": [0, 1]})
        with pytest.raises(DataTypeError):
            bin_continuous(ds, "g", 2)


class TestContingency:
    def test_uniform_two_by_two(self):
        ds = make_dataset(
            [("f", "numeric"), ("t", "categorical", "feature", ("A", "B"))],
            {"f": [0, 0, 1, 1], "t": [0, 1, 0, 1]},
        )
        table = contingency(ds, "f", "t")
        np.testing.assert_array_equal(table.observed, [[1, 1], [1, 1]])

    def test_single_cell(self):
        ds = make_dataset([("f", "numeric"), ("t", "numeric")], {"f": [0, 0, 0], "t": [0, 0, 0]})
        table = contingency(ds, "f", "t")
        np.testing.assert_array_equal(table.observed, [[3]])

    def test_alternating_pattern(self):
        ds = make_dataset(
            [("f", "numeric"), ("t", "categorical", "feature", ("A", "B"))],
            {"f": [0, 1, 0, 1], "t": [0, 0, 1, 1]},
        )
        np.testing.assert_array_equal(contingency(ds, "f", "t").observed, [[1, 1], [1, 1]])

    def test_counts_keyed_by_category_code(self):
        ds = make_dataset(
            [("f", "categorical", "feature", ("x", "y", "z")), ("t", "categorical", "feature", ("A", "B"))],
            {"f": [2, 2, 0], "t": [0, 1, 1]},
        )
        np.testing.assert_array_equal(
            contingency(ds, "f", "t").observed, [[0, 1], [0, 0], [1, 1]]
        )

    def test_continuous_feature_rejected(self):
        ds = make_dataset([("f", "numeric"), ("t", "numeric")], {"f": [0.5, 1.5], "t": [0, 1]})
        with pytest.raises(DataTypeError, match="bin"):
            contingency(ds, "f", "t")

    def test_negative_counts_rejected(self):
        with pytest.raises(ArgumentError):
            ContingencyTable(np.array([[1, -1]]), ("0",), ("a", "b"))

    def test_zero_total_rejected(self):
        with pytest.raises(DegenerateDataError):
            ContingencyTable(np.zeros((2, 2), dtype=np.int64), ("0", "1"), ("a", "b"))


def table(counts):
    counts = np.asarray(counts, dtype=np.int64)
    rows = tuple(str(i) for i in range(counts.shape[0]))
    cols = tuple(str(j) for j in range(counts.shape[1]))
    return ContingencyTable(counts, rows, cols)


def chi2_by_hand(counts):
    """Direct double-loop evaluation over non-degenerate cells."""
    counts = np.asarray(counts, dtype=np.float64)
    counts = counts[counts.sum(axis=1) > 0][:, counts.sum(axis=0) > 0]
    total = counts.sum()
    stat = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            expected = counts[i].sum() * counts[:, j].sum() / total
            stat += (counts[i, j] - expected) ** 2 / expected
    return stat


class TestChi2Statistic:
    def test_frozen_small_table(self):
        assert chi2_statistic(table([[10, 20], [30, 40]])) == pytest.approx(0.7937, abs=1e-4)

    def test_diagonal_table(self):
        assert chi2_statistic(table([[10, 0], [0, 10]])) == pytest.approx(20.0, abs=1e-12)

    def test_observed_equal_expected_scores_zero(self):
        assert chi2_statistic(table([[10, 20], [20, 40]])) == pytest.approx(0.0, abs=1e-12)

    def test_zero_margins_dropped(self):
        padded = chi2_statistic(table([[10, 0, 0], [0, 10, 0], [0, 0, 0]]))
        assert padded == pytest.approx(20.0, abs=1e-12)

    def test_property_matches_double_loop(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m, k = rng.integers(2, 7, size=2)
            counts = rng.integers(0, 51, size=(m, k))
            if counts.sum() == 0:
                continue
            got = chi2_statistic(table(counts))
            assert got == pytest.approx(chi2_by_hand(counts), abs=1e-10)
            assert got >= 0.0

    def test_property_permutation_invariant(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            counts = rng.integers(1, 40, size=(4, 3))
            base = chi2_statistic(table(counts))
            shuffled = counts[rng.permutation(4)][:, rng.permutation(3)]
            assert chi2_statistic(table(shuffled)) == pytest.approx(base, rel=1e-12)

    def test_property_linear_under_count_scaling(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            counts = rng.integers(1, 30, size=(3, 4))
            c = int(rng.integers(2, 9))
            assert chi2_statistic(table(counts * c)) == pytest.approx(
                c * chi2_statistic(table(counts)), rel=1e-12
            )


class TestRankFeatures:
    def test_identical_to_target_ranked_first(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 3, size=300)
        ds = make_dataset(
            [
                ("copy", "categorical", "feature", ("a", "b", "c")),
                ("noise", "numeric"),
                ("t", "categorical", "target_disorder", ("a", "b", "c")),
            ],
            {"copy": y, "noise": rng.normal(size=300), "t": y},
        )
        ranking = rank_features(ds, "t")
        assert ranking.names[0] == "copy"

    def test_independent_feature_ranked_last_and_small(self):
        rng = np.random.default_rng(6)
        n = 10_000
        y = rng.integers(0, 3, size=n)
        ds = make_dataset(
            [
                ("copy", "categorical", "feature", ("a", "b", "c")),
                ("indep", "categorical", "feature", ("p", "q", "r", "s")),
                ("t", "categorical", "target_disorder", ("a", "b", "c")),
            ],
            {"copy": y, "indep": rng.integers(0, 4, size=n), "t": y},
        )
        ranking = rank_features(ds, "t")
        scores = dict(ranking.entries)
        assert ranking.names[-1] == "indep"
        assert scores["indep"] <= scores[ranking.names[0]] / 10.0

    def test_tied_features_ordered_by_name(self):
        y = np.array([0, 0, 1, 1] * 10)
        ds = make_dataset(
            [
                ("zeta", "binary", "feature", BINARY),
                ("alpha", "binary", "feature", BINARY),
                ("t", "categorical", "target_disorder", ("a", "b")),
            ],
            {"zeta": y, "alpha": y, "t": y},
        )
        ranking = rank_features(ds, "t")
        assert ranking.names == ["alpha", "zeta"]

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        y = rng.integers(0, 2, size=100)
        ds = make_dataset(
            [("x", "numeric"), ("t", "categorical", "target_disorder", ("a", "b"))],
            {"x": rng.normal(size=100) + y, "t": y},
        )
        assert rank_features(ds, "t").entries == rank_features(ds, "t").entries

    def test_unscorable_feature_skipped_with_warning(self):
        ds = make_dataset(
            [("x", "numeric"), ("t", "categorical", "target_disorder", ("a", "b"))],
            {"x": [np.nan, 1.0, 2.0, 3.0], "t": [0, 0, 1, 1]},
        )
        with pytest.warns(UserWarning, match="skipping feature 'x'"):
            ranking = rank_features(ds, "t")
        assert "x" not in ranking.names

    def test_numeric_target_rejected(self):
        ds = make_dataset([("x", "numeric"), ("t", "numeric")], {"x": [1.0], "t": [0.0]})
        with pytest.raises(DataTypeError):
            rank_features(ds, "t")

    def test_ranking_to_csv(self, tmp_path):
        ranking = FeatureRanking.from_pairs([("a", 2.0), ("b", 5.5)])
        path = tmp_path / "feature_ranking.csv"
        ranking.to_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rank,feature,chi2"
        assert lines[1] == "1,b,5.5"
        assert lines[2] == "2,a,2.0"

    def test_negative_score_rejected(self):
        with pytest.raises(ArgumentError):
            FeatureRanking.from_pairs([("a", -1.0)])


class TestSelectTopK:
    RANKING = FeatureRanking.from_pairs(
        [("a", 5.0), ("b", 4.0), ("c", 3.0), ("d", 2.0), ("e", 1.0)]
    )

    def test_full_selection_is_identity(self):
        assert select_top_k(self.RANKING, 5) == ["a", "b", "c", "d", "e"]

    def test_single_best(self):
        assert select_top_k(self.RANKING, 1) == ["a"]

    def test_zero_rejected(self):
        with pytest.raises(ArgumentError):
            select_top_k(self.RANKING, 0)

    def test_oversized_rejected(self):
        with pytest.raises(ArgumentError):
            select_top_k(self.RANKING, 6)
