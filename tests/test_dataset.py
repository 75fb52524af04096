"""Tests for the typed dataset layer: schema, CSV ingestion, imputation, splits."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genoclass import (
    ArgumentError,
    ColumnSchema,
    DataTypeError,
    Dataset,
    EmptyInputError,
    ImputationError,
    SchemaError,
    StratificationError,
    apply_imputation,
    fit_imputation,
    impute_missing,
    load_csv,
    schema_from_json,
    schema_to_json,
    stratified_split,
    validate_schema,
    write_csv,
)

from conftest import BINARY, make_dataset, make_schema


class TestColumnSchema:
    def test_valid_kinds_and_roles(self):
        ColumnSchema("a", "numeric")
        ColumnSchema("b", "binary", categories=BINARY)
        ColumnSchema("c", "categorical", categories=("x", "y", "z"))
        ColumnSchema("d", "categorical", role="target_disorder", categories=("x", "y"))

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            ColumnSchema("a", "integer")

    def test_unknown_role(self):
        with pytest.raises(SchemaError):
            ColumnSchema("a", "numeric", role="label")

    def test_empty_name(self):
        with pytest.raises(SchemaError):
            ColumnSchema("", "numeric")

    def test_binary_needs_exactly_two_categories(self):
        with pytest.raises(SchemaError):
            ColumnSchema("a", "binary", categories=("only",))
        with pytest.raises(SchemaError):
            ColumnSchema("a", "binary", categories=("x", "y", "z"))

    def test_categorical_needs_two_or_more(self):
        with pytest.raises(SchemaError):
            ColumnSchema("a", "categorical", categories=("solo",))

    def test_numeric_rejects_categories(self):
        with pytest.raises(SchemaError):
            ColumnSchema("a", "numeric", categories=("x", "y"))

    def test_duplicate_category_tokens(self):
        with pytest.raises(SchemaError):
            ColumnSchema("a", "categorical", categories=("x", "x"))

    def test_ignore_role_skips_category_rules(self):
        col = ColumnSchema("free text", "categorical", role="ignore")
        assert col.categories == ()

    def test_code_and_token_lookup(self):
        col = ColumnSchema("g", "categorical", categories=("Female", "Male", "Ambiguous"))
        assert col.code_of("Ambiguous") == 2
        assert col.code_of("unseen") is None
        assert col.token_of(0) == "Female"


class TestSchemaDocument:
    def _full(self):
        return make_schema(
            [
                ("age", "numeric"),
                ("flag", "binary", "feature", BINARY),
                ("d", "categorical", "target_disorder", ("a", "b", "c")),
                ("s", "categorical", "target_subclass", ("p", "q")),
            ]
        )

    def test_valid_document(self):
        validate_schema(self._full())

    def test_duplicate_names(self):
        cols = self._full() + [ColumnSchema("age", "numeric")]
        with pytest.raises(SchemaError, match="duplicate"):
            validate_schema(cols)

    def test_exactly_one_column_per_target_role(self):
        cols = [c for c in self._full() if c.role != "target_subclass"]
        with pytest.raises(SchemaError, match="target_subclass"):
            validate_schema(cols)
        cols = self._full() + [
            ColumnSchema("d2", "categorical", role="target_disorder", categories=("a", "b"))
        ]
        with pytest.raises(SchemaError, match="target_disorder"):
            validate_schema(cols)

    def test_targets_must_be_discrete(self):
        cols = self._full()
        cols[2] = ColumnSchema("d", "numeric", role="target_disorder")
        with pytest.raises(SchemaError, match="categorical or binary"):
            validate_schema(cols)

    def test_json_round_trip(self):
        cols = self._full()
        assert schema_from_json(schema_to_json(cols)) == cols

    def test_json_unknown_keys(self):
        doc = schema_to_json(self._full())
        doc[0]["dtype"] = "float"
        with pytest.raises(SchemaError, match="unknown keys"):
            schema_from_json(doc)

    def test_json_from_file(self, tmp_path):
        import json

        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema_to_json(self._full())), encoding="utf-8")
        assert schema_from_json(path) == self._full()


CSV_SCHEMA = [
    ("age", "numeric"),
    ("gender", "categorical", "feature", ("Female", "Male", "Ambiguous")),
    ("note", "categorical", "ignore"),
    ("d", "categorical", "target_disorder", ("a", "b", "c")),
    ("s", "categorical", "target_subclass", ("p", "q")),
]


class TestLoadCsv:
    def _write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic_ingest(self, tmp_path):
        path = self._write(tmp_path, "age,gender,note,d,s\n41,Male,hi,a,p\n12,Ambiguous,yo,b,q\n")
        ds = load_csv(path, make_schema(CSV_SCHEMA))
        assert ds.n_rows == 2
        assert ds.column_names == ["age", "gender", "d", "s"]
        np.testing.assert_array_equal(ds.values("age"), [41.0, 12.0])
        np.testing.assert_array_equal(ds.values("gender"), [1, 2])
        assert ds.ingest_warnings == {}

    def test_header_order_does_not_matter(self, tmp_path):
        path = self._write(tmp_path, "d,age,s,note,gender\na,41,p,hi,Male\n")
        ds = load_csv(path, make_schema(CSV_SCHEMA))
        assert ds.column_names == ["age", "gender", "d", "s"]
        assert ds.values("gender")[0] == 1

    def test_empty_cells_become_missing(self, tmp_path):
        path = self._write(tmp_path, "age,gender,note,d,s\n,Male,,a,p\n12,,x,b,q\n")
        ds = load_csv(path, make_schema(CSV_SCHEMA))
        np.testing.assert_array_equal(ds.missing_mask("age"), [True, False])
        np.testing.assert_array_equal(ds.missing_mask("gender"), [False, True])
        assert np.isnan(ds.values("age")[0])
        assert ds.values("gender")[1] == -1

    def test_unknown_token_masked_and_tallied(self, tmp_path):
        path = self._write(tmp_path, "age,gender,note,d,s\n1,MALE,x,a,p\n2,Male,x,nope,q\n")
        ds = load_csv(path, make_schema(CSV_SCHEMA))
        assert ds.missing_mask("gender")[0]
        assert ds.missing_mask("d")[1]
        assert ds.ingest_warnings == {"gender": 1, "d": 1}

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(EmptyInputError):
            load_csv(path, make_schema(CSV_SCHEMA))

    def test_header_only(self, tmp_path):
        path = self._write(tmp_path, "age,gender,note,d,s\n")
        with pytest.raises(EmptyInputError):
            load_csv(path, make_schema(CSV_SCHEMA))

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = self._write(tmp_path, "age,gender,note,d,s\n1,Male,x,a,p\n2,Male,x,a\n")
        with pytest.raises(SchemaError, match="line 3"):
            load_csv(path, make_schema(CSV_SCHEMA))

    def test_duplicate_headers(self, tmp_path):
        path = self._write(tmp_path, "age,age,note,d,s\n1,2,x,a,p\n")
        with pytest.raises(SchemaError, match="duplicate"):
            load_csv(path, make_schema(CSV_SCHEMA))

    def test_missing_and_unexpected_columns_named(self, tmp_path):
        path = self._write(tmp_path, "age,sex,note,d,s\n1,Male,x,a,p\n")
        with pytest.raises(SchemaError) as err:
            load_csv(path, make_schema(CSV_SCHEMA))
        assert "gender" in str(err.value) and "sex" in str(err.value)

    def test_malformed_numeric_cell(self, tmp_path):
        path = self._write(tmp_path, "age,gender,note,d,s\n1,Male,x,a,p\nlots,Male,x,a,p\n")
        with pytest.raises(DataTypeError, match="line 3"):
            load_csv(path, make_schema(CSV_SCHEMA))

    def test_ignored_column_cells_never_parsed(self, tmp_path):
        # the note column carries arbitrary free text without becoming warnings
        path = self._write(tmp_path, 'age,gender,note,d,s\n1,Male,"x,!~y",a,p\n')
        ds = load_csv(path, make_schema(CSV_SCHEMA))
        assert "note" not in ds.column_names
        assert ds.ingest_warnings == {}

    def test_write_then_load_round_trip(self, tmp_path):
        path = self._write(
            tmp_path, "age,gender,note,d,s\n1.5,Male,x,a,p\n,Ambiguous,x,b,q\n0.1,,x,c,p\n"
        )
        ds = load_csv(path, make_schema(CSV_SCHEMA))
        out = tmp_path / "copy.csv"
        write_csv(ds, out)
        kept = [c for c in make_schema(CSV_SCHEMA) if c.role != "ignore"]
        again = load_csv(out, kept)
        assert again == ds


class TestDatasetOps:
    def _ds(self):
        return make_dataset(
            [("x", "numeric"), ("g", "binary", "feature", BINARY), ("y", "categorical", "target_disorder", ("a", "b"))],
            {"x": [1.0, 2.0, 3.0], "g": [0, 1, 0], "y": [0, 1, 0]},
        )

    def test_matrix_follows_requested_order(self):
        ds = self._ds()
        m = ds.matrix(["g", "x"])
        np.testing.assert_array_equal(m, [[0.0, 1.0], [1.0, 2.0], [0.0, 3.0]])

    def test_matrix_rejects_missing_cells(self):
        ds = make_dataset([("x", "numeric")], {"x": [1.0, np.nan]})
        with pytest.raises(ImputationError):
            ds.matrix(["x"])

    def test_select_columns_preserves_requested_order(self):
        ds = self._ds()
        sub = ds.select_columns(["y", "x"])
        assert sub.column_names == ["y", "x"]

    def test_take_reorders_rows(self):
        ds = self._ds()
        out = ds.take(np.array([2, 0]))
        np.testing.assert_array_equal(out.values("x"), [3.0, 1.0])

    def test_with_column_rejects_duplicates(self):
        ds = self._ds()
        with pytest.raises(SchemaError):
            ds.with_column(ColumnSchema("x", "numeric"), np.zeros(3))

    def test_values_are_read_only(self):
        ds = self._ds()
        with pytest.raises(ValueError):
            ds.values("x")[0] = 99.0

    def test_categorical_codes_validated(self):
        with pytest.raises(SchemaError):
            make_dataset([("g", "binary", "feature", BINARY)], {"g": [0, 2]})

    def test_ignore_columns_rejected_in_memory(self):
        with pytest.raises(SchemaError):
            Dataset([ColumnSchema("n", "categorical", role="ignore")], {"n": np.zeros(1)})


class TestTransformChains:
    """Random chains of replace_values, with_column, select_columns and take."""

    CATEGORIES = ("a", "b", "c")

    @staticmethod
    def draw_column(data, kind, n):
        """Cells and a missing mask (or None) as a caller would pass them, plus the model's copies."""
        mask = data.draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
        if kind == "numeric":
            cells = data.draw(st.lists(st.floats(allow_subnormal=False), min_size=n, max_size=n))
            values = np.array(cells, dtype=np.float64)
        else:
            cells = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
            values = np.array(cells, dtype=np.int64)
            if mask is not None:
                values[np.array(mask, dtype=bool)] = 99  # a masked cell holds no code
        missing = None if mask is None else np.array(mask, dtype=bool)
        model = (values.copy(), None if missing is None else missing.copy())
        return values, missing, model

    def schema(self, name, kind):
        return ColumnSchema(name, kind, categories=self.CATEGORIES if kind == "categorical" else ())

    @staticmethod
    def scribble(*arrays):
        """Overwrite what the caller still holds after the dataset took it."""
        for arr in arrays:
            if arr is not None:
                arr[...] = ~arr if arr.dtype == bool else 2

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_chain_matches_a_dataset_built_from_scratch(self, data):
        n = data.draw(st.integers(0, 6))
        model = {}  # name -> (schema, values, missing) of the cells every step should hold
        inputs = []
        for j, kind in enumerate(data.draw(st.lists(st.sampled_from(["numeric", "categorical"]), min_size=1, max_size=4))):
            values, missing, cells = self.draw_column(data, kind, n)
            model[f"c{j}"] = (self.schema(f"c{j}", kind), *cells)
            inputs.append((values, missing))
        ds = Dataset([m[0] for m in model.values()], {k: v for k, (v, _) in zip(model, inputs)}, {k: m for k, (_, m) in zip(model, inputs) if m is not None})
        self.scribble(*(a for pair in inputs for a in pair))

        for step in range(data.draw(st.integers(1, 6))):
            op = data.draw(st.sampled_from(["replace_values", "with_column", "select_columns", "take"]))
            before = ds
            if op in ("replace_values", "with_column"):
                if op == "replace_values":
                    name = data.draw(st.sampled_from(list(model)))
                    schema = model[name][0]
                else:
                    name = f"new{step}"
                    schema = self.schema(name, data.draw(st.sampled_from(["numeric", "categorical"])))
                values, missing, cells = self.draw_column(data, schema.kind, ds.n_rows)
                if op == "replace_values":
                    ds = ds.replace_values(name, values, missing)
                else:
                    ds = ds.with_column(schema, values, missing)
                model[name] = (schema, *cells)
                self.scribble(values, missing)
                changed = {name}
            elif op == "select_columns":
                names = data.draw(st.permutations(list(model)))[: data.draw(st.integers(1, len(model)))]
                ds = ds.select_columns(names)
                model = {name: model[name] for name in names}
                changed = set()
            else:
                rows = st.lists(st.integers(0, ds.n_rows - 1), max_size=8) if ds.n_rows else st.just([])
                idx = np.array(data.draw(rows), dtype=np.int64)
                ds = ds.take(idx)
                model = {k: (c, v[idx], None if m is None else m[idx]) for k, (c, v, m) in model.items()}
                changed = set(model)
            for name in set(model) - changed:
                assert ds.values(name) is before.values(name)
                assert ds.missing_mask(name) is before.missing_mask(name)

            scratch = Dataset(
                [c for c, _, _ in model.values()],
                {k: v for k, (_, v, _) in model.items()},
                {k: m for k, (_, _, m) in model.items() if m is not None},
            )
            assert ds == scratch and ds.column_names == scratch.column_names and ds.n_rows == scratch.n_rows
            for name in model:
                np.testing.assert_array_equal(ds.values(name), scratch.values(name))
                assert not ds.values(name).flags.writeable
                assert not ds.missing_mask(name).flags.writeable


class TestImputation:
    def test_numeric_median_fill(self):
        ds = make_dataset([("x", "numeric")], {"x": [1.0, np.nan, 3.0]})
        out = impute_missing(ds)
        np.testing.assert_array_equal(out.values("x"), [1.0, 2.0, 3.0])
        assert not out.missing_mask("x").any()

    def test_discrete_mode_fill(self):
        ds = make_dataset(
            [("g", "binary", "feature", BINARY)],
            {"g": [0, 0, 1, -1]},
            missing={"g": [False, False, False, True]},
        )
        out = impute_missing(ds)
        np.testing.assert_array_equal(out.values("g"), [0, 0, 1, 0])

    def test_mode_ties_resolve_to_lowest_code(self):
        ds = make_dataset(
            [("g", "binary", "feature", BINARY)],
            {"g": [1, 0, -1]},
            missing={"g": [False, False, True]},
        )
        assert fit_imputation(ds)["g"] == 0

    def test_gapless_dataset_unchanged(self):
        ds = make_dataset([("x", "numeric")], {"x": [4.0, 5.0]})
        assert impute_missing(ds) == ds

    def test_all_missing_column(self):
        ds = make_dataset([("x", "numeric")], {"x": [np.nan, np.nan]})
        with pytest.raises(ImputationError):
            impute_missing(ds)

    def test_targets_never_imputed(self):
        ds = make_dataset(
            [("x", "numeric"), ("y", "categorical", "target_disorder", ("a", "b"))],
            {"x": [1.0, 2.0], "y": [0, -1]},
            missing={"y": [False, True]},
        )
        out = impute_missing(ds)
        assert out.missing_mask("y")[1]

    def test_drop_rows_policy(self):
        ds = make_dataset(
            [("x", "numeric"), ("y", "categorical", "target_disorder", ("a", "b"))],
            {"x": [1.0, np.nan, 3.0], "y": [0, 0, -1]},
            missing={"y": [False, False, True]},
        )
        out = impute_missing(ds, policy="drop_rows")
        assert out.n_rows == 1
        assert out.values("x")[0] == 1.0

    def test_unknown_policy(self):
        ds = make_dataset([("x", "numeric")], {"x": [1.0]})
        with pytest.raises(ArgumentError):
            impute_missing(ds, policy="zero_fill")

    def test_fills_cover_gapless_columns_too(self):
        train = make_dataset([("x", "numeric")], {"x": [1.0, 5.0]})
        fills = fit_imputation(train)
        later = make_dataset([("x", "numeric")], {"x": [np.nan]})
        out = apply_imputation(later, fills)
        assert out.values("x")[0] == 3.0

    def test_apply_with_uncovered_gap(self):
        ds = make_dataset([("x", "numeric")], {"x": [np.nan]})
        with pytest.raises(ImputationError):
            apply_imputation(ds, {})

    def test_property_fill_leaves_observed_cells_alone(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(3, 40))
            x = rng.normal(size=n)
            holes = rng.random(n) < 0.3
            x[holes] = np.nan
            g = rng.integers(0, 2, size=n)
            gholes = rng.random(n) < 0.3
            if holes.all() or gholes.all():
                continue
            ds = make_dataset(
                [("x", "numeric"), ("g", "binary", "feature", BINARY)],
                {"x": x, "g": g},
                missing={"g": gholes},
            )
            out = impute_missing(ds)
            for name in ("x", "g"):
                assert not out.missing_mask(name).any()
            np.testing.assert_array_equal(out.values("x")[~holes], x[~holes])
            np.testing.assert_array_equal(out.values("g")[~gholes], g[~gholes])


class TestStratifiedSplit:
    def _two_class(self, n_a, n_b):
        y = [0] * n_a + [1] * n_b
        return make_dataset(
            [("x", "numeric"), ("y", "categorical", "target_disorder", ("a", "b"))],
            {"x": np.arange(n_a + n_b, dtype=np.float64), "y": y},
        )

    def test_per_class_counts(self):
        ds = self._two_class(60, 40)
        split = stratified_split(ds, 0.8, seed=1, target="y")
        assert split.train.n_rows == 80 and split.test.n_rows == 20
        y_train = split.train.values("y")
        assert (y_train == 0).sum() == 48 and (y_train == 1).sum() == 32

    def test_small_classes_keep_one_test_row(self):
        ds = self._two_class(5, 5)
        split = stratified_split(ds, 0.8, seed=0, target="y")
        y_train, y_test = split.train.values("y"), split.test.values("y")
        assert [(y_train == c).sum() for c in (0, 1)] == [4, 4]
        assert [(y_test == c).sum() for c in (0, 1)] == [1, 1]

    def test_split_is_a_partition(self):
        ds = self._two_class(30, 20)
        split = stratified_split(ds, 0.7, seed=5, target="y")
        ids = np.concatenate([split.train.values("x"), split.test.values("x")])
        np.testing.assert_array_equal(np.sort(ids), np.arange(50, dtype=np.float64))

    def test_same_seed_reproduces(self):
        ds = self._two_class(30, 20)
        a = stratified_split(ds, 0.8, seed=9, target="y")
        b = stratified_split(ds, 0.8, seed=9, target="y")
        assert a.train == b.train and a.test == b.test

    def test_different_seed_shuffles(self):
        ds = self._two_class(50, 50)
        a = stratified_split(ds, 0.8, seed=1, target="y")
        b = stratified_split(ds, 0.8, seed=2, target="y")
        assert a.train != b.train

    def test_tiny_class_rejected(self):
        ds = make_dataset(
            [("x", "numeric"), ("y", "categorical", "target_disorder", ("a", "b"))],
            {"x": [1.0, 2.0, 3.0], "y": [0, 0, 1]},
        )
        with pytest.raises(StratificationError):
            stratified_split(ds, 0.8, seed=0, target="y")

    def test_missing_target_rejected(self):
        ds = make_dataset(
            [("y", "categorical", "target_disorder", ("a", "b"))],
            {"y": [0, -1, 1]},
            missing={"y": [False, True, False]},
        )
        with pytest.raises(StratificationError):
            stratified_split(ds, 0.5, seed=0, target="y")

    def test_numeric_target_rejected(self):
        ds = make_dataset([("x", "numeric")], {"x": [1.0, 2.0]})
        with pytest.raises(DataTypeError):
            stratified_split(ds, 0.5, seed=0, target="x")

    def test_ratio_bounds(self):
        ds = self._two_class(5, 5)
        for ratio in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ArgumentError):
                stratified_split(ds, ratio, seed=0, target="y")

    def test_property_proportional_within_one_row(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            counts = rng.integers(4, 60, size=3)
            ratio = float(rng.uniform(0.3, 0.9))
            y = np.repeat([0, 1, 2], counts)
            ds = make_dataset(
                [("x", "numeric"), ("y", "categorical", "target_disorder", ("a", "b", "c"))],
                {"x": np.arange(y.size, dtype=np.float64), "y": y},
            )
            split = stratified_split(ds, ratio, int(rng.integers(1e6)), "y")
            assert split.train.n_rows + split.test.n_rows == y.size
            y_train = split.train.values("y")
            for c, count in enumerate(counts):
                got = int((y_train == c).sum())
                assert abs(got - count * ratio) <= 1.0
