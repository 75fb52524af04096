"""Tests for the typed dataset layer: schema, CSV ingestion, imputation, splits."""

from __future__ import annotations

import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from genoclass import dataset as dataset_module
from genoclass import (
    ArgumentError,
    ColumnSchema,
    DataTypeError,
    Dataset,
    EmptyInputError,
    GenoclassError,
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
from genoclass.codec import write_csv_rows
from genoclass.dataset import CSV_BLOCK_ROWS, csv_reader


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
        with pytest.raises(SchemaError, match="unknown column keys \\['dtype'\\]"):
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


def reference_load_csv(path, schema):
    """The per-cell reader load_csv replaced: every record is read, then each column is converted cell by cell."""
    validate_schema(schema)
    with csv_reader(path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: file is empty") from None
        expected = {c.name for c in schema}
        seen = set(header)
        if len(seen) != len(header):
            raise SchemaError(f"{path}: duplicate header names")
        if seen != expected:
            msg = []
            if expected - seen:
                msg.append(f"missing columns {sorted(expected - seen)}")
            if seen - expected:
                msg.append(f"unexpected columns {sorted(seen - expected)}")
            raise SchemaError(f"{path}: header does not match schema: " + "; ".join(msg))
        position = {name: i for i, name in enumerate(header)}
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise SchemaError(f"{path}: line {line_no} has {len(row)} cells, expected {len(header)}")
            rows.append(row)
    if not rows:
        raise EmptyInputError(f"{path}: no data rows")

    n = len(rows)
    kept = [c for c in schema if c.role != "ignore"]
    values, missing, warnings_count = {}, {}, {}
    for col in kept:
        pos = position[col.name]
        mask = np.zeros(n, dtype=bool)
        if col.kind == "numeric":
            out = np.empty(n, dtype=np.float64)
            for i, row in enumerate(rows):
                token = row[pos].strip()
                if not token:
                    mask[i] = True
                    out[i] = np.nan
                    continue
                try:
                    out[i] = float(token)
                except ValueError:
                    raise DataTypeError(
                        f"{path}: column {col.name!r}, line {i + 2}: not a number: {row[pos]!r}"
                    ) from None
        else:
            out = np.empty(n, dtype=np.int64)
            codes = {tok: k for k, tok in enumerate(col.categories)}
            unknown = 0
            for i, row in enumerate(rows):
                token = row[pos]
                if token == "":
                    mask[i] = True
                    out[i] = -1
                    continue
                code = codes.get(token)
                if code is None:
                    unknown += 1
                    mask[i] = True
                    out[i] = -1
                else:
                    out[i] = code
            if unknown:
                warnings_count[col.name] = unknown
        values[col.name] = out
        missing[col.name] = mask
    return Dataset(kept, values, missing, warnings_count)


def reference_write_csv(ds, path):
    """The per-cell writer write_csv replaced: csv.writer over every row."""
    cols = []
    for col in ds.columns:
        cells = zip(ds.values(col.name).tolist(), ds.missing_mask(col.name).tolist())
        if col.kind == "numeric":
            cols.append(["" if gap else repr(v) for v, gap in cells])
        else:
            cols.append(["" if gap else col.categories[v] for v, gap in cells])
    write_csv_rows(path, ds.column_names, zip(*cols))


#: block sizes the blocked reader and writer are checked at: every record its own block, blocks that
#: split a table unevenly, and the default
BLOCK_SIZES = (1, 2, 3, CSV_BLOCK_ROWS)

#: category tokens with the characters csv quotes, surrounding spaces and the empty token
TOKENS = ("a", "b", "x,y", 'q"t', " s", "t ", "l\nm", "r\rs", "")
GOOD_NUMBERS = ("0", "1.5", " 2 ", "-3e2", "\t4", "5\n", "nan", "-nan", "NaN", "inf", "-inf", "", "  ", "1e999")
BAD_NUMBERS = ("x", "1,5", "1 2", "2..", "nan!", "0x10")


def outcome(load, path, schema):
    """What a reader returns, bit for bit, or the type and message of what it raises."""
    try:
        ds = load(path, schema)
    except GenoclassError as exc:
        return type(exc), str(exc)
    cells = [(ds.values(n).dtype, ds.values(n).tobytes(), ds.missing_mask(n).tobytes()) for n in ds.column_names]
    return ds.column_names, ds.n_rows, cells, ds.ingest_warnings


@st.composite
def csv_cases(draw):
    """A schema and the records of a CSV for it: random column kinds and order, gaps, unknown tokens,
    quoted commas and newlines, and, in some cases, bad numbers and short or long records."""
    tokens = st.lists(st.sampled_from(TOKENS), min_size=2, max_size=4, unique=True)
    schema = [
        ColumnSchema("d", "categorical", "target_disorder", draw(tokens)),
        ColumnSchema("s", "binary", "target_subclass", draw(st.lists(st.sampled_from(TOKENS), min_size=2, max_size=2, unique=True))),
    ]
    for j, kind in enumerate(draw(st.lists(st.sampled_from(["numeric", "categorical", "ignore"]), max_size=4))):
        if kind == "ignore":
            schema.append(ColumnSchema(f"c{j}", "categorical", "ignore"))
        else:
            schema.append(ColumnSchema(f"c{j}", kind, categories=draw(tokens) if kind == "categorical" else ()))
    schema = draw(st.permutations(schema))
    header = [c.name for c in draw(st.permutations(schema))]
    numbers = GOOD_NUMBERS + (BAD_NUMBERS if draw(st.booleans()) else ())
    shifts = (0,) * 12 + ((-1, 1) if draw(st.booleans()) else ())
    free_text = st.text(alphabet=' a,"\r\n', max_size=4)
    records = []
    for _ in range(draw(st.integers(0, 9))):
        row = []
        for name in header:
            col = next(c for c in schema if c.name == name)
            if col.role == "ignore":
                row.append(draw(free_text))
            elif col.kind == "numeric":
                row.append(draw(st.sampled_from(numbers)))
            else:
                row.append(draw(st.sampled_from(col.categories + ("", "zz", " a"))))
        shift = draw(st.sampled_from(shifts))
        records.append(row[:shift] if shift < 0 else row + ["extra"] * shift)
    return schema, header, records


def write_records(path, header, records):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *records])
    return path


@st.composite
def written_datasets(draw):
    """Tables of one to four columns, with gaps, non-finite numbers and tokens csv must quote."""
    tokens = st.lists(st.sampled_from(TOKENS[:-1]), min_size=2, max_size=4, unique=True)
    n = draw(st.integers(0, 9))
    columns, values, missing = [], {}, {}
    for j in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["numeric", "categorical"]))
        col = ColumnSchema(f"c{j}", kind, categories=draw(tokens) if kind == "categorical" else ())
        if kind == "numeric":
            values[col.name] = np.array(draw(st.lists(st.floats(), min_size=n, max_size=n)), dtype=np.float64)
        else:
            values[col.name] = np.array(draw(st.lists(st.integers(0, len(col.categories) - 1), min_size=n, max_size=n)), dtype=np.int64)
        missing[col.name] = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        columns.append(col)
    return Dataset(columns, values, missing)


class TestBlockedCsv:
    """load_csv and write_csv against the per-cell reader and writer they replaced, at several block sizes."""

    @given(csv_cases())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_reader_matches_the_per_cell_reader(self, tmp_path, case):
        schema, header, records = case
        path = write_records(tmp_path / "data.csv", header, records)
        expected = outcome(reference_load_csv, path, schema)
        for rows in BLOCK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dataset_module, "CSV_BLOCK_ROWS", rows)
                assert outcome(load_csv, path, schema) == expected

    @given(st.data())
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_numeric_cells_parse_as_stripped_cells_do(self, tmp_path, data):
        """Padded, blank, whitespace-only and malformed numeric cells give the arrays and errors of the
        strip-every-cell rule, whichever block holds them."""
        pad = st.text(alphabet=" \t\x0b\x0c\x1c\u00a0\u2003", max_size=2)
        core = st.sampled_from(("0", "1.5", "-3e2", "nan", "-inf", "1e999", "1_0", "", "x", "1 2", "2..", "0x10"))
        cell = st.tuples(pad, core, pad).map("".join)
        bad = data.draw(st.booleans())
        records = data.draw(st.lists(st.tuples(cell, cell), min_size=1, max_size=7))
        if not bad:
            records = [r for r in records if all(not c.strip() or dataset_module._is_number(c) for c in r)] or [("1", "")]
        path = write_records(tmp_path / "data.csv", ["a", "b", "d", "s"], [[a, b, "x", "No"] for a, b in records])
        schema = make_schema(self.AB_SCHEMA)
        expected = outcome(reference_load_csv, path, schema)
        for rows in BLOCK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dataset_module, "CSV_BLOCK_ROWS", rows)
                assert outcome(load_csv, path, schema) == expected

    @given(csv_cases(), st.data())
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_ignoring_features_leaves_the_kept_columns_alone(self, tmp_path, case, data):
        """Any feature columns turned to ignore drop out, and every kept column's values, mask and
        unknown-token tally are those of the full read, bit for bit, whichever block holds them."""
        schema, header, records = case
        path = write_records(tmp_path / "data.csv", header, records)
        full = outcome(load_csv, path, schema)
        assume(isinstance(full[0], list))  # a table the full schema loads
        features = [c.name for c in schema if c.role == "feature"]
        ignored = {name for name, drop in zip(features, data.draw(st.lists(st.booleans(), min_size=len(features), max_size=len(features)))) if drop}
        subset = [replace(c, role="ignore") if c.name in ignored else c for c in schema]
        names, n_rows, cells, warnings = full
        expected = (
            [n for n in names if n not in ignored],
            n_rows,
            [cell for n, cell in zip(names, cells) if n not in ignored],
            {n: count for n, count in warnings.items() if n not in ignored},
        )
        for rows in BLOCK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dataset_module, "CSV_BLOCK_ROWS", rows)
                assert outcome(load_csv, path, subset) == expected

    AB_SCHEMA = [("a", "numeric"), ("b", "numeric"), ("d", "categorical", "target_disorder", ("x", "y")), ("s", "binary", "target_subclass", BINARY)]

    def load_in_blocks_of_two(self, path):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset_module, "CSV_BLOCK_ROWS", 2)
            return load_csv(path, make_schema(self.AB_SCHEMA))

    def test_malformed_record_wins_over_an_earlier_bad_number(self, tmp_path):
        rows = [["1", "1", "x", "No"], ["oops", "1", "x", "No"], ["1", "1", "x", "No"], ["1", "1", "x", "No"], ["1", "1", "x"]]
        path = write_records(tmp_path / "data.csv", ["a", "b", "d", "s"], rows)
        with pytest.raises(SchemaError, match="line 6 has 3 cells"):
            self.load_in_blocks_of_two(path)

    def test_first_column_in_schema_order_wins_over_an_earlier_line(self, tmp_path):
        rows = [["1", "1", "x", "No"], ["1", "bad_b", "x", "No"], ["1", "1", "x", "No"], ["1", "1", "x", "No"], ["bad_a", "1", "x", "No"]]
        path = write_records(tmp_path / "data.csv", ["a", "b", "d", "s"], rows)
        with pytest.raises(DataTypeError, match="column 'a', line 6: not a number: 'bad_a'"):
            self.load_in_blocks_of_two(path)

    def test_malformed_record_wins_over_a_later_unreadable_cell(self, tmp_path):
        rows = [["1", "1", "x", "No"], ["1", "1", "x"], ["1", "z" * 140_000, "x", "No"]]
        path = write_records(tmp_path / "data.csv", ["a", "b", "d", "s"], rows)
        with pytest.raises(SchemaError, match="line 3 has 3 cells"):
            load_csv(path, make_schema(self.AB_SCHEMA))

    def test_loaded_arrays_are_frozen_and_missing_numbers_are_plain_nan(self, tmp_path):
        path = write_records(tmp_path / "data.csv", ["a", "b", "d", "s"], [["-nan", "", "x", "No"], ["2", "nan", "zz", "Yes"]])
        ds = self.load_in_blocks_of_two(path)
        for name in ds.column_names:
            assert not ds.values(name).flags.writeable and not ds.missing_mask(name).flags.writeable
        assert ds.values("a")[:1].tobytes() == np.array([np.nan]).tobytes()
        np.testing.assert_array_equal(ds.missing_mask("b"), [True, True])
        assert ds.ingest_warnings == {"d": 1}

    def check_writer(self, ds, tmp_path):
        reference = tmp_path / "reference.csv"
        reference_write_csv(ds, reference)
        for rows in BLOCK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dataset_module, "CSV_BLOCK_ROWS", rows)
                write_csv(ds, tmp_path / "blocked.csv")
            assert (tmp_path / "blocked.csv").read_bytes() == reference.read_bytes()
        # load_csv needs rows and both target roles; give the roles to two discrete columns where a table has them
        discrete = [c.name for c in ds.columns if c.discrete]
        if len(discrete) >= 2 and ds.n_rows:
            roles = dict(zip(discrete, ("target_disorder", "target_subclass")))
            schema = [ColumnSchema(c.name, c.kind, roles.get(c.name, "feature"), c.categories) for c in ds.columns]
            again = load_csv(tmp_path / "blocked.csv", schema)
            assert again == Dataset(schema, {n: ds.values(n) for n in ds.column_names}, {n: ds.missing_mask(n) for n in ds.column_names})

    @given(written_datasets())
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_writer_matches_csv_writer(self, tmp_path, ds):
        self.check_writer(ds, tmp_path)

    def test_one_column_table_with_gaps(self, tmp_path):
        for kind, cats, cells in (("numeric", (), [1.0, 2.0, 3.0]), ("categorical", ("", "a"), [0, 1, 1])):
            ds = Dataset([ColumnSchema("c", kind, categories=cats)], {"c": np.array(cells)}, {"c": np.array([False, True, False])})
            self.check_writer(ds, tmp_path)
            assert (tmp_path / "blocked.csv").read_text(encoding="utf-8").splitlines()[2] == '""'

    def test_table_longer_than_a_block(self, tmp_path):
        n = 3 * CSV_BLOCK_ROWS + 5
        rng = np.random.default_rng(3)
        columns = [ColumnSchema("x", "numeric"), ColumnSchema("d", "categorical", "target_disorder", TOKENS[:-1]), ColumnSchema("s", "binary", "target_subclass", ("l\nm", " s"))]
        values = {"x": rng.normal(size=n), "d": rng.integers(0, len(TOKENS) - 1, n), "s": rng.integers(0, 2, n)}
        missing = {name: rng.random(n) < 0.1 for name in values}
        self.check_writer(Dataset(columns, values, missing), tmp_path)


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

    @pytest.mark.parametrize("cell", [np.inf, -np.inf])
    def test_matrix_rejects_infinite_cells_naming_the_column(self, cell):
        ds = make_dataset([("x", "numeric"), ("z", "numeric")], {"x": [1.0, 2.0], "z": [3.0, cell]})
        np.testing.assert_array_equal(ds.matrix(["x"]), [[1.0], [2.0]])
        with pytest.raises(DataTypeError, match="column 'z' has infinite cells"):
            ds.matrix(["x", "z"])

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
