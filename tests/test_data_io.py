import base64
import csv
import json
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multida import FormatError, MultidaError, ValidationError
from multida import data_io
from multida.data_io import (
    CsvSchema,
    filter_features,
    load_dataset,
    load_matrix,
    load_model,
    save_dataset,
    save_model,
)
from multida.estimator import (Dataset, SufficientStats, _column_blocks, _Workspace, fit,
                               fit_mles, gamma_weights, lrt, model_from_stats, predict,
                               selected_features, validate_model)
from multida.partitions import build_partition_set
from oracles import decode_rows, edit_rows, encode_rows, read_rows


TOY = "label,x1\na,0\na,2\nb,4\nb,6\n"


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY)
    return path


class TestLoadDataset:
    def test_basic(self, toy_csv):
        data = load_dataset(toy_csv)
        assert (data.n, data.p, data.K) == (4, 1, 2)
        assert data.class_labels == ("a", "b")
        assert data.feature_names == ("x1",)
        np.testing.assert_allclose(data.X[:, 0], [0, 2, 4, 6])

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "na.csv"
        path.write_text("label,x1\na,NA\nb,2\n")
        with pytest.raises(FormatError, match="row 2, column x1"):
            load_dataset(path)

    def test_nan_token_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("label,x1\na,nan\nb,2\n")
        with pytest.raises(FormatError, match="non-finite"):
            load_dataset(path)

    def test_label_column_required(self, toy_csv):
        with pytest.raises(ValidationError, match="requires a label column"):
            load_dataset(toy_csv, CsvSchema(label_column=None))

    def test_single_class_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("label,x1\na,1\na,2\n")
        with pytest.raises(ValidationError, match="fewer than 2 classes"):
            load_dataset(path)

    def test_headerless_with_index_label(self, tmp_path):
        path = tmp_path / "nh.csv"
        path.write_text("a,0\na,2\nb,4\nb,6\n")
        data = load_dataset(path, CsvSchema(has_header=False, label_column=0))
        assert (data.n, data.p, data.K) == (4, 1, 2)
        assert data.feature_names == ("x1",)

    def test_missing_label_column(self, toy_csv):
        with pytest.raises(ValidationError, match="not found"):
            load_dataset(toy_csv, CsvSchema(label_column="y"))

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("label,x1\na,1\nb,2,3\n")
        with pytest.raises(FormatError, match="row 3"):
            load_dataset(path)

    def test_roundtrip_idempotent(self, toy_csv, tmp_path):
        data = load_dataset(toy_csv)
        out = tmp_path / "echo.csv"
        save_dataset(data, out)
        again = load_dataset(out)
        assert np.array_equal(data.X, again.X)
        assert data.class_labels == again.class_labels

    def test_full_precision_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        data = Dataset.from_arrays(rng.normal(size=(5, 3)), ["a", "b", "a", "b", "a"])
        out = tmp_path / "prec.csv"
        save_dataset(data, out)
        again = load_dataset(out)
        assert np.array_equal(data.X, again.X)  # bit-exact via repr


class TestStreamingReader:
    EDGE_CELLS = [" 1.5", "1_0", "\uff11\uff12", "1e-400", ".5", "-0", "1.5 ",
                  "+3", "4.9e-324", "1.7976931348623157e308", "1e5_0"]

    def test_edge_cells_parse_like_float(self, tmp_path):
        cells = self.EDGE_CELLS
        path = tmp_path / "edge.csv"
        names = [f"c{j}" for j in range(len(cells))]
        path.write_text("label," + ",".join(names) + "\na," + ",".join(cells)
                        + "\nb," + ",".join(reversed(cells)) + "\n",
                        encoding="utf-8")
        data = load_dataset(path)
        expected = np.array([[float(c) for c in cells],
                             [float(c) for c in reversed(cells)]])
        assert data.X.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("token", ["inf", "-Infinity", "1e309", "NaN"])
    def test_non_finite_tokens_rejected(self, tmp_path, token):
        path = tmp_path / "inf.csv"
        path.write_text(f"label,x1,x2\na,1,2\nb,3,{token}\n")
        with pytest.raises(FormatError,
                           match=f"non-finite cell '{token}' at row 3, column x2"):
            load_dataset(path)

    @pytest.mark.parametrize("has_header", [True, False])
    @pytest.mark.parametrize("reader", ["dataset", "matrix"])
    def test_bad_cell_in_last_row_and_column(self, tmp_path, has_header, reader):
        n, p = 30, 400
        rng = np.random.default_rng(4)
        lines = [f"g{j + 1}" for j in range(p)]
        lines = ["label," + ",".join(lines)] if has_header else []
        for i in range(n):
            cells = [repr(float(v)) for v in rng.normal(size=p)]
            if i == n - 1:
                cells[-1] = "1.0.0"
            lines.append("ab"[i % 2] + "," + ",".join(cells))
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(lines) + "\n")
        schema = CsvSchema(has_header=has_header, label_column="label" if has_header else 0)
        row = n + int(has_header)
        col = f"g{p}" if has_header else f"x{p}"
        with pytest.raises(FormatError,
                           match=f"non-numeric cell '1.0.0' at row {row}, column {col}$"):
            if reader == "dataset":
                load_dataset(path, schema)
            else:
                load_matrix(path, schema)

    def test_rows_checked_in_file_order(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("label,x1\na,oops\nb,2,3\n")
        with pytest.raises(FormatError,
                           match=r"mixed\.csv: non-numeric cell 'oops' at row 2, column x1$"):
            load_dataset(path)
        path.write_text("label,x1\na,1,3\nb,oops\n")
        with pytest.raises(FormatError, match="row 2 has 3 cells, expected 2"):
            load_dataset(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("label,x1\n")
        with pytest.raises(FormatError, match="no data rows"):
            load_dataset(path)
        path.write_text("")
        with pytest.raises(FormatError, match="file is empty"):
            load_matrix(path)

    def test_label_only_file(self, tmp_path):
        path = tmp_path / "lab.csv"
        path.write_text("label\na\nb\n")
        with pytest.raises(ValidationError, match="no feature columns"):
            load_dataset(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"label,a,b\nx,1,2\ny,\xff\xfe,3\n")
        with pytest.raises(FormatError, match="latin.csv: not UTF-8 text"):
            load_dataset(path)

    def test_csv_error_rejected(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("label,x1\na," + "1" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(FormatError, match="huge.csv: malformed CSV"):
            load_matrix(path, CsvSchema())

    @pytest.mark.parametrize("text", [
        "label,x1\na,{long}\nb,2\n", "label,x1\n{long},1\nb,2\n",
        "label,{long}\na,1\nb,2\n", "x1,x2\n{long},1\nb,2\n",
    ], ids=["zeros", "label", "header", "no-label-column"])
    def test_cell_over_field_limit_rejected(self, tmp_path, text):
        # np.fromstring would parse the zeros as 0.0 and keep the label;
        # the csv module fails on the first long cell, before the label
        # column is looked up
        long = "0" * (csv.field_size_limit() + 1)
        path = tmp_path / "long.csv"
        path.write_text(text.format(long=long))
        with pytest.raises(FormatError, match="long.csv: malformed CSV"):
            load_dataset(path)

    @pytest.mark.parametrize("delimiter", [" "])
    def test_odd_delimiter_reads_as_row_reader(self, tmp_path, delimiter):
        path = tmp_path / "col.csv"
        path.write_text("x1\n1\n2\n")
        _read_as_oracle(path, CsvSchema(label_column=None, delimiter=delimiter))

    # the csv module ends a row at "\n" or "\r", whatever the delimiter
    @pytest.mark.parametrize("delimiter", ["ab", "", None, "\n", "\r"])
    def test_delimiter_not_one_character_rejected(self, delimiter):
        with pytest.raises(ValidationError, match="delimiter must be one character"):
            CsvSchema(delimiter=delimiter)

    @pytest.mark.parametrize("text, schema", [
        ("x1,label,x2\n1,a,2\n3,b,4\n", CsvSchema()),
        ("1\t2\ta\n3\t4\tb\n", CsvSchema(has_header=False, label_column=2, delimiter="\t")),
        ("x1;x2\n1;2\n3;4\n", CsvSchema(label_column=None, delimiter=";")),
        ("\ufeffx1,x2,label\r\n1,2,a\r\n3,4,b\r\n", CsvSchema()),
    ], ids=["label-inside", "no-header-tab", "unlabeled", "bom-crlf"])
    def test_plain_file_skips_row_reader(self, tmp_path, text, schema):
        # only the first data row goes through the csv module
        path = tmp_path / "plain.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(data_io, "_row_values", wraps=data_io._row_values) as rows:
            X, names, labels = _read_as_oracle(path, schema)
        assert rows.call_count == 1 and rows.call_args.args[2] == 1 + schema.has_header
        assert names == ["x1", "x2"]
        assert labels == ([] if schema.label_column is None else ["a", "b"])
        assert X.tobytes() == np.array([[1.0, 2.0], [3.0, 4.0]]).tobytes()

    def test_quoted_file_goes_to_row_reader(self, tmp_path):
        # quotes the label split cannot undo: a quoted value, a quote inside
        # a label, a delimiter inside a quoted label, a quote after text
        path = tmp_path / "quoted.csv"
        for body, labels in [('a,"0"\nb,1\n', ("a", "b")),
                             ('"a""x",0\nb,1\n', ('a"x', "b")),
                             ('"a,x",0\nb,1\n', ("a,x", "b")),
                             ('"a"x,0\nb,1\n', ("ax", "b"))]:
            path.write_text("label,x1\nc,2\n" + body)  # the quotes on a later line
            _, _, got = _read_as_oracle(path, CsvSchema(), labeled=True)
            assert tuple(got) == ("c", *labels), body

    def test_quoted_labels_stay_on_numpy_reader(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('"label","x1"\n"a",0\n"b",1\nc,2\n"",3\n')
        with mock.patch.object(data_io, "_row_values", wraps=data_io._row_values) as rows:
            X, _, labels = _read_as_oracle(path, CsvSchema(), labeled=True)
        assert rows.call_count == 1 and rows.call_args.args[2] == 2
        assert labels == ["a", "b", "c", ""]
        assert X.tobytes() == np.array([[0.0], [1.0], [2.0], [3.0]]).tobytes()

    @pytest.mark.parametrize("delimiter, text", [
        (",", "lab,x1,x2,x3\nb,1,2,3\na,1,2,\n"), (",", "lab,x1,x2,x3\nb,1,2,3\na,1, ,2\n"),
        (",", "lab,x1,x2,x3\nb,1,2,3\na,1,2, \r\n"), (",", "x1,x2,lab,x3\n1,2,b,3\n1,\v,a,2\n"),
        ("\t", "lab\tx1\tx2\nb\t1\t2\na\t1\t\t2\n"), ("e", "labex1ex2\nbe1e2\nae1e5e2\n"),
        (".", "lab.x1\nb.1\na.1.5\n"), (",", "lab\n1\na,2\n"),
        (",", "lab,x1,x2,x3\nb,1,2,3\na,1,2\nc,1,2,3,4\n"),
        ("\t", "lab\tx1\tx2\tx3\nb\t1\t2\t3\na\t1\t\t2\nc\t1\t2\t3\n"),
        (",", "x1,lab,x2\n1,b,2\n7\n"),
    ], ids=["trailing", "space", "trailing-space", "vtab", "tab-run", "e", "dot", "one-column",
            "ragged-pair", "tab-run-in-batch", "one-cell-mid-label"])
    def test_blank_or_extra_cell_refused_as_oracle_does(self, tmp_path, delimiter, text):
        # np.fromstring reads a cell of whitespace as -1, drops an empty last
        # cell, takes a run of tabs as one and reads a number across "e" or
        # "."; lines are parsed together, so a short and a long row give as
        # many values as two good ones
        path = tmp_path / "blank.csv"
        path.write_text(text)
        schema = CsvSchema(delimiter=delimiter, label_column="lab")
        want = _outcome(lambda *args: read_rows(*args, labeled=False)[:2], path, schema)
        assert want[0] is FormatError
        assert _outcome(load_matrix, path, schema) == want
        want = _outcome(_oracle_dataset, path, schema)
        assert _outcome(load_dataset, path, schema) == want
        assert _outcome(data_io.load_class_stats, path, schema) == want

    @pytest.mark.parametrize("label", ["a\nb", "a\n\nb", "a\r\nb"], ids=["lf", "blank", "crlf"])
    def test_label_spanning_lines_reads_as_oracle(self, tmp_path, label):
        # the lines a quoted label spans are one row, and rows are counted
        path = tmp_path / "span.csv"
        text = f'label,x1,x2\nc,1,2\n"{label}",3,4\nc,5,6\n'
        path.write_bytes(text.encode())
        X, _, labels = _read_as_oracle(path, CsvSchema(), labeled=True)
        assert labels == ["c", label, "c"]
        assert X.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        path.write_bytes((text + "d,7,oops\n").encode())
        want = (FormatError, f"{path}: non-numeric cell 'oops' at row 5, column x2")
        assert _outcome(_oracle_dataset, path, CsvSchema()) == want
        assert _outcome(load_dataset, path, CsvSchema()) == want

    def test_repeated_feature_names_refused(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("label,g0,g1,g0,g1,g2\na,1,2,3,4,5\nb,1,2,3,4,5\n")
        for read in (load_dataset, data_io.load_class_stats, load_matrix):
            with pytest.raises(ValidationError) as exc:
                read(path, CsvSchema())
            assert str(exc.value) == f"{path}: repeated feature names in the header: ['g0', 'g1']"


def _read_as_oracle(path, schema, labeled=False):
    """The reader's (values, names, labels), checked against the oracle's."""
    names, rows = data_io._read_table(path, schema, labeled=labeled, sink=data_io.RowBuffer)
    want = read_rows(path, schema, labeled=labeled)
    assert (rows.matrix().tobytes(), names, rows.labels) == (want[0].tobytes(), *want[1:])
    return want


def _save_dataset_per_cell(data, path, *, label_name="label", delimiter=","):
    """``save_dataset`` written with ``csv.writer.writerows``, every value
    a cell: the reference for the joined-row writer."""
    labels = data.class_labels
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow([label_name, *data.feature_names])
        writer.writerows(
            [labels[code - 1], *map(repr, row)]
            for code, row in zip(data.y.tolist(), data.X.tolist())
        )


def _written(save, data, path, **kwargs):
    """The bytes a writer leaves, and the error it raised (None when none)."""
    try:
        save(data, path, **kwargs)
        error = None
    except Exception as exc:  # compared with the reference's, whatever it is
        error = type(exc), str(exc)
    return path.read_bytes() if path.exists() else None, error


#: delimiters to weight: common ones, the csv module's specials and what a
#: float's repr holds
CSV_CHARS = list('.e-+0"\'\t\n\r ,;')
EDGE_FLOATS = [-0.0, 5e-324, 1e-300, 1e16, 1.7976931348623157e308]


@st.composite
def datasets_to_save(draw):
    """A small Dataset and the delimiter and label name to save it with;
    names and labels may hold the delimiter, quotes, line breaks or
    nothing, and one label may hold a lone surrogate."""
    char = st.characters(blacklist_categories=["Cs"])
    delim = draw(char if draw(st.integers(0, 3)) == 0 else st.sampled_from(CSV_CHARS))
    piece = st.one_of(st.sampled_from([delim, '"', "'", "\r", "\n", "\r\n"]), char)
    text = st.lists(piece, max_size=5).map("".join)
    labels = draw(st.lists(text, min_size=2, max_size=3, unique=True))
    if draw(st.integers(0, 9)) == 5:  # hypothesis favours the ends of a range
        labels[-1] += "\ud800"  # not UTF-8: the write fails on its first row
    y = labels + draw(st.lists(st.sampled_from(labels), max_size=3))
    n, p = len(y), draw(st.integers(1, 5)) % 5  # no features now and then
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, p))
    for i in range(n):
        for j in range(p):
            if draw(st.booleans()):
                X[i, j] = draw(st.sampled_from(EDGE_FLOATS)) * draw(st.sampled_from([1, -1]))
    names = [draw(text) for _ in range(p)]
    return Dataset.from_arrays(X, y, feature_names=names), delim, draw(text)


class TestSaveDataset:
    def test_quote_delimiter_refused_before_the_file_opens(self, tmp_path):
        data = Dataset.from_arrays(np.ones((2, 1)), ["a", "b"])
        with pytest.raises(ValidationError, match="other than the quote"):
            save_dataset(data, tmp_path / "d.csv", delimiter='"')
        assert not (tmp_path / "d.csv").exists()
        with pytest.raises(ValidationError, match="other than the quote"):
            CsvSchema(delimiter='"')

    @given(case=datasets_to_save())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_bytes_match_per_cell_repr(self, tmp_path_factory, case):
        """The joined rows are byte for byte what ``csv.writer`` writes
        with each value as its repr, or the same error is raised; a file
        ``load_dataset`` reads back gives bit-identical values."""
        data, delim, label_name = case
        tmp = tmp_path_factory.mktemp("save")
        kwargs = {"label_name": label_name, "delimiter": delim}
        got = _written(save_dataset, data, tmp / "d.csv", **kwargs)
        if delim in "\r\n":  # the reference writes a file no reader splits back
            assert got == (None, (ValidationError, "delimiter must be one character "
                                  f"other than a line break, got {delim!r}"))
            return
        if delim == '"':  # the reference writes a file that reads back as other cells
            assert got == (None, (ValidationError, "delimiter must be a character "
                                  "other than the quote '\"'"))
            return
        assert got == _written(_save_dataset_per_cell, data, tmp / "ref.csv", **kwargs)
        if got[1] is not None:
            return
        try:
            back = load_dataset(tmp / "d.csv", CsvSchema(label_column=label_name,
                                                         delimiter=delim))
        except MultidaError:
            return
        assert back.X.shape == data.X.shape
        assert back.X.tobytes() == data.X.tobytes()


class TestLoadMatrix:
    def test_unlabeled(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("x1\n1.5\n-2\n")
        X, names = load_matrix(path, CsvSchema(label_column=None))
        assert X.shape == (2, 1)
        assert names == ["x1"]

    def test_label_column_ignored_when_present(self, toy_csv):
        X, names = load_matrix(toy_csv, CsvSchema(label_column="label"))
        assert X.shape == (4, 1)
        assert names == ["x1"]

    def test_headerless(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("1,2\n3,4\n")
        X, names = load_matrix(path, CsvSchema(has_header=False, label_column=None))
        assert X.shape == (2, 2)
        assert names == ["x1", "x2"]


class TestFilterFeatures:
    def _data(self):
        X = np.array(
            [
                # f1 constant, f2 varying, f3 low in every class, f4 high in one
                [5.0, 1.0, 1.0, 8.0],
                [5.0, 2.0, 2.0, 8.5],
                [5.0, 3.0, 1.5, 9.0],
                [5.0, 9.0, 2.5, 1.0],
                [5.0, 8.0, 1.0, 1.5],
                [5.0, 7.0, 2.0, 2.0],
            ]
        )
        return Dataset.from_arrays(X, ["a"] * 3 + ["b"] * 3,
                                   feature_names=["f1", "f2", "f3", "f4"])

    def test_zero_mad(self):
        reduced, kept = filter_features(self._data(), "zero-mad")
        assert kept == [1, 2, 3]
        assert reduced.feature_names == ("f2", "f3", "f4")

    def test_class_median_below(self):
        reduced, kept = filter_features(self._data(), "class-median-below:7.0")
        # class medians: f1 (5,5), f2 (2,8), f3 (1.5,2), f4 (8.5,1.5);
        # only f2 and f4 clear 7 in some class
        assert kept == [1, 3]

    def test_string_rule_spelling(self):
        _, kept = filter_features(self._data(), "class-median-below:7")
        assert kept == [1, 3]

    def test_boundary_median_kept(self):
        # medians (6.9, 6.5, 5.0) dropped at t=7; (7.2, 6.5, 5.0) kept
        X = np.array([[6.9, 7.2], [6.9, 7.2], [6.5, 6.5], [6.5, 6.5], [5.0, 5.0], [5.0, 5.0]])
        data = Dataset.from_arrays(X, ["a", "a", "b", "b", "c", "c"])
        reduced, kept = filter_features(data, "class-median-below:7.0")
        assert kept == [1]

    def test_idempotent(self):
        data = self._data()
        once, kept1 = filter_features(data, "zero-mad")
        twice, kept2 = filter_features(once, "zero-mad")
        assert np.array_equal(once.X, twice.X)
        assert kept2 == list(range(once.p))

    def test_all_dropped_is_error(self):
        data = Dataset.from_arrays(np.ones((4, 2)), ["a", "a", "b", "b"])
        with pytest.raises(ValidationError, match="every feature"):
            filter_features(data, "zero-mad")

    def test_unknown_rule(self):
        with pytest.raises(ValidationError, match="unknown filter rule"):
            filter_features(self._data(), "median")


class TestModelRoundTrip:
    def _model(self, seed=0, variance_mode="equal", k=3):
        rng = np.random.default_rng(seed)
        y = np.repeat(np.arange(1, k + 1), 12)
        X = rng.normal(size=(len(y), 6))
        X[:, 0] += 2.0 * (y - 1)
        data = Dataset.from_arrays(X, [f"c{v}" for v in y])
        return fit(data, penalty="ebic", variance_mode=variance_mode)

    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    def test_roundtrip_bit_exact_predictions(self, tmp_path, variance_mode):
        model = self._model(variance_mode=variance_mode)
        rng = np.random.default_rng(1)
        q = rng.normal(size=(9, 6))
        before = predict(model, q)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        after = predict(loaded, q)
        assert np.array_equal(before.probabilities, after.probabilities)
        assert before.labels == after.labels

    def test_roundtrip_fields(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.n == model.n
        assert loaded.class_labels == model.class_labels
        assert loaded.feature_names == model.feature_names
        assert loaded.parts.columns == model.parts.columns
        assert loaded.penalty == model.penalty
        for f in ("mu", "sigma2", "pi", "gamma", "lam", "variance_floor", "admissible"):
            a, b = getattr(loaded, f), getattr(model, f)
            assert a.dtype == b.dtype and a.shape == b.shape, f
            assert a.tobytes() == b.tobytes(), f

    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    @pytest.mark.parametrize("k", [3, 6])
    def test_model_holds_no_slot_arrays(self, tmp_path, k, variance_mode):
        # p spans two blocks of the derivation, the second with a merged tail
        width = _Workspace(build_partition_set(k, "exhaustive", variance_mode=variance_mode),
                           1).width
        p = 2 * width + 1
        assert [b.stop - b.start for b in _column_blocks(p, width)] == [width, width + 1]
        rng = np.random.default_rng(70 + k)
        y = np.repeat(np.arange(1, k + 1), 6)
        X = rng.normal(size=(len(y), p))
        X[:, ::50] += 1.5 * (y[:, None] - 1)
        model = validate_model(fit(Dataset.from_arrays(X, [f"c{v}" for v in y]),
                                   penalty="bic", variance_mode=variance_mode))
        predict(model, X[:5])
        selected_features(model)
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        for m in (model, loaded):
            assert not {"mu", "sigma2", "lam", "gamma"} & vars(m).keys()
            assert all(np.shape(v) != (p, m.parts.n_slots) for v in vars(m).values())
        whole = fit_mles(model.stats, model.parts)
        gamma = gamma_weights(lrt(whole), model.parts.nu, model.penalty)
        assert model.gamma[:, 1:].max() > 0.5  # the hypotheses carry weight
        assert model.gamma.shape == gamma.shape
        assert model.gamma.tobytes() == gamma.tobytes() == loaded.gamma.tobytes()

    def test_minus_inf_lambda_survives(self, tmp_path):
        # single-sample class makes several QDA hypotheses inadmissible
        X = np.random.default_rng(2).normal(size=(13, 2))
        data = Dataset.from_arrays(X, ["a"] * 6 + ["b"] * 6 + ["c"])
        model = fit(data, variance_mode="unequal")
        assert np.isneginf(model.lam).any()
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.lam, model.lam)

    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    @pytest.mark.parametrize("p", [1, 3, 1024])
    def test_bytes_match_one_shot_encoder(self, tmp_path, variance_mode, p):
        # a single-sample class makes some hypotheses inadmissible
        X = np.random.default_rng(2).normal(size=(13, p))
        model = fit(Dataset.from_arrays(X, ["a"] * 6 + ["b"] * 6 + ["c"]),
                    variance_mode=variance_mode)
        path = tmp_path / "m.json"
        save_model(model, path)
        text = path.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc)
        assert list(doc) == ["schema_version", "n", "K", "class_label_map", "scheme",
                             "S", "variance_mode", "penalty", "prior_term_mode",
                             "feature_names", "class_counts", "class_means", "class_m2"]
        assert doc["schema_version"] == 3
        assert doc["class_counts"] == [6, 6, 1]
        assert np.array(decode_rows(doc["class_means"])).shape == (3, p)

    @staticmethod
    def _stats_model(k, p, scheme="exhaustive"):
        """A model derived from random class statistics whose floats span
        many magnitudes, with labels and feature names that are non-ASCII
        or hold quotes and backslashes, which ``json`` escapes.  Some
        statistics sit at the edges of the float range: a mean of -0.0, a
        sum of squares of the smallest subnormal and, from p = 3 on, a
        subnormal mean and features whose class means are all the largest
        float or all its negative."""
        rng = np.random.default_rng(100 * k + p)
        mean = rng.normal(size=(k, p)) * 10.0 ** rng.integers(-8, 9, size=(k, p))
        mean[0, 0], mean[-1, -1] = -0.0, 3.0
        m2 = rng.uniform(0.5, 2.0, size=(k, p)) * 10.0 ** rng.integers(-6, 7, size=(k, p))
        m2[0, 0] = 5e-324
        if p >= 3:
            mean[:, 1], mean[:, 2] = 1.7976931348623157e308, -1.7976931348623157e308
            mean[1, 0], m2[-1, 1] = 5e-324, 1.7976931348623157e308
        stats = SufficientStats(
            n_k=np.arange(3, k + 3), mean=mean, m2=m2,
            class_labels=tuple(f'c"{i}\\é\t' for i in range(k - 1)) + ("日本 🙂",),
            feature_names=tuple(f"f{j}'ü\"" for j in range(p)))
        return model_from_stats(stats, build_partition_set(k, scheme), penalty="ebic",
                                prior_term_mode="log")

    @staticmethod
    def _document(model):
        """The whole document as one dict: ``save_model`` writes the bytes
        of one ``json.dumps`` of it."""
        stats = model.stats
        return {
            "schema_version": 3,
            "n": model.n,
            "K": model.K,
            "class_label_map": list(model.class_labels),
            "scheme": model.parts.scheme,
            "S": [list(row) for row in zip(*model.parts.columns)],
            "variance_mode": model.variance_mode,
            "penalty": {"kind": model.penalty.kind, "C": model.penalty.C},
            "prior_term_mode": model.prior_term_mode,
            "feature_names": list(model.feature_names),
            "class_counts": stats.n_k.tolist(),
            "class_means": encode_rows(stats.mean.tolist()),
            "class_m2": encode_rows(stats.m2.tolist()),
        }

    @pytest.mark.parametrize("scheme", ["named", "user"])
    @pytest.mark.parametrize("p", [1, 2, 3000])
    @pytest.mark.parametrize("k", [2, 4, 9])
    def test_bytes_are_one_dumps_of_the_document(self, tmp_path, k, p, scheme):
        if scheme == "user":  # the null hypothesis and the last class alone
            scheme = np.array([[1] * k, [1] * (k - 1) + [2]]).T
        elif k == 9 and p == 3000:
            scheme = "ordinal"  # the exhaustive set derives 3000 features in 5 s
        else:
            scheme = "exhaustive"
        model = self._stats_model(k, p, scheme)
        path = tmp_path / "m.json"
        save_model(model, path)
        assert path.read_bytes() == json.dumps(self._document(model)).encode("ascii")
        loaded = load_model(path)
        for f in ("Q", "L", "c", "mu_null", "top", "top_weight"):
            a, b = getattr(loaded, f), getattr(model, f)
            assert a.dtype == b.dtype and a.shape == b.shape, f
            assert a.tobytes() == b.tobytes(), f
        for f in ("n_k", "mean", "m2"):
            assert getattr(loaded.stats, f).tobytes() == getattr(model.stats, f).tobytes(), f

    def test_rows_are_little_endian_float64(self, tmp_path):
        model = self._stats_model(4, 3)
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        for key, want in (("class_means", model.stats.mean), ("class_m2", model.stats.m2)):
            assert len(doc[key]) == 4
            for row, values in zip(doc[key], want):
                assert np.frombuffer(base64.b64decode(row), "<f8").tobytes() == values.tobytes()

    def test_save_holds_no_list_of_every_float(self, tmp_path):
        k, p = 6, 20000
        model = self._stats_model(k, p)
        tracemalloc.start()
        try:
            save_model(model, tmp_path / "m.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one K x p list of Python floats: a float object and a pointer each
        assert peak < k * p * (sys.getsizeof(1.0) + 8)

    def test_load_holds_no_list_of_every_float(self, tmp_path):
        # one-vs-rest keeps the derivation's scratch small (the exhaustive
        # set's takes about 8 MB at K=6, in a fit too), so the peak is the
        # document's and the model's
        k, p = 6, 20000
        model = self._stats_model(k, p, "onevsrest")
        path = tmp_path / "m.json"
        save_model(model, path)
        del model
        tracemalloc.start()
        try:
            loaded = load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stats = loaded.stats
        own = sum(v.nbytes for v in (*vars(loaded).values(), *vars(stats).values())
                  if isinstance(v, np.ndarray))
        own += sum(map(sys.getsizeof, (*stats.feature_names, *stats.class_labels)))
        # less than one K x p list of Python floats beside the model itself
        assert peak - own < k * p * (sys.getsizeof(1.0) + 8)

    def test_file_size_per_feature(self, tmp_path):
        # K=4 stores 8 floats per feature, about 10.7 characters of base64
        # each; the derived arrays are not stored
        rng = np.random.default_rng(5)
        y = np.repeat([1, 2, 3, 4], 25)
        X = rng.normal(size=(100, 2000))
        X[:, :200] += 1.5 * (y[:, None] - 1)
        model = fit(Dataset.from_arrays(X, [str(v) for v in y]))
        path = tmp_path / "m.json"
        save_model(model, path)
        assert path.stat().st_size <= 100 * 2000

    # ids name the fitted quantity that the edited statistic feeds
    @pytest.mark.parametrize("field, edit, message", [
        ("class_counts", lambda v: [float("nan")] + v[1:], "'class_counts' must be a list"),
        ("class_means", lambda v: [[float("nan")] + v[0][1:]] + v[1:],
         "invariant violation: class_means holds a non-finite value"),
        ("class_m2", lambda v: [[float("inf")] + v[0][1:]] + v[1:],
         "invariant violation: class_m2 holds a non-finite value"),
        ("class_m2", lambda v: v[:1] + [[float("nan")] + v[1][1:]] + v[2:],
         "invariant violation: class_m2 holds a non-finite value"),
        ("class_counts", lambda v: [v[0] + 1] + v[1:],
         "invariant violation: class counts must be positive and sum to n"),
        ("class_counts", lambda v: [0, v[0] + v[1]] + v[2:],
         "invariant violation: class counts must be positive and sum to n"),
        ("class_m2", lambda v: [[-1.0] + v[0][1:]] + v[1:],
         "invariant violation: class_m2 holds a negative value"),
        ("class_means", lambda v: [[1e308] + v[0][1:], [-1e308] + v[1][1:]] + v[2:],
         "invariant violation: mu holds a non-finite value"),
        ("class_m2", lambda v: [[1e308] + row[1:] for row in v],
         "invariant violation: gamma holds a non-finite value for feature 'x1'"),
        ("class_counts", lambda v: v[1:], "'class_counts' must be a list of K=4"),
        ("class_label_map", lambda v: ["a", "b", "a", "c"],
         "invariant violation: class labels must be distinct"),
        ("class_label_map", lambda v: v[:-1],
         "invariant violation: class label count does not match K"),
        ("scheme", lambda v: "", "invariant violation: unknown scheme ''"),
        ("scheme", lambda v: "Exhaustive", "invariant violation: unknown scheme"),
        # documents no fit could have made; field None edits the whole document
        (None, lambda d: {**d, "class_counts": [1] * d["K"], "n": d["K"]},
         r"invariant violation: need at least K\+1 = 5 samples, got 4"),
        (None, lambda d: {**d, "K": 1, "S": [[1]], "n": d["class_counts"][0],
                          **{key: d[key][:1] for key in ("class_label_map", "class_counts",
                                                         "class_means", "class_m2")}},
         "invariant violation: training data must contain at least 2 classes"),
        # an S other than the set its scheme builds, with the cheap checks
        # before the build: a list for scheme would be read as S, and K
        # must be the row count of S before any set of K classes is built
        (None, lambda d: {**d, "S": [row[:2] for row in d["S"]]},
         "S is not the hypothesis set scheme 'exhaustive' builds for K=4"),
        (None, lambda d: {**d, "S": [row + row[-1:] for row in d["S"]]},
         "S is not the hypothesis set scheme 'exhaustive' builds for K=4"),
        (None, lambda d: {**d, "scheme": "ordinal"},
         "S is not the hypothesis set scheme 'ordinal' builds for K=4"),
        (None, lambda d: {**d, "scheme": "user", "S": [row[:1] + row[:0:-1] for row in d["S"]]},
         "S is not the hypothesis set scheme 'user' builds for K=4"),
        (None, lambda d: {**d, "scheme": "user", "S": [[1, 2], [1, 1], [1, 1], [1, 1]]},
         "S is not the hypothesis set scheme 'user' builds for K=4"),
        (None, lambda d: {**d, "scheme": "user", "S": [row[1:] for row in d["S"]]},
         "S is not the hypothesis set scheme 'user' builds for K=4"),
        (None, lambda d: {**d, "scheme": "user", "S": [[1, 1], [1, 2], [1, 0], [1, 2]]},
         r"invariant violation: column 2 of user partition matrix uses group labels \[0, 1, 2\]"),
        ("scheme", lambda v: [[1]], "model field 'scheme' must be a string, got list"),
        ("K", lambda v: 3, "S must be K=3 lists of integers, all the same length"),
        ("K", lambda v: 2**70, f"S must be K={2**70} lists of integers"),
        # a small file naming a set whose class subsets overflow int64
        (None, lambda d: {**d, "K": 64, "scheme": "onevsrest", "S": [[1]] * 64},
         "invariant violation: K=64 classes is more than the 63"),
    ], ids=["pi-nan", "mu-nan", "sigma2-inf", "floor-nan", "counts-sum", "counts-zero",
            "m2-negative", "means-overflow", "m2-overflow", "pi-short", "labels-repeated",
            "labels-short", "scheme-empty", "scheme-unknown", "n-below-K+1", "one-class",
            "S-2-columns", "S-column-repeated", "S-of-another-scheme", "user-S-unsorted",
            "user-S-not-canonical", "user-S-no-null", "user-S-label-0", "scheme-list",
            "K-not-rows", "K-huge", "K-over-mask"])
    def test_mutated_model_rejected(self, tmp_path, field, edit, message):
        model = self._model(k=4)
        assert model.parts.M == 15
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        if field is None:
            doc = edit(doc)
        elif field in ("class_means", "class_m2"):
            doc = edit_rows(doc, field, edit)
        else:
            doc[field] = edit(doc[field])
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=message):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        ({"K": 0, "S": []}, "S must be K=0 lists of integers, all the same length"),
        ({"S": [[1, 2], [1, 1], [1, 2]]},
         "S is not the hypothesis set scheme 'exhaustive' builds for K=3"),
        ({"S": [[1, 1], [1], [1, 2]]}, "S must be K=3 lists of integers, all the same length"),
        # True == 1, so a bool would pass the comparison with the built S
        ({"S": [[1, True, 1, 1, 1], [1, 1, 2, 2, 2], [1, 2, 1, 2, 3]]},
         "S must be K=3 lists of integers"),
        ({"n": 36.0}, "'n' must be an integer"),
        ({"class_counts": {"a": 1}}, "'class_counts' must be a list"),
        ({"class_m2": 3}, "'class_m2' must be a K x p = 3 x 6 matrix"),
        ({"class_means": [[0.0] * 6] * 2}, "'class_means' must be a K x p"),
        ({"class_means": encode_rows([[0.0] * 6, [0.0] * 5, [0.0] * 6])},
         r"'class_means' row 2 holds 40 bytes, not 8 x p = 48"),
        # schema 2 rows: lists of floats, not strings
        ({"class_means": [[0.0] * 6] * 3}, "'class_means' must be a K x p = 3 x 6 matrix"),
        ({"class_m2": encode_rows([[1.0] * 6] * 2) + [None]}, "'class_m2' must be a K x p"),
        ({"class_m2": encode_rows([[1.0] * 6] * 2)}, "'class_m2' must be a K x p = 3 x 6"),
        # without validate=True, b64decode would drop the newline and the "!"
        ({"class_means": encode_rows([[0.0] * 6] * 2)
          + ["AAAA\n" + encode_rows([[0.0] * 6])[0][4:]]},
         "'class_means' row 3 is not base64"),
        ({"class_m2": ["!" + row for row in encode_rows([[1.0] * 6] * 3)]},
         "'class_m2' row 1 is not base64"),
        ({"class_m2": [row[:-1] for row in encode_rows([[1.0] * 6] * 3)]},
         r"'class_m2' row 1 is not base64 \(Incorrect padding\)"),
        ({"class_m2": ["é" + row[1:] for row in encode_rows([[1.0] * 6] * 3)]},
         "'class_m2' row 1 is not base64"),
        ({"class_m2": [base64.b64encode(bytes(52)).decode("ascii")] * 3},
         r"'class_m2' row 1 holds 52 bytes, not 8 x p = 48"),
        ({"feature_names": []}, "'feature_names' is empty"),
        ({"class_counts": [12, 12, 2**70]}, "malformed model document"),
        # strings would otherwise load as one name or label per character
        ({"feature_names": "x1x2x3"}, "'feature_names' must be a list of strings"),
        ({"class_label_map": "abc"}, "'class_label_map' must be a list of strings"),
        # float() would read these as 1.0, 1000.0 and fail on None
        ({"penalty": {"kind": "ebic", "C": True}}, "'penalty.C' must be a number, got True"),
        ({"penalty": {"kind": "ebic", "C": "1e3"}}, "'penalty.C' must be a number, got '1e3'"),
        ({"penalty": {"kind": "ebic", "C": None}}, "'penalty.C' must be a number, got None"),
    ], ids=["K0", "S-not-rg", "S-ragged", "S-bool", "n-float", "pi-dict", "m2-int",
            "means-rows", "means-ragged", "means-lists", "m2-not-string", "m2-rows",
            "means-newline", "m2-outside-alphabet", "m2-padding", "m2-non-ascii", "m2-52-bytes",
            "no-features", "count-huge",
            "features-string", "labels-string", "C-bool", "C-string", "C-null"])
    def test_malformed_fields_rejected(self, tmp_path, edit, message):
        model = self._model()
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc.update(edit)
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=message):
            load_model(path)

    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    @pytest.mark.parametrize("scheme", ["exhaustive", "onevsrest", "ordinal", "user"])
    @pytest.mark.parametrize("k", [2, 3, 4, 6, 8])
    def test_every_saved_set_loads_bit_identically(self, tmp_path, k, scheme, variance_mode):
        if scheme == "user":
            # S: class 1 against the rest (not canonical), then the two
            # halves of the classes
            scheme = np.array([[2] + [1] * (k - 1),
                               [1] * (k // 2) + [2] * (k - k // 2)]).T
        rng = np.random.default_rng(k)
        y = np.repeat(np.arange(1, k + 1), 4)
        X = rng.normal(size=(len(y), 5))
        X[:, 0] += 2.0 * (y - 1)
        model = fit(Dataset.from_arrays(X, [f"c{v}" for v in y]), scheme=scheme,
                    variance_mode=variance_mode)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.parts.columns == model.parts.columns
        assert loaded.parts.scheme == model.parts.scheme
        for f in ("gamma", "Q", "L", "c", "mu_null"):
            a, b = getattr(loaded, f), getattr(model, f)
            assert a.dtype == b.dtype and a.shape == b.shape, f
            assert a.tobytes() == b.tobytes(), f

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[1, 2]")
        with pytest.raises(FormatError, match="must be a JSON object"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.json"
        save_model(model, path)
        path.write_text(path.read_text()[:200])
        with pytest.raises(FormatError, match="not a valid model document"):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="schema_version"):
            load_model(path)

    def test_v1_document_rejected(self, tmp_path):
        # schema 1 stored the derived arrays and schema 2 the class rows as
        # lists of float reprs; no reader for either remains
        model = self._model()
        path = tmp_path / "m.json"
        save_model(model, path)
        v3 = json.loads(path.read_text())
        v1 = {k: v for k, v in v3.items() if k not in ("class_counts", "class_means", "class_m2")}
        v1.update(schema_version=1, pi=model.pi.tolist(), gamma_hat=model.gamma.tolist(),
                  mu=model.mu.tolist(), sigma2=model.sigma2.tolist())
        v2 = {**v3, "schema_version": 2, "class_means": model.stats.mean.tolist(),
              "class_m2": model.stats.m2.tolist()}
        for version, doc in ((1, v1), (2, v2)):
            path.write_text(json.dumps(doc))
            with pytest.raises(FormatError, match=f"unsupported schema_version {version}; "
                                                  "this build reads version 3"):
                load_model(path)

    def test_tampered_counts_rejected(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["class_counts"][0] += 1
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="invariant"):
            load_model(path)

    def test_missing_field(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        del doc["class_counts"]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="missing field"):
            load_model(path)


#: replacements for a whole model field or for one entry of it
ODD_VALUES = [None, True, False, 2**70, 1e308, -1e308, "abc", [], [[1, 2], [3]],
              float("nan"), float("inf"), -float("inf")]


@st.composite
def mutated_documents(draw, text):
    """A saved model document with one field deleted, or that field or one
    entry nested in it replaced by an odd value."""
    doc = json.loads(text)
    key = draw(st.sampled_from(sorted(doc)))
    if draw(st.booleans()):
        del doc[key]
        return doc
    parent, slot = doc, key
    while isinstance(parent[slot], (list, dict)) and parent[slot] and draw(st.booleans()):
        child = parent[slot]
        parent, slot = child, draw(st.sampled_from(list(child) if isinstance(child, dict)
                                                   else range(len(child))))
    parent[slot] = draw(st.sampled_from(ODD_VALUES))
    return doc


@pytest.fixture(scope="module")
def k3_model_file(tmp_path_factory):
    rng = np.random.default_rng(9)
    y = np.repeat([1, 2, 3], 8)
    X = rng.normal(size=(len(y), 4))
    X[:, 0] += 2.0 * (y - 1)
    path = tmp_path_factory.mktemp("fuzz") / "m.json"
    save_model(fit(Dataset.from_arrays(X, [f"c{v}" for v in y])), path)
    return path, path.read_text()


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_mutated_document_loads_or_raises_format_error(k3_model_file, data):
    path, text = k3_model_file
    doc = data.draw(mutated_documents(text))
    path.write_text(json.dumps(doc))
    try:
        model = load_model(path)
    except FormatError:
        return
    for values in (model.gamma, model.mu_null, model.Q, model.L, model.c):
        assert np.isfinite(values).all()
    np.testing.assert_allclose(model.gamma.sum(axis=1), 1.0, rtol=0, atol=1e-9)
    assert list(model.class_labels) == doc["class_label_map"]
    assert list(model.feature_names) == doc["feature_names"]


def _oracle_dataset(path, schema):
    """``load_dataset`` with the oracle's reader."""
    X, names, labels = read_rows(path, schema, labeled=True)
    data = Dataset.from_arrays(X, labels, feature_names=names)
    data_io._check_classes(path, data.K)
    return data


def _outcome(load, path, schema):
    """What ``load`` returns (a Dataset or a matrix and its names) or
    raises, as comparable values."""
    try:
        got = load(path, schema)
    except MultidaError as exc:
        return type(exc), str(exc)
    if isinstance(got, Dataset):
        return (got.X.dtype, got.X.shape, got.X.tobytes(), got.y.tobytes(),
                got.class_labels, got.feature_names)
    return got[0].dtype, got[0].shape, got[0].tobytes(), got[1]


#: what a corrupted cell is set to; the csv module of Python 3.10 rejects
#: NUL, the zeros exceed its field size limit, and np.fromstring reads a
#: cell of whitespace alone as -1
ODD_CELLS = ["", "nan", "inf", "1e400", "1_000", '"1"', "#", "\u0661", "\uff11", " ", "\v", "\f",
             " 1 ", "1\xa0", "-0", "1e-400", "0x10", "1\x00", "0" * (csv.field_size_limit() + 1)]
CORRUPTIONS = ["none", "cell", "ragged", "blank-line", "lone-cr", "crlf", "quoted-label",
               "non-utf8", "label-moved", "label-dropped", "empty-body", "trailing-delimiter"]


@st.composite
def corrupted_csvs(draw):
    """A small valid labeled CSV, as bytes with its schema, corrupted in
    one way.  The label column sits at any index; the file may have no
    header (the label is then found by index) and may be tab-delimited."""
    n, p = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    delim = draw(st.sampled_from([",", "\t", ";"]))
    has_header = draw(st.booleans())
    label_idx = draw(st.integers(0, p))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = [[repr(draw(finite)) for _ in range(p)] for _ in range(n)]
    for i, row in enumerate(rows):
        row.insert(label_idx, "ab"[i % 2])
    header = [f"f{j}" for j in range(p)]
    header.insert(label_idx, "label")
    how = draw(st.sampled_from(CORRUPTIONS))
    i = draw(st.integers(0, n - 1))
    if how == "cell":
        rows[i][draw(st.integers(0, p))] = draw(st.sampled_from(ODD_CELLS))
    elif how == "ragged":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
    elif how == "trailing-delimiter":
        rows[i] = rows[i] + [""]
    elif how == "quoted-label":
        rows[i][label_idx] = draw(st.sampled_from(
            [f'"x{delim}y"', '"a"', '""', '"a""b"', '"a"b', '"', ' "a"', '"a" ']))
    elif how == "non-utf8":
        rows[i][draw(st.integers(0, p))] += "\udcff"  # encoded below as the byte 0xff
    elif how in ("label-moved", "label-dropped"):
        to = draw(st.integers(0, p))
        for row in [header, *rows]:
            cell = row.pop(label_idx)
            if how == "label-moved":
                row.insert(to, cell)
    elif how == "empty-body":
        rows = []
    lines = [delim.join(row) for row in ([header] if has_header else []) + rows]
    if how == "blank-line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([" ", "\t", ""])))
    text = "".join(line + "\n" for line in lines)
    if how == "lone-cr" and lines:
        cut = draw(st.integers(0, len(lines) - 1))
        text = "".join(line + ("\r" if j == cut else "\n") for j, line in enumerate(lines))
    elif how == "crlf":
        text = text.replace("\n", "\r\n")
    schema = CsvSchema(has_header=has_header, delimiter=delim,
                       label_column="label" if has_header else label_idx)
    return text.encode("utf-8", "surrogateescape"), schema


@pytest.fixture(scope="module")
def fuzz_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "in.csv"


@given(data=st.data())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_corrupted_csv_reads_as_row_reader_does(fuzz_csv, data):
    """The line reader returns bit-identical tables to the oracle's
    (``read_rows``), or raises the same error."""
    content, schema = data.draw(corrupted_csvs())
    fuzz_csv.write_bytes(content)
    for load, oracle in ((load_dataset, _oracle_dataset),
                         (load_matrix, lambda *args: read_rows(*args, labeled=False)[:2])):
        assert _outcome(load, fuzz_csv, schema) == _outcome(oracle, fuzz_csv, schema)
