import csv
import json

import numpy as np
import pytest

from multida import FormatError, ValidationError
from multida.data_io import (
    CsvSchema,
    filter_features,
    load_dataset,
    load_matrix,
    load_model,
    save_dataset,
    save_model,
)
from multida.estimator import Dataset, fit, predict


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


class TestSaveDataset:
    def test_bytes_match_per_cell_repr(self, tmp_path):
        X = np.array([[0.1, -0.0, 1e-300, 5e-324],
                      [1e16, 2.5, -7.0, 1 / 3]])
        data = Dataset.from_arrays(X, ["a,b", "c"], feature_names=["f1", "f 2", "f,3", "f4"])
        out = tmp_path / "d.csv"
        save_dataset(data, out, delimiter=";")
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, delimiter=";")
            writer.writerow(["label", *data.feature_names])
            for i in range(data.n):
                writer.writerow([data.class_labels[data.y[i] - 1]]
                                + [repr(float(v)) for v in data.X[i]])
        assert out.read_bytes() == expected.read_bytes()


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
        reduced, kept = filter_features(self._data(), ("class-median-below", 7.0))
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
        reduced, kept = filter_features(data, ("class-median-below", 7.0))
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
        assert doc["schema_version"] == 2
        assert doc["class_counts"] == [6, 6, 1]
        assert np.array(doc["class_means"]).shape == (3, p)

    def test_file_size_per_feature(self, tmp_path):
        # K=4 stores 8 floats per feature; the derived arrays are not stored
        rng = np.random.default_rng(5)
        y = np.repeat([1, 2, 3, 4], 25)
        X = rng.normal(size=(100, 2000))
        X[:, :200] += 1.5 * (y[:, None] - 1)
        model = fit(Dataset.from_arrays(X, [str(v) for v in y]))
        path = tmp_path / "m.json"
        save_model(model, path)
        assert path.stat().st_size <= 250 * 2000

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
         "invariant violation: sigma2 holds a non-finite value"),
        ("class_counts", lambda v: v[1:], "'class_counts' must be a list of K=4"),
        ("class_label_map", lambda v: ["a", "b", "a", "c"],
         "invariant violation: class labels must be distinct"),
        ("scheme", lambda v: "", "invariant violation: unknown scheme ''"),
        ("scheme", lambda v: "Exhaustive", "invariant violation: unknown scheme"),
    ], ids=["pi-nan", "mu-nan", "sigma2-inf", "floor-nan", "counts-sum", "counts-zero",
            "m2-negative", "means-overflow", "m2-overflow", "pi-short", "labels-repeated",
            "scheme-empty", "scheme-unknown"])
    def test_mutated_model_rejected(self, tmp_path, field, edit, message):
        model = self._model(k=4)
        assert model.parts.M == 15
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc[field] = edit(doc[field])
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=message):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        ({"K": 0, "S": []}, "K=0"),
        ({"S": [[1, 2], [1, 1], [1, 2]]}, "restricted-growth"),
        ({"S": [[1, 1], [1], [1, 2]]}, "differ in length"),
        ({"S": [[1, True], [1, 2], [1, 2]]}, "must be integers"),
        ({"n": 36.0}, "'n' must be an integer"),
        ({"class_counts": {"a": 1}}, "'class_counts' must be a list"),
        ({"class_m2": 3}, "'class_m2' must be a K x p = 3 x 6 matrix"),
        ({"class_means": [[0.0] * 6] * 2}, "'class_means' must be a K x p"),
        ({"class_means": [[0.0] * 6, [0.0] * 5, [0.0] * 6]}, "malformed model document"),
        ({"feature_names": []}, "'feature_names' is empty"),
        ({"class_counts": [12, 12, 2**70]}, "malformed model document"),
    ], ids=["K0", "S-not-rg", "S-ragged", "S-bool", "n-float", "pi-dict", "m2-int",
            "means-rows", "means-ragged", "no-features", "count-huge"])
    def test_malformed_fields_rejected(self, tmp_path, edit, message):
        model = self._model()
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc.update(edit)
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=message):
            load_model(path)

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
        # schema 1 stored the derived arrays; no reader for it remains
        model = self._model()
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        for key in ("class_counts", "class_means", "class_m2"):
            del doc[key]
        doc.update(schema_version=1, pi=model.pi.tolist(), gamma_hat=model.gamma.tolist(),
                   mu=model.mu.tolist(), sigma2=model.sigma2.tolist())
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="unsupported schema_version 1; "
                                              "this build reads version 2"):
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
