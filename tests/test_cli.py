import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from multida.cli import main
from multida.data_io import load_model


TOY = "label,x1\na,0\na,2\nb,4\nb,6\n"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY)
    return str(path)


@pytest.fixture
def wide_csv(tmp_path):
    rng = np.random.default_rng(0)
    y = np.repeat(["a", "b", "c"], 20)
    X = rng.normal(size=(60, 8))
    X[:, 0] += 3.0 * np.repeat([0, 1, 2], 20)
    lines = ["label," + ",".join(f"g{j}" for j in range(8))]
    for i in range(60):
        lines.append(y[i] + "," + ",".join(repr(float(v)) for v in X[i]))
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestTrain:
    def test_toy_train(self, runner, toy_csv, tmp_path):
        model_path = tmp_path / "m.json"
        feats_path = tmp_path / "f.csv"
        result = runner.invoke(
            main,
            ["train", toy_csv, "--out", str(model_path),
             "--features-out", str(feats_path), "--seed", "1"],
        )
        assert result.exit_code == 0, result.output
        assert "n=4 p=1 K=2 M=2" in result.output
        assert "features with non-null argmax: 1" in result.output
        rows = read_csv(feats_path)
        assert rows[0] == ["feature", "hypothesis", "partition", "weight"]
        assert len(rows) == 2
        model = load_model(model_path)
        assert model.K == 2

    def test_one_vs_rest_summary(self, runner, wide_csv, tmp_path):
        result = runner.invoke(
            main,
            ["train", wide_csv, "--scheme", "onevsrest", "--seed", "1",
             "--out", str(tmp_path / "m.json"),
             "--features-out", str(tmp_path / "f.csv")],
        )
        assert result.exit_code == 0, result.output
        assert "M=4" in result.output

    def test_single_class_exits_2(self, runner, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("label,x1\na,1\na,2\na,3\n")
        result = runner.invoke(main, ["train", str(path), "--seed", "1",
                                      "--out", str(tmp_path / "m.json")])
        assert result.exit_code == 2
        assert "fewer than 2 classes" in result.stderr

    def test_non_utf8_csv_exits_2(self, runner, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"label,a,b\nx,1,2\ny,\xff\xfe,3\n")
        result = runner.invoke(
            main, ["train", str(path), "--out", str(tmp_path / "m.json")],
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "latin.csv: not UTF-8 text" in result.stderr

    def test_unknown_flag_exits_2(self, runner, toy_csv):
        result = runner.invoke(main, ["train", toy_csv, "--bogus"])
        assert result.exit_code == 2

    def test_config_line_logged_with_seed(self, runner, toy_csv, tmp_path):
        result = runner.invoke(
            main, ["train", toy_csv, "--out", str(tmp_path / "m.json"),
                   "--features-out", str(tmp_path / "f.csv")],
        )
        assert result.exit_code == 0
        line = next(l for l in result.stderr.splitlines() if l.startswith("config:"))
        cfg = json.loads(line.removeprefix("config:"))
        assert cfg["command"] == "train"
        assert isinstance(cfg["seed"], int)

    def test_rerun_reproduces_outputs_bit_exactly(self, runner, wide_csv, tmp_path):
        args = ["train", wide_csv, "--seed", "77", "--penalty", "bic"]
        paths = []
        for tag in ("one", "two"):
            m = tmp_path / f"{tag}.json"
            f = tmp_path / f"{tag}.csv"
            result = runner.invoke(
                main, args + ["--out", str(m), "--features-out", str(f)]
            )
            assert result.exit_code == 0
            paths.append((m, f))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_user_scheme(self, runner, wide_csv, tmp_path):
        smat = tmp_path / "s.csv"
        smat.write_text("1,1\n1,2\n1,2\n")
        result = runner.invoke(
            main, ["train", wide_csv, "--scheme", f"user:{smat}", "--seed", "1",
                   "--out", str(tmp_path / "m.json"),
                   "--features-out", str(tmp_path / "f.csv")],
        )
        assert result.exit_code == 0, result.output
        assert "M=2" in result.output


class TestPredict:
    def fitted(self, runner, csv_path, tmp_path):
        model_path = tmp_path / "m.json"
        result = runner.invoke(
            main, ["train", csv_path, "--out", str(model_path), "--seed", "1",
                   "--features-out", str(tmp_path / "f.csv")],
        )
        assert result.exit_code == 0
        return model_path

    def test_resubstitution_recovers_labels(self, runner, toy_csv, tmp_path):
        model_path = self.fitted(runner, toy_csv, tmp_path)
        out = tmp_path / "p.csv"
        result = runner.invoke(
            main, ["predict", toy_csv, "--model", str(model_path),
                   "--out", str(out), "--seed", "1"],
        )
        assert result.exit_code == 0, result.output
        rows = read_csv(out)
        assert rows[0] == ["label", "prob_a", "prob_b"]
        assert [r[0] for r in rows[1:]] == ["a", "a", "b", "b"]
        for r in rows[1:]:
            assert float(r[1]) + float(r[2]) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_column_count_exits_2(self, runner, toy_csv, tmp_path):
        model_path = self.fitted(runner, toy_csv, tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n1,2\n")
        result = runner.invoke(
            main, ["predict", str(bad), "--model", str(model_path), "--seed", "1"],
        )
        assert result.exit_code == 2
        assert "p=1" in result.stderr

    def test_unlabeled_query(self, runner, toy_csv, tmp_path):
        model_path = self.fitted(runner, toy_csv, tmp_path)
        q = tmp_path / "q.csv"
        q.write_text("x1\n0\n6\n")
        out = tmp_path / "p.csv"
        result = runner.invoke(
            main, ["predict", str(q), "--model", str(model_path),
                   "--out", str(out), "--seed", "1"],
        )
        assert result.exit_code == 0
        rows = read_csv(out)
        assert [r[0] for r in rows[1:]] == ["a", "b"]


    # ids name the fitted quantity that the edited statistic feeds
    @pytest.mark.parametrize("field, value", [("class_means", float("nan")),
                                              ("class_m2", float("inf"))],
                             ids=["mu-nan", "sigma2-inf"])
    def test_non_finite_model_exits_2(self, runner, toy_csv, tmp_path, field, value):
        model_path = self.fitted(runner, toy_csv, tmp_path)
        doc = json.loads(model_path.read_text())
        doc[field][1][0] = value
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        result = runner.invoke(
            main, ["predict", toy_csv, "--model", str(model_path),
                   "--out", str(out), "--seed", "1"],
        )
        assert result.exit_code == 2, result.output
        assert f"{field} holds a non-finite value" in result.stderr
        assert not out.exists()

    def test_overflowing_model_exits_3(self, runner, toy_csv, tmp_path):
        # every value is finite; the score of the first query row overflows
        model_path = self.fitted(runner, toy_csv, tmp_path)
        query = tmp_path / "q.csv"
        query.write_text("x1\n1e200\n6\n")
        out = tmp_path / "p.csv"
        result = runner.invoke(
            main, ["predict", str(query), "--model", str(model_path),
                   "--out", str(out), "--seed", "1"],
        )
        assert result.exit_code == 3, result.output
        assert "query row 1" in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        {"K": 0, "S": []},
        {"S": [[1, 1.5], [1, 2]]},
        {"S": [[1, "1"], [1, 2]]},
        {"n": "abc"},
        {"class_counts": "x"},
        {"class_means": [["a"], [5.0]]},
        {"class_m2": [1.0]},
        {"class_label_map": ["a", "a"]},
        {"scheme": ""},
    ], ids=["K0", "S-float", "S-str", "n-str", "pi-str", "mu-str", "m2-1d",
            "labels-repeated", "scheme-empty"])
    def test_malformed_model_exits_2(self, runner, toy_csv, tmp_path, edit):
        model_path = self.fitted(runner, toy_csv, tmp_path)
        doc = json.loads(model_path.read_text())
        doc.update(edit)
        model_path.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["predict", toy_csv, "--model", str(model_path), "--seed", "1"],
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "m.json" in result.stderr


class TestCv:
    def test_table_shape(self, runner, wide_csv, tmp_path):
        out = tmp_path / "cv.csv"
        result = runner.invoke(
            main, ["cv", wide_csv, "--folds", "5", "--trials", "4",
                   "--seed", "2", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        rows = read_csv(out)
        assert rows[0] == ["trial", "fold", "n_test", "n_wrong", "error"]
        assert len(rows) == 1 + 20

    def test_mean_reported(self, runner, wide_csv, tmp_path):
        result = runner.invoke(
            main, ["cv", wide_csv, "--folds", "3", "--trials", "2",
                   "--seed", "2", "--out", str(tmp_path / "cv.csv")],
        )
        assert result.exit_code == 0
        assert "mean error" in result.output


class TestSimulate:
    def test_consistency_rows(self, runner, tmp_path):
        out = tmp_path / "cons.csv"
        result = runner.invoke(
            main, ["simulate", "--scenario", "fs-consistency", "--p", "100",
                   "--k", "3", "--n-grid", "40,80", "--replicates", "2",
                   "--seed", "4", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        rows = read_csv(out)
        assert rows[0][:4] == ["n", "p", "K", "replicate"]
        assert len(rows) == 1 + 4

    def test_default_replicates_is_20(self, runner, tmp_path):
        out = tmp_path / "cons.csv"
        result = runner.invoke(
            main, ["simulate", "--scenario", "fs-consistency", "--p", "50",
                   "--k", "2", "--n-grid", "30", "--seed", "4", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert len(read_csv(out)) == 1 + 20

    def test_prediction_scenario(self, runner, tmp_path):
        out = tmp_path / "dep.csv"
        result = runner.invoke(
            main, ["simulate", "--scenario", "ind-equal-var", "--n", "40",
                   "--p", "30", "--k", "2", "--trials", "2", "--folds", "4",
                   "--seed", "4", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        rows = read_csv(out)
        assert rows[0][0] == "scenario"
        assert len(rows) == 1 + 8

    def test_bad_grid_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["simulate", "--scenario", "fs-consistency",
                   "--n-grid", "a,b", "--seed", "1", "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2


class TestPartitions:
    def test_k3_exhaustive_matrices(self, runner):
        result = runner.invoke(main, ["partitions", "--k", "3"])
        assert result.exit_code == 0
        out = result.output
        assert "scheme=exhaustive K=3 M=5" in out
        # canonical S rows
        assert "1,1,1,1,1\n1,1,2,2,2\n1,2,1,2,3" in out
        # allocation matrix for the canonical ordering
        assert "1,2,4,6,8\n1,2,5,7,9\n1,3,4,7,10" in out
        assert "nu: 0,1,1,1,2" in out
        assert "z: 1,3,5,7,10" in out

    def test_unequal_doubles_nu(self, runner):
        result = runner.invoke(
            main, ["partitions", "--k", "3", "--variance", "unequal"]
        )
        assert "nu: 0,2,2,2,4" in result.output

    def test_guard_exits_2(self, runner):
        result = runner.invoke(main, ["partitions", "--k", "14"])
        assert result.exit_code == 2
        assert "Bell" in result.stderr


class TestFilter:
    def test_zero_mad(self, runner, tmp_path):
        src = tmp_path / "d.csv"
        src.write_text(
            "label,c,v\na,5,1\na,5,2\nb,5,9\nb,5,8\n"
        )
        out = tmp_path / "filtered.csv"
        idx = tmp_path / "idx.csv"
        result = runner.invoke(
            main, ["filter", str(src), "--rule", "zero-mad",
                   "--out", str(out), "--indices-out", str(idx)],
        )
        assert result.exit_code == 0, result.output
        assert "kept 1 of 2" in result.output
        rows = read_csv(out)
        assert rows[0] == ["label", "v"]
        assert read_csv(idx)[1] == ["1", "2", "v"]

    def test_unknown_rule_exits_2(self, runner, tmp_path):
        src = tmp_path / "d.csv"
        src.write_text("label,v\na,1\nb,2\n")
        result = runner.invoke(main, ["filter", str(src), "--rule", "bogus"])
        assert result.exit_code == 2
