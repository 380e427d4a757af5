import csv
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import click
import numpy as np
import pytest
from click.testing import CliRunner

from multida import cli, data_io, estimator
from multida.cli import main
from multida.data_io import load_class_stats, load_dataset, load_model, save_model
from multida.estimator import (SufficientStats, cross_validate, fit, predict,
                               selected_features)
from multida.simlab import SimSpec, consistency_sweep, generate
from oracles import decode_rows, edit_rows, encode_rows


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

    def test_overflowing_statistics_exit_3(self, runner, tmp_path):
        # squared deviations of the 1e200-scale column overflow
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 3))
        X[:, 1] *= 1e200
        lines = ["label,x1,x2,x3"] + [
            f"{lab}," + ",".join(repr(float(v)) for v in row)
            for lab, row in zip(np.repeat(["a", "b", "c"], 10), X)
        ]
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(lines) + "\n")
        model_path = tmp_path / "m.json"
        feats_path = tmp_path / "f.csv"
        result = runner.invoke(
            main, ["train", str(path), "--out", str(model_path),
                   "--features-out", str(feats_path), "--seed", "1"],
        )
        assert result.exit_code == 3, result.output
        assert "numeric failure" in result.stderr
        assert "'x2'" in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert not model_path.exists()
        assert not feats_path.exists()

    @pytest.mark.parametrize("threshold", ["0", "1.5"])
    def test_bad_threshold_writes_nothing(self, runner, toy_csv, tmp_path, threshold):
        model_path = tmp_path / "m.json"
        feats_path = tmp_path / "f.csv"
        result = runner.invoke(
            main, ["train", toy_csv, "--out", str(model_path), "--features-out",
                   str(feats_path), "--threshold", threshold, "--seed", "1"],
        )
        assert_one_error_line(result, "threshold must lie in (0, 1]")
        assert not model_path.exists()
        assert not feats_path.exists()

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

    # the file is read as every CSV is, so a bad cell is named by row and
    # column, and S's entries are checked as build_partition_set checks
    # them, naming the file
    @pytest.mark.parametrize("content, message", [
        (None, "--scheme user:<path> needs a file path"),
        ("1,1\n1,2\n1,x\n", "{path}: non-numeric cell 'x' at row 3, column x2"),
        ("1,1\n1,2\n1,2.5\n",
         "{path}: user partition matrix entry 2.5 at row 3, column 2 is not an integer"),
        ("1,1\n1\n1,2\n", "{path}: row 2 has 1 cells, expected 2"),
        ("# S\n1,1\n1,2\n1,2\n", "{path}: non-numeric cell '# S' at row 1, column x1"),
        ("1,1\n1,nan\n1,2\n", "{path}: non-finite cell 'nan' at row 2, column x2"),
    ], ids=["no-path", "text-cell", "float-cell", "ragged", "comment", "nan-cell"])
    def test_bad_user_scheme_exits_2(self, runner, wide_csv, tmp_path, content, message):
        path = ""
        if content is not None:
            path = tmp_path / "s.csv"
            path.write_text(content)
        out = tmp_path / "m.json"
        result = runner.invoke(
            main, ["train", wide_csv, "--scheme", f"user:{path}", "--seed", "1",
                   "--out", str(out), "--features-out", str(tmp_path / "f.csv")],
        )
        assert_one_error_line(result, message.format(path=path))
        assert result.stderr.splitlines()[1] == "error: " + message.format(path=path)
        assert not out.exists()

    def test_integral_float_user_scheme_reads_as_integers(self, runner, wide_csv, tmp_path):
        models = []
        for name, text in (("int", "1,1\n1,2\n1,2\n"), ("float", "1.0,1\n1,2.0\n1,2e0\n")):
            smat, model = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            smat.write_text(text)
            result = runner.invoke(main, ["train", wide_csv, "--scheme", f"user:{smat}",
                                          "--seed", "1", "--out", str(model),
                                          "--features-out", str(tmp_path / f"{name}_f.csv")])
            assert result.exit_code == 0, result.output
            models.append(model.read_bytes())
        assert models[0] == models[1]

    def test_user_scheme_with_byte_order_mark(self, runner, wide_csv, tmp_path):
        # spreadsheets' "CSV UTF-8" export starts the file with one
        outputs = []
        for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            smat, model = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            smat.write_bytes(bom + b"1,1\n1,2\n1,2\n")
            listing = runner.invoke(main, ["partitions", "--k", "3", "--scheme", f"user:{smat}"])
            assert listing.exit_code == 0, listing.output
            result = runner.invoke(main, ["train", wide_csv, "--scheme", f"user:{smat}",
                                          "--seed", "1", "--out", str(model),
                                          "--features-out", str(tmp_path / "f.csv")])
            assert result.exit_code == 0, result.output
            outputs.append((listing.stdout, model.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_empty_user_scheme_exits_2_without_a_warning(self, runner, wide_csv, tmp_path):
        # pytest records warnings, so one turned into an error shows here
        path = tmp_path / "s.csv"
        path.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(
                main, ["train", wide_csv, "--scheme", f"user:{path}", "--seed", "1",
                       "--out", str(tmp_path / "m.json"),
                       "--features-out", str(tmp_path / "f.csv")])
        assert_one_error_line(result, f"{path}: file is empty")
        assert result.stderr.splitlines()[1] == f"error: {path}: file is empty"

    def test_train_fits_through_the_cli_name_once(self, runner, wide_csv, tmp_path):
        # a tracer wraps cli.fit, so train must look its one fit up there
        with mock.patch.object(cli, "fit", wraps=cli.fit) as fits:
            result = runner.invoke(main, ["train", wide_csv, "--seed", "1",
                                          "--out", str(tmp_path / "m.json"),
                                          "--features-out", str(tmp_path / "f.csv")])
        assert result.exit_code == 0, result.output
        assert fits.call_count == 1
        assert isinstance(fits.call_args.args[0], SufficientStats)

    # a bad option is refused before the training CSV is opened, by the
    # check the fit or the selection would make after reading it
    @pytest.mark.parametrize("args, s_file, message", [
        (["--penalty", "bogus"], None, "unknown penalty 'bogus'"),
        (["--penalty", "custom:-1"], None, "penalty constant must be finite and >= 0"),
        (["--threshold", "0"], None, "threshold must lie in (0, 1]"),
        (["--threads", "-1"], None, "threads must be >= 0"),
        (["--scheme", "bogus"], None, "unknown scheme 'bogus'"),
        ([], "1,1\n1,2\n1,2.5\n",
         "{path}: user partition matrix entry 2.5 at row 3, column 2 is not an integer"),
        ([], "1,1\n1,2\n1,1.5\n1,2\n",  # four rows for three classes: the entry goes first
         "{path}: user partition matrix entry 1.5 at row 3, column 2 is not an integer"),
    ], ids=["penalty", "custom-negative", "threshold", "threads", "scheme", "s-fraction",
            "s-fraction-and-rows"])
    def test_bad_option_refused_before_the_csv_is_read(self, runner, wide_csv, tmp_path,
                                                       args, s_file, message):
        path = tmp_path / "s.csv"
        if s_file is not None:
            path.write_text(s_file)
            args = ["--scheme", f"user:{path}"]
        out = tmp_path / "m.json"
        with mock.patch.object(cli, "load_class_stats") as ingest:
            result = runner.invoke(main, ["train", wide_csv, "--seed", "1", "--out", str(out),
                                          "--features-out", str(tmp_path / "f.csv"), *args])
        assert not ingest.called
        assert_one_error_line(result, message.format(path=path))
        assert not out.exists()

    def test_s_row_count_waits_for_the_classes(self, runner, wide_csv, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,1\n1,2\n")
        with mock.patch.object(cli, "load_class_stats", wraps=cli.load_class_stats) as ingest:
            result = runner.invoke(main, ["train", wide_csv, "--seed", "1",
                                          "--scheme", f"user:{path}",
                                          "--out", str(tmp_path / "m.json"),
                                          "--features-out", str(tmp_path / "f.csv")])
        assert ingest.call_count == 1
        assert_one_error_line(result, "user partition matrix has 2 rows, expected K=3")


def test_train_predict_and_cv_derive_no_gamma(runner, wide_csv, tmp_path, no_gamma):
    model, features = str(tmp_path / "m.json"), tmp_path / "f.csv"
    result = runner.invoke(main, ["train", wide_csv, "--seed", "1", "--out", model,
                                  "--features-out", str(features)])
    assert result.exit_code == 0, result.output
    assert "features with non-null argmax: 1" in result.output
    assert read_csv(features)[1][0] == "g0"
    result = runner.invoke(main, ["predict", wide_csv, "--model", model, "--seed", "1",
                                  "--out", str(tmp_path / "p.csv")])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["cv", wide_csv, "--folds", "2", "--trials", "1",
                                  "--seed", "1", "--out", str(tmp_path / "cv.csv")])
    assert result.exit_code == 0, result.output


class TestStreamedTrain:
    """``train`` streams its CSV into class statistics: a class that folds
    once has the bits of ``fit(load_dataset(path))``, a class that folds
    again agrees within rounding, and no n x p matrix is held."""

    @pytest.fixture
    def rows(self):
        # 4 classes of 30 rows, in contiguous runs as simlab draws them
        data, _ = generate(SimSpec("ind-equal-var", n=120, p=60, K=4, mean_shift=2.0,
                                   seed=11))
        return data

    @staticmethod
    def write(path, data, order):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", *data.feature_names])
            for i in order:
                writer.writerow([data.class_labels[data.y[i] - 1],
                                 *map(repr, data.X[i].tolist())])
        return str(path)

    @staticmethod
    def train(runner, path, out, *args):
        model, features = out / "m.json", out / "f.csv"
        result = runner.invoke(main, ["train", path, "--seed", "1", "--out", str(model),
                                      "--features-out", str(features), *args])
        assert result.exit_code == 0, result.output
        return model, features

    @pytest.fixture
    def folds(self, monkeypatch):
        """The row count of every fold, with the reader handing over one
        line at a time."""
        calls = []

        def fold(x, *args, _fold=estimator._fold):
            calls.append(len(x))
            return _fold(x, *args)

        monkeypatch.setattr(data_io, "_CHUNK_CHARS", 1)
        monkeypatch.setattr(estimator, "_fold", fold)
        return calls

    def test_contiguous_runs_give_the_library_fit(self, runner, rows, tmp_path, folds,
                                                  monkeypatch):
        # a run of 30 rows fits the limit of 31 rows, so each class folds
        # once, when the next class's rows push the rows held over it
        monkeypatch.setattr(estimator, "_BLOCK_BYTES", 31 * rows.p * 8)
        path = self.write(tmp_path / "runs.csv", rows, range(rows.n))
        model, features = self.train(runner, path, tmp_path)
        assert folds == [30, 30, 30, 30]
        ref = fit(load_dataset(path))
        save_model(ref, tmp_path / "ref.json")
        assert model.read_bytes() == (tmp_path / "ref.json").read_bytes()
        assert read_csv(features)[1:] == [
            [name, str(m), ref.parts.column_label(m), repr(w)]
            for name, m, w in selected_features(ref)]

    def test_class_statistics_fit_as_the_data_set(self, rows, tmp_path, folds):
        path = self.write(tmp_path / "runs.csv", rows, range(rows.n))
        stats = load_class_stats(path)
        assert folds == [30, 30, 30, 30]
        streamed, ref = fit(stats), fit(load_dataset(path))
        save_model(streamed, tmp_path / "streamed.json")
        save_model(ref, tmp_path / "ref.json")
        assert (tmp_path / "streamed.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
        assert selected_features(streamed) == selected_features(ref)
        assert len(selected_features(ref)) > 5

    @pytest.mark.parametrize("scheme", ["exhaustive", "onevsrest"])
    def test_interleaved_labels_select_the_same(self, runner, rows, tmp_path, folds,
                                                monkeypatch, scheme):
        # rows dealt out class by class keep the order in which the labels
        # first appear; a limit of 3 rows folds each class many times
        monkeypatch.setattr(estimator, "_BLOCK_BYTES", 3 * rows.p * 8)
        dealt = np.arange(rows.n).reshape(4, 30).T.ravel()
        outputs = []
        for name, order in (("runs", range(rows.n)), ("dealt", dealt)):
            (tmp_path / name).mkdir()
            path = self.write(tmp_path / name / "train.csv", rows, order)
            outputs.append(self.train(runner, path, tmp_path / name, "--scheme", scheme))
        assert len(folds) > 3 * 4
        (model_a, features_a), (model_b, features_b) = outputs
        assert [row[:2] for row in read_csv(features_a)] == \
            [row[:2] for row in read_csv(features_b)]
        assert len(read_csv(features_a)) > 5
        a, b = load_model(model_a), load_model(model_b)
        assert a.class_labels == b.class_labels
        assert np.array_equal(a.top, b.top)
        pa, pb = predict(a, rows.X), predict(b, rows.X)
        assert pa.labels == pb.labels
        assert np.abs(pa.probabilities - pb.probabilities).max() <= 1e-12

    def test_peak_is_below_one_data_matrix(self, runner, tmp_path):
        # 400 x 2000 values (6.4 MB as floats), over the 2 MiB row limit,
        # with labels dealt out so every class folds several times
        import tracemalloc

        n, p = 400, 2000
        rng = np.random.default_rng(5)
        y = np.arange(n) % 4
        X = rng.normal(size=(n, p)) + 0.5 * y[:, None] * (np.arange(p) < 50)
        path = tmp_path / "big.csv"
        np.savetxt(path, np.column_stack([y, X]), fmt=["%d"] + ["%.17g"] * p, delimiter=",",
                   header="label," + ",".join(f"x{j}" for j in range(p)), comments="")
        tracemalloc.start()
        try:
            self.train(runner, str(path), tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * p * 8


class TestNoHeader:
    """A headerless file reads as the same file with the header
    ``label,x1..xp``: the label named by index, the features x1..xp."""

    @pytest.fixture
    def files(self, tmp_path):
        rng = np.random.default_rng(3)
        y = np.repeat(["a", "b", "c"], 12)
        X = rng.normal(size=(36, 5))
        X[:, 1] += 2.0 * np.repeat([0, 1, 2], 12)
        X[:, 4] = 7.0  # no spread, so zero-mad drops it
        names = ",".join(f"x{j + 1}" for j in range(5))
        features = [",".join(repr(float(v)) for v in row) for row in X]
        rows = [f"{label},{f}" for label, f in zip(y, features)]
        paths = {}
        for tag, lines in (("headed", [f"label,{names}", *rows]), ("bare", rows),
                           ("query", [names, *features]), ("bare-query", features)):
            paths[tag] = tmp_path / f"{tag}.csv"
            paths[tag].write_text("\n".join(lines) + "\n")
        return paths

    def run(self, runner, *args):
        result = runner.invoke(main, list(map(str, args)))
        assert result.exit_code == 0, result.output

    def test_train_predict_filter_match_headed(self, runner, files, tmp_path):
        out = {}
        for tag, data, query, flags in (
                ("headed", files["headed"], files["query"], []),
                ("bare", files["bare"], files["bare-query"], ["--no-header"])):
            model = tmp_path / f"{tag}.json"
            self.run(runner, "train", data, *flags, "--label-col",
                     "0" if flags else "label", "--out", model,
                     "--features-out", tmp_path / f"{tag}-f.csv", "--seed", "1")
            self.run(runner, "predict", query, *flags, "--model", model,
                     "--out", tmp_path / f"{tag}-p.csv", "--seed", "1")
            self.run(runner, "filter", data, *flags, "--label-col",
                     "0" if flags else "label", "--rule", "zero-mad",
                     "--out", tmp_path / f"{tag}-kept.csv")
            out[tag] = [(tmp_path / name).read_bytes() for name in
                        (f"{tag}.json", f"{tag}-f.csv", f"{tag}-p.csv", f"{tag}-kept.csv")]
        assert out["bare"] == out["headed"]
        assert read_csv(tmp_path / "bare-kept.csv")[0] == ["label", "x1", "x2", "x3", "x4"]
        assert len(read_csv(tmp_path / "bare-p.csv")) == 1 + 36

    def test_label_by_name_needs_a_header(self, runner, files, tmp_path):
        out = tmp_path / "m.json"
        result = runner.invoke(
            main, ["train", str(files["bare"]), "--no-header", "--seed", "1",
                   "--out", str(out)],
        )
        assert_one_error_line(result, "label column referenced by name requires a header row")
        assert not out.exists()


GOOD = "label,x1,x2\na,0,1\na,2,3\nb,4,5\nb,6,7\n"


def _python(*args, env=None):
    """``python`` with ``args`` and this checkout's ``src`` on the path, in a
    real process; ``env`` adds to the environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def run_cli(*args, env=None):
    """``python -m multida.cli`` with ``args``, in a real process."""
    return _python("-m", "multida.cli", *args, env=env)


def test_import_leaves_thread_pool_unloaded():
    """Only predict's worker pool needs ``concurrent.futures``, so starting
    the CLI does not import it; nothing logs, so neither is ``logging``."""
    result = _python("-c", "import sys, multida.cli; "
                           "print('concurrent.futures' in sys.modules, "
                           "'logging' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False False\n"


def assert_one_error_line(result, message):
    """Exit 2 with the ``config:`` line and one ``error:`` line on stderr,
    so no traceback (exit 1) or warning got out.  ``result`` is a finished
    process or a ``CliRunner`` result."""
    code = (result.returncode if isinstance(result, subprocess.CompletedProcess)
            else result.exit_code)
    assert code == 2, result.stderr
    lines = result.stderr.splitlines()
    assert lines[0].startswith("config: ")
    assert len(lines) == 2
    assert lines[1].startswith(f"error: {message}")


def assert_no_such_option(result, option):
    """Exit 2 from click's refusal of an option the command does not take:
    the command never ran, so stderr carries no ``config:`` line."""
    assert result.exit_code == 2, result.stderr
    assert "config: " not in result.stderr
    assert f"No such option '{option}'" in result.stderr


#: a process whose locale encoding is ASCII (the C locale, with neither
#: UTF-8 mode nor locale coercion), and in which an ``open`` that falls
#: back on the locale's encoding raises
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
                "PYTHONWARNDEFAULTENCODING": "1", "PYTHONWARNINGS": "error::EncodingWarning"}


class TestTextEncoding:
    """The CLI reads and writes every text file as UTF-8, whatever the
    locale."""

    @pytest.mark.parametrize("command", ["train", "predict", "partitions", "simulate",
                                         "partitions-user"])
    def test_ascii_locale(self, tmp_path, command):
        data = tmp_path / "d.csv"
        data.write_text("label,é1,x2\n" + "".join(
            f"{'ab'[i % 2]},{4.0 * (i % 2) + i / 20},{i % 3}\n" for i in range(20)),
            encoding="utf-8")
        model, out, smat = tmp_path / "m.json", tmp_path / "out.txt", tmp_path / "s.csv"
        save_model(fit(load_dataset(data)), model)
        smat.write_text("1,1\n1,2\n1,2\n")
        args = {
            "train": ["train", data, "--out", model, "--features-out", out, "--seed", "1"],
            "predict": ["predict", data, "--model", model, "--out", out, "--seed", "1"],
            "partitions": ["partitions", "--k", "3", "--out", out],
            "simulate": ["simulate", "--scenario", "ind-equal-var", "--n", "40", "--p", "20",
                         "--k", "3", "--folds", "2", "--trials", "1", "--seed", "1",
                         "--out", out],
            "partitions-user": ["partitions", "--k", "3", "--scheme", f"user:{smat}",
                                "--out", out],
        }[command]
        result = run_cli(*args, env=ASCII_LOCALE)
        assert result.returncode == 0, result.stderr
        text = out.read_text(encoding="utf-8")
        if command == "train":
            assert text.splitlines()[1].startswith("é1,")


class TestBadCsvSubprocess:
    """Bad CSVs end as one ``error:`` line and exit 2 in a real process,
    where a traceback would exit 1 and a warning would reach stderr."""

    @pytest.mark.parametrize("content, message", [
        (b"label,x1,x2\na,0,1\na,NA,3\nb,4,5\n",
         "non-numeric cell 'NA' at row 3, column x1"),
        (b"label,x1,x2\na,0,1\na,2,3\nb,4,1e400\n",
         "non-finite cell '1e400' at row 4, column x2"),
        (b"label,x1,x2\na,0,1\na,2,3,9\nb,4,5\n", "row 3 has 4 cells, expected 3"),
        (b"label,x1,x2\na,0,1\na,2,\xff\nb,4,5\n", "not UTF-8 text ("),
        (b"label,x1,x2\n\n", "no data rows"),
        (b"label,x1\na,\nb,\n", "non-numeric cell '' at row 2, column x1"),
        (b"label,g0,g0\na,0,1\nb,4,5\n", "repeated feature names in the header: ['g0']"),
    ], ids=["missing", "overflow", "ragged", "non-utf8", "empty-body", "empty-cells", "repeated"])
    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_bad_csv_exits_2(self, tmp_path, command, content, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        if command == "train":
            args = ["train", path, "--out", tmp_path / "m.json",
                    "--features-out", tmp_path / "f.csv", "--seed", "1"]
        else:
            good = tmp_path / "good.csv"
            good.write_text(GOOD)
            model = tmp_path / "m.json"
            save_model(fit(load_dataset(good)), model)
            args = ["predict", path, "--model", model, "--out", tmp_path / "p.csv",
                    "--seed", "1"]
        assert_one_error_line(run_cli(*args), f"{path}: {message}")
        assert not (tmp_path / ("m.json" if command == "train" else "p.csv")).exists()


class TestBadModelSubprocess:
    """Mutated model documents end as one ``error:`` line and exit 2 in a
    real process."""

    @pytest.mark.parametrize("mutate, message", [
        (lambda doc: edit_rows(doc, "class_means",
                               lambda v: [[1e308] + v[0][1:], [-1e308] + v[1][1:]]),
         "invariant violation: mu holds a non-finite value for feature 'x1'"),
        (lambda doc: edit_rows(doc, "class_m2", lambda v: [[1e308] + row[1:] for row in v]),
         "invariant violation: gamma holds a non-finite value for feature 'x1'"),
        (None, "not a valid model document"),
        (lambda doc: {**doc, "class_m2": [row[:4] + "!" + row[4:] for row in doc["class_m2"]]},
         "model field 'class_m2' row 1 is not base64"),
    ], ids=["means-overflow", "m2-overflow", "truncated", "m2-not-base64"])
    def test_bad_model_exits_2(self, tmp_path, mutate, message):
        query = tmp_path / "q.csv"
        query.write_text(GOOD)
        model = tmp_path / "m.json"
        save_model(fit(load_dataset(query)), model)
        text = model.read_text()
        model.write_text(json.dumps(mutate(json.loads(text))) if mutate
                         else text[:len(text) // 2])
        out = tmp_path / "p.csv"
        result = run_cli("predict", query, "--model", model, "--out", out, "--seed", "1")
        assert_one_error_line(result, f"{model}: {message}")
        assert not out.exists()


@pytest.mark.parametrize("delimiter", ["ab", ""])
@pytest.mark.parametrize("command", ["train", "predict", "cv", "filter"])
def test_delimiter_not_one_character_exits_2(runner, toy_csv, tmp_path, command, delimiter):
    model = tmp_path / "m.json"
    save_model(fit(load_dataset(toy_csv)), model)
    out = tmp_path / "out.csv"
    args = {
        "train": ["train", toy_csv, "--out", out, "--features-out", tmp_path / "f.csv"],
        "predict": ["predict", toy_csv, "--model", model, "--out", out],
        "cv": ["cv", toy_csv, "--out", out],
        "filter": ["filter", toy_csv, "--rule", "zero-mad", "--out", out],
    }[command]
    seed = [] if command == "filter" else ["--seed", "1"]
    result = runner.invoke(main, [*map(str, args), *seed, "--delimiter", delimiter])
    assert result.exit_code == 2, result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 2 and lines[0].startswith("config: ")
    assert lines[1] == f"error: delimiter must be one character, got {delimiter!r}"
    assert not out.exists()


@pytest.mark.parametrize("delimiter", ["\n", "\r"])
def test_line_break_delimiter_exits_2(runner, toy_csv, tmp_path, delimiter):
    out = tmp_path / "out.csv"
    result = runner.invoke(main, ["filter", str(toy_csv), "--rule", "zero-mad",
                                  "--out", str(out), "--delimiter", delimiter])
    assert_one_error_line(result, "delimiter must be one character other than a "
                                  f"line break, got {delimiter!r}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "cv", "filter"])
def test_quote_delimiter_exits_2(runner, tmp_path, command):
    # csv.writer splits a row on '"' into a file whose quoting reads back as
    # other cells: a 5 x 3 table with labels "" and '"' read back 5 x 1
    csv_path, out = tmp_path / "quoted.csv", tmp_path / "out.csv"
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh, delimiter='"').writerows(
            [["0", "", "", ""], *([label, *map(repr, row.tolist())] for label, row in
                                  zip(["", '"', "", "", ""], np.arange(15.0).reshape(5, 3)))])
    args = {
        "train": ["train", csv_path, "--out", out, "--features-out", tmp_path / "f.csv"],
        "cv": ["cv", csv_path, "--out", out],
        "filter": ["filter", csv_path, "--rule", "zero-mad", "--out", out],
    }[command]
    result = runner.invoke(main, [*map(str, args), "--label-col", "0", "--delimiter", '"'])
    assert_one_error_line(result, "delimiter must be a character other than the quote '\"'")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "predict", "cv", "simulate", "consistency",
                                     "partitions", "filter"])
def test_config_line_carries_every_parameter(runner, toy_csv, wide_csv, tmp_path,
                                             command):
    model = tmp_path / "m.json"
    save_model(fit(load_dataset(toy_csv)), model)
    out = tmp_path / "out.csv"
    args = {
        "train": ["train", toy_csv, "--out", out, "--features-out", tmp_path / "f.csv"],
        "predict": ["predict", toy_csv, "--model", model, "--out", out],
        "cv": ["cv", wide_csv, "--folds", "2", "--trials", "1", "--out", out],
        "simulate": ["simulate", "--scenario", "ind-equal-var", "--n", "20", "--p", "6",
                     "--k", "2", "--folds", "2", "--trials", "1", "--out", out],
        "consistency": ["consistency", "--n-grid", "30", "--replicates", "1", "--p", "20",
                        "--k", "2", "--out", out],
        "partitions": ["partitions", "--k", "3", "--out", out],
        "filter": ["filter", toy_csv, "--rule", "zero-mad", "--out", out],
    }[command]
    result = runner.invoke(main, list(map(str, args)))
    assert result.exit_code == 0, result.output
    first = result.stderr.splitlines()[0]
    assert first.startswith("config: ")
    cfg = json.loads(first.removeprefix("config: "))
    assert cfg["command"] == command
    assert set(cfg) == {"command"} | {p.name for p in main.commands[command].params}


def _valid_runs(tmp_path):
    """The arguments of a run of each command that exits 0, and every file
    those runs write; each writes the first, ``out.csv``."""
    data = tmp_path / "d.csv"
    data.write_text("label,x1,x2\n" + "".join(
        f"{'abc'[i % 3]},{i % 3 + i / 50},{i % 5}\n" for i in range(30)))
    model, out = tmp_path / "m.json", tmp_path / "out.csv"
    save_model(fit(load_dataset(data)), model)
    seed = ["--seed", "1"]
    runs = {
        "train": ["train", data, "--out", out, "--features-out", tmp_path / "f.csv", *seed],
        "predict": ["predict", data, "--model", model, "--out", out, *seed],
        "cv": ["cv", data, "--folds", "2", "--trials", "1", "--out", out, *seed],
        # a dependent scenario reads --block-size and --block-density
        "simulate": ["simulate", "--scenario", "dep-equal-cov", "--n", "20", "--p", "20",
                     "--k", "2", "--folds", "2", "--trials", "1", "--out", out, *seed],
        "consistency": ["consistency", "--n-grid", "30", "--replicates", "1", "--p", "20",
                        "--k", "2", "--out", out, *seed],
        "partitions": ["partitions", "--k", "3", "--out", out],
        "filter": ["filter", data, "--rule", "zero-mad", "--out", out,
                   "--indices-out", tmp_path / "i.csv"],
    }
    outputs = [out, tmp_path / "f.csv", tmp_path / "i.csv"]
    return {c: list(map(str, args)) for c, args in runs.items()}, outputs


#: every option of every command, with an invalid value for each that has
#: one (``None``: a flag, which has no value)
OPTIONS = {
    "train": {"--out": "DIR", "--features-out": "DIR", "--threshold": "0",
              "--penalty": "bogus", "--variance": "bogus", "--prior-term": "bogus",
              "--scheme": "bogus", "--label-col": "nope", "--no-header": None,
              "--delimiter": "ab", "--seed": "x", "--threads": "-1"},
    "predict": {"--model": "MISSING", "--out": "DIR", "--label-col": "nope",
                "--no-header": None, "--delimiter": "ab", "--seed": "x", "--threads": "-1"},
    "cv": {"--folds": "1", "--trials": "0", "--out": "DIR", "--penalty": "bogus",
           "--variance": "bogus", "--prior-term": "bogus", "--scheme": "bogus",
           "--label-col": "nope", "--no-header": None, "--delimiter": "ab", "--seed": "x",
           "--threads": "-1"},
    "simulate": {"--scenario": "bogus", "--n": "1", "--p": "0", "--k": "1",
                 "--frac": "2", "--folds": "1", "--trials": "0", "--mean-shift": "nan",
                 "--variance-scale": "nan", "--block-size": "0", "--block-density": "2",
                 "--out": "DIR", "--penalty": "bogus", "--variance": "bogus",
                 "--prior-term": "bogus", "--scheme": "bogus", "--seed": "x",
                 "--threads": "-1"},
    "consistency": {"--n-grid": "a", "--replicates": "0", "--p": "0", "--k": "1",
                    "--frac": "2", "--mean-shift": "inf", "--out": "DIR",
                    "--penalty": "bogus", "--variance": "bogus", "--prior-term": "bogus",
                    "--seed": "x"},
    "partitions": {"--k": "0", "--scheme": "bogus", "--variance": "bogus", "--out": "DIR"},
    "filter": {"--rule": "bogus", "--out": "DIR", "--indices-out": "DIR",
               "--label-col": "nope", "--no-header": None, "--delimiter": "ab"},
}


def test_options_table_lists_every_option():
    assert set(OPTIONS) == set(main.commands)
    for command, options in OPTIONS.items():
        assert set(options) == {p.opts[0] for p in main.commands[command].params
                                if isinstance(p, click.Option)}, command


@pytest.mark.parametrize("command, option, value", [
    (command, option, value) for command, options in OPTIONS.items()
    for option, value in options.items() if value is not None
], ids=lambda v: v)
def test_invalid_option_value_exits_2(runner, tmp_path, command, option, value):
    runs, outputs = _valid_runs(tmp_path)
    value = {"DIR": str(tmp_path), "MISSING": str(tmp_path / "missing.json")}.get(value, value)
    result = runner.invoke(main, [*runs[command], option, value])
    assert result.exit_code == 2, result.output
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_valid_run_writes_its_output(runner, tmp_path, command):
    runs, outputs = _valid_runs(tmp_path)
    result = runner.invoke(main, runs[command])
    assert result.exit_code == 0, result.output
    assert outputs[0].exists()


@pytest.mark.parametrize("parent", ["missing", "a-file"])
@pytest.mark.parametrize("command, option", [
    (command, option) for command, options in OPTIONS.items()
    for option, value in options.items() if value == "DIR"
], ids=lambda v: v)
def test_unwritable_output_exits_2_before_writing(runner, tmp_path, command, option,
                                                   parent):
    runs, outputs = _valid_runs(tmp_path)
    (tmp_path / "a-file").touch()
    target = str(tmp_path / parent / "x.csv")
    result = runner.invoke(main, [*runs[command], option, target])
    assert_one_error_line(result, f"cannot write {target}: no directory")
    assert not any(path.exists() for path in outputs)


def test_failed_write_exits_2(runner, tmp_path, monkeypatch):
    def refuse(path, header, rows):
        raise PermissionError(13, "Permission denied", path)

    runs, _ = _valid_runs(tmp_path)
    monkeypatch.setattr(cli, "_write_csv", refuse)
    result = runner.invoke(main, runs["predict"])
    assert_one_error_line(result, "[Errno 13] Permission denied")


@pytest.mark.parametrize("args", [
    ["simulate", "--scenario", "fs-consistency"],
    ["consistency", "--scheme", "ordinal"],
    ["consistency", "--threads", "2"],
    ["simulate", "--scenario", "ind-equal-var", "--n-grid", "30"],
    ["simulate", "--scenario", "ind-equal-var", "--replicates", "2"],
], ids=["simulate-fs-consistency", "consistency-scheme", "consistency-threads",
        "simulate-n-grid", "simulate-replicates"])
def test_option_a_command_does_not_read_is_refused(runner, tmp_path, args):
    out = tmp_path / "out.csv"
    result = runner.invoke(main, [*args, "--seed", "1", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "config: " not in result.stderr  # refused before the command runs
    assert not out.exists()


def test_scenario_help_names_the_consistency_command(runner):
    result = runner.invoke(main, ["simulate", "--help"])
    assert "sweep is `multida consistency`" in " ".join(result.output.split())


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

    def test_byte_order_mark_reads_as_without(self, runner, toy_csv, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte order mark
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + TOY.encode())
        outputs = []
        for tag, path in (("plain", toy_csv), ("bom", marked)):
            model, preds = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
            for args in (["train", path, "--out", model, "--features-out",
                          tmp_path / f"{tag}-f.csv"],
                         ["predict", path, "--model", model, "--out", preds]):
                result = runner.invoke(main, [*map(str, args), "--seed", "1"])
                assert result.exit_code == 0, result.output
            outputs.append((model.read_bytes(), preds.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_wrong_column_count_exits_2(self, runner, toy_csv, tmp_path):
        model_path = self.fitted(runner, toy_csv, tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n1,2\n")
        result = runner.invoke(
            main, ["predict", str(bad), "--model", str(model_path), "--seed", "1"],
        )
        assert result.exit_code == 2
        assert "p=1" in result.stderr

    @staticmethod
    def write_rows(path, names, X, labels):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", *names])
            writer.writerows([lab, *map(repr, row)] for lab, row in zip(labels, X.tolist()))

    @pytest.mark.parametrize("order, names, message", [
        (None, None, None),
        ([1, 0, 2, 3, 4, 5], None, "feature column 1 is 'g1' where the model has 'g0'"),
        (None, [f"zz{j}" for j in range(6)], "feature column 1 is 'zz0' where the model has 'g0'"),
    ], ids=["training-header", "reordered", "unknown-names"])
    def test_header_must_name_the_models_features_in_order(self, tmp_path, order, names,
                                                            message):
        # K=3, 20 rows per class, class a shifted on g0 and b on g1: taken
        # by position, the reordered query would predict b for a's rows
        rng = np.random.default_rng(3)
        y = np.repeat(["a", "b", "c"], 20)
        X = rng.normal(size=(60, 6))
        X[:20, 0] += 4.0
        X[20:40, 1] += 4.0
        features = [f"g{j}" for j in range(6)]
        train, model = tmp_path / "train.csv", tmp_path / "m.json"
        self.write_rows(train, features, X, y)
        save_model(fit(load_dataset(train)), model)
        order = list(range(6)) if order is None else order
        query, out = tmp_path / "query.csv", tmp_path / "p.csv"
        self.write_rows(query, names or [features[j] for j in order], X[:10, order], y[:10])
        result = run_cli("predict", query, "--model", model, "--out", out, "--seed", "1")
        if message is None:
            assert result.returncode == 0, result.stderr
            want = predict(load_model(model), X[:10]).labels
            assert [row[0] for row in read_csv(out)[1:]] == list(want)
        else:
            assert_one_error_line(result, f"{query}: {message}")
            assert not out.exists()

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
        rows = decode_rows(doc[field])
        rows[1][0] = value
        doc[field] = encode_rows(rows)
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
        # well-formed documents that no fit could have written
        {"class_counts": [1, 1], "n": 2},
        {"K": 1, "S": [[1]], "n": 2, "class_label_map": ["a"], "class_counts": [2],
         "class_means": encode_rows([[1.0]]), "class_m2": encode_rows([[2.0]])},
    ], ids=["K0", "S-float", "S-str", "n-str", "pi-str", "mu-str", "m2-1d",
            "labels-repeated", "scheme-empty", "n-below-K+1", "one-class"])
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


#: numpy's SIMD dispatch held to its AVX2 group (x86-64-v3, named ``X86_V3``
#: from numpy 2.4 on); the variable acts when numpy is imported
AVX2_DISPATCH = "X86_V3"

#: prints the dispatch targets numpy enabled in this process
_DISPATCH_TARGETS = """
try:
    from numpy._core import _multiarray_umath as u
except ImportError:  # numpy 1
    from numpy.core import _multiarray_umath as u
print(sorted(k for k in u.__cpu_dispatch__ if u.__cpu_features__.get(k)))
"""

#: ``fit MODEL QUERY`` fits, saves the model and the query rows; both modes
#: then load the model and print its predictions and selected features
_CROSS_DISPATCH_SIDE = """
import json, sys
import numpy as np
from multida import data_io, estimator, simlab
mode, model_path, query_path = sys.argv[1:]
if mode == "fit":
    spec = simlab.SimSpec("ind-unequal-var", n=100, p=2000, K=4, mean_shift=1.5, seed=901)
    data = simlab.generate(spec)[0]
    data_io.save_model(estimator.fit(data, variance_mode="unequal"), model_path)
    np.save(query_path, data.X[::2])
model = data_io.load_model(model_path)
pred = estimator.predict(model, np.load(query_path))
print(json.dumps({"labels": pred.labels, "probabilities": pred.probabilities.tolist(),
                  "selected": estimator.selected_features(model)}))
"""


def test_model_predicts_alike_across_simd_dispatch(tmp_path):
    # the model file's bits do not depend on the dispatch target; np.log and
    # np.exp do, so the predictions agree within rounding, not bit for bit
    envs = {"default": {"NPY_ENABLE_CPU_FEATURES": ""},
            "avx2": {"NPY_ENABLE_CPU_FEATURES": AVX2_DISPATCH}}
    targets = {side: _python("-c", _DISPATCH_TARGETS, env=env) for side, env in envs.items()}
    for result in targets.values():
        assert result.returncode == 0, result.stderr
    if targets["default"].stdout == targets["avx2"].stdout:
        pytest.skip(f"NPY_ENABLE_CPU_FEATURES={AVX2_DISPATCH} leaves the dispatch targets "
                    f"{targets['default'].stdout.strip()}")
    paths = (tmp_path / "model.json", tmp_path / "query.npy")
    fitted, loaded = (_python("-c", _CROSS_DISPATCH_SIDE, mode, *paths, env=envs[side])
                      for mode, side in (("fit", "default"), ("load", "avx2")))
    assert fitted.returncode == 0, fitted.stderr
    assert loaded.returncode == 0, loaded.stderr
    want, got = json.loads(fitted.stdout), json.loads(loaded.stdout)
    assert got["labels"] == want["labels"]
    assert [f[:2] for f in got["selected"]] == [f[:2] for f in want["selected"]]
    assert got["selected"], "no feature selected"
    np.testing.assert_allclose(got["probabilities"], want["probabilities"], rtol=1e-12, atol=0)
    np.testing.assert_allclose([f[2] for f in got["selected"]],
                               [f[2] for f in want["selected"]], rtol=1e-12, atol=0)


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


@pytest.mark.parametrize("option", [["--penalty", "bogus"], ["--threads", "-1"]],
                         ids=["penalty", "threads"])
@pytest.mark.parametrize("command", ["cv", "simulate"])
def test_cv_and_simulate_check_fit_options_before_the_data(runner, wide_csv, tmp_path,
                                                           command, option):
    # cv reads no CSV and simulate draws nothing for an option the fit refuses
    out = tmp_path / "out.csv"
    args = ([command, wide_csv] if command == "cv"
            else [command, "--scenario", "ind-equal-var", "--n", "20", "--p", "6", "--k", "2"])
    source = "load_dataset" if command == "cv" else "generate"
    with mock.patch.object(cli, source) as data:
        result = runner.invoke(main, [*args, "--seed", "1", "--out", str(out), *option])
    assert not data.called
    assert_one_error_line(result, "unknown penalty 'bogus'" if option[0] == "--penalty"
                          else "threads must be >= 0")
    assert not out.exists()


class TestSimulate:
    """``simulate``'s cross-validated scenarios and the ``consistency``
    selection sweep."""

    def test_consistency_rows(self, runner, tmp_path):
        out = tmp_path / "cons.csv"
        result = runner.invoke(
            main, ["consistency", "--p", "100",
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
            main, ["consistency", "--p", "50",
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

    @pytest.mark.parametrize("shift", [[], ["--mean-shift", "1.0"]], ids=["default", "given"])
    def test_consistency_rows_are_the_sweep(self, runner, tmp_path, shift):
        # the command's --mean-shift defaults to 2, the sweep's own default
        out = tmp_path / "cons.csv"
        result = runner.invoke(
            main, ["consistency", "--p", "40", "--k", "3",
                   "--n-grid", "30", "--replicates", "2", "--seed", "4",
                   "--out", str(out), *shift],
        )
        assert result.exit_code == 0, result.output
        rows = consistency_sweep([30], p=40, k=3, replicates=2, seed=4,
                                 mean_shift=float(shift[1]) if shift else 2.0)
        assert [r[:-1] for r in read_csv(out)[1:]] == [
            [str(v) if isinstance(v, int) else repr(v) for v in list(r.values())[:-1]]
            for r in rows
        ]

    def test_block_size_reaches_only_dependent_scenarios(self, runner, tmp_path):
        outputs = []
        for extra in ([], ["--block-size", "7"]):
            out = tmp_path / f"ind{len(extra)}.csv"
            result = runner.invoke(
                main, ["simulate", "--scenario", "ind-equal-var", "--n", "30", "--p", "20",
                       "--k", "2", "--trials", "1", "--folds", "3", "--seed", "4",
                       "--out", str(out), *extra],
            )
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        out = tmp_path / "dep.csv"
        result = runner.invoke(
            main, ["simulate", "--scenario", "dep-equal-cov", "--n", "30", "--p", "20",
                   "--k", "2", "--block-size", "7", "--seed", "4", "--out", str(out)],
        )
        assert_one_error_line(result, "p=20 is not divisible by block size 7")
        result = runner.invoke(
            main, ["simulate", "--scenario", "dep-equal-cov", "--n", "30", "--p", "4",
                   "--k", "2", "--block-size", "2", "--seed", "4", "--out", str(out)],
        )
        assert_one_error_line(result, "discriminative_fraction=0.1 of p=4 features plants none")
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["cv", "{wide}", "--folds", "3", "--trials", "1", "--seed", "-1"],
         "seed must be a non-negative integer, got -1"),
        (["simulate", "--scenario", "ind-equal-var", "--n", "20", "--p", "6", "--k", "2",
          "--seed", "-1"], "seed must be a non-negative integer, got -1"),
        (["consistency", "--p", "20", "--k", "2", "--seed", "-1"],
         "seed must be a non-negative integer, got -1"),
        (["consistency", "--p", "20", "--k", "2", "--n-grid", "-5", "--seed", "1"],
         "need n >= K, p >= 1, K >= 2; got n=-5"),
    ], ids=["cv-seed", "simulate-seed", "consistency-seed", "consistency-grid"])
    def test_bad_seed_or_grid_exits_2(self, runner, wide_csv, tmp_path, args, message):
        # refused before numpy sees the seed, which would raise a traceback
        out = tmp_path / "x.csv"
        result = runner.invoke(
            main, [a.format(wide=wide_csv) for a in args] + ["--out", str(out)])
        assert_one_error_line(result, message)
        assert not out.exists()

    def test_bad_grid_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["consistency",
                   "--n-grid", "a,b", "--seed", "1", "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("extra, message", [
        (["--n-grid", ","], "the sample-size grid is empty"),
        (["--n-grid", ""], "the sample-size grid is empty"),
        (["--replicates", "0"], "need at least 1 replicate, got 0"),
        # the sweep scores selection, so the command has no --scheme: click
        # refuses it before the command runs, with no config line
        (["--scheme", "ordinal"], None),
        (["--mean-shift", "inf"], "mean_shift must be finite, got inf"),
    ], ids=["comma-grid", "empty-grid", "no-replicates", "ordinal-scheme", "shift-inf"])
    def test_bad_consistency_settings_exit_2(self, runner, tmp_path, extra, message):
        out = tmp_path / "x.csv"
        result = runner.invoke(
            main, ["consistency", "--p", "20", "--k", "2",
                   "--seed", "1", "--out", str(out), *extra],
        )
        if message is None:
            assert_no_such_option(result, extra[0])
        else:
            assert_one_error_line(result, message)
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--scenario", "ind-equal-var", "--k", "2", "--mean-shift", "nan"],
         "mean_shift must be finite, got nan"),
        (["--scenario", "ind-unequal-var", "--k", "2", "--variance-scale", "nan"],
         "variance_scale must be finite, got nan"),
        (["--scenario", "ind-unequal-var", "--k", "2", "--variance-scale", "-1"],
         "variance_scale=-1.0 gives group K=2 the standard deviation"),
        (["--scenario", "ind-unequal-var", "--k", "3", "--variance-scale", "-1"],
         "variance_scale=-1.0 gives group K=3 the standard deviation"),
    ], ids=["shift-nan", "scale-nan", "k2-scale", "k3-scale"])
    def test_bad_scenario_settings_exit_2(self, runner, tmp_path, args, message):
        out = tmp_path / "x.csv"
        result = runner.invoke(
            main, ["simulate", "--n", "20", "--p", "6", "--seed", "1", "--out", str(out),
                   *args],
        )
        assert_one_error_line(result, message)
        assert not out.exists()

    def test_consistency_takes_prior_term(self, runner, tmp_path):
        out = tmp_path / "x.csv"
        result = runner.invoke(
            main, ["consistency", "--p", "20", "--k", "3",
                   "--n-grid", "30", "--replicates", "1", "--seed", "1", "--out", str(out),
                   "--prior-term", "plogp"],
        )
        assert result.exit_code == 0, result.output
        assert len(read_csv(out)) == 1 + 1

    def test_consistency_refuses_user_scheme_unread(self, runner, tmp_path):
        # refused as an unknown option, before the user file is looked for
        out = tmp_path / "x.csv"
        result = runner.invoke(
            main, ["consistency", "--p", "6",
                   "--scheme", f"user:{tmp_path / 'missing.csv'}",
                   "--seed", "1", "--out", str(out)],
        )
        assert_no_such_option(result, "--scheme")
        assert "missing.csv" not in result.stderr
        assert not out.exists()

    def test_missing_user_scheme_exits_2(self, runner, tmp_path):
        out, missing = tmp_path / "x.csv", tmp_path / "missing.csv"
        result = runner.invoke(
            main, ["simulate", "--scenario", "ind-equal-var", "--n", "20", "--p", "6",
                   "--k", "2", "--scheme", f"user:{missing}",
                   "--seed", "1", "--out", str(out)],
        )
        message = f"[Errno 2] No such file or directory: '{missing}'"
        assert_one_error_line(result, message)
        assert result.stderr.splitlines()[1] == "error: " + message
        assert not out.exists()

    def test_scheme_reaches_cross_validation(self, runner, tmp_path):
        out = tmp_path / "ovr.csv"
        result = runner.invoke(
            main, ["simulate", "--scenario", "ind-equal-var", "--n", "40", "--p", "100",
                   "--k", "4", "--trials", "2", "--folds", "4", "--scheme", "onevsrest",
                   "--seed", "4", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        data, _ = generate(SimSpec(scenario="ind-equal-var", n=40, p=100, K=4, seed=4))
        expected = cross_validate(data, 4, 2, seed=4, scheme="onevsrest")
        assert expected.rows != cross_validate(data, 4, 2, seed=4).rows  # scheme matters
        assert read_csv(out)[1:] == [
            ["ind-equal-var", "equal", str(r.trial), str(r.fold), str(r.n_test),
             str(r.n_wrong), repr(r.error)]
            for r in expected.rows
        ]


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
        result = runner.invoke(main, ["partitions", "--k", "10"])
        assert_one_error_line(
            result, "exhaustive enumeration for K=10 would produce B_10 columns")
        assert "K <= 9" in result.stderr
        result = runner.invoke(main, ["partitions", "--k", "16", "--scheme", "ordinal"])
        assert_one_error_line(result, "the ordinal set for K=16 would have 2^15 columns")

    # every scheme refuses K > 63 before any column is built; the simulator
    # draws its truth from the exhaustive columns, whose refusal names B_K
    # without computing it
    @pytest.mark.parametrize("args, message", [
        (["partitions", "--k", "2000"], "K=2000 classes is more than the 63"),
        (["simulate", "--scenario", "ind-equal-var", "--k", "2000", "--n", "2000",
          "--p", "10"], "exhaustive enumeration for K=2000 would produce B_2000 columns"),
        (["partitions", "--k", "20000", "--scheme", "ordinal"],
         "K=20000 classes is more than the 63"),
        (["partitions", "--k", "20000"], "K=20000 classes is more than the 63"),
        (["partitions", "--k", "20000", "--scheme", "onevsrest"],
         "K=20000 classes is more than the 63"),
    ], ids=["exhaustive-2000", "simulate-2000", "ordinal-20000", "exhaustive-20000",
            "onevsrest-20000"])
    def test_oversized_class_count_exits_2_at_once(self, runner, tmp_path, args, message):
        out = tmp_path / "out.txt"
        start = time.perf_counter()
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert_one_error_line(result, message)
        assert not out.exists()


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

    @pytest.mark.parametrize("rule", ["class-median-below:abc", "class-median-below:",
                                      "class-median-below:nan"])
    def test_bad_threshold_exits_2(self, runner, tmp_path, rule):
        src = tmp_path / "d.csv"
        src.write_text("label,v\na,1\nb,2\n")
        out = tmp_path / "filtered.csv"
        result = runner.invoke(main, ["filter", str(src), "--rule", rule, "--out", str(out)])
        assert_one_error_line(result, f"filter rule {rule}: the threshold must be")
        assert not out.exists()
