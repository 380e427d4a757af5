"""The benchmark's workloads: inputs made from the seed, the command that
is timed, and the checks on what the command wrote.

Each workload writes its inputs with the library (``simlab.generate``,
``data_io.save_dataset``, and for predict ``estimator.fit`` plus
``data_io.save_model``) and hands the program only those files.  Its
``check`` compares the command's outputs with the same computation done
in-process, bit for bit, and holds the planted truth to a quality floor.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from multida import data_io, estimator, simlab
from multida.data_io import CsvSchema
from multida.simlab import SimSpec

# Quality floors against the planted truth, well below what seeds
# 1000-1015 gave (lowest: recall 0.59, predict accuracy 0.53, CV accuracy
# 0.55) and well above chance (1/6 for predict, 1/4 for CV).
RECALL_FLOOR = 0.40
PREDICT_ACCURACY_FLOOR = 0.35
CV_ACCURACY_FLOOR = 0.40

_MODEL_ARRAYS = ("mu", "sigma2", "pi", "gamma", "lam", "variance_floor", "admissible")
_MODEL_FIELDS = ("variance_mode", "penalty", "prior_term_mode", "n", "class_labels",
                 "feature_names")


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _model_diff(got: estimator.FittedModel, want: estimator.FittedModel) -> list[str]:
    problems = [f"model {name} differs from an in-process fit"
                for name in _MODEL_FIELDS if getattr(got, name) != getattr(want, name)]
    if got.parts.columns != want.parts.columns:
        problems.append("model hypothesis matrix differs from an in-process fit")
    for name in _MODEL_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            problems.append(f"model {name} is not bit-identical to an in-process fit")
    return problems


def _floor(problems: list[str], what: str, value: float, floor: float) -> None:
    if not value >= floor:
        problems.append(f"{what} {value:.3f} is below the floor {floor}")


class TrainK4Wide:
    name = "train-k4-wide"

    def __init__(self, seed: int, work: Path, smoke: bool) -> None:
        self.seed = seed
        # shift 1.5 so that about half the planted features are selected
        self.spec = SimSpec("ind-equal-var", n=100, p=400 if smoke else 10000, K=4,
                            mean_shift=1.5, seed=seed)
        self.csv = work / "train.csv"
        self.model = work / "model.json"
        self.features = work / "features.csv"
        self.outputs = (self.model, self.features)
        self.cells = self.spec.n * self.spec.p
        self._reference = None

    def setup(self) -> None:
        data, self.truth = simlab.generate(self.spec)
        data_io.save_dataset(data, self.csv)

    def argv(self) -> list[str]:
        return ["train", str(self.csv), "--out", str(self.model),
                "--features-out", str(self.features),
                "--threads", "1", "--seed", str(self.seed)]

    def file_bytes(self) -> int:
        return sum(f.stat().st_size for f in (self.csv, *self.outputs))

    def named(self, wall_s: float) -> dict[str, tuple[float, str]]:
        return {"model_bytes": (self.model.stat().st_size, "bytes"),
                "train_cells_per_s": (self.cells / wall_s, "cells/s")}

    def check(self) -> list[str]:
        if self._reference is None:
            self._reference = estimator.fit(data_io.load_dataset(self.csv), threads=1)
        ref = self._reference
        problems = _model_diff(data_io.load_model(self.model), ref)
        rows = _read_csv(self.features)[1:]
        want = [[name, str(m), ref.parts.column_label(m), repr(w)]
                for name, m, w in estimator.selected_features(ref, 0.5)]
        if rows != want:
            problems.append("features CSV differs from selected_features")
        column = {name: j for j, name in enumerate(ref.feature_names)}
        found = {column[row[0]] for row in rows if row[0] in column}
        planted = set(np.flatnonzero(self.truth.true_column != 0).tolist())
        _floor(problems, "recall of planted features",
               len(found & planted) / max(1, len(planted)), RECALL_FLOOR)
        return problems


class PredictK6Batch:
    name = "predict-k6-batch"
    n_train = 120
    n_query = 200

    def __init__(self, seed: int, work: Path, smoke: bool) -> None:
        self.seed = seed
        self.spec = SimSpec("ind-equal-var", n=self.n_train + self.n_query,
                            p=200 if smoke else 1000, K=6, seed=seed)
        self.model = work / "model.json"
        self.query = work / "query.csv"
        self.predictions = work / "predictions.csv"
        self.outputs = (self.predictions,)
        self.cells = self.n_query * self.spec.p
        self._reference = None

    def _split(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stratified train/query row split drawn from the seed."""
        rng = np.random.default_rng([self.seed, 3])
        train = []
        for k in np.unique(y):
            rows = rng.permutation(np.flatnonzero(y == k))
            train.extend(rows[: round(len(rows) * self.n_train / len(y))])
        mask = np.zeros(len(y), dtype=bool)
        mask[train] = True
        return np.flatnonzero(mask), np.flatnonzero(~mask)

    def setup(self) -> None:
        data, _ = simlab.generate(self.spec)
        train, query = self._split(data.y)
        data_io.save_model(estimator.fit(data.subset(train), threads=1), self.model)
        data_io.save_dataset(data.subset(query), self.query)
        self.planted = [data.class_labels[c - 1] for c in data.y[query]]

    def argv(self) -> list[str]:
        return ["predict", str(self.query), "--model", str(self.model),
                "--out", str(self.predictions), "--threads", "1", "--seed", str(self.seed)]

    def file_bytes(self) -> int:
        return sum(f.stat().st_size for f in (self.model, self.query, *self.outputs))

    def named(self, wall_s: float) -> dict[str, tuple[float, str]]:
        return {"predict_rows_per_s": (len(self.planted) / wall_s, "rows/s")}

    def check(self) -> list[str]:
        if self._reference is None:
            model = data_io.load_model(self.model)
            X, _ = data_io.load_matrix(self.query, CsvSchema())
            self._reference = model, estimator.predict(model, X, threads=1)
        model, ref = self._reference
        rows = _read_csv(self.predictions)
        problems = []
        if rows[0] != ["label"] + [f"prob_{c}" for c in model.class_labels]:
            problems.append(f"predictions header is {rows[0]}")
        labels = [row[0] for row in rows[1:]]
        probs = [[float(v) for v in row[1:]] for row in rows[1:]]
        if labels != list(ref.labels) or probs != ref.probabilities.tolist():
            problems.append("predictions differ from an in-process predict")
        _floor(problems, "accuracy on planted labels",
               float(np.mean(np.array(ref.labels) == np.array(self.planted))),
               PREDICT_ACCURACY_FLOOR)
        return problems


class CvK4Qda:
    name = "cv-k4-qda"
    folds = 5

    def __init__(self, seed: int, work: Path, smoke: bool) -> None:
        self.seed = seed
        self.trials = 2 if smoke else 10
        self.spec = SimSpec("ind-unequal-var", n=100, p=200 if smoke else 5000, K=4,
                            seed=seed)
        self.out = work / "cv.csv"
        self.outputs = (self.out,)
        self.cells = self.trials * self.folds * self.spec.n * self.spec.p
        self._reference = None

    def setup(self) -> None:
        # the command generates the same data itself; the checks need a copy
        self.data, _ = simlab.generate(self.spec)

    def argv(self) -> list[str]:
        return ["simulate", "--scenario", self.spec.scenario, "--n", str(self.spec.n),
                "--p", str(self.spec.p), "--k", str(self.spec.K), "--variance", "unequal",
                "--folds", str(self.folds), "--trials", str(self.trials),
                "--threads", "1", "--seed", str(self.seed), "--out", str(self.out)]

    def file_bytes(self) -> int:
        return self.out.stat().st_size

    def named(self, wall_s: float) -> dict[str, tuple[float, str]]:
        return {"cv_fits_per_s": (self.trials * self.folds / wall_s, "1/s")}

    def check(self) -> list[str]:
        if self._reference is None:
            self._reference = simlab.cross_validate(
                self.data, self.folds, self.trials, seed=self.seed,
                variance_mode="unequal", threads=1)
        ref = self._reference
        want = [[self.spec.scenario, "unequal", str(r.trial), str(r.fold), str(r.n_test),
                 str(r.n_wrong), repr(r.error)] for r in ref.rows]
        problems = []
        if _read_csv(self.out)[1:] != want:
            problems.append("CV rows differ from an in-process cross_validate")
        _floor(problems, "CV accuracy on planted labels", 1.0 - ref.mean, CV_ACCURACY_FLOOR)
        return problems


WORKLOADS = {w.name: w for w in (TrainK4Wide, PredictK6Batch, CvK4Qda)}
