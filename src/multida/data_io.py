"""CSV ingestion, feature filtering and model persistence.

Training CSVs carry one label column (named ``label`` unless overridden)
plus numeric feature columns; prediction CSVs are purely numeric.  Models
are stored as a single JSON document; floats are written with full
round-trip precision so save/load/predict is bit-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .estimator import Dataset, FittedModel, PenaltyConfig, validate_model
from .partitions import PartitionSet, allocation_matrix
from . import estimator

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CsvSchema:
    """How to read a delimited matrix file."""

    has_header: bool = True
    label_column: str | int | None = "label"
    delimiter: str = ","


def _read_rows(path: str | Path, delimiter: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh, delimiter=delimiter) if row]
    if not rows:
        raise FormatError(f"{path}: file is empty")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise FormatError(
                f"{path}: row {i + 1} has {len(row)} cells, expected {width}"
            )
    return rows


def _parse_cell(text: str, row: int, col_name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise FormatError(
            f"non-numeric cell {text!r} at row {row}, column {col_name}"
        ) from None
    if not math.isfinite(value):
        raise FormatError(
            f"non-finite cell {text!r} at row {row}, column {col_name}"
        )
    return value


def _locate_label(header: list[str] | None, width: int,
                  label_column: str | int) -> int:
    if isinstance(label_column, int):
        if not 0 <= label_column < width:
            raise ValidationError(
                f"label column index {label_column} outside 0..{width - 1}"
            )
        return label_column
    if header is None:
        raise ValidationError(
            "label column referenced by name requires a header row"
        )
    try:
        return header.index(label_column)
    except ValueError:
        raise ValidationError(
            f"label column {label_column!r} not found in header {header}"
        ) from None


def load_dataset(path: str | Path, schema: CsvSchema = CsvSchema()) -> Dataset:
    """Read a labeled training matrix.

    Labels are encoded 1..K in order of first appearance; the mapping is
    recorded on the returned Dataset.  Any non-numeric or non-finite
    feature cell is rejected with its position.
    """
    if schema.label_column is None:
        raise ValidationError("training ingestion requires a label column")
    rows = _read_rows(path, schema.delimiter)
    header = rows[0] if schema.has_header else None
    body = rows[1:] if schema.has_header else rows
    if not body:
        raise FormatError(f"{path}: no data rows")
    width = len(rows[0])
    label_idx = _locate_label(header, width, schema.label_column)
    feat_idx = [j for j in range(width) if j != label_idx]
    if not feat_idx:
        raise ValidationError(f"{path}: no feature columns beside the label")
    names = (
        [header[j] for j in feat_idx]
        if header is not None
        else [f"x{j + 1}" for j in range(len(feat_idx))]
    )
    labels = []
    X = np.empty((len(body), len(feat_idx)))
    for i, row in enumerate(body):
        labels.append(row[label_idx])
        for jj, j in enumerate(feat_idx):
            X[i, jj] = _parse_cell(row[j], i + 1 + int(schema.has_header), names[jj])
    data = Dataset.from_arrays(X, labels, feature_names=names)
    if data.K < 2:
        raise ValidationError(f"{path}: fewer than 2 classes in label column")
    return data


def load_matrix(
    path: str | Path, schema: CsvSchema = CsvSchema(label_column=None)
) -> tuple[np.ndarray, list[str]]:
    """Read an unlabeled query matrix; returns (values, column names).

    When the schema names a label column that is present, it is ignored.
    """
    rows = _read_rows(path, schema.delimiter)
    header = rows[0] if schema.has_header else None
    body = rows[1:] if schema.has_header else rows
    if not body:
        raise FormatError(f"{path}: no data rows")
    width = len(rows[0])
    skip = -1
    if schema.label_column is not None:
        if isinstance(schema.label_column, int):
            skip = schema.label_column if 0 <= schema.label_column < width else -1
        elif header is not None and schema.label_column in header:
            skip = header.index(schema.label_column)
    feat_idx = [j for j in range(width) if j != skip]
    names = (
        [header[j] for j in feat_idx]
        if header is not None
        else [f"x{j + 1}" for j in range(len(feat_idx))]
    )
    X = np.empty((len(body), len(feat_idx)))
    for i, row in enumerate(body):
        for jj, j in enumerate(feat_idx):
            X[i, jj] = _parse_cell(row[j], i + 1 + int(schema.has_header), names[jj])
    return X, names


def save_dataset(data: Dataset, path: str | Path, *,
                 label_name: str = "label", delimiter: str = ",") -> None:
    """Write a Dataset back to labeled CSV with full float precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow([label_name, *data.feature_names])
        for i in range(data.n):
            writer.writerow(
                [data.class_labels[data.y[i] - 1]]
                + [repr(float(v)) for v in data.X[i]]
            )


def _class_medians(data: Dataset) -> np.ndarray:
    med = np.empty((data.K, data.p))
    for k in range(data.K):
        med[k] = np.median(data.X[data.y == k + 1], axis=0)
    return med


def filter_features(
    data: Dataset, rule: str | tuple[str, float]
) -> tuple[Dataset, list[int]]:
    """Drop features by a preprocessing rule; returns the reduced dataset
    and the kept original column indices.

    ``"zero-mad"`` drops features whose median absolute deviation is
    exactly zero; ``("class-median-below", t)`` drops features whose class
    medians are all below ``t``.  Medians use the midpoint convention for
    even counts.
    """
    if isinstance(rule, str) and rule.startswith("class-median-below:"):
        rule = ("class-median-below", float(rule.split(":", 1)[1]))
    if rule == "zero-mad":
        med = np.median(data.X, axis=0)
        mad = np.median(np.abs(data.X - med[None, :]), axis=0)
        keep = mad != 0.0
    elif (
        isinstance(rule, tuple)
        and len(rule) == 2
        and rule[0] == "class-median-below"
    ):
        threshold = float(rule[1])
        if not math.isfinite(threshold):
            raise ValidationError("class-median threshold must be finite")
        keep = (_class_medians(data) >= threshold).any(axis=0)
    else:
        raise ValidationError(
            f"unknown filter rule {rule!r}; expected 'zero-mad' or "
            f"('class-median-below', t)"
        )
    kept = [int(j) for j in np.flatnonzero(keep)]
    if not kept:
        raise ValidationError("filter would drop every feature")
    reduced = Dataset.from_arrays(
        data.X[:, keep],
        [data.class_labels[c - 1] for c in data.y],
        feature_names=[data.feature_names[j] for j in kept],
    )
    return reduced, kept


def _lam_to_json(lam: np.ndarray) -> list[list[float | None]]:
    out: list[list[float | None]] = []
    for row in lam:
        out.append([None if v == -np.inf else float(v) for v in row])
    return out


def _lam_from_json(rows: list[list[float | None]]) -> np.ndarray:
    arr = np.array(
        [[-np.inf if v is None else v for v in row] for row in rows],
        dtype=np.float64,
    )
    return arr


def save_model(model: FittedModel, path: str | Path) -> None:
    """Persist a fitted model as a JSON document (schema version 1)."""
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "n": model.n,
        "K": model.K,
        "class_label_map": list(model.class_labels),
        "scheme": model.parts.scheme,
        "S": [[int(v) for v in col] for col in zip(*model.parts.columns)],
        "variance_mode": model.variance_mode,
        "penalty": {"kind": model.penalty.kind, "C": model.penalty.C},
        "prior_term_mode": model.prior_term_mode,
        "pi": model.pi.tolist(),
        "feature_names": list(model.feature_names),
        "gamma_hat": model.gamma.tolist(),
        "lambda": _lam_to_json(model.lam),
        "mu": model.mu.tolist(),
        "sigma2": model.sigma2.tolist(),
        "variance_floor": model.variance_floor.tolist(),
        "admissible": [bool(v) for v in model.admissible],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def _require(doc: dict, key: str):
    if key not in doc:
        raise FormatError(f"model document is missing field {key!r}")
    return doc[key]


def load_model(path: str | Path) -> FittedModel:
    """Load a model document and re-validate every model invariant."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not a valid model document ({exc})") from None
    version = _require(doc, "schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise FormatError(
            f"{path}: unsupported schema_version {version}; "
            f"this build reads version {MODEL_SCHEMA_VERSION}"
        )
    s_rows = _require(doc, "S")
    k = _require(doc, "K")
    if len(s_rows) != k:
        raise FormatError(f"{path}: S has {len(s_rows)} rows, expected K={k}")
    columns = tuple(zip(*[tuple(int(v) for v in row) for row in s_rows]))
    g, z, a = allocation_matrix(columns)
    variance_mode = _require(doc, "variance_mode")
    if variance_mode not in ("equal", "unequal"):
        raise FormatError(f"{path}: unknown variance_mode {variance_mode!r}")
    df_per_group = 1 if variance_mode == "equal" else 2
    parts = PartitionSet(
        K=k,
        M=len(columns),
        columns=columns,
        G=g,
        nu=df_per_group * (g - 1),
        z=z,
        A=a,
        scheme=_require(doc, "scheme"),
        variance_mode=variance_mode,
    )
    pen_doc = _require(doc, "penalty")
    try:
        penalty = PenaltyConfig(kind=pen_doc["kind"], C=float(pen_doc["C"]))
    except (KeyError, TypeError, ValidationError) as exc:
        raise FormatError(f"{path}: bad penalty block ({exc})") from None
    model = FittedModel(
        parts=parts,
        variance_mode=variance_mode,
        mu=estimator._as_readonly(np.array(_require(doc, "mu"), dtype=np.float64)),
        sigma2=estimator._as_readonly(np.array(_require(doc, "sigma2"), dtype=np.float64)),
        pi=estimator._as_readonly(np.array(_require(doc, "pi"), dtype=np.float64)),
        gamma=estimator._as_readonly(np.array(_require(doc, "gamma_hat"), dtype=np.float64)),
        lam=estimator._as_readonly(_lam_from_json(_require(doc, "lambda"))),
        penalty=penalty,
        prior_term_mode=_require(doc, "prior_term_mode"),
        n=int(_require(doc, "n")),
        class_labels=tuple(str(v) for v in _require(doc, "class_label_map")),
        feature_names=tuple(str(v) for v in _require(doc, "feature_names")),
        variance_floor=estimator._as_readonly(
            np.array(_require(doc, "variance_floor"), dtype=np.float64)
        ),
        admissible=estimator._as_readonly(
            np.array(_require(doc, "admissible"), dtype=bool)
        ),
    )
    if model.prior_term_mode not in ("log", "plogp"):
        raise FormatError(
            f"{path}: unknown prior_term_mode {model.prior_term_mode!r}"
        )
    try:
        validate_model(model)
    except ValidationError as exc:
        raise FormatError(f"{path}: invariant violation: {exc}") from None
    return model
