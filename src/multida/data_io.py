"""CSV ingestion, feature filtering and model persistence.

Training CSVs carry one label column (named ``label`` unless overridden)
plus numeric feature columns; prediction CSVs are purely numeric.  A model
is stored as one JSON document of its config and per-class statistics,
floats written with full round-trip precision; loading re-derives the
model with the code ``fit`` uses, so save/load/predict is bit-identical.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .estimator import (Dataset, FittedModel, PenaltyConfig, SufficientStats,
                        validate_model)
from .partitions import is_restricted_growth, partition_set_from_columns
from . import estimator

MODEL_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class CsvSchema:
    """How to read a delimited matrix file."""

    has_header: bool = True
    label_column: str | int | None = "label"
    delimiter: str = ","


def _parse_cell(path: str | Path, text: str, row: int, col_name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise FormatError(
            f"{path}: non-numeric cell {text!r} at row {row}, column {col_name}"
        ) from None
    if not math.isfinite(value):
        raise FormatError(
            f"{path}: non-finite cell {text!r} at row {row}, column {col_name}"
        )
    return value


def _label_index(header: list[str] | None, width: int,
                 label_column: str | int | None, required: bool) -> int:
    """Column index of the label, or -1 when there is none.

    A label column that cannot be found is an error only when
    ``required``; otherwise the file is read as all features.
    """
    if label_column is None:
        return -1
    if isinstance(label_column, int):
        if 0 <= label_column < width:
            return label_column
        problem = f"label column index {label_column} outside 0..{width - 1}"
    elif header is None:
        problem = "label column referenced by name requires a header row"
    elif label_column in header:
        return header.index(label_column)
    else:
        problem = f"label column {label_column!r} not found in header {header}"
    if required:
        raise ValidationError(problem)
    return -1


def _read_table(
    path: str | Path, schema: CsvSchema, *, labeled: bool
) -> tuple[list[str], list[str], np.ndarray]:
    """Stream a delimited file into (feature names, label cells, values).

    Rows are checked for width and converted one at a time, so the file's
    text is never held whole.  Each row goes through one ``np.array``
    call, which parses ``str`` cells exactly as ``float`` does; a row that
    fails, or holds a non-finite value, is scanned cell by cell to report
    the first bad cell.  Row numbers count non-empty lines from 1,
    header included.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = (row for row in csv.reader(fh, delimiter=schema.delimiter) if row)
            header = next(rows, None) if schema.has_header else None
            first = next(rows, None)
            if first is None:
                raise FormatError(
                    f"{path}: no data rows" if header else f"{path}: file is empty"
                )
            width = len(header if header is not None else first)
            label_idx = _label_index(header, width, schema.label_column, labeled)
            if labeled and width == 1:
                raise ValidationError(f"{path}: no feature columns beside the label")
            if header is not None:
                names = [name for j, name in enumerate(header) if j != label_idx]
            else:
                names = [f"x{j + 1}" for j in range(width - int(label_idx >= 0))]
            row_no = 1 + int(schema.has_header)
            labels: list[str] = []
            values: list[np.ndarray] = []
            for row in itertools.chain([first], rows):
                if len(row) != width:
                    raise FormatError(
                        f"{path}: row {row_no} has {len(row)} cells, expected {width}"
                    )
                if label_idx >= 0:
                    labels.append(row.pop(label_idx))
                try:
                    vals = np.array(row, dtype=np.float64)
                except ValueError:
                    vals = None
                if vals is None or not np.isfinite(vals).all():
                    vals = np.array([_parse_cell(path, text, row_no, name)
                                     for text, name in zip(row, names)])
                values.append(vals)
                row_no += 1
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:
        raise FormatError(f"{path}: malformed CSV ({exc})") from None
    return names, labels, np.array(values, dtype=np.float64)


def load_dataset(path: str | Path, schema: CsvSchema = CsvSchema()) -> Dataset:
    """Read a labeled training matrix.

    Labels are encoded 1..K in order of first appearance; the mapping is
    recorded on the returned Dataset.  Any non-numeric or non-finite
    feature cell is rejected with its position.
    """
    if schema.label_column is None:
        raise ValidationError("training ingestion requires a label column")
    names, labels, X = _read_table(path, schema, labeled=True)
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
    names, _, X = _read_table(path, schema, labeled=False)
    return X, names


def save_dataset(data: Dataset, path: str | Path, *,
                 label_name: str = "label", delimiter: str = ",") -> None:
    """Write a Dataset back to labeled CSV with full float precision."""
    labels = data.class_labels
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow([label_name, *data.feature_names])
        writer.writerows(
            [labels[code - 1], *map(repr, row)]
            for code, row in zip(data.y.tolist(), data.X.tolist())
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


def save_model(model: FittedModel, path: str | Path) -> None:
    """Persist a fitted model as a JSON document (schema version 2): the
    config, the hypothesis matrix ``S`` and the per-class counts, means
    and centred sums of squares.  ``load_model`` re-derives everything
    else with the code ``fit`` uses."""
    stats = model.stats
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
        "feature_names": list(model.feature_names),
        "class_counts": stats.n_k.tolist(),
        "class_means": stats.mean.tolist(),
        "class_m2": stats.m2.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))


def _require(doc: dict, key: str):
    if key not in doc:
        raise FormatError(f"model document is missing field {key!r}")
    return doc[key]


def _require_int(doc: dict, key: str) -> int:
    value = _require(doc, key)
    if type(value) is not int:
        raise FormatError(f"model field {key!r} must be an integer, got {value!r}")
    return value


def _hypothesis_columns(doc: dict) -> tuple[tuple[int, ...], ...]:
    """Columns of the K x M hypothesis matrix ``S``, checked for shape,
    integer entries and restricted-growth form with the null first."""
    k = _require_int(doc, "K")
    s_rows = _require(doc, "S")
    if k < 1 or not isinstance(s_rows, list) or len(s_rows) != k:
        raise FormatError(f"S must be a list of K={k} rows (K >= 1)")
    if not all(isinstance(row, list) for row in s_rows) or not s_rows[0]:
        raise FormatError("S rows must be non-empty lists")
    if len({len(row) for row in s_rows}) != 1:
        raise FormatError("S rows differ in length")
    if not all(type(v) is int for row in s_rows for v in row):
        raise FormatError("S entries must be integers")
    columns = tuple(zip(*s_rows))
    if columns[0] != (1,) * k or not all(is_restricted_growth(c) for c in columns):
        raise FormatError(
            "S columns must be restricted-growth partitions, the null first"
        )
    return columns


def _class_array(doc: dict, key: str, k: int, p: int) -> np.ndarray:
    values = np.array(_require(doc, key), dtype=np.float64)
    if values.shape != (k, p):
        raise FormatError(f"model field {key!r} must be a K x p = {k} x {p} matrix")
    return estimator._as_readonly(values)


def _model_from_doc(doc: dict) -> FittedModel:
    """Derive a FittedModel from a parsed document; field errors raise
    ``FormatError``, values of the wrong type ``TypeError``/``ValueError``,
    an unknown scheme or variance mode ``ValidationError``."""
    version = _require(doc, "schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise FormatError(
            f"unsupported schema_version {version}; "
            f"this build reads version {MODEL_SCHEMA_VERSION}"
        )
    columns = _hypothesis_columns(doc)
    k = len(columns[0])
    parts = partition_set_from_columns(
        columns, _require(doc, "scheme"), _require(doc, "variance_mode"))
    pen_doc = _require(doc, "penalty")
    try:
        penalty = PenaltyConfig(kind=pen_doc["kind"], C=float(pen_doc["C"]))
    except (KeyError, TypeError, ValidationError) as exc:
        raise FormatError(f"bad penalty block ({exc})") from None
    prior_term_mode = _require(doc, "prior_term_mode")
    if prior_term_mode not in estimator.PRIOR_TERM_MODES:
        raise FormatError(f"unknown prior_term_mode {prior_term_mode!r}")
    feature_names = tuple(str(v) for v in _require(doc, "feature_names"))
    if not feature_names:
        raise FormatError("model field 'feature_names' is empty")
    counts = _require(doc, "class_counts")
    if (not isinstance(counts, list) or len(counts) != k
            or not all(type(v) is int for v in counts)):
        raise FormatError(f"model field 'class_counts' must be a list of K={k} integers")
    stats = SufficientStats(
        n=_require_int(doc, "n"),
        n_k=estimator._as_readonly(np.array(counts, dtype=np.int64)),
        mean=_class_array(doc, "class_means", k, len(feature_names)),
        m2=_class_array(doc, "class_m2", k, len(feature_names)),
    )
    return estimator.model_from_stats(
        stats, parts, penalty=penalty, prior_term_mode=prior_term_mode,
        class_labels=tuple(str(v) for v in _require(doc, "class_label_map")),
        feature_names=feature_names,
    )


def load_model(path: str | Path) -> FittedModel:
    """Load a model document, derive the model from its per-class
    statistics and validate every model invariant."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: not a valid model document ({exc})") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: model document must be a JSON object")
    try:
        # a huge but finite statistic may overflow while the model is
        # derived; validate_model then rejects the non-finite result
        with np.errstate(all="ignore"):
            model = _model_from_doc(doc)
            validate_model(model)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed model document ({exc})") from None
    except ValidationError as exc:
        raise FormatError(f"{path}: invariant violation: {exc}") from None
    return model
