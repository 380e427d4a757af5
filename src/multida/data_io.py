"""CSV ingestion, feature filtering and model persistence.

Training CSVs carry one label column (named ``label`` unless overridden)
plus numeric feature columns; prediction CSVs are purely numeric.  A CSV
body is read once: ``np.fromstring`` parses its lines in batches, and a
line or batch it might read otherwise than the csv module goes through
``csv.reader``, which names the first bad cell.  Each parsed batch
(``_CHUNK_CHARS``), and each line that goes through ``csv.reader`` on its
own, goes straight to a sink: ``load_dataset`` and ``load_matrix`` gather
the rows into one matrix, and ``load_class_stats`` folds them into
per-class statistics (``estimator.StatsAccumulator``), which carry the
class labels and feature names and are all ``fit`` needs, so ``multida
train`` holds no n x p matrix.  A model is stored as one JSON document of
its config, its hypothesis matrix S and per-class statistics, each class
row of means and of centred sums of squares as the base64 of its
little-endian float64 bytes, so the bits round-trip exactly.
Loading builds the set and the model with the checked entries ``fit``
uses, ``partitions.build_partition_set`` (by name, or from S for ``user``)
and ``estimator.model_from_stats``, so save/load/predict is bit-identical
and a document no fit could have made (an S other than the set its scheme
builds, fewer than 2 classes, fewer than K+1 samples, an unknown prior
term mode, counts not positive or not summing to n, other than K distinct
labels, non-finite statistics) is rejected.
"""

from __future__ import annotations

import base64
import contextlib
import csv
import io
import itertools
import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import FormatError, NumericError, ValidationError
from .estimator import (Dataset, FittedModel, PenaltyConfig, RowBuffer, StatsAccumulator,
                        SufficientStats)
from .partitions import PartitionSet, build_partition_set
from . import estimator

MODEL_SCHEMA_VERSION = 3


def _check_delimiter(delimiter: str) -> None:
    """Refuse a delimiter the csv module cannot take (anything but one
    character), cannot tell from the end of a row (a line break) or from
    its quote character ``"``: a file split on quotes reads back as other
    cells."""
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ValidationError(f"delimiter must be one character, got {delimiter!r}")
    if delimiter in "\r\n":
        raise ValidationError(
            f"delimiter must be one character other than a line break, got {delimiter!r}")
    if delimiter == '"':
        raise ValidationError("delimiter must be a character other than the quote '\"'")


@dataclass(frozen=True)
class CsvSchema:
    """How to read a delimited matrix file."""

    has_header: bool = True
    label_column: str | int | None = "label"
    delimiter: str = ","

    def __post_init__(self):
        _check_delimiter(self.delimiter)


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


def _layout(path: str | Path, schema: CsvSchema, labeled: bool,
            header: list[str] | None, first: list[str] | None
            ) -> tuple[int, int, list[str]]:
    """Width, label index and feature names of a table, given its header
    (None without one) and the cells of its first data row (None when
    there is none).  A header that names a feature twice is refused, as
    a model and its features table name each feature once."""
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
        repeated = [name for name, count in Counter(names).items() if count > 1]
        if repeated:
            raise ValidationError(f"{path}: repeated feature names in the header: {repeated}")
    else:
        names = [f"x{j + 1}" for j in range(width - int(label_idx >= 0))]
    return width, label_idx, names


def _has_long_cell(line: str, delimiter: str, limit: int) -> bool:
    """Whether a cell of ``line`` is longer than ``limit`` characters.

    Such a cell covers a whole block of ``limit // 2 + 1`` characters, so
    the line is split only when one of its blocks holds no delimiter.
    """
    block = limit // 2 + 1
    if all(line.find(delimiter, a, a + block) >= 0
           for a in range(0, len(line) - block + 1, block)):
        return False
    return max(map(len, line.split(delimiter))) > limit


#: Text per batch of lines parsed together, in characters: a batch ends
#: where the lines read since the last batch that ended here reach it
#: (lines that go through ``csv.reader`` on their own count too), so a
#: line of more than 2^16 characters (a row of 10000 values written by
#: ``save_dataset`` takes about 196 K) goes alone.
_CHUNK_CHARS = 1 << 16


def _split_label(line: str, delimiter: str, label_idx: int, width: int, p: int,
                 limit: int) -> tuple[str, str] | None:
    """The label cell ("" without one) and the body of a body line, its
    value cells as they stand in the line, joined by the delimiter, with no
    line break; or None where ``csv.reader`` might split the line otherwise
    or the line cannot be a row: a quote but one pair around the label cell
    (dropped, as the csv module drops it), a NUL (Python 3.10's csv module
    refuses it), a label cell over the csv field size limit, or a body of
    other than p - 1 delimiters.  The label is split off at its nearer end
    of the line, so the rest of the line stays whole."""
    label, quotes, body = "", 0, line.rstrip("\r\n")  # a line holds one line break at most
    if label_idx >= 0:
        right = width - label_idx  # the label cell and those after it
        cells = (body.split(delimiter, label_idx + (right > 1)) if label_idx < right
                 else body.rsplit(delimiter, right))
        try:
            label = cells.pop(label_idx if label_idx < right else -right)
        except IndexError:  # too few cells
            return None
        if len(label) > 1 and label[0] == label[-1] == '"':
            label, quotes = label[1:-1], 2
        body = delimiter.join(cells)
    if (('"' in line and line.count('"') != quotes) or "\0" in line or len(label) > limit
            or body.count(delimiter) != p - 1):
        return None
    return label, body


def _parse_bodies(path: str | Path, lines: list[str], bodies: list[str], row_no: int,
                  delimiter: str, width: int, label_idx: int, names: list[str],
                  limit: int) -> np.ndarray:
    """The n x p values of n consecutive body lines that ``_split_label``
    took, the first at row ``row_no``, by one ``np.fromstring`` over their
    bodies joined by the delimiter.  Taken only when the text holds no
    whitespace but the delimiter (a cell of it alone reads as -1) and no
    cell over the csv field size limit, and gives n·p values, all finite.
    Then each of its n·p cells is one value read to its end: every value
    but the first follows a separator, which takes one delimiter at least,
    and there are n·p - 1 delimiters.  So an empty cell, which gives no
    value (``np.fromstring`` refuses it, drops a last one and reads a run of
    whitespace delimiters as one), or a number read across a delimiter
    falls short.  Otherwise each line goes through ``csv.reader`` and
    ``_row_values``, which names the first bad cell.  A numpy before 2
    warns where it cannot read the text, and the caller makes that warning
    an error."""
    text, n, p = delimiter.join(bodies), len(bodies), len(names)
    if not (any(c in text for c in " \t\v\f\r\n" if c != delimiter)
            or _has_long_cell(text, delimiter, limit)):
        with contextlib.suppress(ValueError, DeprecationWarning):  # unread text
            values = np.fromstring(text, sep=delimiter)
            if len(values) == n * p and np.isfinite(values).all():
                return values.reshape(n, p)
    return np.array([_row_values(path, next(csv.reader([line], delimiter=delimiter)),
                                 row_no + i, width, label_idx, names)[1]
                     for i, line in enumerate(lines)])


def _row_values(path: str | Path, row: list[str], row_no: int, width: int,
                label_idx: int, names: list[str]) -> tuple[str, np.ndarray]:
    """The label cell and values of a row of the csv module's cells, by one
    ``np.array`` call, which parses ``str`` cells as ``float`` does; a bad
    width or cell raises ``FormatError`` naming the row and the first one."""
    if len(row) != width:
        raise FormatError(f"{path}: row {row_no} has {len(row)} cells, expected {width}")
    label = row.pop(label_idx) if label_idx >= 0 else ""
    with contextlib.suppress(ValueError):  # a cell float does not read: named below
        values = np.array(row, dtype=np.float64)
        if np.isfinite(values).all():
            return label, values
    return label, np.array([_parse_cell(path, text, row_no, name)
                            for text, name in zip(row, names)])


def _read_table(path: str | Path, schema: CsvSchema, *, labeled: bool,
                sink: Callable[[], RowBuffer | StatsAccumulator]
                ) -> tuple[list[str], RowBuffer | StatsAccumulator]:
    """Read a delimited file into a new ``sink()``, whose ``add`` takes
    the label cells and values of some rows at a time, in file order, and
    copies the values; returns the feature names and the sink.

    The body is read once, line by line.  The first data row goes through
    ``csv.reader``, so the layout is the one the csv module sees.  A later
    line that ``_split_label`` takes waits in a batch, parsed by
    ``_parse_bodies`` when the batch's lines reach ``_CHUNK_CHARS``
    characters or a line it refuses comes; that line goes through
    ``csv.reader`` (``_row_values``), which reads on where a quoted cell
    spans lines.  Each parsed batch goes to ``add`` as it is, its text let
    go first, and so does the row of each line the batches refuse.  Row
    numbers count non-empty rows from 1, header included.  A UTF-8 BOM is
    dropped."""
    delim, limit = schema.delimiter, csv.field_size_limit()
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
            # numpy 1 warns and returns the values before text it cannot read
            warnings.filterwarnings("error", category=DeprecationWarning, module=__name__)
            header = (next((row for row in csv.reader(fh, delimiter=delim) if row), None)
                      if schema.has_header else None)
            names = None
            labels, lines, bodies, size = [], [], [], 0
            row_no = int(schema.has_header)

            def parse_batch() -> None:  # row_no is the row of the batch's last line
                if bodies:
                    values = _parse_bodies(path, lines, bodies, row_no + 1 - len(lines),
                                           delim, width, label_idx, names, limit)
                    lines.clear()  # the batch's text goes before the sink copies its values
                    bodies.clear()
                    out.add(labels, values)
                    labels.clear()

            for line in fh:
                if line in ("\n", "\r", "\r\n"):  # the csv module skips an empty row
                    continue
                split = names is not None and _split_label(line, delim, label_idx, width,
                                                           len(names), limit)
                if split:
                    lines.append(line)
                    bodies.append(split[1])
                    if label_idx >= 0:
                        labels.append(split[0])
                else:  # a quoted cell may span lines: the csv module reads on in the file
                    parse_batch()
                    cells = next(csv.reader(itertools.chain([line], fh), delimiter=delim))
                    if names is None:  # the first row sets the layout, as the csv module reads it
                        width, label_idx, names = _layout(path, schema, labeled, header, cells)
                        out = sink()
                    label, values = _row_values(path, cells, row_no + 1, width, label_idx, names)
                    out.add([label] if label_idx >= 0 else [], values[None])
                    del cells, values  # the first row's cells and values, which may be many
                row_no += 1
                size += len(line)
                del line, split  # a line's text is held by its batch alone, till it is parsed
                if size >= _CHUNK_CHARS:
                    parse_batch()
                    size = 0
            if names is None:
                _layout(path, schema, labeled, header, None)  # raises: no data rows
            parse_batch()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:
        raise FormatError(f"{path}: malformed CSV ({exc})") from None
    return names, out


def load_dataset(path: str | Path, schema: CsvSchema = CsvSchema()) -> Dataset:
    """Read a labeled training matrix.

    Labels are encoded 1..K in order of first appearance; the mapping is
    recorded on the returned Dataset.  Any non-numeric or non-finite
    feature cell is rejected with its position.
    """
    _check_labeled(schema)
    names, rows = _read_table(path, schema, labeled=True, sink=RowBuffer)
    data = Dataset.from_arrays(rows.matrix(), rows.labels, feature_names=names)
    _check_classes(path, data.K)
    return data


def load_class_stats(path: str | Path, schema: CsvSchema = CsvSchema()) -> SufficientStats:
    """The per-class statistics of a labeled training matrix, with its
    class labels and feature names, read as ``load_dataset`` reads the
    file and refused where it refuses it, but with no n x p matrix: each
    batch of rows goes into a ``StatsAccumulator``.  So ``fit`` of the
    result is ``fit(load_dataset(path))`` bit for bit wherever each class
    folds once, as when every class's rows come in one run that fits
    ``estimator._BLOCK_BYTES``; elsewhere the statistics agree within
    rounding."""
    _check_labeled(schema)
    names, acc = _read_table(path, schema, labeled=True, sink=StatsAccumulator)
    stats = acc.finish(tuple(names))
    _check_classes(path, len(stats.n_k))
    return stats


def _check_labeled(schema: CsvSchema) -> None:
    if schema.label_column is None:
        raise ValidationError("training ingestion requires a label column")


def _check_classes(path: str | Path, k: int) -> None:
    if k < 2:
        raise ValidationError(f"{path}: fewer than 2 classes in label column")


def load_matrix(
    path: str | Path, schema: CsvSchema = CsvSchema(label_column=None)
) -> tuple[np.ndarray, list[str]]:
    """Read an unlabeled query matrix; returns (values, column names).

    When the schema names a label column that is present, it is ignored.
    """
    names, rows = _read_table(path, schema, labeled=False, sink=RowBuffer)
    return rows.matrix(), names


#: Every character a float's ``repr`` can hold ("inf" and "nan" included).
_REPR_CHARS = frozenset("0123456789.+-einfa")


def save_dataset(data: Dataset, path: str | Path, *,
                 label_name: str = "label", delimiter: str = ",") -> None:
    """Write a Dataset back to labeled CSV with full float precision.

    The bytes are those of ``csv.writer`` (excel dialect) given each value
    as its ``repr``.  The header goes through ``csv.writer``, and so does
    each class label, once per class; each row is then written as one
    string, the label cell and the values joined by the delimiter.  A
    ``repr`` holds no quote and no line break, so a value needs quotes
    only when it holds the delimiter, which a delimiter outside
    ``_REPR_CHARS`` never is.  Rows are converted one at a time, so
    neither the file's text nor the matrix as Python floats is held
    whole.  The time left is ``float.__repr__``, about 1 us per value.
    The delimiter is checked as ``CsvSchema`` checks it, before the file
    is opened.
    """
    _check_delimiter(delimiter)
    end = csv.excel.lineterminator

    def prefix(label: str) -> str:
        # "<label cell><delimiter>", from a row of the label and one empty
        # cell; with no features the row is the label alone
        buf = io.StringIO()
        csv.writer(buf, delimiter=delimiter).writerow([label, ""] if data.p else [label])
        return buf.getvalue()[:-len(end)]

    def cells(row: list[float]):
        if delimiter not in _REPR_CHARS:
            return map(repr, row)
        return (f'"{c}"' if delimiter in c else c for c in map(repr, row))

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow([label_name, *data.feature_names])
        prefixes = [prefix(label) for label in data.class_labels]
        fh.writelines(
            prefixes[code - 1] + delimiter.join(cells(row.tolist())) + end
            for code, row in zip(data.y.tolist(), data.X)
        )


def _class_medians(data: Dataset) -> np.ndarray:
    med = np.empty((data.K, data.p))
    for k in range(data.K):
        med[k] = np.median(data.X[data.y == k + 1], axis=0)
    return med


def filter_features(data: Dataset, rule: str) -> tuple[Dataset, list[int]]:
    """Drop features by a preprocessing rule; returns the reduced dataset
    and the kept original column indices.

    ``"zero-mad"`` drops features whose median absolute deviation is
    exactly zero; ``"class-median-below:<t>"`` drops features whose class
    medians are all below ``t``.  Medians use the midpoint convention for
    even counts.
    """
    if rule == "zero-mad":
        med = np.median(data.X, axis=0)
        mad = np.median(np.abs(data.X - med[None, :]), axis=0)
        keep = mad != 0.0
    elif rule.startswith("class-median-below:"):
        text = rule.split(":", 1)[1]
        try:
            threshold = float(text)
        except ValueError:
            threshold = math.nan
        if not math.isfinite(threshold):
            raise ValidationError(
                f"filter rule {rule}: the threshold must be a finite number"
            )
        keep = (_class_medians(data) >= threshold).any(axis=0)
    else:
        raise ValidationError(
            f"unknown filter rule {rule!r}; expected 'zero-mad' or "
            "'class-median-below:<t>'"
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


def _encode_row(row: np.ndarray) -> str:
    """The standard base64 of a row's little-endian float64 bytes."""
    return base64.b64encode(row.astype("<f8", copy=False).tobytes()).decode("ascii")


def save_model(model: FittedModel, path: str | Path) -> None:
    """Persist a fitted model as a JSON document (schema version 3): the
    config, the hypothesis matrix ``S``, the per-class counts, and the
    per-class means and centred sums of squares, each class row one string,
    the base64 of its little-endian float64 bytes.  ``load_model``
    re-derives everything else with the code ``fit`` uses.

    The bytes are those of one ``json.dumps`` of the whole document (a
    base64 string needs no escape), but the document is streamed: the
    fields before ``class_means`` go through one ``json.dumps``, then
    ``class_means`` and ``class_m2`` are written one class row at a time,
    so the document's text is not held whole."""
    stats = model.stats
    head = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "n": model.n,
        "K": model.K,
        "class_label_map": list(model.class_labels),
        "scheme": model.parts.scheme,
        "S": _s_rows(model.parts),
        "variance_mode": model.variance_mode,
        "penalty": {"kind": model.penalty.kind, "C": model.penalty.C},
        "prior_term_mode": model.prior_term_mode,
        "feature_names": list(model.feature_names),
        "class_counts": stats.n_k.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head)[:-1])  # the closing brace comes last
        for key, rows in (("class_means", stats.mean), ("class_m2", stats.m2)):
            fh.write(f', "{key}": [')
            for i, row in enumerate(rows):
                fh.write(f'{", " if i else ""}"{_encode_row(row)}"')
            fh.write("]")
        fh.write("}")


def _require(doc: dict, key: str):
    if key not in doc:
        raise FormatError(f"model document is missing field {key!r}")
    return doc[key]


def _require_int(doc: dict, key: str) -> int:
    value = _require(doc, key)
    if type(value) is not int:
        raise FormatError(f"model field {key!r} must be an integer, got {value!r}")
    return value


def _require_strings(doc: dict, key: str) -> tuple[str, ...]:
    value = _require(doc, key)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise FormatError(f"model field {key!r} must be a list of strings")
    return tuple(value)


def _s_rows(parts: PartitionSet) -> list[list[int]]:
    """The K x M hypothesis matrix ``S`` as K lists, as a document holds it."""
    return [list(row) for row in zip(*parts.columns)]


def _hypothesis_set(doc: dict, k: int) -> PartitionSet:
    """The set ``build_partition_set`` makes from the document's scheme (from
    ``S`` itself for ``user``), which must hold exactly the stored ``S``.
    Checked first: ``scheme`` is a string (a list would be read as S), S
    holds no bool (``True == 1``) and K is S's row count (K could be huge)."""
    scheme = _require(doc, "scheme")
    s_rows = _require(doc, "S")
    if not isinstance(scheme, str):
        raise FormatError(f"model field 'scheme' must be a string, got {type(scheme).__name__}")
    if not (isinstance(s_rows, list) and len(s_rows) == k
            and all(isinstance(row, list) for row in s_rows)
            and len({len(row) for row in s_rows}) == 1
            and all(type(v) is int for row in s_rows for v in row)):
        raise FormatError(f"S must be K={k} lists of integers, all the same length")
    parts = build_partition_set(k, s_rows if scheme == "user" else scheme,
                                variance_mode=_require(doc, "variance_mode"))
    if _s_rows(parts) != s_rows:
        raise FormatError(f"S is not the hypothesis set scheme {scheme!r} builds for K={k}")
    return parts


def _class_array(doc: dict, key: str, k: int, p: int) -> np.ndarray:
    """The K x p matrix of a class-statistics field: K strings, each the
    strict base64 (``validate=True``: no character outside the alphabet,
    correct padding) of one row's 8·p little-endian float64 bytes."""
    rows = _require(doc, key)
    if not (isinstance(rows, list) and len(rows) == k
            and all(isinstance(row, str) for row in rows)):
        raise FormatError(f"model field {key!r} must be a K x p = {k} x {p} matrix, "
                          "one base64 string per class")
    values = np.empty((k, p))
    for i, row in enumerate(rows):
        try:
            raw = base64.b64decode(row, validate=True)
        except ValueError as exc:  # binascii.Error, or a character outside ASCII
            raise FormatError(f"model field {key!r} row {i + 1} is not base64 ({exc})") from None
        if len(raw) != 8 * p:
            raise FormatError(f"model field {key!r} row {i + 1} holds {len(raw)} bytes, "
                              f"not 8 x p = {8 * p}")
        values[i] = np.frombuffer(raw, "<f8")
    return values


def _fit_inputs(doc: dict) -> tuple[SufficientStats, PartitionSet, PenaltyConfig, str]:
    """The statistics, hypothesis set, penalty and prior term mode that
    ``model_from_stats`` derives a model from, read from a parsed document; field errors raise ``FormatError``, values
    of the wrong type ``TypeError``/``ValueError``, and what
    ``build_partition_set`` rejects ``ValidationError``."""
    version = _require(doc, "schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise FormatError(
            f"unsupported schema_version {version}; "
            f"this build reads version {MODEL_SCHEMA_VERSION}"
        )
    k = _require_int(doc, "K")
    parts = _hypothesis_set(doc, k)
    pen_doc = _require(doc, "penalty")
    try:
        c = pen_doc["C"]
        if type(c) not in (int, float):  # a bool or a string is no constant
            raise FormatError(f"model field 'penalty.C' must be a number, got {c!r}")
        penalty = PenaltyConfig(kind=pen_doc["kind"], C=float(c))
    except (KeyError, TypeError, ValidationError) as exc:
        raise FormatError(f"bad penalty block ({exc})") from None
    feature_names = _require_strings(doc, "feature_names")
    if not feature_names:
        raise FormatError("model field 'feature_names' is empty")
    counts = _require(doc, "class_counts")
    if (not isinstance(counts, list) or len(counts) != k
            or not all(type(v) is int for v in counts)):
        raise FormatError(f"model field 'class_counts' must be a list of K={k} integers")
    n = _require_int(doc, "n")
    stats = SufficientStats(
        n_k=np.array(counts, dtype=np.int64),
        mean=_class_array(doc, "class_means", k, len(feature_names)),
        m2=_class_array(doc, "class_m2", k, len(feature_names)),
        class_labels=_require_strings(doc, "class_label_map"),
        feature_names=feature_names,
    )
    if stats.n != n:
        raise ValidationError("class counts must be positive and sum to n")
    return stats, parts, penalty, _require(doc, "prior_term_mode")


def load_model(path: str | Path) -> FittedModel:
    """Load a model document and derive the model from its per-class
    statistics with ``model_from_stats``, which checks them as a fit
    does; every fault in the document raises ``FormatError``.  The
    document, its class rows' base64 text included, is dropped before the
    derivation allocates its scratch."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: not a valid model document ({exc})") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: model document must be a JSON object")
    try:
        stats, parts, penalty, prior_term_mode = _fit_inputs(doc)
        del doc
        return estimator.model_from_stats(stats, parts, penalty=penalty,
                                          prior_term_mode=prior_term_mode)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed model document ({exc})") from None
    except (ValidationError, NumericError) as exc:
        raise FormatError(f"{path}: invariant violation: {exc}") from None
