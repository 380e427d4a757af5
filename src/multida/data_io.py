"""CSV ingestion, feature filtering and model persistence.

Training CSVs carry one label column (named ``label`` unless overridden)
plus numeric feature columns; prediction CSVs are purely numeric.  A CSV
body is parsed by numpy's C reader; a file that reader does not take
whole is read again row by row, which names the first bad cell.  Both
readers hand the rows over in chunks (``_CHUNK_CHARS``):
``load_dataset`` and ``load_matrix`` gather them into one matrix, and
``load_class_stats`` folds them into per-class statistics
(``estimator.StatsAccumulator``), which carry the class labels and
feature names and are all ``fit`` needs, so ``multida train`` holds no n
x p matrix.  A model is stored as one JSON document of its config, its
hypothesis matrix S and per-class statistics, each class row of means and
of centred sums of squares as the base64 of its little-endian float64
bytes, so the bits round-trip exactly.
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
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import FormatError, MultidaError, NumericError, ValidationError
from .estimator import Dataset, FittedModel, PenaltyConfig, StatsAccumulator, SufficientStats
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
    there is none)."""
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


#: Text per ``np.loadtxt`` call of the plain reader, in characters; a
#: chunk is as many lines as reach it, at least one, so a line of more than
#: 2^16 characters (a row of 10000 values written by ``save_dataset`` takes
#: about 196 K) is parsed on its own.  The row reader hands over as many
#: rows as take this many bytes as floats.
_CHUNK_CHARS = 1 << 16


def _no_value(cell: str) -> float:
    """What ``np.loadtxt`` reads for a label cell, which is dropped."""
    return 0.0


def _loadtxt(lines: list[str], delimiter: str, label_idx: int, p: int) -> np.ndarray:
    """The values of ``lines`` but for their label cell (``label_idx``, -1
    for none), by numpy's C reader, which reads the label cell as
    ``_no_value`` rather than parsing it; raises ``ValueError`` unless every
    line gives p values that are finite.  A first-column label is dropped
    by a view, which the sink copies its rows from, any other by a copy."""
    # encoding=None, numpy 2's default: numpy 1 would encode each label
    # cell to latin-1 for the converter, and fail on any other character
    values = np.loadtxt(lines, delimiter=delimiter, dtype=np.float64, ndmin=2,
                        comments=None, quotechar=None, encoding=None,
                        converters=None if label_idx < 0 else {label_idx: _no_value})
    if label_idx == 0:
        values = values[:, 1:]
    elif label_idx > 0:
        values = np.delete(values, label_idx, axis=1)
    if values.shape != (len(lines), p) or not np.isfinite(values).all():
        raise ValueError("not plain CSV")
    return values


def _text_end(line: str) -> int:
    """Where the text of ``line`` ends: before its line break, if any."""
    end = len(line) - line.endswith("\n")
    return end - line.endswith("\r", 0, end)


def _cell(line: str, delimiter: str, index: int, width: int) -> str:
    """Cell ``index`` of a line of ``width`` cells, found from the nearer
    end of the line, so the line is not split: the label cell is the first
    or the last one in most files.  Raises ``ValueError`` when the
    delimiters run out first; a line of more cells than ``width`` gives
    some cell, and ``_loadtxt`` refuses its width."""
    start, stop = 0, _text_end(line)
    if 2 * index < width:
        for _ in range(index):
            start = line.index(delimiter, start) + 1
        if index < width - 1:
            stop = line.index(delimiter, start)
    else:
        for _ in range(width - 1 - index):
            stop = line.rindex(delimiter, 0, stop)
        start = line.rfind(delimiter, 0, stop) + 1
    return line[start:stop]


def _read_plain(path: str | Path, fh, schema: CsvSchema, labeled: bool,
                sink: Callable[[], _Rows | StatsAccumulator]
                ) -> tuple[list[str], _Rows | StatsAccumulator]:
    """Parse the body of an open file into ``sink()``, one ``np.loadtxt``
    call on each chunk of about ``_CHUNK_CHARS`` characters of lines.

    The header goes through ``csv.reader``.  Each body line goes to numpy's
    C reader as it was read, line break included, and the label cell is
    sliced out of it (``_cell``), so no line is copied.  A label cell
    wrapped in one pair of quotes with no quote inside (R's ``write.csv``
    quotes every label) loses the pair, as it does in the csv module.
    Raises whenever the row reader might see the file differently: any
    other quote, a NUL character, a cell over the csv field size limit, a
    ragged row, an empty body, or a cell that ``loadtxt`` cannot parse or
    that is not finite.
    """
    delim = schema.delimiter
    header = None
    if schema.has_header:
        header = next((row for row in csv.reader(fh, delimiter=delim) if row), None)
    # the csv module ends a row at "\n", "\r" or "\r\n" and skips empty rows
    lines = (line for line in fh if line not in ("\n", "\r", "\r\n"))
    first = next(lines, None)
    if first is None:
        raise ValueError("no body")
    width, label_idx, names = _layout(path, schema, labeled, header,
                                      first[:_text_end(first)].split(delim))
    limit = csv.field_size_limit()
    out = sink()
    labels: list[str] = []
    chunk: list[str] = []
    size = 0
    lines = itertools.chain([first], lines)
    del header, first  # a body line is held by its chunk only
    for line in lines:
        # Python 3.10's csv module rejects NUL
        if "\0" in line or _has_long_cell(line, delim, limit):
            raise ValueError("not plain CSV")
        quoted = False
        if label_idx >= 0:
            label = _cell(line, delim, label_idx, width)
            quoted = len(label) > 1 and label[0] == label[-1] == '"'
            if quoted:
                label = label[1:-1]
            if '"' in label:
                raise ValueError("quote inside a label")
            labels.append(label)
        if '"' in line and line.count('"') != 2 * quoted:
            raise ValueError("quoted cell")
        chunk.append(line)
        size += len(line)
        if size >= _CHUNK_CHARS:
            out.add(labels, _loadtxt(chunk, delim, label_idx, len(names)))
            labels, chunk, size = [], [], 0
    if chunk:
        out.add(labels, _loadtxt(chunk, delim, label_idx, len(names)))
    return names, out


def _read_rows(path: str | Path, schema: CsvSchema, *, labeled: bool,
               sink: Callable[[], _Rows | StatsAccumulator]
               ) -> tuple[list[str], _Rows | StatsAccumulator]:
    """The row reader: every row goes through ``csv.reader``, and the rows
    go to ``sink()`` in chunks of about ``_CHUNK_CHARS`` bytes of values.

    Rows are checked for width and converted one at a time, so the file's
    text is never held whole.  Each row goes through one ``np.array``
    call, which parses ``str`` cells exactly as ``float`` does; a row that
    fails, or holds a non-finite value, is scanned cell by cell to report
    the first bad cell.  Row numbers count non-empty lines from 1,
    header included.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = (row for row in csv.reader(fh, delimiter=schema.delimiter) if row)
            header = next(rows, None) if schema.has_header else None
            first = next(rows, None)
            width, label_idx, names = _layout(path, schema, labeled, header, first)
            chunk_rows = max(1, _CHUNK_CHARS // (8 * max(1, len(names))))
            out = sink()
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
                if len(values) == chunk_rows:
                    out.add(labels, np.array(values, dtype=np.float64))
                    labels, values = [], []
            if values:
                out.add(labels, np.array(values, dtype=np.float64))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:
        raise FormatError(f"{path}: malformed CSV ({exc})") from None
    return names, out


def _read_table(path: str | Path, schema: CsvSchema, *, labeled: bool,
                sink: Callable[[], _Rows | StatsAccumulator]
                ) -> tuple[list[str], _Rows | StatsAccumulator]:
    """Read a delimited file into a new ``sink()``, whose ``add`` takes the
    label cells and values of one chunk of rows at a time, in file order;
    returns the feature names and the sink.

    The body is parsed by numpy's C reader (``_read_plain``).  Any file
    it does not take whole, bad ones included, is read again from the
    start by the row reader (``_read_rows``) into a sink of its own, and
    the first one is dropped; the row reader names the first bad cell.
    Both give bit-identical values for every file they accept.  A leading
    UTF-8 byte order mark is dropped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return _read_plain(path, fh, schema, labeled, sink)
    except (ValueError, csv.Error, MultidaError):  # UnicodeDecodeError is a ValueError
        pass
    return _read_rows(path, schema, labeled=labeled, sink=sink)


class _Rows:
    """A sink that gathers the chunks of a table into one matrix.  The
    matrix grows in place by a quarter of its rows at a time, as numpy's
    own reader grows its result, so a table of n rows never holds much
    more than n rows' values."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.values: np.ndarray | None = None
        self.n = 0

    def add(self, labels: list[str], values: np.ndarray) -> None:
        self.labels += labels
        if self.values is None:
            self.values = values.copy()  # a matrix of its own, which resize may grow
        else:
            if self.n + len(values) > len(self.values):
                rows = max(self.n + len(values), len(self.values) + len(self.values) // 4)
                self.values.resize((rows, values.shape[1]), refcheck=False)
            self.values[self.n:self.n + len(values)] = values
        self.n += len(values)

    def matrix(self) -> np.ndarray:
        self.values.resize((self.n, self.values.shape[1]), refcheck=False)
        return self.values


def load_dataset(path: str | Path, schema: CsvSchema = CsvSchema()) -> Dataset:
    """Read a labeled training matrix.

    Labels are encoded 1..K in order of first appearance; the mapping is
    recorded on the returned Dataset.  Any non-numeric or non-finite
    feature cell is rejected with its position.
    """
    _check_labeled(schema)
    names, rows = _read_table(path, schema, labeled=True, sink=_Rows)
    data = Dataset.from_arrays(rows.matrix(), rows.labels, feature_names=names)
    _check_classes(path, data.K)
    return data


def load_class_stats(path: str | Path, schema: CsvSchema = CsvSchema()) -> SufficientStats:
    """The per-class statistics of a labeled training matrix, with its
    class labels and feature names, read as ``load_dataset`` reads the
    file and refused where it refuses it, but with no n x p matrix: each
    chunk of rows goes into a ``StatsAccumulator``.  So ``fit`` of the
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
    names, rows = _read_table(path, schema, labeled=False, sink=_Rows)
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
