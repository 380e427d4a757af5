"""Class-partition hypothesis matrices and their derived index structures.

A hypothesis about one feature is a partition of the K class labels into
groups that share a Gaussian component.  A partition is stored as a column
of K group indices in canonical restricted-growth form: the first label is
1 and each later label exceeds the running maximum by at most one.  The
null column (all classes in one group) is always column 1.

For an ordered list of columns the module derives:

* ``G``   group count per column,
* ``nu``  degrees of freedom relative to the null column,
* ``z``   cumulative group counts, ``z[l] = sum(G[:l+1])``,
* ``A``   the K x M allocation matrix ``a_km = z_m - (G_m - S_km)`` that
          maps (class, column) to a flat component slot in ``1..z[-1]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError

#: Largest class count enumerated exhaustively without an explicit override.
DEFAULT_MAX_CLASSES = 12

SCHEMES = ("exhaustive", "onevsrest", "ordinal", "user")
VARIANCE_MODES = ("equal", "unequal")

Column = tuple[int, ...]


def canonicalize(labels: Sequence[int]) -> Column:
    """Relabel group indices by first appearance, yielding the unique
    restricted-growth representative of the same set partition."""
    mapping: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in mapping:
            mapping[lab] = len(mapping) + 1
        out.append(mapping[lab])
    return tuple(out)


def is_restricted_growth(labels: Sequence[int]) -> bool:
    running_max = 0
    for lab in labels:
        if lab < 1 or lab > running_max + 1:
            return False
        running_max = max(running_max, lab)
    return len(labels) > 0


def group_index(class_label: int, column: Sequence[int]) -> int:
    """Group that ``class_label`` (1-based) belongs to under ``column``."""
    if not 1 <= class_label <= len(column):
        raise ValidationError(
            f"class label {class_label} outside 1..{len(column)}"
        )
    return column[class_label - 1]


def refines(fine: Sequence[int], coarse: Sequence[int]) -> bool:
    """True when every group of ``fine`` is contained in a group of
    ``coarse`` (i.e. ``fine`` splits ``coarse`` further or equals it)."""
    if len(fine) != len(coarse):
        raise ValidationError("columns have different class counts")
    seen: dict[int, int] = {}
    for f, c in zip(fine, coarse):
        if f in seen:
            if seen[f] != c:
                return False
        else:
            seen[f] = c
    return True


def bell_number(k: int) -> int:
    """Bell number B_k via the Bell-triangle recurrence."""
    if k < 0:
        raise ValidationError("class count must be nonnegative")
    if k == 0:
        return 1
    row = [1]
    for _ in range(k - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def _column_sort_key(col: Column) -> tuple[int, Column]:
    return (max(col), col)


def enumerate_exhaustive(
    k: int, *, max_classes: int = DEFAULT_MAX_CLASSES
) -> list[Column]:
    """All set partitions of ``k`` classes as canonical restricted-growth
    columns, null column first, then increasing group count with
    lexicographic tie order.

    Refuses ``k`` beyond ``max_classes``: the column count is the Bell
    number B_k, which blows up combinatorially (B_15 = 1,382,958,545).
    """
    if k < 1:
        raise ValidationError("class count must be at least 1")
    if k > max_classes:
        raise ValidationError(
            f"exhaustive enumeration for K={k} would produce B_{k} = "
            f"{bell_number(k)} columns; Bell numbers blow up quickly "
            f"(B_15 = 1,382,958,545). Raise max_classes to override."
        )
    columns: list[Column] = []
    stack: list[tuple[list[int], int]] = [([1], 1)]
    while stack:
        prefix, running_max = stack.pop()
        if len(prefix) == k:
            columns.append(tuple(prefix))
            continue
        for lab in range(running_max + 1, 0, -1):
            stack.append((prefix + [lab], max(running_max, lab)))
    columns.sort(key=_column_sort_key)
    return columns


def one_vs_rest_columns(k: int) -> list[Column]:
    """Null column plus one column per class isolating it from the rest.

    Duplicates collapse after canonicalization, so K=2 yields M=2 rather
    than K+1 (both singleton splits are the same partition).
    """
    cols = {(1,) * k}
    for single in range(k):
        cols.add(canonicalize(tuple(2 if i == single else 1 for i in range(k))))
    return sorted(cols, key=_column_sort_key)


def ordinal_columns(k: int) -> list[Column]:
    """All 2^(k-1) partitions of 1..k into contiguous intervals."""
    cols: list[Column] = []
    for mask in range(1 << (k - 1)):
        labels = [1]
        for i in range(k - 1):
            labels.append(labels[-1] + ((mask >> i) & 1))
        cols.append(tuple(labels))
    cols.sort(key=_column_sort_key)
    return cols


def allocation_matrix(
    columns: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Derive (G, z, A) for an ordered list of columns.

    The columns are taken in the given order; ``A`` depends on that order
    through the cumulative offsets ``z``.
    """
    k = len(columns[0])
    g = np.array([max(col) for col in columns], dtype=np.int64)
    z = np.cumsum(g)
    s = np.array([list(col) for col in columns], dtype=np.int64).T  # K x M
    a = z[None, :] - (g[None, :] - s)
    assert s.shape == (k, len(columns))
    return g, z, a


@dataclass(frozen=True)
class PartitionSet:
    """Immutable bundle of hypothesis columns and derived index structures."""

    K: int
    M: int
    columns: tuple[Column, ...]
    G: np.ndarray = field(repr=False)
    nu: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)
    A: np.ndarray = field(repr=False)
    scheme: str
    variance_mode: str

    @property
    def n_slots(self) -> int:
        """Total flat component slots, z_M."""
        return int(self.z[-1])

    def column_label(self, m: int) -> str:
        """Compact text form of column ``m`` (1-based), e.g. ``1|2|2``."""
        return "|".join(str(v) for v in self.columns[m - 1])


def _validate_user_matrix(matrix: np.ndarray, k: int) -> list[Column]:
    if matrix.ndim != 2:
        raise ValidationError("user partition matrix must be 2-dimensional")
    if matrix.shape[0] != k:
        raise ValidationError(
            f"user partition matrix has {matrix.shape[0]} rows, expected K={k}"
        )
    if matrix.shape[1] == 0:
        raise ValidationError("user partition matrix has zero columns")
    columns: list[Column] = []
    for j in range(matrix.shape[1]):
        col = tuple(int(v) for v in matrix[:, j])
        groups = set(col)
        if min(groups) < 1 or groups != set(range(1, max(groups) + 1)):
            raise ValidationError(
                f"column {j + 1} of user partition matrix uses group labels "
                f"{sorted(groups)}; labels must cover 1..G with no gaps"
            )
        columns.append(col)
    return columns


def build_partition_set(
    k: int,
    scheme: str = "exhaustive",
    *,
    user_matrix: np.ndarray | Sequence[Sequence[int]] | None = None,
    variance_mode: str = "equal",
    max_classes: int = DEFAULT_MAX_CLASSES,
) -> PartitionSet:
    """Construct the hypothesis set for ``k`` classes under a scheme.

    ``exhaustive`` enumerates all B_k partitions, ``onevsrest`` the null
    plus every single-class-versus-rest split, ``ordinal`` all contiguous
    interval partitions, and ``user`` canonicalizes and deduplicates a
    supplied K x M integer matrix (the null column is prepended when
    missing).  Columns are sorted by group count, then lexicographically.
    """
    _check_config(scheme, variance_mode)
    if scheme == "user":
        if user_matrix is None:
            raise ValidationError("scheme 'user' requires a partition matrix")
        raw = _validate_user_matrix(np.asarray(user_matrix, dtype=np.int64), k)
        dedup = sorted({canonicalize(c) for c in raw}, key=_column_sort_key)
        null = (1,) * k
        columns = dedup if dedup[0] == null else [null] + dedup
    else:
        if user_matrix is not None:
            raise ValidationError(f"scheme {scheme!r} does not take a partition matrix")
        if k < 1:
            raise ValidationError("class count must be at least 1")
        if scheme == "exhaustive":
            columns = enumerate_exhaustive(k, max_classes=max_classes)
        elif scheme == "onevsrest":
            columns = one_vs_rest_columns(k)
        else:
            columns = ordinal_columns(k)

    return partition_set_from_columns(columns, scheme, variance_mode)


def _check_config(scheme: str, variance_mode: str) -> None:
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if variance_mode not in VARIANCE_MODES:
        raise ValidationError(
            f"unknown variance mode {variance_mode!r}; expected one of {VARIANCE_MODES}"
        )


def partition_set_from_columns(
    columns: Sequence[Column], scheme: str, variance_mode: str
) -> PartitionSet:
    """PartitionSet for an ordered list of canonical columns, null first.

    Each group beyond the first costs one degree of freedom (its mean)
    under equal variances and two (mean and variance) under unequal ones.
    """
    _check_config(scheme, variance_mode)
    g, z, a = allocation_matrix(columns)
    df_per_group = 1 if variance_mode == "equal" else 2
    return PartitionSet(
        K=len(columns[0]),
        M=len(columns),
        columns=tuple(columns),
        G=g,
        nu=df_per_group * (g - 1),
        z=z,
        A=a,
        scheme=scheme,
        variance_mode=variance_mode,
    )
