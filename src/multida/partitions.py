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

A group's mean, variance and likelihood term depend only on the set of
classes it pools.  There are at most 2^K - 1 such sets, far fewer than
the ``z[-1]`` slots (15 against 37 at K=4, 63 against 674 at K=6), so
``PartitionSet.subsets`` (a ``SubsetIndex``) lists the distinct class
subsets once and maps slots, columns and classes onto them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import ValidationError

#: Largest class count the exhaustive scheme enumerates (B_9 = 21,147).  The
#: set is built in about 0.16 s and 44 MB at K=9; K=10 (B_10 = 115,975) takes
#: about 13 s and 218 MB before any fit starts, growing 6-8x per class.
MAX_CLASSES = 9

#: Largest class count of any scheme: ``SubsetIndex`` masks are int64, one bit per class.
MAX_INDEXED_CLASSES = 63

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


def enumerate_exhaustive(k: int) -> list[Column]:
    """All set partitions of ``k`` classes as canonical restricted-growth
    columns, null column first, then increasing group count with
    lexicographic tie order.

    Refuses ``k`` beyond ``MAX_CLASSES``: the column count is the Bell
    number B_k, which blows up combinatorially (B_15 = 1,382,958,545).
    """
    if k < 1:
        raise ValidationError("class count must be at least 1")
    if k > MAX_CLASSES:
        raise ValidationError(
            f"exhaustive enumeration for K={k} would produce B_{k} columns; "
            "Bell numbers blow up quickly (B_10 = 115,975, B_15 = 1,382,958,545), "
            f"so it takes K <= {MAX_CLASSES}."
        )
    # each class joins a group of the classes before it or opens the next one
    columns: list[Column] = [(1,)]
    for _ in range(k - 1):
        columns = [col + (g,) for col in columns for g in range(1, max(col) + 2)]
    columns.sort(key=_column_sort_key)
    return columns


def one_vs_rest_columns(k: int) -> list[Column]:
    """Null column plus one column per class isolating it from the rest.

    Duplicates collapse after canonicalization, so K=2 yields M=2 rather
    than K+1 (both singleton splits are the same partition).
    """
    cols = {canonicalize(tuple(2 if i == single else 1 for i in range(k))) for single in range(k)}
    return sorted(cols | {(1,) * k}, key=_column_sort_key)


def ordinal_columns(k: int) -> list[Column]:
    """All 2^(k-1) partitions of 1..k into contiguous intervals.

    Refuses a set larger than the largest exhaustive one, B_9 = 21,147
    columns (see ``MAX_CLASSES``), before any column is built: so
    ``k <= 15``, the bit length of B_9.
    """
    largest = bell_number(MAX_CLASSES)
    if k > largest.bit_length():  # 2^(k-1) > B_9, without computing 2^(k-1)
        raise ValidationError(
            f"the ordinal set for K={k} would have 2^{k - 1} columns, more than "
            f"the B_{MAX_CLASSES} = {largest} of the largest exhaustive set, "
            f"so it takes K <= {largest.bit_length()}."
        )
    # bit i of the mask starts a new group at class i + 2
    cols = (tuple(accumulate(((mask >> i) & 1 for i in range(k - 1)), initial=1))
            for mask in range(1 << (k - 1)))
    return sorted(cols, key=_column_sort_key)


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
class SubsetIndex:
    """The class subsets that groups pool, and how slots, columns and
    classes index them.

    A subset is a bitmask (bit ``k - 1`` for class ``k``).  Rows
    ``0..K-1`` are the single classes in order; later rows go by size,
    then by mask.  Every group of every column is a row, and so is each
    subset left by dropping its highest classes one at a time, so every
    row past the single classes is an earlier row (``prefix``) plus one
    class (``top``).  Within a size, masks ascend, so the rows that share
    their highest class are contiguous (``runs``).

    The derivation sums over three fields.  ``column_groups`` walks each
    column's groups in slot order, one rank at a time; the columns come
    sorted by group count, as ``build_partition_set`` orders them, so
    the columns with more than r groups are a suffix slice.
    ``row_columns`` and ``class_rows`` list, ascending, the columns that
    hold each row as a group and the group rows that hold each class,
    for one gather-and-sum per row and per class."""

    masks: np.ndarray           # S
    prefix: np.ndarray          # S, row without the highest class; -1 for single classes
    top: np.ndarray             # S, the highest class, zero-based
    runs: tuple[slice, ...]     # rows of each size from 2 up and highest class
    slot_rows: np.ndarray       # z_M, row of each slot's group
    row_columns: tuple[np.ndarray, ...]  # S, ascending columns holding each row as a group
    class_rows: tuple[np.ndarray, ...]   # K, rows of the groups holding each class
    # rank r: the columns with > r groups (a suffix), and the row of group r + 1 of each
    column_groups: tuple[tuple[slice, np.ndarray], ...]

    def __post_init__(self):
        for a in (self.masks, self.prefix, self.top, self.slot_rows, *self.row_columns,
                  *self.class_rows, *(rows for _, rows in self.column_groups)):
            a.setflags(write=False)

    @classmethod
    def from_columns(cls, columns: Sequence[Column]) -> "SubsetIndex":
        k = len(columns[0])
        groups: list[list[int]] = []  # the masks of each column's groups, in slot order
        for col in columns:
            masks = [0] * max(col)
            for c, g in enumerate(col):
                masks[g - 1] |= 1 << c
            groups.append(masks)
        closed = {1 << c for c in range(k)}
        for mask in {m for masks in groups for m in masks}:
            while mask not in closed:
                closed.add(mask)
                mask &= ~(1 << (mask.bit_length() - 1))
        order = sorted(closed, key=lambda m: (bin(m).count("1"), m))
        row = {m: i for i, m in enumerate(order)}
        size = [bin(m).count("1") for m in order]
        top = [m.bit_length() - 1 for m in order]
        prefix = [row[m & ~(1 << t)] if s > 1 else -1
                  for m, t, s in zip(order, top, size)]
        starts = [r for r in range(k, len(order))
                  if r == k or (size[r], top[r]) != (size[r - 1], top[r - 1])]
        runs = tuple(slice(a, b) for a, b in zip(starts, starts[1:] + [len(order)]))
        slot_rows = np.array([row[g] for masks in groups for g in masks], dtype=np.int64)
        holders: list[list[int]] = [[] for _ in order]
        for m, masks in enumerate(groups):
            for g in masks:
                holders[row[g]].append(m)
        used = [r for r, held in enumerate(holders) if held]
        n_groups = np.array([len(masks) for masks in groups], dtype=np.int64)  # ascending
        starts = np.cumsum(n_groups) - n_groups
        # the first column with more than r groups, for each rank r
        first = np.searchsorted(n_groups, np.arange(n_groups[-1]), side="right")
        return cls(
            masks=np.array(order, dtype=np.int64),
            prefix=np.array(prefix, dtype=np.int64),
            top=np.array(top, dtype=np.int64),
            runs=runs,
            slot_rows=slot_rows,
            row_columns=tuple(np.array(held, dtype=np.int64) for held in holders),
            class_rows=tuple(np.array([r for r in used if order[r] >> c & 1], dtype=np.int64)
                             for c in range(k)),
            column_groups=tuple((slice(f, len(columns)), slot_rows[starts[f:] + r])
                                for r, f in enumerate(first.tolist())),
        )


@dataclass(frozen=True)
class PartitionSet:
    """Immutable bundle of hypothesis columns and derived index structures;
    its arrays, and those of ``subsets``, are read-only once built."""

    K: int
    M: int
    columns: tuple[Column, ...]
    G: np.ndarray = field(repr=False)
    nu: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)
    A: np.ndarray = field(repr=False)
    scheme: str
    variance_mode: str
    subsets: SubsetIndex = field(repr=False)

    def __post_init__(self):
        for a in (self.G, self.nu, self.z, self.A):
            a.setflags(write=False)

    @property
    def n_slots(self) -> int:
        """Total flat component slots, z_M."""
        return int(self.z[-1])

    def column_label(self, m: int) -> str:
        """Compact text form of column ``m`` (1-based), e.g. ``1|2|2``."""
        return "|".join(str(v) for v in self.columns[m - 1])


def _entry(v, i: int, j: int) -> int:
    """Entry (i, j) of S as given, before any cast: an int that is no bool,
    or an integral finite float such as ``2.0``."""
    if not isinstance(v, (bool, np.bool_)) and (isinstance(v, (int, np.integer)) or (
            isinstance(v, (float, np.floating)) and float(v).is_integer())):
        return int(v)
    raise ValidationError(f"user partition matrix entry {v!r} at row {i + 1}, "
                          f"column {j + 1} is not an integer")


def _user_columns(scheme) -> list[Column]:
    """The columns of the user matrix S, checked for all but its row count:
    rows of one length, at least one column, every entry an integer
    (``_entry``) and the group labels of each column 1..G with no gaps."""
    matrix = np.array(scheme, dtype=object)  # each entry as given
    # numpy stacks rows of one length only, else holds the rows themselves
    widths = [len(row) for row in matrix if isinstance(row, (list, tuple, np.ndarray))]
    if len(set(widths)) > 1:
        raise ValidationError(f"user partition matrix has rows of different lengths {widths}")
    if matrix.ndim != 2:
        raise ValidationError("user partition matrix must be 2-dimensional")
    if matrix.shape[1] == 0:
        raise ValidationError("user partition matrix has zero columns")
    columns: list[Column] = []
    for j in range(matrix.shape[1]):
        col = tuple(_entry(v, i, j) for i, v in enumerate(matrix[:, j]))
        groups = set(col)
        if groups != set(range(1, len(groups) + 1)):
            raise ValidationError(
                f"column {j + 1} of user partition matrix uses group labels "
                f"{sorted(groups)}; labels must cover 1..G with no gaps"
            )
        columns.append(col)
    return columns


#: The hypothesis sets built by name; a user set is given as its matrix S.
_NAMED_SCHEMES = {
    "exhaustive": enumerate_exhaustive,
    "onevsrest": one_vs_rest_columns,
    "ordinal": ordinal_columns,
}


def check_scheme(scheme: str | np.ndarray | Sequence[Sequence[int]]) -> None:
    """Raise ``ValidationError`` for a scheme that ``build_partition_set``
    refuses whatever the class count: a name it does not know, or a matrix
    S that fails any of its checks but that of S's row count against K.
    ``multida`` calls it on ``--scheme`` before it reads any data."""
    if not isinstance(scheme, str):
        _user_columns(scheme)
    elif scheme not in _NAMED_SCHEMES:
        raise ValidationError(
            f"unknown scheme {scheme!r}; expected one of {tuple(_NAMED_SCHEMES)} "
            "or the K x M partition matrix itself"
        )


def build_partition_set(
    k: int,
    scheme: str | np.ndarray | Sequence[Sequence[int]] = "exhaustive",
    *,
    variance_mode: str = "equal",
) -> PartitionSet:
    """Construct the hypothesis set for ``k`` classes.

    ``scheme`` is a scheme name or the K x M integer matrix S itself:
    any array or nested sequence, each entry an int or an integral finite
    float such as ``2.0``.  S whose rows differ in length, or that holds
    any other entry (a fraction, NaN, infinity, a bool, a string), is
    refused with ``ValidationError`` naming the first bad one, and so is
    S without K rows, after those checks (``check_scheme`` makes them
    alone).  ``exhaustive`` enumerates all B_k partitions (K <= ``MAX_CLASSES`` = 9,
    see ``enumerate_exhaustive``), ``onevsrest`` the null plus every
    single-class-versus-rest split and ``ordinal`` all contiguous interval
    partitions.  A matrix is canonicalized and deduplicated, with the null
    column prepended when missing, and the set is labelled ``user``.
    Columns are sorted by group count, then lexicographically.  Every
    scheme takes K <= ``MAX_INDEXED_CLASSES`` = 63.
    """
    if k < 1:
        raise ValidationError("class count must be at least 1")
    if k > MAX_INDEXED_CLASSES:  # checked before any column is built
        raise ValidationError(f"K={k} classes is more than the {MAX_INDEXED_CLASSES} a "
                              "hypothesis set takes, as it stores class subsets as 64-bit masks")
    if isinstance(scheme, str):
        check_scheme(scheme)
        return _partition_set_from_columns(_NAMED_SCHEMES[scheme](k), scheme, variance_mode)
    raw = _user_columns(scheme)
    if len(raw[0]) != k:
        raise ValidationError(f"user partition matrix has {len(raw[0])} rows, expected K={k}")
    # the null column has the fewest groups, so it sorts first
    columns = sorted({(1,) * k} | {canonicalize(c) for c in raw}, key=_column_sort_key)
    return _partition_set_from_columns(columns, "user", variance_mode)


def _partition_set_from_columns(
    columns: Sequence[Column], scheme: str, variance_mode: str
) -> PartitionSet:
    """PartitionSet for an ordered list of canonical columns, null first.

    Each group beyond the first costs one degree of freedom (its mean)
    under equal variances and two (mean and variance) under unequal ones.
    """
    if variance_mode not in VARIANCE_MODES:
        raise ValidationError(
            f"unknown variance mode {variance_mode!r}; expected one of {VARIANCE_MODES}"
        )
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
        subsets=SubsetIndex.from_columns(columns),
    )
