"""Closed-form fitting and prediction for the multiDA diagonal classifier.

multiDA couples a diagonal (feature-independent) Gaussian discriminant
model with per-feature hypothesis weighting: for every feature and every
class-partition hypothesis, a likelihood ratio statistic against the null
partition is penalized by an information-criterion charge per extra
parameter, and a softmax over hypotheses turns the penalized statistics
into posterior weights.  Prediction sums weight-averaged log densities
across features per class; that sum collapses to one quadratic form per
class, whose coefficients the model derives once, so scoring n* query
rows costs O(n* * p * K) rather than a pass per slot.

Conventions used throughout:

* Variance MLEs are the biased (divide by count) versions; they make the
  likelihood-ratio identity ``lambda = n log s2_null - n log s2_alt`` exact.
* A group's mean, variance and likelihood term depend only on the set of
  classes it pools, so the derivation works once per distinct class
  subset (``PartitionSet.subsets``, at most 2^K - 1 rows), not once per
  flat slot (``z_M`` of them, see :mod:`multida.partitions`); per-hypothesis
  sums read the subset rows of each hypothesis's groups in slot order.
  The public slot arrays (``mu``, ``sigma2``: slot ``a_km - 1`` holds the
  component of class ``k`` under hypothesis ``m``) are gathers of the
  subset rows.
* A model stores no p x M array.  Prediction reads only the per-class
  score coefficients, and selection only each feature's top hypothesis
  and its weight, which the derivation keeps; ``gamma``, ``lam``, ``mu``,
  ``sigma2`` and ``variance_floor`` are each derived when first read, by
  the derivation's own walk over feature blocks, keeping only that array.
* All softmax computations subtract the row maximum before exponentiating.
* A model is a function of its per-class counts, means and centred sums
  of squares (``SufficientStats``, which carry the class labels and
  feature names that index them), the hypothesis set and the config.
  ``model_from_stats`` is the one checked entry from those to a model: it
  checks the training set, resolves the penalty, derives everything else
  in one pass over feature blocks and checks the result with
  ``validate_model``.  ``fit`` (of a ``Dataset`` or of its statistics),
  each fold of ``cross_validate`` (from fold statistics merged by
  ``_merge_stats``) and ``data_io.load_model`` make that one call; the
  folds of one ``cross_validate`` share one derivation workspace
  (``_Workspace``), which no other module sees.
* Memory is bounded by ``_BLOCK_BYTES`` where n or p could make it grow:
  ``StatsAccumulator`` takes the statistics of rows handed over in chunks
  (``multida train`` streams its CSV into one) and holds at most that
  many bytes of rows before it folds a class, in place, and a one-off
  derivation keeps its whole workspace within half of it.
* Fitting runs on one thread; only ``predict`` splits its rows over
  worker threads.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .partitions import PartitionSet, build_partition_set

#: Relative scale of the per-feature variance floor.
VARIANCE_FLOOR_SCALE = 1e-8

PENALTY_KINDS = ("bic", "aic", "ebic", "custom")
PRIOR_TERM_MODES = ("log", "plogp")

_LOG_2PI = math.log(2.0 * math.pi)

#: The memory limit of the bounded stages, in bytes: the rows a
#: ``StatsAccumulator`` holds over all its classes, and the widest array
#: of one block of a derivation that shares its workspace: a row per
#: hypothesis or class subset, whichever are more, and a column per
#: feature (see ``_block_width``).  The whole workspace of a one-off
#: derivation (``_Workspace``) gets half of it.
_BLOCK_BYTES = 1 << 21

#: The narrowest block a one-off derivation cuts to keep its workspace
#: within half of ``_BLOCK_BYTES``, unless ``_block_width`` is narrower still.
#: Narrower blocks cost time: at K=5, p=20000 (exhaustive, equal
#: variances; 2-core VM, best of 35) a derivation at this width took
#: 23.2 ms against 21.0 ms at ``_block_width`` (5041 features).
_MIN_BLOCK_WIDTH = 2048

#: Query cells (rows x features) each ``predict`` worker must get before a
#: pool starts.  Two workers against one on a 2-core VM (single-threaded
#: BLAS; K=4 at p = 500 and 5000, K=6 at p = 20000; best of interleaved
#: runs) took 1.4-1.5x the time at 2^16 cells a worker, 0.8-1.1x at 2^18
#: and 0.65-0.73x at 2^19, the smallest size at which they won at every p.
_MIN_WORKER_CELLS = 1 << 19


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _owned_readonly(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only, copied first if it is a view: the base a view
    reads could still be written."""
    return _as_readonly(a if a.flags.owndata else a.copy())


def _check_cells_finite(a: np.ndarray, what: str) -> None:
    """Raise ``ValidationError`` naming the first non-finite cell of the
    2-D ``a`` in row-major order; a finite ``a`` costs one scan."""
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise ValidationError(
            f"non-finite {what} value at row {i + 1}, column {j + 1}"
        )


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with encoded class labels.

    ``y`` holds integer codes 1..K assigned by first appearance of each
    raw label; ``class_labels[code - 1]`` recovers the raw label.
    """

    X: np.ndarray
    y: np.ndarray
    class_labels: tuple[str, ...]
    class_counts: np.ndarray
    feature_names: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def K(self) -> int:
        return len(self.class_labels)

    @classmethod
    def from_arrays(
        cls,
        X: np.ndarray,
        labels: Sequence,
        feature_names: Sequence[str] | None = None,
    ) -> "Dataset":
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError("feature matrix must be 2-dimensional")
        if len(labels) != X.shape[0]:
            raise ValidationError(
                f"{len(labels)} labels for {X.shape[0]} rows"
            )
        _check_cells_finite(X, "feature")
        seen: dict[str, int] = {}
        codes = np.empty(len(labels), dtype=np.int64)
        for i, lab in enumerate(labels):
            key = str(lab)
            if key not in seen:
                seen[key] = len(seen) + 1
            codes[i] = seen[key]
        names = (
            tuple(str(f) for f in feature_names)
            if feature_names is not None
            else tuple(f"x{j + 1}" for j in range(X.shape[1]))
        )
        if len(names) != X.shape[1]:
            raise ValidationError(
                f"{len(names)} feature names for {X.shape[1]} columns"
            )
        counts = np.bincount(codes, minlength=len(seen) + 1)[1:]
        return cls(
            X=_owned_readonly(X),
            y=_as_readonly(codes),
            class_labels=tuple(seen),
            class_counts=_owned_readonly(counts),
            feature_names=names,
        )

    def subset(self, rows: np.ndarray) -> "Dataset":
        """Dataset restricted to the given row indices (labels re-counted,
        encoding preserved)."""
        y = self.y[rows]
        counts = np.bincount(y, minlength=self.K + 1)[1:]
        if (counts == 0).any():
            missing = self.class_labels[int(np.argmin(counts))]
            raise ValidationError(f"row subset drops class {missing!r}")
        return Dataset(
            X=_as_readonly(self.X[rows]),
            y=_as_readonly(y),
            class_labels=self.class_labels,
            class_counts=_as_readonly(counts),
            feature_names=self.feature_names,
        )


@dataclass(frozen=True)
class PenaltyConfig:
    """Information-criterion penalty: complexity price C per degree of
    freedom (bic: log n, aic: 2, ebic: log n + 2 log p)."""

    kind: str
    C: float

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValidationError(
                f"unknown penalty kind {self.kind!r}; expected one of {PENALTY_KINDS}"
            )
        if not (self.C >= 0.0 and math.isfinite(self.C)):
            raise ValidationError(f"penalty constant must be finite and >= 0, got {self.C}")

    @classmethod
    def resolve(cls, request: "str | PenaltyConfig", n: int, p: int) -> "PenaltyConfig":
        """Turn a penalty request (``"ebic"``, ``"bic"``, ``"aic"``,
        ``"custom:<C>"`` or a ready config) into a concrete constant."""
        if isinstance(request, PenaltyConfig):
            return request
        name = request.strip().lower()
        if name == "bic":
            return cls("bic", math.log(n))
        if name == "aic":
            return cls("aic", 2.0)
        if name == "ebic":
            return cls("ebic", math.log(n) + 2.0 * math.log(p))
        if name.startswith("custom:"):
            try:
                c = float(name.split(":", 1)[1])
            except ValueError:
                raise ValidationError(
                    f"cannot parse custom penalty {request!r}"
                ) from None
            return cls("custom", c)
        raise ValidationError(
            f"unknown penalty {request!r}; expected bic, aic, ebic or custom:<C>"
        )


@dataclass(frozen=True)
class SufficientStats:
    """Per-class sample counts, means and centred sums of squares, with
    the class labels and feature names that index them.

    ``n_k[k]``, ``mean[k, j]`` and ``m2[k, j]`` refer to class
    ``class_labels[k]`` (code ``k + 1``) and feature ``feature_names[j]``;
    ``m2`` is the sum of squared deviations from the class mean, by the
    corrected two-pass of ``accumulate_stats`` (or ``_merge_stats`` of
    such sums).  Every other fitted quantity derives from these, the
    sample count ``n`` included.  Building them checks that ``n_k`` is
    1-D, that ``mean`` and ``m2`` are both K x p, and that there are K
    distinct labels and p names.  The arrays are made read-only, and a
    view is copied first, so no model derived from them can change under
    the caller who passed them.
    """

    n_k: np.ndarray   # K
    mean: np.ndarray  # K x p
    m2: np.ndarray    # K x p
    class_labels: tuple[str, ...]   # K
    feature_names: tuple[str, ...]  # p

    def __post_init__(self):
        for name in ("n_k", "mean", "m2"):
            object.__setattr__(self, name, _owned_readonly(getattr(self, name)))
        if self.n_k.ndim != 1:
            raise ValidationError(f"class counts must be 1-D, got shape {self.n_k.shape}")
        K = len(self.n_k)
        if self.mean.ndim != 2 or len(self.mean) != K or self.m2.shape != self.mean.shape:
            raise ValidationError(f"means of shape {self.mean.shape} and sums of squares of "
                                  f"shape {self.m2.shape} for {K} class counts: both must be "
                                  "K x p")
        p = self.mean.shape[1]
        if len(self.class_labels) != K:
            raise ValidationError("class label count does not match K")
        if len(set(self.class_labels)) != K:
            raise ValidationError("class labels must be distinct")
        if len(self.feature_names) != p:
            raise ValidationError(f"{len(self.feature_names)} feature names for {p} columns")

    @property
    def n(self) -> int:
        return int(self.n_k.sum())


@dataclass(frozen=True)
class Mles:
    """Closed-form maximum likelihood estimates plus admissibility flags.

    Estimates are held once per class subset (the rows of
    ``parts.subsets``): counts, means and, under unequal variances, the
    floored variances and their logs; under equal variances ``var`` and
    ``log_var`` have one row per hypothesis.  ``mu`` and ``sigma2`` are
    their p-major gathers to the flat slots."""

    parts: PartitionSet = field(repr=False)
    count: np.ndarray       # S
    mean: np.ndarray        # S x p
    var: np.ndarray         # M x p (equal) or S x p (unequal)
    log_var: np.ndarray     # np.log(var), shared by lrt and the score constant
    pi: np.ndarray          # K
    variance_floor: np.ndarray  # p
    admissible: np.ndarray  # M, bool

    @cached_property
    def mu(self) -> np.ndarray:  # p x z_M
        return self.mean[self.parts.subsets.slot_rows].T

    @cached_property
    def sigma2(self) -> np.ndarray:  # p x M (equal) or p x z_M (unequal)
        if self.parts.variance_mode == "equal":
            return self.var.T
        return self.var[self.parts.subsets.slot_rows].T


@dataclass(frozen=True)
class FittedModel:
    """Immutable fitted multiDA model (multiLDA or multiQDA): the class
    statistics (whose ``n``, ``class_labels`` and ``feature_names`` it
    reads) and config, each feature's top-weighted hypothesis (``top``,
    ties to the lowest index) and its weight, and the score coefficients
    of ``model_from_stats``.  The slot arrays ``mu``,
    ``sigma2``, ``variance_floor``, the p x M ``lam`` and the p x M
    hypothesis weights ``gamma`` are each derived block by block when first
    read (``_derived``); ``predict`` reads none of them."""

    parts: PartitionSet
    pi: np.ndarray
    penalty: PenaltyConfig
    prior_term_mode: str
    admissible: np.ndarray = field(repr=False)
    stats: SufficientStats = field(repr=False)  # all that save_model stores
    top: np.ndarray = field(repr=False)         # p, int64
    top_weight: np.ndarray = field(repr=False)  # p
    mu_null: np.ndarray = field(repr=False)  # p
    Q: np.ndarray = field(repr=False)        # K x p
    L: np.ndarray = field(repr=False)        # K x p
    c: np.ndarray = field(repr=False)        # K

    @property
    def p(self) -> int:
        return self.Q.shape[1]

    @property
    def K(self) -> int:
        return self.parts.K

    @property
    def M(self) -> int:
        return self.parts.M

    @property
    def n(self) -> int:
        return self.stats.n

    @property
    def class_labels(self) -> tuple[str, ...]:
        return self.stats.class_labels

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.stats.feature_names

    @property
    def variance_mode(self) -> str:
        return self.parts.variance_mode

    def _derived(self, name: str) -> np.ndarray:
        """The array ``name``, derived block by block (``_block_mles``) into
        a rows x p output; its transpose has the whole-p stages' bits and layout."""
        out = None
        with np.errstate(all="ignore"):
            for cols, block, mles in _block_mles(self.stats, self.parts,
                                                 _Workspace(self.parts, self.p)):
                if name in ("lam", "gamma"):
                    rows = _lrt_rows(mles, block.lam, block.sums, block.gather)
                    if name == "gamma":
                        _softmax_rows(rows, self.parts.nu, self.penalty.C, block.reduce[0])
                else:
                    rows = getattr(mles, name).T
                if out is None:
                    out = np.empty((*rows.shape[:-1], self.p))
                out[..., cols] = rows
        return _as_readonly(out.T)

    mu = cached_property(lambda self: self._derived("mu"))                  # p x z_M
    sigma2 = cached_property(lambda self: self._derived("sigma2"))          # p x (M or z_M)
    variance_floor = cached_property(lambda self: self._derived("variance_floor"))  # p
    lam = cached_property(lambda self: self._derived("lam"))                # p x M
    gamma = cached_property(lambda self: self._derived("gamma"))            # p x M


@dataclass(frozen=True)
class CvRow:
    trial: int
    fold: int
    n_test: int
    n_wrong: int
    error: float


@dataclass(frozen=True)
class CvResult:
    rows: tuple[CvRow, ...]
    per_trial: np.ndarray
    mean: float
    sd: float


@dataclass(frozen=True)
class Prediction:
    """Class probabilities, decoded labels and raw discriminant scores."""

    probabilities: np.ndarray   # n* x K, rows on the simplex
    labels: tuple[str, ...]     # decoded argmax labels, ties to lowest code
    codes: np.ndarray           # n*, integer codes 1..K
    eta: np.ndarray             # n* x K


def _hypothesis_sums(rows: np.ndarray, parts: PartitionSet, out: np.ndarray,
                     tmp: np.ndarray) -> np.ndarray:
    """Sums (M x b) of subset rows (S x b) over each hypothesis's groups,
    added group by group in slot order, into ``out``.  Each rank's group
    rows are gathered into ``tmp``, as many at a time as it has rows."""
    (_, first), *rest = parts.subsets.column_groups
    np.take(rows, first, axis=0, out=out, mode="clip")  # "clip": no buffered copy
    for hyps, groups in rest:
        acc = out[hyps]  # a suffix slice, so a view
        for i in range(0, len(groups), len(tmp)):
            part = groups[i:i + len(tmp)]
            acc[i:i + len(part)] += np.take(rows, part, axis=0, out=tmp[:len(part)], mode="clip")
    return out


def _gather_sums(rows: np.ndarray, index: Sequence[np.ndarray], out: np.ndarray,
                 tmp: np.ndarray) -> np.ndarray:
    """Write to each row ``out[i]`` the sum of the ``rows`` that
    ``index[i]`` lists, gathered in that order into ``tmp`` and summed
    along axis 0; zero where it lists none.  With
    ``parts.subsets.row_columns`` it sums hypothesis rows (M x b) to
    subsets (S x b), with ``class_rows`` subset rows to classes (K x b)."""
    for acc, held in zip(out, index):
        np.sum(np.take(rows, held, axis=0, out=tmp[:len(held)], mode="clip"), axis=0, out=acc)
    return out


@dataclass(frozen=True)
class _Block:
    """The scratch arrays of one block of b features: each is its own
    region of a ``_Workspace``, C-contiguous and (rows x b)."""

    mean: np.ndarray     # S, subset means
    m2: np.ndarray       # S, centred sums of squares, then (unequal) variances
    var: np.ndarray      # M, pooled variances (equal; no rows under unequal)
    log_var: np.ndarray  # M (equal) or S
    sums: np.ndarray     # S, lrt's unequal-variance terms, then variance weights
    gather: np.ndarray   # the rows one step gathers (see _Workspace)
    lam: np.ndarray      # M, lrt's rows, then the block's gamma
    floor: np.ndarray    # 1, the variance floor
    reduce: np.ndarray   # 1, each feature's softmax maximum, then sum


class _Workspace:
    """The scratch memory of a p-feature derivation under ``parts``: its
    ``blocks``, slices of ``width`` features as ``_column_blocks`` lays
    them out, and the ``regions`` of a ``_Block``, one array each,
    allocated once and sized for the widest block.  ``rows`` gives each
    region's row count; ``gather`` holds what one step gathers and is done
    with before it returns: the two operands of a merge run or the rows of
    one subset or class sum, whichever is most, and hypothesis sums gather
    through it in parts.  Every block step writes into views of them, so a
    derivation allocates its block temporaries once, however many blocks
    it has, and no array a model keeps is a view of them.

    Without a ``width`` the workspace is a one-off derivation's: its
    regions together are kept within half of ``_BLOCK_BYTES`` (1 MiB), but
    no block is narrower than ``_block_width`` or ``_MIN_BLOCK_WIDTH``,
    whichever is smaller.  At K=4 (exhaustive, p=10000) the floor binds:
    blocks of 2048 features in 1.6 MB, against one block and 7.6 MiB at
    ``_block_width``; from K=6 on (exhaustive) the width is
    ``_block_width``'s.  The workspace is small, and each region (at most
    240 KiB there) smaller still, so that after ``multida train`` has
    streamed its rows it fits in the memory they freed rather than in
    fresh pages: glibc maps an allocation above its mmap threshold to
    fresh pages, and the parser's buffers raise that threshold to about
    1 MB, below a 1.6 MB buffer but above every region.  A workspace
    shared by many derivations (``cross_validate``) passes
    ``_block_width``: narrower blocks would cost each of them time."""

    def __init__(self, parts: PartitionSet, p: int, width: int | None = None):
        idx = parts.subsets
        n_sub, n_hyp, equal = len(idx.masks), parts.M, parts.variance_mode == "equal"
        gather = max(2 * max((run.stop - run.start for run in idx.runs), default=0),
                     *(len(held) for held in (*idx.row_columns, *idx.class_rows)))
        self.rows = {"mean": n_sub, "m2": n_sub, "var": n_hyp if equal else 0,
                     "log_var": n_hyp if equal else n_sub, "sums": n_sub, "gather": gather,
                     "lam": n_hyp, "floor": 1, "reduce": 1}
        if width is None:
            width = max(min(_block_width(parts), _MIN_BLOCK_WIDTH),
                        _BLOCK_BYTES // 2 // (8 * sum(self.rows.values())))
        self.width = width
        self.blocks = _column_blocks(p, width)
        widest = max((c.stop - c.start for c in self.blocks), default=0)
        self.regions = {name: np.empty(rows * widest) for name, rows in self.rows.items()}

    def block(self, b: int) -> _Block:
        """The views of a block ``b`` features wide."""
        return _Block(**{name: self.regions[name][:rows * b].reshape(rows, b)
                         for name, rows in self.rows.items()})


def _block_width(parts: PartitionSet) -> int:
    """Features per block of a shared workspace (``cross_validate``): as
    many as keep the widest block array, max(M, S) x width doubles, within
    ``_BLOCK_BYTES``, and at least 2.  Under the exhaustive scheme that is
    17476 at K=4 (M = S = 15), 1291 at K=6 (M = 203) and 63 at K=8
    (M = 4140).  A one-off derivation narrows it further (``_Workspace``).
    Either width depends only on the hypothesis set, which a model file
    stores, so a loaded model derives in the blocks of its fit."""
    return max(2, _BLOCK_BYTES // (8 * max(parts.M, len(parts.subsets.masks))))


def _column_blocks(p: int, size: int) -> list[slice]:
    """Blocks of ``size`` features, the last one wider by one column where
    it would otherwise be one column wide.  No block is one column wide
    unless ``p == 1``: numpy's axis-0 sum of a gather (``_gather_sums``)
    adds a wider block's rows one by one, in order, but a single column's
    pairwise, so a one-column block would change the bits."""
    starts = list(range(0, p, size))
    if len(starts) > 1 and p - starts[-1] == 1:
        starts.pop()
    return [slice(s, e) for s, e in zip(starts, starts[1:] + [p])]


def _resolve_threads(threads: int) -> int:
    """The worker count for ``threads``: 0 means every CPU this process
    may run on, and no count exceeds that number.  Output does not depend
    on the count, so the cap changes no result."""
    if threads < 0:
        raise ValidationError("threads must be >= 0")
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return usable if threads == 0 else min(threads, usable)


def check_fit_options(penalty: str | PenaltyConfig, threads: int) -> None:
    """Raise ``ValidationError`` for a penalty request or a thread count
    that ``fit`` refuses whatever its data.  A request that resolves at
    n = p = 1 resolves at every n, p >= 1 (C is log n, 2, log n + 2 log p
    or the custom constant), so it is resolved there.  ``fit`` calls it
    first, and ``multida train`` before it reads its CSV."""
    PenaltyConfig.resolve(penalty, 1, 1)
    _resolve_threads(threads)


def check_seed(seed: int) -> None:
    """Raise ``ValidationError`` unless ``seed`` is a non-negative
    integer, as numpy's seed sequences need; checked before any draw."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")


def _fold(x: np.ndarray, mean: np.ndarray, m2: np.ndarray, d_sum: np.ndarray) -> None:
    """The corrected two-pass of Chan, Golub & LeVeque (1983) over one
    class's rows ``x`` (n_k x p, C-contiguous, overwritten): the mean
    first, then the sum of the squared deviations d from it less
    (sum d)**2 / n_k.  Writes the mean, the sum of squares and sum d (p
    each) to ``mean``, ``m2`` and ``d_sum``.  The correction removes the
    rounding of the mean, which the plain two-pass lets into the sum of
    squares far from zero (a relative error near 1e-7 at an offset of
    1e12), so the result stays within rounding of the exact one wherever
    the data sit.  A sum below 0 (a constant column can round there) is
    clamped to 0.  numpy sums the columns of a C-contiguous matrix row by
    row in order, and a single column pairwise, so the bits depend only on
    the rows and their order."""
    n = len(x)
    x.sum(axis=0, out=mean)
    mean /= n
    x -= mean
    x.sum(axis=0, out=d_sum)
    np.square(x, out=x)
    x.sum(axis=0, out=m2)
    correction = np.square(d_sum, out=x[0])  # the rows are spent: no allocation
    correction /= n
    m2 -= correction
    np.maximum(m2, 0.0, out=m2)


def accumulate_stats(data: Dataset) -> SufficientStats:
    """Per-class counts, means and centred sums of squares of the K
    classes of ``data``, by one ``_fold`` per class, with its class labels
    and feature names.

    Besides the K x p ``mean`` and ``m2`` it returns, it holds one class's
    rows at a time: each class's copy is released before the next is
    taken, and the correction goes through one p-wide scratch row.

    Overflow is not reported here: it leaves a non-finite statistic,
    which ``validate_model`` turns into an error.
    """
    mean = np.empty((data.K, data.p))
    m2 = np.empty((data.K, data.p))
    d_sum = np.empty(data.p)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(data.K):
            xk = data.X[data.y == k + 1]
            _fold(xk, mean[k], m2[k], d_sum)
            del xk  # before the next class's copy is taken
    return SufficientStats(n_k=data.class_counts, mean=mean, m2=m2,
                           class_labels=data.class_labels, feature_names=data.feature_names)


@dataclass
class _Folded:
    """What the folds of one class of a ``StatsAccumulator`` leave: its
    row count, the first fold's mean ``s``, the class mean less ``s``
    (``shifted``), the centred sum of squares, and whether one fold made
    them."""

    n: int
    s: np.ndarray
    shifted: np.ndarray
    m2: np.ndarray
    once: bool = True


class RowBuffer:
    """Rows handed over in chunks, gathered into one C-contiguous matrix,
    which grows in place by a quarter of its rows at a time (or to fit the
    chunk), so n rows never hold much more than n rows' values.  It keeps
    the chunks' labels too, for the CSV reader's ``load_dataset`` and
    ``load_matrix``; a ``StatsAccumulator`` keeps one per class, for its
    waiting rows."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.values = np.empty((0, 0))  # a matrix of its own, which resize may grow
        self.n = 0

    def room(self, rows: int, p: int) -> np.ndarray:
        """The next ``rows`` rows of p values, counted as held, for the
        caller to fill before the next call."""
        if self.n + rows > len(self.values):
            size = max(self.n + rows, len(self.values) + len(self.values) // 4)
            self.values.resize((size, p), refcheck=False)
        self.n += rows
        return self.values[self.n - rows:self.n]

    def add(self, labels: list[str], values: np.ndarray) -> None:
        self.labels += labels
        self.room(len(values), values.shape[1])[:] = values

    def matrix(self) -> np.ndarray:
        self.values.resize((self.n, self.values.shape[1]), refcheck=False)
        return self.values


class StatsAccumulator:
    """Per-class statistics of rows handed over in chunks, without all of
    them held at once: ``add`` takes each chunk's labels and rows, and
    ``finish`` gives the ``SufficientStats``, its classes coded 1..K in
    order of first appearance as ``Dataset.from_arrays`` codes them.

    Each class's waiting rows are copied from the chunks into one growing
    matrix of its own (a ``RowBuffer``).  Whenever the rows held, over all
    classes, take more than ``_BLOCK_BYTES``, the class holding the most
    rows (the first of them on a tie) folds: ``_fold`` works on its matrix
    where it lies, and the matrix is released.
    ``finish`` folds every class that still holds rows.  So a class that
    folds once gets the bits ``accumulate_stats`` gives it; that is every
    class whose rows come in one run that fits the limit, wherever the run
    lies in the file.  Where a class folds is set by the rows held after
    each chunk, so the bits of a class that folds more than once depend on
    how its rows were chunked.

    A class that folds again is merged by ``_chan_merge`` on means shifted
    by its first fold's mean s.  A fold's shifted mean is (mean - s) plus
    the mean of its rows' deviations from its own rounded mean, which
    ``_fold`` sums anyway: that term restores the rounding of the fold's
    mean, and mean - s, a difference of two values near the class, rounds
    at the scale of the class's spread, not of its offset from zero.  So
    the rounding of no mean enters a merge, and the merged m2 stays within
    rounding of the exact sum far from zero, however the class's rows are
    split.  The class mean is s plus the merged shifted mean.

    Overflow is not reported here, as in ``accumulate_stats``.
    """

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}
        self._held: list[RowBuffer] = []  # per class: its waiting rows
        self._folded: list[_Folded | None] = []
        self._p = 0

    def add(self, labels: Sequence, rows: np.ndarray) -> None:
        """Take one chunk: ``rows`` (n x p) and their ``labels``.  Each row
        is copied once, into its class's matrix, and the caller's array is
        neither held nor changed.  A chunk that is not n x p, n the label
        count and p the width of earlier chunks, is refused with
        ``ValidationError``."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or len(rows) != len(labels):
            raise ValidationError(f"a chunk of {len(labels)} labels needs as many rows, "
                                  f"got an array of shape {rows.shape}")
        if self._codes and rows.shape[1] != self._p:
            raise ValidationError(f"a chunk of {rows.shape[1]} features after chunks of {self._p}")
        codes = np.empty(len(labels), dtype=np.int64)
        for i, lab in enumerate(labels):
            codes[i] = code = self._codes.setdefault(str(lab), len(self._codes))
            if code == len(self._held):
                self._held.append(RowBuffer())
                self._folded.append(None)
        self._p = rows.shape[1]
        counts = np.bincount(codes)
        for k in np.flatnonzero(counts).tolist():
            np.compress(codes == k, rows, axis=0, out=self._held[k].room(int(counts[k]), self._p))
        while sum(h.n for h in self._held) * self._p * 8 > _BLOCK_BYTES:
            self._fold_class(max(range(len(self._held)), key=lambda k: self._held[k].n))

    def _fold_class(self, k: int) -> None:
        held, n = self._held[k].values, self._held[k].n
        self._held[k] = RowBuffer()
        mean, m2, d_sum = (np.empty(self._p) for _ in range(3))
        with np.errstate(over="ignore", invalid="ignore"):
            _fold(held[:n], mean, m2, d_sum)
            # shrunk first: glibc raises its mmap threshold to the size of a freed mmapped block
            held.resize((0, self._p), refcheck=False)
            del held
            d_sum /= n  # the fold's mean less its rounded mean
            a = self._folded[k]
            if a is None:
                self._folded[k] = _Folded(n, mean, d_sum, m2)
                return
            mean -= a.s
            mean += d_sum
            shifted, m2 = _chan_merge(np.array([a.n]), a.shifted[None], a.m2[None],
                                      n, mean[None], m2[None])
        self._folded[k] = _Folded(a.n + n, a.s, shifted[0], m2[0], once=False)

    def finish(self, feature_names: tuple[str, ...]) -> SufficientStats:
        """The statistics of every row taken, its features named
        ``feature_names``."""
        for k in range(len(self._held)):
            if self._held[k].n:  # no name keeps a folded class's rows
                self._fold_class(k)
        n_k = np.array([a.n for a in self._folded], dtype=np.int64)
        mean = np.empty((len(n_k), self._p))
        m2 = np.empty_like(mean)
        with np.errstate(over="ignore", invalid="ignore"):
            for k, a in enumerate(self._folded):
                mean[k] = a.s if a.once else a.s + a.shifted
                m2[k] = a.m2
        return SufficientStats(n_k=n_k, mean=mean, m2=m2, class_labels=tuple(self._codes),
                               feature_names=feature_names)


def _chan_merge(
    n_a: np.ndarray, mean_a: np.ndarray, m2_a: np.ndarray,
    n_b: np.ndarray, mean_b: np.ndarray, m2_b: np.ndarray,
    out: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
) -> tuple[np.ndarray, np.ndarray]:
    """Means and centred sums of squares of the union of two disjoint
    samples, row by row, by the pairwise update of Chan, Golub & LeVeque
    (1983):

        mean_ab = mean_a + d * n_b / n_ab,
        M2_ab = M2_a + M2_b + d**2 * n_a * n_b / n_ab,  d = mean_b - mean_a.

    ``n_a`` holds one count per row of ``mean_a``; ``n_b`` is one count or
    one per row, and ``mean_b``/``m2_b`` broadcast against ``mean_a``.
    The results go to ``out`` (means, sums of squares) when given.
    """
    n_ab = n_a + n_b
    d = np.subtract(mean_b, mean_a, out=out[1])
    mean = np.multiply(d, (n_b / n_ab)[:, None], out=out[0])
    mean += mean_a
    m2 = np.square(d, out=d)
    m2 *= (n_a * n_b / n_ab)[:, None]
    m2 += m2_b
    m2 += m2_a
    return mean, m2


def _merge_subsets(mean: np.ndarray, m2: np.ndarray, count: np.ndarray,
                   parts: PartitionSet, ws: _Block) -> None:
    """Means and centred sums of squares of every class subset of
    ``parts.subsets``, from the classes' ``mean`` and ``m2`` (K x b) and
    the subsets' ``count``, written to ``ws.mean`` and ``ws.m2``.  Each
    subset is its prefix subset merged with its highest class by
    ``_chan_merge``, one run of ``parts.subsets.runs`` at a time, so the
    classes of every subset enter in ascending order.  A run's prefix
    subsets are gathered into ``ws.gather``; its one highest class
    broadcasts."""
    idx = parts.subsets
    b = mean.shape[1]
    mean_s, m2_s = ws.mean, ws.m2
    mean_s[:parts.K], m2_s[:parts.K] = mean, m2
    for rows in idx.runs:
        pre, k = idx.prefix[rows], idx.top[rows.start]  # rows 0..K-1 are the single classes
        mean_a, m2_a = ws.gather[:2 * len(pre)].reshape(2, len(pre), b)
        np.take(mean_s, pre, axis=0, out=mean_a, mode="clip")
        np.take(m2_s, pre, axis=0, out=m2_a, mode="clip")
        _chan_merge(count[pre], mean_a, m2_a, count[k], mean_s[k], m2_s[k],
                    out=(mean_s[rows], m2_s[rows]))


def _merge_stats(samples: Sequence[SufficientStats], shift: np.ndarray) -> SufficientStats:
    """Per-class statistics of the union of disjoint samples of the same
    classes and features, each taken of its rows less ``shift`` (K x p),
    merged in the given order by ``_chan_merge``; the merged means get
    ``shift`` back, and the labels are the first sample's.
    Cross-validation builds each fold's training statistics this way from
    the statistics of the other folds."""
    first, *rest = samples
    n_k, mean, m2 = first.n_k, first.mean, first.m2
    with np.errstate(over="ignore", invalid="ignore"):
        for s in rest:
            mean, m2 = _chan_merge(n_k, mean, m2, s.n_k, s.mean, s.m2)
            n_k = n_k + s.n_k
        mean = mean + shift
    return SufficientStats(n_k=n_k, mean=mean, m2=m2, class_labels=first.class_labels,
                           feature_names=first.feature_names)


def fit_mles(stats: SufficientStats, parts: PartitionSet) -> Mles:
    """Closed-form MLEs from per-class sufficient statistics.

    Classes are merged into every class subset that a group pools
    (``_merge_subsets``); means are subset means, variances biased MLEs,
    pooled within a hypothesis for the equal-variance (multiLDA) case and
    per group for the unequal-variance (multiQDA) case, as
    ``parts.variance_mode`` says.  Every variance is
    clamped below at ``1e-8 *`` the feature's overall variance (or 1e-8
    when that is zero), then logged once.  Hypotheses whose variance MLE
    is degenerate (multiQDA: any group with fewer than 2 samples;
    multiLDA: n <= G_m) are flagged inadmissible.  Work runs
    subset-major; ``mu`` and ``sigma2`` gather it to the slots.  This is
    ``_block_mles`` over one block of all p features (``_Workspace`` with
    ``width=p``), so the per-feature arrays are views of the workspace
    regions allocated for this call.
    """
    p = stats.mean.shape[1]
    return next(_block_mles(stats, parts, _Workspace(parts, p, width=p)))[2]


def _block_mles(stats: SufficientStats, parts: PartitionSet,
                ws: _Workspace) -> Iterator[tuple[slice, _Block, Mles]]:
    """``fit_mles`` of each block of ``ws.blocks`` in turn, with the block's
    columns and its views of ``ws``, which the next block overwrites.  What
    holds for every feature (the subset counts, admissibility and pi) is
    computed once, before the first block, and every block's ``Mles``
    shares it, read-only."""
    idx, n = parts.subsets, stats.n
    # each subset's count, the sum of its classes' counts
    count = (((idx.masks[:, None] >> np.arange(parts.K)) & 1) @ stats.n_k).astype(np.float64)
    if parts.variance_mode == "equal":
        admissible = n > parts.G
    else:
        # smallest group of each hypothesis; z - G is its first slot
        admissible = np.minimum.reduceat(count[idx.slot_rows], parts.z - parts.G) >= 2
    admissible[0] = True  # null pools all samples; n >= 2 is checked upstream
    pi = stats.n_k / n
    for a in (count, admissible, pi):
        a.setflags(write=False)
    for cols in ws.blocks:
        block = ws.block(cols.stop - cols.start)
        _merge_subsets(stats.mean[:, cols], stats.m2[:, cols], count, parts, block)
        m2 = block.m2

        # the overall variance: the last subset holds every class
        floor = np.divide(m2[-1], n, out=block.floor[0])
        floor[~(floor > 0.0)] = 1.0
        floor *= VARIANCE_FLOOR_SCALE

        if parts.variance_mode == "equal":
            var = _hypothesis_sums(m2, parts, out=block.var, tmp=block.gather)
            var /= n
        else:
            var = np.divide(m2, count[:, None], out=m2)
        np.maximum(var, floor, out=var)

        yield cols, block, Mles(parts=parts, count=count, mean=block.mean, var=var,
                                log_var=np.log(var, out=block.log_var), pi=pi,
                                variance_floor=floor, admissible=admissible)


def _lrt_rows(mles: Mles, out: np.ndarray, terms: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``lrt``'s statistics as hypothesis rows (M x p), written to ``out``.
    Under unequal variances each subset's term (S x p) goes to ``terms``
    and ``_hypothesis_sums`` gathers into ``tmp``."""
    parts = mles.parts
    n = mles.count[-1]
    if parts.variance_mode == "equal":
        np.subtract(mles.log_var[:1], mles.log_var, out=out)
        out *= n
    else:
        # the null's one group holds all n samples, so row 0 is n * log(s2_null)
        np.multiply(mles.log_var, mles.count[:, None], out=terms)
        _hypothesis_sums(terms, parts, out=out, tmp=tmp)
        np.subtract(out[0], out[1:], out=out[1:])
    out[0] = 0.0
    out[~mles.admissible] = -np.inf
    return out


def lrt(mles: Mles) -> np.ndarray:
    """Likelihood ratio statistics of every hypothesis of ``mles.parts``
    against the null, as a p x M matrix; n is the count of the last subset,
    which holds every class.  Column 1 is exactly zero; inadmissible
    columns are ``-inf`` so they carry no weight downstream."""
    out = np.empty((mles.parts.M, mles.mean.shape[1]))
    return _lrt_rows(mles, out, np.empty_like(mles.log_var), np.empty_like(out)).T


def _softmax_rows(lam: np.ndarray, nu: np.ndarray, C: float, row: np.ndarray) -> np.ndarray:
    """``gamma_weights`` in place on hypothesis rows (M x b): ``lam``
    becomes the weights; ``row`` (b) holds each column's maximum, then
    its sum."""
    lam *= 0.5
    lam -= (C * nu)[:, None]
    lam -= np.max(lam, axis=0, out=row)
    np.exp(lam, out=lam)
    lam /= np.sum(lam, axis=0, out=row)
    return lam


def gamma_weights(lam: np.ndarray, nu: np.ndarray, penalty: PenaltyConfig) -> np.ndarray:
    """Posterior hypothesis weights (p x M) from LRT statistics (p x M):
    the softmax of ``lam/2 - C * nu`` along each row, computed with
    max-subtraction.  ``lrt`` writes ``-inf``
    for inadmissible hypotheses, which therefore receive weight zero; the
    null score is exactly zero, so the normalizer never vanishes."""
    scores = np.array(lam, dtype=np.float64).T
    return _softmax_rows(scores, np.asarray(nu, dtype=np.float64), penalty.C,
                         np.empty(scores.shape[1])).T


def fit(
    data: Dataset | SufficientStats,
    *,
    scheme: str | np.ndarray = "exhaustive",
    penalty: str | PenaltyConfig = "ebic",
    variance_mode: str = "equal",
    prior_term_mode: str = "log",
    threads: int = 1,
) -> FittedModel:
    """Fit a multiDA model to a data set's rows or to per-class statistics
    (rows go through ``accumulate_stats`` first): ``model_from_stats``
    under the hypothesis set that ``build_partition_set`` builds from
    ``scheme`` (a scheme name or the K x M matrix S) and ``variance_mode``
    for the K classes.  The fit runs on one thread; ``threads`` is only
    checked (>= 0), so the output is identical for any thread count.  The
    penalty and ``threads`` are checked first (``check_fit_options``),
    before any statistics are taken.  Warns when no non-null hypothesis is
    admissible.

    The model needs only the per-class statistics, so ``fit`` lets go of
    ``data`` once it has them, before the derivation allocates its
    workspace.  The n x p matrix is then freed if the caller holds no
    reference to it either: ``fit(load_dataset(path))`` on CPython 3.11
    or later, which moves a call's arguments into the callee's frame.  On
    3.10 the caller's stack keeps the argument until ``fit`` returns.
    ``multida train`` holds no matrix at all: it streams its CSV into the
    statistics, ``fit(data_io.load_class_stats(path))``.
    """
    check_fit_options(penalty, threads)
    stats = data if isinstance(data, SufficientStats) else accumulate_stats(data)
    del data
    parts = build_partition_set(len(stats.n_k), scheme, variance_mode=variance_mode)
    model = model_from_stats(stats, parts, penalty=penalty, prior_term_mode=prior_term_mode)
    _warn_if_null_only(model)
    return model


def _warn_if_null_only(model: FittedModel) -> None:
    """Warn the caller of a fit when no non-null hypothesis is admissible."""
    if model.M > 1 and not model.admissible[1:].any():
        warnings.warn(
            "no non-null hypothesis is admissible (too few samples per "
            "group); the fit degenerates to the null-only model",
            stacklevel=3,
        )


def model_from_stats(
    stats: SufficientStats,
    parts: PartitionSet,
    *,
    penalty: str | PenaltyConfig,
    prior_term_mode: str,
) -> FittedModel:
    """The one checked entry from per-class sufficient statistics, the
    hypothesis set and the config to a model; ``fit``, ``cross_validate``
    and ``load_model`` all call it, so a loaded model is bit-identical to
    the fitted one.  It raises ``ValidationError`` unless ``parts`` is a
    set for the K classes of ``stats``, K >= 2, there are n >= K+1
    samples (over ``stats.n_k``) and p >= 1 features, and
    ``prior_term_mode`` is known.  It resolves ``penalty`` against ``stats.n``
    and p, and returns the model checked by ``validate_model``.

    The derivation is one pass over blocks of features (``_block_mles``,
    as wide as ``_Workspace`` lays them out), so no p x z_M array is held.  Each block takes
    ``fit_mles`` of its columns, ``lrt`` and ``gamma_weights`` in place in
    hypothesis-row (M x block) layout, and its share of the per-class
    coefficients (Q, L, c) of the score

        eta_k(x) = sum_j xc_j * (L[k, j] - Q[k, j] * xc_j / 2) + c[k],

    with ``xc = x - mu_null``; centring on the null mean guards the
    expanded square against cancellation when the data sit far from 0.
    The block's gamma stays in the workspace: the model keeps each
    feature's top hypothesis and its weight, and ``c`` the sum of gamma.
    A class's coefficients sum over the subsets that hold it, each subset
    weighted by the summed gamma of the hypotheses that have it as a
    group, so the block work is per subset and per hypothesis, never per
    slot.  Overflow is not reported while deriving: it leaves a
    non-finite value, which ``validate_model`` rejects.

    The subset counts, admissibility and pi hold for every feature, so
    ``_block_mles`` computes them once, before the first block.  Every
    block step writes into one workspace (``_Workspace``), allocated once
    per call and sized for the widest block; only the model's own arrays
    are allocated besides.  ``cross_validate`` holds one workspace
    for all its folds (``_model_from_stats``)."""
    return _model_from_stats(stats, parts, None, penalty=penalty,
                             prior_term_mode=prior_term_mode)


def _model_from_stats(
    stats: SufficientStats,
    parts: PartitionSet,
    ws: _Workspace | None,
    *,
    penalty: str | PenaltyConfig,
    prior_term_mode: str,
) -> FittedModel:
    """``model_from_stats``, deriving in ``ws``: a ``_Workspace(parts, p)``
    for the p features of ``stats``, which ``cross_validate`` holds for
    all its folds, or None for one of this call's own, freed before the
    model is validated."""
    K, p, n = len(stats.n_k), stats.mean.shape[1], stats.n
    if parts.K != K:
        raise ValidationError(f"the hypothesis set is for K={parts.K} classes, "
                              f"the statistics have {K}")
    if K < 2:
        raise ValidationError("training data must contain at least 2 classes")
    if n < K + 1:
        raise ValidationError(f"need at least K+1 = {K + 1} samples, got {n}")
    if p < 1:
        raise ValidationError("training data must contain at least 1 feature")
    if prior_term_mode not in PRIOR_TERM_MODES:
        raise ValidationError(
            f"unknown prior term mode {prior_term_mode!r}; "
            f"expected one of {PRIOR_TERM_MODES}"
        )
    penalty = PenaltyConfig.resolve(penalty, n, p)
    arrays = _derive(stats, parts, penalty.C, prior_term_mode,
                     ws if ws is not None else _Workspace(parts, p))
    return validate_model(FittedModel(parts=parts, penalty=penalty,
                                      prior_term_mode=prior_term_mode, stats=stats, **arrays))


def _derive(
    stats: SufficientStats, parts: PartitionSet, C: float, prior_term_mode: str,
    ws: _Workspace,
) -> dict[str, np.ndarray]:
    """The derived arrays of ``model_from_stats`` (``pi``, ``top``,
    ``top_weight``, ``admissible``, ``mu_null``, ``Q``, ``L`` and ``c``),
    read-only, one block of ``ws.blocks`` at a time in the views of ``ws``.
    Each block's gamma lives only in the workspace: its column maxima and
    their first hypothesis are kept, and its sum goes into ``c``."""
    p = stats.mean.shape[1]
    top = np.empty(p, dtype=np.int64)
    top_weight = np.empty(p)
    mu_null = np.empty(p)
    Q = np.empty((parts.K, p))
    L = np.empty_like(Q)
    subset_const = np.zeros(len(parts.subsets.masks))
    log_const = gamma_sum = 0.0
    with np.errstate(all="ignore"):
        for cols, block, mles in _block_mles(stats, parts, ws):
            # the block's own arrays are reused in place below
            var, log_var, d = mles.var, mles.log_var, mles.mean
            g = _softmax_rows(_lrt_rows(mles, block.lam, block.sums, block.gather), parts.nu, C,
                              block.reduce[0])
            gamma_sum += g.sum()
            # an axis-0 argmax would copy g; the first row equal to the
            # maximum is np.argmax's pick
            np.max(g, axis=0, out=top_weight[cols])
            np.argmax(g == top_weight[cols], axis=0, out=top[cols])
            # per subset (S x block): the weight of its squared deviation,
            # summed over the hypotheses that hold it as a group
            if parts.variance_mode == "equal":
                # every class sees each hypothesis's one variance
                log_const += np.multiply(g, log_var, out=log_var).sum()
                w_var = _gather_sums(np.divide(g, var, out=var), parts.subsets.row_columns,
                                     block.sums, block.gather)
            else:
                w_var = _gather_sums(g, parts.subsets.row_columns, block.sums, block.gather)
                subset_const += np.multiply(w_var, log_var, out=log_var).sum(axis=1)
                w_var /= var
            mu_null[cols] = d[-1]
            d -= mu_null[cols]  # subset means centred on the null mean
            _gather_sums(w_var, parts.subsets.class_rows, Q[:, cols], block.gather)
            w_d = np.multiply(w_var, d, out=w_var)
            _gather_sums(w_d, parts.subsets.class_rows, L[:, cols], block.gather)
            subset_const += np.multiply(w_d, d, out=d).sum(axis=1)
        pi = mles.pi
        prior = np.log(pi) if prior_term_mode == "log" else pi * np.log(pi)
        class_const = np.array([subset_const[rows].sum() for rows in parts.subsets.class_rows])
        c = prior - 0.5 * (class_const + log_const + _LOG_2PI * gamma_sum)
    return {"pi": pi, "top": _as_readonly(top), "top_weight": _as_readonly(top_weight),
            "admissible": mles.admissible, "mu_null": _as_readonly(mu_null),
            "Q": _as_readonly(Q), "L": _as_readonly(L), "c": _as_readonly(c)}


def predict(
    model: FittedModel, Xnew: np.ndarray, *, threads: int = 1
) -> Prediction:
    """Class probabilities for query rows.

    For each class the discriminant score is the weight-averaged Gaussian
    log density summed over features plus the class-prior term; class
    probabilities are the row softmax of the scores.  The score is a
    quadratic form in the query row whose per-class coefficients the model
    holds (see ``model_from_stats``), so scoring costs O(n* * p * K): two
    ``einsum`` products per row chunk, of the centred rows with L and of
    their squares with Q, with no n* x p temporary per class.  The rows
    split over at most ``threads`` workers, each taking at least
    ``_MIN_WORKER_CELLS`` query cells; a call too small for two runs in
    the calling thread, with no pool.  Ties in
    the argmax resolve to the lowest class code.  A score that is not
    finite (e.g. when a model's values overflow) raises ``NumericError``.
    """
    Xnew = np.ascontiguousarray(Xnew, dtype=np.float64)
    if Xnew.ndim == 1:
        Xnew = Xnew[None, :]
    if Xnew.ndim != 2:
        raise ValidationError("query matrix must be 2-dimensional")
    if Xnew.shape[1] != model.p:
        raise ValidationError(
            f"query has {Xnew.shape[1]} columns; model expects p={model.p}"
        )
    _check_cells_finite(Xnew, "query")
    nq = Xnew.shape[0]
    # a worker costs more than it saves unless it gets _MIN_WORKER_CELLS
    workers = max(1, min(_resolve_threads(threads),
                         nq * model.p // _MIN_WORKER_CELLS))
    eta = np.empty((nq, model.K))

    def work(rows: slice) -> None:
        # overflow shows up as a non-finite score, reported below; the error
        # state is per thread, so each worker sets its own
        with np.errstate(over="ignore", invalid="ignore"):
            xc = Xnew[rows] - model.mu_null
            # einsum without ``optimize`` runs no BLAS: each row's sums run
            # in an order that depends only on p, never on the row chunking
            lin = np.einsum("ij,kj->ik", xc, model.L)
            sq = np.einsum("ij,kj->ik", np.square(xc, out=xc), model.Q)
            eta[rows] = lin - 0.5 * sq + model.c

    if workers == 1:
        work(slice(0, nq))
    else:
        from concurrent.futures import ThreadPoolExecutor

        size = -(-nq // workers)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, [slice(i, min(i + size, nq)) for i in range(0, nq, size)]))

    if not np.isfinite(eta).all():
        row = np.argmin(np.isfinite(eta).all(axis=1))
        raise NumericError(f"non-finite discriminant score at query row {row + 1}")
    shifted = eta - eta.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    codes = np.argmax(probs, axis=1) + 1
    labels = tuple(model.class_labels[c - 1] for c in codes)
    return Prediction(
        probabilities=_as_readonly(probs),
        labels=labels,
        codes=_as_readonly(codes),
        eta=_as_readonly(eta),
    )


def _stratified_folds(
    y: np.ndarray, folds: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Test-index sets of a stratified K-fold split."""
    fold = np.empty(len(y), dtype=np.int64)
    for k in range(1, int(y.max()) + 1):
        idx = np.flatnonzero(y == k)
        if len(idx) < folds:
            raise ValidationError(
                f"class {k} has {len(idx)} samples, fewer than {folds} folds"
            )
        # each class's rows, shuffled, deal out to the folds in turn
        fold[rng.permutation(idx)] = np.arange(len(idx)) % folds
    return [np.flatnonzero(fold == f) for f in range(folds)]


def _cv_folds(
    data: Dataset, test_sets: Sequence[np.ndarray], centre: np.ndarray
) -> Iterator[tuple[Dataset, SufficientStats]]:
    """The test rows and the training statistics of every fold.  Each
    fold's per-class statistics are taken once, of its own rows less
    ``centre`` (K x p, each class's mean over ``data``); a fold's training
    statistics merge those of the other folds in ascending fold order,
    then get ``centre`` back (``_merge_stats``), so no training rows are
    copied.  The merge takes differences of fold means, which the shift
    brings near 0, so their rounding is at the scale of a class's spread,
    not of its distance from 0, and the merged m2 stays within rounding of
    the training rows' own far from zero.  A fold's shifted rows take the
    place of its copy, and its test rows are copied when it is yielded, so
    one copy of a fold's rows is held at a time."""
    fold_stats = []
    with np.errstate(over="ignore", invalid="ignore"):
        for fold in map(data.subset, test_sets):
            shifted = centre[fold.y - 1]
            fold = replace(fold, X=np.subtract(fold.X, shifted, out=shifted))  # the unshifted copy goes
            fold_stats.append(accumulate_stats(fold))
            del fold, shifted  # before the next fold's rows are copied
    for f, idx in enumerate(test_sets):
        train = _merge_stats(fold_stats[:f] + fold_stats[f + 1:], centre)
        yield data.subset(idx), train  # the test rows are copied once the merge is done


def cross_validate(
    data: Dataset,
    folds: int = 5,
    trials: int = 50,
    *,
    seed: int = 0,
    scheme: str | np.ndarray = "exhaustive",
    penalty: str = "ebic",
    variance_mode: str = "equal",
    prior_term_mode: str = "log",
    threads: int = 1,
) -> CvResult:
    """Repeated stratified k-fold cross-validation.

    Fold assignments for trial ``t`` come from an independent stream
    seeded by (seed, t), so any subset of trials can be reproduced or run
    concurrently without changing results; ``seed`` must be a
    non-negative integer (``check_seed``).  The partition set is built
    once, from ``scheme`` (a scheme name or the K x M matrix S).  Each
    fold's model is derived as ``model_from_stats`` derives it, with the
    checks and the penalty of a fit, on its training statistics, merged
    from per-fold class statistics taken about the class means, which are
    computed once here (``_cv_folds``); the training rows are never copied
    or refitted.  All folds derive in one workspace, allocated
    here, so no fold allocates the derivation's block memory again, and
    each fold's model is released before the next one is derived.
    ``threads`` splits each fold's prediction rows.  The penalty and
    ``threads`` are checked first (``check_fit_options``), as ``fit``
    checks them.
    """
    check_fit_options(penalty, threads)
    if folds < 2:
        raise ValidationError("need at least 2 folds")
    if trials < 1:
        raise ValidationError("need at least 1 trial")
    check_seed(seed)
    parts = build_partition_set(data.K, scheme, variance_mode=variance_mode)
    # every fold derives p features under parts, so one workspace serves all
    ws = _Workspace(parts, data.p, _block_width(parts))
    with np.errstate(over="ignore", invalid="ignore"):
        centre = np.array([data.X[data.y == k].mean(axis=0) for k in range(1, data.K + 1)])
    rows: list[CvRow] = []
    per_trial = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        test_sets = _stratified_folds(data.y, folds, rng)
        fold_errors = np.empty(folds)
        for f, (test, train) in enumerate(_cv_folds(data, test_sets, centre)):
            model = _model_from_stats(train, parts, ws, penalty=penalty,
                                      prior_term_mode=prior_term_mode)
            _warn_if_null_only(model)
            pred = predict(model, test.X, threads=threads)
            wrong = int((pred.codes != test.y).sum())
            err = wrong / test.n
            fold_errors[f] = err
            rows.append(CvRow(t + 1, f + 1, test.n, wrong, err))
            del model, pred  # one fold's model and prediction at a time
        per_trial[t] = fold_errors.mean()
    mean = float(per_trial.mean())
    sd = float(per_trial.std(ddof=1)) if trials > 1 else 0.0
    return CvResult(rows=tuple(rows), per_trial=per_trial, mean=mean, sd=sd)


def check_threshold(threshold: float) -> None:
    """Raise ``ValidationError`` unless the selection ``threshold`` lies in
    (0, 1]; ``selected_features`` checks it, and ``multida train`` before
    it reads its CSV."""
    if not 0.0 < threshold <= 1.0:
        raise ValidationError("threshold must lie in (0, 1]")


def selected_features(
    model: FittedModel, threshold: float = 0.5
) -> list[tuple[str, int, float]]:
    """Features whose top-weighted hypothesis (``model.top``) is non-null
    with weight (``model.top_weight``) at least ``threshold``, as (name,
    hypothesis index, weight) sorted by weight descending; gamma is not
    derived."""
    check_threshold(threshold)
    top, weight = model.top, model.top_weight
    keep = (top != 0) & (weight >= threshold)
    rows = [
        (model.feature_names[j], int(top[j]) + 1, float(weight[j]))
        for j in np.flatnonzero(keep)
    ]
    rows.sort(key=lambda r: (-r[2], r[0]))
    return rows


def validate_model(model: FittedModel) -> FittedModel:
    """Return ``model`` once the parts of it a caller can break hold:
    positive class counts (``SufficientStats`` checks the labels), finite
    class statistics with ``class_m2 >= 0``, and a finite null mean
    (``mu``) and gamma.  It reads only stored arrays, none of them p x M:
    a non-finite gamma column has a NaN maximum, so ``top_weight`` stands
    for gamma.  A structural
    fault raises ``ValidationError``; a non-finite value (e.g. from
    overflowing statistics) raises ``NumericError`` naming the field and
    the first bad feature.  The rest holds by construction.
    ``model_from_stats`` calls it on every model it derives."""
    stats = model.stats
    if np.any(stats.n_k < 1):
        raise ValidationError("class counts must be positive and sum to n")
    if np.any(stats.m2 < 0.0):
        raise ValidationError("class_m2 holds a negative value")
    for name, values in (("class_means", stats.mean), ("class_m2", stats.m2),
                         ("mu", model.mu_null[None, :]),
                         ("gamma", model.top_weight[None, :])):  # all ... x p
        if not np.isfinite(values).all():
            j = int(np.argmin(np.isfinite(values).all(axis=0)))
            raise NumericError(f"{name} holds a non-finite value for feature "
                               f"{model.feature_names[j]!r}")
    return model
