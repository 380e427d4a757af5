"""Simulation scenarios, selection-error metrics and cross-validation.

Generators are pure functions of (scenario spec, seed): structure draws
(which features are discriminative, which partitions, covariance factors,
the final feature permutation) and noise draws come from separate seeded
streams, so equal specs always produce identical data.  The consistency
sweep fits each replicate with ``estimator.fit``; cross-validation derives
each fold's model by the one checked path from statistics to a model
(``estimator.model_from_stats``, with one workspace held for all folds),
so a fold is checked as a fit is.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .estimator import (
    Dataset,
    FittedModel,
    SufficientStats,
    _model_from_stats,
    _Workspace,
    accumulate_stats,
    fit,
    merge_stats,
    predict,
    warn_if_null_only,
)
from .partitions import (
    Column,
    build_partition_set,
    canonicalize,
    enumerate_exhaustive,
    refines,
)

INDEPENDENT_SCENARIOS = ("ind-equal-var", "ind-unequal-var")
DEPENDENT_SCENARIOS = ("dep-equal-cov", "dep-unequal-cov")
SCENARIOS = INDEPENDENT_SCENARIOS + DEPENDENT_SCENARIOS


@dataclass(frozen=True)
class SimSpec:
    """Parameters of one synthetic-data scenario.

    ``scenario`` (one of ``SCENARIOS``) names how the data are drawn; the
    feature-selection sweep (``consistency_sweep``) draws ``ind-equal-var``
    data with its own shift.  In the independent scenarios group ``g`` has
    mean ``(g - 1) * mean_shift``; in the dependent ones each class adds
    ``mean_shift`` on its own feature set.  In the unequal-variance
    scenario group ``g`` has standard deviation
    ``1 + (g - 1) * variance_scale``, which must be positive for every
    group up to ``K``.  Both settings must be finite.
    Dependent scenarios build block covariance from ``p / block_size``
    sparse factors (``block_size`` defaults to ``p / 10``) with
    ``block_density`` off-diagonal fill; only they read and check those
    two settings.
    """

    scenario: str
    n: int
    p: int
    K: int
    discriminative_fraction: float = 0.10
    mean_shift: float = 0.5
    variance_scale: float = 1.0
    block_size: int | None = None
    block_density: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValidationError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}"
            )
        if self.n < self.K or self.p < 1 or self.K < 2:
            raise ValidationError("need n >= K, p >= 1, K >= 2")
        if not 0.0 <= self.discriminative_fraction <= 1.0:
            raise ValidationError("discriminative_fraction must lie in [0, 1]")
        for name in ("mean_shift", "variance_scale"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if (self.scenario == "ind-unequal-var"
                and 1.0 + (self.K - 1) * self.variance_scale <= 0.0):
            raise ValidationError(
                f"variance_scale={self.variance_scale} gives group K={self.K} the "
                "standard deviation 1 + (K - 1) * variance_scale <= 0"
            )
        if self.scenario in DEPENDENT_SCENARIOS:
            b = self.effective_block_size
            if b < 1 or b > self.p:
                raise ValidationError(
                    f"block size {b} outside 1..p={self.p}"
                )
            if self.p % b != 0:
                raise ValidationError(
                    f"p={self.p} is not divisible by block size {b}"
                )
            if not 0.0 <= self.block_density <= 1.0:
                raise ValidationError("block_density must lie in [0, 1]")

    @property
    def effective_block_size(self) -> int:
        if self.block_size is not None:
            return self.block_size
        return max(1, self.p // 10)


@dataclass(frozen=True)
class TruthAssignment:
    """The planted truth: each feature's hypothesis, as an index into the
    exhaustive canonical columns in ``columns``."""

    columns: tuple[Column, ...]
    true_column: np.ndarray   # p, zero-based column index
    class_means: np.ndarray   # K x p
    class_sds: np.ndarray | None  # K x p for independent scenarios


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
class SimReport:
    """Selection-error decomposition of one fit against the planted truth."""

    E: float
    E_O: float
    E_U: float
    norm_error: float       # E / (2p)
    error_over_m: float     # E / M
    hard_rate: float


def _class_allocation(n: int, k: int) -> np.ndarray:
    """Sample counts per class, as equal as possible (largest remainder)."""
    base, rem = divmod(n, k)
    counts = np.full(k, base, dtype=np.int64)
    counts[:rem] += 1
    return counts


def _labels_from_counts(counts: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(1, len(counts) + 1), counts)


def _class_rows(counts: np.ndarray) -> list[slice]:
    """The row slice of each class of ``_labels_from_counts(counts)``."""
    ends = np.cumsum(counts).tolist()
    return [slice(e - c, e) for e, c in zip(ends, counts.tolist())]


def _n_planted(spec: SimSpec) -> int:
    """round(discriminative_fraction * p), the number of planted features;
    a positive fraction that rounds to no feature is refused."""
    n_disc = int(round(spec.discriminative_fraction * spec.p))
    if n_disc == 0 and spec.discriminative_fraction > 0.0:
        raise ValidationError(
            f"discriminative_fraction={spec.discriminative_fraction} of p={spec.p} "
            "features plants none; raise p or the fraction"
        )
    return n_disc


def gen_independent(spec: SimSpec) -> tuple[Dataset, TruthAssignment]:
    """Independent-feature scenario data.

    Discriminative features (``_n_planted``) draw a uniform non-null
    partition; group ``g`` gets mean ``(g-1) * mean_shift`` (and, in the
    unequal-variance scenario, standard deviation ``1 + (g-1) * variance_scale``).
    All remaining features are standard normal.  The noise is drawn into
    X, which is then scaled and shifted in place one class's rows at a
    time (rows are sorted by class), so X is the only n x p array made.
    """
    if spec.scenario not in INDEPENDENT_SCENARIOS:
        raise ValidationError(
            f"scenario {spec.scenario!r} is not an independent-feature scenario"
        )
    columns = tuple(enumerate_exhaustive(spec.K))
    m = len(columns)
    rng_struct = np.random.default_rng([spec.seed, 1])
    rng_noise = np.random.default_rng([spec.seed, 2])

    counts = _class_allocation(spec.n, spec.K)
    y = _labels_from_counts(counts)

    n_disc = _n_planted(spec)
    disc = np.sort(rng_struct.choice(spec.p, size=n_disc, replace=False))
    true_col = np.zeros(spec.p, dtype=np.int64)
    if n_disc:
        true_col[disc] = rng_struct.integers(1, m, size=n_disc)

    class_means = np.zeros((spec.K, spec.p))
    class_sds = np.ones((spec.K, spec.p))
    if n_disc:
        cols_arr = np.array(columns, dtype=np.int64)  # M x K
        group_of_class = cols_arr[true_col[disc]].T  # K x n_disc
        class_means[:, disc] = (group_of_class - 1) * spec.mean_shift
        if spec.scenario == "ind-unequal-var":
            class_sds[:, disc] = 1.0 + (group_of_class - 1) * spec.variance_scale

    X = rng_noise.standard_normal((spec.n, spec.p))
    for k, rows in enumerate(_class_rows(counts)):
        xk = X[rows]
        xk *= class_sds[k]
        xk += class_means[k]
    data = Dataset.from_arrays(X, [str(k) for k in y])
    truth = TruthAssignment(
        columns=columns,
        true_column=true_col,
        class_means=class_means,
        class_sds=class_sds,
    )
    return data, truth


@dataclass(frozen=True)
class DependentStructure:
    """Covariance factors and feature permutation of a dependent scenario.

    ``factors[c][l]`` is the b x b factor of block ``l``; the outer list
    has one entry when classes share a covariance, else one per class.
    The final data permutes feature indices by ``perm`` (column ``j`` of
    the data is pre-permutation feature ``perm[j]``).
    """

    factors: tuple[tuple[np.ndarray, ...], ...]
    shared: bool
    perm: np.ndarray
    disc_sets: tuple[np.ndarray, ...]  # pre-permutation class index sets

    def covariance_entry(self, i: int, j: int, class_index: int = 0) -> float:
        """True covariance between post-permutation features i and j."""
        b = self.factors[0][0].shape[0]
        a, c = int(self.perm[i]), int(self.perm[j])
        if a // b != c // b:
            return 0.0
        blk = self.factors[class_index if not self.shared else 0][a // b]
        return float(blk[:, a % b] @ blk[:, c % b])


def _draw_factor(b: int, density: float, rng: np.random.Generator) -> np.ndarray:
    blk = np.zeros((b, b))
    blk[np.diag_indices(b)] = rng.standard_normal(b)
    off = ~np.eye(b, dtype=bool)
    mask = rng.random((b, b)) < density
    fill = rng.standard_normal((b, b))
    blk[off & mask] = fill[off & mask]
    return blk


def dependent_structure(spec: SimSpec) -> DependentStructure:
    """Deterministic structure draws of a dependent scenario (factors,
    discriminative sets, permutation); reusable to recover the true
    covariance that :func:`gen_dependent` sampled from.

    round(discriminative_fraction * p) features are planted, split over
    the classes as evenly as possible, the first classes taking one more
    each; a positive fraction that rounds to no feature is refused."""
    if spec.scenario not in DEPENDENT_SCENARIOS:
        raise ValidationError(
            f"scenario {spec.scenario!r} is not a dependent-feature scenario"
        )
    n_disc = _n_planted(spec)
    rng_struct = np.random.default_rng([spec.seed, 1])
    b = spec.effective_block_size
    n_blocks = spec.p // b
    shared = spec.scenario == "dep-equal-cov"
    n_factor_sets = 1 if shared else spec.K
    factors = tuple(
        tuple(_draw_factor(b, spec.block_density, rng_struct) for _ in range(n_blocks))
        for _ in range(n_factor_sets)
    )
    sizes = _class_allocation(n_disc, spec.K)
    starts = np.cumsum(sizes) - sizes
    disc_sets = tuple(np.arange(a, a + m, dtype=np.int64) for a, m in zip(starts, sizes))
    perm = rng_struct.permutation(spec.p)
    return DependentStructure(
        factors=factors, shared=shared, perm=perm, disc_sets=disc_sets
    )


def gen_dependent(spec: SimSpec) -> tuple[Dataset, TruthAssignment]:
    """Block-covariance scenario data.

    Rows are sampled as ``z @ B`` per block (covariance ``B^T B``) without
    forming the dense covariance; class ``k`` adds ``mean_shift`` on its
    contiguous discriminative set, in place on its rows, and a seed-fixed
    permutation of the feature indices is applied last.  Truth tracks the
    mean structure: features in class ``k``'s set carry the k-vs-rest
    partition.
    """
    structure = dependent_structure(spec)
    rng_noise = np.random.default_rng([spec.seed, 2])
    b = spec.effective_block_size
    n_blocks = spec.p // b

    counts = _class_allocation(spec.n, spec.K)
    y = _labels_from_counts(counts)

    columns = tuple(enumerate_exhaustive(spec.K))
    class_means = np.zeros((spec.K, spec.p))
    true_col = np.zeros(spec.p, dtype=np.int64)
    for k in range(spec.K):
        one_vs_rest = canonicalize(
            tuple(2 if i == k else 1 for i in range(spec.K))
        )
        m_idx = columns.index(one_vs_rest)
        class_means[k, structure.disc_sets[k]] = spec.mean_shift
        true_col[structure.disc_sets[k]] = m_idx

    X = np.empty((spec.n, spec.p))
    class_rows = _class_rows(counts)
    if structure.shared:
        for l in range(n_blocks):
            z = rng_noise.standard_normal((spec.n, b))
            X[:, l * b : (l + 1) * b] = z @ structure.factors[0][l]
    else:
        for k, rows in enumerate(class_rows):
            for l in range(n_blocks):
                z = rng_noise.standard_normal((counts[k], b))
                X[rows, l * b : (l + 1) * b] = z @ structure.factors[k][l]
    for k, rows in enumerate(class_rows):
        xk = X[rows]
        xk += class_means[k]

    perm = structure.perm
    X = X[:, perm]
    class_means = class_means[:, perm]
    true_col = true_col[perm]

    data = Dataset.from_arrays(X, [str(k) for k in y])
    truth = TruthAssignment(
        columns=columns,
        true_column=true_col,
        class_means=class_means,
        class_sds=None,
    )
    return data, truth


def generate(spec: SimSpec) -> tuple[Dataset, TruthAssignment]:
    """Dispatch to the independent or dependent generator."""
    if spec.scenario in INDEPENDENT_SCENARIOS:
        return gen_independent(spec)
    return gen_dependent(spec)


def selection_error(model: FittedModel, truth: TruthAssignment) -> SimReport:
    """Soft selection error ``E = sum |gamma - gamma0|`` with its
    overfitting/underfitting decomposition and the hard misassignment
    rate; ``gamma0`` is the one-hot of ``truth.true_column``.

    Overfitting mass sits on strict refinements of the true partition;
    underfitting mass on every other wrong hypothesis; ``E = E_O + E_U``.
    One p x M scratch besides gamma holds each summand in turn.
    """
    if model.parts.columns != truth.columns:
        raise ValidationError(
            "model hypothesis columns do not match the truth assignment"
        )
    tc = truth.true_column
    cols = truth.columns
    p, m = len(tc), len(cols)
    gamma = model.gamma
    if gamma.shape != (p, m):
        raise ValidationError(
            f"model gamma is {gamma.shape}, truth needs {(p, m)}"
        )
    # row u of over marks the strict refinements of true column true_cols[u],
    # row u of under every other wrong hypothesis; only true columns get a row
    true_cols, row = np.unique(tc, return_inverse=True)
    over = np.array([[j != m0 and refines(c, cols[m0]) for j, c in enumerate(cols)]
                     for m0 in true_cols], dtype=bool)
    under = ~over
    under[np.arange(len(true_cols)), true_cols] = False
    # a C-ordered copy, so argmax along its rows copies nothing
    scratch = np.array(gamma, order="C")
    hard = float(np.mean(np.argmax(scratch, axis=1) != tc))
    scratch[np.arange(p), tc] -= 1.0
    e_soft = float(np.abs(scratch, out=scratch).sum())
    e_over = 2.0 * float(np.multiply(gamma, over[row], out=scratch).sum())
    e_under = 2.0 * float(np.multiply(gamma, under[row], out=scratch).sum())
    return SimReport(
        E=e_soft,
        E_O=e_over,
        E_U=e_under,
        norm_error=e_soft / (2.0 * p),
        error_over_m=e_soft / m,
        hard_rate=hard,
    )


def consistency_sweep(
    n_values: Sequence[int],
    *,
    p: int = 500,
    k: int = 3,
    replicates: int = 20,
    penalty: str = "ebic",
    variance_mode: str = "equal",
    prior_term_mode: str = "log",
    mean_shift: float = 2.0,
    discriminative_fraction: float = 0.10,
    seed: int = 0,
) -> list[dict]:
    """Feature-selection error across sample sizes: each replicate draws
    ``ind-equal-var`` data (group shift ``mean_shift``), is fitted over
    every exhaustive partition (so ``k`` is at most
    ``partitions.MAX_CLASSES`` = 9) and scored by ``selection_error``.  One
    row per (n, p, K, replicate) with the ``SimReport`` metrics, then
    ``fit_seconds``, the time of the fit alone; directly writable as tidy
    CSV."""
    if len(n_values) == 0:
        raise ValidationError("the sample-size grid is empty")
    if replicates < 1:
        raise ValidationError(f"need at least 1 replicate, got {replicates}")
    metrics = [f.name for f in fields(SimReport)]
    rows = []
    for n in n_values:
        for rep in range(replicates):
            spec = SimSpec(
                scenario="ind-equal-var",
                n=n,
                p=p,
                K=k,
                discriminative_fraction=discriminative_fraction,
                mean_shift=mean_shift,
                seed=int(np.random.default_rng([seed, n, rep]).integers(2**32)),
            )
            data, truth = generate(spec)
            t0 = time.perf_counter()
            model = fit(data, penalty=penalty, variance_mode=variance_mode,
                        prior_term_mode=prior_term_mode)
            fit_seconds = time.perf_counter() - t0
            report = selection_error(model, truth)
            rows.append({"n": n, "p": p, "K": k, "replicate": rep + 1,
                         **{name: getattr(report, name) for name in metrics},
                         "fit_seconds": fit_seconds})
    return rows


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
    data: Dataset, test_sets: Sequence[np.ndarray]
) -> Iterator[tuple[Dataset, SufficientStats]]:
    """The test rows and the training statistics of every fold.  Each
    fold's per-class statistics are taken once, from its own rows; a
    fold's training statistics merge those of the other folds in
    ascending fold order, so no training rows are copied.  A fold's test
    rows are copied when it is yielded, so one fold's copy is held at a
    time."""
    fold_stats = [accumulate_stats(data.subset(idx)) for idx in test_sets]
    for f, idx in enumerate(test_sets):
        yield data.subset(idx), merge_stats(fold_stats[:f] + fold_stats[f + 1:])


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
    concurrently without changing results.  The partition set is built
    once, from ``scheme`` (a scheme name or the K x M matrix S).  Each
    fold's model is derived as ``model_from_stats`` derives it, with the
    checks and the penalty of a fit, on its training statistics, merged
    from per-fold class statistics (``_cv_folds``); the training rows are
    never copied or refitted.  All folds derive in one workspace, allocated
    here, so no fold allocates the derivation's block memory again, and
    each fold's model is released before the next one is derived.
    ``threads`` splits each fold's prediction rows.
    """
    if folds < 2:
        raise ValidationError("need at least 2 folds")
    if trials < 1:
        raise ValidationError("need at least 1 trial")
    parts = build_partition_set(data.K, scheme, variance_mode=variance_mode)
    # every fold derives p features under parts, so one workspace serves all
    ws = _Workspace(parts, data.p)
    rows: list[CvRow] = []
    per_trial = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        test_sets = _stratified_folds(data.y, folds, rng)
        fold_errors = np.empty(folds)
        for f, (test, train) in enumerate(_cv_folds(data, test_sets)):
            model = _model_from_stats(train, parts, ws, penalty=penalty,
                                      prior_term_mode=prior_term_mode,
                                      class_labels=data.class_labels,
                                      feature_names=data.feature_names)
            warn_if_null_only(model)
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
