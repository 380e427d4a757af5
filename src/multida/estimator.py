"""Closed-form fitting and prediction for the multiDA diagonal classifier.

multiDA couples a diagonal (feature-independent) Gaussian discriminant
model with per-feature hypothesis weighting: for every feature and every
class-partition hypothesis, a likelihood ratio statistic against the null
partition is penalized by an information-criterion charge per extra
parameter, and a softmax over hypotheses turns the penalized statistics
into posterior weights.  Prediction sums weight-averaged log densities
across features per class; that sum collapses to one quadratic form per
class, whose coefficients are set up at O(p * M * K) cost per call, so
scoring n* query rows costs O(n* * p * K) rather than a pass per slot.

Conventions used throughout:

* Variance MLEs are the biased (divide by count) versions; they make the
  likelihood-ratio identity ``lambda = n log s2_null - n log s2_alt`` exact.
* Per-feature component parameters live in flat "slot" arrays of width
  ``z_M`` (see :mod:`multida.partitions`); slot ``a_km - 1`` holds the
  component of class ``k`` under hypothesis ``m``.
* All softmax computations subtract the row maximum before exponentiating.
* A model is a function of its per-class counts, means and centred sums
  of squares (``SufficientStats``), the hypothesis set and the config;
  ``model_from_stats`` derives everything else, for ``fit`` and for
  ``load_model`` alike.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .partitions import DEFAULT_MAX_CLASSES, PartitionSet, build_partition_set

#: Relative scale of the per-feature variance floor.
VARIANCE_FLOOR_SCALE = 1e-8

PENALTY_KINDS = ("bic", "aic", "ebic", "custom")
PRIOR_TERM_MODES = ("log", "plogp")

_LOG_2PI = math.log(2.0 * math.pi)


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
        bad = np.argwhere(~np.isfinite(X))
        if bad.size:
            i, j = bad[0]
            raise ValidationError(
                f"non-finite feature value at row {i + 1}, column {j + 1}"
            )
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
            X=_as_readonly(X),
            y=_as_readonly(codes),
            class_labels=tuple(seen),
            class_counts=_as_readonly(counts),
            feature_names=names,
        )

    def subset(self, rows: np.ndarray) -> "Dataset":
        """Dataset restricted to the given row indices (labels re-counted,
        encoding preserved)."""
        y = self.y[rows]
        counts = np.bincount(y, minlength=self.K + 1)[1:]
        if (counts == 0).any():
            missing = int(np.argmin(counts)) + 1
            raise ValidationError(
                f"row subset drops class {self.class_labels[missing - 1]!r}"
            )
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
    """Per-class sample counts, means and centred sums of squares.

    ``n_k[k]``, ``mean[k, j]`` and ``m2[k, j]`` refer to class ``k + 1``
    and feature ``j``; ``m2`` is the two-pass sum of squared deviations
    from the class mean.  Every other fitted quantity derives from these.
    """

    n: int
    n_k: np.ndarray   # K
    mean: np.ndarray  # K x p
    m2: np.ndarray    # K x p


@dataclass(frozen=True)
class Mles:
    """Closed-form maximum likelihood estimates plus admissibility flags."""

    mu: np.ndarray          # p x z_M
    sigma2: np.ndarray      # p x M (equal) or p x z_M (unequal)
    pi: np.ndarray          # K
    variance_floor: np.ndarray  # p
    admissible: np.ndarray  # M, bool
    variance_mode: str


@dataclass(frozen=True)
class FittedModel:
    """Immutable fitted multiDA model (multiLDA or multiQDA)."""

    parts: PartitionSet
    variance_mode: str
    mu: np.ndarray
    sigma2: np.ndarray
    pi: np.ndarray
    gamma: np.ndarray
    lam: np.ndarray
    penalty: PenaltyConfig
    prior_term_mode: str
    n: int
    class_labels: tuple[str, ...]
    feature_names: tuple[str, ...]
    variance_floor: np.ndarray = field(repr=False)
    admissible: np.ndarray = field(repr=False)
    stats: SufficientStats = field(repr=False)  # all that save_model stores

    @property
    def p(self) -> int:
        return self.gamma.shape[0]

    @property
    def K(self) -> int:
        return self.parts.K

    @property
    def M(self) -> int:
        return self.parts.M


@dataclass(frozen=True)
class Prediction:
    """Class probabilities, decoded labels and raw discriminant scores."""

    probabilities: np.ndarray   # n* x K, rows on the simplex
    labels: tuple[str, ...]     # decoded argmax labels, ties to lowest code
    codes: np.ndarray           # n*, integer codes 1..K
    eta: np.ndarray             # n* x K


def _slot_columns(parts: PartitionSet) -> np.ndarray:
    """Hypothesis column (0-based) of every flat slot."""
    return np.repeat(np.arange(parts.M), parts.G)


def _slot_starts(parts: PartitionSet) -> np.ndarray:
    """First flat slot of every hypothesis."""
    return np.concatenate(([0], parts.z[:-1]))


def _hypothesis_sums(rows: np.ndarray, parts: PartitionSet) -> np.ndarray:
    """Sums (M x p) of slot-major rows (z_M x p) over each hypothesis's
    slots, added row by row in slot order."""
    out = np.empty((parts.M, rows.shape[1]))
    for m, (start, g) in enumerate(zip(_slot_starts(parts), parts.G)):
        out[m] = rows[start:start + g].sum(axis=0)
    return out


def _slot_counts(n_k: np.ndarray, parts: PartitionSet) -> np.ndarray:
    """Sample count of every flat slot."""
    counts = np.zeros(parts.n_slots, dtype=np.int64)
    np.add.at(counts, parts.A - 1, np.broadcast_to(n_k[:, None], parts.A.shape))
    return counts


def _feature_chunks(p: int, threads: int) -> list[slice]:
    """Feature blocks for ``threads`` workers.  No block is one column wide
    unless ``p == 1``: numpy sums a single column pairwise but a wider block
    row by row, so a one-column block would change the bits."""
    size = max(2, -(-p // max(1, threads)))
    starts = list(range(0, p, size))
    if len(starts) > 1 and p - starts[-1] == 1:
        starts.pop()
    return [slice(s, e) for s, e in zip(starts, starts[1:] + [p])]


def _resolve_threads(threads: int) -> int:
    if threads < 0:
        raise ValidationError("threads must be >= 0")
    if threads == 0:
        import os

        return os.cpu_count() or 1
    return threads


def accumulate_stats(
    data: Dataset, parts: PartitionSet, *, threads: int = 1
) -> SufficientStats:
    """Per-class counts, means and centred sums of squares, in two passes
    over each class's rows (the mean first, then the squared deviations
    from it), so the result does not depend on where the data sit.

    Feature blocks are fully independent, so results do not depend on the
    number of threads.
    """
    if data.K != parts.K:
        raise ValidationError(
            f"dataset has {data.K} classes but partition set expects {parts.K}"
        )
    threads = _resolve_threads(threads)
    class_rows = [np.flatnonzero(data.y == k + 1) for k in range(data.K)]
    mean = np.empty((data.K, data.p))
    m2 = np.empty((data.K, data.p))

    def work(cols: slice) -> None:
        xb = data.X[:, cols]
        for k, rows in enumerate(class_rows):
            xk = xb[rows]
            mean[k, cols] = mk = xk.sum(axis=0) / rows.size
            xk -= mk
            m2[k, cols] = np.square(xk, out=xk).sum(axis=0)

    chunks = _feature_chunks(data.p, threads)
    if threads == 1 or len(chunks) == 1:
        for c in chunks:
            work(c)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, chunks))

    return SufficientStats(n=data.n, n_k=data.class_counts,
                           mean=_as_readonly(mean), m2=_as_readonly(m2))


def _merge_classes(
    stats: SufficientStats, parts: PartitionSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slot-major (z_M x p) counts, means and centred sums of squares of
    every flat slot, merged from the per-class moments in ascending class
    order.  A slot's first class enters as is; each later one is added
    with the pairwise update of Chan, Golub & LeVeque (1983):

        mean_ab = mean_a + d * n_b / n_ab,
        M2_ab = M2_a + M2_b + d**2 * n_a * n_b / n_ab,  d = mean_b - mean_a.
    """
    a0 = parts.A - 1  # K x M, zero-based slots; one slot per column
    count = np.zeros(parts.n_slots, dtype=np.int64)
    mean = np.empty((parts.n_slots, stats.mean.shape[1]))
    m2 = np.empty_like(mean)
    for k in range(parts.K):
        slots = a0[k]
        n_a = count[slots]
        new, old = slots[n_a == 0], slots[n_a > 0]
        mean[new] = stats.mean[k]
        m2[new] = stats.m2[k]
        if old.size:
            n_a, n_b = count[old], stats.n_k[k]
            n_ab = n_a + n_b
            d = stats.mean[k] - mean[old]
            mean[old] += d * (n_b / n_ab)[:, None]
            m2[old] += stats.m2[k] + np.square(d) * (n_a * n_b / n_ab)[:, None]
        count[slots] += stats.n_k[k]
    return count, mean, m2


def fit_mles(
    stats: SufficientStats, parts: PartitionSet, variance_mode: str
) -> Mles:
    """Closed-form MLEs from per-class sufficient statistics.

    Classes are merged into the slots of every hypothesis
    (``_merge_classes``); means are slot means, variances biased MLEs,
    pooled within a hypothesis for the equal-variance (multiLDA) case and
    per group for the unequal-variance (multiQDA) case.  Every variance is
    clamped below at ``1e-8 *`` the feature's overall variance (or 1e-8
    when that is zero).  Hypotheses whose variance MLE is degenerate
    (multiQDA: any group with fewer than 2 samples; multiLDA: n <= G_m)
    are flagged inadmissible.  Work runs slot-major; ``mu`` and
    ``sigma2`` are p-major views of the slot-major results.
    """
    if variance_mode not in ("equal", "unequal"):
        raise ValidationError(f"unknown variance mode {variance_mode!r}")
    n = stats.n
    count, mean, m2 = _merge_classes(stats, parts)

    global_var = m2[0] / n
    floor = VARIANCE_FLOOR_SCALE * np.where(global_var > 0.0, global_var, 1.0)

    if variance_mode == "equal":
        sigma2 = _hypothesis_sums(m2, parts) / n
        admissible = n > parts.G
    else:
        sigma2 = m2 / count[:, None]
        admissible = np.minimum.reduceat(count, _slot_starts(parts)) >= 2
    np.maximum(sigma2, floor, out=sigma2)
    admissible[0] = True  # null pools all samples; n >= 2 is checked upstream

    return Mles(mu=mean.T, sigma2=sigma2.T, pi=stats.n_k / n,
                variance_floor=floor, admissible=admissible,
                variance_mode=variance_mode)


def lrt(stats: SufficientStats, parts: PartitionSet, mles: Mles) -> np.ndarray:
    """Likelihood ratio statistics of every hypothesis against the null,
    as a p x M matrix.  Column 1 is exactly zero; inadmissible columns are
    ``-inf`` so they carry no weight downstream."""
    n = stats.n
    log_var = np.log(mles.sigma2.T)  # slot-major; row 0 is the null either way
    if mles.variance_mode == "equal":
        lam = n * (log_var[:1] - log_var)
    else:
        # the null slot holds all n samples, so row 0 is n * log(s2_null)
        log_var *= _slot_counts(stats.n_k, parts)[:, None]
        lam = _hypothesis_sums(log_var, parts)
        lam = lam[:1] - lam
    lam[0] = 0.0
    lam[~mles.admissible] = -np.inf
    return lam.T


def gamma_weights(
    lam: np.ndarray,
    nu: np.ndarray,
    penalty: PenaltyConfig,
    admissible: np.ndarray | None = None,
) -> np.ndarray:
    """Posterior hypothesis weights: softmax of ``lam/2 - C * nu`` along
    the last axis, computed with max-subtraction.  ``-inf`` statistics
    (inadmissible hypotheses) receive weight zero before normalization;
    the null score is exactly zero, so the normalizer never vanishes."""
    lam = np.asarray(lam, dtype=np.float64)
    squeeze = lam.ndim == 1
    lam2 = np.atleast_2d(lam)
    scores = 0.5 * lam2 - penalty.C * np.asarray(nu, dtype=np.float64)[None, :]
    if admissible is not None:
        scores = np.where(admissible[None, :], scores, -np.inf)
    smax = scores.max(axis=1, keepdims=True)
    w = np.exp(scores - smax)
    w /= w.sum(axis=1, keepdims=True)
    return w[0] if squeeze else w


def fit(
    data: Dataset,
    parts: PartitionSet | None = None,
    *,
    scheme: str = "exhaustive",
    user_matrix: np.ndarray | None = None,
    penalty: str | PenaltyConfig = "ebic",
    variance_mode: str = "equal",
    prior_term_mode: str = "log",
    threads: int = 1,
    max_classes: int = DEFAULT_MAX_CLASSES,
) -> FittedModel:
    """Fit a multiDA model: sufficient statistics, closed-form MLEs,
    penalized LRT statistics and posterior hypothesis weights.

    When ``parts`` is omitted one is built from ``scheme`` for
    ``data.K`` classes.  ``threads`` only changes how feature blocks are
    scheduled; the output is identical for any thread count.
    """
    if data.K < 2:
        raise ValidationError("training data must contain at least 2 classes")
    if data.n < data.K + 1:
        raise ValidationError(
            f"need at least K+1 = {data.K + 1} samples, got {data.n}"
        )
    if data.p < 1:
        raise ValidationError("training data must contain at least 1 feature")
    if prior_term_mode not in PRIOR_TERM_MODES:
        raise ValidationError(
            f"unknown prior term mode {prior_term_mode!r}; "
            f"expected one of {PRIOR_TERM_MODES}"
        )
    if parts is None:
        parts = build_partition_set(
            data.K,
            scheme,
            user_matrix=user_matrix,
            variance_mode=variance_mode,
            max_classes=max_classes,
        )
    else:
        if parts.K != data.K:
            raise ValidationError(
                f"partition set is for K={parts.K}, data has K={data.K}"
            )
        if parts.variance_mode != variance_mode:
            raise ValidationError(
                f"partition set was built for variance_mode="
                f"{parts.variance_mode!r}, fit requested {variance_mode!r}"
            )
    pen = PenaltyConfig.resolve(penalty, data.n, data.p)
    stats = accumulate_stats(data, parts, threads=threads)
    model = model_from_stats(stats, parts, penalty=pen,
                             prior_term_mode=prior_term_mode,
                             class_labels=data.class_labels,
                             feature_names=data.feature_names)
    if parts.M > 1 and not model.admissible[1:].any():
        warnings.warn(
            "no non-null hypothesis is admissible (too few samples per "
            "group); the fit degenerates to the null-only model",
            stacklevel=2,
        )
    return model


def model_from_stats(
    stats: SufficientStats,
    parts: PartitionSet,
    *,
    penalty: PenaltyConfig,
    prior_term_mode: str,
    class_labels: tuple[str, ...],
    feature_names: tuple[str, ...],
) -> FittedModel:
    """The one derivation of a model from per-class sufficient statistics,
    the hypothesis set and the config: closed-form MLEs, LRT statistics
    and posterior hypothesis weights.  ``fit`` and ``load_model`` both
    call it, so a loaded model is bit-identical to the fitted one."""
    mles = fit_mles(stats, parts, parts.variance_mode)
    lam = lrt(stats, parts, mles)
    gamma = gamma_weights(lam, parts.nu, penalty, mles.admissible)
    return FittedModel(
        parts=parts,
        variance_mode=parts.variance_mode,
        mu=_as_readonly(mles.mu),
        sigma2=_as_readonly(mles.sigma2),
        pi=_as_readonly(mles.pi),
        gamma=_as_readonly(gamma),
        lam=_as_readonly(lam),
        penalty=penalty,
        prior_term_mode=prior_term_mode,
        n=stats.n,
        class_labels=class_labels,
        feature_names=feature_names,
        variance_floor=_as_readonly(mles.variance_floor),
        admissible=_as_readonly(mles.admissible),
        stats=stats,
    )


def _prior_term(model: FittedModel) -> np.ndarray:
    if model.prior_term_mode == "log":
        return np.log(model.pi)
    return model.pi * np.log(model.pi)


def _class_coefficients(
    model: FittedModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class coefficients (Q, L, c) of the discriminant score

        eta_k(x) = sum_j xc_j * (L[k, j] - Q[k, j] * xc_j / 2) + c[k],

    with ``xc = x - mu_null``.  Q and L are K x p, c has length K; the set-up
    costs O(p * M * K).  Centring on the null mean before squaring guards
    the expanded square against cancellation when the data sit far from 0.
    """
    parts = model.parts
    a0 = parts.A - 1  # K x M, zero-based slots
    slot_col = _slot_columns(parts)
    # slot-major (z_M x p) so every reduction below runs along contiguous rows
    var_rows = slot_col if model.variance_mode == "equal" else slice(None)
    gamma = model.gamma.T[slot_col]
    w_var = gamma / model.sigma2.T[var_rows]
    log_var = np.log(model.sigma2.T)[var_rows]
    d = model.mu.T - model.mu.T[:1]  # slot means centred on the null mean
    w_d = w_var * d
    slot_const = (w_d * d).sum(axis=1) + (gamma * log_var).sum(axis=1)
    Q = np.stack([w_var[a].sum(axis=0) for a in a0])
    L = np.stack([w_d[a].sum(axis=0) for a in a0])
    c = -0.5 * (slot_const[a0].sum(axis=1) + _LOG_2PI * model.gamma.sum())
    return Q, L, c + _prior_term(model)


def predict(
    model: FittedModel, Xnew: np.ndarray, *, threads: int = 1
) -> Prediction:
    """Class probabilities for query rows.

    For each class the discriminant score is the weight-averaged Gaussian
    log density summed over features plus the class-prior term; class
    probabilities are the row softmax of the scores.  The score is a
    quadratic form in the query row whose per-class coefficients are set
    up once per call at O(p * M * K) cost, so scoring costs O(n* * p * K).
    Ties in the argmax resolve to the lowest class code.  A score that is
    not finite (e.g. when a model's values overflow) raises ``NumericError``.
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
    bad = np.argwhere(~np.isfinite(Xnew))
    if bad.size:
        i, j = bad[0]
        raise ValidationError(
            f"non-finite query value at row {i + 1}, column {j + 1}"
        )
    threads = _resolve_threads(threads)
    nq = Xnew.shape[0]
    # overflow shows up as a non-finite score, reported below; the error
    # state is per thread, so each worker sets its own
    quiet = dict(over="ignore", invalid="ignore")
    with np.errstate(**quiet):
        Q, L, const = _class_coefficients(model)
        half_q = 0.5 * Q
    mu_null = model.mu[:, 0]
    eta = np.empty((nq, model.K))

    def work(rows: slice) -> None:
        with np.errstate(**quiet):
            xc = Xnew[rows] - mu_null[None, :]
            for k in range(model.K):
                # per-row reduction (not a BLAS matvec) so the summation
                # order depends only on p, never on the row chunking
                terms = xc * (L[k] - half_q[k] * xc)
                eta[rows, k] = terms.sum(axis=1) + const[k]

    size = max(1, -(-nq // threads))
    chunks = [slice(i, min(i + size, nq)) for i in range(0, nq, size)]
    if threads == 1 or len(chunks) == 1:
        for c in chunks:
            work(c)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, chunks))

    bad_rows = np.flatnonzero(~np.isfinite(eta).all(axis=1))
    if bad_rows.size:
        raise NumericError(
            f"non-finite discriminant score at query row {bad_rows[0] + 1}"
        )
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


def selected_features(
    model: FittedModel, threshold: float = 0.5
) -> list[tuple[str, int, float]]:
    """Features whose top-weighted hypothesis is non-null with weight at
    least ``threshold``, as (name, hypothesis index, weight) sorted by
    weight descending."""
    if not 0.0 < threshold <= 1.0:
        raise ValidationError("threshold must lie in (0, 1]")
    top = np.argmax(model.gamma, axis=1)
    weight = model.gamma[np.arange(model.p), top]
    keep = (top != 0) & (weight >= threshold)
    rows = [
        (model.feature_names[j], int(top[j]) + 1, float(weight[j]))
        for j in np.flatnonzero(keep)
    ]
    rows.sort(key=lambda r: (-r[2], r[0]))
    return rows


def validate_model(model: FittedModel) -> None:
    """Check every FittedModel invariant; raise ValidationError on the
    first violation.  Used after deserialization."""
    parts = model.parts
    if model.gamma.ndim != 2:
        raise ValidationError("gamma must be a p x M matrix")
    p, m_count = model.gamma.shape
    if m_count != parts.M:
        raise ValidationError("gamma width does not match hypothesis count")
    if model.lam.shape != (p, parts.M):
        raise ValidationError("lambda shape does not match gamma")
    if model.mu.shape != (p, parts.n_slots):
        raise ValidationError("mu shape does not match partition slots")
    expected_sig = (p, parts.M) if model.variance_mode == "equal" else (p, parts.n_slots)
    if model.sigma2.shape != expected_sig:
        raise ValidationError("sigma2 shape does not match variance mode")
    if len(model.feature_names) != p:
        raise ValidationError("feature name count does not match gamma")
    if len(model.class_labels) != parts.K:
        raise ValidationError("class label count does not match K")
    if len(set(model.class_labels)) != parts.K:
        raise ValidationError("class labels must be distinct")
    stats = model.stats
    if (stats.n_k.shape != (parts.K,) or stats.mean.shape != (parts.K, p)
            or stats.m2.shape != (parts.K, p)):
        raise ValidationError("class statistics must be K counts and two K x p arrays")
    if np.any(stats.n_k < 1) or sum(stats.n_k.tolist()) != model.n:
        raise ValidationError("class counts must be positive and sum to n")
    for name, values in (("class_means", stats.mean), ("class_m2", stats.m2)):
        if not np.isfinite(values).all():
            raise ValidationError(f"{name} holds a non-finite value")
    if np.any(stats.m2 < 0.0):
        raise ValidationError("class_m2 holds a negative value")
    if model.pi.shape != (parts.K,):
        raise ValidationError("class prior count does not match K")
    if model.variance_floor.shape != (p,):
        raise ValidationError("variance_floor length does not match gamma")
    if model.admissible.shape != (parts.M,):
        raise ValidationError(
            f"admissible has length {model.admissible.size}, expected M={parts.M}"
        )
    for name in ("pi", "mu", "sigma2", "variance_floor"):
        if not np.isfinite(getattr(model, name)).all():
            raise ValidationError(f"{name} holds a non-finite value")
    lam_ok = np.where(model.admissible[None, :], np.isfinite(model.lam),
                      np.isneginf(model.lam))
    if not lam_ok.all():
        raise ValidationError(
            "lambda must be finite in admissible columns and -inf in the others"
        )
    row_sums = model.gamma.sum(axis=1)
    if not np.all(np.abs(row_sums - 1.0) <= 1e-9):
        j = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ValidationError(
            f"gamma row {j + 1} sums to {row_sums[j]!r}, not 1"
        )
    if np.any(model.gamma < 0.0) or np.any(model.gamma > 1.0):
        raise ValidationError("gamma entries must lie in [0, 1]")
    if np.any(model.lam[:, 0] != 0.0):
        raise ValidationError("lambda for the null hypothesis must be 0")
    if abs(float(model.pi.sum()) - 1.0) > 1e-9 or np.any(model.pi < 0.0):
        raise ValidationError("class priors must lie on the simplex")
    if np.any(model.sigma2 < model.variance_floor[:, None] * (1.0 - 1e-12)):
        raise ValidationError("a variance lies below the recorded floor")
