"""Independent reference implementations used to verify the fast paths.

Everything here deliberately avoids the package's sufficient-statistics
and softmax machinery: partitions are enumerated by block insertion,
likelihoods are evaluated sample by sample with scipy, and MLEs are found
by a derivative-free numerical optimizer.  Two exceptions check a fast
path against the slower path it replaced, on the same arithmetic:
``slotwise_mles`` merges classes into every flat slot with the package's
``_chan_merge``, and ``refit_cross_validate`` refits every fold with
``fit`` to check cross-validation's merge of fold statistics.  The
``slot_order_*`` loops add the derivation's per-hypothesis, per-subset and
per-class sums one row at a time, in the order the fast sums must keep.
``independent_X`` and ``dependent_X`` build the simulators' data with the
n x p gathers of class means and sds that the generators no longer make.
``exact_class_m2`` computes the class sums of squares in exact rational
arithmetic on the same float data.  ``encode_rows`` and ``decode_rows``
write and read a model document's class rows with ``struct``, not numpy,
and ``edit_rows`` edits one such field as lists of floats.  ``read_rows``
reads a CSV with ``csv.reader`` and ``float`` alone.
"""

from __future__ import annotations

import base64
import csv
import itertools
import struct
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize
from scipy.stats import norm

from multida import data_io
from multida.errors import FormatError


def bell_triangle(k: int) -> int:
    """Bell number B_k from the triangle recurrence a[n][0] = a[n-1][-1],
    a[n][i] = a[n][i-1] + a[n-1][i-1]."""
    tri = [[1]]
    for n in range(1, k + 1):
        row = [tri[-1][-1]]
        for i in range(1, n + 1):
            row.append(row[-1] + tri[-1][i - 1])
        tri.append(row)
    return tri[k][0] if k == 0 else tri[k - 1][-1]


def all_partitions_blocks(items: list) -> list[list[list]]:
    """Every set partition of ``items`` by recursive block insertion."""
    if not items:
        return [[]]
    head, rest = items[0], items[1:]
    out = []
    for smaller in all_partitions_blocks(rest):
        for i in range(len(smaller)):
            out.append(smaller[:i] + [[head] + smaller[i]] + smaller[i + 1 :])
        out.append([[head]] + smaller)
    return out


def partition_blocks_from_column(column) -> frozenset[frozenset[int]]:
    """Column of group labels -> partition of 1..K as a set of blocks."""
    groups: dict[int, set[int]] = {}
    for k, g in enumerate(column, start=1):
        groups.setdefault(g, set()).add(k)
    return frozenset(frozenset(b) for b in groups.values())


def _group_values(x: np.ndarray, y: np.ndarray, column) -> list[np.ndarray]:
    g_max = max(column)
    return [
        x[np.array([column[yi - 1] == g for yi in y])] for g in range(1, g_max + 1)
    ]


def loglik_at_mle(x: np.ndarray, y: np.ndarray, column, variance_mode: str) -> float:
    """Maximized Gaussian log likelihood of one feature under one
    partition hypothesis, evaluated sample by sample."""
    groups = _group_values(x, y, column)
    if variance_mode == "equal":
        sse = sum(float(((g - g.mean()) ** 2).sum()) for g in groups)
        var = sse / len(x)
        return float(
            sum(norm.logpdf(g, loc=g.mean(), scale=np.sqrt(var)).sum() for g in groups)
        )
    total = 0.0
    for g in groups:
        var = float(np.var(g))
        total += float(norm.logpdf(g, loc=g.mean(), scale=np.sqrt(var)).sum())
    return total


def bruteforce_posterior(
    x: np.ndarray, y: np.ndarray, columns, C: float, variance_mode: str
) -> np.ndarray:
    """Posterior hypothesis weights by direct enumeration: prior mass
    proportional to exp(-C * nu_m) times the maximized likelihood."""
    df_per_group = 1 if variance_mode == "equal" else 2
    scores = np.array(
        [
            loglik_at_mle(x, y, col, variance_mode)
            - C * df_per_group * (max(col) - 1)
            for col in columns
        ]
    )
    w = np.exp(scores - scores.max())
    return w / w.sum()


def numeric_mle_equal_var(groups: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """Numerically maximized (means, pooled variance) for grouped data."""
    pooled = np.concatenate(groups)

    def nll(theta):
        *mus, logv = theta
        v = np.exp(logv)
        total = 0.0
        for g, mu in zip(groups, mus):
            total += 0.5 * len(g) * np.log(2.0 * np.pi * v)
            total += float(((g - mu) ** 2).sum()) / (2.0 * v)
        return total

    x0 = [float(pooled.mean())] * len(groups) + [float(np.log(pooled.var() + 1e-3))]
    res = minimize(
        nll,
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-11, "fatol": 1e-13, "maxiter": 100000, "maxfev": 100000},
    )
    assert res.success or res.fun <= nll(np.array(x0))
    return np.array(res.x[:-1]), float(np.exp(res.x[-1]))


def numeric_mle_single_group(g: np.ndarray) -> tuple[float, float]:
    """Numerically maximized (mean, variance) of one Gaussian group."""

    def nll(theta):
        mu, logv = theta
        v = np.exp(logv)
        return 0.5 * len(g) * np.log(2.0 * np.pi * v) + float(
            ((g - mu) ** 2).sum()
        ) / (2.0 * v)

    x0 = [0.0, 0.0]
    res = minimize(
        nll,
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-11, "fatol": 1e-13, "maxiter": 100000, "maxfev": 100000},
    )
    return float(res.x[0]), float(np.exp(res.x[1]))


def slotwise_eta(model, X: np.ndarray) -> np.ndarray:
    """Discriminant scores by one pass per partition slot: for slot ``a`` of
    hypothesis ``m`` the weighted Gaussian log density of every feature is
    summed and added to each class mapped to that slot, then the class
    prior term is added."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    parts = model.parts
    slot_col = np.repeat(np.arange(parts.M), parts.G)
    a0 = parts.A - 1
    if model.prior_term_mode == "log":
        prior = np.log(model.pi)
    else:
        prior = model.pi * np.log(model.pi)
    eta = np.zeros((X.shape[0], parts.K))
    for a in range(parts.n_slots):
        m = slot_col[a]
        w = model.gamma[:, m]
        var = model.sigma2[:, m] if model.variance_mode == "equal" else model.sigma2[:, a]
        const = -0.5 * float(((np.log(2.0 * np.pi) + np.log(var)) * w).sum())
        dev = X - model.mu[:, a][None, :]
        scores = (np.square(dev) * (w / (-2.0 * var))[None, :]).sum(axis=1) + const
        for k in np.flatnonzero(a0[:, m] == a):
            eta[:, k] += scores
    return eta + prior[None, :]


def refit_cross_validate(data, folds, trials, *, seed, **fit_options):
    """(n_test, n_wrong) of every fold of ``estimator.cross_validate``'s folds,
    by copying each fold's training rows and refitting them from scratch."""
    from multida.estimator import _stratified_folds, fit, predict

    rows = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        for test_idx in _stratified_folds(data.y, folds, rng):
            train = data.subset(np.setdiff1d(np.arange(data.n), test_idx))
            pred = predict(fit(train, **fit_options), data.X[test_idx])
            rows.append((len(test_idx), int((pred.codes != data.y[test_idx]).sum())))
    return rows


def slotwise_mles(stats, parts, variance_mode):
    """(mu, sigma2, lam) as p x slot, p x (hypothesis or slot) and p x M
    arrays, by merging the per-class moments into every flat slot in
    ascending class order (a slot's first class enters as is, each later
    one by ``_chan_merge``), then flooring, logging and summing per slot,
    each hypothesis's slots added row by row in slot order."""
    from multida.estimator import VARIANCE_FLOOR_SCALE, _chan_merge

    a0 = parts.A - 1  # K x M, zero-based slots
    starts = np.concatenate(([0], parts.z[:-1]))
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
            mean[old], m2[old] = _chan_merge(count[old], mean[old], m2[old],
                                             stats.n_k[k], stats.mean[k], stats.m2[k])
        count[slots] += stats.n_k[k]

    def hypothesis_sums(rows):
        return np.array([rows[s:s + g].sum(axis=0) for s, g in zip(starts, parts.G)])

    n = stats.n
    global_var = m2[0] / n
    floor = VARIANCE_FLOOR_SCALE * np.where(global_var > 0.0, global_var, 1.0)
    if variance_mode == "equal":
        sigma2 = hypothesis_sums(m2) / n
        admissible = n > parts.G
    else:
        sigma2 = m2 / count[:, None]
        admissible = np.minimum.reduceat(count, starts) >= 2
    np.maximum(sigma2, floor, out=sigma2)
    admissible[0] = True
    with np.errstate(divide="ignore"):
        log_var = np.log(sigma2)
    if variance_mode == "equal":
        lam = n * (log_var[:1] - log_var)
    else:
        lam = hypothesis_sums(log_var * count[:, None])
        lam = lam[:1] - lam
    lam[0] = 0.0
    lam[~admissible] = -np.inf
    return mean.T, sigma2.T, lam.T


def _group_rows(parts):
    """The subset row of each hypothesis's groups, in slot order, found
    from the columns and the subset masks alone."""
    row_of = {mask: r for r, mask in enumerate(parts.subsets.masks.tolist())}
    return [[row_of[sum(1 << c for c, label in enumerate(col) if label == g)]
             for g in range(1, max(col) + 1)]
            for col in parts.columns]


def slot_order_hypothesis_sums(rows, parts):
    """M x b: each hypothesis's groups' subset rows (S x b), added in slot
    order."""
    out = []
    for groups in _group_rows(parts):
        acc = rows[groups[0]].copy()
        for r in groups[1:]:
            acc = acc + rows[r]
        out.append(acc)
    return np.array(out)


def slot_order_subset_sums(rows, parts):
    """S x b: for each slot in order, its hypothesis row (M x b) added into
    the row of its subset, starting from zeros."""
    out = np.zeros((len(parts.subsets.masks), rows.shape[1]))
    for m, groups in enumerate(_group_rows(parts)):
        for r in groups:
            out[r] = out[r] + rows[m]
    return out


def slot_order_class_sums(rows, parts):
    """K x b: for each class, the subset rows (S x b) of ``class_rows``,
    added in ascending order from zeros."""
    out = np.zeros((parts.K, rows.shape[1]))
    for k, held in enumerate(parts.subsets.class_rows):
        for r in sorted(held.tolist()):
            out[k] = out[k] + rows[r]
    return out


def independent_X(spec, truth, y):
    """X of ``simlab.gen_independent``: every row's class means plus its
    class sds times the noise, each gathered to n x p."""
    z = np.random.default_rng([spec.seed, 2]).standard_normal((spec.n, spec.p))
    return truth.class_means[y - 1] + truth.class_sds[y - 1] * z


def dependent_X(spec, y):
    """X of ``simlab.gen_dependent``: the block draws, plus every row's
    class means gathered to n x p, with the feature permutation last."""
    from multida.simlab import dependent_structure

    structure = dependent_structure(spec)
    rng = np.random.default_rng([spec.seed, 2])
    b = spec.effective_block_size
    counts = np.bincount(y, minlength=spec.K + 1)[1:]
    class_means = np.zeros((spec.K, spec.p))
    for k, disc in enumerate(structure.disc_sets):
        class_means[k, disc] = spec.mean_shift
    X = np.empty((spec.n, spec.p))
    if structure.shared:
        for l in range(spec.p // b):
            X[:, l * b:(l + 1) * b] = rng.standard_normal((spec.n, b)) @ structure.factors[0][l]
    else:
        offsets = np.concatenate([[0], np.cumsum(counts)])
        for k in range(spec.K):
            for l in range(spec.p // b):
                z = rng.standard_normal((counts[k], b))
                X[offsets[k]:offsets[k + 1], l * b:(l + 1) * b] = z @ structure.factors[k][l]
    X += class_means[y - 1]
    return X[:, structure.perm]


def exact_class_m2(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-class centred sums of squares (K x p, classes 1..K of ``y``) of
    the float data ``X`` about the exact class mean, computed in
    ``Fraction``s and rounded once to float."""
    classes = np.unique(y)
    m2 = np.empty((len(classes), X.shape[1]))
    for i, k in enumerate(classes):
        for j in range(X.shape[1]):
            xs = [Fraction(float(v)) for v in X[y == k, j]]
            mu = sum(xs, Fraction(0)) / len(xs)
            m2[i, j] = float(sum(((x - mu) ** 2 for x in xs), Fraction(0)))
    return m2


def encode_rows(rows) -> list[str]:
    """Rows of floats as a model document stores them: each row the
    base64 of its values packed as little-endian float64."""
    return [base64.b64encode(struct.pack(f"<{len(row)}d", *row)).decode("ascii")
            for row in rows]


def decode_rows(rows: list[str]) -> list[list[float]]:
    """A model document's class rows as lists of floats."""
    return [list(struct.unpack(f"<{len(raw) // 8}d", raw))
            for raw in map(base64.b64decode, rows)]


def edit_rows(doc: dict, key: str, edit) -> dict:
    """A copy of a model document whose class-row field ``key`` is
    ``edit`` of its rows as lists of floats."""
    return {**doc, key: encode_rows(edit(decode_rows(doc[key])))}


def read_rows(path, schema, *, labeled):
    """A CSV's (values, feature names, labels), every row read by
    ``csv.reader`` and every cell by ``float``, with the package's layout
    and messages.  Row numbers count non-empty rows from 1, header
    included."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = (row for row in csv.reader(fh, delimiter=schema.delimiter) if row)
            header = next(rows, None) if schema.has_header else None
            first = next(rows, None)
            width, label_idx, names = data_io._layout(path, schema, labeled, header, first)
            labels, values = [], []
            for i, row in enumerate(itertools.chain([first], rows), 1 + schema.has_header):
                if len(row) != width:
                    raise FormatError(f"{path}: row {i} has {len(row)} cells, expected {width}")
                if label_idx >= 0:
                    labels.append(row.pop(label_idx))
                values.append([data_io._parse_cell(path, text, i, name)
                               for text, name in zip(row, names)])
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:
        raise FormatError(f"{path}: malformed CSV ({exc})") from None
    return np.array(values, dtype=np.float64), names, labels
