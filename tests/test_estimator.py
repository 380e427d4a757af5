import concurrent.futures
import dataclasses
import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multida import NumericError, ValidationError
from multida.estimator import (
    _MIN_WORKER_CELLS,
    Dataset,
    PenaltyConfig,
    SufficientStats,
    _block_width,
    _column_blocks,
    _gather_sums,
    _hypothesis_sums,
    _model_from_stats,
    _resolve_threads,
    _Workspace,
    accumulate_stats,
    fit,
    fit_mles,
    gamma_weights,
    lrt,
    model_from_stats,
    predict,
    selected_features,
    validate_model,
)
from multida.partitions import bell_number, build_partition_set

from oracles import (
    bruteforce_posterior,
    exact_class_m2,
    numeric_mle_equal_var,
    numeric_mle_single_group,
    slot_order_class_sums,
    slot_order_hypothesis_sums,
    slot_order_subset_sums,
    slotwise_eta,
    slotwise_mles,
)

TOY_X = np.array([[0.0], [2.0], [4.0], [6.0]])
TOY_Y = ["a", "a", "b", "b"]
# frozen by hand: null mu 3, var 5; split mu (1,5), pooled var 1;
# lambda = 4 log 5; EBIC C = log 4; gamma = (4/29, 25/29)
TOY_LAMBDA = 4.0 * math.log(5.0)
TOY_GAMMA = (4.0 / 29.0, 25.0 / 29.0)


@pytest.fixture
def toy_data():
    return Dataset.from_arrays(TOY_X, TOY_Y)


@pytest.fixture
def toy_parts():
    return build_partition_set(2, "exhaustive")


def two_blocks_and_a_tail(k, scheme="exhaustive", variance_mode="equal"):
    """A feature count that ``model_from_stats`` splits into two blocks,
    the second holding a one-column tail merged into it, for ``k`` classes
    under the given hypothesis set."""
    width = _block_width(build_partition_set(k, scheme, variance_mode=variance_mode))
    p = 2 * width + 1
    assert [b.stop - b.start for b in _column_blocks(p, width)] == [width, width + 1]
    return p


def random_dataset(rng, n, p, k, min_per_class=1):
    while True:
        y = rng.integers(1, k + 1, size=n)
        counts = np.bincount(y, minlength=k + 1)[1:]
        if (counts >= min_per_class).all():
            break
    X = rng.normal(size=(n, p))
    return Dataset.from_arrays(X, [str(v) for v in y])


class TestDataset:
    def test_encoding_first_appearance(self):
        d = Dataset.from_arrays(np.zeros((4, 2)), ["z", "q", "z", "m"])
        assert d.class_labels == ("z", "q", "m")
        assert d.y.tolist() == [1, 2, 1, 3]
        assert d.class_counts.tolist() == [2, 1, 1]

    def test_rejects_non_finite(self):
        X = np.array([[0.0], [np.nan]])
        with pytest.raises(ValidationError, match="row 2, column 1"):
            Dataset.from_arrays(X, ["a", "b"])

    def test_names_first_non_finite_cell_in_row_order(self):
        # column by column the first bad cell would be row 3, column 1
        X = np.zeros((4, 5))
        X[1, 3], X[1, 1], X[2, 0], X[3, 4] = np.nan, np.inf, -np.inf, np.nan
        with pytest.raises(ValidationError, match="^non-finite feature value at "
                                                  "row 2, column 2$"):
            Dataset.from_arrays(X, ["a", "b", "a", "b"])

    def test_subset_keeps_encoding(self, toy_data):
        sub = toy_data.subset(np.array([1, 2, 3]))
        assert sub.class_labels == ("a", "b")
        assert sub.class_counts.tolist() == [1, 2]

    def test_subset_dropping_a_class_rejected(self, toy_data):
        with pytest.raises(ValidationError, match="row subset drops class 'b'"):
            toy_data.subset(np.array([0, 1]))


class TestPenalty:
    def test_constants(self):
        assert PenaltyConfig.resolve("bic", 100, 50).C == pytest.approx(math.log(100))
        assert PenaltyConfig.resolve("aic", 100, 50).C == 2.0
        assert PenaltyConfig.resolve("ebic", 100, 50).C == pytest.approx(
            math.log(100) + 2 * math.log(50)
        )
        assert PenaltyConfig.resolve("custom:3.5", 100, 50).C == 3.5

    def test_invalid(self):
        with pytest.raises(ValidationError):
            PenaltyConfig.resolve("gic", 10, 10)
        with pytest.raises(ValidationError):
            PenaltyConfig("custom", -1.0)
        with pytest.raises(ValidationError, match="cannot parse custom penalty 'custom:abc'"):
            PenaltyConfig.resolve("custom:abc", 10, 10)


class TestSufficientStats:
    def test_hand_accumulation(self, toy_data, toy_parts):
        stats = accumulate_stats(toy_data)
        # class a holds 0, 2; class b holds 4, 6
        assert stats.n_k.tolist() == [2, 2]
        assert stats.mean[:, 0].tolist() == [1.0, 5.0]
        assert stats.m2[:, 0].tolist() == [2.0, 2.0]

    def test_null_slot_totals(self, toy_data, toy_parts):
        stats = accumulate_stats(toy_data)
        assert stats.n_k.sum() == toy_data.n
        assert (stats.n_k * stats.mean[:, 0]).sum() == TOY_X.sum()
        mles = fit_mles(stats, toy_parts)
        assert mles.mu[0, 0] == 3.0 and mles.sigma2[0, 0] == 5.0

    def test_single_sample_group(self):
        d = Dataset.from_arrays(np.array([[1.0], [2.0], [3.0]]), ["a", "b", "b"])
        stats = accumulate_stats(d)
        assert stats.n_k.tolist() == [1, 2]
        assert stats.mean[:, 0].tolist() == [1.0, 2.5]
        assert stats.m2[:, 0].tolist() == [0.0, 0.5]

    @pytest.mark.parametrize("offset", [0.0, 1e8, 1e12, 1e14])
    def test_m2_is_exact_far_from_zero(self, offset):
        # the plain two-pass lets the mean's rounding into m2: a relative
        # error of 8.8e-8 at 1e12 and 5.6e-4 at 1e14 on this data
        rng = np.random.default_rng(31)
        y = np.repeat([1, 2, 3], 20)
        X = rng.normal(size=(60, 5)) + offset
        stats = accumulate_stats(Dataset.from_arrays(X, [str(v) for v in y]))
        m2 = exact_class_m2(X, y)
        assert (m2 > 0).all()
        assert (np.abs(stats.m2 - m2) <= 1e-15 * m2).all()

    def test_constant_column_has_m2_zero(self):
        X = np.column_stack([np.full(7, 0.1), np.arange(7.0)])
        stats = accumulate_stats(Dataset.from_arrays(X, list("aaabbbb")))
        assert stats.m2[:, 0].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("k,scheme", [(3, "exhaustive"), (4, "onevsrest"), (4, "ordinal")])
    def test_invariants_random(self, k, scheme):
        # merged slots reproduce each group's moments computed from the data
        rng = np.random.default_rng(52)
        data = random_dataset(rng, 40, 6, k)
        parts = build_partition_set(k, scheme)
        stats = accumulate_stats(data)
        eq = fit_mles(stats, parts)
        uq = fit_mles(stats, build_partition_set(k, scheme, variance_mode="unequal"))
        z = np.concatenate([[0], parts.z])
        for m, col in enumerate(parts.columns):
            group_of_row = np.array(col)[data.y - 1]
            pooled = np.zeros(data.p)
            for g in range(1, parts.G[m] + 1):
                xg = data.X[group_of_row == g]
                a = z[m] + g - 1
                np.testing.assert_allclose(eq.mu[:, a], xg.mean(axis=0), rtol=1e-12)
                if len(xg) > 1:
                    np.testing.assert_allclose(uq.sigma2[:, a], xg.var(axis=0), rtol=1e-12)
                pooled += ((xg - xg.mean(axis=0)) ** 2).sum(axis=0)
            np.testing.assert_allclose(eq.sigma2[:, m], pooled / data.n, rtol=1e-12)


class TestMles:
    def test_hand_values(self, toy_data, toy_parts):
        stats = accumulate_stats(toy_data)
        mles = fit_mles(stats, toy_parts)
        np.testing.assert_allclose(mles.mu[0], [3.0, 1.0, 5.0])
        np.testing.assert_allclose(mles.sigma2[0], [5.0, 1.0])
        np.testing.assert_allclose(mles.pi, [0.5, 0.5])

    def test_unequal_variances(self, toy_data, toy_parts):
        stats = accumulate_stats(toy_data)
        mles = fit_mles(stats, build_partition_set(2, "exhaustive", variance_mode="unequal"))
        np.testing.assert_allclose(mles.sigma2[0], [5.0, 1.0, 1.0])

    def test_constant_feature_clamps_to_floor(self, toy_parts):
        d = Dataset.from_arrays(np.full((4, 1), 7.0), TOY_Y)
        stats = accumulate_stats(d)
        mles = fit_mles(stats, toy_parts)
        np.testing.assert_allclose(mles.mu[0], [7.0, 7.0, 7.0])
        assert (mles.sigma2[0] == 1e-8).all()  # zero global variance -> 1e-8

    def test_matches_numerical_maximizer(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 24, 2, 3, min_per_class=3)
        parts = build_partition_set(3, "exhaustive")
        stats = accumulate_stats(data)
        eq = fit_mles(stats, parts)
        uq = fit_mles(stats, build_partition_set(3, "exhaustive", variance_mode="unequal"))
        z = np.concatenate([[0], parts.z])
        for j in range(data.p):
            for m in range(parts.M):
                groups = [
                    data.X[np.array([parts.columns[m][yy - 1] == g for yy in data.y]), j]
                    for g in range(1, parts.G[m] + 1)
                ]
                mus, var = numeric_mle_equal_var(groups)
                sl = slice(z[m], z[m + 1])
                np.testing.assert_allclose(eq.mu[j, sl], mus, atol=1e-6)
                assert eq.sigma2[j, m] == pytest.approx(var, abs=1e-6)
                for g, grp in enumerate(groups):
                    mu1, var1 = numeric_mle_single_group(grp)
                    assert uq.mu[j, z[m] + g] == pytest.approx(mu1, abs=1e-6)
                    assert uq.sigma2[j, z[m] + g] == pytest.approx(var1, abs=1e-6)


def _assert_matches_slotwise(stats, parts):
    """fit_mles and lrt give the slot-wise merge's mu, sigma2 and lambda
    bit for bit."""
    mles = fit_mles(stats, parts)
    for name, got, want in zip(("mu", "sigma2", "lam"),
                               (mles.mu, mles.sigma2, lrt(mles)),
                               slotwise_mles(stats, parts, parts.variance_mode)):
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


class TestSubsetMerge:
    """The per-subset merge reproduces the slot-wise one it replaced."""

    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    @pytest.mark.parametrize("scheme", ["exhaustive", "onevsrest", "ordinal"])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_schemes(self, k, scheme, variance_mode):
        rng = np.random.default_rng([k, len(scheme), len(variance_mode)])
        data = random_dataset(rng, 5 * k, 7, k, min_per_class=2)
        parts = build_partition_set(k, scheme, variance_mode=variance_mode)
        _assert_matches_slotwise(accumulate_stats(data), parts)

    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    def test_user_groups_need_closure(self, variance_mode):
        # {1,2,3,4} and {1,3} are groups; {1,2,3} and {1,2} are not, yet
        # the merge reaches {1,2,3,4} through them
        parts = build_partition_set(4, [[1, 1], [1, 2], [1, 1], [1, 2]],
                                    variance_mode=variance_mode)
        masks = set(parts.subsets.masks.tolist())
        assert {0b0111, 0b0011} <= masks
        assert not {0b0111, 0b0011} & set(parts.subsets.masks[parts.subsets.slot_rows].tolist())
        data = random_dataset(np.random.default_rng(5), 20, 6, 4, min_per_class=2)
        _assert_matches_slotwise(accumulate_stats(data), parts)

    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    @pytest.mark.parametrize("k", [8, 16])
    def test_many_groups_of_one_size(self, k, variance_mode):
        # k(k-1)/2 pairs from k hypotheses, k - 1 of them merged onto the
        # highest class: many merge rows of one size from few hypotheses
        S = _one_factorization(k)
        parts = build_partition_set(k, S, variance_mode=variance_mode)
        assert parts.M == k
        assert max(run.stop - run.start for run in parts.subsets.runs) == k - 1
        data = random_dataset(np.random.default_rng(k), 6 * k, 6, k, min_per_class=2)
        stats = accumulate_stats(data)
        _assert_matches_slotwise(stats, parts)
        model = fit(data, scheme=S, penalty="bic", variance_mode=variance_mode)
        assert np.array_equal(model.gamma, gamma_weights(lrt(fit_mles(stats, parts)),
                                                         parts.nu, model.penalty))

    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    def test_offset_data(self, variance_mode):
        rng = np.random.default_rng(8)
        data = random_dataset(rng, 30, 5, 4, min_per_class=2)
        data = Dataset.from_arrays(data.X + 1e8, [str(v) for v in data.y])
        parts = build_partition_set(4, "exhaustive", variance_mode=variance_mode)
        _assert_matches_slotwise(accumulate_stats(data), parts)

    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    def test_class_with_one_sample(self, variance_mode):
        rng = np.random.default_rng(9)
        y = ["1"] * 6 + ["2"] * 5 + ["3"]
        data = Dataset.from_arrays(rng.normal(size=(12, 4)), y)
        parts = build_partition_set(3, "exhaustive", variance_mode=variance_mode)
        _assert_matches_slotwise(accumulate_stats(data), parts)


def _one_factorization(k):
    """S (k x k) of the null and the k - 1 perfect matchings of an even k
    classes, by the round-robin schedule: every pair of classes is a group
    of exactly one hypothesis."""
    S = [[1] * k]
    for r in range(k - 1):
        col = [0] * k
        pairs = [(k - 1, r), *(((r + i) % (k - 1), (r - i) % (k - 1)) for i in range(1, k // 2))]
        for g, pair in enumerate(pairs, 1):
            for c in pair:
                col[c] = g
        S.append(col)
    return np.array(S).T


def _user_matrix(k):
    """Two user columns: odd against even classes, and classes in pairs."""
    return [[c % 2 + 1, c // 2 + 1] for c in range(k)]


class TestSummationOrder:
    """The derivation's sums add their rows in slot order, bit for bit, in
    every block at least 2 features wide."""

    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    @pytest.mark.parametrize("scheme", ["exhaustive", "onevsrest", "ordinal", "user"])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_sums_match_the_slot_order_loops(self, k, scheme, variance_mode):
        parts = build_partition_set(k, _user_matrix(k) if scheme == "user" else scheme,
                                    variance_mode=variance_mode)
        rng = np.random.default_rng([k, len(scheme), len(variance_mode)])
        for width in (2, 3, 17):
            # magnitudes spread over 16 decades, so any other order rounds differently
            subset_rows, hyp_rows = (
                rng.normal(size=(n, width)) * 10.0 ** rng.uniform(-8, 8, size=(n, width))
                for n in (len(parts.subsets.masks), parts.M))
            assert np.array_equal(_hypothesis_sums(subset_rows, parts),
                                  slot_order_hypothesis_sums(subset_rows, parts))
            out = np.full((len(parts.subsets.masks), width), np.nan)
            _gather_sums(hyp_rows, parts.subsets.row_columns, out)
            assert np.array_equal(out, slot_order_subset_sums(hyp_rows, parts))
            out = np.full((k, width), np.nan)
            _gather_sums(subset_rows, parts.subsets.class_rows, out)
            assert np.array_equal(out, slot_order_class_sums(subset_rows, parts))

    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_hypothesis_sums_gather_in_parts(self, k, variance_mode):
        # a scratch of fewer rows than a rank's groups takes them in turns
        parts = build_partition_set(k, "exhaustive", variance_mode=variance_mode)
        rows = np.random.default_rng(k).normal(size=(len(parts.subsets.masks), 5))
        rows *= 10.0 ** np.arange(-8, 9, 4)
        want = slot_order_hypothesis_sums(rows, parts)
        for n_tmp in (1, 3, parts.M - 2):
            got = _hypothesis_sums(rows, parts, tmp=np.full((n_tmp, 5), np.nan))
            assert np.array_equal(got, want), n_tmp


class TestLrt:
    def test_null_column_exactly_zero(self, toy_data, toy_parts):
        stats = accumulate_stats(toy_data)
        lam = lrt(fit_mles(stats, toy_parts))
        assert lam[0, 0] == 0.0

    def test_hand_value(self, toy_data, toy_parts):
        stats = accumulate_stats(toy_data)
        lam = lrt(fit_mles(stats, toy_parts))
        assert lam[0, 1] == pytest.approx(TOY_LAMBDA, rel=1e-12)

    def test_identical_groups_give_zero(self):
        # same values in every class: all hypotheses fit equally well
        x = np.tile(np.array([1.0, 2.0, 3.0]), 3)
        y = np.repeat(["a", "b", "c"], 3)
        d = Dataset.from_arrays(x[:, None], y)
        parts = build_partition_set(3, "exhaustive")
        stats = accumulate_stats(d)
        lam = lrt(fit_mles(stats, parts))
        np.testing.assert_allclose(lam, 0.0, atol=1e-10)

    def test_lda_equals_qda_when_group_spreads_match(self):
        # class value multisets identical => every group variance equals the
        # pooled one, so the two statistics agree
        x = np.concatenate([np.array([0.0, 1.0, 2.0, 5.0])] * 3)
        y = np.repeat(["a", "b", "c"], 4)
        d = Dataset.from_arrays(x[:, None], y)
        parts_eq = build_partition_set(3, "exhaustive", variance_mode="equal")
        parts_uq = build_partition_set(3, "exhaustive", variance_mode="unequal")
        stats = accumulate_stats(d)
        lam_eq = lrt(fit_mles(stats, parts_eq))
        lam_uq = lrt(fit_mles(stats, parts_uq))
        np.testing.assert_allclose(lam_eq, lam_uq, atol=1e-10)

    def test_chi_square_calibration_light(self):
        # null data: 500 replicate features; the nu=1 statistic should be
        # roughly chi-square(1); full-size calibration is in acceptance
        rng = np.random.default_rng(1)
        d = Dataset.from_arrays(
            rng.normal(size=(150, 500)), [str(k) for k in np.repeat([1, 2, 3], 50)]
        )
        parts = build_partition_set(3, "exhaustive")
        stats = accumulate_stats(d)
        lam = lrt(fit_mles(stats, parts))
        med = float(np.median(lam[:, 1]))
        assert 0.25 < med < 0.70  # chi2(1) median is 0.455


class TestGammaWeights:
    def test_uniform_when_unpenalized(self):
        lam = np.zeros((1, 5))
        nu = np.array([0, 1, 1, 1, 2])
        w = gamma_weights(lam, nu, PenaltyConfig("custom", 0.0))
        np.testing.assert_allclose(w, 0.2)

    def test_toy_value(self):
        lam = np.array([[0.0, TOY_LAMBDA]])
        w = gamma_weights(lam, np.array([0, 1]), PenaltyConfig("custom", math.log(4.0)))
        np.testing.assert_allclose(w[0], TOY_GAMMA, rtol=1e-12)

    def test_inadmissible_gets_zero(self):
        lam = np.array([[0.0, -np.inf]])
        w = gamma_weights(lam, np.array([0, 1]), PenaltyConfig("custom", 1.0))
        np.testing.assert_allclose(w[0], [1.0, 0.0])

    @given(
        st.integers(0, 2**31 - 1),
        st.floats(0.0, 20.0),
        st.floats(0.0, 30.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_simplex_and_penalty_monotonicity(self, seed, c_low, gap):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        lam = np.concatenate([[0.0], rng.exponential(10.0, size=m - 1)])
        nu = np.concatenate([[0], rng.integers(1, 4, size=m - 1)])
        pen_low = PenaltyConfig("custom", c_low)
        pen_high = PenaltyConfig("custom", c_low + gap)
        w_low = gamma_weights(lam[None, :], nu, pen_low)[0]
        w_high = gamma_weights(lam[None, :], nu, pen_high)[0]
        for w in (w_low, w_high):
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert (w >= 0).all() and (w <= 1).all()
        # raising the penalty never shifts odds toward any non-null
        # hypothesis, so the null mass cannot decrease
        assert w_high[0] >= w_low[0] - 1e-12
        odds_low = w_low[1:] / w_low[0]
        odds_high = w_high[1:] / w_high[0]
        assert (odds_high <= odds_low + 1e-12).all()

    def test_matrix_and_row_forms_agree(self):
        lam = np.array([[0.0, 3.0, 1.0], [0.0, 0.5, 4.0]])
        nu = np.array([0, 1, 2])
        pen = PenaltyConfig("custom", 0.7)
        full = gamma_weights(lam, nu, pen)
        for j in range(2):
            np.testing.assert_allclose(full[j], gamma_weights(lam[j:j + 1], nu, pen)[0])


class TestPosteriorOracle:
    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    def test_matches_bruteforce_enumeration(self, variance_mode):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(12, 21))
            p = int(rng.integers(1, 4))
            data = random_dataset(rng, n, p, 3, min_per_class=3)
            parts = build_partition_set(3, "exhaustive", variance_mode=variance_mode)
            model = fit(data, penalty="ebic", variance_mode=variance_mode)
            C = model.penalty.C
            for j in range(p):
                want = bruteforce_posterior(
                    data.X[:, j], data.y, parts.columns, C, variance_mode
                )
                np.testing.assert_allclose(model.gamma[j], want, atol=1e-10)


class TestFit:
    def test_toy_composition(self, toy_data):
        model = fit(toy_data, penalty="ebic")
        np.testing.assert_allclose(model.gamma[0], TOY_GAMMA, rtol=1e-12)
        validate_model(model)

    def test_pure_noise_concentrates_on_null(self):
        rng = np.random.default_rng(21)
        data = Dataset.from_arrays(
            rng.normal(size=(200, 50)),
            [str(k) for k in np.repeat([1, 2, 3], [67, 67, 66])],
        )
        model = fit(data, penalty="ebic")
        assert model.gamma[:, 0].mean() >= 0.95

    def test_shuffling_labels_destroys_signal(self):
        rng = np.random.default_rng(5)
        n, p = 120, 30
        y = np.repeat([1, 2, 3], 40)
        X = rng.normal(size=(n, p))
        X[:, :10] += 1.5 * (y - 1)[:, None]  # 10 discriminative features
        data = Dataset.from_arrays(X, [str(v) for v in y])
        shuffled = Dataset.from_arrays(X, [str(v) for v in rng.permutation(y)])
        signal = fit(data, penalty="ebic")
        noise = fit(shuffled, penalty="ebic")
        assert (1 - noise.gamma[:, 0]).sum() < (1 - signal.gamma[:, 0]).sum()

    def test_degenerate_qda_warns_and_uses_null(self):
        d = Dataset.from_arrays(np.array([[0.0], [1.0], [2.0]]), ["a", "b", "b"])
        with pytest.warns(UserWarning, match="null-only"):
            model = fit(d, penalty="bic", variance_mode="unequal")
        np.testing.assert_allclose(model.gamma[:, 0], 1.0)

    def test_errors(self, toy_data):
        with pytest.raises(ValidationError, match="K\\+1"):
            fit(Dataset.from_arrays(np.zeros((2, 1)), ["a", "b"]))
        with pytest.raises(ValidationError, match="threads must be >= 0"):
            fit(toy_data, threads=-1)

    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflowing_statistics_raise(self, variance_mode, threads):
        # squared deviations of 1e200-scale values overflow: no model, no warning
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 3))
        X[:, 1] *= 1e200
        data = Dataset.from_arrays(X, np.repeat(["a", "b", "c"], 10))
        with pytest.raises(NumericError, match="'x2'"):
            fit(data, variance_mode=variance_mode, threads=threads)

    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    def test_underflowing_variance_raises(self, variance_mode):
        # class means 1e-160 apart: the variance floor underflows to 0, the
        # split's variance MLE is 0 and its weight is not finite
        X = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0],
                      [1e-160, 1.5], [1e-160, 2.5], [1e-160, 0.5]])
        data = Dataset.from_arrays(X, ["a"] * 3 + ["b"] * 3)
        with pytest.raises(NumericError,
                           match="gamma holds a non-finite value for feature 'x1'"):
            fit(data, variance_mode=variance_mode)

    def test_thread_counts_with_narrow_feature_blocks(self):
        # 7 features on 3 threads: a naive split leaves a one-column block
        rng = np.random.default_rng(1)
        y = np.repeat([1, 2, 3], 20)
        data = Dataset.from_arrays(rng.normal(size=(60, 7)) * 1e3 + 5.0,
                                   [str(v) for v in y])
        m1 = fit(data, threads=1)
        m3 = fit(data, threads=3)
        for f in ("mu", "sigma2", "gamma", "lam"):
            assert np.array_equal(getattr(m1, f), getattr(m3, f)), f

    def test_tail_block_merged_into_the_one_before(self):
        # p = 2 * width + 1 would leave a one-column tail block, whose sums
        # over hypotheses numpy takes pairwise; merged into the block before
        # it, the tail features get the bits of a fit on them alone (BIC's
        # constant does not depend on p).  At K=8 the blocks are 63 wide and
        # a subset sits in up to 877 hypotheses, the deepest subset sums.
        rng = np.random.default_rng(12)
        for (k, n), variance_mode in itertools.product(((4, 48), (8, 96)), ("equal", "unequal")):
            p = two_blocks_and_a_tail(k, variance_mode=variance_mode)
            data = random_dataset(rng, n, p, k, min_per_class=8)
            X = data.X.copy()
            X[:, -25:] += 0.8 * (data.y[:, None] - 1)
            labels = [data.class_labels[c - 1] for c in data.y]
            whole = fit(Dataset.from_arrays(X, labels), penalty="bic",
                        variance_mode=variance_mode)
            tail = fit(Dataset.from_arrays(X[:, -25:], labels), penalty="bic",
                       variance_mode=variance_mode)
            assert tail.gamma[:, 1:].max() > 0.5  # the hypotheses carry weight
            for f in ("Q", "L", "mu_null"):
                assert np.array_equal(getattr(whole, f)[..., -25:], getattr(tail, f)), f
            assert np.array_equal(whole.gamma[-25:], tail.gamma)

    def test_thread_counts_produce_identical_models(self):
        rng = np.random.default_rng(17)
        data = random_dataset(rng, 80, 700, 4, min_per_class=8)
        m1 = fit(data, threads=1)
        m3 = fit(data, threads=3)
        for f in ("mu", "sigma2", "pi", "gamma", "lam", "variance_floor"):
            assert np.array_equal(getattr(m1, f), getattr(m3, f))


class TestModelFromStats:
    """The one checked entry from statistics to a model."""

    def _derive(self, stats, parts, **config):
        return model_from_stats(stats, parts, **{
            "penalty": "ebic", "prior_term_mode": "log",
            "class_labels": tuple("abc"[:parts.K]),
            "feature_names": tuple(f"x{j + 1}" for j in range(stats.mean.shape[1])),
            **config})

    @pytest.mark.parametrize("penalty", ["ebic", "bic", "custom:3.5"])
    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    def test_request_resolves_as_fit(self, penalty, variance_mode):
        data = random_dataset(np.random.default_rng(3), 40, 30, 3, min_per_class=4)
        parts = build_partition_set(3, "exhaustive", variance_mode=variance_mode)
        model = self._derive(accumulate_stats(data), parts, penalty=penalty,
                             class_labels=data.class_labels)
        want = fit(data, penalty=penalty, variance_mode=variance_mode)
        assert model.penalty == want.penalty == PenaltyConfig.resolve(penalty, 40, 30)
        for f in ("gamma", "Q", "L", "c", "mu_null"):
            assert np.array_equal(getattr(model, f), getattr(want, f)), f

    @pytest.mark.parametrize("n_k, p, prior, message", [
        ([5], 2, "log", "at least 2 classes"),
        ([1, 1], 2, "log", "need at least K\\+1 = 3 samples, got 2"),
        ([2, 2], 0, "log", "at least 1 feature"),
        ([2, 2], 2, "bogus", "unknown prior term mode 'bogus'"),
    ], ids=["one-class", "n-below-K+1", "no-features", "prior-mode"])
    def test_untrainable_statistics_rejected(self, n_k, p, prior, message):
        k = len(n_k)
        stats = SufficientStats(n_k=np.array(n_k), mean=np.zeros((k, p)),
                                m2=np.ones((k, p)))
        parts = build_partition_set(k, "exhaustive")
        with pytest.raises(ValidationError, match=message):
            self._derive(stats, parts, prior_term_mode=prior)

    def test_first_bad_feature_named(self):
        # the first bad cell of the stored K x p means is feature 4's; every
        # check names the lowest feature with a bad value in any row
        mean = np.zeros((2, 5))
        mean[0, 3], mean[1, 1], mean[1, 4] = np.nan, np.inf, np.nan
        stats = SufficientStats(n_k=np.array([3, 3]), mean=mean, m2=np.ones((2, 5)))
        with pytest.raises(NumericError, match="^class_means holds a non-finite "
                                               "value for feature 'x2'$"):
            self._derive(stats, build_partition_set(2, "exhaustive"))
        m2 = np.ones((2, 5))
        m2[0, 4], m2[1, 2] = np.inf, np.nan
        stats = SufficientStats(n_k=np.array([3, 3]), mean=np.zeros((2, 5)), m2=m2)
        with pytest.raises(NumericError, match="^class_m2 holds a non-finite "
                                               "value for feature 'x3'$"):
            self._derive(stats, build_partition_set(2, "exhaustive"))
        # gamma is derived on read; its stored stand-in is each feature's
        # top weight, which a non-finite gamma column makes NaN
        model = fit(random_dataset(np.random.default_rng(9), 30, 5, 3, min_per_class=4))
        top_weight = model.top_weight.copy()
        top_weight[[1, 3]], top_weight[4] = np.nan, np.inf
        with pytest.raises(NumericError, match="^gamma holds a non-finite "
                                               "value for feature 'x2'$"):
            validate_model(dataclasses.replace(model, top_weight=top_weight))
        mu_null = model.mu_null.copy()
        mu_null[[2, 4]] = np.nan
        with pytest.raises(NumericError, match="^mu holds a non-finite "
                                               "value for feature 'x3'$"):
            validate_model(dataclasses.replace(model, mu_null=mu_null))

    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    @pytest.mark.parametrize("blocks", ["one", "two-and-a-tail"])
    def test_second_derivation_leaves_the_first_model_as_it_was(self, variance_mode, blocks):
        # each call's own workspace (model_from_stats), and one workspace
        # held for both (as cross_validate holds one for all its folds): no
        # array a model keeps may be a view of the derivation's memory
        p = 40 if blocks == "one" else two_blocks_and_a_tail(4, variance_mode=variance_mode)
        parts = build_partition_set(4, "exhaustive", variance_mode=variance_mode)
        rng = np.random.default_rng([p, len(variance_mode)])
        first, second = (accumulate_stats(random_dataset(rng, 48, p, 4, min_per_class=4))
                         for _ in range(2))
        shared = _Workspace(parts, p)
        assert len(shared.blocks) == (1 if blocks == "one" else 2)
        fields = ("gamma", "Q", "L", "c", "mu_null")
        for ws in (None, shared):
            model = _model_from_stats(first, parts, ws, penalty="bic", prior_term_mode="log",
                                      class_labels=tuple("abcd"),
                                      feature_names=tuple(f"x{j}" for j in range(p)))
            if ws is None:
                assert np.array_equal(model.gamma, self._derive(
                    first, parts, penalty="bic", class_labels=tuple("abcd")).gamma)
            kept = {f: getattr(model, f).copy() for f in fields}
            other = _model_from_stats(second, parts, ws, penalty="bic", prior_term_mode="log",
                                      class_labels=tuple("abcd"),
                                      feature_names=tuple(f"x{j}" for j in range(p)))
            assert not np.array_equal(other.Q, model.Q)
            for f in fields:
                assert np.array_equal(getattr(model, f), kept[f]), f
                assert not np.shares_memory(getattr(model, f), shared.buf), f

    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    def test_model_cannot_change_under_its_caller(self, variance_mode):
        # a model built from the caller's own arrays: a write through the
        # caller's names or the model's would change a later gamma read or
        # a save/load round trip, but not top or Q
        n_k, mean, m2 = np.array([4, 4, 4]), np.eye(3, 5), np.ones((3, 5))
        model = self._derive(SufficientStats(n_k=n_k, mean=mean, m2=m2),
                             build_partition_set(3, "exhaustive", variance_mode=variance_mode))
        subsets = model.parts.subsets
        for a in (n_k, mean, m2, model.stats.mean, model.parts.nu, model.parts.G,
                  model.parts.A, subsets.slot_rows, subsets.masks, subsets.row_columns[-1],
                  subsets.class_rows[0], subsets.column_groups[-1][1]):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]

    def test_views_of_the_callers_arrays_are_copied(self):
        # a read-only view still reads its base, which the caller can write;
        # arrays that own their data, as the readers and generators pass,
        # are kept without a copy
        base, m2 = np.eye(3, 5), np.ones((3, 5))
        model = self._derive(SufficientStats(n_k=np.array([4, 4, 4]), mean=base[:, :], m2=m2),
                             build_partition_set(3, "exhaustive"))
        Xb = np.zeros((4, 3))
        data = Dataset.from_arrays(Xb[:, :], ["a", "b", "a", "b"])
        base[0, 0] += 5
        Xb[0, 0] = 99
        assert model.stats.mean[0, 0] == 1.0 and data.X[0, 0] == 0.0
        assert model.stats.m2 is m2
        assert Dataset.from_arrays(Xb, ["a", "b", "a", "b"]).X is Xb

    def test_result_is_validated(self):
        stats = SufficientStats(n_k=np.array([3, 3]),
                                mean=np.array([[0.0, np.nan], [1.0, 2.0]]),
                                m2=np.ones((2, 2)))
        with pytest.raises(NumericError, match="class_means holds a non-finite "
                                               "value for feature 'x2'"):
            self._derive(stats, build_partition_set(2, "exhaustive"))


class TestGammaOnRead:
    """A model keeps each feature's top hypothesis and its weight, not the
    p x M gamma, which it derives when first read."""

    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    @pytest.mark.parametrize("scheme", ["exhaustive", "onevsrest", "ordinal", "user",
                                        "one-sample-class"])
    @pytest.mark.parametrize("blocks", ["one", "two-and-a-tail"])
    def test_top_is_the_argmax_of_gamma(self, blocks, scheme, variance_mode):
        # K=8 with the null and the 7 perfect matchings as a user S; the
        # exhaustive set with one sample in class 6, which under unequal
        # variances makes every hypothesis with {6} as a group inadmissible
        k, S = {"user": (8, _one_factorization(8)),
                "one-sample-class": (6, "exhaustive")}.get(scheme, (6, scheme))
        p = 40 if blocks == "one" else two_blocks_and_a_tail(k, S, variance_mode)
        data = random_dataset(np.random.default_rng([k, p]), 8 * k, p, k, min_per_class=4)
        if scheme == "one-sample-class":
            data = data.subset(np.r_[np.flatnonzero(data.y != k), np.flatnonzero(data.y == k)[0]])
        X = data.X.copy()
        X[:, ::3] += 0.8 * (data.y[:, None] - 1)
        model = fit(Dataset.from_arrays(X, [str(v) for v in data.y]), scheme=S,
                    penalty="bic", variance_mode=variance_mode)
        assert len(_Workspace(model.parts, p).blocks) == (1 if blocks == "one" else 2)
        if scheme == "one-sample-class" and variance_mode == "unequal":
            inadmissible = ~model.admissible
            assert inadmissible.sum() == bell_number(k - 1)
            assert not model.gamma[:, inadmissible].any()
        assert model.top.dtype == np.int64 and len(set(model.top.tolist())) > 1
        assert np.array_equal(model.top, np.argmax(model.gamma, axis=1))
        assert model.top_weight.tobytes() == model.gamma[np.arange(p), model.top].tobytes()
        # each array read block by block is the whole-p derivation's, bit for bit
        whole = fit_mles(model.stats, model.parts)
        lam = lrt(whole)
        for name, want in (("mu", whole.mu), ("sigma2", whole.sigma2),
                           ("variance_floor", whole.variance_floor), ("lam", lam),
                           ("gamma", gamma_weights(lam, model.parts.nu, model.penalty))):
            got = getattr(model, name)
            assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape,
                                                           want.strides), name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("variance_mode, C", [("equal", 10.0), ("unequal", 5.0)])
    def test_tie_goes_to_the_lower_hypothesis(self, variance_mode, C):
        # classes 1 and 2 mirror each other about class 3, so hypotheses
        # {1}{2,3} and {2}{1,3} (indices 2 and 3) get the same bits, and
        # the penalty puts them above the null and the full split
        stats = SufficientStats(n_k=np.array([10, 10, 10]),
                                mean=np.array([[-2.0, 0.0], [2.0, 0.0], [0.0, 0.0]]),
                                m2=np.full((3, 2), 10.0))
        model = model_from_stats(stats, build_partition_set(3, "exhaustive",
                                                            variance_mode=variance_mode),
                                 penalty=PenaltyConfig("custom", C), prior_term_mode="log",
                                 class_labels=tuple("abc"), feature_names=("x1", "x2"))
        gamma = model.gamma
        assert gamma[0, 2] == gamma[0, 3] == gamma[0].max()
        assert model.top.tolist() == [2, 0]
        assert model.top_weight.tobytes() == gamma[[0, 1], [2, 0]].tobytes()

    def test_fit_save_load_predict_and_cv_derive_no_gamma(self, tmp_path, no_gamma):
        from multida.data_io import load_model, save_model
        from multida.simlab import cross_validate

        data = random_dataset(np.random.default_rng(4), 40, 12, 4, min_per_class=4)
        model = fit(data, penalty="bic")
        selected_features(model, 0.3)
        labels = predict(model, data.X).labels
        save_model(model, tmp_path / "m.json")
        assert predict(load_model(tmp_path / "m.json"), data.X).labels == labels
        cross_validate(data, folds=2, trials=1)
        with pytest.raises(AssertionError, match="derived a p x M"):
            model.gamma

    def test_model_keeps_no_p_by_m_array(self):
        import tracemalloc

        p = 2000
        data = random_dataset(np.random.default_rng(6), 60, p, 6, min_per_class=4)
        tracemalloc.start()
        try:
            model = fit(data)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < p * model.M * 8 / 4

    def test_reading_gamma_keeps_only_gamma(self):
        import tracemalloc

        model = fit(random_dataset(np.random.default_rng(6), 60, 2000, 6, min_per_class=4))
        tracemalloc.start()
        try:
            gamma = model.gamma
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 1.1 * gamma.nbytes


class TestShiftScaleInvariance:
    """Shifting or rescaling a feature must not change what the model
    selects or predicts."""

    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    def test_offset_1e8_gamma_matches_offset_0(self, variance_mode):
        # one discriminative feature and two noise features; the one-pass
        # formula sum(x**2) - sum(x)**2 / n moved the selection to noise
        rng = np.random.default_rng(60)
        y = np.repeat([1, 2, 3], 20)
        X = rng.normal(size=(60, 3))
        X[:, 0] += 1.5 * (y - 1)
        labels = [str(v) for v in y]
        base = fit(Dataset.from_arrays(X, labels), variance_mode=variance_mode)
        moved = fit(Dataset.from_arrays(X + 1e8, labels), variance_mode=variance_mode)
        assert base.gamma[1:, 0].min() > 0.99  # noise features stay null
        np.testing.assert_allclose(moved.gamma, base.gamma, rtol=0.0, atol=1e-6)

    @given(
        seed=st.integers(0, 2**32 - 1),
        shift=st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
        log_scale=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
        variance_mode=st.sampled_from(["equal", "unequal"]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_affine_transform_keeps_gamma_and_labels(self, seed, shift, log_scale,
                                                     variance_mode):
        rng = np.random.default_rng(seed)
        y = np.repeat([1, 2, 3], 15)
        X = rng.normal(size=(45, 4))
        X[:, :2] += 1.2 * (y[:, None] - 1)
        X[:, 2] *= 0.5 + 0.5 * y  # class-dependent spread
        q = rng.normal(size=(20, 4)) * 2.0 + 1.0
        a, b = np.array(shift), 10.0 ** np.array(log_scale)
        labels = [str(v) for v in y]
        base = fit(Dataset.from_arrays(X, labels), penalty="bic",
                   variance_mode=variance_mode)
        moved = fit(Dataset.from_arrays(a + b * X, labels), penalty="bic",
                    variance_mode=variance_mode)
        np.testing.assert_allclose(moved.gamma, base.gamma, rtol=0.0, atol=1e-6)
        assert predict(moved, a + b * q).labels == predict(base, q).labels


class TestPredict:
    def test_null_model_returns_priors(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 3))
        data = Dataset.from_arrays(X, ["a"] * 7 + ["b"] * 3)
        model = fit(data, penalty="custom:100")  # crushes every alternative
        assert model.gamma[:, 0].min() > 0.999999
        pred = predict(model, np.zeros((4, 3)))
        np.testing.assert_allclose(pred.probabilities, [[0.7, 0.3]] * 4, atol=1e-6)

    def test_uniform_priors_give_uniform_rows(self):
        data = Dataset.from_arrays(np.random.default_rng(0).normal(size=(8, 2)),
                                   ["a", "b"] * 4)
        model = fit(data, penalty="custom:100")
        pred = predict(model, np.zeros((3, 2)))
        np.testing.assert_allclose(pred.probabilities, 0.5, atol=1e-9)

    def test_toy_decision_boundary(self, toy_data):
        model = fit(toy_data, penalty="ebic")
        pred = predict(model, np.array([[0.0], [6.0]]))
        assert pred.labels == ("a", "b")

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng, 50, 8, 3, min_per_class=5)
        model = fit(data)
        pred = predict(model, rng.normal(size=(20, 8)))
        np.testing.assert_allclose(pred.probabilities.sum(axis=1), 1.0, atol=1e-12)

    def test_score_shift_invariance(self):
        # probabilities are a softmax of eta: shifting all scores by a
        # constant changes nothing
        eta = np.array([[1.0, 3.0, 2.0], [0.0, -1.0, 4.0]])
        def softmax(e):
            w = np.exp(e - e.max(axis=1, keepdims=True))
            return w / w.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(softmax(eta), softmax(eta + 123.456), rtol=1e-12)

    def test_prior_term_modes(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(12, 2))
        labels = ["a"] * 8 + ["b"] * 4
        log_model = fit(Dataset.from_arrays(X, labels), penalty="custom:100",
                        prior_term_mode="log")
        plogp_model = fit(Dataset.from_arrays(X, labels), penalty="custom:100",
                          prior_term_mode="plogp")
        q = np.zeros((1, 2))
        np.testing.assert_allclose(
            predict(log_model, q).probabilities[0], [2 / 3, 1 / 3], atol=1e-6
        )
        pi = np.array([2 / 3, 1 / 3])
        expect = np.exp(pi * np.log(pi))
        expect /= expect.sum()
        np.testing.assert_allclose(
            predict(plogp_model, q).probabilities[0], expect, atol=1e-6
        )

    def test_errors(self, toy_data):
        model = fit(toy_data)
        with pytest.raises(ValidationError, match="p=1"):
            predict(model, np.zeros((2, 3)))
        with pytest.raises(ValidationError, match="non-finite"):
            predict(model, np.array([[np.inf]]))
        with pytest.raises(ValidationError, match="must be 2-dimensional"):
            predict(model, np.zeros((2, 2, 1)))

    def test_names_first_non_finite_query_cell_in_row_order(self):
        model = fit(random_dataset(np.random.default_rng(7), 30, 5, 3, min_per_class=4))
        # column by column the first bad cell would be row 3, column 1
        q = np.zeros((4, 5))
        q[1, 3], q[1, 1], q[2, 0], q[3, 4] = np.nan, np.inf, -np.inf, np.nan
        for threads in (1, 2):
            with pytest.raises(ValidationError, match="^non-finite query value at "
                                                      "row 2, column 2$"):
                predict(model, q, threads=threads)

    def test_one_dimensional_row_is_one_query(self):
        rng = np.random.default_rng(4)
        model = fit(random_dataset(rng, 30, 6, 3, min_per_class=4))
        row = rng.normal(size=6)
        one, two = predict(model, row), predict(model, row[None, :])
        assert np.array_equal(one.eta, two.eta)
        assert np.array_equal(one.probabilities, two.probabilities)
        assert one.labels == two.labels

    def test_worker_count_capped_at_usable_cpus(self, monkeypatch):
        workers = []

        class SerialPool:
            """Records the worker count asked for and maps in this thread."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        rng = np.random.default_rng(6)
        model = fit(random_dataset(rng, 40, 30, 3, min_per_class=5))
        # enough rows for three workers' minimum number of cells
        q = rng.normal(size=(3 * -(-_MIN_WORKER_CELLS // 30), 30))
        want = predict(model, q, threads=1)
        got = predict(model, q, threads=10**6)
        assert all(w <= _resolve_threads(0) for w in workers)
        assert np.array_equal(got.eta, want.eta)
        assert np.array_equal(got.probabilities, want.probabilities)
        # three usable CPUs: 0 means three, and no count goes beyond
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert [_resolve_threads(t) for t in (0, 1, 2, 3, 10**6)] == [3, 1, 2, 3, 3]
        workers.clear()
        got = predict(model, q, threads=10**6)
        assert workers == [3]
        assert np.array_equal(got.eta, want.eta)

    def test_row_chunking_identical(self, monkeypatch):
        # eight usable CPUs, so the thread counts below are not capped, and
        # a pool that records each chunk it maps
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        chunks = []
        pool = concurrent.futures.ThreadPoolExecutor

        class RecordingPool(pool):
            def map(self, fn, items):
                items = list(items)
                chunks.append([s.stop - s.start for s in items])
                return super().map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        rng = np.random.default_rng(31)
        # p = 40 sets up one feature block, the other two and a merged tail
        for k, p in ((3, 40), (3, two_blocks_and_a_tail(3)), (6, two_blocks_and_a_tail(6))):
            data = random_dataset(rng, 20 * k, p, k, min_per_class=6)
            # the fewest rows that give a worker its minimum number of cells
            least = -(-_MIN_WORKER_CELLS // p)
            q = rng.normal(size=(4 * least + 1, p))
            for variance_mode in ("equal", "unequal"):
                model = fit(data, variance_mode=variance_mode)
                a = predict(model, q, threads=1)
                chunks.clear()
                b = predict(model, q, threads=4)
                assert np.array_equal(a.probabilities, b.probabilities)
                assert np.array_equal(a.eta, b.eta)
                # chunks of least + 1 rows, the last one shorter
                assert chunks == [[least + 1] * 3 + [least - 2]]
                # more threads than the rows can feed: one worker per minimum
                c = predict(model, q[:2 * least], threads=8)
                assert np.array_equal(a.eta[:2 * least], c.eta)
                assert np.array_equal(a.probabilities[:2 * least], c.probabilities)
                assert chunks[-1] == [least, least]
                # 3 * least + 1 rows on 3 threads: least + 1, least + 1, least - 1
                d = predict(model, q[:3 * least + 1], threads=3)
                assert np.array_equal(a.eta[:3 * least + 1], d.eta)
                assert np.array_equal(a.probabilities[:3 * least + 1], d.probabilities)
                assert chunks[-1] == [least + 1, least + 1, least - 1]
                # too few cells for two workers: no pool
                short = (2 * _MIN_WORKER_CELLS - 1) // p
                e = predict(model, q[:short], threads=2)
                assert np.array_equal(a.eta[:short], e.eta)
                assert len(chunks) == 3

    def test_small_call_starts_no_pool(self, monkeypatch):
        # a 20-row fold of cv-k4-qda's shape on 2 threads runs in this thread
        started = []

        class NoPool:
            def __init__(self, max_workers):
                started.append(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rng = np.random.default_rng(41)
        model = fit(random_dataset(rng, 80, 5000, 4, min_per_class=8),
                    variance_mode="unequal")
        q = rng.normal(size=(20, 5000))
        one, two = predict(model, q, threads=1), predict(model, q, threads=2)
        assert started == []
        assert np.array_equal(one.eta, two.eta)
        assert np.array_equal(one.probabilities, two.probabilities)

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    @pytest.mark.parametrize("prior_term_mode", ["log", "plogp"])
    @pytest.mark.parametrize("scheme", ["exhaustive", "onevsrest"])
    def test_eta_matches_slotwise_oracle(self, k, variance_mode, prior_term_mode, scheme):
        rng = np.random.default_rng(100 + k)
        y = np.repeat(np.arange(1, k + 1), 8)
        # p = 12 sets up one feature block, the other two and a merged tail
        for p in (12, two_blocks_and_a_tail(k, scheme, variance_mode)):
            X = rng.normal(size=(y.size, p))
            X[:, :4] += 1.5 * (y[:, None] - 1) * np.array([1.0, -1.0, 0.5, 2.0])
            X[:, 4] *= 0.5 + y  # class-dependent spread
            if p > 12:  # features that carry weight in the tail block
                X[:, -4:] += 3.0 * (y[:, None] - 1) * np.array([1.0, -1.0, 0.5, 2.0])
            q = rng.normal(size=(15, p)) * 2.0
            for offset in (0.0, 1e6):
                data = Dataset.from_arrays(X + offset, [str(v) for v in y])
                model = fit(data, scheme=scheme, penalty="bic",
                            variance_mode=variance_mode,
                            prior_term_mode=prior_term_mode)
                assert model.gamma[:, 1:].max() > 0.5  # the hypotheses carry weight
                if p > 12:
                    assert model.gamma[-4:, 1:].max() > 0.5
                got = predict(model, q + offset).eta
                want = slotwise_eta(model, q + offset)
                err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
                assert err.max() <= 1e-9, (p, offset, err.max())


class TestSelectedFeatures:
    def test_null_model_empty(self):
        data = Dataset.from_arrays(np.random.default_rng(0).normal(size=(9, 4)),
                                   ["a", "b", "c"] * 3)
        model = fit(data, penalty="custom:100")
        assert selected_features(model) == []

    def test_threshold_filter(self, toy_data):
        model = fit(toy_data, penalty="ebic")
        rows = selected_features(model, threshold=0.5)
        assert len(rows) == 1
        name, m, w = rows[0]
        assert (name, m) == ("x1", 2)
        assert w == pytest.approx(25 / 29)
        assert selected_features(model, threshold=0.9) == []

    def test_sorted_by_weight(self):
        rng = np.random.default_rng(8)
        y = np.repeat([1, 2], 30)
        X = rng.normal(size=(60, 4))
        X[:, 1] += 3.0 * (y - 1)  # strong
        X[:, 3] += 1.2 * (y - 1)  # weaker
        model = fit(Dataset.from_arrays(X, [str(v) for v in y]), penalty="bic")
        rows = selected_features(model, threshold=0.1)
        weights = [w for _, _, w in rows]
        assert weights == sorted(weights, reverse=True)
        assert rows[0][0] == "x2"
