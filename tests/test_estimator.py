import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multida import ValidationError
from multida.estimator import (
    Dataset,
    PenaltyConfig,
    accumulate_stats,
    fit,
    fit_mles,
    gamma_weights,
    lrt,
    predict,
    selected_features,
    validate_model,
)
from multida.partitions import build_partition_set

from oracles import (
    bruteforce_posterior,
    numeric_mle_equal_var,
    numeric_mle_single_group,
    slotwise_eta,
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

    def test_subset_keeps_encoding(self, toy_data):
        sub = toy_data.subset(np.array([1, 2, 3]))
        assert sub.class_labels == ("a", "b")
        assert sub.class_counts.tolist() == [1, 2]


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


class TestSufficientStats:
    def test_hand_accumulation(self, toy_data, toy_parts):
        stats = accumulate_stats(toy_data, toy_parts)
        # class a holds 0, 2; class b holds 4, 6
        assert stats.n_k.tolist() == [2, 2]
        assert stats.mean[:, 0].tolist() == [1.0, 5.0]
        assert stats.m2[:, 0].tolist() == [2.0, 2.0]

    def test_null_slot_totals(self, toy_data, toy_parts):
        stats = accumulate_stats(toy_data, toy_parts)
        assert stats.n_k.sum() == toy_data.n
        assert (stats.n_k * stats.mean[:, 0]).sum() == TOY_X.sum()
        mles = fit_mles(stats, toy_parts, "equal")
        assert mles.mu[0, 0] == 3.0 and mles.sigma2[0, 0] == 5.0

    def test_single_sample_group(self):
        d = Dataset.from_arrays(np.array([[1.0], [2.0], [3.0]]), ["a", "b", "b"])
        stats = accumulate_stats(d, build_partition_set(2, "exhaustive"))
        assert stats.n_k.tolist() == [1, 2]
        assert stats.mean[:, 0].tolist() == [1.0, 2.5]
        assert stats.m2[:, 0].tolist() == [0.0, 0.5]

    @pytest.mark.parametrize("k,scheme", [(3, "exhaustive"), (4, "onevsrest"), (4, "ordinal")])
    def test_invariants_random(self, k, scheme):
        # merged slots reproduce each group's moments computed from the data
        rng = np.random.default_rng(52)
        data = random_dataset(rng, 40, 6, k)
        parts = build_partition_set(k, scheme)
        stats = accumulate_stats(data, parts)
        eq = fit_mles(stats, parts, "equal")
        uq = fit_mles(stats, parts, "unequal")
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

    def test_thread_count_does_not_change_bits(self):
        # (7, 3) and (3, 2) would leave a one-column feature block
        rng = np.random.default_rng(7)
        parts = build_partition_set(3, "exhaustive")
        for p, threads in [(500, 5), (7, 3), (3, 2), (1, 4)]:
            data = random_dataset(rng, 60, p, 3)
            a = accumulate_stats(data, parts, threads=1)
            b = accumulate_stats(data, parts, threads=threads)
            assert np.array_equal(a.mean, b.mean), (p, threads)
            assert np.array_equal(a.m2, b.m2), (p, threads)


class TestMles:
    def test_hand_values(self, toy_data, toy_parts):
        stats = accumulate_stats(toy_data, toy_parts)
        mles = fit_mles(stats, toy_parts, "equal")
        np.testing.assert_allclose(mles.mu[0], [3.0, 1.0, 5.0])
        np.testing.assert_allclose(mles.sigma2[0], [5.0, 1.0])
        np.testing.assert_allclose(mles.pi, [0.5, 0.5])

    def test_unequal_variances(self, toy_data, toy_parts):
        stats = accumulate_stats(toy_data, toy_parts)
        mles = fit_mles(stats, toy_parts, "unequal")
        np.testing.assert_allclose(mles.sigma2[0], [5.0, 1.0, 1.0])

    def test_constant_feature_clamps_to_floor(self, toy_parts):
        d = Dataset.from_arrays(np.full((4, 1), 7.0), TOY_Y)
        stats = accumulate_stats(d, toy_parts)
        mles = fit_mles(stats, toy_parts, "equal")
        np.testing.assert_allclose(mles.mu[0], [7.0, 7.0, 7.0])
        assert (mles.sigma2[0] == 1e-8).all()  # zero global variance -> 1e-8

    def test_matches_numerical_maximizer(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 24, 2, 3, min_per_class=3)
        parts = build_partition_set(3, "exhaustive")
        stats = accumulate_stats(data, parts)
        eq = fit_mles(stats, parts, "equal")
        uq = fit_mles(stats, parts, "unequal")
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


class TestLrt:
    def test_null_column_exactly_zero(self, toy_data, toy_parts):
        stats = accumulate_stats(toy_data, toy_parts)
        lam = lrt(stats, toy_parts, fit_mles(stats, toy_parts, "equal"))
        assert lam[0, 0] == 0.0

    def test_hand_value(self, toy_data, toy_parts):
        stats = accumulate_stats(toy_data, toy_parts)
        lam = lrt(stats, toy_parts, fit_mles(stats, toy_parts, "equal"))
        assert lam[0, 1] == pytest.approx(TOY_LAMBDA, rel=1e-12)

    def test_identical_groups_give_zero(self):
        # same values in every class: all hypotheses fit equally well
        x = np.tile(np.array([1.0, 2.0, 3.0]), 3)
        y = np.repeat(["a", "b", "c"], 3)
        d = Dataset.from_arrays(x[:, None], y)
        parts = build_partition_set(3, "exhaustive")
        stats = accumulate_stats(d, parts)
        lam = lrt(stats, parts, fit_mles(stats, parts, "equal"))
        np.testing.assert_allclose(lam, 0.0, atol=1e-10)

    def test_lda_equals_qda_when_group_spreads_match(self):
        # class value multisets identical => every group variance equals the
        # pooled one, so the two statistics agree
        x = np.concatenate([np.array([0.0, 1.0, 2.0, 5.0])] * 3)
        y = np.repeat(["a", "b", "c"], 4)
        d = Dataset.from_arrays(x[:, None], y)
        parts_eq = build_partition_set(3, "exhaustive", variance_mode="equal")
        parts_uq = build_partition_set(3, "exhaustive", variance_mode="unequal")
        stats = accumulate_stats(d, parts_eq)
        lam_eq = lrt(stats, parts_eq, fit_mles(stats, parts_eq, "equal"))
        lam_uq = lrt(stats, parts_uq, fit_mles(stats, parts_uq, "unequal"))
        np.testing.assert_allclose(lam_eq, lam_uq, atol=1e-10)

    def test_chi_square_calibration_light(self):
        # null data: 500 replicate features; the nu=1 statistic should be
        # roughly chi-square(1); full-size calibration is in acceptance
        rng = np.random.default_rng(1)
        d = Dataset.from_arrays(
            rng.normal(size=(150, 500)), [str(k) for k in np.repeat([1, 2, 3], 50)]
        )
        parts = build_partition_set(3, "exhaustive")
        stats = accumulate_stats(d, parts)
        lam = lrt(stats, parts, fit_mles(stats, parts, "equal"))
        med = float(np.median(lam[:, 1]))
        assert 0.25 < med < 0.70  # chi2(1) median is 0.455


class TestGammaWeights:
    def test_uniform_when_unpenalized(self):
        lam = np.zeros(5)
        nu = np.array([0, 1, 1, 1, 2])
        w = gamma_weights(lam, nu, PenaltyConfig("custom", 0.0))
        np.testing.assert_allclose(w, 0.2)

    def test_toy_value(self):
        lam = np.array([0.0, TOY_LAMBDA])
        w = gamma_weights(lam, np.array([0, 1]), PenaltyConfig("custom", math.log(4.0)))
        np.testing.assert_allclose(w, TOY_GAMMA, rtol=1e-12)

    def test_inadmissible_gets_zero(self):
        lam = np.array([0.0, -np.inf])
        w = gamma_weights(lam, np.array([0, 1]), PenaltyConfig("custom", 1.0))
        np.testing.assert_allclose(w, [1.0, 0.0])

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
        w_low = gamma_weights(lam, nu, pen_low)
        w_high = gamma_weights(lam, nu, pen_high)
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
            np.testing.assert_allclose(full[j], gamma_weights(lam[j], nu, pen))


class TestPosteriorOracle:
    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    def test_matches_bruteforce_enumeration(self, variance_mode):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(12, 21))
            p = int(rng.integers(1, 4))
            data = random_dataset(rng, n, p, 3, min_per_class=3)
            parts = build_partition_set(3, "exhaustive", variance_mode=variance_mode)
            model = fit(data, parts, penalty="ebic", variance_mode=variance_mode)
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
        parts3 = build_partition_set(3, "exhaustive")
        with pytest.raises(ValidationError, match="K=3"):
            fit(toy_data, parts3)
        parts_uq = build_partition_set(2, "exhaustive", variance_mode="unequal")
        with pytest.raises(ValidationError, match="variance_mode"):
            fit(toy_data, parts_uq, variance_mode="equal")

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

    def test_thread_counts_produce_identical_models(self):
        rng = np.random.default_rng(17)
        data = random_dataset(rng, 80, 700, 4, min_per_class=8)
        m1 = fit(data, threads=1)
        m3 = fit(data, threads=3)
        for f in ("mu", "sigma2", "pi", "gamma", "lam", "variance_floor"):
            assert np.array_equal(getattr(m1, f), getattr(m3, f))


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

    def test_row_chunking_identical(self):
        rng = np.random.default_rng(31)
        data = random_dataset(rng, 60, 40, 3, min_per_class=6)
        q = rng.normal(size=(37, 40))
        for variance_mode in ("equal", "unequal"):
            model = fit(data, variance_mode=variance_mode)
            a = predict(model, q, threads=1)
            b = predict(model, q, threads=4)
            assert np.array_equal(a.probabilities, b.probabilities)
            assert np.array_equal(a.eta, b.eta)
            # more threads than rows: every chunk is a single row
            c = predict(model, q[:5], threads=8)
            assert np.array_equal(a.eta[:5], c.eta)
            assert np.array_equal(a.probabilities[:5], c.probabilities)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    @pytest.mark.parametrize("prior_term_mode", ["log", "plogp"])
    @pytest.mark.parametrize("scheme", ["exhaustive", "onevsrest"])
    def test_eta_matches_slotwise_oracle(self, k, variance_mode, prior_term_mode, scheme):
        rng = np.random.default_rng(100 + k)
        y = np.repeat(np.arange(1, k + 1), 8)
        X = rng.normal(size=(y.size, 12))
        X[:, :4] += 1.5 * (y[:, None] - 1) * np.array([1.0, -1.0, 0.5, 2.0])
        X[:, 4] *= 0.5 + y  # class-dependent spread
        q = rng.normal(size=(15, 12)) * 2.0
        for offset in (0.0, 1e6):
            data = Dataset.from_arrays(X + offset, [str(v) for v in y])
            model = fit(data, scheme=scheme, penalty="bic",
                        variance_mode=variance_mode, prior_term_mode=prior_term_mode)
            assert model.gamma[:, 1:].max() > 0.5  # the hypotheses carry weight
            got = predict(model, q + offset).eta
            want = slotwise_eta(model, q + offset)
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert err.max() <= 1e-9, (offset, err.max())


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
