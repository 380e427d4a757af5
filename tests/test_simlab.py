import ast
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import multida
from multida import NumericError, ValidationError, estimator, simlab
from multida.estimator import (
    Dataset,
    _cv_folds,
    _stratified_folds,
    accumulate_stats,
    cross_validate,
    fit,
)
from multida.partitions import build_partition_set, enumerate_exhaustive, refines
from multida.simlab import (
    SimReport,
    SimSpec,
    TruthAssignment,
    consistency_sweep,
    dependent_structure,
    gen_dependent,
    gen_independent,
    generate,
    selection_error,
)

from oracles import dependent_X, independent_X, refit_cross_validate


def truth_for(columns, true_col, p):
    return TruthAssignment(
        columns=tuple(columns),
        true_column=np.asarray(true_col),
        class_means=np.zeros((3, p)),
        class_sds=None,
    )


class FakeModel:
    """Minimal stand-in carrying just what selection_error reads."""

    def __init__(self, columns, gamma, variance_mode="equal"):
        self.parts = build_partition_set(
            len(columns[0]), "exhaustive", variance_mode=variance_mode
        )
        assert self.parts.columns == tuple(columns)
        self.gamma = np.asarray(gamma, dtype=float)
        self.top = np.argmax(self.gamma, axis=1)
        self.p = self.gamma.shape[0]


class TestSimSpec:
    def test_scenario_validation(self):
        with pytest.raises(ValidationError, match="unknown scenario"):
            SimSpec("bogus", n=10, p=5, K=2)

    def test_fraction_bounds(self):
        with pytest.raises(ValidationError):
            SimSpec("ind-equal-var", n=10, p=5, K=2, discriminative_fraction=1.5)

    def test_fewer_samples_than_classes(self):
        with pytest.raises(ValidationError, match="need n >= K"):
            SimSpec("ind-equal-var", n=2, p=5, K=3)

    @pytest.mark.parametrize("seed", [-1, 1.0, "1", None])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            SimSpec("ind-equal-var", n=10, p=5, K=2, seed=seed)

    @pytest.mark.parametrize("seed", [0, np.int64(3), 2**40])
    def test_integer_seeds_accepted(self, seed):
        assert SimSpec("ind-equal-var", n=10, p=5, K=2, seed=seed).seed == seed

    @pytest.mark.parametrize("density", [-0.1, 1.5])
    def test_block_density_bounds(self, density):
        with pytest.raises(ValidationError, match="block_density must lie in"):
            SimSpec("dep-equal-cov", n=10, p=10, K=2, block_size=5, block_density=density)

    def test_default_block_size(self):
        spec = SimSpec("dep-equal-cov", n=10, p=50, K=2)
        assert spec.effective_block_size == 5  # p / 10
        assert dependent_structure(spec).factors[0][0].shape == (5, 5)
        assert SimSpec("dep-equal-cov", n=10, p=5, K=2).effective_block_size == 1

    def test_block_settings_only_shape_dependent_scenarios(self):
        SimSpec("ind-equal-var", n=10, p=10, K=2, block_size=3, block_density=2.0)

    def test_block_divisibility(self):
        with pytest.raises(ValidationError, match="divisible"):
            SimSpec("dep-equal-cov", n=10, p=10, K=2, block_size=3)
        with pytest.raises(ValidationError):
            SimSpec("dep-equal-cov", n=10, p=4, K=2, block_size=8)

    @pytest.mark.parametrize("field, value", [
        ("mean_shift", float("nan")), ("mean_shift", float("inf")),
        ("variance_scale", float("nan")), ("variance_scale", -float("inf")),
    ])
    @pytest.mark.parametrize("scenario", ["ind-equal-var", "ind-unequal-var"])
    def test_non_finite_settings_rejected(self, scenario, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be finite, got"):
            SimSpec(scenario, n=10, p=5, K=2, **{field: value})

    @pytest.mark.parametrize("k, scale", [(2, -1.0), (2, -1.5), (3, -0.5), (3, -1.0),
                                          (5, -0.25)])
    def test_non_positive_group_sd_rejected(self, k, scale):
        with pytest.raises(ValidationError,
                           match=f"^variance_scale={scale} gives group K={k} "):
            SimSpec("ind-unequal-var", n=10, p=5, K=k, variance_scale=scale)

    def test_negative_variance_scale_with_positive_sds(self):
        # group 3 gets 1 + 2 * (-0.4) = 0.2
        spec = SimSpec("ind-unequal-var", n=30, p=200, K=3, variance_scale=-0.4, seed=1)
        _, truth = gen_independent(spec)
        assert truth.class_sds.min() == pytest.approx(0.2)
        # the scale only shapes the unequal-variance scenario
        SimSpec("ind-equal-var", n=10, p=5, K=3, variance_scale=-1.0)

    def test_consistency_is_not_a_data_scenario(self):
        # the sweep draws ind-equal-var data; no scenario of its own
        with pytest.raises(ValidationError, match="unknown scenario 'fs-consistency'"):
            SimSpec("fs-consistency", n=9, p=5, K=3)


class TestGenIndependent:
    def test_truth_holds_no_hypothesis_matrix(self):
        # the planted hypotheses are held once, one column index per feature
        spec = SimSpec("ind-equal-var", n=30, p=40, K=5, seed=2)
        _, truth = generate(spec)
        m = len(truth.columns)
        arrays = [v for v in vars(truth).values() if isinstance(v, np.ndarray)]
        assert all(a.size < spec.p * m for a in arrays)

    def test_discriminative_count(self):
        spec = SimSpec("ind-equal-var", n=500, p=500, K=3, seed=7, mean_shift=2.0)
        data, truth = gen_independent(spec)
        assert int((truth.true_column != 0).sum()) == 50
        assert truth.true_column.shape == (500,)
        assert (data.n, data.p, data.K) == (500, 500, 3)

    def test_zero_fraction_all_null(self):
        spec = SimSpec("ind-equal-var", n=30, p=40, K=3, mean_shift=2.0,
                       discriminative_fraction=0.0, seed=1)
        _, truth = gen_independent(spec)
        assert (truth.true_column == 0).all()

    def test_seed_determinism(self):
        spec = SimSpec("ind-equal-var", n=40, p=30, K=4, seed=9)
        d1, t1 = gen_independent(spec)
        d2, t2 = gen_independent(spec)
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(t1.true_column, t2.true_column)

    def test_balanced_allocation(self):
        # no feature planted: the default 0.1 of p=5 rounds to none and is refused
        spec = SimSpec("ind-equal-var", n=100, p=5, K=4, seed=0, discriminative_fraction=0.0)
        data, _ = gen_independent(spec)
        assert data.class_counts.tolist() == [25, 25, 25, 25]
        uneven, _ = gen_independent(SimSpec("ind-equal-var", n=10, p=5, K=3, seed=0,
                                            discriminative_fraction=0.0))
        assert sorted(uneven.class_counts.tolist()) == [3, 3, 4]

    @pytest.mark.parametrize("p", [4, 5])
    def test_refuses_fraction_that_plants_none(self, p):
        # round(0.1 * 5) = 0; p=6 is the first width that plants a feature
        with pytest.raises(ValidationError, match=f"discriminative_fraction=0.1 of p={p} "
                                                  "features plants none"):
            generate(SimSpec("ind-equal-var", n=10, p=p, K=2))
        _, truth = generate(SimSpec("ind-equal-var", n=10, p=6, K=2))
        assert np.count_nonzero(truth.true_column) == 1

    def test_group_mean_structure(self):
        spec = SimSpec("ind-equal-var", n=3000, p=10, K=3, seed=4,
                       discriminative_fraction=1.0, mean_shift=2.0)
        data, truth = gen_independent(spec)
        cols = truth.columns
        for j in range(10):
            labels = cols[truth.true_column[j]]
            for k in range(3):
                got = data.X[data.y == k + 1, j].mean()
                assert got == pytest.approx((labels[k] - 1) * 2.0, abs=0.25)

    def test_unequal_variance_structure(self):
        spec = SimSpec("ind-unequal-var", n=6000, p=6, K=2, seed=5,
                       discriminative_fraction=1.0, variance_scale=1.0)
        data, truth = gen_independent(spec)
        for j in range(6):
            labels = truth.columns[truth.true_column[j]]
            for k in range(2):
                sd = data.X[data.y == k + 1, j].std()
                assert sd == pytest.approx(labels[k], rel=0.1)

    def test_rejects_dependent_scenario(self):
        with pytest.raises(ValidationError):
            gen_independent(SimSpec("dep-equal-cov", n=10, p=10, K=2, block_size=5))


class TestGenDependent:
    def test_seed_determinism_and_permutation(self):
        spec = SimSpec("dep-equal-cov", n=30, p=60, K=3, block_size=12, seed=2)
        d1, t1 = gen_dependent(spec)
        d2, t2 = gen_dependent(spec)
        assert np.array_equal(d1.X, d2.X)
        st1 = dependent_structure(spec)
        st2 = dependent_structure(spec)
        assert np.array_equal(st1.perm, st2.perm)

    def test_truth_is_one_vs_rest(self):
        spec = SimSpec("dep-equal-cov", n=30, p=40, K=4, block_size=10, seed=3)
        _, truth = gen_dependent(spec)
        cols = truth.columns
        disc = np.flatnonzero(truth.true_column != 0)
        assert len(disc) == 4  # round(0.1 * 40) = 4, one per class
        for j in disc:
            assert max(cols[truth.true_column[j]]) == 2

    @pytest.mark.parametrize("p, k, sizes", [
        (20, 3, [1, 1, 0]), (40, 3, [2, 1, 1]), (60, 4, [2, 2, 1, 1]), (40, 4, [1, 1, 1, 1]),
    ])
    def test_plants_rounded_fraction_of_p(self, p, k, sizes):
        # round(0.1 * p) features, the first classes taking one more each
        spec = SimSpec("dep-unequal-cov", n=10 * k, p=p, K=k, block_size=10, seed=5)
        st = dependent_structure(spec)
        assert [len(s) for s in st.disc_sets] == sizes
        assert np.concatenate(st.disc_sets).tolist() == list(range(sum(sizes)))
        _, truth = gen_dependent(spec)
        assert np.count_nonzero(truth.true_column) == round(0.1 * p)

    def test_refuses_fraction_that_plants_none(self):
        spec = SimSpec("dep-equal-cov", n=10, p=4, K=2, block_size=2)
        with pytest.raises(ValidationError, match="discriminative_fraction=0.1 of p=4 "
                                                  "features plants none"):
            generate(spec)
        # a zero fraction asks for none
        generate(SimSpec("dep-equal-cov", n=10, p=4, K=2, block_size=2,
                         discriminative_fraction=0.0))

    def test_mean_shift_applied_to_class_sets(self):
        spec = SimSpec("dep-equal-cov", n=4000, p=20, K=2, block_size=4,
                       discriminative_fraction=0.5, seed=8)
        data, truth = gen_dependent(spec)
        disc = np.flatnonzero(truth.true_column != 0)
        for j in disc:
            k = int(np.argmax(truth.class_means[:, j])) + 1
            in_class = data.X[data.y == k, j].mean()
            out_class = data.X[data.y != k, j].mean()
            assert in_class - out_class == pytest.approx(0.5, abs=0.2)

    def test_diagonal_factors_when_density_zero(self):
        spec = SimSpec("dep-equal-cov", n=1500, p=20, K=2, block_size=5,
                       block_density=0.0, discriminative_fraction=0.0, seed=6)
        data, truth = gen_dependent(spec)
        st = dependent_structure(spec)
        for blocks in st.factors:
            for blk in blocks:
                assert np.allclose(blk, np.diag(np.diag(blk)))
        # independent features: off-diagonal sample correlation near zero
        c = np.corrcoef(data.X, rowvar=False)
        off = c[~np.eye(20, dtype=bool)]
        assert np.abs(off).max() < 0.12

    def test_empirical_covariance_matches_factors(self):
        spec = SimSpec("dep-equal-cov", n=5000, p=2000, K=4, block_size=400,
                       block_density=0.25, seed=3)
        data, truth = gen_dependent(spec)
        st = dependent_structure(spec)
        resid = data.X - truth.class_means[data.y - 1]
        rng = np.random.default_rng(2024)
        for _ in range(100):
            i, j = (int(v) for v in rng.integers(0, 2000, 2))
            emp = float(resid[:, i] @ resid[:, j]) / len(resid)
            true = st.covariance_entry(i, j)
            vi = st.covariance_entry(i, i)
            vj = st.covariance_entry(j, j)
            se = np.sqrt((vi * vj + true**2) / len(resid))
            assert abs(emp - true) <= 3.0 * se

    def test_unequal_covariance_sampled_per_class(self):
        spec = SimSpec("dep-unequal-cov", n=6000, p=30, K=3, block_size=10,
                       block_density=0.5, seed=3)
        data, truth = generate(spec)
        st = dependent_structure(spec)
        resid = data.X - truth.class_means[data.y - 1]
        for c in range(3):
            rows = resid[data.y == c + 1]
            emp = rows.T @ rows / len(rows)
            for i in range(30):
                for j in range(i, 30):
                    true = st.covariance_entry(i, j, c)
                    vi = st.covariance_entry(i, i, c)
                    vj = st.covariance_entry(j, j, c)
                    se = np.sqrt((vi * vj + true**2) / len(rows))
                    assert abs(emp[i, j] - true) <= 5.0 * se, (c, i, j)

    def test_generate_dispatches_dependent_scenarios(self):
        spec = SimSpec("dep-equal-cov", n=20, p=20, K=2, block_size=5, seed=4)
        (d1, t1), (d2, t2) = generate(spec), gen_dependent(spec)
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(t1.true_column, t2.true_column)

    def test_rejects_independent_scenario(self):
        with pytest.raises(ValidationError, match="not a dependent-feature scenario"):
            dependent_structure(SimSpec("ind-equal-var", n=10, p=10, K=2))

    def test_unequal_covariance_differs_per_class(self):
        spec = SimSpec("dep-unequal-cov", n=40, p=20, K=2, block_size=5, seed=1)
        st = dependent_structure(spec)
        assert not st.shared
        assert len(st.factors) == 2
        assert not np.allclose(st.factors[0][0], st.factors[1][0])


class TestGeneratorsMatchTheirExpressions:
    """The generators scale and shift their draws in place, one class's
    rows at a time; X stays bit for bit what the n x p expressions give."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("scenario", ["ind-equal-var", "ind-unequal-var"])
    def test_independent(self, scenario, seed):
        # n = 23 over K = 4 leaves uneven classes (6, 6, 6, 5); the shift
        # and scale are not powers of two, so every product rounds
        for n, p, k in ((23, 40, 4), (100, 300, 3)):
            spec = SimSpec(scenario, n=n, p=p, K=k, mean_shift=1.3, variance_scale=0.7,
                           discriminative_fraction=0.5, seed=seed)
            data, truth = gen_independent(spec)
            assert np.bincount(data.y).tolist()[1:] == simlab._class_allocation(n, k).tolist()
            assert data.X.tobytes() == independent_X(spec, truth, data.y).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("scenario", ["dep-equal-cov", "dep-unequal-cov"])
    def test_dependent(self, scenario, seed):
        spec = SimSpec(scenario, n=23, p=40, K=4, mean_shift=1.3, block_size=8,
                       discriminative_fraction=0.5, seed=seed)
        data, _ = gen_dependent(spec)
        assert data.X.tobytes() == dependent_X(spec, data.y).tobytes()


def _selection_error_by_masks(model, truth):
    """``selection_error`` with M x M refinement masks, one row per
    hypothesis: the reference for the rows built per true column."""
    columns = truth.columns
    m = len(columns)
    over = np.zeros((m, m), dtype=bool)
    for m0 in range(m):
        for mm in range(m):
            if mm != m0 and refines(columns[mm], columns[m0]):
                over[m0, mm] = True
    under = ~over & ~np.eye(m, dtype=bool)
    tc = truth.true_column
    p = len(tc)
    gamma0 = np.zeros((p, m))
    gamma0[np.arange(p), tc] = 1.0
    e_soft = float(np.abs(model.gamma - gamma0).sum())
    return SimReport(
        E=e_soft,
        E_O=2.0 * float((model.gamma * over[tc]).sum()),
        E_U=2.0 * float((model.gamma * under[tc]).sum()),
        norm_error=e_soft / (2.0 * p),
        error_over_m=e_soft / m,
        hard_rate=float(np.mean(np.argmax(model.gamma, axis=1) != tc)),
    )


class TestSelectionError:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_mask_reference(self, k, seed):
        spec = SimSpec("ind-equal-var", n=40, p=50, K=k, seed=seed, mean_shift=2.0)
        data, truth = gen_independent(spec)
        model = fit(data, penalty="aic")  # weight off the truth, on both sides
        assert selection_error(model, truth) == _selection_error_by_masks(model, truth)

    def test_refines_only_rows_of_true_columns(self):
        spec = SimSpec("ind-equal-var", n=40, p=50, K=6, seed=1, mean_shift=2.0)
        data, truth = gen_independent(spec)
        model = fit(data)
        with mock.patch.object(simlab, "refines", wraps=refines) as calls:
            selection_error(model, truth)
        u = len(np.unique(truth.true_column))
        assert 1 < u < model.M
        assert calls.call_count <= u * model.M

    def test_other_hypothesis_columns_refused(self):
        # a K=3 model against the truth of a K=2 set
        model = FakeModel(enumerate_exhaustive(3), np.full((4, 5), 0.2))
        with pytest.raises(ValidationError, match="^model hypothesis columns do not match "
                                                  "the truth assignment$"):
            selection_error(model, truth_for(enumerate_exhaustive(2), [0] * 4, 4))

    def test_exact_match_is_zero(self):
        cols = enumerate_exhaustive(3)
        gamma = np.zeros((4, 5))
        tc = [0, 2, 4, 1]
        gamma[np.arange(4), tc] = 1.0
        report = selection_error(FakeModel(cols, gamma), truth_for(cols, tc, 4))
        assert report.E == 0.0
        assert report.hard_rate == 0.0

    def test_two_hypothesis_arithmetic(self):
        cols = enumerate_exhaustive(2)
        # truth null: E = 2 * off-null mass
        r1 = selection_error(FakeModel(cols, [[0.7, 0.3]]), truth_for(cols, [0], 1))
        assert r1.E == pytest.approx(0.6)
        r2 = selection_error(FakeModel(cols, [[0.3, 0.7]]), truth_for(cols, [0], 1))
        assert r2.E == pytest.approx(1.4)
        assert r2.E_O == pytest.approx(1.4)  # all mass on a refinement of null
        assert r2.E_U == 0.0

    def test_uniform_rows(self):
        cols = enumerate_exhaustive(3)
        gamma = np.full((10, 5), 0.2)
        report = selection_error(FakeModel(cols, gamma), truth_for(cols, [0] * 10, 10))
        assert report.E == pytest.approx(10 * 2 * 0.8)
        assert report.norm_error == pytest.approx(16 / 20)
        assert report.error_over_m == pytest.approx(16 / 5)

    def test_overfit_underfit_split(self):
        cols = enumerate_exhaustive(3)  # 111,112,121,122,123
        # truth column 1 = (1,1,2); refinement among non-equal: only 123
        gamma = np.array([[0.1, 0.5, 0.2, 0.1, 0.1]])
        report = selection_error(FakeModel(cols, gamma), truth_for(cols, [1], 1))
        assert report.E_O == pytest.approx(2 * 0.1)
        assert report.E_U == pytest.approx(2 * (0.1 + 0.2 + 0.1))
        assert report.E == pytest.approx(report.E_O + report.E_U, abs=1e-9)

    def test_decomposition_identity_on_fitted_models(self):
        spec = SimSpec("ind-equal-var", n=60, p=80, K=3, seed=13, mean_shift=2.0)
        data, truth = gen_independent(spec)
        for pen in ("bic", "ebic", "aic"):
            model = fit(data, penalty=pen)
            r = selection_error(model, truth)
            assert r.E == pytest.approx(r.E_O + r.E_U, abs=1e-9)
            assert 0.0 <= r.hard_rate <= 1.0

    def test_peak_is_one_scratch_besides_gamma(self):
        # one p x M float scratch and a p x M bool mask, both under gamma's size
        data, truth = gen_independent(SimSpec("ind-equal-var", n=60, p=3000, K=6, seed=1,
                                              mean_shift=2.0))
        model = fit(data)
        gamma = model.gamma  # derived on read, so read before tracing
        tracemalloc.start()
        try:
            selection_error(model, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * gamma.nbytes

    def test_dimension_mismatch(self):
        cols = enumerate_exhaustive(3)
        with pytest.raises(ValidationError,
                           match=r"model gamma is \(2, 5\), truth needs \(3, 5\)"):
            selection_error(FakeModel(cols, np.full((2, 5), 0.2)),
                            truth_for(cols, [0] * 3, 3))


class TestConsistencySweep:
    def test_rows_and_determinism(self):
        rows = consistency_sweep([30, 60], p=50, k=3, replicates=2, seed=5)
        assert len(rows) == 4
        again = consistency_sweep([30, 60], p=50, k=3, replicates=2, seed=5)
        assert [r["E"] for r in rows] == [r["E"] for r in again]
        assert {r["n"] for r in rows} == {30, 60}

    def test_draws_ind_equal_var_at_shift_2(self):
        def scores(**shift):
            rows = consistency_sweep([30], p=40, k=3, replicates=2, seed=5, **shift)
            return [{k: v for k, v in r.items() if k != "fit_seconds"} for r in rows]

        default = scores()
        assert default == scores(mean_shift=2.0)
        assert default != scores(mean_shift=0.5)
        seed = int(np.random.default_rng([5, 30, 0]).integers(2**32))
        data, truth = generate(SimSpec("ind-equal-var", n=30, p=40, K=3,
                                       mean_shift=2.0, seed=seed))
        assert default[0]["E"] == selection_error(fit(data), truth).E

    def test_columns_in_csv_order(self):
        (row,) = consistency_sweep([30], p=20, k=2, replicates=1, seed=5)
        assert list(row) == ["n", "p", "K", "replicate", "E", "E_O", "E_U",
                             "norm_error", "error_over_m", "hard_rate", "fit_seconds"]
        assert isinstance(row["fit_seconds"], float)

    @pytest.mark.parametrize("setting, message", [
        ({"prior_term_mode": "bogus"}, "unknown prior term mode 'bogus'"),
    ])
    def test_fit_settings_reach_the_fit(self, setting, message):
        with pytest.raises(ValidationError, match=message):
            consistency_sweep([30], p=20, k=3, replicates=1, seed=5, **setting)

    @pytest.mark.parametrize("n_values, seed, message", [
        ([30], -1, "seed must be a non-negative integer, got -1"),
        ([-5], 1, "need n >= K"),
        ([30, 2], 1, "need n >= K.*got n=2"),
    ], ids=["seed", "negative-n", "last-n-below-K"])
    def test_bad_seed_or_grid_refused_before_any_draw(self, n_values, seed, message):
        with mock.patch.object(simlab, "generate") as draws, \
                pytest.raises(ValidationError, match=message):
            consistency_sweep(n_values, p=20, k=3, replicates=1, seed=seed)
        assert draws.call_count == 0

    @pytest.mark.parametrize("n_values, replicates", [([], 2), ([30], 0)])
    def test_empty_sweep_rejected(self, n_values, replicates):
        with pytest.raises(ValidationError):
            consistency_sweep(n_values, p=20, k=2, replicates=replicates)


class TestCrossValidate:
    def _separated(self, n=100, p=5):
        rng = np.random.default_rng(0)
        y = np.repeat([1, 2], n // 2)
        X = rng.normal(size=(n, p)) + np.where(y == 1, -10.0, 10.0)[:, None]
        return Dataset.from_arrays(X, [str(v) for v in y])

    def test_separated_data_near_zero_error(self):
        cv = cross_validate(self._separated(), folds=5, trials=3, seed=1)
        assert cv.mean <= 0.02

    def test_chance_level_when_labels_independent(self):
        # p large enough that EBIC suppresses every noise feature; with a
        # handful of features the tiny surviving noise weights anti-learn
        # on fixed-data CV splits and drift above 0.5
        rng = np.random.default_rng(42)
        X = rng.normal(size=(100, 50))
        y = ["a", "b"] * 50
        cv = cross_validate(Dataset.from_arrays(X, y), folds=5, trials=5, seed=2)
        assert 0.4 <= cv.mean <= 0.6

    def test_same_seed_identical_tables(self):
        data = self._separated(60)
        a = cross_validate(data, folds=3, trials=2, seed=9)
        b = cross_validate(data, folds=3, trials=2, seed=9)
        assert a.rows == b.rows
        assert a.mean == b.mean

    def test_row_count_and_stratification(self):
        data = self._separated(60)
        cv = cross_validate(data, folds=5, trials=4, seed=3)
        assert len(cv.rows) == 20
        assert len(cv.per_trial) == 4
        # stratified folds of a balanced dataset stay balanced
        sizes = {r.n_test for r in cv.rows}
        assert sizes == {12}

    def test_class_smaller_than_folds(self):
        X = np.random.default_rng(0).normal(size=(12, 2))
        data = Dataset.from_arrays(X, ["a"] * 9 + ["b"] * 3)
        with pytest.raises(ValidationError, match="fewer than 5 folds"):
            cross_validate(data, folds=5, trials=1, seed=0)

    def test_fold_validation(self):
        with pytest.raises(ValidationError):
            cross_validate(self._separated(20), folds=1, trials=1, seed=0)
        with pytest.raises(ValidationError, match="need at least 1 trial"):
            cross_validate(self._separated(20), folds=2, trials=0, seed=0)

    @pytest.mark.parametrize("option, message", [
        ({"penalty": "bogus"}, "unknown penalty 'bogus'"),
        ({"threads": -1}, "threads must be >= 0"),
    ], ids=["penalty", "threads"])
    def test_fit_options_checked_first(self, option, message):
        # before the fold count, the partition set or any class mean
        with mock.patch.object(estimator, "build_partition_set") as build:
            with pytest.raises(ValidationError, match=message):
                cross_validate(self._separated(20), folds=1, trials=1, seed=0, **option)
        assert not build.called

    @pytest.mark.parametrize("seed", [-1, 0.5])
    def test_bad_seed_refused(self, seed):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            cross_validate(self._separated(20), folds=2, trials=1, seed=seed)

    def test_every_fold_calls_the_estimator_names(self):
        # a tracer wraps estimator.accumulate_stats and estimator.predict
        # under those names, so every fold must look them up there
        folds, trials = 4, 3
        with mock.patch.object(estimator, "accumulate_stats",
                               wraps=estimator.accumulate_stats) as stats, \
                mock.patch.object(estimator, "predict", wraps=estimator.predict) as pred:
            multida.cross_validate(self._separated(40), folds=folds, trials=trials, seed=0)
        assert stats.call_count == folds * trials
        assert pred.call_count == folds * trials
        assert simlab.cross_validate is estimator.cross_validate
        assert simlab.predict is estimator.predict

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("scheme", ["exhaustive", "onevsrest"])
    @pytest.mark.parametrize("variance_mode", ["equal", "unequal"])
    def test_rows_match_refit_reference(self, variance_mode, scheme, offset):
        data, _ = gen_independent(SimSpec("ind-unequal-var", n=62, p=40, K=3, seed=4))
        data = Dataset.from_arrays(data.X + offset,
                                   [data.class_labels[c - 1] for c in data.y])
        options = dict(scheme=scheme, variance_mode=variance_mode, penalty="bic")
        cv = cross_validate(data, folds=5, trials=3, seed=8, **options)
        want = refit_cross_validate(data, 5, 3, seed=8, **options)
        assert [(r.n_test, r.n_wrong) for r in cv.rows] == want
        assert any(n_wrong for _, n_wrong in want)  # not trivially all right

    @pytest.mark.parametrize("folds", [2, 5])
    def test_fold_statistics_match_training_rows(self, folds):
        # far from zero too: fold statistics merged about their own rounded
        # means put m2 off by 8.9e-5 relative at an offset of 1e12
        drawn, _ = gen_independent(SimSpec("ind-unequal-var", n=53, p=30, K=4, seed=6))
        for offset in (50.0, 1e8, 1e12, -1e12):
            data = Dataset.from_arrays(drawn.X * 3.0 + offset,
                                       [drawn.class_labels[c - 1] for c in drawn.y])
            centre = np.array([data.X[data.y == k].mean(axis=0) for k in range(1, 5)])
            test_sets = _stratified_folds(data.y, folds, np.random.default_rng(1))
            for test_idx, (test, train) in zip(test_sets, _cv_folds(data, test_sets, centre)):
                assert np.array_equal(test.X, data.X[test_idx])
                want = accumulate_stats(
                    data.subset(np.setdiff1d(np.arange(data.n), test_idx)))
                assert train.n == want.n
                assert np.array_equal(train.n_k, want.n_k)
                assert train.class_labels == want.class_labels
                np.testing.assert_allclose(train.mean, want.mean, rtol=1e-12, atol=0,
                                           err_msg=str(offset))
                np.testing.assert_allclose(train.m2, want.m2, rtol=1e-12, atol=0,
                                           err_msg=str(offset))

    def test_training_set_checks(self):
        # 2 folds of 2 samples per class leave 3 training rows for K = 3
        X = np.random.default_rng(0).normal(size=(6, 2))
        data = Dataset.from_arrays(X, ["a", "b", "c"] * 2)
        with pytest.raises(ValidationError, match="K\\+1"):
            cross_validate(data, folds=2, trials=1, seed=0)
        with pytest.raises(ValidationError, match="prior term mode"):
            cross_validate(self._separated(20), folds=2, trials=1,
                           prior_term_mode="bogus")

    def test_degenerate_qda_folds_warn(self):
        # each training set holds one "b" row, so no split is admissible
        X = np.random.default_rng(0).normal(size=(8, 2))
        data = Dataset.from_arrays(X, ["a"] * 6 + ["b"] * 2)
        with pytest.warns(UserWarning, match="null-only"):
            cross_validate(data, folds=2, trials=1, variance_mode="unequal")

    def test_overflowing_statistics_raise(self):
        data = self._separated(40)
        X = data.X.copy()
        X[:, 2] *= 1e200
        with pytest.raises(NumericError, match="'x3'"):
            cross_validate(Dataset.from_arrays(X, data.y), folds=4, trials=1)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_imports_another_modules_private_names():
    """No package module imports a ``_`` name from another, or reads one
    off a module it imported with ``from . import``."""
    package = Path(multida.__file__).parent
    breaches = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
                   for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("multida")):
                breaches += [f"{path.name}:{node.lineno} imports {a.name}"
                             for a in node.names if _private(a.name)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and _private(node.attr)):
                breaches.append(f"{path.name}:{node.lineno} reads "
                                f"{node.value.id}.{node.attr}")
    assert breaches == []
