import numpy as np
import pytest

from conftest import rel_err
from gpdistill.gpr import Dataset, fit_gpr, predict_gpr
from gpdistill.gpr_distill import (
    DistillSchedule,
    data_centric_predict,
    data_centric_targets_fast,
    data_centric_targets_naive,
    data_centric_train_cov,
    distribution_centric_closed_form,
    distribution_centric_recursive,
    effective_noise,
    fit_replicated,
)
from gpdistill.kernels import KernelParams, gram, spectral_decompose


def random_instance(rng, n=None, d=1):
    n = n or int(rng.integers(4, 12))
    xs = rng.uniform(-3, 3, size=(n, d))
    ys = rng.normal(size=n)
    params = KernelParams(
        signal_variance=float(rng.uniform(0.5, 2.0)),
        length_scale=float(rng.uniform(0.5, 2.0)),
    )
    return Dataset(xs, ys), params


class TestDistillSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            DistillSchedule(gammas=())
        with pytest.raises(ValueError):
            DistillSchedule(gammas=(0.1, 0.0))
        with pytest.raises(ValueError):
            DistillSchedule(gammas=(0.1,), mix_alpha=1.0)
        with pytest.raises(ValueError):
            DistillSchedule(gammas=(0.1,), mix_alpha=0.0)
        assert len(DistillSchedule(gammas=(0.1, 0.2))) == 2


class TestEffectiveNoise:
    def test_ten_step_ramp(self):
        sched = DistillSchedule(gammas=tuple(np.linspace(0.1, 1.0, 10)))
        assert effective_noise(sched, 1).effective == pytest.approx(0.1, rel=1e-12)
        # sum of reciprocals of 0.1..1.0 gives 0.0341417...
        assert effective_noise(sched, 10).effective == pytest.approx(0.034141715214740555, rel=1e-12)
        assert abs(effective_noise(sched, 10).effective - 0.034) < 1e-3

    def test_constant_schedule(self):
        sched = DistillSchedule(gammas=(0.7,) * 8)
        for t in range(1, 9):
            assert effective_noise(sched, t).gamma_minus == pytest.approx(t / 0.7, rel=1e-12)

    def test_single_step(self):
        assert effective_noise(DistillSchedule(gammas=(2.0,)), 1).effective == pytest.approx(2.0)

    def test_reciprocal_invariant(self, rng):
        sched = DistillSchedule(gammas=tuple(rng.uniform(1e-3, 10, size=6)))
        for t in range(1, 7):
            e = effective_noise(sched, t)
            assert abs(e.effective * e.gamma_minus - 1.0) < 1e-12

    def test_out_of_range(self):
        sched = DistillSchedule(gammas=(0.5,))
        with pytest.raises(ValueError):
            effective_noise(sched, 2)
        with pytest.raises(ValueError):
            effective_noise(sched, 0)

    def test_strictly_decreasing_in_steps(self, rng):
        sched = DistillSchedule(gammas=tuple(rng.uniform(0.05, 5, size=10)))
        effs = [effective_noise(sched, t).effective for t in range(1, 11)]
        assert np.all(np.diff(effs) < 0)


class TestDataCentric:
    def test_single_step_is_ordinary_fit(self, rng):
        data, params = random_instance(rng)
        sched = DistillSchedule(gammas=(0.3,))
        targets = data_centric_targets_naive(data, params, sched)
        model = fit_gpr(data, params, noise=0.3)
        mean, _ = predict_gpr(model, data.xs)
        assert rel_err(targets[0], mean) < 1e-10

    def test_total_shrinkage_for_huge_noise(self, rng):
        data, params = random_instance(rng)
        sched = DistillSchedule(gammas=(1e9, 1e9, 1e9))
        targets = data_centric_targets_naive(data, params, sched)
        assert np.max(np.abs(targets[-1])) < 1e-20

    def test_naive_matches_fast(self, rng):
        data, params = random_instance(rng, n=6)
        sched = DistillSchedule(gammas=tuple(rng.uniform(1e-3, 10, size=4)))
        naive = data_centric_targets_naive(data, params, sched)
        decomp = spectral_decompose(gram(data.xs, params))
        fast = data_centric_targets_fast(decomp, data.ys, sched)
        assert rel_err(naive[-1], fast) < 1e-10

    def test_fast_identity_gram_halves_each_step(self):
        decomp = spectral_decompose(np.eye(5))
        y = np.arange(1.0, 6.0)
        for t in range(1, 4):
            sched = DistillSchedule(gammas=(1.0,) * t)
            out = data_centric_targets_fast(decomp, y, sched)
            np.testing.assert_allclose(out, y / 2.0**t, rtol=1e-14)

    def test_fast_zero_steps_returns_targets(self, rng):
        decomp = spectral_decompose(np.eye(4))
        y = rng.normal(size=4)
        out = data_centric_targets_fast(decomp, y, DistillSchedule(gammas=(0.5,)), steps=0)
        np.testing.assert_array_equal(out, y)

    def test_fast_ten_step_toy_matches_naive(self, rng):
        xs = np.linspace(0, 10, 10)
        data = Dataset(xs, xs * np.sin(xs) + rng.standard_normal(10))
        params = KernelParams(signal_variance=4.0, length_scale=1.5)
        sched = DistillSchedule(gammas=tuple(np.linspace(0.1, 1.0, 10)))
        naive = data_centric_targets_naive(data, params, sched)
        decomp = spectral_decompose(gram(xs, params))
        for t in range(1, 11):
            fast = data_centric_targets_fast(decomp, data.ys, sched, steps=t)
            assert rel_err(naive[t - 1], fast) < 1e-10

    def test_fast_rejects_mixing(self):
        decomp = spectral_decompose(np.eye(3))
        sched = DistillSchedule(gammas=(0.5,), mix_alpha=0.3)
        with pytest.raises(ValueError, match="mix_alpha"):
            data_centric_targets_fast(decomp, np.zeros(3), sched)

    def test_mixed_targets_follow_definition(self, rng):
        # oracle: literal dense iteration of the alpha-weighted refit
        data, params = random_instance(rng, n=5)
        alpha = 0.35
        gammas = (0.4, 0.9, 0.2)
        sched = DistillSchedule(gammas=gammas, mix_alpha=alpha)
        got = data_centric_targets_naive(data, params, sched)
        K = gram(data.xs, params)
        y_prev = data.ys
        for t, g in enumerate(gammas):
            train = alpha * data.ys + (1 - alpha) * y_prev
            y_prev = K @ np.linalg.solve(K + g * np.eye(5), train)
            assert rel_err(got[t], y_prev) < 1e-12

    def test_eigenbasis_coefficients_shrink(self, rng):
        data, params = random_instance(rng, n=8)
        sched = DistillSchedule(gammas=tuple(rng.uniform(0.05, 5, size=6)))
        decomp = spectral_decompose(gram(data.xs, params))
        naive = data_centric_targets_naive(data, params, sched)
        prev = np.abs(decomp.eigenvectors.T @ data.ys)
        for y_t in naive:
            cur = np.abs(decomp.eigenvectors.T @ y_t)
            assert np.all(cur <= prev + 1e-12)
            prev = cur


class TestDataCentricPredict:
    def test_first_step_equals_ordinary_prediction(self, rng):
        data, params = random_instance(rng)
        sched = DistillSchedule(gammas=(0.6, 0.3))
        test_xs = rng.uniform(-3, 3, size=(5, 1))
        mean, cov = data_centric_predict(data, params, sched, test_xs, step=1)
        model = fit_gpr(data, params, noise=0.6)
        mean_o, cov_o = predict_gpr(model, test_xs)
        assert rel_err(mean, mean_o) < 1e-12
        assert rel_err(cov, cov_o) < 1e-12

    def test_predicting_at_train_returns_targets(self, rng):
        data, params = random_instance(rng)
        sched = DistillSchedule(gammas=tuple(rng.uniform(0.1, 2, size=4)))
        targets = data_centric_targets_naive(data, params, sched)
        for t in range(1, 5):
            mean, _ = data_centric_predict(data, params, sched, data.xs, step=t)
            assert rel_err(mean, targets[t - 1]) < 1e-10

    def test_matches_refit_oracle(self, rng):
        # refitting an ordinary model on (xs, y_{t-1}) with noise gamma_t is the oracle
        data, params = random_instance(rng, n=7)
        sched = DistillSchedule(gammas=(0.5, 1.2, 0.8))
        test_xs = rng.uniform(-3, 3, size=(6, 1))
        targets = data_centric_targets_naive(data, params, sched)
        t = 3
        mean, cov = data_centric_predict(data, params, sched, test_xs, step=t)
        refit = fit_gpr(Dataset(data.xs, targets[t - 2]), params, noise=sched.gammas[t - 1])
        mean_o, cov_o = predict_gpr(refit, test_xs)
        assert rel_err(mean, mean_o) < 1e-10
        assert rel_err(cov, cov_o) < 1e-10

    def test_step_covariance_ignores_earlier_gammas(self, rng):
        data, params = random_instance(rng)
        gammas = [0.3, 0.9, 0.5, 1.4]
        test_xs = rng.uniform(-3, 3, size=(4, 1))
        _, cov1 = data_centric_predict(data, params, DistillSchedule(gammas=tuple(gammas)), test_xs)
        permuted = tuple(gammas[:3][::-1]) + (gammas[3],)
        _, cov2 = data_centric_predict(data, params, DistillSchedule(gammas=permuted), test_xs)
        np.testing.assert_allclose(cov1, cov2, atol=1e-12)

    def test_train_cov_formula(self, rng):
        data, params = random_instance(rng, n=6)
        K = gram(data.xs, params)
        decomp = spectral_decompose(K)
        g = 0.7
        expected = K - K @ np.linalg.solve(K + g * np.eye(6), K)
        np.testing.assert_allclose(data_centric_train_cov(decomp, g), expected, atol=1e-10)

    def test_step_bounds(self, rng):
        data, params = random_instance(rng)
        sched = DistillSchedule(gammas=(0.5,))
        with pytest.raises(ValueError):
            data_centric_predict(data, params, sched, data.xs, step=0)
        with pytest.raises(ValueError):
            data_centric_predict(data, params, sched, data.xs, step=2)


class TestDistributionCentric:
    def test_single_step_is_ordinary_posterior(self, rng):
        data, params = random_instance(rng)
        sched = DistillSchedule(gammas=(0.4, 0.8))
        test_xs = rng.uniform(-3, 3, size=(5, 1))
        gp = distribution_centric_recursive(data, params, sched, 1)[0]
        model = fit_gpr(data, params, noise=0.4)
        mean_o, cov_o = predict_gpr(model, test_xs)
        assert rel_err(gp.mean(test_xs), mean_o) < 1e-12
        assert rel_err(gp.cov(test_xs), cov_o) < 1e-10

    def test_recursion_matches_closed_form(self, rng):
        data, params = random_instance(rng, n=6)
        sched = DistillSchedule(gammas=tuple(rng.uniform(1e-3, 10, size=3)))
        test_xs = rng.uniform(-3, 3, size=(4, 1))
        gp = distribution_centric_recursive(data, params, sched, 3)[-1]
        mean_cf, cov_cf = distribution_centric_closed_form(data, params, sched, 3, test_xs)
        assert rel_err(gp.mean(test_xs), mean_cf) < 1e-10
        assert rel_err(gp.cov(test_xs), cov_cf) < 1e-10

    def test_small_gamma_chain_matches_closed_form(self):
        # ten steps of gamma = 1e-3 pool to noise 1e-4; the recursion's covariance
        # must not accumulate cancellation on the way
        rng = np.random.default_rng(7)
        xs = rng.uniform(-3, 3, (30, 1))
        ys = rng.normal(size=30)
        test_xs = rng.uniform(-3, 3, (10, 1))
        data, params = Dataset(xs, ys), KernelParams(signal_variance=1.0, length_scale=1.0)
        sched = DistillSchedule(gammas=(1e-3,) * 10)
        gp = distribution_centric_recursive(data, params, sched, 10)[-1]
        mean_cf, cov_cf = distribution_centric_closed_form(data, params, sched, 10, test_xs)
        assert rel_err(gp.mean(test_xs), mean_cf) < 1e-9
        assert rel_err(gp.cov(test_xs), cov_cf) < 1e-9

    def test_gram_eigenvalues_follow_pooled_shrinkage(self, rng):
        # after t steps the Gram spectrum is lambda / (lambda * gamma_minus + 1)
        data, params = random_instance(rng, n=7)
        sched = DistillSchedule(gammas=(0.5, 1.5, 0.9))
        lam0 = np.sort(np.linalg.eigvalsh(gram(data.xs, params)))
        steps = distribution_centric_recursive(data, params, sched, 3)
        for t, gp in enumerate(steps, start=1):
            gm = effective_noise(sched, t).gamma_minus
            lam_t = np.sort(np.linalg.eigvalsh(gp.cov(data.xs)))
            np.testing.assert_allclose(lam_t, lam0 / (lam0 * gm + 1.0), atol=1e-10)

    def test_evaluation_cost_independent_of_depth(self, rng, evaluation_cost):
        data, params = random_instance(rng, n=8)
        sched = DistillSchedule(gammas=tuple(rng.uniform(0.1, 2.0, size=10)))
        steps = distribution_centric_recursive(data, params, sched, 10)
        test_xs = rng.uniform(-3, 3, size=(25, 1))
        first = evaluation_cost(steps[0], test_xs)
        assert first["calls"] > 0
        assert evaluation_cost(steps[9], test_xs) == first

    def test_closed_form_single_step(self, rng):
        data, params = random_instance(rng)
        sched = DistillSchedule(gammas=(0.7,))
        test_xs = rng.uniform(-3, 3, size=(3, 1))
        mean, cov = distribution_centric_closed_form(data, params, sched, 1, test_xs)
        model = fit_gpr(data, params, noise=0.7)
        mean_o, cov_o = predict_gpr(model, test_xs)
        assert rel_err(mean, mean_o) < 1e-12
        assert rel_err(cov, cov_o) < 1e-12

    def test_constant_schedule_pools_to_gamma_over_t(self, rng):
        data, params = random_instance(rng)
        g, t = 0.9, 5
        sched = DistillSchedule(gammas=(g,) * t)
        test_xs = rng.uniform(-3, 3, size=(4, 1))
        mean, cov = distribution_centric_closed_form(data, params, sched, t, test_xs)
        model = fit_gpr(data, params, noise=g / t)
        mean_o, cov_o = predict_gpr(model, test_xs)
        assert rel_err(mean, mean_o) < 1e-12
        assert rel_err(cov, cov_o) < 1e-12

    def test_training_mean_approaches_targets(self, rng):
        # pooled noise shrinks with steps, so the fit tightens onto y; this
        # holds for any schedule, not just constant ones
        for gammas in ((0.8,) * 8, tuple(rng.uniform(0.05, 5.0, size=8))):
            data, params = random_instance(rng, n=9)
            sched = DistillSchedule(gammas=gammas)
            gaps = []
            for t in range(1, 9):
                mean, _ = distribution_centric_closed_form(data, params, sched, t, data.xs)
                gaps.append(np.linalg.norm(mean - data.ys))
            assert np.all(np.diff(gaps) <= 1e-12)


class TestReplication:
    def test_single_copy_is_ordinary_fit(self, rng):
        data, params = random_instance(rng, n=5)
        rep = fit_replicated(data, params, noise=0.5, replications=1)
        model = fit_gpr(data, params, noise=0.5)
        mean, _ = predict_gpr(model, data.xs)
        assert rel_err(rep.mean_blocks[0], mean) < 1e-10

    def test_two_copies_match_halved_noise(self, rng):
        data, params = random_instance(rng, n=4)
        g = 0.6
        rep = fit_replicated(data, params, noise=g, replications=2)
        K = gram(data.xs, params)
        expected = K @ np.linalg.solve(K + g / 2 * np.eye(4), data.ys)
        for block in rep.mean_blocks:
            assert rel_err(block, expected) < 1e-8

    def test_covariance_blocks_all_equal_target_form(self, rng):
        data, params = random_instance(rng, n=4)
        g, t = 0.8, 3
        rep = fit_replicated(data, params, noise=g, replications=t)
        K = gram(data.xs, params)
        expected = K - K @ np.linalg.solve(K + g / t * np.eye(4), K)
        for i in range(t):
            for j in range(t):
                np.testing.assert_allclose(rep.cov_blocks[i, j], expected, atol=1e-8)

    def test_test_point_predictions_match_single_fit(self, rng):
        data, params = random_instance(rng, n=5)
        g, t = 1.1, 3
        test_xs = rng.uniform(-3, 3, size=(4, 1))
        rep = fit_replicated(data, params, noise=g, replications=t, test_xs=test_xs)
        model = fit_gpr(data, params, noise=g / t)
        mean_o, cov_o = predict_gpr(model, test_xs)
        assert rel_err(rep.test_mean, mean_o) < 1e-8
        assert rel_err(rep.test_cov, cov_o) < 1e-7

    def test_row_cap(self, rng):
        data, params = random_instance(rng, n=8)
        with pytest.raises(ValueError, match="cap"):
            fit_replicated(data, params, noise=0.5, replications=300)
