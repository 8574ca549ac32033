import numpy as np
import pytest
from scipy.special import expit

import gpdistill.gpc_distill as gpc_distill
import gpdistill.laplace as laplace
from conftest import assert_same_outcome, rel_err
from gpdistill.cont_bernoulli import cb_terms
from gpdistill.counters import counted
from gpdistill.gpc_distill import (
    GpcDistillConfig,
    approximation_error,
    data_centric_gpc,
    distribution_centric_gpc_iterated,
    distribution_centric_gpc_scaled,
    fit_replicated_gpc,
    posterior_proba,
)
from gpdistill.kernels import KernelParams, gram, kernel_matrix
from gpdistill.laplace import (
    BERNOULLI,
    CONTINUOUS_BERNOULLI,
    BinaryDataset,
    NewtonDidNotConverge,
    gpc_posterior,
    gpc_predict_latent,
    laplace_marginal_loglik,
    laplace_mode,
)


def binary_instance(rng, n=8):
    xs = np.linspace(0, n - 1, n) + rng.uniform(-0.2, 0.2, size=n)
    ys = (rng.uniform(size=n) < 0.5).astype(float)
    params = KernelParams(
        signal_variance=float(rng.uniform(0.5, 1.8)),
        length_scale=float(rng.uniform(0.6, 1.5)),
    )
    return BinaryDataset(xs, ys), params


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GpcDistillConfig(steps=0)
        with pytest.raises(ValueError):
            GpcDistillConfig(steps=1, target_kind="argmax")
        with pytest.raises(ValueError):
            GpcDistillConfig(steps=2, reg_gammas=(0.1,))
        with pytest.raises(ValueError):
            GpcDistillConfig(steps=1, reg_gammas=(-0.5,))


class TestDataCentric:
    def test_single_step_is_ordinary_fit(self, rng):
        data, params = binary_instance(rng)
        chain = data_centric_gpc(data, params, GpcDistillConfig(steps=1))
        K = gram(data.xs, params, add_jitter=True)
        direct = laplace_mode(data.ys, K)
        np.testing.assert_allclose(chain[0].fit.f_hat, direct.f_hat, atol=1e-12)
        assert chain[0].fit.likelihood == BERNOULLI

    def test_later_steps_use_continuous_likelihood(self, rng):
        data, params = binary_instance(rng)
        chain = data_centric_gpc(data, params, GpcDistillConfig(steps=3))
        assert [s.fit.likelihood for s in chain] == [
            BERNOULLI, CONTINUOUS_BERNOULLI, CONTINUOUS_BERNOULLI,
        ]

    def test_centered_targets_give_zero_mode(self):
        # the distilled-step fixed point at targets 1/2 is the zero latent
        K = gram(np.linspace(0, 4, 5), KernelParams(1.0, 1.0), add_jitter=True)
        fit = laplace_mode(np.full(5, 0.5), K, likelihood=CONTINUOUS_BERNOULLI)
        np.testing.assert_allclose(fit.f_hat, 0.0, atol=1e-12)

    def test_requires_binary_start(self, rng):
        data, params = binary_instance(rng)
        soft = BinaryDataset(data.xs, np.clip(data.ys, 0.2, 0.8))
        with pytest.raises(ValueError, match="binary"):
            data_centric_gpc(soft, params, GpcDistillConfig(steps=2))

    def test_target_kinds(self, rng):
        data, params = binary_instance(rng)
        for kind in ("soft_mean", "latent_sigmoid", "hard_threshold"):
            chain = data_centric_gpc(data, params, GpcDistillConfig(steps=2, target_kind=kind))
            pred = chain[0].predicted
            assert np.all((pred >= 0) & (pred <= 1))
            if kind == "hard_threshold":
                assert set(np.unique(pred)) <= {0.0, 1.0}
                np.testing.assert_array_equal(pred, (chain[0].fit.f_hat >= 0).astype(float))
            if kind == "latent_sigmoid":
                np.testing.assert_allclose(pred, expit(chain[0].fit.f_hat), atol=1e-12)
            # step 2 is the continuous-Bernoulli fit to step 1's predictions
            K = gram(data.xs, params, add_jitter=True)
            assert_same_outcome(chain[1].fit,
                                laplace_mode(pred, K, likelihood=CONTINUOUS_BERNOULLI))

    def test_reg_gamma_enters_gram_diagonal(self, rng):
        data, params = binary_instance(rng)
        chain = data_centric_gpc(
            data, params, GpcDistillConfig(steps=2, reg_gammas=(0.0, 0.3))
        )
        K = gram(data.xs, params, add_jitter=True)
        direct = laplace_mode(
            chain[0].predicted, K + 0.3 * np.eye(data.n), likelihood=CONTINUOUS_BERNOULLI
        )
        np.testing.assert_allclose(chain[1].fit.f_hat, direct.f_hat, atol=1e-12)

    def test_nonconvergence_identifies_step(self, rng, monkeypatch):
        data, params = binary_instance(rng)
        real_mode = gpc_distill.laplace_mode

        def starved(*args, **kwargs):
            return real_mode(*args, **kwargs, max_iters=1, step_tol=1e-16, grad_tol=1e-16)

        monkeypatch.setattr(gpc_distill, "laplace_mode", starved)
        with pytest.raises(NewtonDidNotConverge, match="step 1 of 2"):
            data_centric_gpc(data, params, GpcDistillConfig(steps=2))

    def test_scalar_mode_oracle_for_distilled_step(self):
        # N=1, K=[[1]], continuous target 0.8: dense grid search over the
        # distilled-step log posterior locates the same mode
        y = 0.8
        grid = np.linspace(-3, 3, 200001)
        t = cb_terms(grid)
        psi = y * grid - np.logaddexp(0.0, grid) + t.log_c - 0.5 * grid**2
        oracle = grid[np.argmax(psi)]
        fit = laplace_mode(np.array([y]), np.array([[1.0]]), likelihood=CONTINUOUS_BERNOULLI)
        assert fit.f_hat[0] == pytest.approx(oracle, abs=1e-5)


class TestCbReduction:
    def test_newton_trajectory_matches_zeroed_normalizer_oracle(self, rng, monkeypatch):
        # hand-rolled stabilized Newton with the normalizer terms dropped has
        # to walk exactly the trajectory of the plain-likelihood fit
        data, params = binary_instance(rng)
        cont = np.clip(rng.uniform(0.1, 0.9, size=data.n), 0, 1)
        K = gram(data.xs, params, add_jitter=True)
        real_parts = laplace._loglik_parts
        path = []

        def recording(f, y, likelihood):  # f is the (cells, N) stack, here one cell
            path.append(f.reshape(-1).copy())
            return real_parts(f, y, likelihood)

        monkeypatch.setattr(laplace, "_loglik_parts", recording)
        fit = laplace_mode(cont, K, likelihood=BERNOULLI)
        # the start and one point per iteration: no step was halved
        assert len(path) == fit.iterations + 1
        f = np.zeros(data.n)
        for recorded in path[1:]:
            sig = expit(f)
            w = sig * (1 - sig)
            f = np.linalg.solve(np.eye(data.n) + K * w[None, :], K @ (w * f + cont - sig))
            np.testing.assert_allclose(recorded, f, atol=1e-12)

    def test_marginal_with_zeroed_normalizer_is_plain_marginal(self, rng):
        data, params = binary_instance(rng)
        cont = rng.uniform(0.1, 0.9, size=data.n)
        K = gram(data.xs, params, add_jitter=True)
        fit = laplace_mode(cont, K, likelihood=BERNOULLI)
        got = laplace_marginal_loglik(fit, K, cont)
        # same artifacts pushed through the distilled-likelihood formula with
        # log C, its gradient, and its curvature all set to zero
        f = fit.f_hat
        quad = float(fit.alpha_weights @ f)
        sw = np.sqrt(fit.w_diag)
        B = np.eye(data.n) + sw[:, None] * K * sw[None, :]
        logdet = float(np.linalg.slogdet(B)[1])
        manual = float(cont @ f - np.sum(np.logaddexp(0.0, f))) - 0.5 * quad - 0.5 * logdet
        assert got == pytest.approx(manual, abs=1e-10)

    def test_cb_marginal_one_point_quadrature_oracle(self):
        from test_laplace import TestMarginalLoglik

        y = 0.7
        K = np.array([[1.0]])
        fit = laplace_mode(np.array([y]), K, likelihood=CONTINUOUS_BERNOULLI)
        got = laplace_marginal_loglik(fit, K, np.array([y]))
        oracle = TestMarginalLoglik.quadrature_log_evidence(y, 1.0, CONTINUOUS_BERNOULLI)
        assert got == pytest.approx(oracle, abs=0.05)


def dense_two_step_reference(data, params, test_xs):
    """Two iterated steps computed with explicit inverses on materialized grids."""
    X = data.xs
    n = data.n

    def newton(y, K, m):
        f = m.copy()
        for _ in range(200):
            sig = expit(f)
            w = sig * (1 - sig)
            f_new = np.linalg.solve(
                np.eye(len(y)) + K * w[None, :], K @ (w * f + y - sig) + m
            )
            if np.max(np.abs(f_new - f)) < 1e-12:
                return f_new
            f = f_new
        return f

    K0 = kernel_matrix(X, X, params) + params.jitter * np.eye(n)
    f0 = newton(data.ys, K0, np.zeros(n))
    W0 = np.diag(expit(f0) * (1 - expit(f0)))

    def m1(pts):
        return kernel_matrix(pts, X, params) @ np.linalg.solve(K0, f0)

    def k1(a, b):
        ka = kernel_matrix(a, X, params)
        kb = kernel_matrix(X, b, params)
        return kernel_matrix(a, b, params) - ka @ np.linalg.solve(
            K0 + np.linalg.inv(W0), kb
        )

    K1 = k1(X, X) + params.jitter * np.eye(n)
    f1 = newton(data.ys, K1, m1(X))
    W1 = np.diag(expit(f1) * (1 - expit(f1)))

    def m2(pts):
        return m1(pts) + k1(pts, X) @ np.linalg.solve(K1, f1 - m1(X))

    def k2(a, b):
        return k1(a, b) - k1(a, X) @ np.linalg.solve(K1 + np.linalg.inv(W1), k1(X, b))

    return m2(test_xs), k2(test_xs, test_xs)


class TestDistributionCentric:
    def test_single_step_is_ordinary_posterior(self, rng):
        data, params = binary_instance(rng)
        steps = distribution_centric_gpc_iterated(data, params, 1)
        K = gram(data.xs, params, add_jitter=True)
        fit = laplace_mode(data.ys, K)
        test_xs = rng.uniform(0, 7, size=(5, 1))
        mu_o, cov_o = gpc_predict_latent(fit, K, data.xs, test_xs, params)
        assert rel_err(steps[0].posterior.mean(test_xs), mu_o) < 1e-10
        assert rel_err(steps[0].posterior.cov(test_xs), cov_o) < 1e-12

    def test_two_steps_match_dense_reference(self, rng):
        data, params = binary_instance(rng, n=5)
        test_xs = rng.uniform(0, 5, size=(4, 1))
        steps = distribution_centric_gpc_iterated(data, params, 2)
        mu_o, cov_o = dense_two_step_reference(data, params, test_xs)
        assert rel_err(steps[1].posterior.mean(test_xs), mu_o) < 1e-6
        assert rel_err(steps[1].posterior.cov(test_xs), cov_o) < 1e-5

    def test_laplace_fits_counted(self, rng, monkeypatch):
        # counted, not timed: one fit for the scaled chain at any t, t for the iterated one
        import gpdistill.gpc_distill as distill_module

        data, params = binary_instance(rng)
        real = distill_module.laplace_mode
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(distill_module, "laplace_mode", counting)
        for t in (1, 2, 5, 8):
            calls.clear()
            distribution_centric_gpc_scaled(data, params, t)
            assert len(calls) == 1
            calls.clear()
            distribution_centric_gpc_iterated(data, params, t)
            assert len(calls) == t

    @pytest.mark.parametrize("steps", [1, 3, 8])
    def test_chain_work_counted(self, rng, steps):
        # counted, not timed: one curvature factor per Newton iteration, one more per step
        # for the posterior, and an inverse only where the next step reads the previous
        # factor's half; the last posterior stays deferred
        data, params = binary_instance(rng)
        with counted() as counts:
            chain = distribution_centric_gpc_iterated(data, params, steps)
        newton = sum(step.fit.iterations for step in chain)
        assert counts["newton_iterations"] == newton
        assert counts["curvature_factors"] == newton + steps
        assert counts["inverses"] == steps - 1
        assert counts["eighs"] == 0
        assert not isinstance(chain[-1].posterior.factor, np.ndarray)

    def test_training_log_loss_non_increasing(self):
        from gpdistill.experiments.datasets import gen_classification_toy

        data = gen_classification_toy(0, n=30)
        params = KernelParams(signal_variance=1.0, length_scale=0.5)
        steps = distribution_centric_gpc_iterated(data, params, 10)
        losses = []
        for step in steps:
            p = np.clip(posterior_proba(step.posterior, data.xs), 1e-12, 1 - 1e-12)
            losses.append(-np.mean(data.ys * np.log(p) + (1 - data.ys) * np.log(1 - p)))
        assert np.all(np.diff(losses) <= 1e-6)

    def test_curvature_reestimated_each_step(self, rng):
        data, params = binary_instance(rng)
        steps = distribution_centric_gpc_iterated(data, params, 3)
        w = [s.fit.w_diag for s in steps]
        assert not np.allclose(w[0], w[2], atol=1e-12)

    def test_evaluation_cost_independent_of_depth(self, rng, evaluation_cost):
        data, params = binary_instance(rng)
        steps = distribution_centric_gpc_iterated(data, params, 10)
        test_xs = np.linspace(-1, 8, 25)
        first = evaluation_cost(steps[0].posterior, test_xs)
        assert first["calls"] > 0
        assert evaluation_cost(steps[9].posterior, test_xs) == first


class TestPosteriorEvaluation:
    def test_var_is_clamped_cov_diagonal(self, rng):
        from gpdistill.experiments.datasets import gen_classification_toy
        from gpdistill.gpr import Dataset, fit_gpr

        reg = Dataset(rng.uniform(-2, 2, size=(12, 1)), rng.normal(size=12))
        reg_params = KernelParams(signal_variance=1.1, length_scale=0.8)
        data, params = binary_instance(rng)
        toy = gen_classification_toy(0, n=30)
        toy_params = KernelParams(signal_variance=1.0, length_scale=1.0)
        cases = (
            (fit_gpr(reg, reg_params, noise=0.3), reg.xs),
            (distribution_centric_gpc_iterated(data, params, 3)[2].posterior, data.xs),
            (distribution_centric_gpc_scaled(toy, toy_params, 5).posterior, toy.xs),
        )
        for gp, train_xs in cases:
            xs = np.concatenate([np.linspace(-3.0, 8.0, 50), train_xs.ravel()])
            assert rel_err(gp.var(xs), np.diag(gp.cov(xs))) < 1e-12

    def test_quadrature_memory_linear_in_points(self):
        import tracemalloc

        from gpdistill.experiments.datasets import gen_classification_toy

        toy = gen_classification_toy(0, n=30)
        params = KernelParams(signal_variance=1.0, length_scale=1.0)
        gp = distribution_centric_gpc_scaled(toy, params, 5).posterior
        xs = np.linspace(-2.0, 7.0, 4000)
        tracemalloc.start()
        try:
            posterior_proba(gp, xs, method="quadrature")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 4000 x 4000 covariance alone would take 128 MB
        assert peak < 16 * 2**20


class TestScaled:
    def test_single_scale_is_ordinary_fit(self, rng):
        data, params = binary_instance(rng)
        scaled = distribution_centric_gpc_scaled(data, params, 1)
        K = gram(data.xs, params, add_jitter=True)
        direct = laplace_mode(data.ys, K)
        np.testing.assert_allclose(scaled.fit.f_hat, direct.f_hat, atol=1e-12)
        # the same fit paired with the same matrix: the same posterior, bit for bit
        test_xs = rng.uniform(0, 7, size=(5, 1))
        np.testing.assert_array_equal(
            scaled.posterior.cov(test_xs),
            gpc_posterior(direct, K, data.xs, params).cov(test_xs),
        )

    def test_mean_reads_form_no_inverse(self, rng):
        data, params = binary_instance(rng)
        test_xs = rng.uniform(0, 7, size=(5, 1))
        with counted() as counts:
            scaled = distribution_centric_gpc_scaled(data, params, 3)
            posterior_proba(scaled.posterior, test_xs, method="latent_mean")
        assert counts["inverses"] == 0
        with counted() as counts:
            posterior_proba(scaled.posterior, test_xs, method="quadrature")
            scaled.posterior.var(test_xs)
        assert counts["inverses"] == 1

    def test_matches_replicated_fit(self, rng):
        data, params = binary_instance(rng, n=6)
        for t in (2, 3):
            scaled = distribution_centric_gpc_scaled(data, params, t)
            rep = fit_replicated_gpc(data, params, t)
            for block in rep.f_hat.reshape(t, -1):
                assert np.max(np.abs(block - scaled.fit.f_hat)) < 1e-8

    def test_replication_exactness_randomized(self, rng):
        for _ in range(5):
            data, params = binary_instance(rng, n=int(rng.integers(3, 8)))
            t = int(rng.integers(1, 6))
            scaled = distribution_centric_gpc_scaled(data, params, t)
            rep = fit_replicated_gpc(data, params, t)
            for block in rep.f_hat.reshape(t, -1):
                assert np.max(np.abs(block - scaled.fit.f_hat)) < 1e-8

    def test_replication_row_cap(self, rng):
        data, params = binary_instance(rng, n=8)
        with pytest.raises(ValueError, match="cap"):
            fit_replicated_gpc(data, params, replications=300)

    def test_effective_hessian_positive_definite_at_mode(self, rng):
        data, params = binary_instance(rng)
        K = gram(data.xs, params, add_jitter=True)
        for likelihood, targets in (
            (BERNOULLI, data.ys),
            (CONTINUOUS_BERNOULLI, rng.uniform(0.1, 0.9, size=data.n)),
        ):
            fit = laplace_mode(targets, K, likelihood=likelihood)
            H = np.diag(fit.w_diag) + np.linalg.inv(K)
            assert np.min(np.linalg.eigvalsh(H)) > 0

    def test_cb_gradient_contribution_matches_finite_differences(self, rng):
        f = rng.normal(size=10) * 3
        h = 1e-6
        t = cb_terms(f)
        for i in range(10):
            e = np.zeros(10)
            e[i] = h
            fd = (np.sum(cb_terms(f + e).log_c) - np.sum(cb_terms(f - e).log_c)) / (2 * h)
            assert t.dlog_c[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestApproximationError:
    def test_first_step_is_zero(self, rng):
        data, params = binary_instance(rng)
        it = distribution_centric_gpc_iterated(data, params, 1)
        sc = [distribution_centric_gpc_scaled(data, params, 1)]
        errs = approximation_error(it, sc, np.linspace(-1, 8, 20))
        assert errs[0] < 1e-12

    def test_identical_posteriors_give_zero(self, rng):
        data, params = binary_instance(rng)
        it = distribution_centric_gpc_iterated(data, params, 2)
        errs = approximation_error(it, it, np.linspace(0, 7, 10))
        np.testing.assert_array_equal(errs, 0.0)

    def test_toy_series_grows_near_linearly(self):
        from gpdistill.experiments.datasets import gen_classification_toy

        data = gen_classification_toy(0, n=30)
        params = KernelParams(signal_variance=1.0, length_scale=0.5)
        it = distribution_centric_gpc_iterated(data, params, 10)
        sc = [distribution_centric_gpc_scaled(data, params, t) for t in range(1, 11)]
        errs = approximation_error(it, sc, np.linspace(-2, 7, 90), method="latent_mean")
        assert np.all(np.diff(errs) >= -1e-15)
        # near-linear growth: a straight line explains almost all the variation
        steps = np.arange(1, 11)
        slope, intercept = np.polyfit(steps, errs, 1)
        fitted = slope * steps + intercept
        ss_res = np.sum((errs - fitted) ** 2)
        ss_tot = np.sum((errs - np.mean(errs)) ** 2)
        assert slope > 0
        assert 1 - ss_res / ss_tot > 0.95

    def test_length_mismatch_rejected(self, rng):
        data, params = binary_instance(rng)
        it = distribution_centric_gpc_iterated(data, params, 2)
        with pytest.raises(ValueError, match="differ"):
            approximation_error(it, it[:1], np.linspace(0, 5, 5))

    def test_decision_boundaries_shared_across_chain(self, rng):
        data, params = binary_instance(rng)
        chain = data_centric_gpc(data, params, GpcDistillConfig(steps=3))
        grid = np.linspace(-1, 8, 80)
        from gpdistill.laplace import gpc_predict_proba

        for step in chain:
            p_lat = gpc_predict_proba(step.fit, step.gram_values, data.xs, grid, params,
                                      method="latent_mean")
            p_quad = gpc_predict_proba(step.fit, step.gram_values, data.xs, grid, params,
                                       method="quadrature")
            clear = np.abs(p_lat - 0.5) > 1e-9
            assert np.all(np.sign(p_lat[clear] - 0.5) == np.sign(p_quad[clear] - 0.5))
