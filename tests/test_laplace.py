import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import expit
from scipy.stats import norm

from conftest import rel_err
from gpdistill.cont_bernoulli import cb_terms
from gpdistill.kernels import KernelParams, gram, kernel_matrix
from gpdistill.laplace import (
    BERNOULLI,
    CONTINUOUS_BERNOULLI,
    BinaryDataset,
    CurvatureFactor,
    HessianNotPositiveDefinite,
    LaplaceFit,
    NewtonDidNotConverge,
    gpc_predict_latent,
    gpc_predict_proba,
    laplace_marginal_loglik,
    laplace_mode,
    sigmoid_gaussian_mean,
)


def psi_and_grad(f, y, K, m, likelihood):
    """Log posterior and its gradient assembled from first principles (oracle)."""
    diff = f - m
    solved = np.linalg.solve(K, diff)
    value = float(y @ f - np.sum(np.logaddexp(0.0, f)) - 0.5 * diff @ solved)
    grad = y - expit(f) - solved
    if likelihood == CONTINUOUS_BERNOULLI:
        t = cb_terms(f)
        value += float(np.sum(t.log_c))
        grad = grad + t.dlog_c
    return value, grad


def separated_problem(rng, n=8, likelihood=BERNOULLI):
    """Well-conditioned instance: inputs on a coarse grid."""
    xs = np.linspace(0, n - 1, n)
    if likelihood == BERNOULLI:
        ys = (rng.uniform(size=n) < 0.5).astype(float)
    else:
        ys = rng.uniform(0.05, 0.95, size=n)
    params = KernelParams(signal_variance=1.5, length_scale=0.8)
    K = gram(xs, params, add_jitter=True)
    return xs, ys, params, K


class TestBinaryDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            BinaryDataset([[0.0]], [1.5])
        with pytest.raises(ValueError):
            BinaryDataset([[0.0], [1.0]], [0.0])

    @pytest.mark.parametrize("xs, ys", [
        ([[0.0], [1.0]], [0.0, np.nan]),
        ([[0.0], [np.nan]], [0.0, 1.0]),
        ([[0.0], [np.inf]], [0.0, 1.0]),
    ])
    def test_non_finite_rejected(self, xs, ys):
        with pytest.raises(ValueError, match="finite"):
            BinaryDataset(xs, ys)

    def test_strictly_binary_flag(self):
        assert BinaryDataset([[0.0], [1.0]], [0.0, 1.0]).strictly_binary
        assert not BinaryDataset([[0.0], [1.0]], [0.0, 0.7]).strictly_binary


class TestLaplaceMode:
    def test_symmetric_targets_give_zero_mode(self):
        K = gram(np.linspace(0, 4, 5), KernelParams(1.0, 1.0), add_jitter=True)
        y = np.full(5, 0.5)
        for likelihood in (BERNOULLI, CONTINUOUS_BERNOULLI):
            fit = laplace_mode(y, K, likelihood=likelihood)
            np.testing.assert_allclose(fit.f_hat, 0.0, atol=1e-12)
            assert fit.converged

    def test_one_point_root_oracle(self):
        # the mode solves f = 1 - sigma(f); root-find it independently
        root = brentq(lambda f: f - (1.0 - expit(f)), -5.0, 5.0, xtol=1e-14)
        assert root == pytest.approx(0.40105813754154707, abs=1e-12)
        fit = laplace_mode(np.array([1.0]), np.array([[1.0]]))
        assert fit.f_hat[0] == pytest.approx(root, abs=1e-9)

    def test_fixed_point_residual_with_prior_mean(self, rng):
        xs, ys, params, K = separated_problem(rng)
        m = rng.normal(size=len(ys))
        fit = laplace_mode(ys, K, prior_mean=m)
        resid = fit.f_hat - m - K @ (ys - expit(fit.f_hat))
        assert np.max(np.abs(resid)) < 1e-6

    def test_gradient_norm_on_separated_inputs(self, rng):
        xs, ys, params, K = separated_problem(rng)
        fit = laplace_mode(ys, K)
        assert fit.converged
        assert fit.grad_norm < 1e-8

    def test_toy_generator_self_consistency(self):
        from gpdistill.experiments.datasets import gen_classification_toy

        data = gen_classification_toy(0, n=30)
        params = KernelParams(signal_variance=1.0, length_scale=0.5)
        K = gram(data.xs, params, add_jitter=True)
        fit = laplace_mode(data, K)
        resid = fit.f_hat - K @ (data.ys - expit(fit.f_hat))
        # clustered inputs put kappa(K) ~ 1e7; the gradient readout floors near
        # kappa*eps, so assert the well-conditioned fixed-point form tightly
        assert np.max(np.abs(resid)) < 1e-6
        assert fit.grad_norm < 1e-6

    def test_newton_monotone_log_posterior(self, rng):
        for likelihood in (BERNOULLI, CONTINUOUS_BERNOULLI):
            xs, ys, params, K = separated_problem(rng, likelihood=likelihood)
            fit = laplace_mode(ys, K, likelihood=likelihood)
            psi = np.asarray(fit.psi_path)
            slack = 1e-12 * np.maximum(1.0, np.abs(psi[:-1]))
            assert np.all(np.diff(psi) >= -slack)

    def test_gradient_matches_finite_differences(self, rng):
        xs, ys, params, K = separated_problem(rng)
        m = rng.normal(size=len(ys)) * 0.3
        for likelihood in (BERNOULLI, CONTINUOUS_BERNOULLI):
            y = ys if likelihood == BERNOULLI else rng.uniform(0.1, 0.9, size=len(ys))
            for _ in range(10):
                f = rng.normal(size=len(ys))
                _, grad = psi_and_grad(f, y, K, m, likelihood)
                fd = np.empty_like(f)
                h = 1e-6
                for i in range(len(f)):
                    e = np.zeros_like(f)
                    e[i] = h
                    up, _ = psi_and_grad(f + e, y, K, m, likelihood)
                    dn, _ = psi_and_grad(f - e, y, K, m, likelihood)
                    fd[i] = (up - dn) / (2 * h)
                np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_cb_mode_matches_scalar_oracle(self):
        # N=1, K=[[1]], continuous target 0.8: maximize the log posterior directly
        from scipy.optimize import minimize_scalar

        y = 0.8
        def neg_psi(f):
            t = cb_terms(f)
            return -(y * f - np.logaddexp(0.0, f) + t.log_c - 0.5 * f * f)

        res = minimize_scalar(neg_psi, bounds=(-5, 5), method="bounded",
                              options={"xatol": 1e-12})
        fit = laplace_mode(np.array([y]), np.array([[1.0]]),
                           likelihood=CONTINUOUS_BERNOULLI)
        assert fit.f_hat[0] == pytest.approx(res.x, abs=1e-5)

    def test_nonconvergence_raises_with_grad_norm(self, rng):
        xs, ys, params, K = separated_problem(rng)
        with pytest.raises(NewtonDidNotConverge) as exc_info:
            laplace_mode(ys, K, max_iters=1, step_tol=1e-16, grad_tol=1e-16)
        assert exc_info.value.grad_norm > 0

    def test_duplicated_input_without_jitter(self):
        # K is singular; the duplicated pair shares one latent, so the mode is
        # the maximizer of the reduced two-latent log posterior
        from scipy.optimize import minimize

        params = KernelParams(signal_variance=1.0, length_scale=1.0, jitter=0.0)
        y = np.array([1.0, 0.0, 1.0])
        K = gram([0.0, 0.0, 2.0], params)
        K2 = gram([0.0, 2.0], params)
        counts, hits = np.array([2.0, 1.0]), np.array([1.0, 1.0])

        def neg_psi(g):
            solved = np.linalg.solve(K2, g)
            value = hits @ g - counts @ np.logaddexp(0.0, g) - 0.5 * g @ solved
            return -value, -(hits - counts * expit(g) - solved)

        def neg_hess(g):
            s = expit(g)
            return np.diag(counts * s * (1.0 - s)) + np.linalg.inv(K2)

        res = minimize(neg_psi, np.zeros(2), jac=True, hess=neg_hess, method="trust-exact",
                       options={"gtol": 1e-13})
        fit = laplace_mode(y, K)
        assert fit.converged
        np.testing.assert_allclose(fit.f_hat, res.x[[0, 0, 1]], rtol=0, atol=1e-8)
        assert np.max(np.abs(K @ fit.alpha_weights - fit.f_hat)) < 1e-12

    def test_alpha_certificate(self, rng):
        # K alpha = f_hat - m has to hold to solver precision
        xs, ys, params, K = separated_problem(rng)
        m = rng.normal(size=len(ys)) * 0.5
        fit = laplace_mode(ys, K, prior_mean=m)
        assert np.max(np.abs(K @ fit.alpha_weights - (fit.f_hat - m))) < 1e-10


class TestPredictLatent:
    def test_far_point_reverts_to_prior(self, rng):
        xs, ys, params, K = separated_problem(rng)
        fit = laplace_mode(ys, K)
        mu, cov = gpc_predict_latent(fit, K, xs, [[500.0]], params)
        assert abs(mu[0]) < 1e-8
        assert cov[0, 0] == pytest.approx(params.signal_variance, abs=1e-8)

    def test_prediction_at_train_recovers_mode(self, rng):
        xs, ys, params, K = separated_problem(rng)
        fit = laplace_mode(ys, K)
        mu, _ = gpc_predict_latent(fit, K, xs, xs, params)
        np.testing.assert_allclose(mu, fit.f_hat, atol=1e-6)

    def test_matches_dense_formula_oracle(self, rng):
        xs, ys, params, K = separated_problem(rng)
        fit = laplace_mode(ys, K, step_tol=1e-13, grad_tol=1e-11)
        test_xs = rng.uniform(0, 7, size=(6, 1))
        mu, cov = gpc_predict_latent(fit, K, xs, test_xs, params)
        ks = kernel_matrix(test_xs, xs, params)
        kss = kernel_matrix(test_xs, test_xs, params)
        mu_o = ks @ np.linalg.solve(K, fit.f_hat)
        cov_o = kss - ks @ np.linalg.solve(
            K + np.diag(1.0 / fit.w_diag), ks.T
        )
        assert rel_err(mu, mu_o) < 1e-6
        assert rel_err(cov, cov_o) < 1e-8

    def test_vanishing_curvature_entries_handled(self, rng):
        # force a zero w entry; compare against the small-w dense limit
        xs, ys, params, K = separated_problem(rng)
        fit = laplace_mode(ys, K)
        w = fit.w_diag.copy()
        w[2] = 0.0
        hacked = LaplaceFit(
            f_hat=fit.f_hat, w_diag=w, iterations=fit.iterations, converged=True,
            likelihood=fit.likelihood, prior_mean_at_train=fit.prior_mean_at_train,
            alpha_weights=fit.alpha_weights, grad_norm=fit.grad_norm, psi_path=fit.psi_path,
        )
        test_xs = rng.uniform(0, 7, size=(4, 1))
        _, cov = gpc_predict_latent(hacked, K, xs, test_xs, params)
        w_tiny = w.copy()
        w_tiny[2] = 1e-13
        ks = kernel_matrix(test_xs, xs, params)
        kss = kernel_matrix(test_xs, test_xs, params)
        cov_o = kss - ks @ np.linalg.solve(K + np.diag(1.0 / w_tiny), ks.T)
        np.testing.assert_allclose(cov, cov_o, atol=1e-9)

    def test_variance_bounded_by_prior(self, rng):
        xs, ys, params, K = separated_problem(rng)
        fit = laplace_mode(ys, K)
        _, cov = gpc_predict_latent(fit, K, xs, rng.uniform(0, 7, size=(10, 1)), params)
        assert np.all(np.diag(cov) <= params.signal_variance + 1e-10)
        assert np.all(np.diag(cov) >= 0)

    def test_unconverged_fit_rejected(self, rng):
        xs, ys, params, K = separated_problem(rng)
        fit = laplace_mode(ys, K)
        bad = LaplaceFit(
            f_hat=fit.f_hat, w_diag=fit.w_diag, iterations=0, converged=False,
            likelihood=fit.likelihood, prior_mean_at_train=fit.prior_mean_at_train,
            alpha_weights=fit.alpha_weights, grad_norm=1.0, psi_path=(),
        )
        with pytest.raises(ValueError, match="converged"):
            gpc_predict_latent(bad, K, xs, xs, params)


class TestCurvatureFactor:
    @pytest.mark.parametrize("zero_entry", [False, True])
    def test_solve_and_logdet_match_dense(self, rng, zero_entry):
        xs, ys, params, K = separated_problem(rng)
        w = laplace_mode(ys, K).w_diag.copy()
        if zero_entry:
            w[3] = 0.0
        factor = CurvatureFactor(K, w)
        W, eye = np.diag(w), np.eye(len(w))
        dense = np.linalg.solve(W @ K + eye, W)
        np.testing.assert_allclose(factor.half.T @ factor.half, dense, atol=1e-12)
        rhs = rng.normal(size=(len(w), 3))
        np.testing.assert_allclose(factor.half.T @ (factor.half @ rhs), dense @ rhs, atol=1e-12)
        sign, logdet = np.linalg.slogdet(eye + K @ W)
        assert sign > 0
        assert factor.logdet() == pytest.approx(logdet, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("zero_entry", [False, True])
    def test_vector_solve_matches_dense(self, rng, zero_entry):
        xs, ys, params, K = separated_problem(rng)
        w = laplace_mode(ys, K).w_diag.copy()
        if zero_entry:
            w[3] = 0.0
        factor = CurvatureFactor(K, w)
        dense = np.linalg.solve(np.diag(w) @ K + np.eye(len(w)), np.diag(w))
        rhs = rng.normal(size=len(w))
        got = factor.solve(rhs)
        assert got.shape == rhs.shape
        np.testing.assert_allclose(got, dense @ rhs, atol=1e-12)

    def test_negative_weight_raises_at_construction(self, rng):
        xs, ys, params, K = separated_problem(rng)
        w = laplace_mode(ys, K).w_diag.copy()
        w[2] = -1e-3
        with pytest.raises(HessianNotPositiveDefinite):
            CurvatureFactor(K, w)

    @pytest.mark.parametrize("w", [np.array([1.0, 1.0]), np.array([1.0, 0.0])])
    def test_failed_factorization_raises(self, w):
        K = np.array([[-2.0, 0.0], [0.0, -1.0]])  # I + W K is singular or indefinite
        with pytest.raises(HessianNotPositiveDefinite):
            CurvatureFactor(K, w).logdet()


class TestPredictProba:
    def test_zero_mean_gives_half(self):
        assert sigmoid_gaussian_mean(0.0, 4.0) == pytest.approx(0.5, abs=1e-12)
        assert expit(0.0) == 0.5

    def test_degenerate_gaussian_matches_sigmoid(self):
        for mu in (-3.0, -0.5, 0.0, 1.2, 4.0):
            assert sigmoid_gaussian_mean(mu, 0.0) == pytest.approx(expit(mu), abs=1e-8)

    def test_quadrature_against_adaptive_integration(self):
        mu, var = 1.0, 4.0
        oracle, err = quad(
            lambda z: expit(z) * norm.pdf(z, loc=mu, scale=np.sqrt(var)), -40, 40,
            epsabs=1e-12,
        )
        assert err < 1e-9
        assert sigmoid_gaussian_mean(mu, var) == pytest.approx(oracle, abs=1e-6)

    def test_methods_share_decision_boundary(self, rng):
        xs, ys, params, K = separated_problem(rng)
        fit = laplace_mode(ys, K)
        test_xs = np.linspace(-1, 8, 60)
        p_lat = gpc_predict_proba(fit, K, xs, test_xs, params, method="latent_mean")
        p_quad = gpc_predict_proba(fit, K, xs, test_xs, params, method="quadrature")
        clear = np.abs(p_lat - 0.5) > 1e-9
        assert np.all(np.sign(p_lat[clear] - 0.5) == np.sign(p_quad[clear] - 0.5))

    def test_unknown_method_rejected(self, rng):
        xs, ys, params, K = separated_problem(rng)
        fit = laplace_mode(ys, K)
        with pytest.raises(ValueError, match="method"):
            gpc_predict_proba(fit, K, xs, xs, params, method="exact")


class TestMarginalLoglik:
    @staticmethod
    def quadrature_log_evidence(y, k_scalar, likelihood=BERNOULLI):
        """1-d integral of the unnormalized posterior (oracle for N=1)."""
        def integrand(f):
            ll = y * f - np.logaddexp(0.0, f)
            if likelihood == CONTINUOUS_BERNOULLI:
                ll += cb_terms(f).log_c
            return np.exp(ll) * norm.pdf(f, scale=np.sqrt(k_scalar))

        val, err = quad(integrand, -60, 60, epsabs=1e-13)
        assert err < 1e-7  # vastly tighter than the 0.05-nat comparison
        return float(np.log(val))

    def test_one_point_against_quadrature(self):
        for y, lik in ((0.5, BERNOULLI), (1.0, BERNOULLI), (0.5, CONTINUOUS_BERNOULLI),
                       (0.8, CONTINUOUS_BERNOULLI)):
            K = np.array([[1.0]])
            fit = laplace_mode(np.array([y]), K, likelihood=lik)
            got = laplace_marginal_loglik(fit, K, np.array([y]))
            assert got == pytest.approx(self.quadrature_log_evidence(y, 1.0, lik), abs=0.05)

    def test_relabel_symmetry(self, rng):
        xs, ys, params, K = separated_problem(rng)
        f1 = laplace_mode(ys, K)
        f2 = laplace_mode(1.0 - ys, K)
        v1 = laplace_marginal_loglik(f1, K, ys)
        v2 = laplace_marginal_loglik(f2, K, 1.0 - ys)
        assert v1 == pytest.approx(v2, abs=1e-9)

    def test_indefinite_hessian_rejected(self, rng):
        xs, ys, params, K = separated_problem(rng)
        fit = laplace_mode(ys, K)
        w = fit.w_diag.copy()
        w[:] = -5.0  # fake curvature that destroys positive definiteness
        bad = LaplaceFit(
            f_hat=fit.f_hat, w_diag=w, iterations=fit.iterations, converged=True,
            likelihood=fit.likelihood, prior_mean_at_train=fit.prior_mean_at_train,
            alpha_weights=fit.alpha_weights, grad_norm=fit.grad_norm, psi_path=fit.psi_path,
        )
        with pytest.raises(HessianNotPositiveDefinite):
            laplace_marginal_loglik(bad, K, ys)

    def test_unknown_likelihood_rejected(self):
        with pytest.raises(ValueError, match="likelihood"):
            laplace_mode(np.array([1.0]), np.array([[1.0]]), likelihood="probit")
