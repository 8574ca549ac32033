import numpy as np
import pytest

from conftest import rel_err
from gpdistill.gpr import Dataset, PosteriorGP, fit_gpr, predict_gpr
from gpdistill.kernels import KernelParams, SingularSystemError, gram, kernel_matrix, spectral_decompose


def dense_posterior(data, params, noise, test_xs):
    """Textbook formula with explicit matrix inverse, as an independent oracle."""
    K = gram(data.xs, params)
    inv = np.linalg.inv(K + noise * np.eye(data.n))
    ks = kernel_matrix(test_xs, data.xs, params)
    kss = kernel_matrix(test_xs, test_xs, params)
    mu = ks @ inv @ data.ys
    cov = kss - ks @ inv @ ks.T
    return mu, cov


class TestFitGpr:
    def test_one_point_alpha(self):
        # K = [[1]], noise 1, y = 2  ->  alpha = (1 + 1)^-1 * 2 = 1
        p = KernelParams(signal_variance=1.0, length_scale=1.0)
        model = fit_gpr(Dataset([[0.0]], [2.0]), p, noise=1.0)
        np.testing.assert_allclose(model.weights, [1.0], rtol=1e-14)

    def test_huge_noise_returns_prior_mean(self):
        # the prior is GP(0, k): the data barely move its mean or covariance
        p = KernelParams(signal_variance=1.0, length_scale=1.0)
        data = Dataset(np.linspace(0, 5, 6), np.linspace(-4, 4, 6))
        model = fit_gpr(data, p, noise=1e12)
        test_xs = [[1.3], [4.2]]
        mean, cov = predict_gpr(model, test_xs)
        np.testing.assert_allclose(mean, 0.0, atol=1e-6)
        np.testing.assert_allclose(cov, kernel_matrix(test_xs, test_xs, p), atol=1e-6)

    def test_alpha_reconstruction_invariant(self, rng):
        p = KernelParams(signal_variance=2.0, length_scale=0.8)
        data = Dataset(rng.normal(size=(10, 1)), rng.normal(size=10))
        noise = 0.3
        model = fit_gpr(data, p, noise=noise)
        K = gram(data.xs, p)
        recon = (K + noise * np.eye(10)) @ model.weights
        assert rel_err(recon, data.ys) < 1e-8

    def test_noise_zero_on_shifted_gram_identical(self, rng):
        # fitting with noise g equals fitting with noise 0 on K + g*I
        p = KernelParams(signal_variance=1.0, length_scale=1.0)
        data = Dataset(np.linspace(0, 5, 8), rng.normal(size=8))
        g = 0.5
        K = gram(data.xs, p)
        m1 = fit_gpr(data, p, noise=g)
        m2 = fit_gpr(data, p, noise=0.0, decomp=spectral_decompose(K + g * np.eye(8)))
        assert rel_err(m1.weights, m2.weights) < 1e-12

    def test_singular_system_rejected(self):
        p = KernelParams(signal_variance=1.0, length_scale=1.0, jitter=0.0)
        data = Dataset([[1.0], [1.0]], [0.0, 1.0])  # duplicated input, rank-1 K
        with pytest.raises(SingularSystemError):
            fit_gpr(data, p, noise=0.0)

    def test_negative_noise_rejected(self):
        p = KernelParams(1.0, 1.0)
        with pytest.raises(ValueError):
            fit_gpr(Dataset([[0.0]], [1.0]), p, noise=-0.1)


class TestDataset:
    @pytest.mark.parametrize("xs, ys", [
        ([[0.0], [np.nan]], [0.0, 1.0]),
        ([[0.0], [np.inf]], [0.0, 1.0]),
        ([[0.0], [1.0]], [np.nan, 1.0]),
        ([[0.0], [1.0]], [0.0, -np.inf]),
    ])
    def test_non_finite_rejected(self, xs, ys):
        with pytest.raises(ValueError, match="finite"):
            Dataset(xs, ys)


class TestPredictGpr:
    def test_interpolation_limit(self):
        p = KernelParams(signal_variance=2.0, length_scale=1.0)
        data = Dataset(np.linspace(0, 5, 6), np.array([0.0, 1.0, -1.0, 2.0, 0.5, -0.5]))
        model = fit_gpr(data, p, noise=1e-8)
        mean, _ = predict_gpr(model, data.xs)
        np.testing.assert_allclose(mean, data.ys, atol=1e-4)

    def test_far_point_reverts_to_prior(self):
        p = KernelParams(signal_variance=1.7, length_scale=0.5)
        data = Dataset(np.linspace(0, 3, 5), np.ones(5))
        model = fit_gpr(data, p, noise=0.1)
        mean, cov = predict_gpr(model, [[100.0]])
        assert abs(mean[0]) < 1e-6
        assert abs(cov[0, 0] - 1.7) < 1e-6

    def test_matches_dense_oracle(self, rng):
        p = KernelParams(signal_variance=1.2, length_scale=0.9)
        data = Dataset(rng.uniform(-2, 2, size=(8, 2)), rng.normal(size=8))
        test_xs = rng.uniform(-2, 2, size=(5, 2))
        model = fit_gpr(data, p, noise=0.4)
        mean, cov = predict_gpr(model, test_xs)
        mu_o, cov_o = dense_posterior(data, p, 0.4, test_xs)
        assert rel_err(mean, mu_o) < 1e-10
        assert rel_err(cov, cov_o) < 1e-10

    def test_toy_set_matches_dense_oracle(self, rng):
        xs = np.linspace(0.0, 10.0, 10)
        ys = xs * np.sin(xs) + rng.standard_normal(10)
        data = Dataset(xs, ys)
        p = KernelParams(signal_variance=4.0, length_scale=1.5)
        model = fit_gpr(data, p, noise=1.0)
        test_xs = np.linspace(0, 10, 23)
        mean, cov = predict_gpr(model, test_xs)
        mu_o, cov_o = dense_posterior(data, p, 1.0, test_xs)
        assert rel_err(mean, mu_o) < 1e-10
        assert rel_err(cov, cov_o) < 1e-9

    def test_dimension_mismatch(self):
        p = KernelParams(1.0, 1.0)
        model = fit_gpr(Dataset([[0.0, 1.0]], [1.0]), p, noise=0.1)
        with pytest.raises(ValueError, match="dimension"):
            predict_gpr(model, [[0.0]])

    def test_posterior_variance_below_prior(self, rng):
        p = KernelParams(signal_variance=2.5, length_scale=1.0)
        data = Dataset(rng.uniform(0, 4, size=(12, 1)), rng.normal(size=12))
        model = fit_gpr(data, p, noise=0.05)
        _, cov = predict_gpr(model, rng.uniform(0, 4, size=(20, 1)))
        assert np.all(np.diag(cov) <= 2.5 + 1e-10)
        assert np.all(np.diag(cov) >= 0.0)

    def test_mean_linear_in_targets(self, rng):
        p = KernelParams(signal_variance=1.0, length_scale=0.7)
        xs = rng.uniform(-1, 1, size=(7, 1))
        y1 = rng.normal(size=7)
        y2 = rng.normal(size=7)
        test_xs = rng.uniform(-1, 1, size=(4, 1))
        preds = []
        for y in (y1, y2, y1 + y2):
            model = fit_gpr(Dataset(xs, y), p, noise=0.2)
            preds.append(predict_gpr(model, test_xs)[0])
        np.testing.assert_allclose(preds[0] + preds[1], preds[2], atol=1e-10)


class TestPosteriorGp:
    def test_wraps_fitted_model(self, rng):
        # fit_gpr returns the posterior: its factor squares to (K + noise*I)^-1
        p = KernelParams(signal_variance=1.1, length_scale=0.8)
        data = Dataset(rng.uniform(-2, 2, size=(7, 1)), rng.normal(size=7))
        gp = fit_gpr(data, p, noise=0.3)
        assert isinstance(gp, PosteriorGP)
        inv = np.linalg.inv(gram(data.xs, p) + 0.3 * np.eye(7))
        assert rel_err(gp.factor.T @ gp.factor, inv) < 1e-10
        test_xs = rng.uniform(-2, 2, size=(5, 1))
        mean_o, cov_o = dense_posterior(data, p, 0.3, test_xs)
        assert rel_err(gp.mean(test_xs), mean_o) < 1e-10
        assert rel_err(gp.cov(test_xs), cov_o) < 1e-10
        assert np.all(gp.var(test_xs) >= 0)

    def test_condition_matches_noisy_fit(self, rng):
        # conditioning the prior once with alpha = (K + gI)^-1 y and
        # A = (K + gI)^-1 is the ordinary noisy fit
        p = KernelParams(signal_variance=1.3, length_scale=0.6)
        data = Dataset(rng.uniform(-2, 2, size=(6, 1)), rng.normal(size=6))
        inv = np.linalg.inv(gram(data.xs, p) + 0.4 * np.eye(6))
        gp = PosteriorGP(data.xs, p).condition(inv @ data.ys, np.linalg.cholesky(inv).T)
        test_xs = rng.uniform(-2, 2, size=(4, 1))
        mean_o, cov_o = dense_posterior(data, p, 0.4, test_xs)
        assert rel_err(gp.mean(test_xs), mean_o) < 1e-10
        assert rel_err(gp.cov(test_xs), cov_o) < 1e-10
        cross_o = 0.4 * kernel_matrix(test_xs, data.xs, p) @ inv
        assert rel_err(gp.cov(test_xs, data.xs), cross_o) < 1e-10
