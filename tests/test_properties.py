"""Randomized properties of the Laplace mode finder and regression fits on awkward problems."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rel_err
from gpdistill.gpr import Dataset, fit_gpr, posterior_gp, predict_gpr
from gpdistill.gridsearch import NUMERICAL_ERRORS
from gpdistill.kernels import KernelParams, gram, kernel_matrix
from gpdistill.laplace import BERNOULLI, CONTINUOUS_BERNOULLI, laplace_mode


@st.composite
def problems(draw):
    """Inputs with one duplicated point, extreme hyperparameters, and a random prior mean."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 25))
    sigma_f = 10.0 ** draw(st.floats(-2.0, 2.0))
    length_scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    jitter = draw(st.sampled_from((0.0, 1e-8)))
    likelihood = draw(st.sampled_from((BERNOULLI, CONTINUOUS_BERNOULLI)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.uniform(-5.0, 5.0, size=(n, d))
    if n > 1:
        src, dst = rng.choice(n, size=2, replace=False)
        xs[dst] = xs[src]
    if likelihood == BERNOULLI:
        ys = (rng.uniform(size=n) < 0.5).astype(float)
    else:
        ys = rng.uniform(size=n)
    m = rng.normal(scale=2.0, size=n)
    params = KernelParams(signal_variance=sigma_f**2, length_scale=length_scale, jitter=jitter)
    return gram(xs, params, add_jitter=True), ys, m, likelihood


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(problems())
def test_mode_certificate_or_numerical_error(problem):
    K, ys, m, likelihood = problem
    try:
        fit = laplace_mode(ys, K, prior_mean=m, likelihood=likelihood)
    except NUMERICAL_ERRORS:
        return
    assert fit.converged
    resid = K @ fit.alpha_weights - (fit.f_hat - m)
    assert np.max(np.abs(resid)) <= 1e-8 * np.max(np.abs(fit.f_hat - m))


@st.composite
def regressions(draw):
    """A regression fit with one duplicated input, extreme hyperparameters, and test points."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 25))
    sigma_f = 10.0 ** draw(st.floats(-1.0, 1.0))
    length_scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    noise = 10.0 ** draw(st.floats(-2.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.uniform(-5.0, 5.0, size=(n, d))
    if n > 1:
        src, dst = rng.choice(n, size=2, replace=False)
        xs[dst] = xs[src]
    params = KernelParams(signal_variance=sigma_f**2, length_scale=length_scale)
    test_xs = np.vstack([xs[:2], rng.uniform(-5.0, 5.0, size=(6, d))])
    return Dataset(xs, rng.normal(size=n)), params, noise, test_xs


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(regressions())
def test_regression_fit_matches_dense_solve(problem):
    data, params, noise, test_xs = problem
    sv = params.signal_variance
    shifted = gram(data.xs, params) + noise * np.eye(data.n)
    k_star = kernel_matrix(test_xs, data.xs, params)
    mean_o = k_star @ np.linalg.solve(shifted, data.ys)
    cov_o = kernel_matrix(test_xs, test_xs, params) - k_star @ np.linalg.solve(shifted, k_star.T)
    model = fit_gpr(data, params, noise)
    mean, cov = predict_gpr(model, test_xs)
    assert rel_err(mean, mean_o) <= 1e-9
    assert np.max(np.abs(cov - cov_o)) <= 1e-10 * sv
    assert np.all(np.diag(cov) <= sv)
    assert np.max(np.abs(posterior_gp(model).var(test_xs) - np.diag(cov))) <= 1e-10 * sv
