"""Randomized properties of the Laplace mode finder, regression fits and the iterated GPC chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_outcome, outcome_of, rel_err
from gpdistill.experiments.datasets import gen_classification_toy
from gpdistill.gpc_distill import (
    distribution_centric_gpc_iterated,
    distribution_centric_gpc_recursive,
)
from gpdistill.gpr import Dataset, fit_gpr, predict_gpr
from gpdistill.gridsearch import NUMERICAL_ERRORS
from gpdistill.kernels import KernelParams, gram, kernel_matrix
from gpdistill.laplace import (
    BERNOULLI,
    CONTINUOUS_BERNOULLI,
    BinaryDataset,
    laplace_mode,
    laplace_modes,
)


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
    assert np.max(np.abs(model.var(test_xs) - np.diag(cov))) <= 1e-10 * sv


@st.composite
def stacks(draw):
    """One target vector under several Grams, some indefinite, with a random prior mean."""
    n = draw(st.integers(3, 39))
    cells = draw(st.integers(1, 7))
    likelihood = draw(st.sampled_from((BERNOULLI, CONTINUOUS_BERNOULLI)))
    max_iters = draw(st.sampled_from((0, 1, 2, 3, 100)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.uniform(-5.0, 5.0, size=(n, 1))
    if likelihood == BERNOULLI:
        ys = (rng.uniform(size=n) < 0.5).astype(float)
    else:
        ys = rng.uniform(size=n)
    grams = []
    for _ in range(cells):
        params = KernelParams(signal_variance=10.0 ** rng.uniform(-2.0, 4.0),
                              length_scale=10.0 ** rng.uniform(-1.0, 1.0))
        K = gram(xs, params, add_jitter=True)
        if rng.uniform() < 0.1:  # indefinite: B fails to factor, or a step is rejected
            K = K - rng.choice((2.0, 20.0)) * np.eye(n)
        grams.append(K)
    return ys, grams, rng.normal(scale=2.0, size=n), likelihood, max_iters


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(stacks())
def test_each_stacked_cell_is_its_solo_fit(stack):
    ys, grams, m, likelihood, max_iters = stack
    stacked = laplace_modes(ys, grams, prior_mean=m, likelihood=likelihood, max_iters=max_iters)
    for K, got in zip(grams, stacked, strict=True):
        assert_same_outcome(got, outcome_of(lambda: laplace_mode(
            ys, K, prior_mean=m, likelihood=likelihood, max_iters=max_iters)))


def assert_chain_matches_literal(data, params, steps, tol):
    """The accumulated chain against its literal oracle: the same Newton iterations at every
    step, and f_hat, the latent mean and the variance at 20 points within tol (norm-relative)."""
    test_xs = np.linspace(-1.0, 6.0, 20)
    accumulated = distribution_centric_gpc_iterated(data, params, steps)
    literal = distribution_centric_gpc_recursive(data, params, steps)
    assert len(accumulated) == len(literal) == steps
    for got, want in zip(accumulated, literal):
        assert got.fit.iterations == want.fit.iterations
        assert rel_err(got.fit.f_hat, want.fit.f_hat) <= tol
        assert rel_err(got.posterior.mean(test_xs), want.posterior.mean(test_xs)) <= tol
        assert rel_err(got.posterior.var(test_xs), want.posterior.var(test_xs)) <= tol


@st.composite
def chains(draw):
    """Binary labels at 1-D inputs, maybe with one duplicated input, and a chain depth."""
    n = draw(st.integers(2, 40))
    sigma_f = draw(st.floats(0.1, 3.0))
    length_scale = draw(st.floats(0.1, 5.0))
    steps = draw(st.integers(1, 8))
    duplicated = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.uniform(0.0, 5.0, size=n)
    if duplicated:
        xs[1] = xs[0]
    ys = (rng.uniform(size=n) < 0.5).astype(float)
    params = KernelParams(signal_variance=sigma_f**2, length_scale=length_scale)
    return BinaryDataset(xs, ys), params, steps


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(chains())
def test_accumulated_chain_is_the_literal_chain(chain):
    data, params, steps = chain
    assert_chain_matches_literal(data, params, steps, 1e-12)


@pytest.mark.parametrize("n, sigma_f, tol", [(30, 1.0, 1e-12), (100, 1.0, 1e-12),
                                             (300, 1.0, 1e-12), (30, 100.0, 1e-9)])
def test_accumulated_chain_is_the_literal_chain_at_size(n, sigma_f, tol):
    data = gen_classification_toy(0, n=n)
    assert_chain_matches_literal(data, KernelParams(signal_variance=sigma_f**2, length_scale=1.0),
                                 10, tol)
