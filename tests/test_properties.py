"""Randomized properties of the Laplace mode finder on awkward problems."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdistill.gridsearch import NUMERICAL_ERRORS
from gpdistill.kernels import KernelParams, gram
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
