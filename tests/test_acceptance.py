"""Acceptance suite: one test per verification criterion, each printing a
PASS/FAIL line (visible with pytest -s). Sizes are desk scale; the whole
module stays well under the five-minute budget.
"""

import functools
import json

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit
from scipy.stats import norm

from conftest import rel_err
from gpdistill.cont_bernoulli import cb_log_density, cb_normalizer, cb_terms
from gpdistill.gpr import Dataset, fit_gpr, predict_gpr
from gpdistill.gpr_distill import (
    DistillSchedule,
    data_centric_targets_fast,
    data_centric_targets_naive,
    distribution_centric_closed_form,
    distribution_centric_recursive,
    effective_noise,
    fit_replicated,
)
from gpdistill.gpc_distill import (
    approximation_error,
    distribution_centric_gpc_iterated,
    distribution_centric_gpc_scaled,
    fit_replicated_gpc,
)
from gpdistill.kernels import KernelParams, gram, spectral_decompose
from gpdistill.laplace import (
    BERNOULLI,
    CONTINUOUS_BERNOULLI,
    BinaryDataset,
    laplace_mode,
    laplace_marginal_loglik,
)
from gpdistill.experiments.bench import bench_fit_scaling, relative_time_slope
from gpdistill.experiments.datasets import gen_classification_toy
from gpdistill.experiments.runner import EXPERIMENTS, ExperimentConfig, run_experiment


def criterion(num, description):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {description}")
                raise
            print(f"PASS criterion {num}: {description}")

        return inner

    return wrap


def random_kernel(rng) -> KernelParams:
    return KernelParams(
        signal_variance=float(rng.uniform(0.5, 2.0)),
        length_scale=float(rng.uniform(0.5, 2.0)),
    )


@criterion(1, "multi-step posterior equals single pooled-noise fit (rel 1e-10, 100 instances)")
def test_criterion_1_distribution_centric_equivalence():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(3, 31))
        t = int(rng.integers(1, 11))
        data = Dataset(rng.uniform(-3, 3, size=(n, 1)), rng.normal(size=n))
        params = random_kernel(rng)
        sched = DistillSchedule(gammas=tuple(rng.uniform(1e-3, 10.0, size=t)))
        test_xs = rng.uniform(-3, 3, size=(10, 1))
        gp = distribution_centric_recursive(data, params, sched, t)[-1]
        mean_cf, cov_cf = distribution_centric_closed_form(data, params, sched, t, test_xs)
        assert rel_err(gp.mean(test_xs), mean_cf) < 1e-10
        assert rel_err(gp.cov(test_xs), cov_cf) < 1e-10


@criterion(2, "replicated-data fit equals single fit with noise/t (1e-8, t in 1..4)")
def test_criterion_2_data_replication():
    rng = np.random.default_rng(102)
    for t in (1, 2, 3, 4):
        n = int(rng.integers(3, 13))
        data = Dataset(rng.uniform(-3, 3, size=(n, 1)), rng.normal(size=n))
        params = random_kernel(rng)
        g = float(rng.uniform(0.05, 2.0))
        rep = fit_replicated(data, params, noise=g, replications=t)
        model = fit_gpr(data, params, noise=g / t)
        mean, _ = predict_gpr(model, data.xs)
        K = gram(data.xs, params)
        cov = K - K @ np.linalg.solve(K + (g / t) * np.eye(n), K)
        for i in range(t):
            assert rel_err(rep.mean_blocks[i], mean) < 1e-8
            for j in range(t):
                assert np.max(np.abs(rep.cov_blocks[i, j] - cov)) < 1e-8


@criterion(3, "naive and spectral fast paths agree (rel 1e-10, 100 instances)")
def test_criterion_3_fast_path():
    rng = np.random.default_rng(103)
    for _ in range(100):
        n = int(rng.integers(3, 51))
        t = int(rng.integers(1, 21))
        data = Dataset(rng.uniform(-3, 3, size=(n, 1)), rng.normal(size=n))
        params = random_kernel(rng)
        sched = DistillSchedule(gammas=tuple(rng.uniform(1e-3, 10.0, size=t)))
        naive = data_centric_targets_naive(data, params, sched)
        decomp = spectral_decompose(gram(data.xs, params))
        fast = data_centric_targets_fast(decomp, data.ys, sched)
        assert rel_err(naive[-1], fast) < 1e-10
        # prediction agreement at random test points, through either target path
        test_xs = rng.uniform(-3, 3, size=(5, 1))
        from gpdistill.gpr_distill import data_centric_predict

        mean, _ = data_centric_predict(data, params, sched, test_xs)
        y_prev = data.ys if t == 1 else naive[-2]
        refit = fit_gpr(Dataset(data.xs, y_prev), params, noise=sched.gammas[-1])
        mean_o, _ = predict_gpr(refit, test_xs)
        assert rel_err(mean, mean_o) < 1e-10


@criterion(4, "pooled effective noise hits 0.1 at step 1 and 0.034 at step 10")
def test_criterion_4_effective_noise_values():
    sched = DistillSchedule(gammas=tuple(np.linspace(0.1, 1.0, 10)))
    assert abs(effective_noise(sched, 1).effective - 0.1) < 1e-12
    assert abs(effective_noise(sched, 10).effective - 0.034) <= 1e-3


@criterion(5, "normalizer closed forms: exact values at 0, FD agreement, unit mass")
def test_criterion_5_normalizer_derivatives():
    terms = cb_terms(0.0)
    assert cb_normalizer(0.5) == 2.0
    assert float(np.exp(terms.log_c)) == pytest.approx(2.0, rel=1e-15)
    assert terms.dlog_c == 0.0
    assert terms.d2log_c == 1.0 / 6.0

    rng = np.random.default_rng(105)
    a = rng.uniform(-20, 20, size=100)
    a = np.where(np.abs(a) < 1e-3, a + 0.01, a)
    h = 1e-5 * np.maximum(1.0, np.abs(a))
    t = cb_terms(a)
    fd1 = (cb_terms(a + h).log_c - cb_terms(a - h).log_c) / (2 * h)
    fd2 = (cb_terms(a + h).dlog_c - cb_terms(a - h).dlog_c) / (2 * h)
    np.testing.assert_allclose(t.dlog_c, fd1, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(t.d2log_c, fd2, rtol=1e-6, atol=1e-9)

    for lam in np.concatenate([[0.1, 0.3, 0.7, 0.95], rng.uniform(0.02, 0.98, size=8)]):
        mass, _ = quad(lambda x: np.exp(cb_log_density(x, float(lam))), 0, 1, epsabs=1e-12)
        assert mass == pytest.approx(1.0, abs=1e-8)


@criterion(6, "scaled-prior mode equals replicated-data mode exactly (1e-8, t in 1..4)")
def test_criterion_6_gpc_scaling_exact():
    rng = np.random.default_rng(106)
    for trial in range(5):
        n = int(rng.integers(3, 11))
        xs = rng.uniform(0, 5, size=n)
        ys = (rng.uniform(size=n) < 0.5).astype(float)
        data = BinaryDataset(xs, ys)
        params = random_kernel(rng)
        for t in (1, 2, 3, 4):
            scaled_K = t * gram(xs, params) + params.jitter * np.eye(n)
            f_scaled = laplace_mode(ys, scaled_K, step_tol=1e-12, grad_tol=1e-10)
            f_rep = fit_replicated_gpc(data, params, t)
            for block in f_rep.f_hat.reshape(t, -1):
                assert np.max(np.abs(block - f_scaled.f_hat)) < 1e-8


@criterion(7, "ten-step iterated vs scaled chains: MSE < 1e-3 and non-decreasing over steps")
def test_criterion_7_gpc_scaling_approximate():
    data = gen_classification_toy(0, n=30)
    params = KernelParams(signal_variance=1.0, length_scale=0.5)
    steps = 10
    iterated = distribution_centric_gpc_iterated(data, params, steps)
    scaled = [distribution_centric_gpc_scaled(data, params, t) for t in range(1, steps + 1)]
    test_xs = np.linspace(-2.0, 7.0, 90)
    errs = approximation_error(iterated, scaled, test_xs, method="latent_mean")
    assert errs[-1] < 1e-3
    assert np.all(np.diff(errs) >= -1e-15)


@criterion(8, "mode fixed-point residuals < 1e-6 and analytic gradients match FD (1e-5)")
def test_criterion_8_laplace_correctness():
    rng = np.random.default_rng(108)
    for trial in range(8):
        n = int(rng.integers(4, 25))
        xs = np.sort(rng.uniform(0, n, size=n))
        params = random_kernel(rng)
        K = gram(xs, params, add_jitter=True)
        m = rng.normal(size=n) * 0.5
        ys = (rng.uniform(size=n) < 0.5).astype(float)
        fit = laplace_mode(ys, K, prior_mean=m)
        resid = fit.f_hat - m - K @ (ys - expit(fit.f_hat))
        assert np.max(np.abs(resid)) < 1e-6

    # analytic vs central-difference gradients of the log posterior
    n = 7
    xs = np.linspace(0, 6, n)
    params = KernelParams(signal_variance=1.2, length_scale=0.9)
    K = gram(xs, params, add_jitter=True)
    for likelihood in (BERNOULLI, CONTINUOUS_BERNOULLI):
        y = (rng.uniform(size=n) < 0.5).astype(float) if likelihood == BERNOULLI \
            else rng.uniform(0.1, 0.9, size=n)

        def psi(f):
            val = float(y @ f - np.sum(np.logaddexp(0.0, f)))
            if likelihood == CONTINUOUS_BERNOULLI:
                val += float(np.sum(cb_terms(f).log_c))
            return val - 0.5 * float(f @ np.linalg.solve(K, f))

        for _ in range(5):
            f = rng.normal(size=n)
            grad = y - expit(f) - np.linalg.solve(K, f)
            if likelihood == CONTINUOUS_BERNOULLI:
                grad = grad + cb_terms(f).dlog_c
            fd = np.empty(n)
            h = 1e-6
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd[i] = (psi(f + e) - psi(f - e)) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)


@criterion(9, "one-point evidence within 0.05 nats of adaptive quadrature, both likelihoods")
def test_criterion_9_marginal_likelihood_oracle():
    def quadrature_evidence(y, k, likelihood):
        def integrand(f):
            ll = y * f - np.logaddexp(0.0, f)
            if likelihood == CONTINUOUS_BERNOULLI:
                ll += cb_terms(f).log_c
            return np.exp(ll) * norm.pdf(f, scale=np.sqrt(k))

        val, err = quad(integrand, -60, 60, epsabs=1e-13)
        assert err < 1e-7  # vastly tighter than the 0.05-nat comparison
        return float(np.log(val))

    for k in (0.5, 1.0, 3.0):
        for y, likelihood in (
            (0.0, BERNOULLI), (0.5, BERNOULLI), (1.0, BERNOULLI),
            (0.3, CONTINUOUS_BERNOULLI), (0.5, CONTINUOUS_BERNOULLI),
            (0.8, CONTINUOUS_BERNOULLI),
        ):
            K = np.array([[k]])
            fit = laplace_mode(np.array([y]), K, likelihood=likelihood)
            got = laplace_marginal_loglik(fit, K, np.array([y]))
            assert abs(got - quadrature_evidence(y, k, likelihood)) < 0.05


@criterion(10, "relative fit time: flat for fast/pooled paths, growing for iterated GPC")
def test_criterion_10_timing_shape():
    cells = bench_fit_scaling(
        steps=(1, 5, 10, 20),
        reps=9,
        n_train=120,
        seed=0,
        methods=("gpr-data-fast", "gpr-dist", "gpc-dist", "gpc-data"),
    )
    for method in ("gpr-data-fast", "gpr-dist", "gpc-dist"):
        slope = relative_time_slope(cells, method)
        assert abs(slope) < 0.02, f"{method} slope {slope:.4f}"
    gpc_data_slope = relative_time_slope(cells, "gpc-data")
    assert gpc_data_slope > 0.05, f"gpc-data slope {gpc_data_slope:.4f}"


@criterion(11, "reproduction runs are deterministic and emit schema-valid CSV + manifest")
def test_criterion_11_reproductions(tmp_path):
    expected_headers = {
        "gpr-data-10step": ("predictions.csv", "step,x,mean,p2.5,p97.5"),
        "gpr-dist-10step": ("predictions.csv", "step,x,mean,p2.5,p97.5"),
        "gpr-data-schedules": ("predictions.csv", "schedule,step,x,mean,p2.5,p97.5"),
        "gpr-dist-schedules": ("predictions.csv", "schedule,step,x,mean,p2.5,p97.5"),
        "gpc-data-cb": ("predictions.csv", "variant,x,probability"),
        "gpc-dist-10step": ("predictions.csv", "step,x,probability_iterated,probability_scaled"),
        "grid-search": ("grid_bernoulli.csv", "sigma_f,length_scale,noise,nll"),
    }
    assert set(expected_headers) == set(EXPERIMENTS)
    for experiment, (csv_name, header) in expected_headers.items():
        outputs = []
        for run_dir in ("first", "second"):
            out = tmp_path / experiment / run_dir
            manifest = run_experiment(ExperimentConfig(experiment=experiment, out_dir=out, seed=0))
            assert manifest["experiment"] == experiment
            loaded = json.loads((out / "manifest.json").read_text())
            assert loaded == manifest
            body = (out / csv_name).read_text()
            assert body.splitlines()[0] == header
            assert len(body.splitlines()) > 1
            outputs.append((body, (out / "manifest.json").read_text()))
        assert outputs[0] == outputs[1], f"{experiment} not deterministic"
