"""Ordinary Gaussian process regression: prior, fit, and posterior predictive."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .kernels import (
    KernelParams,
    SpectralDecomp,
    as_points,
    gram,
    kernel_matrix,
    spectral_decompose,
)

MeanFn = Callable[[np.ndarray], np.ndarray]


def zero_mean(xs: np.ndarray) -> np.ndarray:
    return np.zeros(len(xs))


@dataclass(frozen=True)
class Dataset:
    """Training inputs (N, d) and real-valued targets (N,)."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xs", as_points(self.xs))
        object.__setattr__(self, "ys", np.asarray(self.ys, dtype=float).ravel())
        if len(self.xs) != len(self.ys):
            raise ValueError(f"{len(self.xs)} inputs but {len(self.ys)} targets")
        if len(self.xs) < 1:
            raise ValueError("dataset must contain at least one observation")
        if not (np.all(np.isfinite(self.xs)) and np.all(np.isfinite(self.ys))):
            raise ValueError("inputs and targets must be finite")

    @property
    def n(self) -> int:
        return len(self.ys)


@dataclass(frozen=True)
class GprModel:
    """Fitted regression posterior.

    alpha_weights solves (K + noise*I) alpha = y - m(x); the decomposition of
    the noiseless K is kept so that predictions and any downstream refits reuse
    the same factorization.
    """

    train_xs: np.ndarray
    alpha_weights: np.ndarray
    params: KernelParams
    noise: float
    prior_mean: MeanFn
    decomp: SpectralDecomp


def fit_gpr(
    data: Dataset,
    params: KernelParams,
    noise: float,
    prior_mean: MeanFn | None = None,
    decomp: SpectralDecomp | None = None,
) -> GprModel:
    """Fit a GP regression model with observation noise `noise`.

    noise = 0 is allowed when the Gram matrix itself is invertible; a singular
    shifted system raises SingularSystemError. A precomputed decomposition of
    the (noiseless) Gram matrix may be passed in to skip refactorization.
    """
    if noise < 0:
        raise ValueError(f"noise must be non-negative, got {noise}")
    mean = prior_mean if prior_mean is not None else zero_mean
    if decomp is None:
        decomp = spectral_decompose(gram(data.xs, params, add_jitter=False))
    resid = data.ys - mean(data.xs)
    alpha = decomp.solve_shifted(resid, noise)
    return GprModel(
        train_xs=data.xs,
        alpha_weights=alpha,
        params=params,
        noise=noise,
        prior_mean=mean,
        decomp=decomp,
    )


def predict_gpr(model: GprModel, test_xs) -> tuple[np.ndarray, np.ndarray]:
    """Posterior predictive mean and covariance at test points.

    Returns (mean (M,), cov (M, M)); the covariance is symmetrized and its
    diagonal clamped at zero to absorb roundoff.
    """
    pts = as_points(test_xs)
    if pts.shape[1] != model.train_xs.shape[1]:
        raise ValueError(
            f"test dimension {pts.shape[1]} does not match training dimension "
            f"{model.train_xs.shape[1]}"
        )
    k_star = kernel_matrix(pts, model.train_xs, model.params)
    mean = model.prior_mean(pts) + k_star @ model.alpha_weights

    k_ss = kernel_matrix(pts, pts, model.params)
    np.fill_diagonal(k_ss, model.params.signal_variance)
    cov = k_ss - k_star @ model.decomp.solve_shifted(k_star.T, model.noise)
    cov = 0.5 * (cov + cov.T)
    diag = np.diag(cov).copy()
    np.fill_diagonal(cov, np.maximum(diag, 0.0))
    return mean, cov


@dataclass(frozen=True)
class PosteriorGP:
    """A GP conditioned on observations at the fixed inputs X = train_xs.

    mean(a) = m(a) + k(a, X) c and cov(a, b) = k(a, b) - k(a, X) M k(X, b),
    with c = weights (N,) and M = inner (N, N) (GPML eqs. 2.24, 3.24). Each
    posterior of a chain that keeps conditioning on X has this form, so the
    record stays the same size however deep the chain is, and evaluating it
    costs the same at every step. Without weights and inner it is the prior
    GP(m, k). cov(a) is symmetrized with its diagonal clamped at 0 to absorb
    roundoff, and var(a) is that clamped diagonal.
    """

    train_xs: np.ndarray
    params: KernelParams
    weights: np.ndarray | None = None
    inner: np.ndarray | None = None
    prior_mean: MeanFn = zero_mean

    def __post_init__(self):
        object.__setattr__(self, "train_xs", as_points(self.train_xs))
        n = len(self.train_xs)
        if self.weights is None:
            object.__setattr__(self, "weights", np.zeros(n))
        if self.inner is None:
            object.__setattr__(self, "inner", np.zeros((n, n)))

    def mean(self, xs) -> np.ndarray:
        pts = as_points(xs)
        return self.prior_mean(pts) + kernel_matrix(pts, self.train_xs, self.params) @ self.weights

    def cov(self, xs1, xs2=None) -> np.ndarray:
        a = as_points(xs1)
        b = a if xs2 is None else as_points(xs2)
        k_ax = kernel_matrix(a, self.train_xs, self.params)
        k_bx = k_ax if xs2 is None else kernel_matrix(b, self.train_xs, self.params)
        values = kernel_matrix(a, b, self.params) - k_ax @ self.inner @ k_bx.T
        if xs2 is None:
            values = 0.5 * (values + values.T)
            np.fill_diagonal(values, np.maximum(np.diag(values), 0.0))
        return values

    def var(self, xs) -> np.ndarray:
        """diag(cov(xs)) without the M x M matrix: sigma_f^2 - rowsum((k(a, X) M) * k(a, X))."""
        k_ax = kernel_matrix(as_points(xs), self.train_xs, self.params)
        quad = np.einsum("ij,ij->i", k_ax @ self.inner, k_ax)
        return np.maximum(self.params.signal_variance - quad, 0.0)

    def condition(self, alpha: np.ndarray, A: np.ndarray) -> PosteriorGP:
        """The posterior after one more step at X, taking this GP as the prior.

        The step's posterior has mean m_t(a) + k_t(a, X) alpha and covariance
        k_t(a, b) - k_t(a, X) A k_t(X, b), where k_t(a, X) = k(a, X)(I - M K);
        hence c + (I - M K) alpha and M + (I - M K) A (I - K M).
        """
        K = kernel_matrix(self.train_xs, self.train_xs, self.params)
        B = np.eye(len(K)) - self.inner @ K
        return replace(self, weights=self.weights + B @ alpha, inner=self.inner + B @ A @ B.T)


def posterior_gp(model: GprModel) -> PosteriorGP:
    """A fitted regression model as a PosteriorGP, e.g. to serve as a further prior."""
    inner = model.decomp.solve_shifted(np.eye(len(model.train_xs)), model.noise)
    return PosteriorGP(model.train_xs, model.params, model.alpha_weights, inner, model.prior_mean)
