"""Ordinary Gaussian process regression: prior, fit, and posterior predictive.

Every posterior, regression or classification, fit or chain, is a PosteriorGP:
weights and a square-root factor R of the inner matrix M = R^T R.
"""

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
    if not 0 <= noise < np.inf:
        raise ValueError(f"noise must be non-negative and finite, got {noise}")
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
    """Posterior predictive mean (M,) and covariance (M, M) at test points (see PosteriorGP)."""
    gp = posterior_gp(model)
    return gp.mean(test_xs), gp.cov(test_xs)


@dataclass(frozen=True)
class PosteriorGP:
    """A GP conditioned on observations at the fixed inputs X = train_xs.

    mean(a) = m(a) + k(a, X) c and cov(a, b) = k(a, b) - k(a, X) M k(X, b),
    with c = weights (N,) and M = R^T R for the square-root factor R (r <= N, N)
    (GPML eqs. 2.24, 3.24). With H = R k(X, a), cov(a, b) = k(a, b) - H_a^T H_b
    and var(a) = sigma_f^2 minus the column sums of H_a^2, so M is never formed
    and the subtracted term is positive semi-definite by construction. Each
    posterior of a chain that keeps conditioning on X has this form, so the
    record stays the same size however deep the chain is, and evaluating it
    costs the same at every step. Without weights and factor it is the prior
    GP(m, k). cov(a) and var(a) clamp the diagonal at 0 to absorb roundoff.
    """

    train_xs: np.ndarray
    params: KernelParams
    weights: np.ndarray | None = None
    factor: np.ndarray | None = None
    prior_mean: MeanFn = zero_mean

    def __post_init__(self):
        pts = as_points(self.train_xs)
        object.__setattr__(self, "train_xs", pts)
        if self.weights is None:
            object.__setattr__(self, "weights", np.zeros(len(pts)))
        if self.factor is None:
            object.__setattr__(self, "factor", np.zeros((0, len(pts))))

    def _root(self, pts: np.ndarray) -> np.ndarray:
        """H = R k(X, pts), shape (r, len(pts))."""
        return self.factor @ kernel_matrix(self.train_xs, pts, self.params)

    def mean(self, xs) -> np.ndarray:
        pts = as_points(xs)
        return self.prior_mean(pts) + kernel_matrix(pts, self.train_xs, self.params) @ self.weights

    def cov(self, xs1, xs2=None) -> np.ndarray:
        a = as_points(xs1)
        b = a if xs2 is None else as_points(xs2)
        h_a = self._root(a)
        h_b = h_a if xs2 is None else self._root(b)
        values = kernel_matrix(a, b, self.params) - h_a.T @ h_b
        if xs2 is None:
            np.fill_diagonal(values, np.maximum(np.diag(values), 0.0))
        return values

    def var(self, xs) -> np.ndarray:
        """diag(cov(xs)) without the M x M matrix."""
        h = self._root(as_points(xs))
        return np.maximum(self.params.signal_variance - np.einsum("ij,ij->j", h, h), 0.0)

    def condition(self, alpha: np.ndarray, factor: np.ndarray) -> PosteriorGP:
        """The posterior after one more step at X, taking this GP as the prior.

        The step's posterior has mean m_t(a) + k_t(a, X) alpha and covariance
        k_t(a, b) - k_t(a, X) A k_t(X, b) with A = factor^T factor, where
        k_t(a, X) = k(a, X)(I - M K). Hence c + (I - M K) alpha, and
        M + (I - M K) A (I - K M) = S^T S for S = [R; factor (I - K M)], which
        the R of a QR decomposition of S replaces, so R stays at most N x N.
        """
        K = kernel_matrix(self.train_xs, self.train_xs, self.params)
        R = self.factor
        weights = self.weights + alpha - R.T @ (R @ (K @ alpha))
        stacked = np.vstack([R, factor - ((factor @ K) @ R.T) @ R])
        return replace(self, weights=weights, factor=np.linalg.qr(stacked, mode="r"))


def posterior_gp(model: GprModel) -> PosteriorGP:
    """A fitted regression model as a PosteriorGP, e.g. to serve as a further prior.

    Its factor comes from the model's spectrum, R = diag(1/sqrt(lambda + noise)) O^T,
    so R^T R = (K + noise*I)^-1 without a further factorization.
    """
    factor = model.decomp.root_inverse_shifted(model.noise)
    return PosteriorGP(model.train_xs, model.params, model.alpha_weights, factor, model.prior_mean)
