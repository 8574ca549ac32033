"""Ordinary Gaussian process regression: fit and posterior predictive.

Every posterior, regression or classification, fit or chain, is a PosteriorGP:
weights and a square-root factor R of the inner matrix M = R^T R. A Laplace
posterior may hold its curvature factor instead, and forms R from it only when
a variance is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .kernels import (
    KernelParams,
    SpectralDecomp,
    as_points,
    gram,
    kernel_matrix,
    spectral_decompose,
)

if TYPE_CHECKING:
    from .laplace import CurvatureFactor


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
class PosteriorGP:
    """A GP conditioned on observations at the fixed inputs X = train_xs.

    mean(a) = k(a, X) c and cov(a, b) = k(a, b) - k(a, X) M k(X, b),
    with c = weights (N,) and M = R^T R for the square-root factor R (r <= N, N)
    (GPML eqs. 2.24, 3.24). With H = R k(X, a), cov(a, b) = k(a, b) - H_a^T H_b
    and var(a) = sigma_f^2 minus the column sums of H_a^2, so M is never formed
    and the subtracted term is positive semi-definite by construction. Each
    posterior of a chain that keeps conditioning on X has this form, so the
    record stays the same size however deep the chain is, and evaluating it
    costs the same at every step. Without weights and factor it is the prior
    GP(0, k). cov(a) and var(a) clamp the diagonal at 0 to absorb roundoff.

    The factor may also be deferred: an object whose `.half` is R, such as
    the laplace.CurvatureFactor that laplace.gpc_posterior hands over. The
    first cov, var or condition (through root_factor) forms R from it and
    stores R in its place, so the record holds one N x N factor either way,
    every output is the same bit for bit, and a posterior that is only read
    through its mean never pays the O(N^3) inverse.
    """

    train_xs: np.ndarray
    params: KernelParams
    weights: np.ndarray | None = None
    factor: np.ndarray | CurvatureFactor | None = None

    def __post_init__(self):
        pts = as_points(self.train_xs)
        object.__setattr__(self, "train_xs", pts)
        if self.weights is None:
            object.__setattr__(self, "weights", np.zeros(len(pts)))
        if self.factor is None:
            object.__setattr__(self, "factor", np.zeros((0, len(pts))))

    def root_factor(self) -> np.ndarray:
        """R, formed from a deferred factor's .half on first use and kept in its place."""
        if not isinstance(self.factor, np.ndarray):
            object.__setattr__(self, "factor", self.factor.half)
        return self.factor

    def _root(self, pts: np.ndarray) -> np.ndarray:
        """H = R k(X, pts), shape (r, len(pts))."""
        return self.root_factor() @ kernel_matrix(self.train_xs, pts, self.params)

    def mean(self, xs) -> np.ndarray:
        pts = as_points(xs)
        return kernel_matrix(pts, self.train_xs, self.params) @ self.weights

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
        R = self.root_factor()
        weights = self.weights + alpha - R.T @ (R @ (K @ alpha))
        stacked = np.vstack([R, factor - ((factor @ K) @ R.T) @ R])
        return replace(self, weights=weights, factor=np.linalg.qr(stacked, mode="r"))


def fit_gpr(
    data: Dataset,
    params: KernelParams,
    noise: float,
    decomp: SpectralDecomp | None = None,
) -> PosteriorGP:
    """The posterior of GP(0, k) after observing `data` with noise `noise`.

    Weights c = (K + noise*I)^-1 y and factor R = diag(1/sqrt(lambda + noise)) O^T, both
    from the spectrum of the noiseless K, which `decomp` may supply. noise = 0 is allowed
    when K is invertible; a singular shifted system raises SingularSystemError.
    """
    if not 0 <= noise < np.inf:
        raise ValueError(f"noise must be non-negative and finite, got {noise}")
    if decomp is None:
        decomp = spectral_decompose(gram(data.xs, params, add_jitter=False))
    return PosteriorGP(data.xs, params, decomp.solve_shifted(data.ys, noise),
                       decomp.root_inverse_shifted(noise))


def predict_gpr(gp: PosteriorGP, test_xs) -> tuple[np.ndarray, np.ndarray]:
    """Posterior predictive mean (M,) and covariance (M, M) at test points."""
    return gp.mean(test_xs), gp.cov(test_xs)
