"""RBF kernel evaluation, Gram assembly, and symmetric spectral decomposition.

Regression fits run their linear algebra through the eigendecomposition of the
noiseless training Gram matrix, so the decomposition type carries the
shifted-solve and spectral-filter primitives the regression chains build on.
Classification fits factor (K, w) instead (laplace.CurvatureFactor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_JITTER = 1e-8

# Negative eigenvalues within this fraction of the top eigenvalue are treated
# as roundoff and clamped; anything more negative is a real indefiniteness.
EIG_CLAMP_REL = 1e-10


class IndefiniteKernelError(np.linalg.LinAlgError):
    """A supposedly-PSD Gram matrix has an eigenvalue too negative to be roundoff."""


class SingularSystemError(np.linalg.LinAlgError):
    """A shifted system K + gamma*I is numerically singular."""


def as_points(xs) -> np.ndarray:
    """Coerce input locations to a float (N, d) array; 1-D input means d=1."""
    pts = np.asarray(xs, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"input points must be 1-D or 2-D, got shape {pts.shape}")
    return pts


@dataclass(frozen=True)
class KernelParams:
    """RBF hyperparameters: k(a, b) = signal_variance * exp(-||a - b||^2 / (2 * length_scale)).

    jitter is the small diagonal constant added to Gram matrices on request to
    keep them numerically invertible.
    """

    signal_variance: float
    length_scale: float
    jitter: float = DEFAULT_JITTER

    def __post_init__(self):
        sv, ls, jitter = self.signal_variance, self.length_scale, self.jitter
        if not 0 < sv < np.inf:
            raise ValueError(f"signal_variance must be positive and finite, got {sv}")
        if not 0 < ls < np.inf:
            raise ValueError(f"length_scale must be positive and finite, got {ls}")
        if not 0 <= jitter < np.inf:
            raise ValueError(f"jitter must be non-negative and finite, got {jitter}")


def rbf_kernel(x1, x2, params: KernelParams) -> float:
    """Evaluate the RBF kernel between two points."""
    a = np.asarray(x1, dtype=float).ravel()
    b = np.asarray(x2, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"point dimensions differ: {a.shape} vs {b.shape}")
    sq = float(np.sum((a - b) ** 2))
    return params.signal_variance * float(np.exp(-sq / (2.0 * params.length_scale)))


def kernel_matrix(xs1, xs2, params: KernelParams) -> np.ndarray:
    """Cross kernel matrix k(xs1, xs2^T), shape (N, M). Never includes jitter."""
    a = as_points(xs1)
    b = as_points(xs2)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"point dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    sq = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    return params.signal_variance * np.exp(-sq / (2.0 * params.length_scale))


def gram(xs, params: KernelParams, add_jitter: bool = False) -> np.ndarray:
    """Assemble the N x N Gram matrix of a point set.

    The diagonal is set to exactly signal_variance (+ jitter when requested)
    so that roundoff in the pairwise distances cannot leak into it.
    """
    pts = as_points(xs)
    if len(pts) < 1:
        raise ValueError("gram requires at least one input point")
    values = kernel_matrix(pts, pts, params)
    diag = params.signal_variance + (params.jitter if add_jitter else 0.0)
    np.fill_diagonal(values, diag)
    return values


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigendecomposition K = O diag(eigenvalues) O^T with eigenvalues sorted non-increasing.

    Eigenvalues are clamped to be non-negative (see spectral_decompose), so the
    shifted solves below are well-defined whenever shift > 0.
    """

    eigenvectors: np.ndarray  # columns are eigenvectors
    eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T

    def apply_filter(self, coeffs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Apply O diag(coeffs) O^T to rhs (vector or matrix)."""
        proj = self.eigenvectors.T @ rhs
        if rhs.ndim == 1:
            return self.eigenvectors @ (coeffs * proj)
        return self.eigenvectors @ (coeffs[:, None] * proj)

    def solve_shifted(self, rhs: np.ndarray, shift: float) -> np.ndarray:
        """Solve (K + shift*I) x = rhs through the eigenbasis."""
        shifted = self.eigenvalues + shift
        if np.min(shifted) <= 0.0:
            raise SingularSystemError(
                f"K + {shift}*I is singular (smallest shifted eigenvalue {np.min(shifted):g})"
            )
        return self.apply_filter(1.0 / shifted, rhs)

    def logdet_shifted(self, shift: float) -> float:
        shifted = self.eigenvalues + shift
        if np.min(shifted) <= 0.0:
            raise SingularSystemError(
                f"K + {shift}*I is singular (smallest shifted eigenvalue {np.min(shifted):g})"
            )
        return float(np.sum(np.log(shifted)))


def spectral_decompose(K) -> SpectralDecomp:
    """Eigendecompose a symmetric PSD matrix, clamping roundoff-negative eigenvalues to zero.

    Eigenvalues below -EIG_CLAMP_REL * lambda_max signal a genuinely indefinite
    matrix (a bug upstream, not roundoff) and raise IndefiniteKernelError.
    """
    values = np.asarray(K, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {values.shape}")
    scale = np.max(np.abs(values))
    if scale > 0 and np.max(np.abs(values - values.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric to within 1e-12 relative tolerance")
    eigvals, eigvecs = np.linalg.eigh(values)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    lam_max = max(eigvals[0], 0.0)
    threshold = EIG_CLAMP_REL * lam_max
    if eigvals[-1] < -threshold:
        raise IndefiniteKernelError(
            f"eigenvalue {eigvals[-1]:g} below -{EIG_CLAMP_REL:g} * lambda_max ({lam_max:g}); "
            "matrix is not PSD"
        )
    return SpectralDecomp(eigenvectors=eigvecs, eigenvalues=np.maximum(eigvals, 0.0))
