"""RBF kernel evaluation, Gram assembly, and symmetric spectral decomposition.

Kernel matrices are assembled from one scipy `cdist` "sqeuclidean" pass
(`squared_distances`), finished in place by `finish_kernel` (scale, exp,
multiply by the signal variance), so no (M, N, d) difference array is ever
built. A hyperparameter sweep computes the distances once and finishes a copy
per setting (`gram_from_distances`). For d <= 7 the result is bit for bit
the broadcast formula sum((a - b)**2); from d = 8 numpy's pairwise summation
can differ from it by one ulp in the squared distance.

Regression fits run their linear algebra through the eigendecomposition of the
noiseless training Gram matrix, so the decomposition type carries the
shifted-solve and spectral-filter primitives the regression chains build on.
Classification fits factor (K, w) instead (laplace.CurvatureFactor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .counters import COUNTS

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


def signal_variance_of(sigma_f: float, name: str) -> float:
    """sigma_f**2, or a ValueError naming `name` unless sigma_f is positive and finite
    and its square is a positive finite float (1e200 overflows, 1e-300 underflows)."""
    if not 0 < sigma_f < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {sigma_f}")
    try:
        variance = sigma_f**2
    except OverflowError:
        variance = np.inf
    if not 0 < variance < np.inf:
        raise ValueError(f"{name} must square to a positive finite float, got {sigma_f}")
    return variance


def squared_distances(xs1, xs2) -> np.ndarray:
    """Pairwise squared Euclidean distances ||a - b||^2, shape (N, M)."""
    a = as_points(xs1)
    b = as_points(xs2)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"point dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    return cdist(a, b, "sqeuclidean")


def finish_kernel(sq_dists: np.ndarray, params: KernelParams, out=None) -> np.ndarray:
    """RBF values from squared distances: scale, exp, then multiply by the signal variance.

    Writes into `out` when given (which may be `sq_dists` itself), else into a
    new array, so a distance matrix shared across hyperparameters stays intact.
    """
    # a tiny length scale can overflow the ratio to -inf; exp then gives 0, the
    # kernel value in floating point, so the overflow is not an error
    with np.errstate(over="ignore"):
        values = np.divide(sq_dists, -2.0 * params.length_scale, out=out)
    np.exp(values, out=values)
    values *= params.signal_variance
    return values


def kernel_matrix(xs1, xs2, params: KernelParams) -> np.ndarray:
    """Cross kernel matrix k(xs1, xs2^T), shape (N, M). Never includes jitter."""
    values = squared_distances(xs1, xs2)
    return finish_kernel(values, params, out=values)


def _set_gram_diagonal(values: np.ndarray, params: KernelParams, add_jitter: bool) -> np.ndarray:
    np.fill_diagonal(values, params.signal_variance + (params.jitter if add_jitter else 0.0))
    return values


def gram(xs, params: KernelParams, add_jitter: bool = False) -> np.ndarray:
    """Assemble the N x N Gram matrix of a point set.

    The diagonal is set to exactly signal_variance (+ jitter when requested)
    so that roundoff in the pairwise distances cannot leak into it.
    """
    pts = as_points(xs)
    if len(pts) < 1:
        raise ValueError("gram requires at least one input point")
    return _set_gram_diagonal(kernel_matrix(pts, pts, params), params, add_jitter)


def gram_from_distances(sq_dists: np.ndarray, params: KernelParams,
                        add_jitter: bool = False) -> np.ndarray:
    """`gram` of a point set from its squared_distances(xs, xs), bit for bit; sq_dists is kept."""
    return _set_gram_diagonal(finish_kernel(sq_dists, params), params, add_jitter)


def shift_spectrum(eigenvalues: np.ndarray, shift: float) -> np.ndarray:
    """Eigenvalues of K + shift*I from those of K; SingularSystemError unless all are positive."""
    shifted = eigenvalues + shift
    if np.min(shifted) <= 0.0:
        raise SingularSystemError(
            f"K + {shift}*I is singular (smallest shifted eigenvalue {np.min(shifted):g})"
        )
    return shifted


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigendecomposition K = O diag(eigenvalues) O^T with eigenvalues sorted non-increasing.

    Eigenvalues are clamped to be non-negative (see spectral_decompose), so the
    shifted solves below are well-defined whenever shift > 0. `clamped` counts
    the eigenvalues that were raised to 0, and `most_negative` is the smallest
    of them before the clamp (0.0 when none was).
    """

    eigenvectors: np.ndarray  # columns are eigenvectors
    eigenvalues: np.ndarray
    clamped: int = 0
    most_negative: float = 0.0

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def apply_filter(self, coeffs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Apply O diag(coeffs) O^T to rhs (vector or matrix)."""
        proj = self.eigenvectors.T @ rhs
        if rhs.ndim == 1:
            return self.eigenvectors @ (coeffs * proj)
        return self.eigenvectors @ (coeffs[:, None] * proj)

    def solve_shifted(self, rhs: np.ndarray, shift: float) -> np.ndarray:
        """Solve (K + shift*I) x = rhs through the eigenbasis."""
        return self.apply_filter(1.0 / shift_spectrum(self.eigenvalues, shift), rhs)

    def root_inverse_shifted(self, shift: float) -> np.ndarray:
        """R = diag(1/sqrt(lambda + shift)) O^T, so that R^T R = (K + shift*I)^-1."""
        return self.eigenvectors.T / np.sqrt(shift_spectrum(self.eigenvalues, shift))[:, None]


def spectral_decompose(K) -> SpectralDecomp:
    """Eigendecompose a symmetric PSD matrix, clamping roundoff-negative eigenvalues to zero.

    Eigenvalues below -EIG_CLAMP_REL * lambda_max signal a genuinely indefinite
    matrix (a bug upstream, not roundoff) and raise IndefiniteKernelError.
    """
    values = np.asarray(K, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {values.shape}")
    # exact symmetry (every gram output) skips the N x N difference below
    if not np.array_equal(values, values.T):
        scale = np.max(np.abs(values))
        if scale > 0 and np.max(np.abs(values - values.T)) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric to within 1e-12 relative tolerance")
    COUNTS["eighs"] += 1
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
    clamped = int(np.count_nonzero(eigvals < 0.0))
    return SpectralDecomp(eigenvectors=eigvecs, eigenvalues=np.maximum(eigvals, 0.0),
                          clamped=clamped, most_negative=float(eigvals[-1]) if clamped else 0.0)
