"""Grid search over RBF hyperparameters by negative marginal log-likelihood.

A sweep computes the squared-distance matrix of the inputs once. For the
regression objective, K(sigma_f, l) = sigma_f^2 K_1(l), so each length scale
is one eigendecomposition of K_1 and one projection p = O^T y, after which a
(sigma_f, noise) cell is O(N) arithmetic on the scaled, shifted spectrum.
Classification cells assemble their Gram matrix from the shared distances and
run a Laplace fit each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gpr import Dataset
from .kernels import (
    IndefiniteKernelError,
    KernelParams,
    SingularSystemError,
    gram_from_distances,
    shift_spectrum,
    signal_variance_of,
    spectral_decompose,
    squared_distances,
)
from .laplace import (
    BERNOULLI,
    CONTINUOUS_BERNOULLI,
    BinaryDataset,
    HessianNotPositiveDefinite,
    NewtonDidNotConverge,
    laplace_marginal_loglik,
    laplace_mode,
)

OBJECTIVES = ("gpr_nll", "gpc_bernoulli_nll", "gpc_cb_nll")

# Used when the caller supplies no explicit axes; runs record the resolved
# values in their manifests.
DEFAULT_GRID_AXIS = tuple(np.logspace(-2, 2, 16))


class GridSearchFailed(RuntimeError):
    """No grid cell produced a finite objective; chained from the last cell's error."""


# Failures of a fit that a sweep records as +inf; anything else is a bug and propagates.
NUMERICAL_ERRORS = (
    SingularSystemError,
    IndefiniteKernelError,
    NewtonDidNotConverge,
    HessianNotPositiveDefinite,
    GridSearchFailed,
    np.linalg.LinAlgError,
)


@dataclass(frozen=True)
class GridSpec:
    """Axes of the hyperparameter grid; the noise axis is optional."""

    sigma_f_values: tuple[float, ...]
    length_scale_values: tuple[float, ...]
    noise_values: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "sigma_f_values", tuple(float(v) for v in self.sigma_f_values))
        object.__setattr__(
            self, "length_scale_values", tuple(float(v) for v in self.length_scale_values)
        )
        if self.noise_values is not None:
            object.__setattr__(self, "noise_values", tuple(float(v) for v in self.noise_values))
        for name, axis in (
            ("sigma_f_values", self.sigma_f_values),
            ("length_scale_values", self.length_scale_values),
            ("noise_values", self.noise_values),
        ):
            if axis is None:
                continue
            if len(axis) == 0:
                raise ValueError(f"{name} must be non-empty")
            if not all(0 < v < np.inf for v in axis):
                raise ValueError(f"{name} must be positive and finite, got {axis}")
        # every cell squares sigma_f, so the square must be a usable signal variance too
        for sigma_f in self.sigma_f_values:
            signal_variance_of(sigma_f, "sigma_f_values")


@dataclass(frozen=True)
class GridCell:
    """One grid cell; `failure` is "ExceptionType: message" for an inf cell and "" otherwise."""

    sigma_f: float
    length_scale: float
    noise: float
    nll: float
    failure: str


@dataclass(frozen=True)
class GridSearchResult:
    best_params: KernelParams
    best_noise: float
    best_nll: float
    cells: tuple[GridCell, ...]


@dataclass(frozen=True)
class _UnitSpectrum:
    """The spectrum of K_1 = k(X, X) at sigma_f = 1 for one length scale, with y projected on it.

    Scaling by a signal variance s and shifting by a noise leaves the
    eigenvectors O alone, so every (s, noise) cell of the column reads the same
    eigenvalues and squared projections (O^T y)^2.
    """

    eigenvalues: np.ndarray
    proj_sq: np.ndarray

    def nll(self, signal_variance: float, noise: float) -> float:
        """0.5 * (y^T (s K_1 + noise I)^-1 y + log det(s K_1 + noise I) + N log 2 pi)."""
        with np.errstate(over="ignore"):  # an overflowing scale makes a non-finite cell
            scaled = signal_variance * self.eigenvalues
        shifted = shift_spectrum(scaled, noise)
        quad = float(np.sum(self.proj_sq / shifted))
        logdet = float(np.sum(np.log(shifted)))
        return 0.5 * (quad + logdet + len(shifted) * math.log(2.0 * math.pi))


def _unit_spectrum(data: Dataset, sq_dists: np.ndarray, length_scale: float) -> _UnitSpectrum:
    """One eigendecomposition of K_1 at this length scale, from the shared squared distances."""
    unit = KernelParams(signal_variance=1.0, length_scale=length_scale)
    decomp = spectral_decompose(gram_from_distances(sq_dists, unit, add_jitter=False))
    return _UnitSpectrum(decomp.eigenvalues, (decomp.eigenvectors.T @ data.ys) ** 2)


def gpr_marginal_nll(data: Dataset, params: KernelParams, noise: float) -> float:
    """Exact negative log marginal density of y under N(0, K + noise*I): a one-cell sweep."""
    spectrum = _unit_spectrum(data, squared_distances(data.xs, data.xs), params.length_scale)
    return spectrum.nll(params.signal_variance, noise)


def _gpc_cell_nll(data: BinaryDataset, sq_dists: np.ndarray, params: KernelParams,
                  noise: float, objective: str) -> float:
    likelihood = BERNOULLI if objective == "gpc_bernoulli_nll" else CONTINUOUS_BERNOULLI
    K = gram_from_distances(sq_dists, params, add_jitter=True)
    if noise > 0:
        K = K + noise * np.eye(len(K))
    fit = laplace_mode(data.ys, K, likelihood=likelihood)
    return -laplace_marginal_loglik(fit, K, data.ys)


def grid_search(
    data,
    grid: GridSpec,
    objective: str,
    fixed_noise: float = 0.0,
) -> GridSearchResult:
    """Exhaustive sweep returning the argmin cell and the full grid.

    Ties break toward the smallest sigma_f, then the smallest length scale,
    then the smallest noise, which the iteration order guarantees. Cells whose
    fit fails numerically record +inf and the failure rather than aborting the
    sweep (grid corners frequently break Newton convergence); other errors
    propagate. For gpr_nll a failed decomposition fails its whole length-scale
    column with the same error.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if objective != "gpr_nll" and not isinstance(data, BinaryDataset):
        raise ValueError(f"{objective} requires a BinaryDataset")
    if objective == "gpr_nll" and not isinstance(data, Dataset):
        raise ValueError("gpr_nll requires a Dataset")
    if not 0 <= fixed_noise < np.inf:
        raise ValueError(f"fixed_noise must be non-negative and finite, got {fixed_noise}")
    noise_axis = grid.noise_values if grid.noise_values is not None else (fixed_noise,)

    sq_dists = squared_distances(data.xs, data.xs)
    # gpr_nll: length scale -> its _UnitSpectrum, or the numerical error that decomposing raised
    columns: dict[float, _UnitSpectrum | Exception] = {}
    if objective == "gpr_nll":
        for length_scale in sorted(set(grid.length_scale_values)):
            try:
                columns[length_scale] = _unit_spectrum(data, sq_dists, length_scale)
            except NUMERICAL_ERRORS as exc:
                columns[length_scale] = exc

    cells: list[GridCell] = []
    best: GridCell | None = None
    last_error: Exception | None = None
    for sigma_f in sorted(grid.sigma_f_values):
        for length_scale in sorted(grid.length_scale_values):
            params = KernelParams(signal_variance=sigma_f**2, length_scale=length_scale)
            column = columns.get(length_scale)  # None for the classification objectives
            for noise in sorted(noise_axis):
                nll, error = math.inf, column if isinstance(column, Exception) else None
                if error is None:
                    try:
                        if column is None:
                            nll = _gpc_cell_nll(data, sq_dists, params, noise, objective)
                        else:
                            nll = column.nll(params.signal_variance, noise)
                    except NUMERICAL_ERRORS as exc:
                        error = exc
                if error is not None:
                    failure, last_error = f"{type(error).__name__}: {error}", error
                elif np.isfinite(nll):
                    failure = ""
                else:
                    nll, failure = math.inf, f"non-finite objective {nll}"
                cell = GridCell(sigma_f=sigma_f, length_scale=length_scale, noise=noise,
                                nll=nll, failure=failure)
                cells.append(cell)
                if best is None or cell.nll < best.nll:
                    best = cell
    if best is None or not math.isfinite(best.nll):
        reason = f"; last failure: {last_error}" if last_error is not None else ""
        raise GridSearchFailed(
            f"every grid cell failed to produce a finite objective{reason}"
        ) from last_error
    best_params = KernelParams(signal_variance=best.sigma_f**2, length_scale=best.length_scale)
    return GridSearchResult(
        best_params=best_params,
        best_noise=best.noise,
        best_nll=best.nll,
        cells=tuple(cells),
    )
