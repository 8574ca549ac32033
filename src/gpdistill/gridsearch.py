"""Grid search over RBF hyperparameters by negative marginal log-likelihood.

A sweep computes the squared-distance matrix of the inputs once. For the
regression objective, K(sigma_f, l) = sigma_f^2 K_1(l), so each length scale
is one eigendecomposition of K_1 and one projection p = O^T y, after which a
(sigma_f, noise) cell is O(N) arithmetic on the scaled, shifted spectrum.
Classification cells assemble their Gram matrices from the shared distances,
and the (sigma_f, noise) cells of one length scale run as one stack through
laplace_modes: one Newton loop over all cells of the stack, with each cell's
factorization still its own. The stack's Grams are held as one (cells, N, N)
array. A cell's evidence is its final log posterior psi
minus half the log-determinant of its curvature factor at the mode, so the
likelihood is not evaluated again per cell.
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
    CurvatureFactor,
    HessianNotPositiveDefinite,
    LaplaceFit,
    NewtonDidNotConverge,
    laplace_modes,
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


def _gpr_column(data: Dataset, sq_dists: np.ndarray, length_scale: float,
                sigma_fs, noises) -> dict:
    """(sigma_f, noise) -> NLL or numerical error for every cell of one length scale.

    A failed decomposition fails every cell of the column with its error.
    """
    try:
        spectrum = _unit_spectrum(data, sq_dists, length_scale)
    except NUMERICAL_ERRORS as exc:
        return {(sigma_f, noise): exc for sigma_f in sigma_fs for noise in noises}
    column = {}
    for sigma_f in sigma_fs:
        for noise in noises:
            try:
                column[sigma_f, noise] = spectrum.nll(sigma_f**2, noise)
            except NUMERICAL_ERRORS as exc:
                column[sigma_f, noise] = exc
    return column


def _gpc_column(data: BinaryDataset, sq_dists: np.ndarray, length_scale: float,
                sigma_fs, noises, likelihood: str) -> dict:
    """(sigma_f, noise) -> NLL or numerical error for every cell of one length scale.

    The cells are fitted as one stack, whose Grams are the rows of one
    (cells, N, N) array. With glibc's malloc, freeing an array that large
    raises the size above which allocations get freshly mapped pages, so the
    N x N temporaries of later factorizations reuse memory: a 16 x 16 grid at
    N=300 took 0.08M minor page faults instead of 1.1M with one array per Gram.
    A fit's NLL is -(psi at the mode - log|B| / 2), laplace_marginal_loglik
    bit for bit.
    """
    keys = [(sigma_f, noise) for sigma_f in sigma_fs for noise in noises]
    grams = np.empty((len(keys), *sq_dists.shape))
    for row, (sigma_f, noise) in enumerate(keys):
        params = KernelParams(signal_variance=sigma_f**2, length_scale=length_scale)
        K = gram_from_distances(sq_dists, params, add_jitter=True)
        if noise > 0:
            K = K + noise * np.eye(len(K))
        grams[row] = K
    column = {}
    for key, K, outcome in zip(keys, grams,
                               laplace_modes(data.ys, list(grams), likelihood=likelihood)):
        if isinstance(outcome, LaplaceFit):
            try:
                outcome = -(outcome.psi_path[-1]
                            - 0.5 * CurvatureFactor(K, outcome.w_diag).logdet())
            except HessianNotPositiveDefinite as exc:
                outcome = exc
        column[key] = outcome
    return column


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
    propagate. Work goes by length scale: for gpr_nll one decomposition, whose
    failure fails the whole column with the same error; for the classification
    objectives one stack of Laplace fits.
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
    sigma_fs, noises = sorted(set(grid.sigma_f_values)), sorted(set(noise_axis))
    likelihood = BERNOULLI if objective == "gpc_bernoulli_nll" else CONTINUOUS_BERNOULLI
    # (sigma_f, length scale, noise) -> the cell's NLL or the numerical error that it raised
    outcomes: dict[tuple[float, float, float], float | Exception] = {}
    for length_scale in sorted(set(grid.length_scale_values)):
        if objective == "gpr_nll":
            column = _gpr_column(data, sq_dists, length_scale, sigma_fs, noises)
        else:
            column = _gpc_column(data, sq_dists, length_scale, sigma_fs, noises, likelihood)
        for (sigma_f, noise), outcome in column.items():
            outcomes[sigma_f, length_scale, noise] = outcome

    cells: list[GridCell] = []
    best: GridCell | None = None
    last_error: Exception | None = None
    for sigma_f in sorted(grid.sigma_f_values):
        for length_scale in sorted(grid.length_scale_values):
            for noise in sorted(noise_axis):
                nll = outcomes[sigma_f, length_scale, noise]
                if isinstance(nll, Exception):
                    nll, failure, last_error = math.inf, f"{type(nll).__name__}: {nll}", nll
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
