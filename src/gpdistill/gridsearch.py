"""Grid search over RBF hyperparameters by negative marginal log-likelihood."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gpr import Dataset
from .kernels import (
    IndefiniteKernelError,
    KernelParams,
    SingularSystemError,
    gram,
    spectral_decompose,
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
            if any(v <= 0 for v in axis):
                raise ValueError(f"{name} must be positive, got {axis}")


@dataclass(frozen=True)
class GridCell:
    sigma_f: float
    length_scale: float
    noise: float
    nll: float


@dataclass(frozen=True)
class GridSearchResult:
    best_params: KernelParams
    best_noise: float
    best_nll: float
    cells: tuple[GridCell, ...]


def gpr_marginal_nll(data: Dataset, params: KernelParams, noise: float) -> float:
    """Exact negative log marginal density of y under N(0, K + noise*I)."""
    decomp = spectral_decompose(gram(data.xs, params, add_jitter=False))
    quad = float(data.ys @ decomp.solve_shifted(data.ys, noise))
    logdet = decomp.logdet_shifted(noise)
    return 0.5 * (quad + logdet + data.n * math.log(2.0 * math.pi))


def _cell_nll(data, params: KernelParams, noise: float, objective: str) -> float:
    if objective == "gpr_nll":
        return gpr_marginal_nll(data, params, noise)
    likelihood = BERNOULLI if objective == "gpc_bernoulli_nll" else CONTINUOUS_BERNOULLI
    K = gram(data.xs, params, add_jitter=True)
    if noise > 0:
        K = K + noise * np.eye(len(K))
    fit = laplace_mode(data.ys, K, likelihood=likelihood)
    return -laplace_marginal_loglik(fit, K, data.ys)


def grid_search(
    data,
    grid: GridSpec,
    objective: str,
    jitter: float = 1e-8,
    fixed_noise: float = 0.0,
) -> GridSearchResult:
    """Exhaustive sweep returning the argmin cell and the full grid.

    Ties break toward the smallest sigma_f, then the smallest length scale,
    then the smallest noise, which the iteration order guarantees. Cells whose
    fit fails numerically record +inf rather than aborting the sweep (grid
    corners frequently break Newton convergence); other errors propagate.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if objective != "gpr_nll" and not isinstance(data, BinaryDataset):
        raise ValueError(f"{objective} requires a BinaryDataset")
    if objective == "gpr_nll" and not isinstance(data, Dataset):
        raise ValueError("gpr_nll requires a Dataset")
    noise_axis = grid.noise_values if grid.noise_values is not None else (fixed_noise,)

    cells: list[GridCell] = []
    best: GridCell | None = None
    last_error: Exception | None = None
    for sigma_f in sorted(grid.sigma_f_values):
        for length_scale in sorted(grid.length_scale_values):
            for noise in sorted(noise_axis):
                params = KernelParams(
                    signal_variance=sigma_f**2, length_scale=length_scale, jitter=jitter
                )
                try:
                    nll = _cell_nll(data, params, noise, objective)
                    if not np.isfinite(nll):
                        nll = math.inf
                except NUMERICAL_ERRORS as exc:
                    nll = math.inf
                    last_error = exc
                cell = GridCell(sigma_f=sigma_f, length_scale=length_scale, noise=noise, nll=nll)
                cells.append(cell)
                if best is None or cell.nll < best.nll:
                    best = cell
    if best is None or not math.isfinite(best.nll):
        reason = f"; last failure: {last_error}" if last_error is not None else ""
        raise GridSearchFailed(
            f"every grid cell failed to produce a finite objective{reason}"
        ) from last_error
    best_params = KernelParams(
        signal_variance=best.sigma_f**2, length_scale=best.length_scale, jitter=jitter
    )
    return GridSearchResult(
        best_params=best_params,
        best_noise=best.noise,
        best_nll=best.nll,
        cells=tuple(cells),
    )
