"""Self-distillation for GP regression.

Two procedures are implemented side by side:

* data-centric: each step refits a zero-mean GP to the previous step's mean
  predictions at the training inputs. A naive path iterates literal matrix
  solves; a spectral fast path reuses one eigendecomposition and reduces every
  extra step to a diagonal update. Both must agree to high precision, so each
  serves as the other's oracle.
* distribution-centric: each step uses the previous posterior GP as the prior.
  The literal recursion is kept, one conditioning of a fixed-size PosteriorGP
  per step, alongside its closed-form solution, which collapses any number of
  steps into one ordinary fit with a pooled effective noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gpr import Dataset, PosteriorGP, fit_gpr, predict_gpr
from .kernels import (
    KernelParams,
    SingularSystemError,
    SpectralDecomp,
    as_points,
    gram,
    kernel_matrix,
    spectral_decompose,
)

REPLICATION_ROW_CAP = 2000


@dataclass(frozen=True)
class DistillSchedule:
    """Per-step noise parameters, plus an optional weighting of the original targets.

    For the data-centric iteration gammas are the step noises gamma_1..gamma_T;
    for the distribution-centric recursion they are gamma_0..gamma_{T-1}.
    """

    gammas: tuple[float, ...]
    mix_alpha: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if len(self.gammas) < 1:
            raise ValueError("schedule must contain at least one noise parameter")
        if not all(0 < g < np.inf for g in self.gammas):
            raise ValueError(f"all noise parameters must be positive and finite, got {self.gammas}")
        if self.mix_alpha is not None and not 0.0 < self.mix_alpha < 1.0:
            raise ValueError(f"mix_alpha must lie strictly inside (0, 1), got {self.mix_alpha}")

    def __len__(self) -> int:
        return len(self.gammas)


@dataclass(frozen=True)
class EffectiveNoise:
    """Running reciprocal-noise sum and the single equivalent noise parameter.

    gamma_minus after t steps is sum_{s=0}^{t-1} 1/gamma_s; one fit with noise
    1/gamma_minus reproduces the whole distribution-centric chain. The
    pre-distillation state (t = 0) has gamma_minus = 0 and no finite effective
    noise, i.e. the prior itself.
    """

    gamma_minus: float
    effective: float


def effective_noise(schedule: DistillSchedule, t: int) -> EffectiveNoise:
    """Pooled effective noise after t distribution-centric steps (t >= 1)."""
    if t < 1:
        raise ValueError(f"step count must be >= 1, got {t}")
    if t > len(schedule):
        raise ValueError(f"step count {t} exceeds schedule length {len(schedule)}")
    gamma_minus = float(sum(1.0 / g for g in schedule.gammas[:t]))
    return EffectiveNoise(gamma_minus=gamma_minus, effective=1.0 / gamma_minus)


# ---------------------------------------------------------------------------
# data-centric
# ---------------------------------------------------------------------------


def data_centric_targets_naive(
    data: Dataset, params: KernelParams, schedule: DistillSchedule
) -> list[np.ndarray]:
    """Iterated mean targets y_1..y_T, one literal solve of (K + gamma_t I) per step.

    With mix_alpha set, step t refits to alpha*y + (1-alpha)*y_{t-1} instead of
    y_{t-1} alone.
    """
    K = gram(data.xs, params, add_jitter=False)
    n = data.n
    y0 = data.ys
    targets = []
    y_prev = y0
    for gamma_t in schedule.gammas:
        train = y_prev
        if schedule.mix_alpha is not None:
            train = schedule.mix_alpha * y0 + (1.0 - schedule.mix_alpha) * y_prev
        try:
            solved = np.linalg.solve(K + gamma_t * np.eye(n), train)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"K + {gamma_t}*I is singular") from exc
        y_prev = K @ solved
        targets.append(y_prev)
    return targets


def data_centric_targets_fast(
    decomp: SpectralDecomp,
    y: np.ndarray,
    schedule: DistillSchedule,
    steps: int | None = None,
) -> np.ndarray:
    """Final distilled targets y_T through the eigenbasis of the noiseless K.

    Each step contributes a diagonal factor d_i / (d_i + gamma_s); the product
    over steps is accumulated once and applied to y. steps = 0 means no
    distillation and returns y unchanged. Mixed targets have no spectral
    product form, so mix_alpha is rejected here.
    """
    if schedule.mix_alpha is not None:
        raise ValueError("the spectral fast path does not support mix_alpha; use the naive path")
    y = np.asarray(y, dtype=float).ravel()
    if steps is None:
        steps = len(schedule)
    if steps < 0 or steps > len(schedule):
        raise ValueError(f"steps must lie in [0, {len(schedule)}], got {steps}")
    if steps == 0:
        return y.copy()
    lam = decomp.eigenvalues
    coeff = np.ones_like(lam)
    for gamma_s in schedule.gammas[:steps]:
        coeff *= lam / (lam + gamma_s)
    return decomp.apply_filter(coeff, y)


def data_centric_train_cov(decomp: SpectralDecomp, gamma_t: float) -> np.ndarray:
    """Step-t posterior covariance at the training inputs: K - K (K + gamma_t I)^-1 K.

    Depends on gamma_t only, regardless of how many steps preceded it.
    """
    lam = decomp.eigenvalues
    coeff = lam - lam**2 / (lam + gamma_t)
    return decomp.apply_filter(coeff, np.eye(decomp.n))


def data_centric_predict(
    data: Dataset,
    params: KernelParams,
    schedule: DistillSchedule,
    test_xs,
    step: int | None = None,
    decomp: SpectralDecomp | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior predictive mean and covariance after `step` data-centric steps.

    The step-t predictive law is that of an ordinary zero-mean GPR with noise
    gamma_t trained on the step t-1 targets, so the covariance does not depend
    on the earlier schedule entries at all.
    """
    if step is None:
        step = len(schedule)
    if step < 1 or step > len(schedule):
        raise ValueError(f"step must lie in [1, {len(schedule)}], got {step}")
    if decomp is None:
        decomp = spectral_decompose(gram(data.xs, params, add_jitter=False))
    if schedule.mix_alpha is None:
        y_prev = data_centric_targets_fast(decomp, data.ys, schedule, steps=step - 1)
    else:
        history = data_centric_targets_naive(data, params, schedule)
        y_prev = data.ys if step == 1 else history[step - 2]
    gamma_t = schedule.gammas[step - 1]
    model = fit_gpr(Dataset(data.xs, y_prev), params, noise=gamma_t, decomp=decomp)
    return predict_gpr(model, test_xs)


# ---------------------------------------------------------------------------
# distribution-centric
# ---------------------------------------------------------------------------


def distribution_centric_recursive(
    data: Dataset, params: KernelParams, schedule: DistillSchedule, steps: int
) -> list[PosteriorGP]:
    """Literal posterior-becomes-prior recursion; returns the GP after each step.

    Step t conditions the step t-1 posterior on the original data with noise
    gamma_{t-1}, through the Cholesky factor of its own K_t + gamma_{t-1} I at
    the training inputs. Kept deliberately independent of the closed form below
    so the two can cross-check each other.
    """
    if steps < 1 or steps > len(schedule):
        raise ValueError(f"steps must lie in [1, {len(schedule)}], got {steps}")
    xs = data.xs
    eye = np.eye(data.n)
    current = PosteriorGP(xs, params)
    out = []
    for gamma in schedule.gammas[:steps]:
        try:
            chol = np.linalg.cholesky(current.cov(xs) + gamma * eye)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"K_t + {gamma}*I is not positive definite") from exc
        # (K_t + gamma I)^-1 = L^-T L^-1, so L^-1 is the step's square-root factor
        chol_inv = np.linalg.inv(chol)
        alpha = chol_inv.T @ (chol_inv @ (data.ys - current.mean(xs)))
        current = current.condition(alpha, chol_inv)
        out.append(current)
    return out


def distribution_centric_closed_form(
    data: Dataset,
    params: KernelParams,
    schedule: DistillSchedule,
    steps: int,
    test_xs,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance after `steps` steps, via one fit with the pooled noise.

    The whole chain collapses to ordinary GPR with noise 1/gamma_minus.
    """
    eff = effective_noise(schedule, steps)
    model = fit_gpr(data, params, noise=eff.effective)
    return predict_gpr(model, test_xs)


# ---------------------------------------------------------------------------
# data replication
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplicatedGprFit:
    """Brute-force posterior over t stacked copies of the data.

    mean_blocks[j] is the posterior mean at the j-th copy of the training
    inputs; cov_blocks[i, j] the covariance between copies i and j. test_mean /
    test_cov are present when test points were supplied.
    """

    mean_blocks: np.ndarray  # (t, N)
    cov_blocks: np.ndarray  # (t, t, N, N)
    test_mean: np.ndarray | None = None
    test_cov: np.ndarray | None = None


def fit_replicated(
    data: Dataset,
    params: KernelParams,
    noise: float,
    replications: int,
    test_xs=None,
    row_cap: int = REPLICATION_ROW_CAP,
) -> ReplicatedGprFit:
    """Fit a GP to t literal copies of the dataset by solving the tN x tN system.

    This is a test utility, not a scalable path, hence the row cap.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    n = data.n
    if replications * n > row_cap:
        raise ValueError(
            f"replicated system has {replications * n} rows, exceeding the cap of {row_cap}"
        )
    K = gram(data.xs, params, add_jitter=False)
    big_K = np.tile(K, (replications, replications))
    big_y = np.tile(data.ys, replications)
    shifted = big_K + noise * np.eye(replications * n)
    try:
        solved_y = np.linalg.solve(shifted, big_y)
        solved_K = np.linalg.solve(shifted, big_K)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("replicated system is singular") from exc
    mean_big = big_K @ solved_y
    cov_big = big_K - big_K @ solved_K
    mean_blocks = mean_big.reshape(replications, n)
    cov_blocks = (
        cov_big.reshape(replications, n, replications, n).transpose(0, 2, 1, 3)
    )

    test_mean = test_cov = None
    if test_xs is not None:
        pts = as_points(test_xs)
        k_star = np.tile(kernel_matrix(pts, data.xs, params), (1, replications))
        test_mean = k_star @ solved_y
        k_ss = kernel_matrix(pts, pts, params)
        np.fill_diagonal(k_ss, params.signal_variance)
        test_cov = k_ss - k_star @ np.linalg.solve(shifted, k_star.T)
        test_cov = 0.5 * (test_cov + test_cov.T)
    return ReplicatedGprFit(
        mean_blocks=mean_blocks,
        cov_blocks=cov_blocks,
        test_mean=test_mean,
        test_cov=test_cov,
    )
