"""Self-distillation for GP classification.

Data-centric chains refit at each step to the previous step's predicted
targets; because those targets live in [0, 1] rather than {0, 1}, steps beyond
the first switch to the continuous Bernoulli likelihood to stay well-specified.
Distribution-centric chains instead feed each step's Laplace-approximated
posterior back in as the next prior. Each step adds one Gaussian site at the
same inputs, so the iterated chain's step-t posterior is one Laplace posterior
under the summed site precision W_tot (the classification counterpart of the
pooled regression noise): one full fit per step, but one curvature factor of
the noiseless K per step and no re-conditioning. A single fit with the
covariance scaled by the step count is an exact stand-in for replicated data
and a close approximation of the whole iterated chain; duplication_gap
measures how close, as ||W_tot,t - t W_t|| / ||t W_t||.
Every step's latent posterior is a gpr.PosteriorGP holding a
laplace.CurvatureFactor, whose square-root factor half it forms only when a
variance is read, and laplace.posterior_proba (re-exported here) turns it into
class probabilities. Each factor pairs a curvature with the one matrix it
belongs to, jitter included, so the scaled fit's posterior is exactly the
ordinary posterior under signal variance t*sigma_f^2.
distribution_centric_gpc_recursive, the literal chain through
PosteriorGP.condition, is kept as the oracle of the iterated one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .gpr import PosteriorGP
from .gpr_distill import REPLICATION_ROW_CAP
from .kernels import KernelParams, as_points, gram, kernel_matrix
from .laplace import (
    BERNOULLI,
    CONTINUOUS_BERNOULLI,
    BinaryDataset,
    CurvatureFactor,
    LaplaceFit,
    NewtonDidNotConverge,
    gpc_posterior,
    laplace_mode,
    posterior_proba,
)

TARGET_KINDS = ("soft_mean", "latent_sigmoid", "hard_threshold")


@dataclass(frozen=True)
class GpcDistillConfig:
    """Distillation chain settings.

    target_kind picks how step t's predictions become step t+1's targets:
    the quadrature mean E[sigma(f)] (soft_mean), the squashed mode sigma(f_hat)
    (latent_sigmoid), or 0/1 labels thresholded at 0.5 (hard_threshold).
    reg_gammas, when given, adds a per-step diagonal regularizer to the Gram
    matrix exactly as observation noise does in regression.
    """

    steps: int
    target_kind: str = "soft_mean"
    reg_gammas: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.target_kind not in TARGET_KINDS:
            raise ValueError(f"target_kind must be one of {TARGET_KINDS}, got {self.target_kind!r}")
        if self.reg_gammas is not None:
            object.__setattr__(self, "reg_gammas", tuple(float(g) for g in self.reg_gammas))
            if len(self.reg_gammas) != self.steps:
                raise ValueError(
                    f"reg_gammas has {len(self.reg_gammas)} entries for {self.steps} steps"
                )
            if not all(0 <= g < np.inf for g in self.reg_gammas):
                raise ValueError(
                    f"reg_gammas must be non-negative and finite, got {self.reg_gammas}"
                )


@dataclass(frozen=True)
class DataCentricGpcStep:
    """One step of a data-centric chain: its fit, the Gram it used, and its predictions."""

    fit: LaplaceFit
    gram_values: np.ndarray
    predicted: np.ndarray  # predictions at the training inputs, per target_kind


def _step_predictions(
    fit: LaplaceFit,
    gram_values: np.ndarray,
    xs: np.ndarray,
    params: KernelParams,
    target_kind: str,
) -> np.ndarray:
    if target_kind == "latent_sigmoid":
        return expit(fit.f_hat)
    if target_kind == "hard_threshold":
        # sigma(f_hat) >= 0.5 and the quadrature mean >= 0.5 agree exactly on
        # the sign of f_hat, so thresholding needs no probability evaluation.
        return (fit.f_hat >= 0.0).astype(float)
    return posterior_proba(gpc_posterior(fit, gram_values, xs, params), xs)


def data_centric_gpc(
    data: BinaryDataset, params: KernelParams, config: GpcDistillConfig
) -> list[DataCentricGpcStep]:
    """Run a data-centric GPC chain; step 1 is ordinary Bernoulli, the rest CB.

    Raises with the failing step identified if Newton does not converge.
    """
    if not data.strictly_binary:
        raise ValueError("data-centric GPC distillation starts from strictly binary targets")
    xs = data.xs
    base = gram(xs, params, add_jitter=True)
    targets = data.ys
    steps: list[DataCentricGpcStep] = []
    for t in range(1, config.steps + 1):
        K_t = base.copy()
        if config.reg_gammas is not None and config.reg_gammas[t - 1] > 0:
            K_t[np.diag_indices_from(K_t)] += config.reg_gammas[t - 1]
        likelihood = BERNOULLI if t == 1 else CONTINUOUS_BERNOULLI
        try:
            fit = laplace_mode(targets, K_t, likelihood=likelihood)
        except NewtonDidNotConverge as exc:
            raise NewtonDidNotConverge(
                f"step {t} of {config.steps} failed: {exc}", grad_norm=exc.grad_norm
            ) from exc
        predicted = _step_predictions(fit, K_t, xs, params, config.target_kind)
        steps.append(DataCentricGpcStep(fit=fit, gram_values=K_t, predicted=predicted))
        targets = predicted
    return steps


# ---------------------------------------------------------------------------
# distribution-centric
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GpcDistillStep:
    """A distribution-centric posterior: the Laplace fit and the posterior GP it gives.

    Each step of the iterated chain is one, and so is the scaled fit.
    """

    fit: LaplaceFit
    posterior: PosteriorGP


def distribution_centric_gpc_iterated(
    data: BinaryDataset, params: KernelParams, steps: int
) -> list[GpcDistillStep]:
    """Iterate posterior-becomes-prior classification on the original binary targets.

    Each step runs a full Newton fit under the previous step's posterior GP. A
    step's fit is a Gaussian site at the same inputs X with precision w_t on
    the latent plus its jitter j, so w_t / (1 + j w_t) on the noiseless latent,
    and the step-t posterior is the Laplace posterior (GPML eq. 3.20) under the
    summed site precision W_tot = sum_s w_s / (1 + j w_s): mean k(a, X) c and
    inner matrix (K + W_tot^-1)^-1, one CurvatureFactor(K, W_tot) of the
    noiseless K = k(X, X), which is built once. The step-t fit runs on
    K - H^T H + jI with H = half K from the previous factor (its diagonal
    clamped at 0, as PosteriorGP.cov does) and prior mean K c, and the weights
    move by one vector solve, c <- c + alpha - (K + W_tot^-1)^-1 K alpha.
    Every posterior holds its factor deferred (PosteriorGP), so the last step
    forms no inverse and a step read only through its mean never does.
    distribution_centric_gpc_recursive is the literal chain, kept as the oracle.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    xs = data.xs
    K = kernel_matrix(xs, xs, params)
    weights, w_tot = np.zeros(data.n), np.zeros(data.n)
    factor = None  # the previous step's CurvatureFactor(K, W_tot)
    out: list[GpcDistillStep] = []
    for t in range(1, steps + 1):
        if factor is None:
            K_t = K.copy()
        else:
            H = out[-1].posterior.root_factor() @ K
            K_t = K - H.T @ H
            np.fill_diagonal(K_t, np.maximum(np.diag(K_t), 0.0))
        K_t.flat[::data.n + 1] += params.jitter
        try:
            fit = laplace_mode(data.ys, K_t, prior_mean=K @ weights, likelihood=BERNOULLI)
        except NewtonDidNotConverge as exc:
            raise NewtonDidNotConverge(
                f"step {t} of {steps} failed: {exc}", grad_norm=exc.grad_norm
            ) from exc
        weights = weights + fit.alpha_weights
        if factor is not None:
            weights -= factor.solve(K @ fit.alpha_weights)
        w_tot = w_tot + _site_precision(fit.w_diag, params.jitter)
        factor = CurvatureFactor(K, w_tot)
        out.append(GpcDistillStep(fit=fit, posterior=PosteriorGP(xs, params, weights, factor)))
    return out


def _site_precision(w: np.ndarray, jitter: float) -> np.ndarray:
    """The precision w / (1 + jitter w) that a fit's curvature w puts on the noiseless latent.

    A fit on K + jitter*I sees its Gaussian site through the jitter, and
    (jitter*I + W^-1)^-1 is this diagonal.
    """
    return w / (1.0 + jitter * w)


def distribution_centric_gpc_scaled(
    data: BinaryDataset, params: KernelParams, t: int
) -> GpcDistillStep:
    """One Laplace fit under the prior GP(0, t*k).

    Exactly equivalent to fitting t stacked copies of the data, and an
    approximation of t iterated distribution-centric steps. t*k is the RBF
    kernel with signal variance t*sigma_f^2, so the posterior is a one-step
    PosteriorGP under those parameters.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    scaled = replace(params, signal_variance=t * params.signal_variance)
    K = gram(data.xs, scaled, add_jitter=True)
    fit = laplace_mode(data.ys, K, likelihood=BERNOULLI)
    # conditioning the prior once gives c = alpha and M = (K + W^-1)^-1
    posterior = gpc_posterior(fit, K, data.xs, scaled)
    return GpcDistillStep(fit=fit, posterior=posterior)


def distribution_centric_gpc_recursive(
    data: BinaryDataset, params: KernelParams, steps: int
) -> list[GpcDistillStep]:
    """The iterated chain computed literally, step by step (test oracle).

    Each step runs a full Newton fit under the previous step's posterior GP,
    whose covariance and mean at X it evaluates afresh, and conditions that GP
    on the fit through PosteriorGP.condition (a QR of the stacked factors).
    distribution_centric_gpc_iterated computes the same chain from the
    accumulated curvature; this one shares none of that path.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    xs = data.xs
    jitter = params.jitter * np.eye(data.n)
    current = PosteriorGP(xs, params)
    out: list[GpcDistillStep] = []
    for t in range(1, steps + 1):
        K_t = current.cov(xs) + jitter
        try:
            fit = laplace_mode(data.ys, K_t, prior_mean=current.mean(xs), likelihood=BERNOULLI)
        except NewtonDidNotConverge as exc:
            raise NewtonDidNotConverge(
                f"step {t} of {steps} failed: {exc}", grad_norm=exc.grad_norm
            ) from exc
        current = current.condition(fit.alpha_weights, CurvatureFactor(K_t, fit.w_diag).half)
        out.append(GpcDistillStep(fit=fit, posterior=current))
    return out


def fit_replicated_gpc(
    data: BinaryDataset,
    params: KernelParams,
    replications: int,
) -> LaplaceFit:
    """Brute-force Laplace fit to t literal copies of the dataset (test oracle).

    The big Gram is the kernel over the duplicated points plus the usual jitter
    on its full diagonal, matching the construction the scaled fit mirrors.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    n = data.n
    if replications * n > REPLICATION_ROW_CAP:
        raise ValueError(
            f"replicated system has {replications * n} rows, "
            f"exceeding the cap of {REPLICATION_ROW_CAP}"
        )
    K_raw = gram(data.xs, params, add_jitter=False)
    big_K = np.tile(K_raw, (replications, replications))
    big_K[np.diag_indices_from(big_K)] += params.jitter
    big_y = np.tile(data.ys, replications)
    return laplace_mode(big_y, big_K, likelihood=BERNOULLI)


def approximation_error(
    iterated: list[GpcDistillStep],
    scaled: list[GpcDistillStep],
    test_xs,
    method: str = "quadrature",
) -> np.ndarray:
    """Per-step MSE between the two chains' predicted probabilities on a test set."""
    if len(iterated) != len(scaled):
        raise ValueError(f"step counts differ: {len(iterated)} vs {len(scaled)}")
    pts = as_points(test_xs)
    errors = []
    for it_step, sc_step in zip(iterated, scaled):
        p_it = posterior_proba(it_step.posterior, pts, method=method)
        p_sc = posterior_proba(sc_step.posterior, pts, method=method)
        errors.append(float(np.mean((p_it - p_sc) ** 2)))
    return np.asarray(errors)


def duplication_gap(
    iterated: list[GpcDistillStep], scaled: list[GpcDistillStep], jitter: float
) -> np.ndarray:
    """Per-step ||W_tot,t - t W_t|| / ||t W_t||: how far the chain is from data duplication.

    W_tot,t is the iterated chain's summed site precision after t steps (see
    distribution_centric_gpc_iterated), and W_t the curvature of the scaled
    fit for t, whose t stacked copies of the data put t W_t on the latent.
    The paper's claim that the chain is approximately duplication reads as a
    small gap.
    """
    if len(iterated) != len(scaled):
        raise ValueError(f"step counts differ: {len(iterated)} vs {len(scaled)}")
    gaps, w_tot = [], 0.0
    for t, (it_step, sc_step) in enumerate(zip(iterated, scaled), start=1):
        w_tot = w_tot + _site_precision(it_step.fit.w_diag, jitter)
        duplicated = t * sc_step.fit.w_diag
        gaps.append(float(np.linalg.norm(w_tot - duplicated) / np.linalg.norm(duplicated)))
    return np.asarray(gaps)
