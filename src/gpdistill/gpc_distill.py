"""Self-distillation for GP classification.

Data-centric chains refit at each step to the previous step's predicted
targets; because those targets live in [0, 1] rather than {0, 1}, steps beyond
the first switch to the continuous Bernoulli likelihood to stay well-specified.
Distribution-centric chains instead feed each step's Laplace-approximated
posterior back in as the next prior; iterating that literally costs one full
fit per step, but a single fit with the covariance scaled by the step count is
an exact stand-in for replicated data and a close approximation of the whole
iterated chain.
Every step's latent posterior is a gpr.PosteriorGP, built by
laplace.gpc_posterior or PosteriorGP.condition from the square-root factor
half of a laplace.CurvatureFactor, and laplace.posterior_proba (re-exported
here) turns it into class probabilities. Each factor pairs a fit's curvature
w with the one matrix that fit ran on, jitter included, so the scaled fit's
posterior is exactly the ordinary posterior under signal variance t*sigma_f^2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .gpr import PosteriorGP
from .gpr_distill import REPLICATION_ROW_CAP
from .kernels import KernelParams, as_points, gram
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

    Each step runs a full Newton fit under the previous step's posterior GP
    (with that step's own curvature matrix) and conditions that GP on it. Every
    returned posterior has the same fixed size, so evaluating the step-t GP
    costs the same as evaluating the first.
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
