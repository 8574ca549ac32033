"""Binary GP classification through the Laplace approximation.

Every factorization goes through one CurvatureFactor of (K, w): the Cholesky
factor of B = I + W^(1/2) K W^(1/2), valid for every w >= 0, which applies
(K + W^-1)^-1 and gives log|I + K W|. Newton-Raphson mode finding (GPML
Alg. 3.1) builds one per iteration and carries alpha with f = K alpha + m, so
neither K^-1 nor W^-1 is ever formed and K need not be invertible. After the
mode, the same factor gives the evidence's determinant and, as its square root
half = L^-1 W^(1/2), the covariance factor of the fit's latent posterior:
gpc_posterior turns a fit into a gpr.PosteriorGP, and posterior_proba is the
one place a latent posterior becomes class probabilities, for plain fits and
distillation chains alike.
The same machinery serves the ordinary Bernoulli likelihood and the continuous
Bernoulli variant used for distillation targets in [0, 1]; the latter only adds
the closed-form normalizer terms to the log-likelihood, its gradient, and its
curvature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import solve_triangular
from scipy.special import expit

from .cont_bernoulli import cb_terms
from .gpr import PosteriorGP
from .kernels import KernelParams, as_points

BERNOULLI = "bernoulli"
CONTINUOUS_BERNOULLI = "continuous_bernoulli"

_GH_NODES, _GH_WEIGHTS = hermgauss(32)

DEFAULT_MAX_ITERS = 100
STEP_TOL = 1e-10
GRAD_TOL = 1e-8
MAX_HALVINGS = 30

_NOT_PD = "negative Hessian at the mode is not positive definite"


class NewtonDidNotConverge(RuntimeError):
    """Mode finding failed to converge; carries the last gradient norm."""

    def __init__(self, message: str, grad_norm: float):
        super().__init__(message)
        self.grad_norm = grad_norm


class HessianNotPositiveDefinite(RuntimeError):
    """The negative Hessian at the evaluation point is not positive definite."""


@dataclass(frozen=True)
class BinaryDataset:
    """Inputs with targets in [0, 1]; strictly_binary records whether all are 0/1."""

    xs: np.ndarray
    ys: np.ndarray
    strictly_binary: bool = False

    def __post_init__(self):
        object.__setattr__(self, "xs", as_points(self.xs))
        ys = np.asarray(self.ys, dtype=float).ravel()
        object.__setattr__(self, "ys", ys)
        if len(self.xs) != len(ys):
            raise ValueError(f"{len(self.xs)} inputs but {len(ys)} targets")
        if len(ys) < 1:
            raise ValueError("dataset must contain at least one observation")
        if np.any(np.isnan(ys)) or not np.all(np.isfinite(self.xs)):
            raise ValueError("inputs and targets must be finite")
        if np.any(ys < 0.0) or np.any(ys > 1.0):
            raise ValueError("classification targets must lie in [0, 1]")
        object.__setattr__(self, "strictly_binary", bool(np.all((ys == 0.0) | (ys == 1.0))))

    @property
    def n(self) -> int:
        return len(self.ys)


@dataclass(frozen=True)
class LaplaceFit:
    """Converged posterior mode and the curvature state needed for prediction.

    w_diag is the effective likelihood curvature at the mode: sigma(1-sigma)
    for the Bernoulli likelihood, minus the normalizer's second derivative for
    the continuous Bernoulli. alpha_weights is the alpha that Newton carries,
    so K alpha = f_hat - m holds by construction and predictions never touch
    K^-1.
    """

    f_hat: np.ndarray
    w_diag: np.ndarray
    iterations: int
    converged: bool
    likelihood: str
    prior_mean_at_train: np.ndarray
    alpha_weights: np.ndarray
    grad_norm: float
    psi_path: tuple[float, ...]
    f_path: tuple[np.ndarray, ...] | None = None


def _log1pexp(f: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, f)


def _loglik_parts(f: np.ndarray, y: np.ndarray, likelihood: str):
    """(log-likelihood, gradient, curvature) of log p(y | f) at f."""
    sig = expit(f)
    value = float(y @ f - np.sum(_log1pexp(f)))
    grad = y - sig
    curv = sig * (1.0 - sig)
    if likelihood == CONTINUOUS_BERNOULLI:
        terms = cb_terms(f)
        value += float(np.sum(terms.log_c))
        grad = grad + terms.dlog_c
        curv = curv - terms.d2log_c
    elif likelihood != BERNOULLI:
        raise ValueError(f"unknown likelihood {likelihood!r}")
    return value, grad, curv


def laplace_mode(
    data,
    K,
    prior_mean: np.ndarray | None = None,
    likelihood: str = BERNOULLI,
    max_iters: int = DEFAULT_MAX_ITERS,
    step_tol: float = STEP_TOL,
    grad_tol: float = GRAD_TOL,
    record_path: bool = False,
) -> LaplaceFit:
    """Find the posterior mode by damped Newton-Raphson (GPML Alg. 3.1 with a prior mean).

    `data` may be a BinaryDataset or a bare target vector; `K` is the prior
    covariance at the inputs. The iteration carries alpha with f = K alpha + m,
    so K is never inverted and need not be positive definite (a duplicated
    input without jitter is fine). Each iteration builds one CurvatureFactor(K, w) and moves
    alpha toward b - (K + W^-1)^-1 K b with b = W (f - m) + grad log p.
    The log posterior is psi = log p(y|f) - alpha^T (f - m) / 2 and its gradient
    grad log p - alpha.
    Convergence is declared when the accepted step in f drops below step_tol
    in the infinity norm, or the gradient of the log posterior below grad_tol,
    whichever happens first. Steps that would decrease the log posterior are
    halved (up to MAX_HALVINGS); the likelihoods here are log-concave, so that
    only guards against overshoot and numerical curvature loss.
    """
    y = np.asarray(data.ys if isinstance(data, BinaryDataset) else data, dtype=float).ravel()
    K_values = np.asarray(K, dtype=float)
    m = np.zeros(len(y)) if prior_mean is None else np.asarray(prior_mean, dtype=float).ravel()

    alpha = np.zeros(len(y))
    f = m.copy()
    psi_cur, grad_ll, curv = _loglik_parts(f, y, likelihood)  # alpha = 0: psi = log p
    psi_path = [psi_cur]
    f_path = [f.copy()] if record_path else None
    converged = False
    iterations = 0

    for iterations in range(1, max_iters + 1):
        if float(np.max(np.abs(grad_ll - alpha))) < grad_tol:
            converged = True
            iterations -= 1
            break
        b = curv * (f - m) + grad_ll
        step = b - CurvatureFactor(K_values, curv).solve(K_values @ b) - alpha
        eta = 1.0
        slack = 1e-12 * max(1.0, abs(psi_cur))
        for _ in range(MAX_HALVINGS + 1):
            alpha_new = alpha + eta * step
            f_new = K_values @ alpha_new + m
            value, grad_new, curv_new = _loglik_parts(f_new, y, likelihood)
            psi_new = value - 0.5 * float(alpha_new @ (f_new - m))
            if psi_new >= psi_cur - slack:
                break
            eta *= 0.5
        else:
            raise HessianNotPositiveDefinite(
                f"Newton step rejected after {MAX_HALVINGS} halvings at iteration "
                f"{iterations}; log posterior would decrease from {psi_cur:g} to {psi_new:g}"
            )
        f_moved = float(np.max(np.abs(f_new - f)))
        alpha, f, grad_ll, curv = alpha_new, f_new, grad_new, curv_new
        psi_cur = psi_new
        psi_path.append(psi_cur)
        if record_path:
            f_path.append(f.copy())
        if f_moved < step_tol:
            converged = True
            break

    grad_norm = float(np.max(np.abs(grad_ll - alpha)))
    if grad_norm < grad_tol:
        converged = True
    if not converged:
        raise NewtonDidNotConverge(
            f"no convergence after {max_iters} iterations (gradient norm {grad_norm:g})",
            grad_norm=grad_norm,
        )
    return LaplaceFit(
        f_hat=f,
        w_diag=curv,
        iterations=iterations,
        converged=converged,
        likelihood=likelihood,
        prior_mean_at_train=m,
        alpha_weights=alpha,
        grad_norm=grad_norm,
        psi_path=tuple(psi_path),
        f_path=tuple(f_path) if record_path else None,
    )


class CurvatureFactor:
    """One factorization of (K, w) for the Newton step, the prediction and the evidence.

    It is the Cholesky factor L of B = I + W^(1/2) K W^(1/2), which is positive
    definite for every w >= 0 when K is positive semi-definite (GPML Alg. 3.1);
    a zero weight only leaves a unit row and column. Then
    (K + W^-1)^-1 = W^(1/2) B^-1 W^(1/2) = half^T half with half = L^-1 W^(1/2),
    the square-root factor a PosteriorGP stores, formed on first use with
    numpy's inverse: multi-column triangular solves through scipy's separately
    bundled BLAS contended with numpy's thread pool on two cores. A vector is
    solved with two triangular solves against L. Neither K^-1 nor W^-1 is ever formed, so K
    need not be invertible. A negative weight, or a B that is not positive
    definite, raises HessianNotPositiveDefinite.
    """

    def __init__(self, K, w: np.ndarray):
        K_values = np.asarray(K, dtype=float)
        w = np.asarray(w, dtype=float)
        if not np.all(w >= 0.0):
            raise HessianNotPositiveDefinite(f"{_NOT_PD}: curvature weights must be >= 0")
        self.sw = np.sqrt(w)
        try:
            self.chol = np.linalg.cholesky(np.eye(len(w)) + self.sw[:, None] * K_values * self.sw)
        except np.linalg.LinAlgError as exc:
            raise HessianNotPositiveDefinite(_NOT_PD) from exc

    @cached_property
    def half(self) -> np.ndarray:
        """L^-1 W^(1/2), an (N, N) factor with half^T half = (K + W^-1)^-1."""
        return np.linalg.inv(self.chol) * self.sw

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(K + W^-1)^-1 @ rhs for an (N,) right-hand side."""
        half = solve_triangular(self.chol, self.sw * rhs, lower=True, check_finite=False)
        return self.sw * solve_triangular(self.chol, half, lower=True, trans="T",
                                          check_finite=False)

    def logdet(self) -> float:
        """log|I + K W| = log|B|, the evidence's determinant piece."""
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))


def gpc_posterior(fit: LaplaceFit, K, train_xs, params: KernelParams) -> PosteriorGP:
    """The latent posterior of a converged fit as a PosteriorGP (GPML eqs. 3.21, 3.24).

    Its weights are alpha and its factor is the curvature factor's half, whose
    R^T R is (K + W^-1)^-1, so mean(a) = k(a, X) alpha and
    cov(a, b) = k(a, b) - k(a, X)(K + W^-1)^-1 k(X, b).
    K is the matrix the curvature is paired with (usually the one the fit ran
    on); params give the kernel between test and training points.
    """
    if not fit.converged:
        raise ValueError("predictions require a converged fit")
    return PosteriorGP(train_xs, params, fit.alpha_weights, CurvatureFactor(K, fit.w_diag).half)


def gpc_predict_latent(
    fit: LaplaceFit,
    K,
    train_xs,
    test_xs,
    params: KernelParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean (M,) and covariance (M, M) of the fit's latent posterior at test points."""
    gp = gpc_posterior(fit, K, train_xs, params)
    return gp.mean(test_xs), gp.cov(test_xs)


def sigmoid_gaussian_mean(mu, var) -> np.ndarray:
    """E[sigmoid(Z)] for Z ~ N(mu, var), by 32-node Gauss-Hermite quadrature."""
    mu_arr = np.atleast_1d(np.asarray(mu, dtype=float))
    var_arr = np.maximum(np.atleast_1d(np.asarray(var, dtype=float)), 0.0)
    z = mu_arr[:, None] + np.sqrt(2.0 * var_arr)[:, None] * _GH_NODES[None, :]
    out = expit(z) @ _GH_WEIGHTS / np.sqrt(np.pi)
    return float(out[0]) if np.ndim(mu) == 0 else out


def posterior_proba(gp: PosteriorGP, xs, method: str = "quadrature") -> np.ndarray:
    """Class-1 probabilities implied by a latent posterior GP at the given points.

    method="latent_mean" squashes the latent mean, sigma(mu*); "quadrature"
    averages sigma over the latent Gaussian. The two differ away from 0.5 but
    share the same decision boundary.
    """
    pts = as_points(xs)
    mu = gp.mean(pts)
    if method == "latent_mean":
        return expit(mu)
    if method == "quadrature":
        return sigmoid_gaussian_mean(mu, gp.var(pts))
    raise ValueError(f"unknown probability method {method!r}")


def gpc_predict_proba(
    fit: LaplaceFit,
    K,
    train_xs,
    test_xs,
    params: KernelParams,
    method: str = "quadrature",
) -> np.ndarray:
    """Predicted class-1 probabilities of a fit at test points (see posterior_proba)."""
    return posterior_proba(gpc_posterior(fit, K, train_xs, params), test_xs, method)


def laplace_marginal_loglik(fit: LaplaceFit, K, data) -> float:
    """Laplace approximation of the marginal log-likelihood log p(y).

    Equals psi(f_hat) + (N/2) log 2pi - (1/2) log|H| with H the negative
    Hessian of the log posterior at the mode; the Gaussian normalizers combine
    into a single log|I + K W| term taken from the curvature factor.
    """
    if not fit.converged:
        raise ValueError("the marginal log-likelihood requires a converged fit")
    y = np.asarray(data.ys if isinstance(data, BinaryDataset) else data, dtype=float).ravel()
    value, _, _ = _loglik_parts(fit.f_hat, y, fit.likelihood)
    diff = fit.f_hat - fit.prior_mean_at_train
    quad = float(fit.alpha_weights @ diff)  # alpha = K^-1 (f_hat - m) at the mode
    return value - 0.5 * quad - 0.5 * CurvatureFactor(K, fit.w_diag).logdet()
