"""Binary GP classification through the Laplace approximation.

Every factorization goes through one CurvatureFactor of (K, w): the Cholesky
factor of B = I + W^(1/2) K W^(1/2), valid for every w >= 0, which applies
(K + W^-1)^-1 and gives log|I + K W|. B is built in place in one N x N array,
and a vector is solved by two calls of LAPACK's triangular solve trtrs, so a
small factor costs little beyond its LAPACK work. Newton-Raphson mode finding
(GPML Alg. 3.1) builds one per iteration and carries alpha with
f = K alpha + m, so neither K^-1 nor W^-1 is ever formed and K need not be
invertible. The one Newton loop, laplace_modes, fits a stack of cells (one
target vector under several prior covariances, such as a grid's cells at one
length scale): the element-wise work and the row sums run once on (cells, N)
arrays, each cell keeps its own factorization and K products, and each cell's
outcome is bit for bit that of its own fit. One check per pass gives a cell
its outcome (a fit, halvings that ran out, a Newton step that vanished in
roundoff, or max_iters reached), a failed factorization gives one at once, and
the cells with an outcome leave the stack through one filter. laplace_mode is
the one-cell case. A fit records its log posterior at the start and after
each iteration, and the step halvings each iteration took. After the mode, the
same factor gives the evidence's determinant and, as its square root
half = L^-1 W^(1/2), the covariance factor of the fit's latent posterior:
gpc_posterior hands the factor to a gpr.PosteriorGP, which forms half only when
a variance is first read, and posterior_proba is the one place a latent
posterior becomes class probabilities, for plain fits and distillation chains
alike. gpdistill.counters counts the factors, the halves formed and the Newton
iterations.
The same machinery serves the ordinary Bernoulli likelihood and the continuous
Bernoulli variant used for distillation targets in [0, 1]; the latter only adds
the closed-form normalizer terms to the log-likelihood, its gradient, and its
curvature. Such targets come as a BinaryDataset, a gpr.Dataset whose targets
lie in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.linalg.lapack import dtrtrs
from scipy.special import expit

from .cont_bernoulli import cb_terms
from .counters import COUNTS
from .gpr import Dataset, PosteriorGP
from .kernels import KernelParams, as_points

BERNOULLI = "bernoulli"
CONTINUOUS_BERNOULLI = "continuous_bernoulli"

_GH_NODES, _GH_WEIGHTS = hermgauss(32)
# posterior_proba's ways to turn a latent posterior into class-1 probabilities
PROBA_METHODS = ("quadrature", "latent_mean")

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
class BinaryDataset(Dataset):
    """A Dataset whose targets lie in [0, 1]."""

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.ys < 0.0) or np.any(self.ys > 1.0):
            raise ValueError("classification targets must lie in [0, 1]")

    @property
    def strictly_binary(self) -> bool:
        """Whether every target is exactly 0 or 1."""
        return bool(np.all((self.ys == 0.0) | (self.ys == 1.0)))


@dataclass(frozen=True)
class LaplaceFit:
    """Converged posterior mode and the curvature state needed for prediction.

    w_diag is the effective likelihood curvature at the mode: sigma(1-sigma)
    for the Bernoulli likelihood, minus the normalizer's second derivative for
    the continuous Bernoulli. alpha_weights is the alpha that Newton carries,
    so K alpha = f_hat - m holds by construction and predictions never touch
    K^-1. psi_path is the log posterior at the start and after each iteration;
    halvings holds, per iteration, how often its step was halved before it was
    accepted.
    """

    f_hat: np.ndarray
    w_diag: np.ndarray
    iterations: int
    likelihood: str
    prior_mean_at_train: np.ndarray
    alpha_weights: np.ndarray
    grad_norm: float
    psi_path: tuple[float, ...]
    halvings: tuple[int, ...]


def _log1pexp(f: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, f)


def _loglik_parts(f: np.ndarray, y: np.ndarray, likelihood: str):
    """(log-likelihood, gradient, curvature) of log p(y | f) at each row f of an (..., N) array.

    Each row's sums are its own (a vecdot per row, a sum along the row), so a
    row's values do not depend on the stack it sits in.
    """
    sig = expit(f)
    value = np.vecdot(f, y) - _log1pexp(f).sum(axis=-1)
    grad = y - sig
    curv = sig * (1.0 - sig)
    if likelihood == CONTINUOUS_BERNOULLI:
        terms = cb_terms(f)
        value = value + terms.log_c.sum(axis=-1)
        grad = grad + terms.dlog_c
        curv = curv - terms.d2log_c
    elif likelihood != BERNOULLI:
        raise ValueError(f"unknown likelihood {likelihood!r}")
    return value, grad, curv


def _log_posterior(f: np.ndarray, alpha: np.ndarray, m: np.ndarray, y: np.ndarray,
                   likelihood: str):
    """(psi, gradient, curvature) of (cells, N) rows, psi = log p(y|f) - alpha^T (f - m) / 2.

    psi is a list with one float per row.
    """
    value, grad, curv = _loglik_parts(f, y, likelihood)
    quad = np.vecdot(alpha, f - m)
    return [v - 0.5 * q for v, q in zip(value.tolist(), quad.tolist())], grad, curv


def _matvecs(Ks: list[np.ndarray], vs: np.ndarray) -> np.ndarray:
    """Row c is Ks[c] @ vs[c]: one 2-D product per cell, never a stacked one."""
    out = np.empty_like(vs)
    for row, K in enumerate(Ks):
        out[row] = K @ vs[row]
    return out


def _unfinished(outcomes: list, cells: list[int], *stacks):
    """cells and each stack of their rows (a list or an array), for the cells without an outcome.

    None once every cell has an outcome, so the last cell to leave costs no empty stacks.
    """
    keep = [row for row, cell in enumerate(cells) if outcomes[cell] is None]
    if not keep:
        return None
    return [stack[keep] if isinstance(stack, np.ndarray) else [stack[row] for row in keep]
            for stack in (cells, *stacks)]


def laplace_mode(
    ys,
    K,
    prior_mean: np.ndarray | None = None,
    likelihood: str = BERNOULLI,
    max_iters: int = DEFAULT_MAX_ITERS,
    step_tol: float = STEP_TOL,
    grad_tol: float = GRAD_TOL,
) -> LaplaceFit:
    """Find the posterior mode by damped Newton-Raphson (GPML Alg. 3.1 with a prior mean).

    `ys` is the target vector; `K` is the prior covariance at the inputs. This
    is the one-cell case of laplace_modes, which describes the iteration; it
    raises NewtonDidNotConverge or HessianNotPositiveDefinite when the fit fails.
    """
    (outcome,) = laplace_modes(ys, (K,), prior_mean, likelihood, max_iters, step_tol, grad_tol)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def laplace_modes(
    ys,
    Ks,
    prior_mean: np.ndarray | None = None,
    likelihood: str = BERNOULLI,
    max_iters: int = DEFAULT_MAX_ITERS,
    step_tol: float = STEP_TOL,
    grad_tol: float = GRAD_TOL,
) -> list[LaplaceFit | NewtonDidNotConverge | HessianNotPositiveDefinite]:
    """Posterior modes of one target vector under each prior covariance of `Ks`, fitted together.

    Returns, for each cell, its LaplaceFit or the exception that its own
    laplace_mode call raises, bit for bit: the element-wise work and the row
    sums run once on (cells, N) arrays, while each cell's K @ v products and
    its CurvatureFactor stay 2-D calls on that cell's matrix. A cell leaves the
    stack once it has an outcome; the others go on.

    The iteration carries alpha with f = K alpha + m, so K is never inverted and
    need not be positive definite (a duplicated input without jitter is fine).
    Each iteration builds one CurvatureFactor(K, w) per cell and moves alpha
    toward b - (K + W^-1)^-1 K b with b = W (f - m) + grad log p. The log
    posterior is psi = log p(y|f) - alpha^T (f - m) / 2 and its gradient
    grad log p - alpha. A cell converges when its accepted step in f drops
    below step_tol in the infinity norm, or the gradient of its log posterior
    below grad_tol, whichever happens first. A Newton step that is exactly zero
    while the gradient is at or above grad_tol is not convergence but a step
    lost to roundoff (a prior variance near the float range does this at
    f = 0): the cell ends as NewtonDidNotConverge, naming the vanished step. Steps that would decrease the log
    posterior are halved (up to MAX_HALVINGS); the likelihoods here are
    log-concave, so that only guards against overshoot and numerical curvature
    loss.
    """
    y = np.asarray(ys, dtype=float).ravel()
    Ks = [np.asarray(K, dtype=float) for K in Ks]
    m = np.zeros(len(y)) if prior_mean is None else np.asarray(prior_mean, dtype=float).ravel()

    outcomes: list = [None] * len(Ks)
    # Row r of the state belongs to cell cells[r], and rows leave as their cells
    # get outcomes. Per-cell scalars are lists, so a small stack pays no numpy call
    # for them; y and m are stacked too, as a broadcast costs a one-cell stack more
    # than the arithmetic.
    cells = list(range(len(Ks)))
    Y, M = np.empty((len(Ks), len(y))), np.empty((len(Ks), len(y)))
    Y[:], M[:] = y, m
    alpha, f = np.zeros_like(M), M.copy()
    value, grad_ll, curv = _loglik_parts(f, Y, likelihood)  # alpha = 0: psi = log p
    psi = value.tolist()
    paths: list[list[float]] = [[] for _ in Ks]
    halvings: list[list[int]] = [[] for _ in Ks]
    # no step yet: the start checks only the gradient
    iterations, floor, f_moved, halved = 0, [], [], []
    while cells:
        # The one check, after each step and at the start: a cell is done when every
        # halving of its step was rejected, when its Newton step was exactly zero
        # with the gradient still at or above grad_tol (a failure), when the step
        # moved f by less than step_tol or left a gradient below grad_tol, or after
        # max_iters steps.
        grad_norms = np.abs(grad_ll - alpha).max(axis=-1).tolist()
        for row, cell in enumerate(cells):
            if iterations and not psi[row] >= floor[row]:
                outcomes[cell] = HessianNotPositiveDefinite(
                    f"Newton step rejected after {MAX_HALVINGS} halvings at iteration {iterations}; "
                    f"log posterior would decrease from {paths[cell][-1]:g} to {psi[row]:g}")
                continue
            paths[cell].append(psi[row])
            if iterations:
                halvings[cell].append(halved[row])
            if (iterations and f_moved[row] < step_tol and grad_norms[row] >= grad_tol
                    and not step[row].any()):  # the Newton step itself was exactly zero
                outcomes[cell] = NewtonDidNotConverge(
                    f"Newton step vanished at iteration {iterations}: f did not move "
                    f"(gradient norm {grad_norms[row]:g})",
                    grad_norm=grad_norms[row],
                )
            elif iterations and f_moved[row] < step_tol or grad_norms[row] < grad_tol:
                outcomes[cell] = LaplaceFit(
                    f_hat=f[row].copy(),
                    w_diag=curv[row].copy(),
                    iterations=iterations,
                    likelihood=likelihood,
                    prior_mean_at_train=m,
                    alpha_weights=alpha[row].copy(),
                    grad_norm=grad_norms[row],
                    psi_path=tuple(paths[cell]),
                    halvings=tuple(halvings[cell]),
                )
            elif iterations >= max_iters:
                outcomes[cell] = NewtonDidNotConverge(
                    f"no convergence after {max_iters} iterations "
                    f"(gradient norm {grad_norms[row]:g})",
                    grad_norm=grad_norms[row],
                )
        if any(outcomes[cell] is not None for cell in cells):
            kept = _unfinished(outcomes, cells, Ks, Y, M, alpha, f, grad_ll, curv, psi)
            if kept is None:
                return outcomes
            cells, Ks, Y, M, alpha, f, grad_ll, curv, psi = kept

        iterations += 1
        COUNTS["newton_iterations"] += len(cells)
        b = curv * (f - M) + grad_ll
        solved = np.empty_like(b)
        failed = False
        for row, K in enumerate(Ks):
            try:
                solved[row] = CurvatureFactor(K, curv[row]).solve(K @ b[row])
            except HessianNotPositiveDefinite as exc:
                outcomes[cells[row]], failed = exc, True
        if failed:  # such a cell leaves before its full step is evaluated
            kept = _unfinished(outcomes, cells, Ks, Y, M, alpha, f, grad_ll, curv, psi, b, solved)
            if kept is None:
                return outcomes
            cells, Ks, Y, M, alpha, f, grad_ll, curv, psi, b, solved = kept

        step = b - solved - alpha
        floor = [value - 1e-12 * max(1.0, abs(value)) for value in psi]  # roundoff slack
        alpha_new = alpha + step  # the full step, eta = 1
        f_new = _matvecs(Ks, alpha_new) + M
        psi_new, grad_new, curv_new = _log_posterior(f_new, alpha_new, M, Y, likelihood)
        halved = [0] * len(psi_new)  # read at the next check, before any row leaves
        stuck = [row for row, value in enumerate(psi_new) if not value >= floor[row]]
        if stuck:  # halve the rejected cells' steps together
            rows, row_floor = np.array(stuck), np.array([floor[row] for row in stuck])
            eta = 1.0
            for _ in range(MAX_HALVINGS):
                eta *= 0.5
                trial_alpha = alpha[rows] + eta * step[rows]
                trial_f = _matvecs([Ks[row] for row in rows], trial_alpha) + M[rows]
                trial_psi, trial_grad, trial_curv = _log_posterior(
                    trial_f, trial_alpha, M[rows], Y[rows], likelihood)
                for row, value in zip(rows.tolist(), trial_psi):
                    psi_new[row] = value  # the last trial stays when every one is rejected
                    halved[row] += 1
                ok = np.array(trial_psi) >= row_floor
                done = rows[ok]
                alpha_new[done], f_new[done] = trial_alpha[ok], trial_f[ok]
                grad_new[done], curv_new[done] = trial_grad[ok], trial_curv[ok]
                rows, row_floor = rows[~ok], row_floor[~ok]
                if not len(rows):
                    break

        f_moved = np.abs(f_new - f).max(axis=-1).tolist()
        alpha, f, grad_ll, curv, psi = alpha_new, f_new, grad_new, curv_new, psi_new
    return outcomes


class CurvatureFactor:
    """One factorization of (K, w) for the Newton step, the prediction and the evidence.

    It is the Cholesky factor L of B = I + W^(1/2) K W^(1/2), which is positive
    definite for every w >= 0 when K is positive semi-definite (GPML Alg. 3.1);
    a zero weight only leaves a unit row and column. B is built in place in one
    N x N array (the scaled K, then 1 added on the diagonal) and factored by
    numpy's Cholesky. A vector is solved with two calls of LAPACK's triangular
    solve trtrs against L, in the layout scipy's solve_triangular passes for
    it, without that wrapper's checks. Then
    (K + W^-1)^-1 = W^(1/2) B^-1 W^(1/2) = half^T half with half = L^-1 W^(1/2),
    the square-root factor a PosteriorGP stores, formed on first use with
    numpy's inverse. Routing it through scipy instead is a trap on two cores:
    scipy's separately bundled OpenBLAS pool contends with numpy's. On a shared
    2-vCPU host (OpenBLAS 0.3.31, default threads), at n=1000, dtrtri (a
    triangular inverse) slowed the ten scaled fits of
    reproduce gpc-dist-10step from 1.3-1.5 s to 2.3-2.7 s and numpy's
    Choleskies after it from 0.8-0.96 s to 1.3-1.4 s; at n=300 a 90-column
    dtrtrs took 7.8 ms against 5.2 ms for inv and a product. Neither K^-1 nor
    W^-1 is ever formed, so K need not be invertible. A negative weight, or a B
    that is not positive definite, raises HessianNotPositiveDefinite.
    """

    def __init__(self, K, w: np.ndarray):
        K_values = np.asarray(K, dtype=float)
        w = np.asarray(w, dtype=float)
        if not (w >= 0.0).all():
            raise HessianNotPositiveDefinite(f"{_NOT_PD}: curvature weights must be >= 0")
        self.sw = np.sqrt(w)
        B = np.multiply(self.sw[:, None], K_values)
        B *= self.sw
        B.flat[::len(w) + 1] += 1.0
        COUNTS["curvature_factors"] += 1
        try:
            self.chol = np.linalg.cholesky(B)
        except np.linalg.LinAlgError as exc:
            raise HessianNotPositiveDefinite(_NOT_PD) from exc

    @cached_property
    def half(self) -> np.ndarray:
        """L^-1 W^(1/2), an (N, N) factor with half^T half = (K + W^-1)^-1."""
        COUNTS["inverses"] += 1
        return np.linalg.inv(self.chol) * self.sw

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(K + W^-1)^-1 @ rhs for an (N,) right-hand side."""
        half = _solve_chol(self.chol, self.sw * rhs, transposed=False)
        return self.sw * _solve_chol(self.chol, half, transposed=True)

    def logdet(self) -> float:
        """log|I + K W| = log|B|, the evidence's determinant piece."""
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))


def _solve_chol(chol: np.ndarray, rhs: np.ndarray, transposed: bool) -> np.ndarray:
    """x with L x = rhs, or L^T x = rhs when transposed, for the lower-triangular L = chol.

    LAPACK reads chol.T, for numpy's C-ordered factor the same memory in
    Fortran order, as the upper factor U = L^T, so L x = rhs is the transposed
    solve U^T x = rhs: the call scipy's solve_triangular makes. rhs is
    overwritten. As there, a zero on the diagonal raises LinAlgError.
    """
    if not rhs.size:  # LAPACK rejects an empty system; solve_triangular returns it
        return rhs
    x, info = dtrtrs(chol.T, rhs, lower=0, trans=0 if transposed else 1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def gpc_posterior(fit: LaplaceFit, K, train_xs, params: KernelParams) -> PosteriorGP:
    """The latent posterior of a fit as a PosteriorGP (GPML eqs. 3.21, 3.24).

    Its weights are alpha and its factor is the fit's CurvatureFactor, whose
    half R has R^T R = (K + W^-1)^-1, so mean(a) = k(a, X) alpha and
    cov(a, b) = k(a, b) - k(a, X)(K + W^-1)^-1 k(X, b). The posterior forms R
    (an O(N^3) inverse) on its first cov, var or condition and keeps R in the
    factor's place; a posterior read only through its mean never forms it.
    K must be the matrix the fit ran on, jitter and any diagonal shift included,
    because w is that fit's curvature; params give the kernel between test and
    training points.
    """
    return PosteriorGP(train_xs, params, fit.alpha_weights, CurvatureFactor(K, fit.w_diag))


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
    if method not in PROBA_METHODS:
        raise ValueError(f"unknown probability method {method!r}; known: {PROBA_METHODS}")
    pts = as_points(xs)
    mu = gp.mean(pts)
    if method == "latent_mean":
        return expit(mu)
    return sigmoid_gaussian_mean(mu, gp.var(pts))


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


def laplace_marginal_loglik(fit: LaplaceFit, K, ys) -> float:
    """Laplace approximation of the marginal log-likelihood log p(y).

    Equals psi(f_hat) + (N/2) log 2pi - (1/2) log|H| with H the negative
    Hessian of the log posterior at the mode; the Gaussian normalizers combine
    into a single log|I + K W| term taken from the curvature factor. For the
    targets the fit ran on, psi(f_hat) is fit.psi_path[-1] bit for bit, since
    the same row sums compute both.
    """
    y = np.asarray(ys, dtype=float).ravel()
    # alpha = K^-1 (f_hat - m) at the mode
    (psi,), _, _ = _log_posterior(fit.f_hat[None], fit.alpha_weights[None],
                                  fit.prior_mean_at_train, y, fit.likelihood)
    return psi - 0.5 * CurvatureFactor(K, fit.w_diag).logdet()
