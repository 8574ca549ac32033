"""Continuous Bernoulli distribution on [0, 1].

The density is C(lam) * lam^x * (1-lam)^(1-x): the Bernoulli kernel made a
proper density on the unit interval by the normalizer C. Everything a Laplace
fit needs — log C(sigma(a)) and its first two derivatives in the latent a —
has a closed hyperbolic form, evaluated here with series branches near a = 0
and log-space forms that stay finite for |a| in the thousands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below these cutoffs the direct formulas lose accuracy to cancellation and
# Taylor branches take over. The latent cutoff sits where the second
# derivative's direct error (~eps / a^3 absolute) crosses the series
# truncation error (~a^6); at 1e-2 both sides are good to ~1e-12.
_LAMBDA_SERIES_CUTOFF = 1e-6  # on |1 - 2*lambda|
_LATENT_SERIES_CUTOFF = 1e-2  # on |a|

LOG2 = float(np.log(2.0))


def cb_normalizer(lam):
    """Normalizing constant C(lambda) = 2*atanh(1-2*lambda)/(1-2*lambda), C(1/2) = 2."""
    lam_arr = np.asarray(lam, dtype=float)
    if np.any(lam_arr <= 0.0) or np.any(lam_arr >= 1.0):
        raise ValueError("lambda must lie strictly inside (0, 1)")
    u = 1.0 - 2.0 * lam_arr
    near_half = np.abs(u) < _LAMBDA_SERIES_CUTOFF
    u_safe = np.where(near_half, 0.5, u)  # placeholder clear of the arctanh pole
    direct = 2.0 * np.arctanh(u_safe) / u_safe
    series = 2.0 * (1.0 + u**2 / 3.0 + u**4 / 5.0)  # atanh(u)/u = 1 + u^2/3 + u^4/5 + ...
    out = np.where(near_half, series, direct)
    return float(out) if np.isscalar(lam) or np.ndim(lam) == 0 else out


@dataclass(frozen=True)
class CbTerms:
    """log C(sigma(a)) and its first two derivatives with respect to a."""

    log_c: np.ndarray | float
    dlog_c: np.ndarray | float
    d2log_c: np.ndarray | float


def cb_terms(a) -> CbTerms:
    """Evaluate log C(sigma(a)), d/da log C, d^2/da^2 log C for scalar or array a.

    Exact values at a = 0 are (log 2, 0, 1/6). For a != 0:

        C(sigma(a))        = a * coth(a/2)
        d/da  log C        = 1/a - 1/sinh(a)
        d2/da2 log C       = -1/a^2 + coth(a)/sinh(a)

    log C is even, the first derivative odd, the second even. The second
    derivative is positive only near the origin (it behaves like -1/a^2 in the
    tails); the always-positive quantity is the likelihood curvature
    sigma(1-sigma) - d2log_c, which is the variance of the distribution.
    """
    a_arr = np.asarray(a, dtype=float)
    s = np.abs(a_arr)
    small = s < _LATENT_SERIES_CUTOFF
    s_safe = np.where(small, 1.0, s)

    # Past |a| ~ 1e77 the series below, which np.where then discards, overflows, and past
    # ~1e154 so does s^2, whose reciprocal 0 is the limit of -1/a^2: neither is an error.
    with np.errstate(over="ignore", invalid="ignore"):
        # All tail-safe: e^{-s} in (0, 1) keeps every term finite for any s.
        em = np.exp(-s_safe)
        em2 = em * em
        csch = 2.0 * em / (1.0 - em2)  # 1/sinh(s)
        coth = (1.0 + em2) / (1.0 - em2)

        log_c_direct = np.log(s_safe) + np.log1p(em) - np.log1p(-em)
        dlog_c_direct = np.sign(a_arr) * (1.0 / s_safe - csch)
        d2log_c_direct = -1.0 / s_safe**2 + csch * coth

        a2 = a_arr * a_arr
        # (a/2) coth(a/2) = 1 + v with v = a^2/12 - a^4/720 + a^6/30240 - ...
        v = a2 / 12.0 - a2 * a2 / 720.0
        log_c_series = LOG2 + v - 0.5 * v * v
        dlog_c_series = a_arr * (1.0 / 6.0 - 7.0 * a2 / 360.0 + 31.0 * a2 * a2 / 15120.0)
        d2log_c_series = 1.0 / 6.0 - 7.0 * a2 / 120.0 + 31.0 * a2 * a2 / 3024.0

    log_c = np.where(small, log_c_series, log_c_direct)
    dlog_c = np.where(small, dlog_c_series, dlog_c_direct)
    d2log_c = np.where(small, d2log_c_series, d2log_c_direct)
    if np.ndim(a) == 0:
        return CbTerms(float(log_c), float(dlog_c), float(d2log_c))
    return CbTerms(log_c, dlog_c, d2log_c)


def cb_log_density(x, lam):
    """log density of the continuous Bernoulli: log C(lam) + x log lam + (1-x) log(1-lam).

    Boundary x values (0 and 1) are allowed; boundary lambda is not.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise ValueError("x must lie in [0, 1]")
    lam_arr = np.asarray(lam, dtype=float)
    log_c = np.log(cb_normalizer(lam))
    out = log_c + x_arr * np.log(lam_arr) + (1.0 - x_arr) * np.log1p(-lam_arr)
    return float(out) if np.ndim(out) == 0 else out
