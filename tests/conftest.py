import numpy as np
import pytest

from gpdistill.laplace import HessianNotPositiveDefinite, NewtonDidNotConverge


def rel_err(actual, expected) -> float:
    """Norm-relative error, safe when the reference is (near) zero."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    denom = max(np.linalg.norm(expected), 1e-300)
    return float(np.linalg.norm(actual - expected) / denom)


def outcome_of(fit_call):
    """A fit, or the numerical error that the call raised."""
    try:
        return fit_call()
    except (NewtonDidNotConverge, HessianNotPositiveDefinite) as exc:
        return exc


def assert_same_outcome(got, expected):
    """The same Laplace outcome: every LaplaceFit field, or the exception's type, message and grad_norm."""
    assert type(got) is type(expected)
    if isinstance(expected, Exception):
        assert str(got) == str(expected)
        assert getattr(got, "grad_norm", None) == getattr(expected, "grad_norm", None)
        return
    for name in ("f_hat", "w_diag", "prior_mean_at_train", "alpha_weights"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name
    for name in ("iterations", "likelihood", "grad_norm", "psi_path", "halvings"):
        assert getattr(got, name) == getattr(expected, name), name


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def evaluation_cost(monkeypatch):
    """Kernel calls and entries (sum of result sizes) spent evaluating a PosteriorGP.

    Patches the kernel_matrix binding that gpdistill.gpr evaluates with while
    the posterior's mean and covariance are computed at xs.
    """
    import gpdistill.gpr as gpr_module

    real = gpr_module.kernel_matrix

    def measure(gp, xs) -> dict:
        counts = {"calls": 0, "entries": 0}

        def counting(a, b, params):
            out = real(a, b, params)
            counts["calls"] += 1
            counts["entries"] += out.size
            return out

        monkeypatch.setattr(gpr_module, "kernel_matrix", counting)
        try:
            gp.mean(xs)
            gp.cov(xs)
        finally:
            monkeypatch.setattr(gpr_module, "kernel_matrix", real)
        return counts

    return measure
