"""Versioned JSON persistence for fitted models.

Numeric fields are stored as JSON numbers, whose text form (repr of a Python
float) round-trips bit-exactly, so a saved-then-loaded model reproduces its
predictions to the last bit. Each artifact carries a method tag that the
loader dispatches on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..gpr import GprModel
from ..kernels import KernelParams, as_points, kernel_matrix
from ..laplace import CurvatureFactor, LaplaceFit, sigmoid_gaussian_mean

FORMAT_VERSION = 1

METHOD_TAGS = ("gpr", "gpr-data", "gpr-dist", "gpc", "gpc-data", "gpc-dist")


class ArtifactError(ValueError):
    """Unreadable, corrupt, or version-mismatched model file."""


@dataclass(frozen=True)
class ModelArtifact:
    method: str
    kernel_params: KernelParams
    payload: dict
    version: int = FORMAT_VERSION

    def __post_init__(self):
        if self.method not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {self.method!r}")


def _listify(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


def save_model(artifact: ModelArtifact, path) -> None:
    doc = {
        "format_version": artifact.version,
        "method": artifact.method,
        "kernel_params": {
            "signal_variance": artifact.kernel_params.signal_variance,
            "length_scale": artifact.kernel_params.length_scale,
            "jitter": artifact.kernel_params.jitter,
        },
        "payload": artifact.payload,
    }
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1)


def load_model(path) -> ModelArtifact:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ArtifactError(f"{path}: not a model file (no format_version)")
    if doc["format_version"] != FORMAT_VERSION:
        raise ArtifactError(
            f"{path}: format version {doc['format_version']} unsupported "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        kp = doc["kernel_params"]
        params = KernelParams(
            signal_variance=kp["signal_variance"],
            length_scale=kp["length_scale"],
            jitter=kp["jitter"],
        )
        return ModelArtifact(method=doc["method"], kernel_params=params, payload=doc["payload"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: malformed model file: {exc}") from exc


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def artifact_from_gpr(model: GprModel, method: str = "gpr", extra: dict | None = None) -> ModelArtifact:
    payload = {
        "train_xs": _listify(model.train_xs),
        "alpha_weights": _listify(model.alpha_weights),
        "noise": float(model.noise),
    }
    if extra:
        payload.update(extra)
    return ModelArtifact(method=method, kernel_params=model.params, payload=payload)


def artifact_from_laplace(
    fit: LaplaceFit,
    params: KernelParams,
    train_xs,
    method: str = "gpc",
    kernel_scale: float = 1.0,
    diag_shift: float = 0.0,
    extra: dict | None = None,
) -> ModelArtifact:
    payload = {
        "train_xs": _listify(as_points(train_xs)),
        "f_hat": _listify(fit.f_hat),
        "alpha_weights": _listify(fit.alpha_weights),
        "w_diag": _listify(fit.w_diag),
        "likelihood": fit.likelihood,
        "kernel_scale": float(kernel_scale),
        "diag_shift": float(diag_shift),
    }
    if extra:
        payload.update(extra)
    return ModelArtifact(method=method, kernel_params=params, payload=payload)


# ---------------------------------------------------------------------------
# prediction dispatch
# ---------------------------------------------------------------------------


def predict_from_artifact(artifact: ModelArtifact, test_xs) -> np.ndarray:
    """Deterministic predictions from a stored model.

    Regression methods return a mean vector; classification methods return
    quadrature class-1 probabilities. The Gram pieces are rebuilt from the
    stored inputs with the same arithmetic used at fit time, so results match
    the original model bit for bit.
    """
    payload = artifact.payload
    params = artifact.kernel_params
    train_xs = np.asarray(payload["train_xs"], dtype=float)
    pts = as_points(test_xs)
    k_star = kernel_matrix(pts, train_xs, params)

    if artifact.method in ("gpr", "gpr-data", "gpr-dist"):
        alpha = np.asarray(payload["alpha_weights"], dtype=float)
        return k_star @ alpha

    if artifact.method in ("gpc", "gpc-data", "gpc-dist"):
        scale = float(payload.get("kernel_scale", 1.0))
        diag_shift = float(payload.get("diag_shift", 0.0))
        alpha = np.asarray(payload["alpha_weights"], dtype=float)
        w = np.asarray(payload["w_diag"], dtype=float)
        K = scale * kernel_matrix(train_xs, train_xs, params)
        K[np.diag_indices_from(K)] = scale * params.signal_variance + params.jitter + diag_shift
        ks = scale * k_star
        mu = ks @ alpha
        k_ss = scale * kernel_matrix(pts, pts, params)
        np.fill_diagonal(k_ss, scale * params.signal_variance)
        cov = k_ss - ks @ CurvatureFactor(K, w).solve(ks.T)
        cov = 0.5 * (cov + cov.T)
        return sigmoid_gaussian_mean(mu, np.maximum(np.diag(cov), 0.0))

    raise ArtifactError(f"no predictor for method {artifact.method!r}")
