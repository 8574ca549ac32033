"""Versioned JSON persistence for fitted models.

Numeric fields are stored as JSON numbers, whose text form (repr of a Python
float) round-trips bit-exactly, so a saved-then-loaded model reproduces its
predictions to the last bit. Each artifact carries a method tag that the
loader dispatches on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from ..gpr import GprModel, PosteriorGP
from ..kernels import KernelParams, as_points, gram, kernel_matrix
from ..laplace import CurvatureFactor, LaplaceFit, posterior_proba

FORMAT_VERSION = 1

METHOD_TAGS = ("gpr", "gpr-data", "gpr-dist", "gpc", "gpc-data", "gpc-dist")

# Payload entries each method family needs in order to predict.
_REQUIRED_KEYS = {
    "gpr": ("train_xs", "alpha_weights", "noise"),
    "gpc": ("train_xs", "alpha_weights", "w_diag"),
}


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
        artifact = ModelArtifact(
            method=doc["method"], kernel_params=params, payload=doc["payload"]
        )
        _check_payload(artifact.method, artifact.payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: malformed model file: {exc}") from exc
    return artifact


def _check_payload(method: str, payload) -> None:
    """Raise ValueError unless the payload can drive predict_from_artifact."""
    if not isinstance(payload, dict):
        raise ValueError(f"payload must be an object, got {type(payload).__name__}")
    required = _REQUIRED_KEYS[method.split("-")[0]]
    missing = [key for key in required if key not in payload]
    if missing:
        raise ValueError(f"payload lacks {', '.join(missing)}")
    xs = as_points(payload["train_xs"])
    vectors = {key: np.asarray(payload[key], dtype=float)
               for key in ("alpha_weights", "w_diag") if key in required}
    scalars = {key: float(payload[key])
               for key in ("noise", "kernel_scale", "diag_shift") if key in payload}
    if not all(np.all(np.isfinite(v)) for v in (xs, *vectors.values(), *scalars.values())):
        raise ValueError("payload values must be finite")
    if len(xs) < 1:
        raise ValueError("train_xs holds no points")
    for key, vector in vectors.items():
        if vector.shape != (len(xs),):
            raise ValueError(f"{key} has shape {vector.shape} for {len(xs)} training inputs")
    if np.any(vectors.get("w_diag", 0.0) < 0.0):
        raise ValueError("w_diag must be non-negative")
    if scalars.get("kernel_scale", 1.0) <= 0.0:
        raise ValueError("kernel_scale must be positive")
    if scalars.get("diag_shift", 0.0) < 0.0 or scalars.get("noise", 0.0) < 0.0:
        raise ValueError("diag_shift and noise must be non-negative")


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
    quadrature class-1 probabilities of the stored fit as a PosteriorGP. The
    Gram pieces are rebuilt from the stored inputs with the library's own
    assembly, so a loaded model predicts bit for bit what it did before saving.
    """
    payload = artifact.payload
    params = artifact.kernel_params
    train_xs = np.asarray(payload["train_xs"], dtype=float)
    pts = as_points(test_xs)
    alpha = np.asarray(payload["alpha_weights"], dtype=float)

    if artifact.method in ("gpr", "gpr-data", "gpr-dist"):
        return kernel_matrix(pts, train_xs, params) @ alpha

    if artifact.method in ("gpc", "gpc-data", "gpc-dist"):
        scale = float(payload.get("kernel_scale", 1.0))
        scaled = replace(params, signal_variance=scale * params.signal_variance)
        # the Gram the stored fit ran on: scaled kernel, jitter and diag_shift
        K = gram(train_xs, scaled, add_jitter=True)
        K[np.diag_indices_from(K)] += float(payload.get("diag_shift", 0.0))
        w = np.asarray(payload["w_diag"], dtype=float)
        gp = PosteriorGP(train_xs, scaled, alpha, CurvatureFactor(K, w).half)
        return posterior_proba(gp, pts, "quadrature")

    raise ArtifactError(f"no predictor for method {artifact.method!r}")
