"""Experiment runner: reproduction recipes that emit plot-ready CSVs and a manifest.

Outputs are data files, not rendered figures; every resolved parameter
(including defaults the user never touched) lands in manifest.json so a run is
reconstructible from its output directory alone.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..gpr import Dataset
from ..gpr_distill import (
    DistillSchedule,
    data_centric_predict,
    data_centric_targets_naive,
    distribution_centric_closed_form,
    effective_noise,
)
from ..gpc_distill import (
    GpcDistillConfig,
    approximation_error,
    data_centric_gpc,
    distribution_centric_gpc_iterated,
    distribution_centric_gpc_scaled,
    posterior_proba,
)
from ..gridsearch import GridSpec, grid_search
from ..kernels import KernelParams
from ..laplace import BERNOULLI, gpc_predict_proba, laplace_mode
from .datasets import (
    format_float,
    gen_classification_toy,
    gen_regression_toy,
    load_classification_csv,
    load_regression_csv,
)

# 2.5 / 97.5 Gaussian percentiles sit at +-z975 standard deviations.
Z975 = 1.959964

GPC_TEST_GRID = {"start": -2.0, "stop": 7.0, "num": 90}


@dataclass
class ExperimentConfig:
    experiment: str
    out_dir: Path
    seed: int = 0
    n_train: int | None = None
    steps: int = 10
    gammas: tuple[float, ...] | None = None
    sigma_f: float | None = None
    length_scale: float | None = None
    noise: float | None = None
    target_kind: str = "soft_mean"
    proba_method: str | None = None  # per-experiment default when unset
    dataset_csv: str | None = None

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        for name in ("sigma_f", "length_scale"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.noise is not None and not 0 <= self.noise < np.inf:
            raise ValueError(f"noise must be non-negative and finite, got {self.noise}")
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")
        if self.n_train is not None and self.n_train < 1:
            raise ValueError(f"n_train must be at least 1, got {self.n_train}")


def write_csv(path, header: list[str], rows) -> None:
    """CSV with a header row and 17-significant-digit floats."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [v if isinstance(v, str) else format_float(v) for v in row]
            )


def write_grid_csv(path, result) -> None:
    write_csv(
        path,
        ["sigma_f", "length_scale", "noise", "nll"],
        [(c.sigma_f, c.length_scale, c.noise, c.nll) for c in result.cells],
    )


def _output_dir(config: ExperimentConfig) -> Path:
    """Create the output directory once the results exist, so a failed run leaves none."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    return config.out_dir


def _write_manifest(out_dir: Path, manifest: dict) -> Path:
    path = out_dir / "manifest.json"
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
    return path


def _regression_data(config: ExperimentConfig) -> tuple[Dataset, dict]:
    if config.dataset_csv:
        data = load_regression_csv(config.dataset_csv)
        source = {"kind": "csv", "path": str(config.dataset_csv)}
    else:
        n = config.n_train or 10
        data = gen_regression_toy(config.seed, n=n)
        source = {
            "kind": "generated",
            "generator": "z*sin(z) on equidistant [0,10] grid + unit Gaussian noise",
            "n": n,
            "seed": config.seed,
        }
    return data, source


def _classification_data(config: ExperimentConfig):
    if config.dataset_csv:
        data = load_classification_csv(config.dataset_csv)
        source = {"kind": "csv", "path": str(config.dataset_csv)}
    else:
        n = config.n_train or 30
        data = gen_classification_toy(config.seed, n=n)
        source = {
            "kind": "generated",
            "generator": "x ~ U(0,5); y ~ Bernoulli(sigma(2 sin(x pi/2)))",
            "label_squash": "logistic sigma applied to the latent truth",
            "n": n,
            "seed": config.seed,
        }
    return data, source


def _resolve_regression_params(config: ExperimentConfig, data: Dataset) -> tuple[KernelParams, float, dict]:
    """Kernel hyperparameters for the regression toys.

    The toys leave the kernel hyperparameters free, so unless the caller pins
    them we grid-search the marginal NLL (noise held at the generator's unit
    variance) and record everything.
    """
    noise = config.noise if config.noise is not None else 1.0
    if config.sigma_f is not None and config.length_scale is not None:
        params = KernelParams(signal_variance=config.sigma_f**2, length_scale=config.length_scale)
        meta = {"selection": "user-fixed", "sigma_f": config.sigma_f,
                "length_scale": config.length_scale, "noise": noise}
        return params, noise, meta
    axis_sf = tuple(np.logspace(-0.5, 1.0, 10))
    axis_l = tuple(np.logspace(-1.0, 1.5, 10))
    result = grid_search(
        data,
        GridSpec(sigma_f_values=axis_sf, length_scale_values=axis_l),
        objective="gpr_nll",
        fixed_noise=noise,
    )
    meta = {
        "selection": "grid-search gpr_nll",
        "sigma_f_axis": list(axis_sf),
        "length_scale_axis": list(axis_l),
        "noise": noise,
        "best_sigma_f": float(np.sqrt(result.best_params.signal_variance)),
        "best_length_scale": result.best_params.length_scale,
        "best_nll": result.best_nll,
    }
    return result.best_params, noise, meta


def _resolve_classification_params(config: ExperimentConfig, data) -> tuple[KernelParams, dict]:
    if config.sigma_f is not None and config.length_scale is not None:
        params = KernelParams(signal_variance=config.sigma_f**2, length_scale=config.length_scale)
        return params, {"selection": "user-fixed", "sigma_f": config.sigma_f,
                        "length_scale": config.length_scale}
    axis_sf = tuple(np.logspace(-0.3, 0.8, 8))
    axis_l = tuple(np.logspace(-0.7, 0.9, 8))
    result = grid_search(
        data,
        GridSpec(sigma_f_values=axis_sf, length_scale_values=axis_l),
        objective="gpc_bernoulli_nll",
    )
    meta = {
        "selection": "grid-search gpc_bernoulli_nll",
        "sigma_f_axis": list(axis_sf),
        "length_scale_axis": list(axis_l),
        "best_sigma_f": float(np.sqrt(result.best_params.signal_variance)),
        "best_length_scale": result.best_params.length_scale,
        "best_nll": result.best_nll,
    }
    return result.best_params, meta


# ---------------------------------------------------------------------------
# regression reproductions
# ---------------------------------------------------------------------------

# The ten-step schedule "(0.1, ..., 1)" is taken as an equidistant linspace.
DEFAULT_TEN_STEP = tuple(np.linspace(0.1, 1.0, 10))

# Schedule ablations: constant, decreasing, and two ramps of different height.
ABLATION_SCHEDULES = {
    "const-0.2": tuple(np.full(10, 0.2)),
    "down-1.0-0.1": tuple(np.linspace(1.0, 0.1, 10)),
    "up-0.1-3.0": tuple(np.linspace(0.1, 3.0, 10)),
    "down-3.0-0.1": tuple(np.linspace(3.0, 0.1, 10)),
}


def _gpr_distill_rows(data, params, schedule, method: str, test_xs):
    rows = []
    for t in range(1, len(schedule) + 1):
        if method == "data":
            mean, cov = data_centric_predict(data, params, schedule, test_xs, step=t)
        else:
            mean, cov = distribution_centric_closed_form(data, params, schedule, t, test_xs)
        sd = np.sqrt(np.maximum(np.diag(cov), 0.0))
        for x, mu, s in zip(np.ravel(test_xs), mean, sd):
            rows.append((t, x, mu, mu - Z975 * s, mu + Z975 * s))
    return rows


def _run_gpr_ten_step(config: ExperimentConfig, method: str) -> dict:
    data, source = _regression_data(config)
    params, noise, param_meta = _resolve_regression_params(config, data)
    gammas = config.gammas or DEFAULT_TEN_STEP
    schedule = DistillSchedule(gammas=gammas)
    test_xs = np.linspace(0.0, 10.0, 200)

    rows = _gpr_distill_rows(data, params, schedule, method, test_xs)
    pred_path = _output_dir(config) / "predictions.csv"
    write_csv(pred_path, ["step", "x", "mean", "p2.5", "p97.5"], rows)

    files = {"predictions": pred_path.name}
    extras: dict = {}
    if method == "data":
        targets = data_centric_targets_naive(data, params, schedule)
        tpath = config.out_dir / "targets.csv"
        write_csv(
            tpath,
            ["step", "index", "target"],
            [(t + 1, i, y) for t, ys in enumerate(targets) for i, y in enumerate(ys)],
        )
        files["targets"] = tpath.name
    else:
        effs = [effective_noise(schedule, t) for t in range(1, len(schedule) + 1)]
        epath = config.out_dir / "effective_noise.csv"
        write_csv(
            epath,
            ["step", "gamma_minus", "effective_noise"],
            [(t + 1, e.gamma_minus, e.effective) for t, e in enumerate(effs)],
        )
        files["effective_noise"] = epath.name
        extras["effective_noise_final"] = effs[-1].effective

    manifest = {
        "experiment": config.experiment,
        "seed": config.seed,
        "dataset": source,
        "kernel": param_meta,
        "schedule": list(gammas),
        "schedule_note": "equidistant spacing assumed for the ten-step ramp",
        "steps": len(gammas),
        "test_grid": {"start": 0.0, "stop": 10.0, "num": 200},
        "percentiles": {"z": Z975, "levels": [2.5, 97.5]},
        "files": files,
        **extras,
    }
    _write_manifest(config.out_dir, manifest)
    return manifest


def _run_gpr_schedule_ablations(config: ExperimentConfig, method: str) -> dict:
    data, source = _regression_data(config)
    params, noise, param_meta = _resolve_regression_params(config, data)
    test_xs = np.linspace(0.0, 10.0, 200)
    rows = []
    for label, gammas in ABLATION_SCHEDULES.items():
        schedule = DistillSchedule(gammas=gammas)
        for row in _gpr_distill_rows(data, params, schedule, method, test_xs):
            rows.append((label,) + row)
    pred_path = _output_dir(config) / "predictions.csv"
    write_csv(pred_path, ["schedule", "step", "x", "mean", "p2.5", "p97.5"], rows)
    manifest = {
        "experiment": config.experiment,
        "seed": config.seed,
        "dataset": source,
        "kernel": param_meta,
        "schedules": {k: list(v) for k, v in ABLATION_SCHEDULES.items()},
        "test_grid": {"start": 0.0, "stop": 10.0, "num": 200},
        "percentiles": {"z": Z975, "levels": [2.5, 97.5]},
        "files": {"predictions": pred_path.name},
    }
    _write_manifest(config.out_dir, manifest)
    return manifest


# ---------------------------------------------------------------------------
# classification reproductions
# ---------------------------------------------------------------------------


def _run_gpc_data_cb(config: ExperimentConfig) -> dict:
    data, source = _classification_data(config)
    params, param_meta = _resolve_classification_params(config, data)
    test_xs = np.linspace(-0.5, 5.5, 200)
    proba_method = config.proba_method or "quadrature"
    reg_gamma = config.noise if config.noise is not None else 0.5

    chain = data_centric_gpc(data, params, GpcDistillConfig(steps=2, target_kind=config.target_kind))
    step1, step2_cb = chain[0], chain[1]

    # misspecified comparison: ordinary Bernoulli refit on the continuous targets
    fit_b = laplace_mode(step1.predicted, step1.gram_values, likelihood=BERNOULLI)

    # regularized CB refit
    reg_chain = data_centric_gpc(
        data, params, GpcDistillConfig(steps=2, target_kind=config.target_kind,
                                       reg_gammas=(0.0, reg_gamma))
    )
    step2_cb_reg = reg_chain[1]

    # hard-label refits (thresholded at 0.5): Bernoulli is well-specified here
    hard = (step1.predicted >= 0.5).astype(float)
    fit_hard_cb = data_centric_gpc(
        data, params, GpcDistillConfig(steps=2, target_kind="hard_threshold")
    )[1]
    fit_hard_b = laplace_mode(hard, step1.gram_values, likelihood=BERNOULLI)

    variants = {
        "step1-bernoulli": (step1.fit, step1.gram_values),
        "step2-cb": (step2_cb.fit, step2_cb.gram_values),
        "step2-bernoulli-misspecified": (fit_b, step1.gram_values),
        "step2-cb-regularized": (step2_cb_reg.fit, step2_cb_reg.gram_values),
        "step2-cb-hard-labels": (fit_hard_cb.fit, fit_hard_cb.gram_values),
        "step2-bernoulli-hard-labels": (fit_hard_b, step1.gram_values),
    }
    rows = []
    for label, (fit, K) in variants.items():
        probs = gpc_predict_proba(fit, K, data.xs, test_xs, params, method=proba_method)
        rows.extend((label, x, p) for x, p in zip(test_xs, probs))
    pred_path = _output_dir(config) / "predictions.csv"
    write_csv(pred_path, ["variant", "x", "probability"], rows)

    manifest = {
        "experiment": config.experiment,
        "seed": config.seed,
        "dataset": source,
        "kernel": param_meta,
        "target_kind": config.target_kind,
        "probability_method": proba_method,
        "regularizer_gamma": reg_gamma,
        "variants": sorted(variants),
        "test_grid": {"start": -0.5, "stop": 5.5, "num": 200},
        "files": {"predictions": pred_path.name},
    }
    _write_manifest(config.out_dir, manifest)
    return manifest


def _run_gpc_dist_ten_step(config: ExperimentConfig) -> dict:
    data, source = _classification_data(config)
    params, param_meta = _resolve_classification_params(config, data)
    grid = GPC_TEST_GRID
    test_xs = np.linspace(grid["start"], grid["stop"], grid["num"])
    steps = config.steps
    # latent-mean probabilities by default: the two chains track each other in
    # the mean but their posterior variances drift apart, so the quadrature
    # average would fold that drift into the error series
    proba_method = config.proba_method or "latent_mean"

    iterated = distribution_centric_gpc_iterated(data, params, steps)
    scaled = [distribution_centric_gpc_scaled(data, params, t) for t in range(1, steps + 1)]

    rows = []
    for t, (it_step, sc_step) in enumerate(zip(iterated, scaled), start=1):
        p_it = posterior_proba(it_step.posterior, test_xs, method=proba_method)
        p_sc = posterior_proba(sc_step.posterior, test_xs, method=proba_method)
        rows.extend((t, x, pi, ps) for x, pi, ps in zip(test_xs, p_it, p_sc))
    errors = approximation_error(iterated, scaled, test_xs, method=proba_method)

    pred_path = _output_dir(config) / "predictions.csv"
    write_csv(pred_path, ["step", "x", "probability_iterated", "probability_scaled"], rows)
    err_path = config.out_dir / "approximation_error.csv"
    write_csv(err_path, ["step", "mse"], list(enumerate(errors, start=1)))

    manifest = {
        "experiment": config.experiment,
        "seed": config.seed,
        "dataset": source,
        "kernel": param_meta,
        "steps": steps,
        "probability_method": proba_method,
        "test_grid": grid,
        "files": {"predictions": pred_path.name, "approximation_error": err_path.name},
    }
    _write_manifest(config.out_dir, manifest)
    return manifest


def _run_grid_search(config: ExperimentConfig) -> dict:
    from scipy.special import expit

    from ..laplace import BinaryDataset
    from .datasets import classification_latent_truth

    data, source = _classification_data(config)
    # The grids are swept on the continuous truth sigma(g(x)) at the sampled
    # inputs: that is the setting where the continuous likelihood is
    # well-specified and both sweeps have interior minimizers.
    cont_targets = expit(classification_latent_truth(data.xs.ravel()))
    data = BinaryDataset(data.xs, cont_targets)
    source = {**source, "targets": "continuous truth sigma(2 sin(x pi/2)) at the inputs"}
    axis_sf = tuple(np.logspace(-0.5, 1.0, 12))
    axis_l = tuple(np.logspace(-1.0, 1.0, 12))
    spec = GridSpec(sigma_f_values=axis_sf, length_scale_values=axis_l)
    files = {"gpc_bernoulli_nll": "grid_bernoulli.csv", "gpc_cb_nll": "grid_cb.csv"}
    results = {objective: grid_search(data, spec, objective=objective) for objective in files}
    out_dir = _output_dir(config)
    minima = {}
    for objective, result in results.items():
        write_grid_csv(out_dir / files[objective], result)
        minima[objective] = {
            "sigma_f": float(np.sqrt(result.best_params.signal_variance)),
            "length_scale": result.best_params.length_scale,
            "nll": result.best_nll,
        }
    manifest = {
        "experiment": config.experiment,
        "seed": config.seed,
        "dataset": source,
        "sigma_f_axis": list(axis_sf),
        "length_scale_axis": list(axis_l),
        "minima": minima,
        "files": files,
    }
    _write_manifest(config.out_dir, manifest)
    return manifest


EXPERIMENTS = {
    "gpr-data-10step": lambda cfg: _run_gpr_ten_step(cfg, "data"),
    "gpr-dist-10step": lambda cfg: _run_gpr_ten_step(cfg, "dist"),
    "gpr-data-schedules": lambda cfg: _run_gpr_schedule_ablations(cfg, "data"),
    "gpr-dist-schedules": lambda cfg: _run_gpr_schedule_ablations(cfg, "dist"),
    "gpc-data-cb": _run_gpc_data_cb,
    "gpc-dist-10step": _run_gpc_dist_ten_step,
    "grid-search": _run_grid_search,
}


def run_experiment(config: ExperimentConfig) -> dict:
    """Run one registered experiment; returns the manifest that was written."""
    if config.experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {config.experiment!r}; "
            f"known: {', '.join(sorted(EXPERIMENTS))}"
        )
    return EXPERIMENTS[config.experiment](config)
