"""Experiment runner: reproduction recipes that emit plot-ready CSVs and a manifest.

Outputs are data files, not rendered figures; every resolved parameter
(including defaults the user never touched) lands in manifest.json so a run is
reconstructible from its output directory alone.

Recipes are pure functions. Each takes an ExperimentConfig and returns a `Run`:
the resolved `Problem` (data, kernel hyperparameters and their manifest
records), its tables by file key (file name, header, columns) and its own
manifest fields. Only `run_experiment` touches the file system: once the
recipe has returned, it creates the output directory, writes every table
through `write_csv` and writes manifest.json, adding experiment, seed, dataset,
kernel and files. A run that fails therefore leaves no directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import expit

from ..gpr import Dataset
from ..gpr_distill import (
    DistillSchedule,
    data_centric_predict,
    data_centric_targets_fast,
    distribution_centric_closed_form,
    effective_noise,
)
from ..gpc_distill import (
    TARGET_KINDS,
    GpcDistillConfig,
    approximation_error,
    data_centric_gpc,
    distribution_centric_gpc_iterated,
    distribution_centric_gpc_scaled,
    duplication_gap,
    posterior_proba,
)
from ..gridsearch import GridSpec, grid_search
from ..kernels import KernelParams, SpectralDecomp, gram, signal_variance_of, spectral_decompose
from ..laplace import (
    BERNOULLI,
    CONTINUOUS_BERNOULLI,
    PROBA_METHODS,
    BinaryDataset,
    gpc_predict_proba,
    laplace_mode,
)
from .datasets import (
    _write_table,
    classification_latent_truth,
    gen_classification_toy,
    gen_regression_toy,
    load_classification_csv,
    load_regression_csv,
)

# 2.5 / 97.5 Gaussian percentiles sit at +-z975 standard deviations.
Z975 = 1.959964

# Chain length of the ids that run one, when --steps is unset.
DEFAULT_STEPS = 10

GPR_TEST_GRID = {"start": 0.0, "stop": 10.0, "num": 200}
GPC_TEST_GRID = {"start": -2.0, "stop": 7.0, "num": 90}
GPC_CB_TEST_GRID = {"start": -0.5, "stop": 5.5, "num": 200}
GRID_HEADER = ["sigma_f", "length_scale", "noise", "nll"]
BAND_HEADER = ["step", "x", "mean", "p2.5", "p97.5"]
BAND_FIELDS = {"test_grid": GPR_TEST_GRID, "percentiles": {"z": Z975, "levels": [2.5, 97.5]}}


class UsageError(ValueError):
    """Bad usage, such as a flag or field that the chosen mode would not read (exit 1 on the CLI)."""


def reject_unread(values, reads: dict[str, tuple[str, ...]], mode: str, label: str) -> None:
    """Raise UsageError for an attribute of `values` that is set but not in `reads[mode]`.

    `reads` maps each mode to the optional fields it reads; the union of its rows
    is every optional field. `label` names the mode in the message.
    """
    for name in dict.fromkeys(field for row in reads.values() for field in row):
        if getattr(values, name) is not None and name not in reads[mode]:
            raise UsageError(f"--{name.replace('_', '-')} does not apply to {label}")


@dataclass
class ExperimentConfig:
    experiment: str
    out_dir: Path
    seed: int = 0
    n_train: int | None = None  # sizes the generated toy; a dataset_csv run rejects it
    # run_experiment rejects any of these six that is set but not in its recipe's reads
    steps: int | None = None  # DEFAULT_STEPS for the chains; fixed designs reject it
    sigma_f: float | None = None
    length_scale: float | None = None
    noise: float | None = None
    target_kind: str | None = None  # soft_mean when unset
    proba_method: str | None = None  # per-experiment default when unset
    dataset_csv: str | None = None

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        if self.sigma_f is not None:
            signal_variance_of(self.sigma_f, "sigma_f")
        if self.length_scale is not None and not 0 < self.length_scale < np.inf:
            raise ValueError(f"length_scale must be positive and finite, got {self.length_scale}")
        if self.noise is not None and not 0 <= self.noise < np.inf:
            raise ValueError(f"noise must be non-negative and finite, got {self.noise}")
        if self.steps is not None and self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")
        if self.n_train is not None and self.n_train < 1:
            raise ValueError(f"n_train must be at least 1, got {self.n_train}")
        if self.n_train is not None and self.dataset_csv:
            raise UsageError("--n-train does not apply to a --data run: it sizes the generated toy")
        if self.target_kind is not None and self.target_kind not in TARGET_KINDS:
            raise ValueError(f"target_kind must be one of {TARGET_KINDS}, got {self.target_kind!r}")
        if self.proba_method is not None and self.proba_method not in PROBA_METHODS:
            raise ValueError(f"proba_method must be one of {PROBA_METHODS}, "
                             f"got {self.proba_method!r}")


class Table(NamedTuple):
    name: str
    header: list[str]
    columns: list


class Problem(NamedTuple):
    """A run's data and kernel hyperparameters, with the manifest records of both."""

    data: Dataset | BinaryDataset
    params: KernelParams | None
    dataset: dict
    kernel: dict | None = None


class Run(NamedTuple):
    """What a recipe returns; `run_experiment` writes it."""

    problem: Problem
    tables: dict[str, Table]
    fields: dict


def write_csv(path, header: list[str], columns) -> None:
    """CSV with a header row and one column per header entry: str cells verbatim,
    numbers with 17 significant digits (see `datasets._write_table`)."""
    _write_table(path, header, columns)


def grid_columns(result) -> list[list[float]]:
    """The GRID_HEADER columns of a grid search, one row per cell."""
    return [[getattr(c, name) for c in result.cells] for name in GRID_HEADER]


def _test_points(grid: dict) -> np.ndarray:
    return np.linspace(grid["start"], grid["stop"], grid["num"])


def _chain_steps(config: ExperimentConfig) -> int:
    return DEFAULT_STEPS if config.steps is None else config.steps


def _load_or_generate(config: ExperimentConfig, load, generate, n_default: int, about: dict):
    """The --data CSV, else the family's seeded toy; with the manifest's dataset record."""
    if config.dataset_csv:
        return load(config.dataset_csv), {"kind": "csv", "path": str(config.dataset_csv)}
    n = config.n_train or n_default
    return generate(config.seed, n=n), {"kind": "generated", **about, "n": n, "seed": config.seed}


def _select_kernel(config: ExperimentConfig, data, objective: str, axis_sf, axis_l,
                   **search) -> tuple[KernelParams, dict]:
    """The user's sigma_f and length_scale when both are set, else the argmin of a grid search.

    The toys leave the kernel hyperparameters free, so unless the caller pins
    them we grid-search the marginal NLL and record everything.
    """
    if config.sigma_f is not None and config.length_scale is not None:
        params = KernelParams(signal_variance=config.sigma_f**2, length_scale=config.length_scale)
        return params, {"selection": "user-fixed", "sigma_f": config.sigma_f,
                        "length_scale": config.length_scale}
    axis_sf, axis_l = tuple(axis_sf), tuple(axis_l)
    result = grid_search(data, GridSpec(sigma_f_values=axis_sf, length_scale_values=axis_l),
                         objective=objective, **search)
    return result.best_params, {
        "selection": f"grid-search {objective}",
        "sigma_f_axis": list(axis_sf),
        "length_scale_axis": list(axis_l),
        "best_sigma_f": float(np.sqrt(result.best_params.signal_variance)),
        "best_length_scale": result.best_params.length_scale,
        "best_nll": result.best_nll,
    }


def _regression_problem(config: ExperimentConfig) -> Problem:
    data, source = _load_or_generate(
        config, load_regression_csv, gen_regression_toy, 10,
        {"generator": "z*sin(z) on equidistant [0,10] grid + unit Gaussian noise"},
    )
    # the search holds the noise at the generator's unit variance
    noise = config.noise if config.noise is not None else 1.0
    params, kernel = _select_kernel(config, data, "gpr_nll", np.logspace(-0.5, 1.0, 10),
                                    np.logspace(-1.0, 1.5, 10), fixed_noise=noise)
    return Problem(data, params, source, {**kernel, "noise": noise})


def _classification_data(config: ExperimentConfig):
    return _load_or_generate(
        config, load_classification_csv, gen_classification_toy, 30,
        {"generator": "x ~ U(0,5); y ~ Bernoulli(sigma(2 sin(x pi/2)))",
         "label_squash": "logistic sigma applied to the latent truth"},
    )


def _classification_problem(config: ExperimentConfig) -> Problem:
    data, source = _classification_data(config)
    params, kernel = _select_kernel(config, data, "gpc_bernoulli_nll", np.logspace(-0.3, 0.8, 8),
                                    np.logspace(-0.7, 0.9, 8))
    return Problem(data, params, source, kernel)


# ---------------------------------------------------------------------------
# regression reproductions
# ---------------------------------------------------------------------------


def _ablation_schedules(steps: int) -> dict[str, tuple[float, ...]]:
    """Schedule ablations: constant, decreasing, and two ramps of different height."""
    return {
        "const-0.2": tuple(np.full(steps, 0.2)),
        "down-1.0-0.1": tuple(np.linspace(1.0, 0.1, steps)),
        "up-0.1-3.0": tuple(np.linspace(0.1, 3.0, steps)),
        "down-3.0-0.1": tuple(np.linspace(3.0, 0.1, steps)),
    }


def _keyed_blocks(keys, xs) -> list[np.ndarray]:
    """Columns key and x of a table holding one block of the points xs per key."""
    xs = np.ravel(xs)
    return [np.repeat(keys, len(xs)), np.tile(xs, len(keys))]


def _decompose(problem: Problem) -> SpectralDecomp:
    """The one eigendecomposition of the noiseless K that every step of a regression run shares."""
    return spectral_decompose(gram(problem.data.xs, problem.params, add_jitter=False))


def _gpr_band_columns(problem: Problem, decomp: SpectralDecomp, schedule: DistillSchedule,
                      method: str) -> list[np.ndarray]:
    """BAND_HEADER columns with one block of test points per step."""
    data, params, test_xs = problem.data, problem.params, _test_points(GPR_TEST_GRID)
    means, sds = [], []
    for t in range(1, len(schedule) + 1):
        if method == "data":
            mean, cov = data_centric_predict(data, params, schedule, test_xs, step=t, decomp=decomp)
        else:
            mean, cov = distribution_centric_closed_form(data, params, schedule, t, test_xs,
                                                         decomp=decomp)
        means.append(mean)
        sds.append(np.sqrt(np.maximum(np.diag(cov), 0.0)))
    mean, sd = np.concatenate(means), np.concatenate(sds)
    return [*_keyed_blocks(np.arange(1, len(schedule) + 1), test_xs),
            mean, mean - Z975 * sd, mean + Z975 * sd]


def _gpr_ten_step(config: ExperimentConfig, method: str) -> Run:
    problem = _regression_problem(config)
    # the paper's ramp "(0.1, ..., 1)", taken as equidistant over the chain's steps
    schedule = DistillSchedule(gammas=tuple(np.linspace(0.1, 1.0, _chain_steps(config))))
    steps = np.arange(1, len(schedule) + 1)
    decomp = _decompose(problem)
    tables = {"predictions": Table("predictions.csv", BAND_HEADER, _gpr_band_columns(
        problem, decomp, schedule, method))}
    fields = {
        "schedule": list(schedule.gammas),
        "schedule_note": "equidistant spacing assumed for the paper's ramp (0.1, ..., 1)",
        "steps": len(schedule),
        **BAND_FIELDS,
    }
    if method == "data":
        targets = [data_centric_targets_fast(decomp, problem.data.ys, schedule, t) for t in steps]
        tables["targets"] = Table("targets.csv", ["step", "index", "target"], [
            *_keyed_blocks(steps, np.arange(problem.data.n)), np.concatenate(targets)])
    else:
        effs = [effective_noise(schedule, t) for t in steps]
        tables["effective_noise"] = Table(
            "effective_noise.csv", ["step", "gamma_minus", "effective_noise"],
            [steps, [e.gamma_minus for e in effs], [e.effective for e in effs]],
        )
        fields["effective_noise_final"] = effs[-1].effective
    return Run(problem, tables, fields)


def _gpr_schedule_ablations(config: ExperimentConfig, method: str) -> Run:
    problem = _regression_problem(config)
    decomp = _decompose(problem)
    schedules = _ablation_schedules(_chain_steps(config))
    blocks = [_gpr_band_columns(problem, decomp, DistillSchedule(gammas=gammas), method)
              for gammas in schedules.values()]
    labels = np.repeat(list(schedules), [len(b[0]) for b in blocks])
    columns = [labels] + [np.concatenate(c) for c in zip(*blocks)]
    table = Table("predictions.csv", ["schedule", *BAND_HEADER], columns)
    return Run(problem, {"predictions": table}, {
        "schedules": {k: list(v) for k, v in schedules.items()},
        "steps": _chain_steps(config),
        **BAND_FIELDS,
    })


# ---------------------------------------------------------------------------
# classification reproductions
# ---------------------------------------------------------------------------


def _gpc_data_cb(config: ExperimentConfig) -> Run:
    problem = _classification_problem(config)
    data, params = problem.data, problem.params
    target_kind = config.target_kind or "soft_mean"
    proba_method = config.proba_method or "quadrature"
    reg_gamma = config.noise if config.noise is not None else 0.5

    # one chain fits step 1; every step-2 variant refits on its fit or its targets
    step1, step2_cb = data_centric_gpc(
        data, params, GpcDistillConfig(steps=2, target_kind=target_kind))
    K = step1.gram_values
    # misspecified comparison: ordinary Bernoulli refit on the continuous targets
    fit_b = laplace_mode(step1.predicted, K, likelihood=BERNOULLI)
    # regularized CB refit: reg_gamma on the diagonal, as the chain's reg_gammas would add
    K_reg = K + reg_gamma * np.eye(data.n)
    fit_cb_reg = laplace_mode(step1.predicted, K_reg, likelihood=CONTINUOUS_BERNOULLI)
    # hard labels: CB on the chain's hard_threshold rule, Bernoulli (well-specified) on p >= 0.5
    hard_cb = (step1.fit.f_hat >= 0.0).astype(float)
    fit_hard_cb = laplace_mode(hard_cb, K, likelihood=CONTINUOUS_BERNOULLI)
    hard = (step1.predicted >= 0.5).astype(float)
    fit_hard_b = laplace_mode(hard, K, likelihood=BERNOULLI)

    variants = {
        "step1-bernoulli": (step1.fit, K),
        "step2-cb": (step2_cb.fit, step2_cb.gram_values),
        "step2-bernoulli-misspecified": (fit_b, K),
        "step2-cb-regularized": (fit_cb_reg, K_reg),
        "step2-cb-hard-labels": (fit_hard_cb, K),
        "step2-bernoulli-hard-labels": (fit_hard_b, K),
    }
    test_xs = _test_points(GPC_CB_TEST_GRID)
    probs = [
        gpc_predict_proba(fit, K, data.xs, test_xs, params, method=proba_method)
        for fit, K in variants.values()
    ]
    columns = [*_keyed_blocks(list(variants), test_xs), np.concatenate(probs)]
    table = Table("predictions.csv", ["variant", "x", "probability"], columns)
    return Run(problem, {"predictions": table}, {
        "target_kind": target_kind,
        "probability_method": proba_method,
        "regularizer_gamma": reg_gamma,
        "variants": sorted(variants),
        "test_grid": GPC_CB_TEST_GRID,
    })


def _gpc_dist_ten_step(config: ExperimentConfig) -> Run:
    problem = _classification_problem(config)
    test_xs = _test_points(GPC_TEST_GRID)
    steps = _chain_steps(config)
    # latent-mean probabilities by default: the two chains track each other in
    # the mean but their posterior variances drift apart, so the quadrature
    # average would fold that drift into the error series
    proba_method = config.proba_method or "latent_mean"

    iterated = distribution_centric_gpc_iterated(problem.data, problem.params, steps)
    scaled = [distribution_centric_gpc_scaled(problem.data, problem.params, t)
              for t in range(1, steps + 1)]
    columns = [
        *_keyed_blocks(np.arange(1, steps + 1), test_xs),
        np.concatenate([posterior_proba(s.posterior, test_xs, method=proba_method)
                        for s in iterated]),
        np.concatenate([posterior_proba(s.posterior, test_xs, method=proba_method)
                        for s in scaled]),
    ]
    errors = approximation_error(iterated, scaled, test_xs, method=proba_method)
    return Run(problem, {
        "predictions": Table("predictions.csv",
                             ["step", "x", "probability_iterated", "probability_scaled"], columns),
        "approximation_error": Table("approximation_error.csv", ["step", "mse"],
                                     [np.arange(1, len(errors) + 1), errors]),
    }, {"steps": steps, "probability_method": proba_method, "test_grid": GPC_TEST_GRID,
        "duplication_gap": duplication_gap(iterated, scaled, problem.params.jitter).tolist()})


def _grid_search(config: ExperimentConfig) -> Run:
    data, source = _classification_data(config)
    # The grids are swept on the continuous truth sigma(g(x)) at the sampled
    # inputs: that is the setting where the continuous likelihood is
    # well-specified and both sweeps have interior minimizers.
    data = BinaryDataset(data.xs, expit(classification_latent_truth(data.xs.ravel())))
    source = {**source, "targets": "continuous truth sigma(2 sin(x pi/2)) at the inputs"}
    axis_sf = tuple(np.logspace(-0.5, 1.0, 12))
    axis_l = tuple(np.logspace(-1.0, 1.0, 12))
    spec = GridSpec(sigma_f_values=axis_sf, length_scale_values=axis_l)
    names = {"gpc_bernoulli_nll": "grid_bernoulli.csv", "gpc_cb_nll": "grid_cb.csv"}
    results = {objective: grid_search(data, spec, objective=objective) for objective in names}
    tables = {objective: Table(names[objective], GRID_HEADER, grid_columns(result))
              for objective, result in results.items()}
    minima = {
        objective: {
            "sigma_f": float(np.sqrt(result.best_params.signal_variance)),
            "length_scale": result.best_params.length_scale,
            "nll": result.best_nll,
        }
        for objective, result in results.items()
    }
    return Run(Problem(data, None, source), tables,
               {"sigma_f_axis": list(axis_sf), "length_scale_axis": list(axis_l), "minima": minima})


class Recipe(NamedTuple):
    run: Callable[[ExperimentConfig], Run]
    reads: tuple[str, ...]  # the optional ExperimentConfig fields that `run` reads


_GPR_READS = ("steps", "sigma_f", "length_scale", "noise")

EXPERIMENTS = {
    "gpr-data-10step": Recipe(lambda cfg: _gpr_ten_step(cfg, "data"), _GPR_READS),
    "gpr-dist-10step": Recipe(lambda cfg: _gpr_ten_step(cfg, "dist"), _GPR_READS),
    "gpr-data-schedules": Recipe(lambda cfg: _gpr_schedule_ablations(cfg, "data"), _GPR_READS),
    "gpr-dist-schedules": Recipe(lambda cfg: _gpr_schedule_ablations(cfg, "dist"), _GPR_READS),
    "gpc-data-cb": Recipe(_gpc_data_cb, ("sigma_f", "length_scale", "noise", "target_kind",
                                         "proba_method")),
    "gpc-dist-10step": Recipe(_gpc_dist_ten_step, ("steps", "sigma_f", "length_scale",
                                                   "proba_method")),
    "grid-search": Recipe(_grid_search, ()),
}

_READS = {name: recipe.reads for name, recipe in EXPERIMENTS.items()}


def run_experiment(config: ExperimentConfig) -> dict:
    """Run one registered experiment, write its tables and manifest.json into
    config.out_dir, and return the manifest."""
    if config.experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {config.experiment!r}; "
            f"known: {', '.join(sorted(EXPERIMENTS))}"
        )
    reject_unread(config, _READS, config.experiment, config.experiment)
    if (config.sigma_f is None) != (config.length_scale is None):
        raise UsageError("--sigma-f and --length-scale fix the kernel together; give both or "
                         "neither (neither runs the experiment's grid search)")
    problem, tables, fields = EXPERIMENTS[config.experiment].run(config)
    manifest = {
        "experiment": config.experiment,
        "seed": config.seed,
        "dataset": problem.dataset,
        "files": {key: table.name for key, table in tables.items()},
        **fields,
    }
    if problem.kernel is not None:
        manifest["kernel"] = problem.kernel
    # only after the recipe has returned, so a run that fails leaves no directory
    config.out_dir.mkdir(parents=True, exist_ok=True)
    for table in tables.values():
        write_csv(config.out_dir / table.name, table.header, table.columns)
    with open(config.out_dir / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
    return manifest
