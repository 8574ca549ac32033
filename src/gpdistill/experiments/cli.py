"""Command-line front end.

Subcommands: fit, predict, distill, grid-search, reproduce, bench, gen-data.
Exit codes: 0 success, 1 usage or I/O error, 2 numerical failure (diagnostics
on standard error).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from ..gpr import Dataset, fit_gpr
from ..gpr_distill import DistillSchedule, data_centric_targets_naive, effective_noise
from ..gpc_distill import (
    GpcDistillConfig,
    data_centric_gpc,
    distribution_centric_gpc_scaled,
)
from ..gridsearch import DEFAULT_GRID_AXIS, NUMERICAL_ERRORS, GridSpec, grid_search
from ..kernels import KernelParams, gram
from ..laplace import BERNOULLI, CONTINUOUS_BERNOULLI, laplace_mode
from .artifacts import (
    ArtifactError,
    artifact_from_gpr,
    artifact_from_laplace,
    load_model,
    predict_from_artifact,
    save_model,
)
from .bench import BENCH_METHODS, bench_fit_scaling
from .datasets import (
    format_float,
    gen_classification_toy,
    gen_regression_toy,
    load_classification_csv,
    load_regression_csv,
    write_dataset_csv,
)
from .runner import EXPERIMENTS, ExperimentConfig, run_experiment, write_csv, write_grid_csv


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the CLI contract reserves 2 for numerics
    def error(self, message):
        raise UsageError(message)


def parse_values(text: str) -> tuple[float, ...]:
    """Comma list ("0.1,0.2") or "linspace:a:b:n" / "logspace:a:b:n"."""
    text = text.strip()
    for name, fn in (("linspace", np.linspace), ("logspace", np.logspace)):
        if text.startswith(name + ":"):
            parts = text.split(":")
            if len(parts) != 4:
                raise UsageError(f"expected {name}:start:stop:num, got {text!r}")
            start, stop, num = float(parts[1]), float(parts[2]), int(parts[3])
            return tuple(fn(start, stop, num))
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse value list {text!r}") from None


def _kernel_params(args) -> KernelParams:
    # KernelParams sees only the square, which hides the sign
    if not 0 < args.sigma_f < np.inf:
        raise ValueError(f"--sigma-f must be positive and finite, got {args.sigma_f}")
    return KernelParams(
        signal_variance=args.sigma_f**2,
        length_scale=args.length_scale,
        jitter=args.jitter,
    )


def _add_kernel_flags(parser, required: bool = True):
    parser.add_argument("--sigma-f", type=float, required=required, default=None,
                        help="kernel scale sigma_f (signal variance is its square)")
    parser.add_argument("--length-scale", type=float, required=required, default=None)
    parser.add_argument("--jitter", type=float, default=1e-8)


def _points_from_args(args) -> np.ndarray:
    if args.points:
        return np.asarray(parse_values(args.points), dtype=float)
    if args.data:
        # only the inputs matter here; the regression reader accepts any targets
        return load_regression_csv(args.data).xs
    raise UsageError("predict needs --points or --data")


def _cmd_gen_data(args) -> int:
    if args.kind == "regression":
        data = gen_regression_toy(args.seed, n=args.n, noiseless=args.noiseless)
    else:
        data = gen_classification_toy(args.seed, n=args.n)
    write_dataset_csv(args.out, data.xs, data.ys)
    print(f"wrote {len(data.ys)} rows to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    params = _kernel_params(args)
    if args.method == "gpr":
        data = load_regression_csv(args.data)
        model = fit_gpr(data, params, noise=args.noise)
        artifact = artifact_from_gpr(model)
    else:
        data = load_classification_csv(args.data)
        K = gram(data.xs, params, add_jitter=True)
        likelihood = BERNOULLI if args.likelihood == "bernoulli" else CONTINUOUS_BERNOULLI
        fit = laplace_mode(data.ys, K, likelihood=likelihood)
        artifact = artifact_from_laplace(fit, params, data.xs, method="gpc")
    save_model(artifact, args.save)
    print(f"saved {artifact.method} model to {args.save}")
    return 0


def _cmd_predict(args) -> int:
    artifact = load_model(args.model)
    pts = _points_from_args(args)
    preds = predict_from_artifact(artifact, pts)
    pts2d = pts[:, None] if pts.ndim == 1 else pts
    header = [f"x{i + 1}" for i in range(pts2d.shape[1])] + ["prediction"]
    write_csv(args.out, header, [*pts2d.T, preds])
    print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


def _cmd_distill(args) -> int:
    params = _kernel_params(args)
    gammas = parse_values(args.gammas) if args.gammas else None
    steps = args.steps or (len(gammas) if gammas else None)
    if steps is None:
        raise UsageError("distill needs --steps or --gammas")

    if args.method in ("gpr-data", "gpr-dist"):
        if gammas is None:
            raise UsageError(f"{args.method} needs --gammas")
        if steps > len(gammas):
            raise UsageError(f"--steps {steps} exceeds the {len(gammas)}-entry gamma schedule")
        data = load_regression_csv(args.data)
        schedule = DistillSchedule(gammas=gammas, mix_alpha=args.mix_alpha)
        if args.method == "gpr-data":
            targets = data_centric_targets_naive(data, params, schedule)
            y_prev = data.ys if steps == 1 else targets[steps - 2]
            model = fit_gpr(Dataset(data.xs, y_prev), params, noise=schedule.gammas[steps - 1])
            artifact = artifact_from_gpr(model, method="gpr-data",
                                         extra={"gammas": list(schedule.gammas), "steps": steps})
        else:
            eff = effective_noise(schedule, steps)
            model = fit_gpr(data, params, noise=eff.effective)
            artifact = artifact_from_gpr(model, method="gpr-dist",
                                         extra={"gammas": list(schedule.gammas), "steps": steps,
                                                "effective_noise": eff.effective})
    elif args.method == "gpc-data":
        data = load_classification_csv(args.data)
        reg = tuple(parse_values(args.reg_gammas)) if args.reg_gammas else None
        chain = data_centric_gpc(
            data, params,
            GpcDistillConfig(steps=steps, target_kind=args.target_kind, reg_gammas=reg),
        )
        last = chain[-1]
        diag_shift = reg[-1] if reg else 0.0
        artifact = artifact_from_laplace(
            last.fit, params, data.xs, method="gpc-data", diag_shift=diag_shift,
            extra={"steps": steps, "target_kind": args.target_kind},
        )
    elif args.method == "gpc-dist":
        data = load_classification_csv(args.data)
        scaled = distribution_centric_gpc_scaled(data, params, steps)
        artifact = artifact_from_laplace(
            scaled.fit, params, data.xs, method="gpc-dist", kernel_scale=steps,
            extra={"steps": steps},
        )
    else:
        raise UsageError(f"unknown distill method {args.method!r}")

    save_model(artifact, args.save)
    print(f"saved {artifact.method} model ({steps} steps) to {args.save}")
    return 0


def _cmd_grid_search(args) -> int:
    spec = GridSpec(
        sigma_f_values=parse_values(args.sigma_f_grid) if args.sigma_f_grid else DEFAULT_GRID_AXIS,
        length_scale_values=(
            parse_values(args.length_scale_grid) if args.length_scale_grid else DEFAULT_GRID_AXIS
        ),
        noise_values=parse_values(args.noise_grid) if args.noise_grid else None,
    )
    objective = {"gpr": "gpr_nll", "gpc-bernoulli": "gpc_bernoulli_nll",
                 "gpc-cb": "gpc_cb_nll"}[args.objective]
    noise = args.noise
    if noise is None:
        # zero noise leaves K + 0*I singular in every cell on typical regression data
        if objective == "gpr_nll" and spec.noise_values is None:
            raise UsageError("--objective gpr needs --noise or --noise-grid")
        noise = 0.0
    if objective == "gpr_nll":
        data = load_regression_csv(args.data)
    else:
        data = load_classification_csv(args.data)
    result = grid_search(data, spec, objective=objective, fixed_noise=noise)
    write_grid_csv(args.out, result)
    best_sf = float(np.sqrt(result.best_params.signal_variance))
    print(
        f"best: sigma_f={format_float(best_sf)} "
        f"length_scale={format_float(result.best_params.length_scale)} "
        f"noise={format_float(result.best_noise)} nll={format_float(result.best_nll)}"
    )
    print(f"wrote {len(result.cells)} cells to {args.out}")
    return 0


def _cmd_reproduce(args) -> int:
    config = ExperimentConfig(
        experiment=args.experiment,
        out_dir=Path(args.out_dir),
        seed=args.seed,
        n_train=args.n_train,
        steps=args.steps,
        sigma_f=args.sigma_f,
        length_scale=args.length_scale,
        noise=args.noise,
        target_kind=args.target_kind,
        proba_method=args.proba_method,
        dataset_csv=args.data,
    )
    manifest = run_experiment(config)
    print(f"{args.experiment}: wrote {', '.join(manifest['files'].values())} to {args.out_dir}")
    return 0


def _cmd_bench(args) -> int:
    steps = tuple(int(s) for s in parse_values(args.steps))
    methods = tuple(args.methods.split(",")) if args.methods else BENCH_METHODS
    cells = bench_fit_scaling(steps=steps, reps=args.reps, n_train=args.n_train, seed=args.seed,
                              methods=methods)
    fields = ("method", "steps", "rel_mean", "rel_q10", "rel_q90", "reps")
    write_csv(
        args.out,
        ["method", "steps", "rel_time_mean", "rel_time_q10", "rel_time_q90", "reps"],
        [[getattr(c, name) for c in cells] for name in fields],
    )
    print(f"wrote {len(cells)} timing cells to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gpdistill",
                     description="Self-distillation for GP regression and classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a toy dataset CSV")
    p.add_argument("--kind", choices=("regression", "classification"), required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("fit", help="fit an ordinary GP model")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=("gpr", "gpc"), required=True)
    _add_kernel_flags(p)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--likelihood", choices=("bernoulli", "continuous-bernoulli"),
                   default="bernoulli")
    p.add_argument("--save", required=True)
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("predict", help="predict from a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", default=None, help="CSV whose inputs to predict at")
    p.add_argument("--points", default=None, help="e.g. linspace:0:10:100")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("distill", help="run a self-distillation chain and save the result")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=("gpr-data", "gpr-dist", "gpc-data", "gpc-dist"),
                   required=True)
    _add_kernel_flags(p)
    p.add_argument("--gammas", default=None, help='comma list or "linspace:a:b:n"')
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--mix-alpha", type=float, default=None)
    p.add_argument("--reg-gammas", default=None)
    p.add_argument("--target-kind", choices=("soft_mean", "latent_sigmoid", "hard_threshold"),
                   default="soft_mean")
    p.add_argument("--save", required=True)
    p.set_defaults(fn=_cmd_distill)

    p = sub.add_parser("grid-search", help="hyperparameter grid search by marginal NLL")
    p.add_argument("--data", required=True)
    p.add_argument("--objective", choices=("gpr", "gpc-bernoulli", "gpc-cb"), required=True)
    p.add_argument("--sigma-f-grid", default=None,
                   help="defaults to 16 log-spaced values over [1e-2, 1e2]")
    p.add_argument("--length-scale-grid", default=None,
                   help="defaults to 16 log-spaced values over [1e-2, 1e2]")
    p.add_argument("--noise-grid", default=None)
    p.add_argument("--noise", type=float, default=None,
                   help="fixed noise when no noise grid; the gpr objective needs one of the "
                        "two, the gpc objectives default to 0")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_grid_search)

    p = sub.add_parser("reproduce", help="run a registered experiment")
    p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-train", type=int, default=None)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--sigma-f", type=float, default=None)
    p.add_argument("--length-scale", type=float, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--target-kind", default="soft_mean")
    p.add_argument("--proba-method", choices=("quadrature", "latent_mean"),
                   default=None, help="default is experiment-specific and recorded")
    p.add_argument("--data", default=None)
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("bench", help="relative fit-time benchmark")
    p.add_argument("--steps", default="1,5,10,20")
    p.add_argument("--reps", type=int, default=30)
    p.add_argument("--n-train", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--methods", default=None, help=f"comma list from {BENCH_METHODS}")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NUMERICAL_ERRORS as exc:
        # before ValueError: LinAlgError and its subclasses are ValueErrors
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ArtifactError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
