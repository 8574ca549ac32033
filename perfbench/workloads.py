"""The four closed-loop workloads: inputs, one op, and the oracles that check it.

Each workload is one client that issues its next op only after the previous
one returns. Its inputs come from the workload seed alone and are the same for
every op of a run. `op` is the timed call. `record` keeps what the oracles
need and runs outside the timed region. `verify` runs once after the timed
loop and returns one verdict per recorded op, comparing it with references
computed on paths independent of the ones timed.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import expit

from gpdistill import gpc_distill, gpr, gpr_distill, gridsearch, kernels, laplace
from gpdistill.experiments import artifacts, cli, datasets
from gpdistill.kernels import KernelParams

# Norm-relative tolerance for closed forms against plain dense solves.
SOLVE_RTOL = 1e-8
# Scaled GPC fit against literal data replication (the library's own tolerance).
REPLICATION_ATOL = 1e-8
# Grid NLLs from the library against the benchmark's reference sweeps.
NLL_RTOL = 1e-8
# Artifact probabilities against the library's in-memory classifier.
PROBA_ATOL = 1e-9


def rbf(a, b, params: KernelParams) -> np.ndarray:
    """Reference RBF kernel through scipy's distance routine, not gpdistill's assembly."""
    a = np.asarray(a, dtype=float).reshape(len(a), -1)
    b = np.asarray(b, dtype=float).reshape(len(b), -1)
    sq = cdist(a, b, "sqeuclidean")
    return params.signal_variance * np.exp(-sq / (2.0 * params.length_scale))


def rel_err(actual, expected) -> float:
    expected = np.asarray(expected, dtype=float)
    return float(np.linalg.norm(np.asarray(actual) - expected) / max(np.linalg.norm(expected), 1e-300))


class GprDistill:
    """Regression fast path and pooled-noise fit at N=1000, d=3.

    Kernel assembly and eigh do most of the work; no Laplace fit runs.
    """

    name = "gpr-distill"
    N_TRAIN = 1000
    N_TEST = 300
    STEPS = 10

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0.0, 10.0, size=(self.N_TRAIN, 3))
        ys = xs[:, 0] * np.sin(xs[:, 1]) + np.cos(xs[:, 2]) + 0.3 * rng.standard_normal(self.N_TRAIN)
        self.data = gpr.Dataset(xs, ys)
        self.test_xs = rng.uniform(0.0, 10.0, size=(self.N_TEST, 3))
        self.params = KernelParams(signal_variance=4.0, length_scale=2.0)
        self.schedule = gpr_distill.DistillSchedule(gammas=tuple(np.linspace(0.1, 1.0, self.STEPS)))
        self.outputs: list = []

    def op(self):
        data_mean, data_cov = gpr_distill.data_centric_predict(
            self.data, self.params, self.schedule, self.test_xs, step=self.STEPS
        )
        dist_mean, dist_cov = gpr_distill.distribution_centric_closed_form(
            self.data, self.params, self.schedule, self.STEPS, self.test_xs
        )
        return data_mean, data_cov, dist_mean, dist_cov

    def record(self, result) -> None:
        data_mean, data_cov, dist_mean, dist_cov = result
        finite = bool(np.isfinite(data_cov).all() and np.isfinite(dist_cov).all())
        self.outputs.append((data_mean, dist_mean, finite))

    def verify(self) -> list[bool]:
        K = rbf(self.data.xs, self.data.xs, self.params)
        k_star = rbf(self.test_xs, self.data.xs, self.params)
        eye = np.eye(self.N_TRAIN)
        gammas = self.schedule.gammas
        y = self.data.ys
        for gamma in gammas[:-1]:
            y = K @ np.linalg.solve(K + gamma * eye, y)
        ref_data = k_star @ np.linalg.solve(K + gammas[-1] * eye, y)
        pooled = 1.0 / sum(1.0 / g for g in gammas)
        ref_dist = k_star @ np.linalg.solve(K + pooled * eye, self.data.ys)
        return [
            finite
            and rel_err(data_mean, ref_data) < SOLVE_RTOL
            and rel_err(dist_mean, ref_dist) < SOLVE_RTOL
            for data_mean, dist_mean, finite in self.outputs
        ]


class GpcDistill:
    """The paper's classification toy: iterated and scaled chains plus a data-centric chain.

    Closure-chain evaluation on 30-point matrices dominates; no eigh runs.
    """

    name = "gpc-distill"
    N_TRAIN = 30
    DEPTH = 8
    DATA_STEPS = 5

    def __init__(self, seed: int, workdir: Path):
        self.data = datasets.gen_classification_toy(seed, n=self.N_TRAIN)
        self.params = KernelParams(signal_variance=1.0, length_scale=1.0)
        self.test_xs = np.linspace(-2.0, 7.0, 90)  # the paper's error grid
        self.config = gpc_distill.GpcDistillConfig(steps=self.DATA_STEPS, target_kind="soft_mean")
        self.outputs: list = []

    def op(self):
        iterated = gpc_distill.distribution_centric_gpc_iterated(self.data, self.params, self.DEPTH)
        scaled = [
            gpc_distill.distribution_centric_gpc_scaled(self.data, self.params, t)
            for t in range(1, self.DEPTH + 1)
        ]
        errors = gpc_distill.approximation_error(iterated, scaled, self.test_xs, method="latent_mean")
        chain = gpc_distill.data_centric_gpc(self.data, self.params, self.config)
        last = chain[-1]
        proba = laplace.gpc_predict_proba(last.fit, last.gram_values, self.data.xs, self.test_xs,
                                          self.params)
        return iterated, scaled, errors, proba

    def record(self, result) -> None:
        iterated, scaled, errors, proba = result
        self.outputs.append(
            (iterated[0].fit.f_hat, [s.fit.f_hat for s in scaled], errors, proba)
        )

    def verify(self) -> list[bool]:
        replicated = [
            gpc_distill.fit_replicated_gpc(self.data, self.params, t).f_hat.reshape(t, -1)
            for t in range(1, self.DEPTH + 1)
        ]

        def ok(first_iterated, scaled_modes, errors, proba) -> bool:
            for blocks, mode in zip(replicated, scaled_modes):
                if np.max(np.abs(blocks - mode)) >= REPLICATION_ATOL:
                    return False
            return (
                np.max(np.abs(first_iterated - scaled_modes[0])) < REPLICATION_ATOL
                and len(errors) == self.DEPTH
                and bool(np.all(np.isfinite(errors)) and np.all(errors >= 0.0))
                and bool(np.all((proba > 0.0) & (proba < 1.0)))
            )

        return [ok(*out) for out in self.outputs]


class HyperSweep:
    """Three 8x8 grid searches: GPR NLL, Bernoulli GPC NLL and continuous-Bernoulli NLL.

    Many small fits: one eigh per GPR cell and one Newton solve per GPC cell.
    The sizes are small because at n=200/100 two-thread BLAS made the op 2.8x
    slower whenever another process took a core, and the median op time of ten
    runs spread by 31%. At n=60/40 a busy core slows the op by 1.4x.
    """

    name = "hyper-sweep"
    N_REGRESSION = 60
    N_CLASSIFICATION = 40
    NOISE = 1.0

    def __init__(self, seed: int, workdir: Path):
        axis = gridsearch.DEFAULT_GRID_AXIS[::2]
        self.spec = gridsearch.GridSpec(sigma_f_values=axis, length_scale_values=axis)
        regression = datasets.gen_regression_toy(seed, n=self.N_REGRESSION)
        labels = datasets.gen_classification_toy(seed, n=self.N_CLASSIFICATION)
        truth = expit(datasets.classification_latent_truth(labels.xs.ravel()))
        self.sweeps = (
            (regression, "gpr_nll", self.NOISE),
            (labels, "gpc_bernoulli_nll", 0.0),
            (laplace.BinaryDataset(labels.xs, truth), "gpc_cb_nll", 0.0),
        )
        self.outputs: list = []

    def op(self):
        return [
            gridsearch.grid_search(data, self.spec, objective=objective, fixed_noise=noise)
            for data, objective, noise in self.sweeps
        ]

    def record(self, result) -> None:
        self.outputs.append([np.array([c.nll for c in r.cells]) for r in result])

    def _reference_sweep(self, data, objective, noise) -> np.ndarray:
        out = []
        for sigma_f in sorted(self.spec.sigma_f_values):
            for length_scale in sorted(self.spec.length_scale_values):
                params = KernelParams(signal_variance=sigma_f**2, length_scale=length_scale)
                K = rbf(data.xs, data.xs, params)
                if objective == "gpr_nll":
                    shifted = K + noise * np.eye(len(K))
                    _, logdet = np.linalg.slogdet(shifted)
                    quad = float(data.ys @ np.linalg.solve(shifted, data.ys))
                    out.append(0.5 * (quad + logdet + len(K) * math.log(2.0 * math.pi)))
                    continue
                K[np.diag_indices_from(K)] += params.jitter
                likelihood = (laplace.BERNOULLI if objective == "gpc_bernoulli_nll"
                              else laplace.CONTINUOUS_BERNOULLI)
                try:
                    fit = laplace.laplace_mode(data.ys, K, likelihood=likelihood)
                    nll = -laplace.laplace_marginal_loglik(fit, K, data.ys)
                except (laplace.NewtonDidNotConverge, laplace.HessianNotPositiveDefinite,
                        np.linalg.LinAlgError):
                    nll = math.inf
                out.append(nll if math.isfinite(nll) else math.inf)
        return np.array(out)

    def verify(self) -> list[bool]:
        refs = [self._reference_sweep(*sweep) for sweep in self.sweeps]

        def ok(nlls) -> bool:
            gpr_nll, ref_gpr = nlls[0], refs[0]
            if not np.all(np.abs(gpr_nll - ref_gpr) <= NLL_RTOL * np.maximum(1.0, np.abs(ref_gpr))):
                return False
            for got, ref in zip(nlls[1:], refs[1:]):
                finite = np.isfinite(ref)
                if not np.array_equal(np.isfinite(got), finite) or not finite.any():
                    return False
                if np.argmin(got) != np.argmin(ref):
                    return False
            return True

        return [ok(nlls) for nlls in self.outputs]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliRoundtrip:
    """In-process `main(argv)` calls on files: generate, fit, predict, distill, sweep, reproduce.

    The only workload that writes files; CSV/JSON I/O and argument parsing weigh most.
    """

    name = "cli-roundtrip"
    N_PREDICT_ROWS = 20000
    GPR_KERNEL = ("--sigma-f", "2", "--length-scale", "1.5")
    GPC_KERNEL = ("--sigma-f", "1", "--length-scale", "1")
    GPC_POINTS = "linspace:-2:7:1000"

    def __init__(self, seed: int, workdir: Path):
        f = {name: str(workdir / name) for name in (
            "reg.csv", "cls.csv", "points.csv", "gpr.json", "gpc.json", "pred_gpr.csv",
            "pred_gpc.csv", "gpr_data.json", "gpr_dist.json", "gpc_data.json", "gpc_dist.json",
            "grid.csv", "reproduce",
        )}
        self.files = f
        s = str(seed)
        gammas = ("--gammas", "linspace:0.1:1:10")
        self.calls = [
            ["gen-data", "--kind", "regression", "--n", "60", "--seed", s, "--out", f["reg.csv"]],
            ["gen-data", "--kind", "classification", "--n", "60", "--seed", s, "--out", f["cls.csv"]],
            ["gen-data", "--kind", "regression", "--n", str(self.N_PREDICT_ROWS), "--seed", s,
             "--out", f["points.csv"]],
            ["fit", "--data", f["reg.csv"], "--method", "gpr", *self.GPR_KERNEL, "--noise", "1.0",
             "--save", f["gpr.json"]],
            ["fit", "--data", f["cls.csv"], "--method", "gpc", *self.GPC_KERNEL,
             "--save", f["gpc.json"]],
            ["predict", "--model", f["gpr.json"], "--data", f["points.csv"],
             "--out", f["pred_gpr.csv"]],
            ["predict", "--model", f["gpc.json"], "--points", self.GPC_POINTS,
             "--out", f["pred_gpc.csv"]],
            ["distill", "--data", f["reg.csv"], "--method", "gpr-data", *self.GPR_KERNEL, *gammas,
             "--save", f["gpr_data.json"]],
            ["distill", "--data", f["reg.csv"], "--method", "gpr-dist", *self.GPR_KERNEL, *gammas,
             "--save", f["gpr_dist.json"]],
            ["distill", "--data", f["cls.csv"], "--method", "gpc-data", *self.GPC_KERNEL,
             "--steps", "3", "--save", f["gpc_data.json"]],
            ["distill", "--data", f["cls.csv"], "--method", "gpc-dist", *self.GPC_KERNEL,
             "--steps", "5", "--save", f["gpc_dist.json"]],
            ["grid-search", "--data", f["reg.csv"], "--objective", "gpr", "--noise", "1.0",
             "--sigma-f-grid", "logspace:-1:1:4", "--length-scale-grid", "logspace:-1:1:4",
             "--out", f["grid.csv"]],
            ["reproduce", "gpr-dist-10step", "--out-dir", f["reproduce"], "--seed", s],
        ]
        self.outputs: list = []

    def op(self):
        return [cli.main(argv) for argv in self.calls]

    def record(self, codes) -> None:
        self.outputs.append((codes, _digest(Path(self.files["pred_gpr.csv"])),
                             _digest(Path(self.files["pred_gpc.csv"]))))

    def verify(self) -> list[bool]:
        """Exit codes, the artifact round trip, and the predicted values themselves.

        CLI predictions must be bit-equal to the same fit's artifact predicting
        in memory, and close to references on independent paths: a dense solve
        for the regression mean, gpc_predict_proba for the probabilities. The
        files on disk are those of the last op; every op's prediction files
        must be byte-identical to them.
        """
        f = self.files
        reg = np.loadtxt(f["reg.csv"], delimiter=",", skiprows=1, ndmin=2)
        cls = np.loadtxt(f["cls.csv"], delimiter=",", skiprows=1, ndmin=2)
        points = np.loadtxt(f["points.csv"], delimiter=",", skiprows=1, ndmin=2)[:, :-1]
        got_gpr = np.loadtxt(f["pred_gpr.csv"], delimiter=",", skiprows=1, ndmin=2)[:, -1]
        got_gpc = np.loadtxt(f["pred_gpc.csv"], delimiter=",", skiprows=1, ndmin=2)[:, -1]

        reg_xs, reg_ys = reg[:, :-1], reg[:, -1]
        gpr_params = KernelParams(signal_variance=2.0**2, length_scale=1.5)
        model = gpr.fit_gpr(gpr.Dataset(reg_xs, reg_ys), gpr_params, noise=1.0)
        roundtrip_gpr = artifacts.predict_from_artifact(artifacts.artifact_from_gpr(model), points)
        shifted = rbf(reg_xs, reg_xs, gpr_params) + np.eye(len(reg_ys))
        dense_gpr = rbf(points, reg_xs, gpr_params) @ np.linalg.solve(shifted, reg_ys)

        cls_xs = cls[:, :-1]
        gpc_params = KernelParams(signal_variance=1.0, length_scale=1.0)
        K = kernels.gram(cls_xs, gpc_params, add_jitter=True)
        fit = laplace.laplace_mode(cls[:, -1], K)
        gpc_points = np.linspace(-2.0, 7.0, 1000)
        roundtrip_gpc = artifacts.predict_from_artifact(
            artifacts.artifact_from_laplace(fit, gpc_params, cls_xs, method="gpc"), gpc_points
        )
        library_gpc = laplace.gpc_predict_proba(fit, K, cls_xs, gpc_points, gpc_params)

        files_ok = (
            np.array_equal(got_gpr, roundtrip_gpr)
            and np.array_equal(got_gpc, roundtrip_gpc)
            and rel_err(got_gpr, dense_gpr) < SOLVE_RTOL
            and float(np.max(np.abs(got_gpc - library_gpc))) < PROBA_ATOL
        )
        last = self.outputs[-1][1:]
        return [
            files_ok and all(code == 0 for code in codes) and (gpr_digest, gpc_digest) == last
            for codes, gpr_digest, gpc_digest in self.outputs
        ]


WORKLOADS = {cls.name: cls for cls in (GprDistill, GpcDistill, HyperSweep, CliRoundtrip)}
