"""Relative-time benchmark of the distillation methods against a single ordinary fit.

Each cell measures how long a method takes at a given number of distillation
steps, divided by the time of this library's own single ordinary fit on the
same data (regression or classification as appropriate). The interesting part
is the shape over steps: the naive data-centric paths grow linearly, while the
spectral fast path and both distribution-centric methods stay flat.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from ..gpr import Dataset, fit_gpr
from ..gpr_distill import (
    DistillSchedule,
    data_centric_targets_fast,
    data_centric_targets_naive,
    effective_noise,
)
from ..gpc_distill import (
    GpcDistillConfig,
    data_centric_gpc,
    distribution_centric_gpc_scaled,
)
from ..kernels import KernelParams, gram, spectral_decompose
from ..laplace import BinaryDataset, laplace_mode

BENCH_METHODS = ("gpr-data-naive", "gpr-data-fast", "gpr-dist", "gpc-data", "gpc-dist")

# Every step's gamma in the regression schedules, and the noise of their baseline fit.
GAMMA = 0.5


@dataclass(frozen=True)
class BenchCell:
    method: str
    steps: int
    rel_mean: float
    rel_q10: float
    rel_q90: float
    reps: int


def _bench_data(seed: int, n: int) -> tuple[Dataset, BinaryDataset]:
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(0.0, 10.0, size=n))
    ys = xs * np.sin(xs) + rng.standard_normal(n)
    labels = (rng.uniform(size=n) < expit(np.sin(xs))).astype(float)
    return Dataset(xs=xs, ys=ys), BinaryDataset(xs=xs, ys=labels)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_fit_scaling(
    steps: tuple[int, ...] = (1, 5, 10, 20),
    reps: int = 30,
    n_train: int = 120,
    seed: int = 0,
    methods: tuple[str, ...] = BENCH_METHODS,
) -> list[BenchCell]:
    """Measure relative fit time per (method, step count) over `reps` repetitions.

    Returns one cell per combination with the mean and empirical 10/90
    quantiles of t_method / t_single_fit, the baseline re-measured within each
    repetition so drift cancels.
    """
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    for m in methods:
        if m not in BENCH_METHODS:
            raise ValueError(f"unknown bench method {m!r}; known: {BENCH_METHODS}")
    reg_data, cls_data = _bench_data(seed, n_train)
    params = KernelParams(signal_variance=1.0, length_scale=1.0)

    def run_method(method: str, t: int):
        schedule = DistillSchedule(gammas=(GAMMA,) * t)
        if method == "gpr-data-naive":
            data_centric_targets_naive(reg_data, params, schedule)
        elif method == "gpr-data-fast":
            decomp = spectral_decompose(gram(reg_data.xs, params, add_jitter=False))
            data_centric_targets_fast(decomp, reg_data.ys, schedule)
        elif method == "gpr-dist":
            eff = effective_noise(schedule, t)
            fit_gpr(reg_data, params, noise=eff.effective)
        elif method == "gpc-data":
            data_centric_gpc(cls_data, params, GpcDistillConfig(steps=t))
        elif method == "gpc-dist":
            distribution_centric_gpc_scaled(cls_data, params, t)

    def run_baseline(method: str):
        if method.startswith("gpr"):
            fit_gpr(reg_data, params, noise=GAMMA)
        else:
            K = gram(cls_data.xs, params, add_jitter=True)
            laplace_mode(cls_data.ys, K)

    cells = []
    for method in methods:
        # warm-up so first-call overheads do not land in the first cell
        run_baseline(method)
        run_method(method, steps[0])
        for t in steps:
            ratios = []
            for _ in range(reps):
                base = _timed(lambda: run_baseline(method))
                took = _timed(lambda: run_method(method, t))
                ratios.append(took / base)
            ratios = np.asarray(ratios)
            cells.append(
                BenchCell(
                    method=method,
                    steps=t,
                    rel_mean=float(np.mean(ratios)),
                    rel_q10=float(np.quantile(ratios, 0.10)),
                    rel_q90=float(np.quantile(ratios, 0.90)),
                    reps=reps,
                )
            )
    return cells


def relative_time_slope(cells: list[BenchCell], method: str) -> float:
    """Least-squares slope of mean relative time against step count for one method."""
    pts = [(c.steps, c.rel_mean) for c in cells if c.method == method]
    if len(pts) < 2:
        raise ValueError(f"need at least two step counts for {method!r}")
    x = np.asarray([p[0] for p in pts], dtype=float)
    y = np.asarray([p[1] for p in pts], dtype=float)
    return float(np.polyfit(x, y, 1)[0])
