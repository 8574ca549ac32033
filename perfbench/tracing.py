"""Span tracing around the public functions of every gpdistill module.

`Tracer.install` replaces each function in TARGETS by a wrapper and rebinds
every module-level name that refers to the original, in every loaded gpdistill
module and in any extra module passed in (the benchmark's workloads). Calls
that cross modules through `from .x import f` bindings are therefore seen too.
Methods are replaced on their class. `uninstall` restores the originals.

Spans are recorded only while an op is open (`begin_op` .. `end_op`), so
set-up, warm-up and the oracles stay out of the trace. Each span keeps its
name, start, end, parent span and op id in memory; `write_spans` writes them
out. Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from pathlib import Path

# (metric prefix, defining module, qualified name inside that module)
TARGETS = (
    ("kernels.kernel_matrix", "gpdistill.kernels", "kernel_matrix"),
    ("kernels.gram", "gpdistill.kernels", "gram"),
    ("kernels.spectral_decompose", "gpdistill.kernels", "spectral_decompose"),
    ("kernels.SpectralDecomp.solve_shifted", "gpdistill.kernels", "SpectralDecomp.solve_shifted"),
    ("kernels.SpectralDecomp.apply_filter", "gpdistill.kernels", "SpectralDecomp.apply_filter"),
    ("gpr.fit_gpr", "gpdistill.gpr", "fit_gpr"),
    ("gpr.predict_gpr", "gpdistill.gpr", "predict_gpr"),
    ("gpr.PosteriorGP.mean", "gpdistill.gpr", "PosteriorGP.mean"),
    ("gpr.PosteriorGP.cov", "gpdistill.gpr", "PosteriorGP.cov"),
    ("gpr_distill.data_centric_predict", "gpdistill.gpr_distill", "data_centric_predict"),
    ("gpr_distill.data_centric_targets_fast", "gpdistill.gpr_distill", "data_centric_targets_fast"),
    ("gpr_distill.data_centric_targets_naive", "gpdistill.gpr_distill", "data_centric_targets_naive"),
    ("gpr_distill.distribution_centric_closed_form", "gpdistill.gpr_distill",
     "distribution_centric_closed_form"),
    ("cont_bernoulli.cb_terms", "gpdistill.cont_bernoulli", "cb_terms"),
    ("laplace.laplace_mode", "gpdistill.laplace", "laplace_mode"),
    ("laplace.gpc_predict_latent", "gpdistill.laplace", "gpc_predict_latent"),
    ("laplace.gpc_predict_proba", "gpdistill.laplace", "gpc_predict_proba"),
    ("laplace.laplace_marginal_loglik", "gpdistill.laplace", "laplace_marginal_loglik"),
    ("gpc_distill.distribution_centric_gpc_iterated", "gpdistill.gpc_distill",
     "distribution_centric_gpc_iterated"),
    ("gpc_distill.distribution_centric_gpc_scaled", "gpdistill.gpc_distill",
     "distribution_centric_gpc_scaled"),
    ("gpc_distill.data_centric_gpc", "gpdistill.gpc_distill", "data_centric_gpc"),
    ("gpc_distill.posterior_proba", "gpdistill.gpc_distill", "posterior_proba"),
    ("gpc_distill.approximation_error", "gpdistill.gpc_distill", "approximation_error"),
    ("gridsearch.grid_search", "gpdistill.gridsearch", "grid_search"),
    ("gridsearch.gpr_marginal_nll", "gpdistill.gridsearch", "gpr_marginal_nll"),
    ("experiments.datasets.write_dataset_csv", "gpdistill.experiments.datasets", "write_dataset_csv"),
    ("experiments.datasets.load_regression_csv", "gpdistill.experiments.datasets",
     "load_regression_csv"),
    ("experiments.datasets.load_classification_csv", "gpdistill.experiments.datasets",
     "load_classification_csv"),
    ("experiments.artifacts.save_model", "gpdistill.experiments.artifacts", "save_model"),
    ("experiments.artifacts.load_model", "gpdistill.experiments.artifacts", "load_model"),
    ("experiments.artifacts.predict_from_artifact", "gpdistill.experiments.artifacts",
     "predict_from_artifact"),
    ("experiments.runner.run_experiment", "gpdistill.experiments.runner", "run_experiment"),
    ("experiments.runner.write_csv", "gpdistill.experiments.runner", "write_csv"),
    ("experiments.cli.main", "gpdistill.experiments.cli", "main"),
)


# Counters read off a successful call's result.
_RESULT_COUNTS = {
    "kernels.kernel_matrix": lambda r: {"kernels.kernel_matrix.entries": r.size},
    "kernels.spectral_decompose": lambda r: {"kernels.spectral_decompose.n3": r.n**3},
    "laplace.laplace_mode": lambda r: {"laplace.newton_iterations": r.iterations},
    "gridsearch.grid_search": lambda r: {
        "gridsearch.cells": len(r.cells),
        "gridsearch.cells_failed": sum(not math.isfinite(c.nll) for c in r.cells),
    },
}

# Functions whose `path` argument names the file they write or read.
_FILE_COUNTS = {
    "experiments.datasets.write_dataset_csv": "experiments.bytes_written",
    "experiments.datasets.load_regression_csv": "experiments.bytes_read",
    "experiments.datasets.load_classification_csv": "experiments.bytes_read",
    "experiments.artifacts.save_model": "experiments.bytes_written",
    "experiments.artifacts.load_model": "experiments.bytes_read",
    "experiments.runner.write_csv": "experiments.bytes_written",
}

# A fit that raises is a failed Newton solve, whatever the exception type.
_ERROR_COUNTS = {"laplace.laplace_mode": "laplace.newton_failures"}


def _count_hooks(originals: dict) -> dict:
    """prefix -> fn(args, kwargs, result) returning counter increments."""
    hooks = {
        prefix: (lambda args, kwargs, result, count=count: count(result))
        for prefix, count in _RESULT_COUNTS.items()
    }

    def file_size(prefix, counter):
        signature = inspect.signature(originals[prefix])

        def hook(args, kwargs, result):
            return {counter: os.path.getsize(signature.bind(*args, **kwargs).arguments["path"])}

        return hook

    for prefix, counter in _FILE_COUNTS.items():
        hooks[prefix] = file_size(prefix, counter)

    def manifest_size(args, kwargs, result):
        config = args[0] if args else kwargs["config"]
        return {"experiments.bytes_written": os.path.getsize(config.out_dir / "manifest.json")}

    # run_experiment writes its manifest directly; its CSVs go through write_csv.
    hooks["experiments.runner.run_experiment"] = manifest_size
    return hooks


EXTRA_COUNTS = (
    "kernels.kernel_matrix.entries",
    "kernels.spectral_decompose.n3",
    "laplace.newton_iterations",
    "laplace.newton_failures",
    "gridsearch.cells",
    "gridsearch.cells_failed",
    "experiments.bytes_written",
    "experiments.bytes_read",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for prefix, _, _ in TARGETS:
        names += [f"{prefix}.calls", f"{prefix}.self_s"]
    return names + list(EXTRA_COUNTS)


class Tracer:
    """Installs wrappers, records spans while an op is open, and sums them per target."""

    def __init__(self):
        self.op_id: int | None = None
        self.spans: list[tuple] = []  # (span id, parent id or -1, op id, prefix, start, end)
        self.calls = {prefix: 0 for prefix, _, _ in TARGETS}
        self.self_s = {prefix: 0.0 for prefix, _, _ in TARGETS}
        self.counts = {name: 0 for name in EXTRA_COUNTS}
        self._stack: list[list] = []  # [span id, summed child duration]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        originals = {}
        owners = {}
        for prefix, module_name, qualname in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            originals[prefix] = getattr(owner, attr)
            owners[prefix] = (owner, attr)
        hooks = _count_hooks(originals)
        wrappers = {
            prefix: self._wrap(prefix, fn, hooks.get(prefix)) for prefix, fn in originals.items()
        }
        for prefix, (owner, attr) in owners.items():
            if inspect.isclass(owner):
                self._rebind(owner, attr, wrappers[prefix])
        # The originals stay alive, so equal ids mean the very same function.
        by_id = {id(fn): wrappers[prefix] for prefix, fn in originals.items()}
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "gpdistill" or name.startswith("gpdistill.")
        ]
        for module in modules + list(extra_modules):
            for name, value in list(vars(module).items()):
                if id(value) in by_id:
                    self._rebind(module, name, by_id[id(value)])

    def _rebind(self, owner, name, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- recording ----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_op(self) -> None:
        self.op_id = None

    def _wrap(self, prefix, fn, count_hook):
        error_counter = _ERROR_COUNTS.get(prefix)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(prefix, frame, parent, start, time.perf_counter())
                if error_counter is not None:
                    tracer.counts[error_counter] += 1
                raise
            tracer._close(prefix, frame, parent, start, time.perf_counter())
            if count_hook is not None:
                for name, value in count_hook(args, kwargs, result).items():
                    tracer.counts[name] += value
            return result

        return wrapper

    def _close(self, prefix, frame, parent, start, end) -> None:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[prefix] += 1
        self.self_s[prefix] += duration - frame[1]
        self.spans.append((frame[0], parent, self.op_id, prefix, start, end))

    # -- reporting ----------------------------------------------------------

    def per_op(self, ops: int) -> dict[str, float]:
        """Every per-layer metric divided by the number of traced ops."""
        out = {}
        for prefix, _, _ in TARGETS:
            out[f"{prefix}.calls"] = self.calls[prefix] / ops
            out[f"{prefix}.self_s"] = self.self_s[prefix] / ops
        for name in EXTRA_COUNTS:
            out[name] = self.counts[name] / ops
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write("span,parent,op,name,start_s,end_s\n")
            for span_id, parent, op_id, prefix, start, end in sorted(self.spans):
                handle.write(f"{span_id},{parent},{op_id},{prefix},{start!r},{end!r}\n")
