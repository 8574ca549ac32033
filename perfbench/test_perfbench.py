"""Tests of the benchmark itself, and of the paper's cost claims through traced counts.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import json

import numpy as np
import pytest

import program
import run
import tracing
import workloads
from gpdistill import gpr_distill, kernels


def traced(workload, ops: int) -> tracing.Tracer:
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        for op_id in range(ops):
            tracer.begin_op(op_id)
            workload.op()
            tracer.end_op()
    finally:
        tracer.uninstall()
    return tracer


def counts(tracer: tracing.Tracer, ops: int) -> dict:
    return {k: v for k, v in tracer.per_op(ops).items() if not k.endswith(".self_s")}


@pytest.mark.parametrize("steps", [2, 10])
def test_fast_path_needs_two_eigendecompositions_for_any_schedule_length(tmp_path, steps):
    workload = workloads.GprDistill(0, tmp_path)
    workload.STEPS = steps
    workload.schedule = gpr_distill.DistillSchedule(gammas=tuple(np.linspace(0.1, 1.0, steps)))
    per_op = traced(workload, ops=1).per_op(1)
    # one for the data-centric fast path, one for the pooled-noise fit
    assert per_op["kernels.spectral_decompose.calls"] == 2
    assert per_op["kernels.spectral_decompose.n3"] == 2 * workload.N_TRAIN**3


def test_gpc_op_runs_21_laplace_fits(tmp_path):
    # 8 iterated steps (one fit each) + 8 scaled fits + a 5-step data-centric chain
    per_op = traced(workloads.GpcDistill(0, tmp_path), ops=1).per_op(1)
    assert per_op["laplace.laplace_mode.calls"] == 21
    assert per_op["gpc_distill.distribution_centric_gpc_scaled.calls"] == 8
    assert per_op["kernels.spectral_decompose.calls"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(tmp_path, name):
    runs = []
    for i in range(2):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        runs.append(counts(traced(workloads.WORKLOADS[name](3, workdir), ops=2), 2))
    assert runs[0] == runs[1]
    assert any(v > 0 for v in runs[0].values())


def test_self_times_add_up_to_root_spans(tmp_path):
    tracer = traced(workloads.GpcDistill(0, tmp_path), ops=1)
    roots = sum(end - start for _, parent, _, _, start, end in tracer.spans if parent == -1)
    assert sum(tracer.self_s.values()) == pytest.approx(roots, rel=1e-9)
    ids = {span[0] for span in tracer.spans}
    assert all(parent in ids for _, parent, *_ in tracer.spans if parent != -1)


def test_uninstall_restores_every_binding(tmp_path):
    from gpdistill import gpr
    from gpdistill.experiments import cli

    before = (kernels.kernel_matrix, gpr.kernel_matrix, cli.main, kernels.SpectralDecomp.solve_shifted)
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads])
    assert gpr.kernel_matrix is not before[1] and gpr.kernel_matrix is kernels.kernel_matrix
    tracer.uninstall()
    after = (kernels.kernel_matrix, gpr.kernel_matrix, cli.main, kernels.SpectralDecomp.solve_shifted)
    assert all(a is b for a, b in zip(before, after))


def _tamper_gpr(out):
    data_mean, dist_mean, finite = out
    return data_mean, dist_mean * (1 + 1e-6), finite


def _tamper_gpc(out):
    first, modes, errors, proba = out
    return first, [modes[0]] + [m + 1e-6 for m in modes[1:]], errors, proba


def _tamper_sweep(out):
    gpr_nll, bern, cb = out
    return gpr_nll, bern, np.roll(cb, 1)


def _tamper_cli(out):
    codes, gpr_digest, gpc_digest = out
    return [0] * (len(codes) - 1) + [2], gpr_digest, gpc_digest


@pytest.mark.parametrize("name,tamper", [
    ("gpr-distill", _tamper_gpr),
    ("gpc-distill", _tamper_gpc),
    ("hyper-sweep", _tamper_sweep),
    ("cli-roundtrip", _tamper_cli),
])
def test_oracles_accept_real_ops_and_reject_altered_ones(tmp_path, name, tamper):
    workload = workloads.WORKLOADS[name](5, tmp_path)
    workload.record(workload.op())
    workload.outputs.append(tamper(workload.outputs[0]))
    assert workload.verify() == [True, False]


def test_benchmark_json_names_match_reported_metrics():
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    fake = {"latencies": [0.5] * 20, "attempted": 20, "failed": 0, "busy_s": 10.0, "cpu_s": 20.0,
            "peak_rss_kb": 1024}
    reported, _ = run.end_to_end(fake, [1.0])
    assert [m["name"] for m in spec["end_to_end"]] == list(reported)
    assert all(m["unit"] == reported[m["name"]][1] for m in spec["end_to_end"])
    fake = {"per_layer": dict.fromkeys(tracing.metric_names(), 1.0), "ops_per_s_untraced": 1.0,
            "ops_per_s_traced": 1.0, "spans": 0, "spans_file": ""}
    reported, _ = run.per_layer(fake)
    assert [m["name"] for m in spec["per_layer"]] == list(reported)
    assert all(m["unit"] == reported[m["name"]][1] for m in spec["per_layer"])


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
