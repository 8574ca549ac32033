"""One measured run of one workload, in a fresh process started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --result PATH [--setup-only]

The worker imports gpdistill, builds the workload's inputs from the seed and
runs one warm-up op; the moment that ends is its ready time. With
--setup-only it stops there. Otherwise it runs the closed loop for --seconds
(with --trace 1: the first half untraced, the second half traced), then runs
the oracles and writes the raw figures as JSON to --result.

Times passed to the parent come from time.monotonic, which on Linux reads the
system-wide CLOCK_MONOTONIC, so they are comparable across processes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

import program
import tracing


def run_loop(workload, seconds: float, tracer=None, first_op: int = 0) -> dict:
    """Issue ops back to back until `seconds` have passed; returns the raw figures."""
    latencies = []
    busy_s = cpu_s = 0.0
    attempted = raised = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if tracer is not None:
            tracer.begin_op(first_op + attempted)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = workload.op()
        except Exception:
            result = None
            raised += 1
            traceback.print_exc()
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        if tracer is not None:
            tracer.end_op()
        attempted += 1
        busy_s += t1 - t0
        cpu_s += cpu1 - cpu0
        if result is not None:
            latencies.append(t1 - t0)
            workload.record(result)
    return {"attempted": attempted, "raised": raised, "latencies": latencies,
            "busy_s": busy_s, "cpu_s": cpu_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    program.use_checkout_sources()
    import workloads

    workdir = program.OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.op()  # warm-up: lazy imports, BLAS thread start, file creation
        ready = time.monotonic()
        out = {"ready": ready}
        if not args.setup_only:
            out.update(measure(workload, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w") as handle:
        json.dump(out, handle)
    return 0


def measure(workload, args) -> dict:
    import workloads

    if args.trace:
        untraced = run_loop(workload, args.seconds / 2.0)
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
        try:
            traced = run_loop(workload, args.seconds / 2.0, tracer, first_op=untraced["attempted"])
        finally:
            tracer.uninstall()
        loops = [untraced, traced]
    else:
        loops = [run_loop(workload, args.seconds)]
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    verdicts = workload.verify()
    out = {
        "attempted": sum(loop["attempted"] for loop in loops),
        "failed": sum(loop["raised"] for loop in loops) + verdicts.count(False),
        "latencies": [lat for loop in loops for lat in loop["latencies"]],
        "busy_s": sum(loop["busy_s"] for loop in loops),
        "cpu_s": sum(loop["cpu_s"] for loop in loops),
        "peak_rss_kb": peak_rss_kb,
    }
    if args.trace:
        spans_path = program.OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans_path)
        out["per_layer"] = tracer.per_op(traced["attempted"])
        out["ops_per_s_untraced"] = len(untraced["latencies"]) / untraced["busy_s"]
        out["ops_per_s_traced"] = len(traced["latencies"]) / traced["busy_s"]
        out["spans_file"] = str(spans_path.relative_to(program.ROOT))
        out["spans"] = len(tracer.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
