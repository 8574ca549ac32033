"""gpdistill benchmark: one workload, one command, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): gpr-distill, gpc-distill, hyper-sweep,
cli-roundtrip. Each is one closed-loop client in a fresh worker process.

--trace 0 prints the end-to-end metrics. setup_s is the median over
SETUP_SAMPLES fresh processes of the time from spawn to the end of the
warm-up op; the first of them goes on to the timed loop. --trace 1 prints the
per-layer metrics from a traced run, plus the tracing overhead, and writes the
spans to .perfbench/spans-<workload>-seed<seed>.csv.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. BLAS runs at its default thread count, which is
what users get; the environment block records it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import program

SETUP_SAMPLES = 3
WORKER = Path(__file__).resolve().parent / "worker.py"
# Seconds a worker may run beyond its measuring time before it is killed.
WORKER_GRACE_S = 60


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, extra: list[str]) -> tuple[float, dict]:
    """Start one worker, wait for it, and return (its set-up time, its result)."""
    program.OUT.mkdir(exist_ok=True)
    result_path = program.OUT / f"result-{os.getpid()}.json"
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result_path), *extra]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=program.ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=args.seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker timed out") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{err}")
    if err:
        sys.stderr.write(err)
    try:
        with open(result_path) as handle:
            result = json.load(handle)
    finally:
        result_path.unlink(missing_ok=True)
    return result["ready"] - spawned, result


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond it) at the highest percentile with 10 ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = program.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset (default)"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset (default)"),
        "commit": git_commit(),
    }


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    lats = result["latencies"]
    value, pct, beyond = tail(lats)
    metrics = {
        "ops_per_s": ((result["attempted"] - result["failed"]) / result["busy_s"], "1/s"),
        "op_p50_s": (statistics.median(lats), "s"),
        "op_tail_s": (value, "s"),
        "cpu_per_op_s": (result["cpu_s"] / result["attempted"], "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = [
        f"op_tail_s is p{pct:.1f} of {len(lats)} ops ({beyond} beyond it)",
        "setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups),
    ]
    return metrics, notes


def per_layer(result: dict) -> tuple[dict, list[str]]:
    metrics = {}
    for name, value in result["per_layer"].items():
        unit = "s/op" if name.endswith("_s") else "count/op"
        metrics[name] = (value, unit)
    untraced, traced = result["ops_per_s_untraced"], result["ops_per_s_traced"]
    metrics["tracing.ops_per_s_untraced"] = (untraced, "1/s")
    metrics["tracing.ops_per_s_traced"] = (traced, "1/s")
    metrics["tracing.overhead"] = (untraced / traced, "ratio")
    notes = [f"{result['spans']} spans written to {result['spans_file']}"]
    return metrics, notes


def main(argv=None) -> int:
    program.use_checkout_sources()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    env = environment()
    try:
        setup, result = run_worker(args, [])
        setups = [setup]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, ["--setup-only"])[0])
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not result["latencies"]:
        print("perfbench: no op completed", file=sys.stderr)
        return 1

    metrics, notes = per_layer(result) if args.trace else end_to_end(result, setups)
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  closed loop, 1 client")
    for key, value in env.items():
        print(f"env {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {failed / attempted:.6g} 1  ({failed} of {attempted} ops)")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
