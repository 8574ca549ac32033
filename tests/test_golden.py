"""The same numbers: CLI outputs at toy sizes, pinned against a committed corpus.

SCRIPT is a fixed sequence of `gpdistill` invocations (toy data, every
`reproduce` id, `fit`, `grid-search`, `distill` for every method, and `predict`
from each saved model), all with paths relative to one working directory.
`tests/golden/` holds what it wrote. The test re-runs the script into a fresh
directory and compares every file with its golden copy: byte-identical files
pass, and files that differ pass only when each numeric column (a CSV column,
or the numbers under one JSON key) is within GOLDEN_RTOL norm-relative and
every other cell is equal. Files that differ in bytes but pass are reported as
a GoldenDrift warning.

An intentional change of output regenerates the corpus in its own commit:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np

from gpdistill.experiments.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_RTOL = 1e-12

_GPR_KERNEL = ("--sigma-f", "2", "--length-scale", "1.5")
_GPC_KERNEL = ("--sigma-f", "1", "--length-scale", "1")
_REG_POINTS = ("--points", "linspace:-1:11:25")
_CLS_POINTS = ("--points", "linspace:-1:6:25")

SCRIPT = (
    ("gen-data", "--kind", "regression", "--n", "12", "--seed", "3", "--out", "reg.csv"),
    ("gen-data", "--kind", "classification", "--n", "16", "--seed", "3", "--out", "cls.csv"),
    *(("reproduce", experiment, "--steps", "3", "--out-dir", f"reproduce/{experiment}")
      for experiment in ("gpr-data-10step", "gpr-dist-10step", "gpr-data-schedules",
                         "gpr-dist-schedules", "gpc-dist-10step")),
    *(("reproduce", experiment, "--out-dir", f"reproduce/{experiment}")
      for experiment in ("gpc-data-cb", "grid-search")),
    ("fit", "--data", "reg.csv", "--method", "gpr", *_GPR_KERNEL, "--noise", "0.5",
     "--save", "fit_gpr.json"),
    ("fit", "--data", "cls.csv", "--method", "gpc", *_GPC_KERNEL, "--save", "fit_gpc.json"),
    ("grid-search", "--data", "reg.csv", "--objective", "gpr", "--noise", "0.5",
     "--sigma-f-grid", "logspace:-1:1:4", "--length-scale-grid", "logspace:-1:1:4",
     "--out", "grid_gpr.csv"),
    ("grid-search", "--data", "cls.csv", "--objective", "gpc-cb",
     "--sigma-f-grid", "logspace:-1:1:3", "--length-scale-grid", "logspace:-1:1:3",
     "--out", "grid_gpc_cb.csv"),
    ("distill", "--data", "reg.csv", "--method", "gpr-data", *_GPR_KERNEL,
     "--gammas", "linspace:0.1:1:4", "--save", "distill_gpr_data.json"),
    ("distill", "--data", "reg.csv", "--method", "gpr-data", *_GPR_KERNEL,
     "--gammas", "0.2,0.5,1", "--mix-alpha", "0.5", "--save", "distill_gpr_data_mixed.json"),
    ("distill", "--data", "reg.csv", "--method", "gpr-dist", *_GPR_KERNEL,
     "--gammas", "linspace:0.1:1:4", "--steps", "3", "--save", "distill_gpr_dist.json"),
    ("distill", "--data", "cls.csv", "--method", "gpc-data", *_GPC_KERNEL, "--steps", "2",
     "--save", "distill_gpc_data.json"),
    ("distill", "--data", "cls.csv", "--method", "gpc-data", *_GPC_KERNEL, "--steps", "2",
     "--reg-gammas", "0,0.3", "--target-kind", "hard_threshold",
     "--save", "distill_gpc_data_reg.json"),
    ("distill", "--data", "cls.csv", "--method", "gpc-dist", *_GPC_KERNEL, "--steps", "3",
     "--save", "distill_gpc_dist.json"),
    *(("predict", "--model", f"{model}.json", *_REG_POINTS, "--out", f"predict_{model}.csv")
      for model in ("fit_gpr", "distill_gpr_data", "distill_gpr_data_mixed",
                    "distill_gpr_dist")),
    *(("predict", "--model", f"{model}.json", *_CLS_POINTS, "--out", f"predict_{model}.csv")
      for model in ("fit_gpc", "distill_gpc_data", "distill_gpc_data_reg", "distill_gpc_dist")),
    ("predict", "--model", "fit_gpr.json", "--data", "reg.csv", "--out", "predict_at_data.csv"),
)


class GoldenDrift(Warning):
    """Outputs that moved in their bytes but stay within GOLDEN_RTOL."""


def run_script(workdir: Path) -> None:
    """Run SCRIPT with `workdir` as the working directory; every call must exit 0."""
    workdir.mkdir(parents=True, exist_ok=True)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in SCRIPT:
            code = main(list(argv))
            if code != 0:
                raise AssertionError(f"gpdistill {' '.join(argv)} exited {code}")
    finally:
        os.chdir(here)


def _files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def _rel_err(actual: list[float], expected: list[float]) -> float:
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    return float(np.linalg.norm(actual - expected) / max(np.linalg.norm(expected), 1e-300))


def _csv(path: Path) -> tuple[list[str], list[tuple[str, ...]]]:
    """Header and columns of a CSV file."""
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    return header, list(zip(*rows))


def _json_leaves(value, key: str, numbers: dict, others: dict) -> None:
    """Numbers grouped by key path (list positions dropped), other leaves by full path."""
    if isinstance(value, dict):
        others[key + "{}"] = sorted(value)
        for name, item in value.items():
            _json_leaves(item, f"{key}.{name}", numbers, others)
    elif isinstance(value, list):
        others[key + "[]"] = len(value)
        for i, item in enumerate(value):
            if isinstance(item, (int, float)) and not isinstance(item, bool):
                numbers.setdefault(key, []).append(item)
            else:
                _json_leaves(item, f"{key}[{i}]", numbers, others)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        numbers.setdefault(key, []).append(value)
    else:
        others[key] = value


def compare_file(got: Path, want: Path) -> list[str]:
    """Reasons `got` is not within GOLDEN_RTOL of `want` (empty when it is)."""
    problems = []
    if want.suffix == ".json":
        got_numbers, got_others, want_numbers, want_others = {}, {}, {}, {}
        _json_leaves(json.loads(got.read_text()), "", got_numbers, got_others)
        _json_leaves(json.loads(want.read_text()), "", want_numbers, want_others)
        if got_others != want_others or set(got_numbers) != set(want_numbers):
            return ["non-numeric content or layout differs"]
        columns = [(key, got_numbers[key], want_numbers[key]) for key in want_numbers]
    else:
        (got_header, got_cols), (want_header, want_cols) = _csv(got), _csv(want)
        if got_header != want_header or list(map(len, got_cols)) != list(map(len, want_cols)):
            return ["header or row count differs"]
        columns = []
        for name, got_col, want_col in zip(want_header, got_cols, want_cols):
            try:
                columns.append((name, [float(c) for c in got_col], [float(c) for c in want_col]))
            except ValueError:  # a text column
                if got_col != want_col:
                    problems.append(f"column {name}: text cells differ")
    for key, got_col, want_col in columns:
        if len(got_col) != len(want_col):
            problems.append(f"{key}: {len(got_col)} numbers, expected {len(want_col)}")
        elif (err := _rel_err(got_col, want_col)) > GOLDEN_RTOL:
            problems.append(f"{key}: norm-relative error {err:.3g} > {GOLDEN_RTOL:g}")
    return problems


def test_cli_outputs_match_golden_corpus(tmp_path):
    run_script(tmp_path)
    assert _files(tmp_path) == _files(GOLDEN_DIR)
    moved, failures = [], {}
    for name in _files(GOLDEN_DIR):
        got, want = tmp_path / name, GOLDEN_DIR / name
        if got.read_bytes() == want.read_bytes():
            continue
        moved.append(name)
        if problems := compare_file(got, want):
            failures[name] = problems
    assert not failures, failures
    if moved:
        warnings.warn(GoldenDrift(f"{len(moved)} of {len(_files(GOLDEN_DIR))} golden files "
                                  f"moved within {GOLDEN_RTOL:g}: {', '.join(moved)}"))


if __name__ == "__main__":
    shutil.rmtree(GOLDEN_DIR, ignore_errors=True)
    run_script(GOLDEN_DIR)
    total = sum(p.stat().st_size for p in GOLDEN_DIR.rglob("*") if p.is_file())
    print(f"wrote {len(_files(GOLDEN_DIR))} files, {total} bytes, to {GOLDEN_DIR}",
          file=sys.stderr)
