"""Toy dataset generators and CSV ingestion.

Regression toy: g(z) = z sin(z) observed with unit Gaussian noise at points
equidistant on [0, 10]. Classification toy: inputs uniform on (0, 5), labels
Bernoulli with probability sigma(2 sin(x pi / 2)) — the squashing through the
logistic link is a modeling choice recorded in experiment manifests.

CSV format: header x1,...,xd,y; one row per observation. Every CSV table the
package writes goes through `_write_table` (17 significant digits, \\r\\n line
ends, no quoted cells); the readers check the header with `csv` and parse the
body with `numpy.loadtxt`.
"""

from __future__ import annotations

import csv
import io
import re
from pathlib import Path

import numpy as np
from scipy.special import expit

from ..gpr import Dataset
from ..kernels import as_points
from ..laplace import BinaryDataset


def regression_truth(x: np.ndarray) -> np.ndarray:
    return x * np.sin(x)


def classification_latent_truth(x: np.ndarray) -> np.ndarray:
    return 2.0 * np.sin(x * np.pi / 2.0)


def gen_regression_toy(seed: int, n: int = 10, noiseless: bool = False) -> Dataset:
    """n samples of z sin(z) on an equidistant grid over [0, 10], unit noise."""
    xs = np.linspace(0.0, 10.0, n)
    ys = regression_truth(xs)
    if not noiseless:
        rng = np.random.default_rng(seed)
        ys = ys + rng.standard_normal(n)
    return Dataset(xs=xs, ys=ys)


def gen_classification_toy(seed: int, n: int = 30) -> BinaryDataset:
    """n binary labels with P(y=1 | x) = sigma(2 sin(x pi / 2)), x ~ U(0, 5)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 5.0, size=n)
    probs = expit(classification_latent_truth(xs))
    ys = (rng.uniform(size=n) < probs).astype(float)
    return BinaryDataset(xs=xs, ys=ys)


def format_float(v) -> str:
    """Locale-independent decimal formatting with 17 significant digits."""
    return format(float(v), ".17g")


# csv.writer (QUOTE_MINIMAL) quotes a cell holding any of these characters.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _write_table(path, header, columns) -> None:
    """CSV of a header row and equal-length columns, one row per index.

    str columns are written verbatim, every other column as floats with 17
    significant digits; lines end in \\r\\n. The bytes are those of csv.writer
    over `format_float` cells, built in one formatting pass. A str cell that
    csv.writer would quote raises ValueError instead.
    """
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header) or any(c.ndim != 1 for c in columns):
        raise ValueError(f"expected {len(header)} one-dimensional columns for {header}")
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise ValueError(f"columns of {header} differ in length")
    width = len(columns)
    templates, flat = [], [None] * (n_rows * width)
    for j, column in enumerate(columns):
        if column.dtype.kind == "U":
            templates.append("%s")
            flat[j::width] = values = column.tolist()
            _check_plain(values, width)
        else:
            templates.append("%.17g")
            flat[j::width] = column.astype(float).tolist()
    _check_plain(header, width)
    row = ",".join(templates) + "\r\n"
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n" + (row * n_rows) % tuple(flat))


def _check_plain(cells, width: int) -> None:
    for cell in set(cells):
        # csv.writer also quotes a row that is one empty cell
        if _NEEDS_QUOTES.search(cell) or (width == 1 and not cell):
            raise ValueError(f"CSV cell {cell!r} would need quoting")


def write_dataset_csv(path, xs, ys) -> None:
    pts = as_points(xs)
    header = [f"x{i + 1}" for i in range(pts.shape[1])] + ["y"]
    _write_table(path, header, [*pts.T, np.ravel(ys)])


def _read_xy(path) -> tuple[np.ndarray, np.ndarray]:
    path = Path(path)
    with open(path, newline="") as handle:
        try:
            header = next(csv.reader(handle))
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        expected = [f"x{i + 1}" for i in range(len(header) - 1)] + ["y"]
        if [h.strip() for h in header] != expected:
            raise ValueError(f"{path}: expected header {','.join(expected)}, got {','.join(header)}")
        body = handle.read()
    # loadtxt warns on a body with no data; say so as an error instead
    if not body.strip():
        raise ValueError(f"{path}: no data rows")
    # newline="" splits lines at \r, \n and \r\n untranslated, as csv.reader did
    data = np.loadtxt(io.StringIO(body, newline=""), delimiter=",", ndmin=2, comments=None,
                      quotechar='"')
    return data[:, :-1], data[:, -1]


def load_regression_csv(path) -> Dataset:
    xs, ys = _read_xy(path)
    return Dataset(xs=xs, ys=ys)


def load_classification_csv(path) -> BinaryDataset:
    xs, ys = _read_xy(path)
    return BinaryDataset(xs=xs, ys=ys)
