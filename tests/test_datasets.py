import csv
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from gpdistill.experiments.datasets import (
    _read_xy,
    classification_latent_truth,
    gen_classification_toy,
    gen_regression_toy,
    load_classification_csv,
    load_regression_csv,
    regression_truth,
    write_dataset_csv,
)
from gpdistill.experiments.runner import write_csv


class TestRegressionToy:
    def test_input_grid_is_equidistant_on_0_10(self):
        data = gen_regression_toy(0)
        np.testing.assert_allclose(data.xs.ravel(), np.arange(10) * (10.0 / 9.0), atol=1e-12)
        assert data.xs.ravel()[0] == 0.0
        assert data.xs.ravel()[-1] == 10.0

    def test_noiseless_variant_is_exact_truth(self):
        data = gen_regression_toy(7, noiseless=True)
        x = data.xs.ravel()
        np.testing.assert_array_equal(data.ys, x * np.sin(x))

    def test_seed_determinism(self):
        a = gen_regression_toy(42)
        b = gen_regression_toy(42)
        np.testing.assert_array_equal(a.ys, b.ys)
        c = gen_regression_toy(43)
        assert not np.array_equal(a.ys, c.ys)

    def test_noise_is_unit_scale(self):
        # across many seeds the deviations from the truth are standard normal
        devs = np.concatenate(
            [gen_regression_toy(s).ys - regression_truth(gen_regression_toy(s).xs.ravel())
             for s in range(200)]
        )
        assert abs(np.mean(devs)) < 0.05
        assert abs(np.std(devs) - 1.0) < 0.05


class TestClassificationToy:
    def test_inputs_in_range(self):
        data = gen_classification_toy(3, n=200)
        assert np.all(data.xs >= 0.0) and np.all(data.xs <= 5.0)
        assert data.strictly_binary

    def test_seed_determinism(self):
        a = gen_classification_toy(5, n=50)
        b = gen_classification_toy(5, n=50)
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.ys, b.ys)

    def test_label_mean_near_latent_extremum_matches_sigmoid(self):
        # g has a flat extremum at x = 1 (g(1) = 2), so labels binned near 1
        # estimate sigma(2) with negligible curvature bias
        data = gen_classification_toy(11, n=400_000)
        x = data.xs.ravel()
        mask = np.abs(x - 1.0) < 0.05
        assert mask.sum() > 5000
        assert abs(data.ys[mask].mean() - expit(2.0)) < 0.01

    def test_latent_truth_range(self):
        x = np.linspace(0, 5, 101)
        g = classification_latent_truth(x)
        assert np.min(g) == pytest.approx(-2.0, abs=1e-9)
        assert np.max(g) == pytest.approx(2.0, abs=1e-9)


class TestCsvRoundTrip:
    def test_regression_round_trip(self, tmp_path, rng):
        data = gen_regression_toy(1)
        path = tmp_path / "reg.csv"
        write_dataset_csv(path, data.xs, data.ys)
        loaded = load_regression_csv(path)
        np.testing.assert_array_equal(loaded.xs, data.xs)
        np.testing.assert_array_equal(loaded.ys, data.ys)

    def test_multidimensional_round_trip(self, tmp_path, rng):
        xs = rng.normal(size=(6, 3))
        ys = rng.normal(size=6)
        path = tmp_path / "d3.csv"
        write_dataset_csv(path, xs, ys)
        loaded = load_regression_csv(path)
        np.testing.assert_array_equal(loaded.xs, xs)
        assert (path.read_text().splitlines()[0]) == "x1,x2,x3,y"

    def test_classification_round_trip(self, tmp_path):
        data = gen_classification_toy(2, n=20)
        path = tmp_path / "cls.csv"
        write_dataset_csv(path, data.xs, data.ys)
        loaded = load_classification_csv(path)
        np.testing.assert_array_equal(loaded.ys, data.ys)
        assert loaded.strictly_binary

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            load_regression_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_regression_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "no_rows.csv"
        path.write_text("x1,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_regression_csv(path)


# The row-by-row csv writers and reader that the vectorised table writer and
# the loadtxt reader replaced, kept verbatim as their oracles.


def oracle_write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [v if isinstance(v, str) else format(float(v), ".17g") for v in row]
            )


def oracle_write_dataset_csv(path, xs, ys) -> None:
    pts = np.asarray(xs, dtype=float)
    pts = pts[:, None] if pts.ndim == 1 else pts
    ys = np.asarray(ys, dtype=float).ravel()
    header = [f"x{i + 1}" for i in range(pts.shape[1])] + ["y"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row, y in zip(pts, ys):
            writer.writerow([format(float(v), ".17g") for v in row] + [format(float(y), ".17g")])


def oracle_read_xy(path) -> tuple[np.ndarray, np.ndarray]:
    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        expected = [f"x{i + 1}" for i in range(len(header) - 1)] + ["y"]
        if [h.strip() for h in header] != expected:
            raise ValueError(f"{path}: expected header {','.join(expected)}, got {','.join(header)}")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    return data[:, :-1], data[:, -1]


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 0.1 + 0.2, 1 / 3, -1e-300, 123456789012345678.0]


def wide_floats(rng, n: int) -> np.ndarray:
    """Finite doubles of every magnitude and sign, the extremes included."""
    bits = rng.integers(0, 2**64, size=4 * n, dtype=np.uint64).view(np.float64)
    finite = bits[np.isfinite(bits)][: n - len(EXTREMES)]
    return np.concatenate([EXTREMES, finite])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestTableWriterOracle:
    def test_mixed_columns_match_csv_writer(self, tmp_path, rng):
        n = 200
        labels = [f"run {i % 7} é-{i}" if i % 11 else "" for i in range(n)]
        steps = np.arange(n) - 50
        values = wide_floats(rng, n)
        specials = np.resize([np.inf, -np.inf, np.nan, -0.0, 2**60, True], n)
        header = ["label", "step", "value", "special", "p2.5"]
        write_csv(tmp_path / "new.csv", header, [labels, steps, values, specials, -values])
        rows = zip(labels, steps.tolist(), values.tolist(), specials.tolist(), (-values).tolist())
        oracle_write_csv(tmp_path / "old.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_empty_table_is_its_header(self, tmp_path):
        write_csv(tmp_path / "new.csv", ["a", "b"], [[], []])
        oracle_write_csv(tmp_path / "old.csv", ["a", "b"], [])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("d", [1, 3])
    def test_dataset_writer_matches_csv_writer(self, tmp_path, rng, d):
        xs = wide_floats(rng, 300).reshape(-1, d) if d == 3 else wide_floats(rng, 100)
        ys = rng.permutation(wide_floats(rng, len(xs)))
        write_dataset_csv(tmp_path / "new.csv", xs, ys)
        oracle_write_dataset_csv(tmp_path / "old.csv", xs, ys)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_round_trip_is_bit_exact(self, tmp_path, rng):
        xs = wide_floats(rng, 600).reshape(-1, 2)
        ys = rng.permutation(wide_floats(rng, len(xs)))
        path = tmp_path / "wide.csv"
        write_dataset_csv(path, xs, ys)
        loaded = load_regression_csv(path)
        assert same_bits(loaded.xs, xs)
        assert same_bits(loaded.ys, ys)  # bit patterns: -0.0 keeps its sign

    @pytest.mark.parametrize("cell", ["a,b", 'say "hi"', "two\nlines", "carriage\rreturn"])
    def test_cell_needing_quotes_rejected(self, tmp_path, cell):
        path = tmp_path / "quoted.csv"
        with pytest.raises(ValueError, match="quoting"):
            write_csv(path, ["label", "x"], [["plain", cell], [1.0, 2.0]])
        with pytest.raises(ValueError, match="quoting"):
            write_csv(path, [cell, "x"], [["plain"], [1.0]])
        assert not path.exists()

    def test_lone_empty_cell_rejected(self, tmp_path):
        # csv.writer writes a row of one empty cell as ""
        with pytest.raises(ValueError, match="quoting"):
            write_csv(tmp_path / "one.csv", ["label"], [["a", ""]])

    def test_columns_must_match_header(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "short.csv", ["a", "b"], [[1.0, 2.0], [1.0]])
        with pytest.raises(ValueError):
            write_csv(tmp_path / "narrow.csv", ["a", "b"], [[1.0, 2.0]])


READER_BODIES = {
    "quoted": '"1.5","2"\r\n"3",4\r\n',
    "quoted-space": '" 1.5 ",2\r\n',
    "space-padded": " 1.5 , 2 \r\n3,\t4\t\r\n",
    "blank-lines": "\r\n1,2\r\n\r\n3,4\r\n\r\n",
    "whitespace-only": "  \r\n",
    "whitespace-line": "1,2\r\n   \r\n3,4\r\n",
    "ragged-short": "1,2\r\n3\r\n",
    "ragged-long": "1,2\r\n3,4,5\r\n",
    "empty-cell": "1,\r\n",
    "non-numeric": "1,a\r\n",
    "hash-cell": "1,#2\r\n",
    "hash-line": "# note\r\n1,2\r\n",
    "hash-trailing": "1,2 # note\r\n",
    "lf-lines": "1,2\n3,4\n",
    "cr-lines": "1,2\r3,4\r",
    "infinities": "1,-inf\r\n2,Infinity\r\n3,1e500\r\n",
    "signs-and-dots": "+1,-2\r\n1.,.5\r\n",
    "quoted-comma": '"1,5",2\r\n',
    "open-quote": '"1.5,2\r\n',
}


class TestReaderOracle:
    @pytest.mark.parametrize("body", READER_BODIES.values(), ids=READER_BODIES.keys())
    def test_matches_csv_reader(self, tmp_path, body):
        path = tmp_path / "body.csv"
        path.write_bytes(("x1,y\r\n" + body).encode())
        try:
            expected = oracle_read_xy(path)
        except ValueError:
            with pytest.raises(ValueError):
                _read_xy(path)
            return
        xs, ys = _read_xy(path)
        assert same_bits(xs, expected[0]) and same_bits(ys, expected[1])

    @pytest.mark.parametrize("body", ["", "\r\n", "\r\n\r\n"], ids=["none", "one", "two"])
    def test_header_only_raises_without_warning(self, tmp_path, body):
        path = tmp_path / "no_rows.csv"
        path.write_text("x1,y\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows"):
                load_regression_csv(path)
