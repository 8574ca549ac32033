import csv
import json

import numpy as np
import pytest

from gpdistill.experiments.cli import main, parse_values


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestParseValues:
    def test_comma_list(self):
        assert parse_values("0.1,0.2,0.5") == (0.1, 0.2, 0.5)

    def test_linspace(self):
        got = parse_values("linspace:0.1:1:10")
        np.testing.assert_allclose(got, np.linspace(0.1, 1, 10))

    def test_logspace(self):
        got = parse_values("logspace:-1:1:3")
        np.testing.assert_allclose(got, (0.1, 1.0, 10.0))

    def test_garbage_rejected(self):
        from gpdistill.experiments.cli import UsageError

        with pytest.raises(UsageError):
            parse_values("linspace:1:2")
        with pytest.raises(UsageError):
            parse_values("a,b")


class TestPipelines:
    def test_regression_fit_predict(self, tmp_path):
        reg = tmp_path / "reg.csv"
        model = tmp_path / "model.json"
        preds = tmp_path / "preds.csv"
        assert run("gen-data", "--kind", "regression", "--n", "10", "--seed", "1",
                   "--out", reg) == 0
        assert run("fit", "--data", reg, "--method", "gpr", "--sigma-f", "2",
                   "--length-scale", "1.5", "--noise", "1.0", "--save", model) == 0
        assert run("predict", "--model", model, "--points", "linspace:0:10:25",
                   "--out", preds) == 0
        with open(preds) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x1", "prediction"]
        assert len(rows) == 26

    def test_classification_distill_predict(self, tmp_path):
        cls = tmp_path / "cls.csv"
        model = tmp_path / "model.json"
        preds = tmp_path / "preds.csv"
        assert run("gen-data", "--kind", "classification", "--n", "20", "--seed", "2",
                   "--out", cls) == 0
        assert run("distill", "--data", cls, "--method", "gpc-data", "--sigma-f", "1",
                   "--length-scale", "1", "--steps", "2", "--save", model) == 0
        assert run("predict", "--model", model, "--data", cls, "--out", preds) == 0
        with open(preds) as fh:
            rows = list(csv.reader(fh))[1:]
        probs = np.array([float(r[-1]) for r in rows])
        assert np.all((probs > 0) & (probs < 1))

    def test_gpr_data_with_mixing(self, tmp_path):
        reg = tmp_path / "reg.csv"
        model = tmp_path / "model.json"
        run("gen-data", "--kind", "regression", "--n", "10", "--seed", "0", "--out", reg)
        assert run("distill", "--data", reg, "--method", "gpr-data", "--sigma-f", "2",
                   "--length-scale", "1.5", "--gammas", "0.2,0.4,0.6", "--mix-alpha", "0.5",
                   "--save", model) == 0
        doc = json.loads(model.read_text())
        assert doc["method"] == "gpr-data"

    def test_gpr_dist_chain(self, tmp_path):
        reg = tmp_path / "reg.csv"
        model = tmp_path / "model.json"
        run("gen-data", "--kind", "regression", "--n", "10", "--seed", "0", "--out", reg)
        assert run("distill", "--data", reg, "--method", "gpr-dist", "--sigma-f", "2",
                   "--length-scale", "1.5", "--gammas", "linspace:0.1:1:10",
                   "--save", model) == 0
        doc = json.loads(model.read_text())
        assert doc["method"] == "gpr-dist"
        assert doc["payload"]["steps"] == 10

    def test_grid_search_rows(self, tmp_path):
        cls = tmp_path / "cls.csv"
        out = tmp_path / "grid.csv"
        run("gen-data", "--kind", "classification", "--n", "15", "--seed", "0", "--out", cls)
        assert run("grid-search", "--data", cls, "--objective", "gpc-bernoulli",
                   "--sigma-f-grid", "0.5,1.0", "--length-scale-grid", "0.5,1.0,2.0",
                   "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sigma_f", "length_scale", "noise", "nll"]
        assert len(rows) == 1 + 2 * 3

    def test_bench_writes_cells(self, tmp_path):
        out = tmp_path / "timing.csv"
        assert run("bench", "--steps", "1,2", "--reps", "2", "--n-train", "30",
                   "--methods", "gpr-dist", "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["method", "steps"]
        assert len(rows) == 3


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert run("fit", "--method", "nonsense") == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_file_is_one(self, tmp_path, capsys):
        assert run("fit", "--data", tmp_path / "none.csv", "--method", "gpr",
                   "--sigma-f", "1", "--length-scale", "1", "--save",
                   tmp_path / "m.json") == 1

    def test_numerical_failure_is_two(self, tmp_path, capsys):
        # duplicated inputs with zero noise and zero jitter: singular system
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y\n1.0,0.0\n1.0,1.0\n")
        code = run("fit", "--data", bad, "--method", "gpr", "--sigma-f", "1",
                   "--length-scale", "1", "--noise", "0", "--jitter", "0",
                   "--save", tmp_path / "m.json")
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_grid_search_with_every_cell_singular_is_two(self, tmp_path, capsys):
        # 300 close inputs and zero noise: K + 0*I is singular in every cell
        reg = tmp_path / "reg.csv"
        run("gen-data", "--kind", "regression", "--n", "300", "--seed", "0", "--out", reg)
        capsys.readouterr()
        code = run("grid-search", "--data", reg, "--objective", "gpr", "--noise", "0",
                   "--sigma-f-grid", "0.5,2", "--length-scale-grid", "1,10",
                   "--out", tmp_path / "grid.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert "every grid cell" in err
        assert "singular" in err

    def test_grid_search_gpr_without_noise_is_one(self, tmp_path, capsys):
        reg = tmp_path / "reg.csv"
        run("gen-data", "--kind", "regression", "--n", "20", "--seed", "0", "--out", reg)
        capsys.readouterr()
        out = tmp_path / "grid.csv"
        assert run("grid-search", "--data", reg, "--objective", "gpr", "--out", out) == 1
        err = capsys.readouterr().err
        assert "--noise" in err and "--noise-grid" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("gpr-dist-10step", "--noise", "nan"),
        ("gpr-data-10step", "--sigma-f", "1", "--length-scale", "1", "--noise", "nan"),
        ("gpr-data-10step", "--n-train", "0"),
        ("gpc-dist-10step", "--steps", "0"),
        ("gpr-dist-10step", "--data", "missing.csv"),
    ], ids=["grid-noise", "fixed-noise", "n-train", "steps", "missing-data"])
    def test_reproduce_failure_leaves_no_out_dir(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        argv = tuple(str(tmp_path / a) if a.endswith(".csv") else a for a in argv)
        assert run("reproduce", *argv, "--out-dir", out) == 1
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_experiment_is_usage_error(self, tmp_path):
        assert run("reproduce", "nope", "--out-dir", tmp_path) == 1

    def test_steps_beyond_schedule_is_usage_error(self, tmp_path, capsys):
        reg = tmp_path / "reg.csv"
        run("gen-data", "--kind", "regression", "--n", "8", "--seed", "0", "--out", reg)
        code = run("distill", "--data", reg, "--method", "gpr-data", "--sigma-f", "1",
                   "--length-scale", "1", "--gammas", "0.1,0.2", "--steps", "5",
                   "--save", tmp_path / "m.json")
        assert code == 1
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma_f", ["-2", "0", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ("fit", "--method", "gpr"),
        ("fit", "--method", "gpc"),
        ("distill", "--method", "gpr-dist", "--gammas", "0.5"),
        ("distill", "--method", "gpc-dist", "--steps", "2"),
    ], ids=["fit-gpr", "fit-gpc", "distill-gpr-dist", "distill-gpc-dist"])
    def test_sigma_f_not_positive_is_one_and_writes_nothing(self, tmp_path, capsys, argv,
                                                            sigma_f):
        # the kernel holds sigma_f squared, so a negative scale must be caught before it
        kind = "regression" if "gpr" in " ".join(argv) else "classification"
        data = tmp_path / "data.csv"
        run("gen-data", "--kind", kind, "--n", "12", "--seed", "0", "--out", data)
        capsys.readouterr()
        model = tmp_path / "m.json"
        assert run(*argv, "--data", data, f"--sigma-f={sigma_f}", "--length-scale", "1",
                   "--save", model) == 1
        assert "--sigma-f must be positive and finite" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize(
        "kind, argv",
        [
            ("regression", ("distill", "--method", "gpr-dist", "--gammas", "nan")),
            ("regression", ("fit", "--method", "gpr", "--noise", "nan")),
            ("classification", ("distill", "--method", "gpc-data", "--steps", "2",
                                "--reg-gammas", "0,nan")),
            ("regression", ("grid-search", "--objective", "gpr", "--noise-grid", "0.5,nan")),
            ("regression", ("grid-search", "--objective", "gpr", "--noise", "nan")),
        ],
        ids=["gpr-dist-gammas", "fit-noise", "gpc-data-reg-gammas", "grid-noise-axis",
             "grid-fixed-noise"],
    )
    def test_non_finite_hyperparameter_is_one_and_writes_nothing(self, tmp_path, capsys,
                                                                 kind, argv):
        data = tmp_path / "data.csv"
        run("gen-data", "--kind", kind, "--n", "20", "--seed", "0", "--out", data)
        capsys.readouterr()
        out = tmp_path / "out"
        target = ("--out", out) if argv[0] == "grid-search" else (
            "--sigma-f", "1", "--length-scale", "1", "--save", out)
        assert run(*argv, "--data", data, *target) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


class TestReproduceSteps:
    @pytest.mark.parametrize("experiment, extra", [
        ("gpr-data-10step", "targets.csv"),
        ("gpr-dist-10step", "effective_noise.csv"),
    ])
    def test_steps_sets_the_chain_length(self, tmp_path, experiment, extra):
        out = tmp_path / "out"
        assert run("reproduce", experiment, "--out-dir", out, "--steps", "3",
                   "--sigma-f", "2", "--length-scale", "1.5") == 0
        with open(out / "predictions.csv") as fh:
            steps = [row["step"] for row in csv.DictReader(fh)]
        assert sorted(set(steps)) == ["1", "2", "3"]
        assert len(steps) == 3 * 200
        with open(out / extra) as fh:
            assert {row["step"] for row in csv.DictReader(fh)} == {"1", "2", "3"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["steps"] == 3
        assert manifest["schedule"] == list(np.linspace(0.1, 1.0, 3))


class TestReproduceDeterminism:
    def test_same_seed_identical_bytes(self, tmp_path):
        for d in ("a", "b"):
            assert run("reproduce", "gpr-dist-10step", "--out-dir", tmp_path / d,
                       "--seed", "7") == 0
        for name in ("predictions.csv", "effective_noise.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_records_resolved_defaults(self, tmp_path):
        assert run("reproduce", "gpr-dist-10step", "--out-dir", tmp_path / "m",
                   "--seed", "0") == 0
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["schedule"] == list(np.linspace(0.1, 1.0, 10))
        assert "kernel" in manifest and "selection" in manifest["kernel"]
        assert manifest["dataset"]["kind"] == "generated"
