import contextlib
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdistill.experiments.cli import main, parse_values
from gpdistill.experiments.datasets import (
    gen_classification_toy,
    gen_regression_toy,
    load_regression_csv,
    write_dataset_csv,
)
from gpdistill.kernels import KernelParams, gram


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

    @pytest.mark.parametrize("text", ["linspace:0:1:0", "logspace:0:1:0"])
    def test_no_values_rejected(self, text):
        from gpdistill.experiments.cli import UsageError

        with pytest.raises(UsageError, match="at least one value"):
            parse_values(text)

    @pytest.mark.parametrize("text", ["nan,1", "inf,2", "logspace:0:400:3"])
    def test_non_finite_rejected(self, text):
        from gpdistill.experiments.cli import UsageError

        # logspace overflows to inf; pytest would turn numpy's warning into an error
        with pytest.raises(UsageError, match="finite"):
            parse_values(text)


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

    def test_mixed_gpr_data_model_records_its_mix_alpha(self, tmp_path):
        from gpdistill.experiments.artifacts import load_model

        reg = tmp_path / "reg.csv"
        run("gen-data", "--kind", "regression", "--n", "10", "--seed", "0", "--out", reg)
        payloads = {}
        for mix in (None, "0.25"):
            model = tmp_path / f"model-{mix}.json"
            extra = ("--mix-alpha", mix) if mix else ()
            assert run("distill", "--data", reg, "--method", "gpr-data", "--sigma-f", "2",
                       "--length-scale", "1.5", "--gammas", "0.2,0.4,0.6", *extra,
                       "--save", model) == 0
            payloads[mix] = load_model(model).payload
        assert payloads["0.25"]["mix_alpha"] == 0.25
        assert "mix_alpha" not in payloads[None]
        # the mixing weight is what tells the two models apart
        assert payloads["0.25"]["alpha_weights"] != payloads[None]["alpha_weights"]

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
    @pytest.mark.parametrize("value", ["1e200", "1e-300"])
    def test_grid_sigma_f_square_out_of_range_names_the_flag(self, tmp_path, capsys, value):
        reg = tmp_path / "reg.csv"
        run("gen-data", "--kind", "regression", "--n", "12", "--seed", "0", "--out", reg)
        capsys.readouterr()
        out = tmp_path / "grid.csv"
        assert run("grid-search", "--data", reg, "--objective", "gpr", "--noise", "0.1",
                   "--sigma-f-grid", f"1,{value}", "--length-scale-grid", "1",
                   "--out", out) == 1
        assert "--sigma-f-grid must square to a positive finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e200", "1e-300"])
    def test_sigma_f_square_out_of_range_is_one(self, tmp_path, capsys, value):
        reg = tmp_path / "reg.csv"
        run("gen-data", "--kind", "regression", "--n", "12", "--seed", "0", "--out", reg)
        capsys.readouterr()
        model = tmp_path / "m.json"
        assert run("fit", "--data", reg, "--method", "gpr", "--sigma-f", value,
                   "--length-scale", "1", "--save", model) == 1
        assert "--sigma-f must square to a positive finite" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_bench_without_repetitions_is_one(self, tmp_path, capsys, reps):
        out = tmp_path / "timing.csv"
        assert run("bench", "--steps", "1,2", "--reps", reps, "--n-train", "20",
                   "--methods", "gpr-dist", "--out", out) == 1
        assert "reps must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("steps", ["1.7,2.2", "0", "-1"])
    def test_bench_steps_must_be_whole_and_positive(self, tmp_path, capsys, steps):
        out = tmp_path / "timing.csv"
        assert run("bench", "--steps", steps, "--reps", "1", "--n-train", "20",
                   "--methods", "gpr-dist", "--out", out) == 1
        assert "--steps must be whole numbers of at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_is_one(self, capsys):
        assert run("fit", "--method", "nonsense") == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_file_is_one(self, tmp_path, capsys):
        assert run("fit", "--data", tmp_path / "none.csv", "--method", "gpr",
                   "--sigma-f", "1", "--length-scale", "1", "--save",
                   tmp_path / "m.json") == 1

    def test_numerical_failure_is_two(self, tmp_path, capsys):
        # duplicated inputs with zero noise: singular system
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y\n1.0,0.0\n1.0,1.0\n")
        code = run("fit", "--data", bad, "--method", "gpr", "--sigma-f", "1",
                   "--length-scale", "1", "--noise", "0", "--save", tmp_path / "m.json")
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, argv", [
        ("regression", ("fit", "--method", "gpr")),
        ("classification", ("fit", "--method", "gpc")),
        ("classification", ("distill", "--method", "gpc-dist", "--steps", "2")),
    ], ids=["fit-gpr", "fit-gpc", "distill-gpc-dist"])
    def test_tiny_length_scale_is_a_zero_kernel_not_a_warning(self, tmp_path, kind, argv):
        # d^2 / (-2 * 1e-320) overflows to -inf for these distances, and exp(-inf) = 0
        # is the kernel value in floating point; pytest makes the RuntimeWarning an error
        data, model = tmp_path / "data.csv", tmp_path / "m.json"
        run("gen-data", "--kind", kind, "--n", "8", "--seed", "0", "--out", data)
        assert run(*argv, "--data", data, "--sigma-f", "1", "--length-scale", "1e-320",
                   "--save", model) == 0
        assert run("predict", "--model", model, "--points", "0,1,2",
                   "--out", tmp_path / "p.csv") == 0
        xs = load_regression_csv(data).xs
        assert np.array_equal(gram(xs, KernelParams(1.0, 1e-320)), np.eye(len(xs)))

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
        ("gpc-data-cb", "--steps", "5"),
        ("grid-search", "--steps", "3"),
        ("gpr-dist-10step", "--sigma-f", "1e200", "--length-scale", "1"),
        ("gpr-data-10step", "--sigma-f", "2"),
        ("gpc-data-cb", "--length-scale", "1"),
        ("grid-search", "--sigma-f", "2", "--length-scale", "1"),
        ("grid-search", "--noise", "3"),
        ("grid-search", "--proba-method", "quadrature"),
        ("grid-search", "--target-kind", "soft_mean"),
        ("gpc-dist-10step", "--target-kind", "hard_threshold"),
        ("gpc-dist-10step", "--noise", "4"),
        ("gpr-dist-schedules", "--target-kind", "soft_mean"),
        ("gpr-data-10step", "--proba-method", "latent_mean"),
        ("gpr-data-10step", "--data", "reg.csv", "--n-train", "5"),
    ], ids=["grid-noise", "fixed-noise", "n-train", "steps", "missing-data",
            "gpc-data-cb-steps", "grid-search-steps", "sigma-f-overflow",
            "lone-sigma-f", "lone-length-scale", "grid-search-kernel", "grid-search-noise",
            "grid-search-proba-method", "grid-search-target-kind", "gpc-dist-target-kind",
            "gpc-dist-noise", "gpr-target-kind", "gpr-proba-method", "data-n-train"])
    def test_reproduce_failure_leaves_no_out_dir(self, tmp_path, capsys, argv):
        # reg.csv exists, so a row that names it fails for its flags, not a missing file
        run("gen-data", "--kind", "regression", "--n", "12", "--seed", "0",
            "--out", tmp_path / "reg.csv")
        out = tmp_path / "out"
        argv = tuple(str(tmp_path / a) if a.endswith(".csv") else a for a in argv)
        assert run("reproduce", *argv, "--out-dir", out) == 1
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_fixed_design_names_the_steps_flag(self, tmp_path, capsys):
        assert run("reproduce", "gpc-data-cb", "--steps", "5", "--out-dir", tmp_path / "o") == 1
        assert "--steps" in capsys.readouterr().err

    def test_reproduce_unknown_target_kind_is_one_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("reproduce", "gpr-dist-10step", "--target-kind", "bogus", "--sigma-f", "1",
                   "--length-scale", "1", "--out-dir", out) == 1
        assert "--target-kind" in capsys.readouterr().err
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

    @pytest.mark.parametrize("steps", ["0", "-1"])
    @pytest.mark.parametrize("method", ["gpr-data", "gpr-dist", "gpc-data", "gpc-dist"])
    def test_distill_steps_below_one_is_one_and_writes_nothing(self, tmp_path, capsys, method,
                                                               steps):
        # 0 is a chain length, not "unset": it must not fall back to the gamma count
        kind = "regression" if method.startswith("gpr") else "classification"
        data = tmp_path / "data.csv"
        run("gen-data", "--kind", kind, "--n", "12", "--seed", "0", "--out", data)
        capsys.readouterr()
        model = tmp_path / "m.json"
        gammas = ("--gammas", "0.1,0.2,0.3") if kind == "regression" else ()
        assert run("distill", "--data", data, "--method", method, "--sigma-f", "1",
                   "--length-scale", "1", *gammas, f"--steps={steps}", "--save", model) == 1
        assert "--steps must be at least 1" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("argv", [
        ("gpr-dist", "--gammas", "0.5,0.5", "--mix-alpha", "0.5"),
        ("gpc-dist", "--gammas", "0.1,0.2", "--steps", "2"),
        ("gpc-data", "--gammas", "0.1,0.2,0.3"),
        ("gpc-dist", "--steps", "2", "--reg-gammas", "0,0.1"),
        ("gpr-data", "--gammas", "0.1,0.2", "--target-kind", "soft_mean"),
    ], ids=["gpr-dist-mix-alpha", "gpc-dist-gammas", "gpc-data-gammas", "gpc-dist-reg-gammas",
            "gpr-data-target-kind"])
    def test_distill_inapplicable_flag_is_one_and_writes_nothing(self, tmp_path, capsys, argv):
        # a flag the method would not read must not be accepted and dropped
        method, *flags = argv
        kind = "regression" if method.startswith("gpr") else "classification"
        data = tmp_path / "data.csv"
        run("gen-data", "--kind", kind, "--n", "12", "--seed", "0", "--out", data)
        capsys.readouterr()
        model = tmp_path / "m.json"
        assert run("distill", "--data", data, "--method", method, "--sigma-f", "1",
                   "--length-scale", "1", *flags, "--save", model) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and f"does not apply to --method {method}" in err
        assert not model.exists()

    @pytest.mark.parametrize("argv", [
        ("fit", "--data", "cls.csv", "--method", "gpc", "--sigma-f", "1", "--length-scale", "1",
         "--noise", "5", "--save", "out"),
        ("fit", "--data", "reg.csv", "--method", "gpr", "--sigma-f", "1", "--length-scale", "1",
         "--likelihood", "continuous-bernoulli", "--save", "out"),
        ("predict", "--model", "model.json", "--points", "0,1", "--data", "reg.csv",
         "--out", "out"),
        ("grid-search", "--data", "reg.csv", "--objective", "gpr", "--noise", "5",
         "--noise-grid", "0.5,1", "--out", "out"),
        ("fit", "--data", "reg.csv", "--method", "gpr", "--sigma-f", "1", "--length-scale", "1",
         "--jitter", "0.5", "--save", "out"),
        ("distill", "--data", "reg.csv", "--method", "gpr-data", "--sigma-f", "1",
         "--length-scale", "1", "--gammas", "0.1,0.2", "--jitter", "0.5", "--save", "out"),
        ("distill", "--data", "reg.csv", "--method", "gpr-dist", "--sigma-f", "1",
         "--length-scale", "1", "--gammas", "0.1,0.2", "--jitter", "0.5", "--save", "out"),
        ("gen-data", "--kind", "classification", "--noiseless", "--out", "out"),
        ("distill", "--data", "reg.csv", "--method", "gpr-dist", "--sigma-f", "1",
         "--length-scale", "1", "--save", "out"),
        ("distill", "--data", "cls.csv", "--method", "gpc-data", "--sigma-f", "1",
         "--length-scale", "1", "--save", "out"),
    ], ids=["fit-gpc-noise", "fit-gpr-likelihood", "predict-points-and-data",
            "grid-noise-and-noise-grid", "fit-gpr-jitter", "distill-gpr-data-jitter",
            "distill-gpr-dist-jitter", "gen-data-classification-noiseless",
            "distill-gpr-without-gammas", "distill-gpc-without-steps"])
    def test_flag_that_would_be_dropped_is_one_and_writes_nothing(self, tmp_path, monkeypatch,
                                                                  capsys, argv):
        monkeypatch.chdir(tmp_path)
        run("gen-data", "--kind", "regression", "--n", "12", "--seed", "0", "--out", "reg.csv")
        run("gen-data", "--kind", "classification", "--n", "12", "--seed", "0", "--out", "cls.csv")
        run("fit", "--data", "reg.csv", "--method", "gpr", "--sigma-f", "1", "--length-scale", "1",
            "--save", "model.json")
        capsys.readouterr()
        assert run(*argv) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
            ("regression", ("grid-search", "--objective", "gpr", "--noise", "0.5",
                            "--sigma-f-grid", "logspace:0:400:3")),
        ],
        ids=["gpr-dist-gammas", "fit-noise", "gpc-data-reg-gammas", "grid-noise-axis",
             "grid-fixed-noise", "grid-sigma-f-overflow"],
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

    @pytest.mark.parametrize("points", ["nan,1", "inf,2", "logspace:0:400:3"])
    @pytest.mark.parametrize("kind, method", [("regression", "gpr"), ("classification", "gpc")])
    def test_non_finite_points_are_one_and_write_nothing(self, tmp_path, capsys, kind, method,
                                                         points):
        data, model = tmp_path / "data.csv", tmp_path / "m.json"
        run("gen-data", "--kind", kind, "--n", "12", "--seed", "0", "--out", data)
        assert run("fit", "--data", data, "--method", method, "--sigma-f", "1",
                   "--length-scale", "1", *(("--noise", "0.5") if method == "gpr" else ()),
                   "--save", model) == 0
        capsys.readouterr()
        out = tmp_path / "p.csv"
        assert run("predict", "--model", model, "--points", points, "--out", out) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_no_points_is_one_and_writes_nothing(self, tmp_path, capsys):
        data, model = tmp_path / "data.csv", tmp_path / "m.json"
        run("gen-data", "--kind", "regression", "--n", "12", "--seed", "0", "--out", data)
        assert run("fit", "--data", data, "--method", "gpr", "--sigma-f", "1",
                   "--length-scale", "1", "--noise", "0.5", "--save", model) == 0
        capsys.readouterr()
        out = tmp_path / "p.csv"
        assert run("predict", "--model", model, "--points", "linspace:0:1:0", "--out", out) == 1
        assert "at least one value" in capsys.readouterr().err
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

    @pytest.mark.parametrize("experiment", ["gpr-data-schedules", "gpr-dist-schedules"])
    def test_steps_sets_every_ablation_length(self, tmp_path, experiment):
        out = tmp_path / "out"
        assert run("reproduce", experiment, "--out-dir", out, "--steps", "3",
                   "--sigma-f", "2", "--length-scale", "1.5") == 0
        with open(out / "predictions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * 3 * 200
        assert {row["step"] for row in rows} == {"1", "2", "3"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["steps"] == 3
        assert {row["schedule"] for row in rows} == set(manifest["schedules"])
        assert all(len(gammas) == 3 for gammas in manifest["schedules"].values())
        assert manifest["schedules"]["down-1.0-0.1"] == list(np.linspace(1.0, 0.1, 3))


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


# one value of an axis or of --noise: usual, near the ends of the float range, or not
# positive and finite; and value lists that do not parse or give no usable values
_USUAL_VALUES = ("0.01", "0.5", "1", "3", "100")
_EXTREME_VALUES = ("1e300", "1e-300")
_BAD_VALUES = ("0", "-1", "-1e300", "-1e-300", "nan", "inf", "-inf")
_MALFORMED_LISTS = ("", ",", "1,,2", "a,b", "1;2", "linspace:1:2", "logspace:0:1:x",
                    "linspace:0:1:0", "linspace:0:1:-1", "logspace:-300:300:3",
                    "logspace:0:400:2", "linspace:1e308:-1e308:3", "linspace:nan:1:2")


@st.composite
def grid_search_argvs(draw):
    """grid-search argv over drawn axes, objective, noise flags and data file; and the data's
    kind, its row count, and whether its last input repeats its first.

    The draws come from a seeded generator with fixed odds, so that most argv reach the
    fits. Values go in as --flag=value, so a negative one reaches the command, not
    argparse's option matching.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def value() -> str:
        pool = (_USUAL_VALUES, _EXTREME_VALUES, _BAD_VALUES)[rng.choice(3, p=(0.7, 0.15, 0.15))]
        return str(rng.choice(pool))

    def value_list() -> str:
        if rng.uniform() < 0.15:
            return str(rng.choice(_MALFORMED_LISTS))
        return ",".join(value() for _ in range(rng.integers(1, 4)))

    objective = str(rng.choice(("gpr", "gpc-bernoulli", "gpc-cb")))
    fitting = "regression" if objective == "gpr" else "classification"
    other = "classification" if objective == "gpr" else "regression"
    data = str(rng.choice((fitting, other, "missing"), p=(0.8, 0.1, 0.1)))
    argv = ["grid-search", "--data", "data.csv", "--out", "grid.csv", "--objective", objective]
    for flag in ("--sigma-f-grid", "--length-scale-grid"):
        if rng.uniform() < 0.8:  # else the 16-value default axis
            argv.append(f"{flag}={value_list()}")
    noise = rng.choice(("neither", "grid", "fixed", "both"), p=(0.3, 0.3, 0.3, 0.1))
    if noise in ("grid", "both"):
        argv.append(f"--noise-grid={value_list()}")
    if noise in ("fixed", "both"):
        argv.append(f"--noise={value()}")
    return argv, data, int(rng.integers(1, 11)), bool(rng.uniform() < 0.3)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(grid_search_argvs())
def test_grid_search_contract(case):
    """Any drawn argv exits 0, 1 or 2, prints no traceback, warns nothing, and writes
    no output when it fails."""
    argv, data, n, duplicated = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        if data != "missing":
            toy = (gen_classification_toy(0, n=n) if data == "classification"
                   else gen_regression_toy(0, n=n))
            xs = toy.xs.copy()
            if duplicated:  # the last input repeats the first
                xs[-1] = xs[0]
            write_dataset_csv(root / "data.csv", xs, toy.ys)
        argv = [str(root / a) if a in ("data.csv", "grid.csv") else a for a in argv]
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
            [str(w.message) for w in caught]
        if code != 0:
            assert not (root / "grid.csv").exists()
