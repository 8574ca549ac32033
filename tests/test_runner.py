import csv
import json

import numpy as np
import pytest

from gpdistill.counters import counted
from gpdistill.gpr import fit_gpr, predict_gpr
from gpdistill.gpc_distill import (
    approximation_error,
    distribution_centric_gpc_iterated,
    distribution_centric_gpc_scaled,
)
from gpdistill.kernels import KernelParams
from gpdistill.laplace import BERNOULLI, CONTINUOUS_BERNOULLI
from gpdistill.experiments.datasets import gen_regression_toy
from gpdistill.experiments.runner import EXPERIMENTS, ExperimentConfig, Z975, run_experiment


def read_rows(path):
    with open(path) as fh:
        reader = csv.DictReader(fh)
        return list(reader)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gpr-data")
    run_experiment(
        ExperimentConfig(experiment="gpr-data-10step", out_dir=out, seed=0,
                         sigma_f=2.0, length_scale=1.5)
    )
    return out


class TestRegressionExperiment:
    def test_step_one_rows_match_direct_fit(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        data = gen_regression_toy(manifest["seed"])
        params = KernelParams(signal_variance=2.0**2, length_scale=1.5)
        rows = [r for r in read_rows(run_dir / "predictions.csv") if r["step"] == "1"]
        xs = np.array([float(r["x"]) for r in rows])
        model = fit_gpr(data, params, noise=manifest["schedule"][0])
        mean, cov = predict_gpr(model, xs)
        np.testing.assert_allclose([float(r["mean"]) for r in rows], mean, rtol=1e-12)
        sd = np.sqrt(np.maximum(np.diag(cov), 0.0))
        np.testing.assert_allclose([float(r["p97.5"]) for r in rows], mean + Z975 * sd,
                                   rtol=1e-10)

    def test_percentile_columns_are_symmetric_bands(self, run_dir):
        for r in read_rows(run_dir / "predictions.csv"):
            mean, lo, hi = float(r["mean"]), float(r["p2.5"]), float(r["p97.5"])
            assert hi - mean == pytest.approx(mean - lo, abs=1e-9)
            assert hi >= mean >= lo

    def test_schedule_recorded_as_ramp(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        np.testing.assert_allclose(manifest["schedule"], np.linspace(0.1, 1.0, 10))
        assert "equidistant" in manifest["schedule_note"]


class TestGpcDistExperiment:
    def test_error_series_matches_direct_computation(self, tmp_path):
        from gpdistill.experiments.datasets import gen_classification_toy

        out = tmp_path / "run"
        run_experiment(
            ExperimentConfig(experiment="gpc-dist-10step", out_dir=out, seed=0,
                             steps=4, sigma_f=1.0, length_scale=0.5)
        )
        rows = read_rows(out / "approximation_error.csv")
        assert [r["step"] for r in rows] == ["1", "2", "3", "4"]
        data = gen_classification_toy(0, n=30)
        params = KernelParams(signal_variance=1.0, length_scale=0.5)
        iterated = distribution_centric_gpc_iterated(data, params, 4)
        scaled = [distribution_centric_gpc_scaled(data, params, t) for t in range(1, 5)]
        direct = approximation_error(iterated, scaled, np.linspace(-2, 7, 90),
                                     method="latent_mean")
        np.testing.assert_allclose([float(r["mse"]) for r in rows], direct, rtol=1e-12)

    def test_manifest_records_probability_method(self, tmp_path):
        out = tmp_path / "run2"
        run_experiment(
            ExperimentConfig(experiment="gpc-dist-10step", out_dir=out, seed=0,
                             steps=2, sigma_f=1.0, length_scale=0.5)
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["probability_method"] == "latent_mean"

    def test_duplication_gap_on_the_toy(self, tmp_path):
        # the paper's "approximately data duplication", as ||W_tot,t - t W_t|| / ||t W_t||
        out = tmp_path / "run3"
        run_experiment(
            ExperimentConfig(experiment="gpc-dist-10step", out_dir=out, seed=0,
                             steps=10, sigma_f=1.0, length_scale=1.0)
        )
        gap = json.loads((out / "manifest.json").read_text())["duplication_gap"]
        assert len(gap) == 10
        assert gap[0] < 1e-6  # one step is one fit: only the jitter separates them
        np.testing.assert_allclose([gap[1], gap[4], gap[9]], [0.046, 0.097, 0.112], atol=1e-3)


REGRESSION_IDS = ["gpr-data-10step", "gpr-dist-10step", "gpr-data-schedules",
                  "gpr-dist-schedules"]


class TestOneDecompositionPerRun:
    # counted, not timed: every step of every schedule shares one spectrum of K
    def decompositions(self, tmp_path, **config) -> int:
        with counted() as counts:
            run_experiment(ExperimentConfig(out_dir=tmp_path / "out", seed=0, **config))
        return counts["eighs"]

    @pytest.mark.parametrize("experiment", REGRESSION_IDS)
    def test_fixed_hyperparameters(self, tmp_path, experiment):
        assert self.decompositions(tmp_path, experiment=experiment,
                                   sigma_f=2.0, length_scale=1.5) == 1

    @pytest.mark.parametrize("experiment", REGRESSION_IDS)
    def test_grid_selected_hyperparameters(self, tmp_path, experiment):
        # one per length scale of the 10 x 10 search, then the run's own
        assert self.decompositions(tmp_path, experiment=experiment) == 11


class TestGpcDataCbFits:
    # counted, not timed: one chain fits step 1, and each step-2 variant is one more fit
    def test_step_one_fitted_once(self, monkeypatch, tmp_path):
        import gpdistill.experiments.runner as runner_module
        import gpdistill.gpc_distill as gpc_module

        real_mode = gpc_module.laplace_mode
        likelihoods = []

        def mode(*args, **kwargs):
            likelihoods.append(kwargs["likelihood"])
            return real_mode(*args, **kwargs)

        for module in (runner_module, gpc_module):
            monkeypatch.setattr(module, "laplace_mode", mode)
        run_experiment(ExperimentConfig(experiment="gpc-data-cb", out_dir=tmp_path / "out",
                                        seed=0, sigma_f=1.0, length_scale=1.0))
        # step 1 and its three Bernoulli/CB refits, the regularized and hard-label CB fits
        assert sorted(likelihoods) == sorted([BERNOULLI] * 3 + [CONTINUOUS_BERNOULLI] * 3)


class TestConfigChecks:
    @pytest.mark.parametrize("field", ["proba_method", "target_kind"])
    def test_unknown_choice_rejected_at_construction(self, tmp_path, field):
        # before any fit: the recipe would run its grid search and chains first
        with pytest.raises(ValueError, match=f"{field} must be one of"):
            ExperimentConfig(experiment="gpc-dist-10step", out_dir=tmp_path / "out",
                             **{field: "bogus"})
        assert not (tmp_path / "out").exists()


class TestRegistry:
    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment(ExperimentConfig(experiment="nope", out_dir=tmp_path))

    def test_registry_contents(self):
        assert set(EXPERIMENTS) == {
            "gpr-data-10step", "gpr-dist-10step", "gpr-data-schedules",
            "gpr-dist-schedules", "gpc-data-cb", "gpc-dist-10step", "grid-search",
        }
