import json

import numpy as np
import pytest

from gpdistill.gpr import Dataset, fit_gpr, predict_gpr
from gpdistill.gpr_distill import (
    DistillSchedule,
    data_centric_targets_naive,
    effective_noise,
)
from gpdistill.gpc_distill import (
    GpcDistillConfig,
    data_centric_gpc,
    distribution_centric_gpc_scaled,
)
from gpdistill.kernels import KernelParams, gram
from gpdistill.laplace import laplace_mode
from gpdistill.experiments.artifacts import (
    FORMAT_VERSION,
    ArtifactError,
    ModelArtifact,
    artifact_from_gpr,
    artifact_from_laplace,
    load_model,
    predict_from_artifact,
    save_model,
)
from gpdistill.experiments.cli import main
from gpdistill.experiments.datasets import gen_classification_toy, gen_regression_toy


@pytest.fixture
def reg_model():
    data = gen_regression_toy(0)
    params = KernelParams(signal_variance=4.0, length_scale=1.5)
    return fit_gpr(data, params, noise=1.0), data


def roundtrip(artifact, tmp_path, name="model.json"):
    path = tmp_path / name
    save_model(artifact, path)
    return load_model(path)


class TestRoundTrip:
    def test_gpr_bit_exact(self, reg_model, tmp_path):
        model, data = reg_model
        artifact = artifact_from_gpr(model)
        loaded = roundtrip(artifact, tmp_path)
        test_xs = np.linspace(0, 10, 37)
        before = predict_from_artifact(artifact, test_xs)
        after = predict_from_artifact(loaded, test_xs)
        np.testing.assert_array_equal(before, after)
        # and the artifact path reproduces the library's own mean predictions
        mean, _ = predict_gpr(model, test_xs)
        np.testing.assert_array_equal(before, mean)

    def test_gpr_noise_is_optional_provenance(self, reg_model, tmp_path):
        # prediction reads only inputs and weights, so files with and without
        # the noise load and predict the same bits
        model, _ = reg_model
        bare = roundtrip(artifact_from_gpr(model), tmp_path, name="bare.json")
        noted = roundtrip(artifact_from_gpr(model, extra={"noise": 1.0}), tmp_path)
        assert "noise" not in bare.payload and noted.payload["noise"] == 1.0
        test_xs = np.linspace(0, 10, 37)
        np.testing.assert_array_equal(predict_from_artifact(bare, test_xs),
                                      predict_from_artifact(noted, test_xs))

    def test_gpc_bit_exact(self, tmp_path):
        data = gen_classification_toy(1, n=15)
        params = KernelParams(signal_variance=1.0, length_scale=0.8)
        K = gram(data.xs, params, add_jitter=True)
        fit = laplace_mode(data.ys, K)
        artifact = artifact_from_laplace(fit, params, data.xs, method="gpc")
        loaded = roundtrip(artifact, tmp_path)
        pts = np.linspace(-1, 6, 29)
        np.testing.assert_array_equal(
            predict_from_artifact(artifact, pts), predict_from_artifact(loaded, pts)
        )
        probs = predict_from_artifact(loaded, pts)
        assert np.all((probs > 0) & (probs < 1))

    def test_every_method_tag_dispatches(self, tmp_path):
        reg = gen_regression_toy(0)
        cls = gen_classification_toy(0, n=12)
        params = KernelParams(signal_variance=1.0, length_scale=1.0)

        sched = DistillSchedule(gammas=(0.5, 0.5, 0.5))
        eff = effective_noise(sched, 3)
        artifacts = {
            "gpr": artifact_from_gpr(fit_gpr(reg, params, noise=0.5)),
            "gpr-dist": artifact_from_gpr(
                fit_gpr(reg, params, noise=eff.effective), method="gpr-dist",
                extra={"gammas": list(sched.gammas)},
            ),
            "gpr-data": artifact_from_gpr(
                fit_gpr(Dataset(reg.xs, data_centric_targets_naive(reg, params, sched)[-2]),
                        params, noise=sched.gammas[-1]),
                method="gpr-data", extra={"gammas": list(sched.gammas), "steps": 3},
            ),
        }
        chain = data_centric_gpc(cls, params, GpcDistillConfig(steps=2))
        artifacts["gpc-data"] = artifact_from_laplace(
            chain[-1].fit, params, cls.xs, method="gpc-data", extra={"steps": 2}
        )
        scaled = distribution_centric_gpc_scaled(cls, params, 4)
        artifacts["gpc-dist"] = artifact_from_laplace(
            scaled.fit, scaled.posterior.params, cls.xs, method="gpc-dist"
        )
        pts = np.linspace(0, 5, 11)
        for tag, artifact in artifacts.items():
            loaded = roundtrip(artifact, tmp_path, name=f"{tag}.json")
            assert loaded.method == tag
            np.testing.assert_array_equal(
                predict_from_artifact(artifact, pts), predict_from_artifact(loaded, pts)
            )

    def test_scaled_artifact_matches_library_posterior(self, tmp_path):
        from gpdistill.gpc_distill import posterior_proba

        cls = gen_classification_toy(3, n=12)
        params = KernelParams(signal_variance=1.0, length_scale=1.0)
        scaled = distribution_centric_gpc_scaled(cls, params, 5)
        artifact = artifact_from_laplace(
            scaled.fit, scaled.posterior.params, cls.xs, method="gpc-dist"
        )
        loaded = roundtrip(artifact, tmp_path)
        pts = np.linspace(0, 5, 9)
        np.testing.assert_array_equal(
            predict_from_artifact(loaded, pts),
            posterior_proba(scaled.posterior, pts, method="quadrature"),
        )


class TestErrors:
    def test_truncated_file(self, reg_model, tmp_path):
        model, _ = reg_model
        path = tmp_path / "model.json"
        save_model(artifact_from_gpr(model), path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ArtifactError):
            load_model(path)

    def test_version_mismatch(self, reg_model, tmp_path):
        model, _ = reg_model
        path = tmp_path / "model.json"
        save_model(artifact_from_gpr(model), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="version"):
            load_model(path)

    def test_version_1_scaled_model_rejected(self, tmp_path, capsys):
        # version 1 stored the unscaled kernel and a kernel_scale that version 2 no longer reads
        cls = gen_classification_toy(0, n=12)
        params = KernelParams(signal_variance=1.0, length_scale=1.0)
        scaled = distribution_centric_gpc_scaled(cls, params, 3)
        path = tmp_path / "model.json"
        save_model(artifact_from_laplace(scaled.fit, params, cls.xs, method="gpc-dist"), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 1
        doc["payload"]["kernel_scale"] = 3.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="version 1"):
            load_model(path)
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(path), "--points", "0,1,2",
                     "--out", str(out)]) == 1
        assert "version 1" in capsys.readouterr().err
        assert not out.exists()

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ArtifactError, match="format_version"):
            load_model(path)

    def test_unknown_method_tag(self):
        with pytest.raises(ValueError, match="method"):
            ModelArtifact(
                method="mystery",
                kernel_params=KernelParams(1.0, 1.0),
                payload={},
            )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_model(tmp_path / "nope.json")



class TestPayloadValidation:
    CORRUPTIONS = {
        "gpr-missing-alpha": ("gpr", lambda p: {k: v for k, v in p.items() if k != "alpha_weights"}),
        "gpr-nan-noise": ("gpr", lambda p: {**p, "noise": np.nan}),
        "gpr-payload-list": ("gpr", lambda p: list(p.values())),
        "gpr-nan-weight": ("gpr", lambda p: {**p, "alpha_weights": [np.nan] + p["alpha_weights"][1:]}),
        "gpr-short-alpha": ("gpr", lambda p: {**p, "alpha_weights": p["alpha_weights"][:-1]}),
        "gpr-inf-input": ("gpr", lambda p: {**p, "train_xs": [[np.inf]] + p["train_xs"][1:]}),
        "gpr-text-weights": ("gpr", lambda p: {**p, "alpha_weights": "abc"}),
        "gpr-nan-mix-alpha": ("gpr", lambda p: {**p, "mix_alpha": np.nan}),
        "gpr-mix-alpha-one": ("gpr", lambda p: {**p, "mix_alpha": 1.0}),
        "gpc-missing-w": ("gpc", lambda p: {k: v for k, v in p.items() if k != "w_diag"}),
        "gpc-short-w": ("gpc", lambda p: {**p, "w_diag": p["w_diag"][:-1]}),
        "gpc-negative-w": ("gpc", lambda p: {**p, "w_diag": [-0.5] + p["w_diag"][1:]}),
        "gpc-negative-shift": ("gpc", lambda p: {**p, "diag_shift": -1.0}),
    }

    @staticmethod
    def saved_doc(kind, tmp_path):
        params = KernelParams(signal_variance=1.0, length_scale=1.0)
        if kind == "gpr":
            artifact = artifact_from_gpr(fit_gpr(gen_regression_toy(0), params, noise=0.5),
                                         extra={"noise": 0.5})
        else:
            data = gen_classification_toy(0, n=12)
            fit = laplace_mode(data.ys, gram(data.xs, params, add_jitter=True))
            artifact = artifact_from_laplace(fit, params, data.xs, method="gpc")
        path = tmp_path / "model.json"
        save_model(artifact, path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_corrupt_payload_rejected(self, name, tmp_path, capsys):
        kind, corrupt = self.CORRUPTIONS[name]
        path, doc = self.saved_doc(kind, tmp_path)
        doc["payload"] = corrupt(doc["payload"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="malformed"):
            load_model(path)
        code = main(["predict", "--model", str(path), "--points", "0,1,2",
                     "--out", str(tmp_path / "pred.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
