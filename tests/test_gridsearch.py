import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from gpdistill.gpr import Dataset
from gpdistill.gridsearch import (
    DEFAULT_GRID_AXIS,
    NUMERICAL_ERRORS,
    GridSpec,
    gpr_marginal_nll,
    grid_search,
)
from gpdistill.kernels import KernelParams, gram
from gpdistill.laplace import (
    BERNOULLI,
    CONTINUOUS_BERNOULLI,
    BinaryDataset,
    laplace_marginal_loglik,
    laplace_mode,
)


def regression_data(rng, n=12):
    xs = rng.uniform(0, 5, size=(n, 1))
    ys = np.sin(xs.ravel() * 1.5) + 0.3 * rng.standard_normal(n)
    return Dataset(xs, ys)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(sigma_f_values=(), length_scale_values=(1.0,))
        with pytest.raises(ValueError):
            GridSpec(sigma_f_values=(1.0,), length_scale_values=(0.0,))
        with pytest.raises(ValueError):
            GridSpec(sigma_f_values=(1.0,), length_scale_values=(1.0,), noise_values=(-1.0,))

    @pytest.mark.parametrize("sigma_f", [1e200, 1e-300])
    def test_sigma_f_whose_square_leaves_the_floats_rejected(self, sigma_f):
        # 1e200**2 overflows and 1e-300**2 underflows to 0.0; every cell squares sigma_f
        with pytest.raises(ValueError, match="sigma_f_values must square to a positive finite"):
            GridSpec(sigma_f_values=(1.0, sigma_f), length_scale_values=(1.0,))


class TestGridSearch:
    def test_single_cell(self, rng):
        data = regression_data(rng)
        spec = GridSpec(sigma_f_values=(1.2,), length_scale_values=(0.8,))
        result = grid_search(data, spec, objective="gpr_nll", fixed_noise=0.1)
        assert len(result.cells) == 1
        assert result.best_params.signal_variance == pytest.approx(1.2**2)
        assert result.best_params.length_scale == 0.8

    def test_row_count(self, rng):
        data = regression_data(rng)
        spec = GridSpec(
            sigma_f_values=(0.5, 1.0, 2.0),
            length_scale_values=(0.3, 1.0),
            noise_values=(0.1, 0.5),
        )
        result = grid_search(data, spec, objective="gpr_nll")
        assert len(result.cells) == 3 * 2 * 2
        spec2 = GridSpec(sigma_f_values=(0.5, 1.0), length_scale_values=(0.3, 1.0, 3.0))
        result2 = grid_search(data, spec2, objective="gpr_nll", fixed_noise=0.2)
        assert len(result2.cells) == 2 * 3 * 1

    def test_determinism_and_tie_break(self, rng):
        data = regression_data(rng)
        # duplicated axis values force exact ties; the smallest wins
        spec = GridSpec(sigma_f_values=(1.0, 1.0), length_scale_values=(0.7, 0.7))
        a = grid_search(data, spec, objective="gpr_nll", fixed_noise=0.2)
        b = grid_search(data, spec, objective="gpr_nll", fixed_noise=0.2)
        assert a.best_params == b.best_params
        assert a.best_nll == b.best_nll
        nlls = [c.nll for c in a.cells]
        assert nlls.count(min(nlls)) == 4  # all four cells tie
        assert a.best_params.length_scale == 0.7

    def test_gpr_nll_matches_dense_gaussian_logpdf(self, rng):
        data = regression_data(rng, n=9)
        params = KernelParams(signal_variance=1.21, length_scale=0.6)
        noise = 0.25
        got = gpr_marginal_nll(data, params, noise)
        cov = gram(data.xs, params) + noise * np.eye(9)
        oracle = -multivariate_normal(mean=np.zeros(9), cov=cov).logpdf(data.ys)
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_synthetic_draw_ranks_truth_well(self, rng):
        # data drawn from a known kernel: the generating cell lands in the
        # lowest decile of the grid
        true = KernelParams(signal_variance=1.0, length_scale=1.0)
        xs = rng.uniform(0, 6, size=(25, 1))
        cov = gram(xs, true) + 0.1 * np.eye(25)
        ys = rng.multivariate_normal(np.zeros(25), cov)
        data = Dataset(xs, ys)
        sf_axis = (0.1, 0.3, 1.0, 3.0, 10.0)
        l_axis = (0.03, 0.1, 0.3, 1.0, 3.0, 10.0)
        spec = GridSpec(sigma_f_values=sf_axis, length_scale_values=l_axis)
        result = grid_search(data, spec, objective="gpr_nll", fixed_noise=0.1)
        nlls = sorted(c.nll for c in result.cells)
        truth_nll = next(
            c.nll for c in result.cells if c.sigma_f == 1.0 and c.length_scale == 1.0
        )
        assert truth_nll <= nlls[max(0, len(nlls) // 10 - 1)] or truth_nll == nlls[0]

    def test_classification_grids_have_interior_distinct_minima(self):
        from scipy.special import expit

        from gpdistill.experiments.datasets import (
            classification_latent_truth,
            gen_classification_toy,
        )

        toy = gen_classification_toy(0, n=30)
        cont = BinaryDataset(toy.xs, expit(classification_latent_truth(toy.xs.ravel())))
        spec = GridSpec(
            sigma_f_values=tuple(np.logspace(-0.5, 1.0, 8)),
            length_scale_values=tuple(np.logspace(-1.0, 1.0, 8)),
        )
        minima = {}
        for objective in ("gpc_bernoulli_nll", "gpc_cb_nll"):
            result = grid_search(cont, spec, objective=objective)
            sf = math.sqrt(result.best_params.signal_variance)
            ell = result.best_params.length_scale
            sf_ax = sorted(spec.sigma_f_values)
            l_ax = sorted(spec.length_scale_values)
            assert sf_ax[0] < sf < sf_ax[-1], objective
            assert l_ax[0] < ell < l_ax[-1], objective
            minima[objective] = (sf, ell)
        assert minima["gpc_bernoulli_nll"] != minima["gpc_cb_nll"]

    def test_failed_cells_record_inf(self, rng, monkeypatch):
        data = regression_data(rng)

        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("boom")

        monkeypatch.setattr("gpdistill.gridsearch._unit_spectrum", explode)
        with pytest.raises(RuntimeError, match="every grid cell"):
            grid_search(
                data,
                GridSpec(sigma_f_values=(1.0,), length_scale_values=(1.0,)),
                objective="gpr_nll",
            )

    def test_total_failure_is_numerical_and_chained(self, rng, monkeypatch):
        data = regression_data(rng)
        boom = np.linalg.LinAlgError("boom")

        def explode(*args, **kwargs):
            raise boom

        monkeypatch.setattr("gpdistill.gridsearch._unit_spectrum", explode)
        spec = GridSpec(sigma_f_values=(1.0, 2.0), length_scale_values=(1.0,))
        with pytest.raises(NUMERICAL_ERRORS, match="boom") as info:
            grid_search(data, spec, objective="gpr_nll")
        assert isinstance(info.value, RuntimeError)
        assert info.value.__cause__ is boom

    def test_non_numerical_error_propagates(self, rng, monkeypatch):
        data = regression_data(rng)

        def broken(*args, **kwargs):
            raise TypeError("a bug, not a numerical failure")

        monkeypatch.setattr("gpdistill.gridsearch._unit_spectrum", broken)
        spec = GridSpec(sigma_f_values=(1.0,), length_scale_values=(1.0, 2.0))
        with pytest.raises(TypeError, match="a bug"):
            grid_search(data, spec, objective="gpr_nll", fixed_noise=0.1)

    def test_partial_failure_still_finds_minimum(self, rng, monkeypatch):
        import gpdistill.gridsearch as gs

        data = regression_data(rng)
        real = gs._unit_spectrum

        def flaky(data, sq_dists, length_scale):
            if length_scale < 0.5:
                raise np.linalg.LinAlgError("boom")
            return real(data, sq_dists, length_scale)

        monkeypatch.setattr(gs, "_unit_spectrum", flaky)
        spec = GridSpec(sigma_f_values=(1.0,), length_scale_values=(0.1, 1.0))
        result = gs.grid_search(data, spec, objective="gpr_nll", fixed_noise=0.2)
        assert math.isinf(next(c.nll for c in result.cells if c.length_scale == 0.1))
        assert result.best_params.length_scale == 1.0

    def test_objective_type_checks(self, rng):
        data = regression_data(rng)
        spec = GridSpec(sigma_f_values=(1.0,), length_scale_values=(1.0,))
        with pytest.raises(ValueError, match="objective"):
            grid_search(data, spec, objective="elbo")
        with pytest.raises(ValueError, match="BinaryDataset"):
            grid_search(data, spec, objective="gpc_cb_nll")


def slogdet_cholesky_nll(xs, ys, sigma_f, length_scale, noise) -> float:
    """Independent NLL oracle: broadcast kernel, Cholesky solve for the quadratic
    form, slogdet for the log-determinant."""
    pts = np.asarray(xs, dtype=float).reshape(len(ys), -1)
    sq = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    cov = sigma_f**2 * np.exp(-sq / (2.0 * length_scale)) + noise * np.eye(len(ys))
    half = np.linalg.solve(np.linalg.cholesky(cov), ys)
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    return 0.5 * (float(half @ half) + logdet + len(ys) * math.log(2.0 * math.pi))


def grid_decompositions(monkeypatch) -> list:
    import gpdistill.gridsearch as gs

    real = gs.spectral_decompose
    calls = []

    def decompose(K):
        calls.append(K.shape)
        return real(K)

    monkeypatch.setattr(gs, "spectral_decompose", decompose)
    return calls


class TestSharedSpectrum:
    def test_every_gpr_cell_matches_cholesky_oracle(self):
        from gpdistill.experiments.datasets import gen_regression_toy

        # the default 16 x 16 axes include the sigma_f = length_scale = 100 corner,
        # where K is nearly rank one and roundoff is largest
        data = gen_regression_toy(0, n=60)
        spec = GridSpec(sigma_f_values=DEFAULT_GRID_AXIS, length_scale_values=DEFAULT_GRID_AXIS)
        result = grid_search(data, spec, objective="gpr_nll", fixed_noise=1.0)
        assert len(result.cells) == 256
        got = np.array([c.nll for c in result.cells])
        oracle = np.array([slogdet_cholesky_nll(data.xs, data.ys, c.sigma_f, c.length_scale,
                                                c.noise) for c in result.cells])
        rel = np.abs(got - oracle) / np.abs(oracle)
        worst = result.cells[int(np.argmax(rel))]
        assert rel.max() < 1e-8, (rel.max(), worst)
        assert result.best_nll == got.min()

    def test_gpr_marginal_nll_is_the_one_cell_sweep(self, rng):
        data = regression_data(rng, n=15)
        spec = GridSpec(sigma_f_values=(0.5, 2.0), length_scale_values=(0.3, 1.0, 3.0),
                        noise_values=(0.05, 0.4))
        for cell in grid_search(data, spec, objective="gpr_nll").cells:
            params = KernelParams(signal_variance=cell.sigma_f**2, length_scale=cell.length_scale)
            assert gpr_marginal_nll(data, params, cell.noise) == cell.nll

    @pytest.mark.parametrize("objective, likelihood", [
        ("gpc_bernoulli_nll", BERNOULLI),
        ("gpc_cb_nll", CONTINUOUS_BERNOULLI),
    ])
    def test_every_gpc_cell_is_bit_identical_to_a_per_cell_fit(self, objective, likelihood):
        from scipy.special import expit

        from gpdistill.experiments.datasets import (
            classification_latent_truth,
            gen_classification_toy,
        )

        toy = gen_classification_toy(0, n=25)
        ys = toy.ys if objective == "gpc_bernoulli_nll" else expit(
            classification_latent_truth(toy.xs.ravel()))
        data = BinaryDataset(toy.xs, ys)
        cells = []
        for noise_values in (None, (1e-3, 0.5)):  # the fixed zero noise, then a noise axis
            spec = GridSpec(sigma_f_values=DEFAULT_GRID_AXIS[::5],
                            length_scale_values=(0.1, 1.0, 10.0), noise_values=noise_values)
            cells += grid_search(data, spec, objective=objective).cells
        for cell in cells:
            params = KernelParams(signal_variance=cell.sigma_f**2, length_scale=cell.length_scale)
            K = gram(data.xs, params, add_jitter=True) + cell.noise * np.eye(len(ys))
            try:
                fit = laplace_mode(data.ys, K, likelihood=likelihood)
                expected = -laplace_marginal_loglik(fit, K, data.ys)
            except NUMERICAL_ERRORS:
                expected = math.inf
            assert cell.nll == expected, cell

    def test_one_decomposition_per_length_scale(self, rng, monkeypatch):
        calls = grid_decompositions(monkeypatch)
        data = regression_data(rng, n=20)
        spec = GridSpec(sigma_f_values=(0.3, 1.0, 3.0),
                        length_scale_values=(0.1, 0.5, 1.0, 2.0, 8.0), noise_values=(0.1, 0.2))
        assert len(grid_search(data, spec, objective="gpr_nll").cells) == 3 * 5 * 2
        assert calls == [(20, 20)] * 5

    def test_classification_sweeps_decompose_nothing(self, monkeypatch):
        from gpdistill.experiments.datasets import gen_classification_toy

        calls = grid_decompositions(monkeypatch)
        spec = GridSpec(sigma_f_values=(0.5, 2.0), length_scale_values=(0.5, 2.0))
        grid_search(gen_classification_toy(0, n=15), spec, objective="gpc_bernoulli_nll")
        assert calls == []

    def test_gpc_cells_of_a_length_scale_are_one_stack(self, monkeypatch):
        import gpdistill.gridsearch as gs
        from gpdistill.experiments.datasets import gen_classification_toy

        real = gs.laplace_modes
        stacks = []

        def recording(ys, grams, **kwargs):
            stacks.append(len(grams))
            return real(ys, grams, **kwargs)

        monkeypatch.setattr(gs, "laplace_modes", recording)
        spec = GridSpec(sigma_f_values=(0.5, 1.0, 2.0), length_scale_values=(0.5, 2.0),
                        noise_values=(1e-3, 0.5))
        gs.grid_search(gen_classification_toy(0, n=15), spec, objective="gpc_cb_nll")
        assert stacks == [6, 6]


class TestCellFailures:
    def test_finite_cells_record_no_failure(self, rng):
        data = regression_data(rng)
        spec = GridSpec(sigma_f_values=(0.5, 1.0), length_scale_values=(0.3, 1.0))
        cells = grid_search(data, spec, objective="gpr_nll", fixed_noise=0.1).cells
        assert all(math.isfinite(c.nll) and c.failure == "" for c in cells)

    def test_overflowing_scale_is_a_non_finite_cell_without_warning(self, rng):
        # sigma_f^2 = 1e308 is a valid signal variance, but times K_1's top eigenvalue it overflows
        import warnings

        data = regression_data(rng)
        spec = GridSpec(sigma_f_values=(1.0, 1e154), length_scale_values=(1.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = grid_search(data, spec, objective="gpr_nll", fixed_noise=0.5).cells
        assert math.isfinite(cells[0].nll) and cells[0].failure == ""
        assert math.isinf(cells[1].nll) and cells[1].failure == "non-finite objective inf"

    def test_singular_cells_name_their_error(self):
        # zero noise on 100 inputs 0.1 apart: at length scale 1e-3 K is close to
        # sigma_f^2 I, at 10 its spectrum falls to roundoff and K + 0*I is singular
        xs = np.linspace(0.0, 10.0, 100)[:, None]
        data = Dataset(xs, np.sin(xs.ravel()))
        spec = GridSpec(sigma_f_values=(0.5, 2.0), length_scale_values=(1e-3, 10.0))
        cells = grid_search(data, spec, objective="gpr_nll", fixed_noise=0.0).cells
        for cell in cells:
            if cell.length_scale == 1e-3:
                assert math.isfinite(cell.nll) and cell.failure == ""
            else:
                assert math.isinf(cell.nll)
                assert cell.failure.startswith("SingularSystemError: K + 0.0*I is singular")

    def test_failed_decomposition_fails_its_whole_column(self, rng, monkeypatch):
        import gpdistill.gridsearch as gs

        data = regression_data(rng)
        real = gs._unit_spectrum

        def flaky(data, sq_dists, length_scale):
            if length_scale < 0.5:
                raise np.linalg.LinAlgError("boom")
            return real(data, sq_dists, length_scale)

        monkeypatch.setattr(gs, "_unit_spectrum", flaky)
        spec = GridSpec(sigma_f_values=(0.5, 1.0, 2.0), length_scale_values=(0.1, 1.0),
                        noise_values=(0.1, 0.3))
        cells = gs.grid_search(data, spec, objective="gpr_nll").cells
        failed = [c for c in cells if c.length_scale == 0.1]
        assert len(failed) == 3 * 2
        assert all(math.isinf(c.nll) and c.failure == "LinAlgError: boom" for c in failed)
        assert all(math.isfinite(c.nll) and c.failure == "" for c in cells if c.length_scale == 1.0)
