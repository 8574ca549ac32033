import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from gpdistill.gpr import Dataset
from gpdistill.gridsearch import NUMERICAL_ERRORS, GridSpec, gpr_marginal_nll, grid_search
from gpdistill.kernels import KernelParams, gram
from gpdistill.laplace import BinaryDataset


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

        monkeypatch.setattr("gpdistill.gridsearch.gpr_marginal_nll", explode)
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

        monkeypatch.setattr("gpdistill.gridsearch.gpr_marginal_nll", explode)
        spec = GridSpec(sigma_f_values=(1.0, 2.0), length_scale_values=(1.0,))
        with pytest.raises(NUMERICAL_ERRORS, match="boom") as info:
            grid_search(data, spec, objective="gpr_nll")
        assert isinstance(info.value, RuntimeError)
        assert info.value.__cause__ is boom

    def test_non_numerical_error_propagates(self, rng, monkeypatch):
        data = regression_data(rng)

        def broken(*args, **kwargs):
            raise TypeError("a bug, not a numerical failure")

        monkeypatch.setattr("gpdistill.gridsearch._cell_nll", broken)
        spec = GridSpec(sigma_f_values=(1.0,), length_scale_values=(1.0, 2.0))
        with pytest.raises(TypeError, match="a bug"):
            grid_search(data, spec, objective="gpr_nll", fixed_noise=0.1)

    def test_partial_failure_still_finds_minimum(self, rng, monkeypatch):
        import gpdistill.gridsearch as gs

        data = regression_data(rng)
        real = gs.gpr_marginal_nll

        def flaky(data, params, noise):
            if params.length_scale < 0.5:
                raise np.linalg.LinAlgError("boom")
            return real(data, params, noise)

        monkeypatch.setattr(gs, "gpr_marginal_nll", flaky)
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
