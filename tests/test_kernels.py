import math

import numpy as np
import pytest

from gpdistill.kernels import (
    IndefiniteKernelError,
    KernelParams,
    SingularSystemError,
    gram,
    SpectralDecomp,
    gram_from_distances,
    kernel_matrix,
    signal_variance_of,
    spectral_decompose,
    squared_distances,
)


def rbf_kernel(x1, x2, params: KernelParams) -> float:
    """The RBF kernel between two points, one at a time: the pointwise oracle."""
    a = np.asarray(x1, dtype=float).ravel()
    b = np.asarray(x2, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"point dimensions differ: {a.shape} vs {b.shape}")
    sq = float(np.sum((a - b) ** 2))
    return params.signal_variance * float(np.exp(-sq / (2.0 * params.length_scale)))


def reconstruct(d: SpectralDecomp) -> np.ndarray:
    """O diag(eigenvalues) O^T."""
    return (d.eigenvectors * d.eigenvalues) @ d.eigenvectors.T


class TestKernelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelParams(signal_variance=0.0, length_scale=1.0)
        with pytest.raises(ValueError):
            KernelParams(signal_variance=1.0, length_scale=-1.0)
        with pytest.raises(ValueError):
            KernelParams(signal_variance=1.0, length_scale=1.0, jitter=-1e-9)

    @pytest.mark.parametrize("kwargs", [
        {"signal_variance": math.inf, "length_scale": 1.0},
        {"signal_variance": 1.0, "length_scale": math.inf},
        {"signal_variance": 1.0, "length_scale": 1.0, "jitter": math.inf},
        {"signal_variance": math.nan, "length_scale": 1.0},
        {"signal_variance": 1.0, "length_scale": 1.0, "jitter": math.nan},
    ])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            KernelParams(**kwargs)

    def test_jitter_default(self):
        assert KernelParams(1.0, 1.0).jitter == 1e-8


class TestRbfKernel:
    def test_zero_distance_gives_signal_variance(self):
        p = KernelParams(signal_variance=2.0, length_scale=0.7)
        assert rbf_kernel([1.0, -2.0], [1.0, -2.0], p) == 2.0

    def test_unit_exponent_by_construction(self):
        # squared distance equal to 2*length_scale puts the exponent at -1
        ell = 1.7
        p = KernelParams(signal_variance=1.0, length_scale=ell)
        x2 = [math.sqrt(2.0 * ell)]
        assert rbf_kernel([0.0], x2, p) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_direct_formula_oracle(self):
        # |0 - 3|^2 / (2 * 4.5) = 1
        p = KernelParams(signal_variance=1.0, length_scale=4.5)
        assert rbf_kernel([0.0], [3.0], p) == pytest.approx(0.36787944117144233, rel=1e-12)

    def test_dimension_mismatch(self):
        p = KernelParams(1.0, 1.0)
        with pytest.raises(ValueError, match="dimension"):
            rbf_kernel([0.0], [0.0, 1.0], p)

    def test_range(self, rng):
        p = KernelParams(signal_variance=3.0, length_scale=0.5)
        for _ in range(50):
            v = rbf_kernel(rng.normal(size=3), rng.normal(size=3), p)
            assert 0.0 < v <= 3.0


class TestGram:
    def test_single_point(self):
        p = KernelParams(signal_variance=1.0, length_scale=1.0, jitter=0.0)
        K = gram([[0.3]], p)
        np.testing.assert_array_equal(K, [[1.0]])

    def test_duplicate_points_rank_one(self):
        p = KernelParams(signal_variance=1.0, length_scale=1.0, jitter=0.0)
        K = gram([[2.0], [2.0]], p)
        np.testing.assert_array_equal(K, [[1.0, 1.0], [1.0, 1.0]])
        assert np.linalg.matrix_rank(K) == 1

    def test_elementwise_oracle(self, rng):
        p = KernelParams(signal_variance=1.4, length_scale=0.6)
        pts = rng.normal(size=(5, 2))
        K = gram(pts, p)
        for i in range(5):
            for j in range(5):
                expected = p.signal_variance if i == j else rbf_kernel(pts[i], pts[j], p)
                assert K[i, j] == pytest.approx(expected, rel=1e-14)

    def test_jitter_on_diagonal_only(self, rng):
        p = KernelParams(signal_variance=2.0, length_scale=1.0, jitter=1e-6)
        pts = rng.normal(size=(4, 1))
        plain = gram(pts, p, add_jitter=False)
        jittered = gram(pts, p, add_jitter=True)
        np.testing.assert_allclose(np.diag(jittered), 2.0 + 1e-6, rtol=0)
        off = ~np.eye(4, dtype=bool)
        np.testing.assert_array_equal(plain[off], jittered[off])

    def test_empty_input_rejected(self):
        p = KernelParams(1.0, 1.0)
        with pytest.raises(ValueError):
            gram(np.empty((0, 1)), p)

    def test_symmetric_for_random_params(self, rng):
        for _ in range(20):
            p = KernelParams(
                signal_variance=float(rng.uniform(0.1, 5)),
                length_scale=float(rng.uniform(0.1, 5)),
            )
            pts = rng.normal(size=(rng.integers(2, 12), rng.integers(1, 4)))
            K = gram(pts, p)
            np.testing.assert_array_equal(K, K.T)


class TestSpectralDecompose:
    def test_identity(self):
        d = spectral_decompose(np.eye(4))
        np.testing.assert_allclose(d.eigenvalues, 1.0)
        np.testing.assert_allclose(d.eigenvectors @ d.eigenvectors.T, np.eye(4), atol=1e-12)

    def test_rank_one(self):
        d = spectral_decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))
        np.testing.assert_allclose(d.eigenvalues, [2.0, 0.0], atol=1e-12)

    def test_reconstruction_random_psd(self, rng):
        A = rng.normal(size=(6, 6))
        M = A @ A.T
        d = spectral_decompose(M)
        assert np.linalg.norm(reconstruct(d) - M) / np.linalg.norm(M) < 1e-8

    def test_eigenvalues_sorted_and_clamped(self, rng):
        p = KernelParams(1.0, 2.0)
        d = spectral_decompose(gram(rng.normal(size=(8, 1)), p))
        assert np.all(np.diff(d.eigenvalues) <= 0)
        assert np.all(d.eigenvalues >= 0)

    def test_indefinite_rejected(self):
        with pytest.raises(IndefiniteKernelError):
            spectral_decompose(np.diag([1.0, -0.5]))

    def test_clamp_diagnostics(self):
        # the 1-D toy on [0, 10] at N=100: about half the spectrum is roundoff below 0
        K = gram(np.linspace(0.0, 10.0, 100), KernelParams(1.0, 1.0))
        raw = np.linalg.eigh(K)[0]
        d = spectral_decompose(K)
        assert d.clamped == np.count_nonzero(raw < 0.0) > 0
        assert d.most_negative == raw.min() < 0.0
        assert np.count_nonzero(d.eigenvalues == 0.0) >= d.clamped

    def test_no_clamp_reports_zero(self):
        d = spectral_decompose(np.diag([3.0, 1.0, 0.0]))
        assert (d.clamped, d.most_negative) == (0, 0.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            spectral_decompose(np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_orthogonality(self, rng):
        p = KernelParams(2.0, 0.8)
        d = spectral_decompose(gram(rng.normal(size=(10, 2)), p))
        gap = d.eigenvectors.T @ d.eigenvectors - np.eye(10)
        assert np.max(np.abs(gap)) < 1e-10

    def test_solve_shifted_singular(self):
        d = spectral_decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularSystemError):
            d.solve_shifted(np.ones(2), 0.0)

    def test_solve_shifted_matches_dense(self, rng):
        p = KernelParams(1.3, 1.1)
        K = gram(rng.normal(size=(7, 1)), p)
        d = spectral_decompose(K)
        rhs = rng.normal(size=7)
        expected = np.linalg.solve(K + 0.25 * np.eye(7), rhs)
        np.testing.assert_allclose(d.solve_shifted(rhs, 0.25), expected, rtol=1e-9, atol=1e-12)


class TestSpectralInvariants:
    def test_gram_reconstructs_for_random_settings(self, rng):
        for _ in range(15):
            p = KernelParams(
                signal_variance=float(rng.uniform(0.2, 4)),
                length_scale=float(rng.uniform(0.2, 4)),
            )
            pts = rng.uniform(-3, 3, size=(rng.integers(2, 15), rng.integers(1, 3)))
            K = gram(pts, p)
            d = spectral_decompose(K)
            err = np.linalg.norm(reconstruct(d) - K) / np.linalg.norm(K)
            assert err < 1e-8

    def test_jitter_shifts_every_eigenvalue(self, rng):
        p = KernelParams(1.0, 1.0)
        pts = rng.normal(size=(9, 1))
        K = gram(pts, p)
        g = 1e-3
        lam_plain = np.sort(np.linalg.eigvalsh(K))
        lam_shift = np.sort(np.linalg.eigvalsh(K + g * np.eye(9)))
        np.testing.assert_allclose(lam_shift, lam_plain + g, atol=1e-10)

    def test_cross_matrix_has_no_jitter_and_matches_pointwise(self, rng):
        p = KernelParams(1.0, 0.9, jitter=1e-4)
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(4, 2))
        M = kernel_matrix(a, b, p)
        for i in range(3):
            for j in range(4):
                assert M[i, j] == pytest.approx(rbf_kernel(a[i], b[j], p), rel=1e-14)


def broadcast_kernel(a, b, params: KernelParams) -> np.ndarray:
    """The library's former (M, N, d) broadcast assembly, kept verbatim as an oracle."""
    sq = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    return params.signal_variance * np.exp(-sq / (2.0 * params.length_scale))


PARAM_GRID = [
    KernelParams(signal_variance=sv, length_scale=ell)
    for sv in (1e-4, 1.0, 1e4)
    for ell in (1e-2, 2.0, 100.0)
]


class TestCdistAssembly:
    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    def test_bit_identical_to_broadcast_formula(self, rng, d):
        a = rng.normal(scale=3.0, size=(23, d))
        b = rng.normal(scale=3.0, size=(17, d))
        for p in PARAM_GRID:
            np.testing.assert_array_equal(kernel_matrix(a, b, p), broadcast_kernel(a, b, p))
            np.testing.assert_array_equal(kernel_matrix(a, a, p), broadcast_kernel(a, a, p))

    @pytest.mark.parametrize("d", [8, 12])
    def test_pairwise_summation_dims_agree_to_1e_12(self, rng, d):
        # numpy sums d >= 8 terms pairwise, so the squared distance may move by one ulp;
        # unit-cube inputs keep every entry a normal float even at ell = 1e-2
        a = rng.uniform(size=(23, d))
        b = rng.uniform(size=(17, d))
        for p in PARAM_GRID:
            np.testing.assert_allclose(kernel_matrix(a, b, p), broadcast_kernel(a, b, p),
                                       rtol=1e-12, atol=0)

    def test_gram_is_exactly_symmetric(self, rng):
        for d in (1, 3, 8):
            pts = rng.normal(size=(30, d))
            for p in PARAM_GRID:
                K = gram(pts, p)
                assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("add_jitter", [False, True])
    def test_gram_from_shared_distances_is_bit_identical(self, rng, add_jitter):
        pts = rng.normal(scale=2.0, size=(25, 3))
        sq = squared_distances(pts, pts)
        kept = sq.copy()
        for p in PARAM_GRID:
            assert np.array_equal(gram_from_distances(sq, p, add_jitter), gram(pts, p, add_jitter))
        # a sweep reuses the distances for every setting, so finishing must not consume them
        assert np.array_equal(sq, kept)


class TestSignalVarianceOf:
    def test_square(self):
        assert signal_variance_of(1.5, "sigma_f") == 1.5**2

    @pytest.mark.parametrize("sigma_f, reason", [
        (-2.0, "be positive and finite"),
        (math.nan, "be positive and finite"),
        (math.inf, "be positive and finite"),
        (1e200, "square to a positive finite float"),
        (1e-300, "square to a positive finite float"),
    ])
    def test_rejects_by_name(self, sigma_f, reason):
        with pytest.raises(ValueError, match=f"--flag must {reason}"):
            signal_variance_of(sigma_f, "--flag")
