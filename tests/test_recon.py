import numpy as np
import pytest
import scipy.sparse as sp

from gtvtomo import (
    ArtConfig,
    DivergenceError,
    FbpConfig,
    Geometry,
    ProjectionOperator,
    Sinogram,
    SirtConfig,
    art,
    build_projector,
    fbp,
    relative_l2_error,
    sirt,
)

# Frozen self-oracle threshold for FBP on the noiseless Shepp-Logan sinogram
# (n=64, 95 rays, 36 angles, Ram-Lak/linear); first run measured 0.381.
FBP_SHEPP_NOISELESS_REL_MAX = 0.45


def operator_from_matrix(matrix, n, p, q):
    """Wrap an arbitrary dense matrix as a projection operator for solver tests."""
    return ProjectionOperator(sp.csr_matrix(matrix), Geometry(n, p, q))


def well_posed_system(seed=0):
    """Diagonally dominant invertible 4x4 system on a 2x2 image grid."""
    rng = np.random.default_rng(seed)
    M = np.eye(4) * 2.0 + 0.3 * rng.random((4, 4))
    x_true = rng.random(4)
    return operator_from_matrix(M, 2, 2, 2), x_true, M @ x_true


class TestFbp:
    def test_zero_sinogram(self, geometry64):
        img = fbp(Sinogram(95, 36, np.zeros(95 * 36)), geometry64)
        assert np.all(img.pixels == 0.0)

    def test_noiseless_shepp_logan_error(self, geometry64, shepp64, sino64_clean):
        rec = fbp(sino64_clean, geometry64)
        assert relative_l2_error(rec, shepp64) < FBP_SHEPP_NOISELESS_REL_MAX

    def test_linearity(self, geometry64):
        rng = np.random.default_rng(13)
        s1 = rng.standard_normal(95 * 36)
        s2 = rng.standard_normal(95 * 36)
        a, b = 2.0, -0.7
        lhs = fbp(Sinogram(95, 36, a * s1 + b * s2), geometry64).pixels
        rhs = a * fbp(Sinogram(95, 36, s1), geometry64).pixels + b * fbp(
            Sinogram(95, 36, s2), geometry64
        ).pixels
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("filter_name", ["ram-lak", "shepp-logan", "cosine"])
    @pytest.mark.parametrize("interpolation", ["linear", "nearest"])
    def test_variants_reconstruct(self, geometry64, shepp64, sino64_clean, filter_name, interpolation):
        rec = fbp(sino64_clean, geometry64, FbpConfig(filter_name, interpolation))
        assert relative_l2_error(rec, shepp64) < 0.6

    def test_smoother_filters_damp_high_frequencies(self, geometry64, sino64_noisy):
        ram = fbp(sino64_noisy, geometry64, FbpConfig("ram-lak"))
        cos = fbp(sino64_noisy, geometry64, FbpConfig("cosine"))
        # cosine rolls off the band edge, so its output has less energy
        assert np.linalg.norm(cos.pixels) < np.linalg.norm(ram.pixels)

    def test_dimension_mismatch(self, geometry64):
        with pytest.raises(ValueError):
            fbp(Sinogram(10, 36, np.zeros(360)), geometry64)

    def test_single_ray_rejected(self):
        g = Geometry(8, 1, 4)
        with pytest.raises(ValueError):
            fbp(Sinogram(1, 4, np.zeros(4)), g)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FbpConfig("hann")
        with pytest.raises(ValueError):
            FbpConfig("ram-lak", "cubic")


class TestArt:
    def test_consistent_invertible_system(self):
        A, x_true, b = well_posed_system()
        img, _ = art(A, b, ArtConfig(lam=1.0, sweeps=200))
        np.testing.assert_allclose(img.pixels, x_true, atol=1e-8)

    def test_noiseless_error_monotone(self):
        g = Geometry(16, 23, 12)
        A = build_projector(g)
        rng = np.random.default_rng(14)
        x_true = rng.random(A.cols)
        b = A.matrix @ x_true
        errs = []
        art(A, b, ArtConfig(lam=0.25, sweeps=30), tracker=lambda xv: errs.append(
            float(np.linalg.norm(xv - x_true))
        ))
        diffs = np.diff(errs)
        assert np.all(diffs <= 1e-12)

    def test_residual_monotone_on_consistent_system(self):
        A, _, b = well_posed_system(seed=2)
        res = []
        art(A, b, ArtConfig(lam=0.8, sweeps=50), tracker=lambda xv: res.append(
            float(np.linalg.norm(A.matrix @ xv - b))
        ))
        assert np.all(np.diff(res) <= 1e-12)

    def test_zero_rows_skipped(self):
        M = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        A = operator_from_matrix(M, 2, 2, 2)
        b = np.array([2.0, 99.0, 3.0, 4.0])  # the zero row's datum is ignored
        img, _ = art(A, b, ArtConfig(lam=1.0, sweeps=5))
        np.testing.assert_allclose(img.pixels, [2.0, 0.0, 3.0, 4.0], atol=1e-12)

    def test_randomized_order_deterministic(self):
        A, _, b = well_posed_system(seed=3)
        cfg = ArtConfig(lam=0.7, sweeps=7, row_order="randomized", seed=42)
        img1, _ = art(A, b, cfg)
        img2, _ = art(A, b, cfg)
        np.testing.assert_array_equal(img1.pixels, img2.pixels)

    def test_tracker_called_per_sweep(self):
        A, _, b = well_posed_system(seed=4)
        calls = []
        _, curve = art(A, b, ArtConfig(lam=1.0, sweeps=9), tracker=lambda xv: (calls.append(1), 1.0)[1])
        assert len(calls) == 9
        assert curve.values.size == 9

    def test_dimension_mismatch(self):
        A, _, _ = well_posed_system()
        with pytest.raises(ValueError):
            art(A, np.zeros(5), ArtConfig(lam=1.0, sweeps=1))

    def test_tracker_is_keyword_only(self):
        A, _, b = well_posed_system()
        with pytest.raises(TypeError):
            art(A, b, ArtConfig(lam=1.0, sweeps=1), lambda xv: 0.0)
        with pytest.raises(TypeError):
            sirt(A, b, SirtConfig(lam=1.0, iterations=1), lambda xv: 0.0)

    def test_relaxation_bounds(self):
        for lam in (0.0, 2.0, -0.5, 2.5):
            with pytest.raises(ValueError):
                ArtConfig(lam=lam)


class TestSirt:
    def test_consistent_system_converges(self):
        A, x_true, b = well_posed_system(seed=5)
        img, _ = sirt(A, b, SirtConfig(lam=1.0, iterations=10_000))
        assert np.linalg.norm(img.pixels - x_true) <= 1e-6

    def test_single_row_lands_on_hyperplane_projection(self):
        row = np.array([[1.0, 2.0, 0.0, 2.0]])
        A = operator_from_matrix(row, 2, 1, 1)
        b = np.array([9.0])
        img, _ = sirt(A, b, SirtConfig(lam=1.0, iterations=1))
        expected = (b[0] / np.sum(row**2)) * row.ravel()
        np.testing.assert_allclose(img.pixels, expected, atol=1e-14)

    def test_divergence_guard(self):
        A, _, b = well_posed_system(seed=6)
        with pytest.raises(DivergenceError):
            sirt(A, b, SirtConfig(lam=1e9, iterations=5000))

    def test_tracker_called_per_iteration(self):
        A, _, b = well_posed_system(seed=7)
        calls = []
        _, curve = sirt(A, b, SirtConfig(lam=1.0, iterations=13), tracker=lambda xv: (calls.append(1), 2.0)[1])
        assert len(calls) == 13
        assert curve.values.size == 13

    def test_zero_rows_excluded(self):
        M = np.zeros((4, 4))
        M[0, 0] = 1.0
        M[2, 2] = 1.0
        A = operator_from_matrix(M, 2, 2, 2)
        b = np.array([4.0, 123.0, 6.0, -55.0])
        img, _ = sirt(A, b, SirtConfig(lam=1.0, iterations=2000))
        np.testing.assert_allclose(img.pixels, [4.0, 0.0, 6.0, 0.0], atol=1e-9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SirtConfig(lam=0.0)
        with pytest.raises(ValueError):
            SirtConfig(iterations=0)


class TestSemiConvergenceShape:
    def test_noisy_art_error_dips_then_rises(self, projector64, shepp64, sino64_noisy):
        errs = []
        art(
            projector64,
            sino64_noisy.values,
            ArtConfig(lam=0.25, sweeps=40),
            tracker=lambda xv: errs.append(float(np.linalg.norm(xv - shepp64.pixels))),
        )
        errs = np.asarray(errs)
        k = int(np.argmin(errs))
        assert 0 < k < len(errs) - 1
        assert errs[-1] > errs[k]
