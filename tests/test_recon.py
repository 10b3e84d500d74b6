from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
    forward_project,
    generate_phantom,
    l2_error,
    sirt,
)
import gtvtomo.recon
from gtvtomo.projector import spmv
from gtvtomo.recon import FBP_FILTERS, FBP_INTERPOLATIONS, _block_iterate, _fbp_operators

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
        assert l2_error(rec, shepp64) / np.linalg.norm(shepp64.pixels) < FBP_SHEPP_NOISELESS_REL_MAX

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
        assert l2_error(rec, shepp64) / np.linalg.norm(shepp64.pixels) < 0.6

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


def dense_filtered(grid, dt, filter_name):
    """Each column circularly convolved, on the next power of two >= 2p, with the filter's kernel.

    The kernel is the inverse DFT of the filter response written out as a
    cosine sum (the response is real and even), so no FFT is involved.
    """
    p, q = grid.shape
    npad = 1
    while npad < 2 * p:
        npad *= 2
    response = []
    for f in range(npad):
        nu = (f if f < npad // 2 else f - npad) / (npad * dt)
        gain = {"ram-lak": 1.0, "shepp-logan": np.sinc(nu * dt), "cosine": np.cos(np.pi * nu * dt)}
        response.append(abs(nu) * gain[filter_name])
    kernel = [
        sum(h * np.cos(2 * np.pi * f * m / npad) for f, h in enumerate(response)) / npad for m in range(npad)
    ]
    return np.array(
        [[sum(kernel[(r - j) % npad] * grid[j, k] for j in range(p)) for k in range(q)] for r in range(p)]
    )


def loop_fbp(grid, geometry, cfg):
    """FBP by one loop over pixels and angles: the documented interpolation rules, one sample at a time."""
    n, p, q = geometry.n, geometry.p, geometry.q
    o = geometry.offsets
    dt = o[1] - o[0]
    filtered = dense_filtered(grid, dt, cfg.filter_name)
    theta = np.deg2rad(geometry.angles)
    cos, sin = np.cos(theta), np.sin(theta)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            x, y = j - (n - 1) / 2.0, (n - 1) / 2.0 - i
            for k in range(q):
                t = x * cos[k] + y * sin[k]
                if cfg.interpolation == "nearest":
                    r = int(np.rint((t - o[0]) / dt))
                    out[i, j] += filtered[r, k] if 0 <= r < p else 0.0
                elif o[0] <= t <= o[-1]:  # linear: the two bins bracketing t, zero outside the detector
                    r = next(r for r in range(p - 1) if t <= o[r + 1])
                    w = (t - o[r]) / (o[r + 1] - o[r])
                    out[i, j] += (1.0 - w) * filtered[r, k] + w * filtered[r + 1, k]
    return out * (np.pi / q)


class TestFbpOracle:
    """``fbp`` equals the pixel-by-pixel, angle-by-angle loop for every filter and interpolation."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.integers(1, 9),
        st.integers(2, 14),
        st.integers(1, 6),
        st.floats(0.0, 1.0),
        st.sampled_from(FBP_FILTERS),
        st.sampled_from(FBP_INTERPOLATIONS),
        st.integers(0, 2**32 - 1),
    )
    @example(8, 9, 4, 0.0, "ram-lak", "linear", 0)  # span n: the corners miss the detector
    @example(8, 9, 4, 0.0, "cosine", "nearest", 1)
    @example(5, 2, 3, 1.0, "shepp-logan", "linear", 2)  # two rays
    @example(1, 3, 1, 0.5, "ram-lak", "nearest", 3)  # one pixel, one angle
    def test_matches_loop(self, n, p, q, stretch, filter_name, interpolation, seed):
        # spans from n (corners miss the detector) to 1.5 n (the full diagonal and more)
        geometry = Geometry(n, p, q, n * (1.0 + 0.5 * stretch))
        grid = np.random.default_rng(seed).standard_normal((p, q))
        cfg = FbpConfig(filter_name, interpolation)
        got = fbp(Sinogram(p, q, grid.ravel()), geometry, cfg).grid
        want = loop_fbp(grid, geometry, cfg)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max(initial=1.0))

    @pytest.mark.parametrize("span", [None, 24.0])
    @pytest.mark.parametrize("interpolation", FBP_INTERPOLATIONS)
    def test_mid_size(self, interpolation, span):
        # 35 bins: at the default span the pixels reach bins 0-34 (linear), the last one included;
        # at span n the corners fall off both ends and their bin indices are clipped
        geometry = Geometry(24, 35, 12, span)
        grid = np.random.default_rng(5).standard_normal((35, 12))
        cfg = FbpConfig("ram-lak", interpolation)
        got = fbp(Sinogram(35, 12, grid.ravel()), geometry, cfg).grid
        want = loop_fbp(grid, geometry, cfg)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())

    def test_cached_operators_follow_span_filter_and_interpolation(self):
        # same (n, p, q) throughout, so a cache key missing any of the three returns a stale operator
        grid = np.random.default_rng(6).standard_normal((9, 4))
        for span in (8.0, 12.0):
            for interpolation in FBP_INTERPOLATIONS:
                for filter_name in ("ram-lak", "cosine"):
                    geometry, cfg = Geometry(8, 9, 4, span), FbpConfig(filter_name, interpolation)
                    got = fbp(Sinogram(9, 4, grid.ravel()), geometry, cfg).grid
                    want = loop_fbp(grid, geometry, cfg)
                    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())

    def test_equal_geometries_share_one_cached_operator(self):
        # the default span and the same span given explicitly build one W, not two
        g, explicit, cfg = Geometry(6, 7, 3), Geometry(6, 7, 3, 6 * np.sqrt(2.0)), FbpConfig("shepp-logan", "nearest")
        W = _fbp_operators(g, cfg)[1]
        hits = _fbp_operators.cache_info().hits
        assert _fbp_operators(explicit, cfg)[1] is W
        assert _fbp_operators.cache_info().hits == hits + 1


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


SOLVERS = {"art": (art, ArtConfig(lam=1.0, sweeps=3)), "sirt": (sirt, SirtConfig(lam=1.0, iterations=3))}


@pytest.mark.parametrize("method", SOLVERS)
class TestDataCheck:
    """ART and SIRT take their data through flat_finite: bad data fail before the first step."""

    def test_sinogram_grid_rejected(self, method):
        solve, cfg = SOLVERS[method]
        A = build_projector(Geometry(16, 23, 10))
        sino = forward_project(A, generate_phantom("shepp-logan", 16))
        with pytest.raises(ValueError, match=r"^data must be a flat vector of length 230, got shape \(23, 10\)$"):
            solve(A, sino.grid, cfg)

    def test_nan_on_active_row_fails_before_any_step(self, method):
        solve, cfg = SOLVERS[method]
        A, _, b = well_posed_system()
        b[A.active_rows[0]] = np.nan
        calls = []
        with pytest.raises(ValueError, match="^reconstruction data must be finite$"):
            solve(A, b, cfg, tracker=lambda xv: calls.append(1))
        assert calls == []

    def test_inf_on_zero_norm_row_rejected(self, method):
        solve, cfg = SOLVERS[method]
        M = np.diag([1.0, 0.0, 1.0, 1.0])
        A = operator_from_matrix(M, 2, 2, 2)
        with pytest.raises(ValueError, match="^reconstruction data must be finite$"):
            solve(A, np.array([2.0, np.inf, 3.0, 4.0]), cfg)


def dense_sirt_radius(M, norms_sq):
    """Largest eigenvalue of ``M^T diag(1/norms_sq) M`` for a dense matrix of nonzero rows."""
    return float(np.linalg.eigvalsh(M.T @ (M / norms_sq[:, None])).max())


@st.composite
def art_problems(draw):
    """A small geometry, data and relaxation; wide spans leave zero rows."""
    n = draw(st.integers(1, 12))
    span = draw(st.one_of(st.none(), st.floats(n, 3.0 * n)))
    g = Geometry(n, draw(st.integers(1, 30)), draw(st.integers(1, 16)), span)
    seed = draw(st.integers(0, 2**32 - 1))
    return g, seed, draw(st.floats(0.05, 1.95))


def art_levels(A):
    """ART's levels as one row array each, from the ``(rows, ends)`` plan."""
    rows, ends = A.art_schedule
    return [rows[lo:hi] for lo, hi in zip(ends, ends[1:])]


class TestArtSchedule:
    """The level schedule covers the active rows once, in disjoint levels, in the documented order."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(art_problems())
    @example((Geometry(6, 1, 5), 0, 1.0))  # one ray per angle
    @example((Geometry(6, 9, 1), 1, 1.0))  # one angle
    @example((Geometry(8, 11, 6), 2, 0.25))  # even angle count: 0° and 90°
    @example((Geometry(5, 13, 4, detector_span=15.0), 3, 1.5))  # span past the diagonal
    def test_levels_and_sequential_equivalence(self, problem):
        g, seed, lam = problem
        A = build_projector(g)
        levels = art_levels(A)
        active = A.active_rows
        np.testing.assert_array_equal(active, np.flatnonzero(A.row_norms_sq > 0))
        assert sorted(i for level in levels for i in level) == active.tolist()
        for level in levels:
            assert level.size > 0
            cols = A.matrix[level].indices
            assert np.unique(cols).size == cols.size

        # Plain Kaczmarz, one row at a time, angle-major with even rays first.
        rng = np.random.default_rng(seed)
        b = A.matrix @ rng.random(A.cols) + 0.1 * rng.standard_normal(A.rows)
        ray, angle = active // g.q, active % g.q
        order = active[np.lexsort((ray, ray % 2, angle))]
        x = np.zeros(A.cols)
        norms_sq = A.row_norms_sq
        for _ in range(3):
            for i in order:
                lo, hi = A.matrix.indptr[i], A.matrix.indptr[i + 1]
                cols, w = A.matrix.indices[lo:hi], A.matrix.data[lo:hi]
                x[cols] += (lam * (b[i] - w @ x[cols]) / norms_sq[i]) * w
        img, _ = art(A, b, ArtConfig(lam=lam, sweeps=3))
        atol = 1e-12 * np.abs(x).max(initial=0.0)
        np.testing.assert_allclose(img.pixels, x, rtol=1e-12, atol=atol)


class TestSirtOracle:
    """SIRT against a dense Cimmino loop written from its docstring formula."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(art_problems())
    @example((Geometry(6, 1, 5), 0, 1.0))  # one ray per angle
    @example((Geometry(5, 13, 4, detector_span=15.0), 3, 1.5))  # zero rows past the diagonal
    @example((Geometry(4, 2, 3, detector_span=12.0), 4, 0.5))  # both rays miss: no nonzero rows
    def test_matches_dense_cimmino(self, problem):
        g, seed, lam = problem
        A = build_projector(g)
        rng = np.random.default_rng(seed)
        b = A.matrix @ rng.random(A.cols) + 0.1 * rng.standard_normal(A.rows)
        M = A.matrix.toarray()
        norms_sq = np.einsum("ij,ij->i", M, M)
        keep = norms_sq > 0
        cfg = SirtConfig(lam=lam, iterations=4)
        if not keep.any():
            with pytest.raises(ValueError, match="operator has no nonzero rows"):
                sirt(A, b, cfg)
            return
        M, b_kept, norms_sq = M[keep], b[keep], norms_sq[keep]
        rho = dense_sirt_radius(M, norms_sq)
        x = np.zeros(A.cols)
        expected = []
        for _ in range(cfg.iterations):
            x = x + lam / rho * (M.T @ ((b_kept - M @ x) / norms_sq))
            expected.append(x)
        seen = []
        img, curve = sirt(A, b, cfg, tracker=seen.append)
        assert curve.values.size == 0 and len(seen) == cfg.iterations
        atol = 1e-12 * np.abs(x).max(initial=0.0)
        for got, want in zip(seen, expected):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)
        np.testing.assert_allclose(img.pixels, x, rtol=1e-12, atol=atol)

    def test_all_zero_operator_sirt_rejects(self):
        A = operator_from_matrix(np.zeros((4, 4)), 2, 2, 2)
        with pytest.raises(ValueError, match="operator has no nonzero rows"):
            sirt(A, np.ones(4), SirtConfig(lam=1.0, iterations=3))

    def test_all_zero_operator_art_returns_zeros(self):
        # ART's one row gather per call is empty, whether or not the zeros are stored
        for matrix, nnz in ((np.zeros((4, 4)), 0), (sp.eye(4, format="csr") * 0.0, 4)):
            A = operator_from_matrix(matrix, 2, 2, 2)
            assert A.matrix.nnz == nnz and art_levels(A) == []
            seen = []
            img, curve = art(A, np.ones(4), ArtConfig(lam=1.0, sweeps=3), tracker=lambda xv: seen.append(xv) or 0.5)
            assert np.all(img.pixels == 0.0) and not np.any(seen)
            assert len(seen) == 3 and curve.values.size == 3


class TestSirtRadius:
    """``sirt_radius`` is the dense spectral radius, cached, and reproducible."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(art_problems())
    @example((Geometry(1, 3, 2), 0, 1.0))  # one pixel: one column
    @example((Geometry(5, 13, 4, detector_span=15.0), 3, 1.5))  # zero rows past the diagonal
    @example((Geometry(4, 2, 3, detector_span=12.0), 4, 0.5))  # both rays miss: no nonzero rows
    def test_matches_dense_eigenvalue(self, problem):
        g, _, _ = problem
        A = build_projector(g)
        assert "sirt_radius" not in A.__dict__  # built on first use, not with the projector
        M = A.matrix.toarray()
        norms_sq = np.einsum("ij,ij->i", M, M)
        keep = norms_sq > 0
        want = dense_sirt_radius(M[keep], norms_sq[keep]) if keep.any() else 0.0
        rho = A.sirt_radius
        assert type(rho) is float
        np.testing.assert_allclose(rho, want, rtol=1e-12, atol=0.0)
        assert A.sirt_radius is rho
        assert np.float64(build_projector(g).sirt_radius).tobytes() == np.float64(rho).tobytes()

    def test_art_leaves_it_unbuilt(self):
        A = build_projector(Geometry(8, 11, 6))
        art(A, np.ones(A.rows), ArtConfig(lam=1.0, sweeps=2))
        assert "sirt_radius" not in A.__dict__

    @settings(max_examples=60, deadline=None, database=None)
    @given(art_problems())
    @example((Geometry(1, 3, 2), 0, 1.95))
    @example((Geometry(5, 13, 4, detector_span=15.0), 3, 1.95))
    @example((Geometry(8, 11, 6), 5, 0.05))
    def test_weighted_residual_never_increases(self, problem):
        """Landweber on ``diag(1/||a_i||) A`` with step ``lam/rho`` in (0, 2/rho)."""
        g, seed, lam = problem
        A = build_projector(g)
        keep = A.row_norms_sq > 0
        assume(keep.any())
        rng = np.random.default_rng(seed)
        b = A.matrix @ rng.random(A.cols) + 0.1 * rng.standard_normal(A.rows)
        scale = 1.0 / np.sqrt(A.row_norms_sq[keep])
        residual = lambda xv: float(np.linalg.norm(scale * (b - A.matrix @ xv)[keep]))  # noqa: E731
        res = [residual(np.zeros(A.cols))]
        sirt(A, b, SirtConfig(lam=lam, iterations=20), tracker=lambda xv: res.append(residual(xv)))
        assert np.all(np.diff(res) <= 1e-12 * res[0])


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
        # SirtConfig keeps lam in (0, 2), so the runaway step goes to the shared kernel directly
        A, _, b = well_posed_system(seed=6)
        with pytest.raises(DivergenceError):
            _block_iterate(A, b, np.arange(A.rows), [0, A.rows], 1e9, 5000, None)

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
        for lam in (np.nan, np.inf, 2.0, 2.5, -0.5):
            with pytest.raises(ValueError, match="lam"):
                SirtConfig(lam=lam)


def _span40_operator(dtype=np.float64, index_dtype=np.int32):
    """The 16/23/10 projector with span 40 (it has zero rows), with its data and index arrays recast."""
    M = build_projector(Geometry(16, 23, 10, 40.0)).matrix.astype(dtype)
    M.indices, M.indptr = M.indices.astype(index_dtype), M.indptr.astype(index_dtype)
    return ProjectionOperator(M, Geometry(16, 23, 10, 40.0))


class TestCompiledBlockStep:
    """ART and SIRT equal, bit for bit, the block step written with the public ``B @ x`` and ``B.T @ r``.

    The solvers call scipy's private ``_sparsetools`` kernels; this pins them
    to the meaning of the public products.
    """

    @staticmethod
    def public_block_iterate(A, b, blocks, c, steps):
        gathered = [(A.matrix[rows], b[rows], A.row_norms_sq[rows]) for rows in blocks]
        x = np.zeros(A.cols)
        for _ in range(steps):
            for B, b_B, norms_B in gathered:
                x += B.T @ (c * (b_B - B @ x) / norms_B)
        return x

    @pytest.mark.parametrize(
        "operator",
        [
            lambda p64: p64,
            lambda p64: _span40_operator(),
            lambda p64: _span40_operator(dtype=np.float32),
            lambda p64: _span40_operator(dtype=np.longdouble),
            lambda p64: _span40_operator(index_dtype=np.int64),  # the row gather may narrow them again
        ],
        ids=["64-95-36", "16-23-10-span40", "float32", "longdouble", "int64-indices"],
    )
    def test_equals_public_products(self, projector64, operator):
        A = operator(projector64)
        rng = np.random.default_rng(3)
        b = (A.matrix @ rng.random(A.cols)).astype(np.float64) + 0.1 * rng.standard_normal(A.rows)
        got, _ = art(A, b, ArtConfig(lam=0.25, sweeps=5))
        assert np.array_equal(got.pixels, self.public_block_iterate(A, b, art_levels(A), 0.25, 5))
        got, _ = sirt(A, b, SirtConfig(lam=1.0, iterations=5))
        want = self.public_block_iterate(A, b, [A.active_rows], 1.0 / A.sirt_radius, 5)
        assert np.array_equal(got.pixels, want)

    @settings(max_examples=60, deadline=None, database=None)
    @given(art_problems())
    @example((Geometry(6, 1, 5), 0, 1.0))  # one ray per angle
    @example((Geometry(5, 13, 4, detector_span=15.0), 3, 1.5))  # zero rows past the diagonal
    @example((Geometry(4, 2, 3, detector_span=12.0), 4, 0.5))  # both rays miss: no nonzero rows
    def test_random_plans_equal_public_products(self, problem):
        g, seed, lam = problem
        A = build_projector(g)
        rng = np.random.default_rng(seed)
        b = A.matrix @ rng.random(A.cols) + 0.1 * rng.standard_normal(A.rows)
        got, _ = art(A, b, ArtConfig(lam=lam, sweeps=3))
        assert np.array_equal(got.pixels, self.public_block_iterate(A, b, art_levels(A), lam, 3))
        assume(A.active_rows.size > 0)  # sirt rejects an operator with no nonzero row
        got, _ = sirt(A, b, SirtConfig(lam=lam, iterations=3))
        assert np.array_equal(got.pixels, self.public_block_iterate(A, b, [A.active_rows], lam / A.sirt_radius, 3))

    def test_operators_are_what_they_claim(self):
        assert (_span40_operator().row_norms_sq == 0).any()
        assert _span40_operator(dtype=np.float32).matrix.dtype == np.float32
        M = _span40_operator(index_dtype=np.int64).matrix
        assert M.indices.dtype == M.indptr.dtype == np.int64


class TestColumnStack:
    """ART and SIRT on an ``(m, k)`` stack equal, bit for bit, one one-column solve per column."""

    @staticmethod
    def problem_data(g, seed):
        A = g if isinstance(g, ProjectionOperator) else build_projector(g)
        rng = np.random.default_rng(seed)
        b1 = A.matrix @ rng.random(A.cols) + 0.1 * rng.standard_normal(A.rows)
        return A, b1, 0.5 * b1 + rng.standard_normal(A.rows)

    @settings(max_examples=40, deadline=None, database=None)
    @given(art_problems())
    @example((Geometry(64, 95, 36), 0, 0.25))
    @example((_span40_operator(), 1, 1.0))  # zero rows
    @example((Geometry(4, 2, 3, detector_span=12.0), 4, 0.5))  # no nonzero row
    def test_stack_equals_column_solves(self, problem):
        g, seed, lam = problem
        A, b1, b2 = self.problem_data(g, seed)
        truth = np.linspace(0.0, 1.0, A.cols)

        def check(solve, cfg):
            pairs = solve(A, np.column_stack([b1, b2]), cfg, tracker=lambda X: [np.linalg.norm(x - truth) for x in X.T])
            assert len(pairs) == 2
            for b, (img, curve) in zip((b1, b2), pairs):
                want_img, want_curve = solve(A, b, cfg, tracker=lambda x: np.linalg.norm(x - truth))
                assert np.array_equal(img.pixels, want_img.pixels)
                assert np.array_equal(curve.values, want_curve.values)
                assert curve.values.size == 3

        check(art, ArtConfig(lam=lam, sweeps=3))
        assume(A.active_rows.size > 0)  # sirt rejects an operator with no nonzero row
        check(sirt, SirtConfig(lam=lam, iterations=3))

    @pytest.mark.parametrize("method", SOLVERS)
    def test_tracker_called_once_per_step_with_every_column(self, method):
        solve, cfg = SOLVERS[method]
        A, b1, b2 = self.problem_data(Geometry(8, 11, 6), 5)
        seen = []
        solve(A, np.column_stack([b1, b2]), cfg, tracker=lambda X: (seen.append(X), None)[1])
        assert len(seen) == 3
        assert all(X.shape == (A.cols, 2) for X in seen)
        img1, _ = solve(A, b1, cfg)
        assert np.array_equal(seen[-1][:, 0], img1.pixels)

    def test_one_diverging_column_raises(self):
        A, _, b = well_posed_system(seed=6)
        message = r"^iterate norm grew 1e12-fold after the first step; reduce the relaxation$"
        with pytest.raises(DivergenceError, match=message):
            _block_iterate(A, np.column_stack([np.zeros(A.rows), b]), np.arange(A.rows), [0, A.rows], 1e9, 5000, None)

    @pytest.mark.parametrize("method", SOLVERS)
    def test_bad_stacks_rejected(self, method):
        solve, cfg = SOLVERS[method]
        A, _, b = well_posed_system()
        bad = np.column_stack([b, b])
        bad[1, 1] = np.inf
        with pytest.raises(ValueError, match="^reconstruction data must be finite$"):
            solve(A, bad, cfg)
        with pytest.raises(ValueError, match=r"^data must be a flat vector of length 4, got shape \(4, 0\)$"):
            solve(A, np.empty((A.rows, 0)), cfg)


class TestLevelAddPath:
    """ART adds each level's ``B^T r`` straight into ``x``; SIRT, whose rows overlap, never does."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(art_problems(), st.integers(1, 3))
    @example((Geometry(64, 95, 36), 0, 0.25), 2)
    @example((Geometry(6, 9, 1), 1, 1.0), 2)  # one angle, one level: the buffered step
    @example((Geometry(4, 2, 3, detector_span=12.0), 4, 0.5), 2)  # no nonzero row
    def test_added_windows_have_unique_pixels(self, problem, k):
        """Every window of the k-column stacked gather that adds into ``x`` holds each pixel at most once."""
        g, seed, lam = problem
        A = build_projector(g)
        b = np.random.default_rng(seed).standard_normal((A.rows, k))
        added = []

        def spy(arrays, x, out, transpose=False, add=False):
            if add:
                indptr, indices, _ = arrays
                added.append(indices[indptr[0] : indptr[-1]].copy())
            return spmv(arrays, x, out, transpose=transpose, add=add)

        with mock.patch.object(gtvtomo.recon, "spmv", spy):
            art(A, b, ArtConfig(lam=lam, sweeps=2))
            levels = art_levels(A)
            assert len(added) == (2 * len(levels) if len(levels) > 1 else 0)
            for pixels, level in zip(added, levels * 2):
                assert pixels.size == k * A.matrix[level].nnz
                assert np.unique(pixels).size == pixels.size
            added.clear()
            if A.active_rows.size:
                sirt(A, b, SirtConfig(lam=lam, iterations=2))
            assert added == []


class TestDataScale:
    @pytest.mark.parametrize("scale", [1e-11, 1e11, 1e-200, 1e200, 1e-300, 1e300])
    @pytest.mark.parametrize("method", ["art", "sirt"])
    def test_scaled_data_scales_the_image(self, projector64, sino64_clean, method, scale):
        # the divergence guard is relative to the first step and measured without overflow,
        # so the data's units cannot trip or disarm it
        solve, cfg = (art, ArtConfig(sweeps=5)) if method == "art" else (sirt, SirtConfig(iterations=10))
        want = solve(projector64, sino64_clean.values, cfg)[0].pixels
        got = solve(projector64, scale * sino64_clean.values, cfg)[0].pixels / scale
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


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
