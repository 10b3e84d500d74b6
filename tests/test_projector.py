import tracemalloc
from dataclasses import FrozenInstanceError
from math import sqrt

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtvtomo import (
    Geometry,
    Image,
    Sinogram,
    back_project,
    build_projector,
    forward_project,
)

from gtvtomo.projector import spmv

from conftest import adjoint_gap

# Frozen self-oracle snapshot of the Shepp-Logan forward projection
# (n=64, 95 rays, 36 angles), recorded after cross-checking the CSR product
# against a dense matrix multiply.
SHEPP_SINO_SUM = 19180.191905868145
SHEPP_SINO_NORM = 444.2062330714608
SHEPP_SINO_SAMPLES = {
    1710: 6.8000000000000025,
    2500: 9.341924829348851,
    3419: 0.0,
}


class TestGeometry:
    def test_angles_equally_spaced(self):
        g = Geometry(16, 23, 36)
        np.testing.assert_allclose(g.angles, 180.0 * np.arange(36) / 36)
        assert np.all(np.diff(g.angles) > 0)

    def test_default_span_covers_diagonal(self):
        g = Geometry(64, 95, 36)
        assert g.detector_span == pytest.approx(64 * np.sqrt(2))
        assert g.offsets.size == 95
        assert g.offsets[0] == pytest.approx(-g.detector_span / 2)
        assert g.offsets[-1] == pytest.approx(g.detector_span / 2)

    def test_single_ray_centered(self):
        assert Geometry(8, 1, 4).offsets.tolist() == [0.0]

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Geometry(8, 0, 4)
        with pytest.raises(ValueError):
            Geometry(8, 5, 0)
        with pytest.raises(ValueError):
            Geometry(8, 5, 4, detector_span=4.0)  # smaller than the image
        for span in (np.nan, np.inf):
            with pytest.raises(ValueError, match="detector_span"):
                Geometry(8, 5, 4, detector_span=span)

    def test_default_span_is_a_value(self):
        # the geometry keys the cached FBP operators, so the default and the explicit span are one key
        g, explicit = Geometry(64, 95, 36), Geometry(64, 95, 36, 64 * sqrt(2))
        assert g == explicit and hash(g) == hash(explicit)

    def test_frozen(self):
        g = Geometry(8, 5, 4)
        for name, value in (("n", 9), ("p", 7), ("q", 2), ("detector_span", 12.0)):
            with pytest.raises(FrozenInstanceError):
                setattr(g, name, value)
        assert g == Geometry(8, 5, 4)


class TestProjectionOperatorFrozen:
    def test_fields_cannot_be_reassigned_under_its_caches(self):
        A = build_projector(Geometry(8, 5, 4))
        rows, schedule = A.active_rows, A.art_schedule
        with pytest.raises(FrozenInstanceError):
            A.matrix = A.matrix * 2.0
        with pytest.raises(FrozenInstanceError):
            A.geometry = Geometry(8, 5, 2)
        assert A.active_rows is rows and A.art_schedule is schedule


class TestRayTracing:
    def test_horizontal_ray_through_top_row(self):
        # offsets (-1.5, -0.5, 0.5, 1.5); angle index 1 is 90 degrees, so the
        # ray at offset +0.5 runs along the top-row centers of a 2x2 image.
        A = build_projector(Geometry(2, 4, 2, detector_span=3.0))
        row = A.matrix.getrow(2 * 2 + 1).toarray().ravel()
        np.testing.assert_allclose(row, [1.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_diagonal_ray_through_center(self):
        # single centered ray; angle index 1 is 45 degrees
        A = build_projector(Geometry(2, 1, 4, detector_span=2 * np.sqrt(2)))
        row = A.matrix.getrow(1).toarray().ravel()
        np.testing.assert_allclose(row, [np.sqrt(2), 0.0, 0.0, np.sqrt(2)], atol=1e-12)

    def test_shape_and_weight_bounds(self, projector64):
        A = projector64
        assert (A.rows, A.cols) == (95 * 36, 64 * 64)
        assert A.matrix.data.min() > 0.0
        assert A.matrix.data.max() <= 64 * np.sqrt(2) + 1e-9
        row_nnz = np.diff(A.matrix.indptr)
        assert row_nnz.max() <= 2 * 64

    def test_ones_image_reproduces_chord_lengths(self, projector64, geometry64):
        # at angle 0 rays are vertical, so the chord through the square is
        # the full height for |offset| < n/2 and zero outside
        ones = Image(64, np.ones(64 * 64))
        sino = forward_project(projector64, ones)
        chords = np.where(np.abs(geometry64.offsets) < 32.0, 64.0, 0.0)
        np.testing.assert_allclose(sino.grid[:, 0], chords, atol=1e-9)

    def test_rays_missing_image_leave_zero_rows(self):
        A = build_projector(Geometry(8, 15, 4, detector_span=16.0))
        assert np.any(A.row_norms_sq == 0.0)
        assert A.rows == 15 * 4  # zero rows are kept

    @pytest.mark.filterwarnings("error")
    def test_huge_span_keeps_only_the_centre_ray(self):
        # rays 1e20/22 apart: every ray but the centre one lies far past int64 cell indices
        A = build_projector(Geometry(16, 23, 10, 1e20)).matrix
        centre = build_projector(Geometry(16, 1, 10)).matrix
        assert (A[110:120] != centre).nnz == 0 and A[110:120].nnz == centre.nnz > 0
        assert A.nnz == centre.nnz


def square_chord(t: np.ndarray, theta: float, h: float) -> np.ndarray:
    """Length of the line {t*(cos, sin) + u*(-sin, cos)} inside the square [-h, h]^2.

    The Radon transform of a square's indicator is a trapezoid in t: flat at
    2h / max(|cos|, |sin|) out to h*||cos| - |sin||, then falling linearly
    to 0 at h*(|cos| + |sin|).
    """
    c, s = abs(np.cos(theta)), abs(np.sin(theta))
    flat = 2.0 * h / max(c, s)
    if c * s == 0.0:
        return np.where(np.abs(t) < h, flat, 0.0)
    return np.clip((h * (c + s) - np.abs(t)) / (c * s), 0.0, flat)


@st.composite
def geometries(draw):
    n = draw(st.integers(1, 20))
    span = draw(st.one_of(st.none(), st.just(float(n)), st.floats(n, 3.0 * n)))
    return Geometry(n, draw(st.integers(1, 40)), draw(st.integers(1, 24)), span)


class TestSiddonProperties:
    """Invariants of the traced matrix at random geometries, θ = 0° and 90° included."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(geometries())
    @example(Geometry(7, 1, 4))  # single ray, 0° and 90°
    @example(Geometry(8, 9, 6, detector_span=8.0))  # span = n: rays along the border
    @example(Geometry(5, 12, 2, detector_span=5.0))
    def test_row_sums_entries_and_adjoint(self, g):
        A = build_projector(g)
        h = g.n / 2.0
        sums = np.asarray(A.matrix.sum(axis=1)).ravel().reshape(g.p, g.q)
        for k, theta in enumerate(np.deg2rad(g.angles)):
            chord = square_chord(g.offsets, theta, h)
            # A ray running exactly along the image border may count as 0 or n.
            on_border = np.isclose(np.abs(g.offsets), h, rtol=0.0, atol=1e-9) & (
                min(abs(np.cos(theta)), abs(np.sin(theta))) < 1e-12
            )
            np.testing.assert_allclose(sums[~on_border, k], chord[~on_border], rtol=0.0, atol=1e-9)
            for total in sums[on_border, k]:
                assert min(abs(total), abs(total - g.n)) <= 1e-9
        assert np.all(A.matrix.data > 0.0)
        assert np.all(A.matrix.data <= np.sqrt(2.0) + 1e-12)
        rng = np.random.default_rng(g.n * 10_000 + g.p * 100 + g.q)
        x = rng.standard_normal(A.cols)
        y = rng.standard_normal(A.rows)
        assert adjoint_gap(A.matrix @ x, y, x, A.transpose_matrix @ y) <= 1e-10


def coo_reference(g: Geometry) -> sp.csr_matrix:
    """The projection matrix assembled from int64 COO coordinates, the reference ``build_projector`` must equal."""
    n, p, q = g.n, g.p, g.q
    h = n / 2.0
    lines = np.arange(n + 1) - h
    theta = np.deg2rad(g.angles)
    t = g.offsets[:, None]
    ray_rows = np.arange(p, dtype=np.int64)[:, None] * q
    entries = []
    for k in range(q):
        c, s = float(np.cos(theta[k])), float(np.sin(theta[k]))
        crossings = []
        if abs(s) > 1e-12:
            crossings.append((t * c - lines) / s)
        if abs(c) > 1e-12:
            crossings.append((lines - t * s) / c)
        ends = np.sort(np.concatenate(crossings, axis=1), axis=1)
        lengths = np.diff(ends, axis=1)
        mid = 0.5 * (ends[:, :-1] + ends[:, 1:])
        cols = np.floor((t * c - mid * s) + h)
        rows = np.floor(h - (t * s + mid * c))
        keep = (lengths > 1e-12) & (cols >= 0) & (cols < n) & (rows >= 0) & (rows < n)
        cells = (rows[keep] * n + cols[keep]).astype(np.int64)
        entries.append((np.broadcast_to(ray_rows + k, keep.shape)[keep], cells, lengths[keep]))
    row_idx, col_idx, data = (np.concatenate(parts) for parts in zip(*entries))
    return sp.coo_matrix((data, (row_idx, col_idx)), shape=(p * q, n * n)).tocsr()


class TestAssembly:
    """``build_projector``'s int32 assembly is the int64 COO reference, array for array and dtype for dtype."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(geometries())
    @example(Geometry(7, 1, 4))  # single ray, 0° and 90°
    @example(Geometry(5, 12, 2, detector_span=5.0))  # only 0° and 90°
    @example(Geometry(64, 95, 36, detector_span=200.0))  # most rays miss the image
    @example(Geometry(16, 23, 10, 1e20))  # far-off rays' cells overflow int64 before the mask
    def test_equals_coo_reference(self, g):
        got, want = build_projector(g).matrix, coo_reference(g)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_desk_scale_indices_are_int32(self, projector64):
        M = projector64.matrix
        assert M.indptr.dtype == M.indices.dtype == np.int32

    def test_desk_scale_build_peak(self, geometry64):
        # the COO (16 B an entry) and CSR (12 B) arrays of 194 744 entries at once are 5.5 MB; int64 COO
        # coordinates (6.9 MB) or per-angle pieces kept past their concatenation (9.2 MB) push the peak higher
        build_projector(geometry64)  # first-call allocations stay out of the measurement
        tracemalloc.start()
        try:
            build_projector(geometry64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5e6


class TestForwardProject:
    def test_zero_image(self, projector64):
        sino = forward_project(projector64, Image(64, np.zeros(64 * 64)))
        assert np.all(sino.values == 0.0)

    def test_linearity(self, projector64):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(projector64.cols)
        y = rng.standard_normal(projector64.cols)
        a, b = 1.7, -0.3
        lhs = forward_project(projector64, a * x + b * y).values
        rhs = a * forward_project(projector64, x).values + b * forward_project(projector64, y).values
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_impulse_extracts_matrix_column(self, projector64):
        j = 33 * 64 + 20
        impulse = np.zeros(projector64.cols)
        impulse[j] = 1.0
        sino = forward_project(projector64, impulse)
        np.testing.assert_array_equal(sino.values, projector64.matrix.getcol(j).toarray().ravel())

    def test_matches_dense_multiply_and_snapshot(self, projector64, shepp64, sino64_clean):
        dense = projector64.matrix.toarray() @ shepp64.pixels
        np.testing.assert_allclose(sino64_clean.values, dense, atol=1e-12)
        assert sino64_clean.values.sum() == pytest.approx(SHEPP_SINO_SUM, rel=1e-9)
        assert np.linalg.norm(sino64_clean.values) == pytest.approx(SHEPP_SINO_NORM, rel=1e-9)
        for idx, val in SHEPP_SINO_SAMPLES.items():
            assert sino64_clean.values[idx] == pytest.approx(val, abs=1e-9)

    def test_dimension_mismatch(self, projector64):
        with pytest.raises(ValueError):
            forward_project(projector64, Image(32, np.zeros(32 * 32)))


class TestBackProject:
    def test_zero_sinogram(self, projector64):
        img = back_project(projector64, Sinogram(95, 36, np.zeros(95 * 36)))
        assert np.all(img.pixels == 0.0)

    def test_single_ray_support(self, projector64):
        i = 40 * 36 + 7
        indicator = np.zeros(projector64.rows)
        indicator[i] = 1.0
        img = back_project(projector64, Sinogram(95, 36, indicator))
        row = projector64.matrix.getrow(i).toarray().ravel()
        np.testing.assert_array_equal(img.pixels != 0.0, row != 0.0)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(5)
        for n, q in ((2, 1), (8, 4), (16, 8)):
            A = build_projector(Geometry(n, max(3, n + n // 2), q))
            for _ in range(10):
                x = rng.standard_normal(A.cols)
                y = rng.standard_normal(A.rows)
                assert adjoint_gap(A.matrix @ x, y, x, A.transpose_matrix @ y) <= 1e-10

    def test_dimension_mismatch(self, projector64):
        with pytest.raises(ValueError):
            back_project(projector64, Sinogram(10, 10, np.zeros(100)))


class TestMassConsistency:
    def test_per_angle_mass_equal(self, projector64, shepp64):
        sino = forward_project(projector64, shepp64)
        mass = sino.grid.sum(axis=0)
        spread = (mass.max() - mass.min()) / mass.mean()
        assert spread <= 0.02


class TestSinogramType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Sinogram(3, 3, np.zeros(8))
        bad = np.zeros(9)
        bad[0] = np.inf
        with pytest.raises(ValueError):
            Sinogram(3, 3, bad)

    def test_grid_layout(self):
        s = Sinogram(2, 3, np.arange(6.0))
        np.testing.assert_array_equal(s.grid, [[0, 1, 2], [3, 4, 5]])


class TestSpmv:
    """``spmv`` overwrites ``out`` with exactly ``M @ x``, or ``M.T @ y`` when transposed; ``add`` adds into it."""

    @pytest.mark.parametrize(
        "dtype, index_dtype",
        [(np.float64, np.int32), (np.float32, np.int32), (np.float64, np.int64)],
        ids=["float64", "float32", "int64-indices"],
    )
    def test_equals_public_products(self, dtype, index_dtype):
        M = build_projector(Geometry(16, 23, 10, 40.0)).matrix.astype(dtype)  # span 40 leaves zero rows
        M.indices, M.indptr = M.indices.astype(index_dtype), M.indptr.astype(index_dtype)
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal(M.shape[1]), rng.standard_normal(M.shape[0])
        for v, want, transpose in ((x, M @ x, False), (y, M.T @ y, True)):
            out = np.full(want.size, 1e300, want.dtype)  # the kernels add into out: garbage must not survive
            assert spmv((M.indptr, M.indices, M.data), v, out, transpose=transpose) is out
            assert np.array_equal(out, want)

    @pytest.mark.parametrize(
        "dtype, index_dtype",
        [(np.float64, np.int32), (np.float32, np.int32), (np.float64, np.int64)],
        ids=["float64", "float32", "int64-indices"],
    )
    @pytest.mark.parametrize("lo, hi", [(5, 40), (100, 230), (17, 17)], ids=["inner", "to-last-row", "empty"])
    def test_row_window_equals_sliced_products(self, dtype, index_dtype, lo, hi):
        # rows lo:hi are (indptr[lo:hi + 1], indices, data): no rebased indptr, no sliced indices or data
        M = build_projector(Geometry(16, 23, 10, 40.0)).matrix.astype(dtype)  # 230 rows
        M.indices, M.indptr = M.indices.astype(index_dtype), M.indptr.astype(index_dtype)
        rows, arrays = M[lo:hi], (M.indptr[lo : hi + 1], M.indices, M.data)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(M.shape[1]), rng.standard_normal(hi - lo)
        for v, want, transpose in ((x, rows @ x, False), (y, rows.T @ y, True)):
            out = np.full(want.size, 1e300, want.dtype)
            assert spmv(arrays, v, out, transpose=transpose) is out
            assert np.array_equal(out, want)

    @pytest.mark.parametrize(
        "dtype, index_dtype",
        [(np.float64, np.int32), (np.float32, np.int32), (np.float64, np.int64)],
        ids=["float64", "float32", "int64-indices"],
    )
    @pytest.mark.parametrize("k", [1, 2], ids=["level", "stacked-level"])
    def test_add_into_level_window_equals_sum(self, dtype, index_dtype, k):
        # ART's gather in level order, each level's rows once per column, column i's on pixels i*n:(i+1)*n:
        # a level window's rows have disjoint supports, so each pixel gets at most one term
        A = build_projector(Geometry(16, 23, 10, 40.0))
        rows, ends = A.art_schedule
        G = sp.vstack([sp.block_diag([A.matrix[rows[lo:hi]]] * k) for lo, hi in zip(ends, ends[1:])], "csr")
        G = G.astype(dtype)
        G.indices, G.indptr = G.indices.astype(index_dtype), G.indptr.astype(index_dtype)
        lo, hi = k * ends[3], k * ends[4]
        assert hi > lo and G.shape[1] == k * A.cols
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal(G.shape[1]), rng.standard_normal(hi - lo)
        want = x + G[lo:hi].T @ y
        out = x.copy()
        assert spmv((G.indptr[lo : hi + 1], G.indices, G.data), y, out, transpose=True, add=True) is out
        assert np.array_equal(out, want)
