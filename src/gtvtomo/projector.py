"""Sparse parallel-beam projection operator built by exact ray tracing.

The image is an n-by-n grid of unit square cells centered at the origin.
A ray at angle ``theta`` (degrees) and detector offset ``t`` is the line
``{t * (cos, sin) + s * (-sin, cos)}``; its matrix entry for a cell is the
Euclidean length of the ray segment inside that cell (Siddon traversal).
Rays that miss the grid produce all-zero rows, which are kept so that row
indices always follow the ``ray * q + angle`` layout of the sinogram vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec
from scipy.sparse.linalg import LinearOperator, eigsh

from gtvtomo.phantoms import Image, flat_finite

_CROSSING_TOL = 1e-12


def spmv(arrays, x: np.ndarray, out: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Zero ``out``, write ``M @ x`` into it (``M.T @ x`` if ``transpose``) and return it.

    ``arrays`` are a CSR matrix ``M``'s ``(indptr, indices, data)``, which are
    also ``M.T``'s CSC arrays.  scipy's compiled ``csr_matvec``/``csc_matvec``,
    which ``@`` ends in, run here without its per-call dispatch; they take the
    product's shape as ``(out.size, x.size)`` and add into ``out``.  For ``out``
    of the dtype ``@`` returns, the result is bit for bit that of ``@``.
    """
    out.fill(0)
    (csc_matvec if transpose else csr_matvec)(out.size, x.size, *arrays, x, out)
    return out


def top_eigenvalue(op) -> float:
    """Top eigenvalue of a symmetric positive semidefinite ``op`` by ``eigsh`` (ARPACK Lanczos) from a seeded start."""
    v0 = np.random.default_rng(0x5EED).standard_normal(op.shape[0])
    return float(eigsh(op, k=1, v0=v0, return_eigenvectors=False)[0])


@dataclass(frozen=True)
class Geometry:
    """Immutable parallel-beam acquisition geometry; equal geometries hash equal.

    ``p`` rays per angle are spread evenly over ``detector_span`` (measured
    in pixel units, endpoints included, centered on the image), at ``q``
    equally spaced angles ``180 * k / q`` for k = 0..q-1.  The default span
    ``n * sqrt(2)`` covers the full image diagonal at every angle.
    """

    n: int
    p: int
    q: int
    detector_span: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"image side must be positive, got {self.n}")
        if self.p < 1 or self.q < 1:
            raise ValueError(f"need at least one ray and one angle, got p={self.p}, q={self.q}")
        span = float(self.n) * np.sqrt(2.0) if self.detector_span is None else self.detector_span
        object.__setattr__(self, "detector_span", float(span))
        if not self.n <= self.detector_span < np.inf:
            raise ValueError(
                f"detector_span {self.detector_span} must be finite and cover the image side {self.n}"
            )

    @property
    def angles(self) -> np.ndarray:
        """Acquisition angles in degrees, strictly increasing in [0, 180)."""
        return 180.0 * np.arange(self.q) / self.q

    @property
    def offsets(self) -> np.ndarray:
        """Detector offsets of the p rays; a single ray sits at offset 0."""
        if self.p == 1:
            return np.zeros(1)
        return (np.arange(self.p) - (self.p - 1) / 2.0) * (self.detector_span / (self.p - 1))


@dataclass(eq=False)
class Sinogram:
    """p-by-q projection array; column k holds the projections at angle k.

    ``values`` is the row-major raveling of that array, so entry ``r * q + k``
    is ray r at angle k, matching the projector's row layout.
    """

    p: int
    q: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError(f"invalid sinogram shape p={self.p}, q={self.q}")
        self.values = flat_finite(self.values, self.p * self.q, "sinogram", "values")

    @property
    def grid(self) -> np.ndarray:
        return self.values.reshape(self.p, self.q)


@dataclass(eq=False, frozen=True)
class ProjectionOperator:
    """Frozen CSR projection matrix and geometry; what ART and SIRT derive from them is cached on first use."""

    matrix: sp.csr_matrix = field(repr=False)
    geometry: Geometry

    def __post_init__(self):
        g = self.geometry
        if self.matrix.shape != (g.p * g.q, g.n * g.n):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match geometry "
                f"({g.p * g.q} rows, {g.n * g.n} columns)"
            )

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    @property
    def transpose_matrix(self) -> sp.csc_matrix:
        return self.matrix.T

    @cached_property
    def row_norms_sq(self) -> np.ndarray:
        return np.asarray(self.matrix.multiply(self.matrix).sum(axis=1)).ravel()

    @cached_property
    def active_rows(self) -> np.ndarray:
        """The rows that ART and SIRT use: those of nonzero norm, ascending."""
        return np.flatnonzero(self.row_norms_sq > 0)

    @cached_property
    def art_schedule(self) -> tuple[np.ndarray, list[int]]:
        """The active rows in Kaczmarz order grouped into levels, as ``(rows, ends)``.

        Level ``k`` is ``rows[ends[k]:ends[k + 1]]``; with no active row, ``ends`` is ``[0]``.
        The order is angle-major, even rays before odd.  A row's level is one
        more than the highest level of the earlier rows sharing a pixel with it,
        so each level has rows of disjoint pixel supports that commute, and the
        levels in turn apply the rows exactly as that order does.
        """
        active = self.active_rows
        ray, angle = active // self.geometry.q, active % self.geometry.q
        order = active[np.lexsort((ray, ray % 2, angle))]
        indptr, indices = self.matrix.indptr, self.matrix.indices
        last = np.zeros(self.cols, dtype=np.int64)  # highest level seen at each pixel
        levels = np.empty(order.size, dtype=np.int64)
        for pos, i in enumerate(order):
            cols = indices[indptr[i] : indptr[i + 1]]
            levels[pos] = last[cols].max() + 1
            last[cols] = levels[pos]
        ends = np.cumsum(np.bincount(levels, minlength=1)).tolist()  # levels start at 1: ends[0] is 0
        return order[np.argsort(levels, kind="stable")], ends

    @cached_property
    def sirt_radius(self) -> float:
        """Spectral radius of ``A^T diag(1/||a_i||^2) A`` over the nonzero rows: SIRT's step unit.

        It is :func:`top_eigenvalue` of that operator, the same float for every
        projector of one geometry; a one-pixel image has the exact value, the
        number of nonzero rows (0 if there are none).
        """
        active = self.active_rows
        if self.cols == 1 or active.size == 0:
            return float(active.size)
        B = self.matrix[active]
        B_t, inv_norms_sq = B.T, 1.0 / self.row_norms_sq[active]
        normal = LinearOperator(
            (self.cols, self.cols), matvec=lambda x: B_t @ (inv_norms_sq * (B @ x)), dtype=np.float64
        )
        return top_eigenvalue(normal)


def build_projector(geometry: Geometry) -> ProjectionOperator:
    """Trace the rays of each angle together and assemble the CSR matrix.

    For every ray of one angle, the parameters where it crosses the grid
    lines are sorted; each gap between consecutive crossings is one cell's
    segment, and its midpoint names the cell.  The outermost grid lines are
    the image border, so segments outside the image land in out-of-range
    cells and are dropped.  Row ``r * q + k`` corresponds to ray r at angle
    index k; column ``i * n + j`` to the pixel in image row i, column j.
    """
    n, p, q = geometry.n, geometry.p, geometry.q
    h = n / 2.0
    lines = np.arange(n + 1) - h
    theta = np.deg2rad(geometry.angles)
    t = geometry.offsets[:, None]
    ray_rows = np.arange(p, dtype=np.int64)[:, None] * q
    entries = []
    for k in range(q):
        # The ray at parameter u is the point (t*c - u*s, t*s + u*c).
        c, s = float(np.cos(theta[k])), float(np.sin(theta[k]))
        crossings = []
        if abs(s) > _CROSSING_TOL:
            crossings.append((t * c - lines) / s)
        if abs(c) > _CROSSING_TOL:
            crossings.append((lines - t * s) / c)
        ends = np.sort(np.concatenate(crossings, axis=1), axis=1)
        lengths = np.diff(ends, axis=1)
        mid = 0.5 * (ends[:, :-1] + ends[:, 1:])
        # The grouping of these sums is part of the matrix bytes; keep it.
        # Cells are masked in float and only the kept ones cast: a far-off ray's cell overflows int64.
        cols = np.floor((t * c - mid * s) + h)
        rows = np.floor(h - (t * s + mid * c))
        keep = (lengths > _CROSSING_TOL) & (cols >= 0) & (cols < n) & (rows >= 0) & (rows < n)
        cells = (rows[keep] * n + cols[keep]).astype(np.int64)
        entries.append((np.broadcast_to(ray_rows + k, keep.shape)[keep], cells, lengths[keep]))
    row_idx, col_idx, data = (np.concatenate(parts) for parts in zip(*entries))
    matrix = sp.coo_matrix((data, (row_idx, col_idx)), shape=(p * q, n * n)).tocsr()
    return ProjectionOperator(matrix, geometry)


def forward_project(A: ProjectionOperator, x) -> Sinogram:
    """Apply the operator to an image: b = A x."""
    pixels = flat_finite(getattr(x, "pixels", x), A.cols, "forward projection", "image pixels")
    return Sinogram(A.geometry.p, A.geometry.q, A.matrix @ pixels)


def back_project(A: ProjectionOperator, s) -> Image:
    """Apply the transpose: x = A^T b (unfiltered backprojection)."""
    values = flat_finite(getattr(s, "values", s), A.rows, "backprojection", "sinogram values")
    return Image(A.geometry.n, A.transpose_matrix @ values)
