"""Image reconstruction: filtered backprojection, Kaczmarz ART, Cimmino SIRT.

FBP applies two linear operators, a ramp-filter matrix and a CSR
backprojector, built once per geometry and setting and cached.  ART and
SIRT consume the sparse :class:`~gtvtomo.projector.ProjectionOperator` and
share one block row-projection step on :func:`~gtvtomo.projector.spmv`.
ART's relaxation scales each row projection and SIRT's is in units of
``1/rho``, the inverse spectral radius of its summed projections (see
:func:`sirt`), so both converge for relaxations in (0, 2).  A tracker callback
gets the iterate after each ART sweep / SIRT iteration, and its returns form
an :class:`~gtvtomo.metrics.ErrorCurve`, so ground truth never enters the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from gtvtomo.metrics import ErrorCurve
from gtvtomo.phantoms import Image, flat_finite
from gtvtomo.projector import Geometry, ProjectionOperator, Sinogram, spmv

FBP_FILTERS = ("ram-lak", "shepp-logan", "cosine")
FBP_INTERPOLATIONS = ("linear", "nearest")


class DivergenceError(RuntimeError):
    """Raised when an iterative solver blows up (step size too large)."""


@dataclass(frozen=True)
class ArtConfig:
    """Kaczmarz sweep parameters; relaxation must lie in (0, 2)."""

    lam: float = 0.25
    sweeps: int = 100

    def __post_init__(self):
        if not 0.0 < self.lam < 2.0:
            raise ValueError(f"ART relaxation must be in (0, 2), got {self.lam}")
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")


@dataclass(frozen=True)
class SirtConfig:
    """Cimmino parameters; all rows are weighted equally.

    ``lam`` is in units of ``1/rho`` (see :func:`sirt`) and must lie in (0, 2),
    where the iteration converges.
    """

    lam: float = 1.0
    iterations: int = 50

    def __post_init__(self):
        if not 0.0 < self.lam < 2.0:
            raise ValueError(f"SIRT relaxation lam must be in (0, 2), got {self.lam}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


@dataclass(frozen=True)
class FbpConfig:
    filter_name: str = "ram-lak"
    interpolation: str = "linear"

    def __post_init__(self):
        if self.filter_name not in FBP_FILTERS:
            raise ValueError(f"filter must be one of {FBP_FILTERS}")
        if self.interpolation not in FBP_INTERPOLATIONS:
            raise ValueError(f"interpolation must be one of {FBP_INTERPOLATIONS}")


@lru_cache(maxsize=1)  # one (geometry, setting) per run; more slots keep stale W alive
def _fbp_operators(g: Geometry, cfg: FbpConfig):
    """FBP's ramp filter ``H`` (p x p) and CSR backprojector ``W`` (n^2 x pq), cached per geometry.

    A row of ``W`` holds, per angle, a pixel's weights on bins ``j, j+1``
    (``linear``) or on one bin (``nearest``), 0 for a sample off the detector.
    """
    n, p, q = g.n, g.p, g.q
    offsets = g.offsets
    dt = offsets[1] - offsets[0]
    npad = 1 << (2 * p - 1).bit_length()  # the next power of two >= 2p
    freqs = np.fft.fftfreq(npad, d=dt)
    filt = np.abs(freqs)
    if cfg.filter_name == "shepp-logan":
        filt = filt * np.sinc(freqs * dt)
    elif cfg.filter_name == "cosine":
        filt = filt * np.cos(np.pi * freqs * dt)
    H = np.real(np.fft.ifft(np.fft.fft(np.eye(p), n=npad, axis=0) * filt[:, None], axis=0))[:p]
    xs = np.arange(n) - (n - 1) / 2.0
    X, Y = (c.ravel() for c in np.meshgrid(xs, -xs))
    taps = 2 if cfg.interpolation == "linear" else 1
    cols, vals = np.empty((n * n, q, taps), dtype=np.int32), np.empty((n * n, q, taps))
    for k, theta in enumerate(np.deg2rad(g.angles)):
        t = X * np.cos(theta) + Y * np.sin(theta)
        f = (t - offsets[0]) / dt
        if taps == 2:
            j = np.clip(np.floor(f), 0, p - 2)
            inside = (t >= offsets[0]) & (t <= offsets[-1])
            weights = (inside * (1.0 - (f - j)), inside * (f - j))
        else:
            j = np.clip(np.rint(f), 0, p - 1)
            weights = (j == np.rint(f),)
        for tap, w in enumerate(weights):  # one 1-D write per tap: a 2-D strided write is 4x slower
            vals[:, k, tap], cols[:, k, tap] = w, (j + tap) * q + k
    indptr = np.arange(0, n * n * q * taps + 1, q * taps, dtype=np.int32)
    return H, sp.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(n * n, p * q))


def fbp(s: Sinogram, geometry: Geometry, cfg: FbpConfig = FbpConfig()) -> Image:
    """Filtered backprojection: ``W @ (H @ sinogram) * pi / q``.

    ``H`` ramp filters each angle's detector profile in the frequency domain
    (zero-padded to the next power of two >= 2p to curb wraparound), and
    ``W`` smears it back across the image with the selected interpolation.
    Both are built at the first call for a geometry and setting and cached.
    """
    if s.p != geometry.p or s.q != geometry.q:
        raise ValueError(f"sinogram is {s.p}x{s.q} but geometry expects {geometry.p}x{geometry.q}")
    if geometry.p < 2:
        raise ValueError("filtered backprojection needs at least 2 rays per angle")
    H, W = _fbp_operators(geometry, cfg)
    return Image(geometry.n, W @ (H @ s.grid).ravel() * (np.pi / geometry.q))


def _block_iterate(A: ProjectionOperator, b, rows, ends, c: float, steps: int, tracker) -> tuple[Image, ErrorCurve]:
    """From ``x = 0``, ``steps`` times apply each row block ``B`` in turn with relaxation ``c``.

    Block ``k`` is ``rows[ends[k]:ends[k + 1]]``, as in
    :attr:`~gtvtomo.projector.ProjectionOperator.art_schedule`, and its step is
    ``x += B^T (c * (b_B - B x) / ||a_i||^2)``, after ``b`` passes
    :func:`~gtvtomo.phantoms.flat_finite`, with :func:`~gtvtomo.projector.spmv`
    products.  Raises :class:`DivergenceError` if the largest iterate entry
    passes 1e12 times its value after the first step, a bound that scales with
    the data and is compared without overflow; non-None tracker returns on a
    copy of each step's iterate form the curve.
    """
    b = flat_finite(b, A.rows, "reconstruction", "data")
    # Not cached on the operator: a cached copy of the gather raised peak RSS.
    G, b_G, norms_G = A.matrix[rows], b[rows], A.row_norms_sq[rows]
    blocks = []
    for lo, hi in zip(ends, ends[1:]):
        nz = slice(G.indptr[lo], G.indptr[hi])
        blocks.append(((G.indptr[lo : hi + 1] - nz.start, G.indices[nz], G.data[nz]), b_G[lo:hi], norms_G[lo:hi]))
    x = np.zeros(A.cols)
    dtype = np.result_type(A.matrix.dtype, x.dtype)  # the dtype ``B @ x`` returns
    row_buf, col_buf = np.empty(len(rows), dtype), np.empty(A.cols, dtype)
    tracked = []
    for step in range(steps):
        for arrays, b_B, norms_B in blocks:
            r = spmv(arrays, x, row_buf[: b_B.size])
            np.subtract(b_B, r, out=r)
            r *= c
            r /= norms_B
            x += spmv(arrays, r, col_buf, transpose=True)
        size = np.abs(x).max()
        first = size if step == 0 else first
        if size / 1e12 > first:
            raise DivergenceError("iterate norm grew 1e12-fold after the first step; reduce the relaxation")
        val = tracker(x.copy()) if tracker is not None else None
        if val is not None:
            tracked.append(float(val))
    return Image(A.geometry.n, x), ErrorCurve(np.asarray(tracked, dtype=np.float64))


def art(
    A: ProjectionOperator,
    b: np.ndarray,
    cfg: ArtConfig,
    *,
    tracker=None,
) -> tuple[Image, ErrorCurve]:
    """Kaczmarz: sweep all rows, projecting onto one hyperplane at a time.

    Rows with zero norm (rays that miss the image) are skipped.  The others
    are visited in the order of
    :attr:`~gtvtomo.projector.ProjectionOperator.art_schedule`, whose levels of
    rows with disjoint pixel supports are the blocks of the shared step with
    ``c = lam``.  Rows of one level commute, so a sweep equals the row-by-row
    sweep in that order up to floating-point summation order.
    """
    return _block_iterate(A, b, *A.art_schedule, cfg.lam, cfg.sweeps, tracker)


def sirt(
    A: ProjectionOperator,
    b: np.ndarray,
    cfg: SirtConfig,
    *,
    tracker=None,
) -> tuple[Image, ErrorCurve]:
    """Cimmino: a relaxed step along the sum of the projections onto all row hyperplanes.

    ``x <- x + lam/rho * A^T diag(1/||a_i||^2) (b - A x)`` over the nonzero
    rows (zero rows are excluded), with ``rho`` the spectral radius of
    ``A^T diag(1/||a_i||^2) A`` (:attr:`~gtvtomo.projector.ProjectionOperator.sirt_radius`).
    ``lam`` is thus in units of ``1/rho``, and (0, 2) converges.  This is the
    shared projection step with one block of all nonzero rows and
    ``c = lam / rho``.  Raises :class:`DivergenceError` if the largest iterate
    entry passes 1e12 times its value after the first iteration.
    """
    rows = A.active_rows
    if rows.size == 0:
        raise ValueError("operator has no nonzero rows")
    return _block_iterate(A, b, rows, [0, rows.size], cfg.lam / A.sirt_radius, cfg.iterations, tracker)
