"""Image reconstruction: filtered backprojection, Kaczmarz ART, Cimmino SIRT.

All three consume the sparse :class:`~gtvtomo.projector.ProjectionOperator`
and the vectorized sinogram.  ART and SIRT share one block row-projection
step.  ART's relaxation scales each row projection and SIRT's is in units of
``1/rho``, the inverse spectral radius of its summed projections (see
:func:`sirt`), so both converge for relaxations in (0, 2).  A tracker
callback gets the iterate after each ART sweep / SIRT iteration, and its
returns form an :class:`~gtvtomo.metrics.ErrorCurve`, so ground truth never
enters the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gtvtomo.metrics import ErrorCurve
from gtvtomo.phantoms import Image
from gtvtomo.projector import Geometry, ProjectionOperator, Sinogram

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


def fbp(s: Sinogram, geometry: Geometry, cfg: FbpConfig = FbpConfig()) -> Image:
    """Filtered backprojection.

    Each angle's detector profile is ramp filtered in the frequency domain
    (zero-padded to the next power of two >= 2p to curb wraparound), then
    smeared back across the image with the selected interpolation and summed
    with weight pi / q.
    """
    if s.p != geometry.p or s.q != geometry.q:
        raise ValueError(
            f"sinogram is {s.p}x{s.q} but geometry expects {geometry.p}x{geometry.q}"
        )
    if geometry.p < 2:
        raise ValueError("filtered backprojection needs at least 2 rays per angle")
    n, p, q = geometry.n, geometry.p, geometry.q
    offsets = geometry.offsets
    dt = offsets[1] - offsets[0]

    npad = 1 << (2 * p - 1).bit_length()  # the next power of two >= 2p
    padded = np.zeros((npad, q))
    padded[:p] = s.grid
    freqs = np.fft.fftfreq(npad, d=dt)
    filt = np.abs(freqs)
    if cfg.filter_name == "shepp-logan":
        filt = filt * np.sinc(freqs * dt)
    elif cfg.filter_name == "cosine":
        filt = filt * np.cos(np.pi * freqs * dt)
    filtered = np.real(np.fft.ifft(np.fft.fft(padded, axis=0) * filt[:, None], axis=0))[:p]

    xs = np.arange(n) - (n - 1) / 2.0
    ys = (n - 1) / 2.0 - np.arange(n)
    X, Y = np.meshgrid(xs, ys)
    acc = np.zeros((n, n))
    for k, theta in enumerate(np.deg2rad(geometry.angles)):
        t = X * np.cos(theta) + Y * np.sin(theta)
        if cfg.interpolation == "linear":
            acc += np.interp(t, offsets, filtered[:, k], left=0.0, right=0.0)
        else:
            idx = np.rint((t - offsets[0]) / dt).astype(np.int64)
            inside = (idx >= 0) & (idx < p)
            vals = np.zeros_like(t)
            vals[inside] = filtered[idx[inside], k]
            acc += vals
    return Image(n, acc.ravel() * (np.pi / q))


def _block_iterate(A: ProjectionOperator, b, blocks, steps: int, tracker) -> tuple[Image, ErrorCurve]:
    """From ``x = 0``, ``steps`` times apply each ``(rows, c)`` block ``B`` in turn.

    One block is one step ``x += B^T (c * (b_B - B x) / ||a_i||^2)``.  Raises
    :class:`DivergenceError` if the iterate norm passes 1e12 after a step;
    non-None tracker returns on a copy of each step's iterate form the curve.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.size != A.rows:
        raise ValueError(f"data has {b.size} entries but operator has {A.rows} rows")
    # Blocks are gathered per call, not cached on the operator: a cached copy raised peak RSS.
    gathered = []
    for rows, c in blocks:
        B = A.matrix[rows]
        gathered.append((B, B.T, b[rows], c, A.row_norms_sq[rows]))
    x = np.zeros(A.cols)
    tracked = []
    for _ in range(steps):
        for B, B_t, b_B, c, norms_B in gathered:
            x += B_t @ (c * (b_B - B @ x) / norms_B)
        if np.linalg.norm(x) > 1e12:
            raise DivergenceError("iterate norm exceeded 1e12; reduce the relaxation")
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
    are visited angle-major, with the even rays of each angle before the odd
    ones.  That order is split into levels (see
    :attr:`~gtvtomo.projector.ProjectionOperator.art_schedule`) whose rows
    have disjoint pixel supports; each level is one block of the shared step
    with ``c = lam``.  Rows of one level commute, so a sweep equals the
    row-by-row sweep in that order up to floating-point summation order.
    """
    rows, bounds = A.art_schedule
    levels = [(rows[lo:hi], cfg.lam) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return _block_iterate(A, b, levels, cfg.sweeps, tracker)


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
    ``c = lam / rho``.  Raises :class:`DivergenceError` if the iterate norm
    passes 1e12.
    """
    active = np.flatnonzero(A.row_norms_sq > 0)
    if active.size == 0:
        raise ValueError("operator has no nonzero rows")
    return _block_iterate(A, b, [(active, cfg.lam / A.sirt_radius)], cfg.iterations, tracker)
