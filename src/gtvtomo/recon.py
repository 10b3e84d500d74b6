"""Image reconstruction: filtered backprojection, Kaczmarz ART, Cimmino SIRT.

All three consume the sparse :class:`~gtvtomo.projector.ProjectionOperator`
and the vectorized sinogram.  The iterative solvers accept an optional
tracker callback receiving the current iterate (called once per ART sweep /
SIRT iteration); its return values are collected into an
:class:`~gtvtomo.metrics.ErrorCurve` so that ground truth never enters the
solver itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gtvtomo.metrics import ErrorCurve
from gtvtomo.phantoms import Image
from gtvtomo.projector import Geometry, ProjectionOperator, Sinogram

FBP_FILTERS = ("ram-lak", "shepp-logan", "cosine")
FBP_INTERPOLATIONS = ("linear", "nearest")

_DIVERGENCE_LIMIT = 1e12


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
    """Cimmino parameters; all rows are weighted equally."""

    lam: float = 1.0
    iterations: int = 200

    def __post_init__(self):
        if not 0.0 < self.lam < np.inf:
            raise ValueError(f"SIRT relaxation lam must be positive and finite, got {self.lam}")
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


def _next_pow2(x: int) -> int:
    return 1 << (max(1, x - 1)).bit_length()


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

    npad = _next_pow2(2 * p)
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
    have disjoint pixel supports, and each level's block ``B`` of rows is
    applied in one step, ``x += B^T (lam * (b_B - B x) / ||a_i||^2)``.  Rows
    of one level commute, so a sweep equals the row-by-row sweep in that
    order up to floating-point summation order.
    The tracker, if given, is called with a copy of the iterate after every
    sweep; non-None returns are collected into the error curve.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.size != A.rows:
        raise ValueError(f"data has {b.size} entries but operator has {A.rows} rows")
    x = np.zeros(A.cols)
    rows, bounds = A.art_schedule
    # The row blocks are gathered per call rather than cached on the operator:
    # a cached copy of the matrix raised the peak RSS of repeated experiments.
    levels = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        level = rows[lo:hi]
        block = A.matrix[level]
        levels.append((block, block.T, b[level], A.row_norms_sq[level]))
    tracked = []
    for _ in range(cfg.sweeps):
        for block, block_t, b_level, norms_level in levels:
            x += block_t @ (cfg.lam * (b_level - block @ x) / norms_level)
        if tracker is not None:
            val = tracker(x.copy())
            if val is not None:
                tracked.append(float(val))
    return Image(A.geometry.n, x), ErrorCurve(np.asarray(tracked, dtype=np.float64))


def sirt(
    A: ProjectionOperator,
    b: np.ndarray,
    cfg: SirtConfig,
    *,
    tracker=None,
) -> tuple[Image, ErrorCurve]:
    """Cimmino: average the relaxed projections onto all row hyperplanes.

    ``x <- x + lam/m * A^T diag(1/||a_i||^2) (b - A x)`` with m the number of
    nonzero rows; zero rows are excluded.  Raises :class:`DivergenceError`
    if the iterate norm passes 1e12.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.size != A.rows:
        raise ValueError(f"data has {b.size} entries but operator has {A.rows} rows")
    x = np.zeros(A.cols)
    M = A.matrix
    MT = A.transpose_matrix
    norms_sq = A.row_norms_sq
    mask = norms_sq > 0
    m = int(mask.sum())
    if m == 0:
        raise ValueError("operator has no nonzero rows")
    inv = np.zeros_like(norms_sq)
    inv[mask] = 1.0 / norms_sq[mask]
    tracked = []
    for _ in range(cfg.iterations):
        resid = b - M @ x
        x = x + (cfg.lam / m) * (MT @ (resid * inv))
        if np.linalg.norm(x) > _DIVERGENCE_LIMIT:
            raise DivergenceError("SIRT iterate norm exceeded 1e12; reduce the relaxation")
        if tracker is not None:
            val = tracker(x.copy())
            if val is not None:
                tracked.append(float(val))
    return Image(A.geometry.n, x), ErrorCurve(np.asarray(tracked, dtype=np.float64))
