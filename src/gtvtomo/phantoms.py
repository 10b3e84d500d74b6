"""Square grayscale test images for tomography experiments.

Five phantom families are provided: the modified Shepp-Logan head phantom, a
smooth sum of Gaussian bumps, a random binary blob image, a Voronoi "grains"
tessellation, and a four-level quantized random field.  Every phantom is
rescaled to [0, 1] after generation so noise levels mean the same thing
across families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PHANTOM_KINDS = ("shepp-logan", "smooth", "binary", "grains", "fourphases")

# Modified Shepp-Logan ellipse table: additive intensity, semi-axes a and b,
# center (x0, y0), rotation in degrees.  Coordinates live in [-1, 1]^2.
_SHEPP_LOGAN_ELLIPSES = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.1, 0.023, 0.023, 0.0, -0.606, 0.0),
    (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
)

# Fixed Gaussian bumps for the smooth phantom: amplitude, center (cx, cy) and
# axis widths (wx, wy) in unit coordinates [0, 1]^2.
SMOOTH_BUMPS = (
    (1.0, 0.62, 0.62, 0.30, 0.35),
    (0.8, 0.28, 0.34, 0.20, 0.25),
    (0.6, 0.34, 0.72, 0.16, 0.16),
    (0.9, 0.72, 0.28, 0.25, 0.20),
)


def flat_finite(values, size: int, owner: str, name: str) -> np.ndarray:
    """``values`` as a contiguous float64 vector of ``size`` finite entries, else ValueError.

    The package's one vector check, behind :class:`Image`, ``Sinogram``, ``denoise``, ``objective``,
    ``graph_gradient``, ``graph_divergence``, ``forward_project``, ``back_project``, ``art`` and ``sirt``.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size != size:
        raise ValueError(f"{name} must be a flat vector of length {size}, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{owner} {name} must be finite")
    return values


@dataclass(eq=False)
class Image:
    """n-by-n grayscale raster stored as a flat row-major float64 vector."""

    n: int
    pixels: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"image side must be a positive integer, got {self.n}")
        self.pixels = flat_finite(self.pixels, self.n * self.n, "image", "pixels")

    @property
    def grid(self) -> np.ndarray:
        """Row-major (n, n) view of the pixel vector."""
        return self.pixels.reshape(self.n, self.n)


def generate_phantom(kind: str, n: int, seed: int = 0) -> Image:
    """Generate one of the five test phantoms at side length ``n``.

    Parameters
    ----------
    kind : str
        One of ``shepp-logan``, ``smooth``, ``binary``, ``grains``,
        ``fourphases``.
    n : int
        Image side in pixels, an integer of at least 8.
    seed : int
        Seed for the random phantoms, an integer of at least 0.  ``shepp-logan`` and
        ``smooth`` are deterministic closed forms and ignore it.

    Returns
    -------
    Image
        Phantom with values rescaled to [0, 1].
    """
    if not isinstance(n, (int, np.integer)) or n < 8:
        raise ValueError(f"phantom side must be an integer >= 8, got {n}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed}")
    if kind == "shepp-logan":
        grid = _shepp_logan(n)
    elif kind == "smooth":
        grid = _bump_sum(n, SMOOTH_BUMPS)
    elif kind == "binary":
        grid = _binary(n, seed)
    elif kind == "grains":
        grid = _grains(n, seed)
    elif kind == "fourphases":
        grid = _fourphases(n, seed)
    else:
        raise ValueError(f"unknown phantom kind {kind!r}; expected one of {PHANTOM_KINDS}")
    lo, hi = grid.min(), grid.max()
    scaled = (grid - lo) / (hi - lo) if hi > lo else np.zeros_like(grid)
    return Image(n, scaled.ravel())


def _shepp_logan(n: int) -> np.ndarray:
    # Cell-center coordinates in [-1, 1]; row 0 sits at the top (y near +1).
    # Centers of 2x2 blocks at side 2n coincide with centers at side n, so
    # resolutions nest exactly.
    x = (2.0 * np.arange(n) + 1.0 - n) / n
    y = (n - 1.0 - 2.0 * np.arange(n)) / n
    X, Y = np.meshgrid(x, y)
    grid = np.zeros((n, n))
    for amp, a, b, x0, y0, deg in _SHEPP_LOGAN_ELLIPSES:
        phi = np.deg2rad(deg)
        c, s = np.cos(phi), np.sin(phi)
        dx = X - x0
        dy = Y - y0
        inside = ((dx * c + dy * s) / a) ** 2 + ((dy * c - dx * s) / b) ** 2 <= 1.0
        grid[inside] += amp
    # the table's intensities sum to exact short decimals per region; drop
    # the accumulated float dust so empty regions are exactly zero
    grid[np.abs(grid) < 1e-12] = 0.0
    return grid


def _bump_sum(n: int, bumps) -> np.ndarray:
    # Sum of Gaussian bumps (amp, cx, cy, wx, wy) evaluated at pixel centers
    # (u, v) in [0, 1]^2, u along columns and v along rows from the top.
    u = (np.arange(n) + 0.5) / n
    U, V = np.meshgrid(u, u)
    grid = np.zeros((n, n))
    for amp, cx, cy, wx, wy in bumps:
        grid += amp * np.exp(
            -((U - cx) ** 2) / (2.0 * wx**2) - ((V - cy) ** 2) / (2.0 * wy**2)
        )
    return grid


def _binary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    bumps = []
    for _ in range(6 + n // 16):
        cx, cy = rng.uniform(0.15, 0.85, size=2)
        wx, wy = rng.uniform(0.05, 0.25, size=2)
        amp = rng.uniform(0.5, 1.0)
        bumps.append((amp, cx, cy, wx, wy))
    grid = _bump_sum(n, bumps)
    return (grid > np.quantile(grid, 0.6)).astype(np.float64)


def _grains(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    cells = max(4, int(round(3.0 * np.sqrt(n))))
    centers = rng.random((cells, 2))
    values = rng.random(cells)
    u = (np.arange(n) + 0.5) / n
    U, V = np.meshgrid(u, u)
    # Nearest seed per pixel; ties cannot occur for continuous random centers.
    d2 = (U[..., None] - centers[:, 0]) ** 2 + (V[..., None] - centers[:, 1]) ** 2
    return values[np.argmin(d2, axis=-1)]


def _fourphases(n: int, seed: int) -> np.ndarray:
    from scipy import ndimage  # imported here, so the other kinds do not load it

    rng = np.random.default_rng(seed)
    field_ = ndimage.gaussian_filter(rng.standard_normal((n, n)), sigma=n / 16.0)
    cuts = np.quantile(field_, [0.25, 0.5, 0.75])
    return np.searchsorted(cuts, field_).astype(np.float64) / 3.0
