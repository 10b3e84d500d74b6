"""Error measures, per-iteration error curves and intensity profiles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gtvtomo.phantoms import flat_finite


@dataclass(eq=False)
class ErrorCurve:
    """l2 reconstruction error per iteration for one method."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = flat_finite(self.values, np.size(self.values), "curve", "values")
        if np.any(self.values < 0):
            raise ValueError("curve values must be nonnegative")


def l2_norm(v) -> float:
    """Euclidean norm of ``v`` at any finite scale.

    Bit for bit the plain ``np.linalg.norm``, unless that is 0, inf or below sqrt(tiny) = 2**-511 (about
    1.5e-154), where squares may under- or overflow; then ``v`` is first divided by its largest entry.
    """
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if not 2.0**-511 <= norm < np.inf and 0.0 < (peak := float(np.abs(v).max(initial=0.0))) < np.inf:
        norm = peak * float(np.linalg.norm(v / peak))
    return norm


def l2_error(x, x_true) -> float:
    """Unnormalized Euclidean norm of the pixel difference, by :func:`l2_norm`."""
    a = x.pixels if hasattr(x, "pixels") else np.asarray(x, dtype=np.float64)
    b = x_true.pixels if hasattr(x_true, "pixels") else np.asarray(x_true, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):
        return l2_norm(a - b)


def profile(x) -> np.ndarray:
    """A copy of the image's center row ``n // 2``, for line plots across reconstructions."""
    return x.grid[x.n // 2].copy()


def min_error(curve: ErrorCurve) -> tuple[int, float]:
    """(iteration, value) of the curve minimum; ties go to the earliest."""
    if curve.values.size == 0:
        raise ValueError("empty error curve")
    idx = int(np.argmin(curve.values))
    return idx, float(curve.values[idx])
