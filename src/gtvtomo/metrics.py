"""Error measures, per-iteration error curves and intensity profiles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(eq=False)
class ErrorCurve:
    """l2 reconstruction error per iteration for one method."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError(f"curve values must be 1-D, got shape {self.values.shape}")
        if self.values.size and (
            not np.all(np.isfinite(self.values)) or np.any(self.values < 0)
        ):
            raise ValueError("curve values must be finite and nonnegative")


def l2_error(x, x_true) -> float:
    """Unnormalized Euclidean norm of the pixel difference, also past the 1e154 where its square overflows."""
    a = x.pixels if hasattr(x, "pixels") else np.asarray(x, dtype=np.float64)
    b = x_true.pixels if hasattr(x_true, "pixels") else np.asarray(x_true, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):
        d = a - b
        err = float(np.linalg.norm(d))
    # Rescaled only when the plain norm overflows, so a finite one keeps every bit.
    if err == np.inf and np.isfinite(peak := float(np.abs(d).max())):
        err = peak * float(np.linalg.norm(d / peak))
    return err


def profile(x) -> np.ndarray:
    """A copy of the image's center row ``n // 2``, for line plots across reconstructions."""
    return x.grid[x.n // 2].copy()


def min_error(curve: ErrorCurve) -> tuple[int, float]:
    """(iteration, value) of the curve minimum; ties go to the earliest."""
    if curve.values.size == 0:
        raise ValueError("empty error curve")
    idx = int(np.argmin(curve.values))
    return idx, float(curve.values[idx])
