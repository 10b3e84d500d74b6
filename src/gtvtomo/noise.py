"""Seeded Gaussian sinogram noise with an exact relative level.

The noise vector is rescaled so that ``||noisy - clean|| / ||clean||``
equals the requested level exactly (up to floating point), which makes the
level directly comparable across phantoms and geometries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gtvtomo.metrics import l2_norm
from gtvtomo.phantoms import is_int
from gtvtomo.projector import Sinogram


@dataclass(frozen=True)
class NoiseSpec:
    relative_level: float
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.relative_level) or self.relative_level < 0:
            raise ValueError(f"relative noise level must be finite and >= 0, got {self.relative_level}")
        if not is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def add_noise(s: Sinogram, spec: NoiseSpec) -> Sinogram:
    """Return ``s`` plus zero-mean Gaussian noise at the given relative level."""
    if spec.relative_level == 0.0:
        return Sinogram(s.p, s.q, s.values.copy())
    g = np.random.default_rng(spec.seed).standard_normal(s.values.size)
    e = spec.relative_level * (l2_norm(s.values) / l2_norm(g)) * g
    return Sinogram(s.p, s.q, s.values + e)
