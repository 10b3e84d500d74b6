import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gtvtomo
from gtvtomo import NoiseSpec, Sinogram, add_noise
from gtvtomo.serialize import read_sinogram_raw, write_sinogram_raw

SRC = Path(gtvtomo.__file__).resolve().parents[1]


def random_sinogram(p, q, seed=0):
    rng = np.random.default_rng(seed)
    return Sinogram(p, q, rng.random(p * q) * 10.0)


class TestAddNoise:
    def test_zero_level_identity(self):
        s = random_sinogram(20, 10)
        out = add_noise(s, NoiseSpec(0.0, seed=3))
        assert np.array_equal(out.values, s.values)
        assert out.values is not s.values  # fresh array, input untouched

    @pytest.mark.parametrize("level", [0.05, 0.08, 0.5])
    def test_exact_relative_norm(self, level):
        s = random_sinogram(95, 36, seed=1)
        out = add_noise(s, NoiseSpec(level, seed=9))
        realized = np.linalg.norm(out.values - s.values) / np.linalg.norm(s.values)
        assert realized == pytest.approx(level, abs=1e-12)

    def test_deterministic_per_seed(self):
        s = random_sinogram(30, 12)
        a = add_noise(s, NoiseSpec(0.08, seed=4))
        b = add_noise(s, NoiseSpec(0.08, seed=4))
        c = add_noise(s, NoiseSpec(0.08, seed=5))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_noise_mean_near_zero(self):
        s = random_sinogram(100, 100, seed=2)
        out = add_noise(s, NoiseSpec(0.1, seed=7))
        e = out.values - s.values
        n = e.size
        assert abs(e.mean()) <= 3.0 * e.std() / np.sqrt(n)

    def test_zero_sinogram_unchanged(self):
        s = Sinogram(4, 4, np.zeros(16))
        out = add_noise(s, NoiseSpec(0.08, seed=1))
        assert np.all(out.values == 0.0)

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(float("nan"))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            NoiseSpec(0.1, seed=-1)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
            NoiseSpec(0.08, 1.5)

    def test_numpy_integer_seed_accepted(self):
        assert NoiseSpec(0.08, np.int64(3)).seed == 3


def realized_level(noisy, clean):
    """||noisy - clean|| / ||clean||, from math.hypot, which neither under- nor overflows."""
    return math.hypot(*(noisy.values - clean.values)) / math.hypot(*clean.values)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_exact_level_at_extreme_scales(sino64_clean, scale):
    # the plain norm of these values underflows to 0 or overflows to inf
    s = Sinogram(sino64_clean.p, sino64_clean.q, scale * sino64_clean.values)
    out = add_noise(s, NoiseSpec(0.08, seed=1))
    assert not np.array_equal(out.values, s.values)
    assert realized_level(out, s) == pytest.approx(0.08, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_noise_command_at_extreme_scales(tmp_path, sino64_clean, scale):
    clean, noisy = tmp_path / "clean.sino", tmp_path / "noisy.sino"
    s = Sinogram(sino64_clean.p, sino64_clean.q, scale * sino64_clean.values)
    write_sinogram_raw(s, clean)
    argv = [sys.executable, "-W", "error", "-m", "gtvtomo.cli", "noise", "--sino", str(clean), "--level", "0.08",
            "--seed", "1", "--out", str(noisy)]
    proc = subprocess.run(argv, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert realized_level(read_sinogram_raw(noisy), s) == pytest.approx(0.08, abs=1e-12)
