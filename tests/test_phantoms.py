import re

import numpy as np
import pytest
import scipy.sparse as sp

from gtvtomo import (
    PHANTOM_KINDS,
    DenoiseConfig,
    ErrorCurve,
    Geometry,
    Image,
    PatchConfig,
    PatchGraph,
    ProjectionOperator,
    Sinogram,
    back_project,
    build_graph,
    build_projector,
    denoise,
    forward_project,
    generate_phantom,
    graph_divergence,
    graph_from_edges,
    graph_gradient,
    objective,
)
from gtvtomo.phantoms import SMOOTH_BUMPS

from conftest import normalized_cross_correlation


class TestGeneratePhantom:
    @pytest.mark.parametrize("kind", PHANTOM_KINDS)
    def test_range_and_shape(self, kind):
        img = generate_phantom(kind, 32, seed=7)
        assert img.n == 32
        assert img.pixels.shape == (32 * 32,)
        assert np.all(np.isfinite(img.pixels))
        assert img.pixels.min() >= 0.0
        assert img.pixels.max() <= 1.0

    @pytest.mark.parametrize("kind", PHANTOM_KINDS)
    def test_deterministic(self, kind):
        a = generate_phantom(kind, 24, seed=3)
        b = generate_phantom(kind, 24, seed=3)
        assert np.array_equal(a.pixels, b.pixels)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_phantom("shepp-logan", 7)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            generate_phantom("donut", 64)

    @pytest.mark.parametrize("kind", PHANTOM_KINDS)
    def test_negative_seed_rejected(self, kind):
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
            generate_phantom(kind, 16, seed=-1)

    def test_seed_ignored_for_closed_forms(self):
        for kind in ("shepp-logan", "smooth"):
            a = generate_phantom(kind, 32, seed=0)
            b = generate_phantom(kind, 32, seed=99)
            assert np.array_equal(a.pixels, b.pixels)

    def test_seed_matters_for_random_kinds(self):
        for kind in ("binary", "grains", "fourphases"):
            a = generate_phantom(kind, 32, seed=0)
            b = generate_phantom(kind, 32, seed=1)
            assert not np.array_equal(a.pixels, b.pixels)


class TestSheppLogan:
    def test_center_inside_corners_outside(self, shepp64):
        grid = shepp64.grid
        assert grid[32, 32] > 0.0
        for corner in ((0, 0), (0, 63), (63, 0), (63, 63)):
            assert grid[corner] == 0.0

    def test_downsample_consistency(self):
        fine = generate_phantom("shepp-logan", 128).grid
        coarse = generate_phantom("shepp-logan", 64).grid
        block = fine.reshape(64, 2, 64, 2).mean(axis=(1, 3))
        assert normalized_cross_correlation(block, coarse) >= 0.95


class TestSmooth:
    def probe_oracle(self, n, i, j):
        """Scalar re-evaluation of the documented bump sum, then the same
        [0, 1] rescale computed from a brute-force pass over all pixels."""

        def raw(ii, jj):
            u = (jj + 0.5) / n
            v = (ii + 0.5) / n
            total = 0.0
            for amp, cx, cy, wx, wy in SMOOTH_BUMPS:
                total += amp * np.exp(
                    -((u - cx) ** 2) / (2 * wx * wx) - ((v - cy) ** 2) / (2 * wy * wy)
                )
            return total

        values = [raw(ii, jj) for ii in range(n) for jj in range(n)]
        lo, hi = min(values), max(values)
        return (raw(i, j) - lo) / (hi - lo)

    def test_probe_pixels_match_closed_form(self):
        img = generate_phantom("smooth", 64)
        for i, j in ((0, 0), (10, 50), (32, 32), (40, 18), (63, 63)):
            assert img.grid[i, j] == pytest.approx(self.probe_oracle(64, i, j), abs=1e-12)

    def test_interior_strictly_positive(self):
        img = generate_phantom("smooth", 64)
        assert img.grid[1:-1, 1:-1].min() > 0.0


class TestBinary:
    @staticmethod
    def oracle(n, seed):
        """The documented recipe: per blob draw cx, cy, then wx, wy, then amp;
        sum the Gaussian bumps at pixel centers; threshold at the 0.6 quantile."""
        rng = np.random.default_rng(seed)
        v, u = (np.mgrid[0:n, 0:n] + 0.5) / n
        total = np.zeros((n, n))
        for _ in range(6 + n // 16):
            cx, cy = rng.uniform(0.15, 0.85, size=2)
            wx, wy = rng.uniform(0.05, 0.25, size=2)
            amp = rng.uniform(0.5, 1.0)
            total += amp * np.exp(-((u - cx) ** 2) / (2 * wx * wx) - ((v - cy) ** 2) / (2 * wy * wy))
        return (total > np.quantile(total, 0.6)).astype(np.float64)

    @pytest.mark.parametrize("n, seed", [(8, 0), (17, 3), (64, 11), (100, 7)])
    def test_matches_documented_recipe(self, n, seed):
        np.testing.assert_array_equal(generate_phantom("binary", n, seed).grid, self.oracle(n, seed))


class TestValueSets:
    def test_binary_two_values(self):
        img = generate_phantom("binary", 64, seed=7)
        assert set(np.unique(img.pixels)) == {0.0, 1.0}

    def test_fourphases_four_values(self):
        img = generate_phantom("fourphases", 64, seed=5)
        levels = np.unique(img.pixels)
        assert levels.size == 4
        np.testing.assert_allclose(levels, [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-12)

    def test_grains_piecewise_constant(self):
        img = generate_phantom("grains", 64, seed=2)
        levels = np.unique(img.pixels)
        # one intensity per Voronoi cell, far fewer levels than pixels
        assert 2 <= levels.size <= 64


class TestImageType:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            Image(4, np.zeros(15))

    def test_finite_validation(self):
        bad = np.zeros(16)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            Image(4, bad)

    def test_grid_round_trip(self):
        rng = np.random.default_rng(0)
        grid = rng.random((6, 6))
        img = Image(6, grid.ravel())
        np.testing.assert_array_equal(img.grid, grid)


@pytest.mark.parametrize(
    "call, good, message",
    [
        (lambda v: generate_phantom("shepp-logan", v), 16, "phantom side must be an integer >= 8, got {}"),
        (lambda v: generate_phantom("smooth", 16, v), 3, "seed must be an integer >= 0, got {}"),
        (lambda v: generate_phantom("binary", 16, v), 3, "seed must be an integer >= 0, got {}"),
        (lambda v: Image(v, [0.0] * 16), 4, "image side must be a positive integer, got {}"),
    ],
    ids=["phantom-side", "closed-form-seed", "random-seed", "image-side"],
)
def test_integer_arguments_rejected_unless_integers(call, good, message):
    for bad in (float(good), good + 0.5, str(good)):
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(bad))}$"):
            call(bad)
    assert np.array_equal(call(np.int64(good)).pixels, call(good).pixels)


# Public entry points that take a flat vector: call on v, expected length, owner and name in the messages.
_GRAPH = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
_PROJECTOR = build_projector(Geometry(4, 6, 3))
VECTOR_INPUTS = {
    "denoise": (lambda v: denoise(v, _GRAPH, DenoiseConfig(1.0)), 3, "denoise", "input signal"),
    "objective-b": (lambda v: objective(v, np.zeros(3), _GRAPH, 1.0), 3, "objective", "input signal"),
    "objective-z": (lambda v: objective(np.zeros(3), v, _GRAPH, 1.0), 3, "objective", "candidate signal"),
    "graph_gradient": (lambda v: graph_gradient(_GRAPH, v), 3, "graph gradient", "node signal"),
    "graph_divergence": (lambda v: graph_divergence(_GRAPH, v), 2, "graph divergence", "edge signal"),
    "forward_project": (lambda v: forward_project(_PROJECTOR, v), 16, "forward projection", "image pixels"),
    "back_project": (lambda v: back_project(_PROJECTOR, v), 18, "backprojection", "sinogram values"),
}


@pytest.mark.parametrize("entry", VECTOR_INPUTS)
class TestOneVectorCheck:
    """Every public vector input goes through flat_finite and fails with its messages."""

    def test_nan_entry(self, entry):
        call, size, owner, name = VECTOR_INPUTS[entry]
        v = np.ones(size)
        v[size // 2] = np.nan
        with pytest.raises(ValueError, match=f"^{owner} {name} must be finite$"):
            call(v)

    def test_one_entry_short(self, entry):
        call, size, _, name = VECTOR_INPUTS[entry]
        message = rf"^{name} must be a flat vector of length {size}, got shape \({size - 1},\)$"
        with pytest.raises(ValueError, match=message):
            call(np.ones(size - 1))


# Constructor and builder checks on shape, order and range, each with its exact message.
SHAPE_CHECKS = {
    "edge-shapes": (lambda: PatchGraph(3, [0, 1], [1], [1.0, 1.0]), "edge arrays must have identical shapes"),
    "edge-order": (lambda: PatchGraph(3, [1], [0], [1.0]), "edges must be stored with i < j"),
    "edge-range": (lambda: PatchGraph(3, [0], [3], [1.0]), "edge endpoints out of range"),
    "patches-2d": (lambda: build_graph(np.zeros(5), PatchConfig(3, 1)), "patches must be a 2-D array, got shape (5,)"),
    "image-side": (lambda: Image(0, []), "image side must be a positive integer, got 0"),
    "sinogram-shape": (lambda: Sinogram(0, 3, []), "invalid sinogram shape p=0, q=3"),
    "operator-shape": (
        lambda: ProjectionOperator(sp.csr_matrix((5, 16)), Geometry(4, 6, 3)),
        "matrix shape (5, 16) does not match geometry (18 rows, 16 columns)",
    ),
    "curve-1d": (lambda: ErrorCurve(np.zeros((2, 2))), "values must be a flat vector of length 4, got shape (2, 2)"),
}


@pytest.mark.parametrize("case", SHAPE_CHECKS)
def test_shape_check_message(case):
    call, message = SHAPE_CHECKS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
