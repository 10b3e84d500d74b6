import numpy as np
import pytest

from gtvtomo import (
    DenoiseConfig,
    PatchConfig,
    Sinogram,
    build_graph,
    denoise,
    extract_patches,
    gamma_sweep,
    graph_from_edges,
    objective,
)

TIGHT = dict(epsilon=1e-14, max_iters=5000)


def two_node():
    return graph_from_edges(2, [(0, 1, 1.0)])


def grid_search_min(fn, lo, hi, dims, pts=33, levels=6):
    """Multilevel exhaustive minimization of a vectorized objective.

    Each level evaluates a full pts^dims lattice over the current box, then
    shrinks the box around the best lattice point; valid for the convex
    objectives used here.
    """
    lo = np.full(dims, lo, dtype=float)
    hi = np.full(dims, hi, dtype=float)
    best_val, best_z = np.inf, None
    for _ in range(levels):
        axes = [np.linspace(lo[d], hi[d], pts) for d in range(dims)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dims)
        vals = fn(mesh)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val, best_z = float(vals[k]), mesh[k].copy()
        step = (hi - lo) / (pts - 1)
        lo = best_z - 1.5 * step
        hi = best_z + 1.5 * step
    return best_val, best_z


def vectorized_objective(g, b, gamma):
    def fn(candidates):
        data = ((candidates - b) ** 2).sum(axis=1)
        tv = np.zeros(len(candidates))
        for i, j, w in zip(g.edge_i, g.edge_j, g.weights):
            tv += np.sqrt(w) * np.abs(candidates[:, i] - candidates[:, j])
        return data + gamma * tv

    return fn


class TestDenoiseBasics:
    def test_gamma_zero_returns_input_bitwise(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal(2)
        z, trace = denoise(b, two_node(), DenoiseConfig(0.0))
        assert np.array_equal(z, b)
        assert trace.iterations_run == 1
        assert trace.converged

    @pytest.mark.parametrize(
        "t,gamma",
        [(3.0, 1.0), (2.0, 0.6), (0.5, 1.0), (0.1, 0.8)],
    )
    def test_two_node_analytic_solution(self, t, gamma):
        # minimizing z0^2 + (z1-t)^2 + gamma*|z1-z0| gives
        # (gamma/2, t-gamma/2) when t > gamma, else (t/2, t/2)
        b = np.array([0.0, t])
        z, _ = denoise(b, two_node(), DenoiseConfig(gamma, **TIGHT))
        expected = (gamma / 2, t - gamma / 2) if t > gamma else (t / 2, t / 2)
        np.testing.assert_allclose(z, expected, atol=1e-6)

    def test_constant_input_is_fixed_point(self):
        g = graph_from_edges(4, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0)])
        b = np.full(4, 2.5)
        for gamma in (0.0, 0.3, 10.0):
            z, trace = denoise(b, g, DenoiseConfig(gamma))
            assert np.array_equal(z, b)
            assert trace.iterations_run == 1

    def test_zero_gradient_inputs_are_fixed_points(self):
        # constant per connected component: the gradient vanishes, so the
        # solver stops immediately and returns the input unchanged
        g = graph_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        b = np.array([1.0, 1.0, -4.0, -4.0])
        z, trace = denoise(b, g, DenoiseConfig(5.0))
        assert np.array_equal(z, b)
        assert trace.iterations_run == 1

    def test_input_validation(self):
        g = two_node()
        with pytest.raises(ValueError):
            denoise(np.zeros(3), g, DenoiseConfig(1.0))
        with pytest.raises(ValueError):
            denoise(np.array([1.0, np.nan]), g, DenoiseConfig(1.0))
        with pytest.raises(ValueError):
            DenoiseConfig(-1.0)
        with pytest.raises(ValueError):
            DenoiseConfig(1.0, epsilon=0.0)


class TestObjective:
    def test_zero_for_identical_constant(self):
        g = two_node()
        b = np.full(2, 4.0)
        assert objective(b, b, g, 3.0) == 0.0

    def test_equals_tv_term_when_z_is_b(self):
        g = graph_from_edges(3, [(0, 1, 4.0), (1, 2, 1.0)])
        b = np.array([0.0, 1.0, 3.0])
        expected_tv = 2.0 * 1.0 + 1.0 * 2.0
        assert objective(b, b, g, 0.7) == pytest.approx(0.7 * expected_tv, rel=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(1)
        g = graph_from_edges(5, [(0, 1, 0.5), (0, 2, 1.5), (1, 3, 2.0), (2, 4, 0.1)])
        b = rng.standard_normal(5)
        z = rng.standard_normal(5)
        gamma = 0.9
        brute = float(((z - b) ** 2).sum())
        for i, j, w in zip(g.edge_i, g.edge_j, g.weights):
            brute += gamma * np.sqrt(w) * abs(z[i] - z[j])
        assert objective(b, z, g, gamma) == pytest.approx(brute, rel=1e-12)

    def test_dimension_mismatch(self):
        g = two_node()
        with pytest.raises(ValueError):
            objective(np.zeros(2), np.zeros(3), g, 1.0)


class TestSolverQuality:
    def test_micro_optimality_against_grid_search(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            nodes = 2 if trial % 2 == 0 else 3
            edges = [(0, 1, float(rng.uniform(0.2, 1.0)))]
            if nodes == 3:
                edges.append((1, 2, float(rng.uniform(0.2, 1.0))))
            g = graph_from_edges(nodes, edges)
            b = rng.uniform(0.0, 2.0, nodes)
            gamma = float(rng.uniform(0.1, 2.0))
            z, _ = denoise(b, g, DenoiseConfig(gamma, **TIGHT))
            got = objective(b, z, g, gamma)
            best, _ = grid_search_min(
                vectorized_objective(g, b, gamma), b.min() - 0.5, b.max() + 0.5, nodes
            )
            assert abs(got - best) <= 1e-3

    def test_objective_never_exceeds_input_objective(self):
        rng = np.random.default_rng(3)
        g = graph_from_edges(
            6, [(0, 1, 1.0), (1, 2, 0.7), (2, 3, 0.4), (3, 4, 1.0), (4, 5, 0.9), (0, 5, 0.2)]
        )
        for _ in range(5):
            b = rng.standard_normal(6) * 3
            gamma = float(rng.uniform(0.05, 5.0))
            z, _ = denoise(b, g, DenoiseConfig(gamma, **TIGHT))
            assert objective(b, z, g, gamma) <= objective(b, b, g, gamma) + 1e-9

    def test_objective_trace_monotone_after_transient(self):
        rng = np.random.default_rng(4)
        grid = np.repeat(np.linspace(0, 4, 10), 12).reshape(10, 12)
        noisy = Sinogram.from_grid(grid + 0.3 * rng.standard_normal((10, 12)))
        cfg = PatchConfig(3, 4)
        g = build_graph(extract_patches(noisy, cfg), cfg)
        _, trace = denoise(noisy.values, g, DenoiseConfig(1.0, epsilon=1e-12, max_iters=400))
        f = np.asarray(trace.objective)
        assert f.size > 6
        increments = np.diff(f)[4:]
        assert np.all(increments <= 1e-6 * f[0])

    def test_refining_own_output_in_flat_regime(self):
        # once the output has collapsed to a constant (huge gamma), running
        # the denoiser again must not move it
        rng = np.random.default_rng(5)
        g = graph_from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        b = rng.standard_normal(4)
        z, _ = denoise(b, g, DenoiseConfig(100.0, **TIGHT))
        assert np.ptp(z) < 1e-6  # flattened
        z2, _ = denoise(z, g, DenoiseConfig(100.0, **TIGHT))
        assert np.linalg.norm(z2 - z) <= 1e-4 * max(np.linalg.norm(z), 1e-12)


class TestGammaSweep:
    def test_single_zero_gamma(self):
        g = two_node()
        b = np.array([1.0, 2.0])
        best_gamma, best_z, scores = gamma_sweep(
            b, g, [0.0], lambda z: float(np.linalg.norm(z - b))
        )
        assert best_gamma == 0.0
        assert np.array_equal(best_z, b)
        assert scores == [0.0]

    def test_large_gamma_flattens_noise(self):
        rng = np.random.default_rng(6)
        edges = [(i, i + 1, 1.0) for i in range(19)]
        g = graph_from_edges(20, edges)
        b = 5.0 + 0.5 * rng.standard_normal(20)
        target = np.full(20, 5.0)
        evaluator = lambda z: float(np.linalg.norm(z - target))  # noqa: E731
        best_gamma, best_z, _ = gamma_sweep(
            b, g, [0.0, 50.0], evaluator, DenoiseConfig(0.0, **TIGHT)
        )
        assert best_gamma == 50.0
        assert best_z.var() < b.var() / 10

    def test_ties_break_to_smaller_gamma(self):
        g = two_node()
        b = np.array([0.0, 1.0])
        best_gamma, _, scores = gamma_sweep(b, g, [2.0, 0.5, 1.0], lambda z: 7.0)
        assert scores == [7.0, 7.0, 7.0]
        assert best_gamma == 0.5

    def test_empty_gammas_rejected(self):
        with pytest.raises(ValueError):
            gamma_sweep(np.zeros(2), two_node(), [], lambda z: 0.0)


class TestDeskScaleSweep:
    def test_reconstruction_scored_sweep_has_interior_optimum(
        self, geometry64, shepp64, sino64_noisy, graph64_noisy
    ):
        from gtvtomo import fbp
        from gtvtomo.pipeline import default_gamma_grid

        def evaluator(z):
            rec = fbp(Sinogram(95, 36, z), geometry64)
            return float(np.linalg.norm(rec.pixels - shepp64.pixels))

        grid = default_gamma_grid()
        best_gamma, _, scores = gamma_sweep(sino64_noisy.values, graph64_noisy, grid, evaluator)
        assert best_gamma not in (grid[0], grid[-1])
        assert min(scores) < scores[0]  # beats no denoising
