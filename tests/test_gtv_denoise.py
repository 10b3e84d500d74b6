import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gtvtomo.gtv_denoise as gtv_denoise
from gtvtomo import (
    DenoiseConfig,
    NoiseSpec,
    PatchConfig,
    Sinogram,
    add_noise,
    build_graph,
    denoise,
    extract_patches,
    forward_project,
    gamma_sweep,
    graph_from_edges,
    objective,
    spectral_norm,
)
from gtvtomo.pipeline import default_gamma_grid

from test_patch_graph import knn_inputs

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
        assert (trace.stop, trace.gap) == ("zero", 0.0)

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
        # constant per connected component, or every edge of weight 0: the
        # gradient vanishes, so the solver stops immediately and returns the
        # input unchanged
        cases = [
            (graph_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]), np.array([1.0, 1.0, -4.0, -4.0])),
            (graph_from_edges(3, [(0, 1, 0.0), (1, 2, 0.0)]), np.array([1.0, -2.0, 3.0])),
        ]
        for g, b in cases:
            z, trace = denoise(b, g, DenoiseConfig(5.0))
            assert np.array_equal(z, b)
            assert trace.iterations_run == 1

    def test_huge_gamma_stays_finite(self):
        # objectives past 1e154 must not overflow the stop rule's squared change
        z, trace = denoise(np.array([0.0, 3.0]), two_node(), DenoiseConfig(1e160))
        assert trace.objective[0] > 1e160
        np.testing.assert_allclose(z, [1.5, 1.5])

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
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="gamma"):
                DenoiseConfig(bad)
            with pytest.raises(ValueError, match="epsilon"):
                DenoiseConfig(1.0, epsilon=bad)

    def test_graph_too_weak_for_a_finite_step_is_rejected(self):
        # subnormal weights: tau^2 ~ 3e-323, so the step 1/tau^2 overflows and u would turn to nan
        g = graph_from_edges(3, [(0, 1, 5e-324), (1, 2, 5e-324)])
        with pytest.raises(ValueError, match="finite dual step"):
            denoise(np.array([0.0, 0.0, 1.0]), g, DenoiseConfig(1.0))
        with pytest.raises(ValueError, match="finite dual step"):
            gamma_sweep(np.zeros(3), g, [0.0, 1.0], lambda z: 0.0)


class TestStopRule:
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        knn_inputs(),
        st.integers(0, 2**32 - 1),
        st.floats(1e-3, 10.0),
        st.floats(-14.0, -1.0).map(lambda e: 10.0**e),
        st.integers(1, 40),
    )
    def test_trace_obeys_the_stop_rule(self, data, seed, gamma, epsilon, max_iters):
        """Stop at the first iteration with F = 0 or (F - F_prev)^2 / F_prev^2 < epsilon, else at max_iters."""
        points, k = data
        g = build_graph(points, PatchConfig(1, k))
        b = np.random.default_rng(seed).standard_normal(g.node_count)
        z, trace = denoise(b, g, DenoiseConfig(gamma, epsilon, max_iters))
        f = trace.objective

        def stop(t):
            if f[t] == 0.0:
                return "zero"
            if t > 0 and (f[t] - f[t - 1]) ** 2 / f[t - 1] ** 2 < epsilon:
                return "rel_change"
            return None

        assert 1 <= len(f) <= max_iters
        assert not any(stop(t) for t in range(len(f) - 1))
        assert trace.stop == (stop(len(f) - 1) or "max_iters")
        if trace.stop == "max_iters":
            assert len(f) == max_iters
        assert objective(b, z, g, gamma) == pytest.approx(f[-1], rel=1e-12)


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
        noisy = Sinogram(10, 12, (grid + 0.3 * rng.standard_normal((10, 12))).ravel())
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


@pytest.fixture(scope="module")
def shepp005(projector64, shepp64):
    # table1's Shepp-Logan 0.05 row at seed 1, which draws its noise with seed 2
    noisy = add_noise(forward_project(projector64, shepp64), NoiseSpec(0.05, 2))
    cfg = PatchConfig(3, 10)
    return noisy.values, build_graph(extract_patches(noisy, cfg), cfg)


def public_denoise(b, g, cfg):
    """The dual projected-gradient loop written with the public ``D @ x``, ``D.T @ u`` and ``np.clip``."""
    tau = spectral_norm(g)
    step, bound, D = 1.0 / (tau * tau), cfg.gamma / 2.0, g.incidence
    u = np.zeros(g.edge_count)
    values, f_prev = [], None
    for _ in range(cfg.max_iters):
        x = b - D.T @ u
        grad_x = D @ x
        u = np.clip(u + step * grad_x, -bound, bound)
        resid = b - x
        f = float(resid @ resid) + cfg.gamma * float(np.abs(grad_x).sum())
        values.append(f)
        if f == 0.0:
            return x, values, "zero"
        if f_prev is not None and ((f - f_prev) / f_prev) ** 2 < cfg.epsilon:
            return x, values, "rel_change"
        f_prev = f
    return x, values, "max_iters"


class TestCompiledDualStep:
    """``denoise`` equals, bit for bit, its loop written with the public sparse products.

    The solver calls scipy's private ``_sparsetools`` kernels into reused
    buffers; this pins them to the meaning of ``D @ x``, ``D.T @ u`` and ``np.clip``.
    """

    @staticmethod
    def assert_same(b, g, cfg):
        z, trace = denoise(b, g, cfg)
        want, values, stop = public_denoise(b, g, cfg)
        assert z.tobytes() == want.tobytes()
        assert trace.objective == values
        assert trace.stop == stop
        return trace

    @pytest.mark.parametrize("gamma", [1e-3, 0.38, 20.0])
    def test_desk_scale_graph(self, shepp005, gamma):
        b, g = shepp005
        assert self.assert_same(b, g, DenoiseConfig(gamma=gamma)).iterations_run > 1

    def test_zero_weight_edge_and_isolated_node(self):
        g = graph_from_edges(6, [(0, 1, 1.0), (1, 2, 0.0), (2, 3, 2.5), (0, 3, 0.7), (3, 4, 0.2)])
        assert g.degree[5] == 0.0 and (g.weights == 0).any()
        b = np.random.default_rng(4).standard_normal(6)
        self.assert_same(b, g, DenoiseConfig(gamma=0.8, epsilon=1e-12))

    def test_int64_index_arrays(self, shepp005):
        b, g = shepp005
        g = copy.copy(g)  # the fixture's graph keeps its int32 arrays
        g.incidence = D = g.incidence.copy()
        D.indices, D.indptr = D.indices.astype(np.int64), D.indptr.astype(np.int64)
        assert g.incidence.indices.dtype == g.incidence.indptr.dtype == np.int64
        self.assert_same(b, g, DenoiseConfig(gamma=0.38))

    def test_capped_by_max_iters(self, shepp005):
        b, g = shepp005
        trace = self.assert_same(b, g, DenoiseConfig(gamma=20.0, max_iters=40))
        assert trace.iterations_run == 40 and trace.stop == "max_iters"


class TestSharedPath:
    """A sweep's weights share the unclipped dual steps from u = 0, and each is bit for bit its own solve."""

    @staticmethod
    def sweep(monkeypatch, b, g, gammas, cfg):
        """Run ``gamma_sweep``; return its result, every ``denoise`` call as (cfg, z, trace), the paths it
        built and the number of dual steps (two ``spmv`` calls each)."""
        calls, paths, products = [], [], []
        real_denoise, real_spmv, real_path = gtv_denoise.denoise, gtv_denoise.spmv, gtv_denoise._SharedPath

        def recording_denoise(b, g, cfg, **kwargs):
            z, trace = real_denoise(b, g, cfg, **kwargs)
            calls.append((cfg, z.copy(), trace))
            return z, trace

        class RecordedPath(real_path):
            def __init__(self, *args):
                super().__init__(*args)
                paths.append(self)

        monkeypatch.setattr(gtv_denoise, "denoise", recording_denoise)
        monkeypatch.setattr(gtv_denoise, "spmv", lambda *a, **k: products.append(1) or real_spmv(*a, **k))
        monkeypatch.setattr(gtv_denoise, "_SharedPath", RecordedPath)
        result = gtv_denoise.gamma_sweep(b, g, gammas, lambda z: float(np.abs(z).sum()), cfg)
        monkeypatch.undo()
        assert len(products) % 2 == 0
        return result, calls, paths, len(products) // 2

    @staticmethod
    def assert_cold(b, g, calls):
        """Each call equals a cold ``denoise`` and, above gamma 0, the loop on the public products."""
        for cfg, z, trace in calls:
            cold_z, cold = denoise(b, g, cfg)
            assert (z.tobytes(), trace.objective, trace.stop, trace.gap) == (
                cold_z.tobytes(), cold.objective, cold.stop, cold.gap)
            if cfg.gamma > 0 and np.any(g.weights > 0):
                want, values, stop = public_denoise(b, g, cfg)
                assert (z.tobytes(), trace.objective, trace.stop) == (want.tobytes(), values, stop)

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_every_weight_equals_its_cold_solve(self, monkeypatch, shepp005, order):
        b, g = shepp005
        grid = default_gamma_grid()
        gammas = {"ascending": grid, "descending": grid[::-1]}.get(order)
        if gammas is None:
            gammas = [grid[i] for i in np.random.default_rng(3).permutation(len(grid))]
        assert 0.0 in gammas
        (best_gamma, best_z, scores), calls, paths, steps = self.sweep(monkeypatch, b, g, gammas, None)
        assert [cfg.gamma for cfg, _, _ in calls] == sorted(gammas)  # ascending, one call per weight
        self.assert_cold(b, g, calls)
        score = {cfg.gamma: float(np.abs(z).sum()) for cfg, z, _ in calls}
        assert scores == [score[gm] for gm in gammas]
        assert best_gamma == min(gammas, key=lambda gm: (score[gm], gm))
        assert best_z.tobytes() == next(z for cfg, z, _ in calls if cfg.gamma == best_gamma).tobytes()
        assert len(paths) == 1 and steps < sum(trace.iterations_run for _, _, trace in calls)

    def test_weights_end_on_the_path_at_max_iters(self, monkeypatch, shepp005):
        b, g = shepp005
        gammas = [20.0, 0.0, 0.5, 2.7595, 0.001, 12.0]
        _, calls, (path,), steps = self.sweep(monkeypatch, b, g, gammas, DenoiseConfig(0.0, max_iters=40))
        self.assert_cold(b, g, calls)
        on_path = [cfg.gamma for cfg, _, trace in calls 
                   if trace.iterations_run == 40 and max(path.peak) <= cfg.gamma / 2]
        assert on_path == [2.7595, 12.0, 20.0]  # never clipped: all 40 steps were the path's
        assert len(path.sq) == 40 and steps < sum(trace.iterations_run for _, _, trace in calls)

    def test_graph_without_positive_weight(self, monkeypatch):
        g = graph_from_edges(3, [(0, 1, 0.0), (1, 2, 0.0)])
        b = np.array([1.0, -2.0, 3.0])
        (best_gamma, best_z, scores), calls, paths, steps = self.sweep(monkeypatch, b, g, [5.0, 0.0, 1.0], None)
        assert steps == 0 and paths == []  # no weight takes a step, so no path is built
        assert all(z.tobytes() == b.tobytes() and trace.objective == [0.0] for _, z, trace in calls)
        assert (best_gamma, scores) == (0.0, [6.0] * 3) and np.array_equal(best_z, b)
        self.assert_cold(b, g, calls)

    def test_weight_leaving_before_the_path_falls_back(self, shepp005):
        # gamma_sweep walks ascending, where a larger weight's box clips no earlier; called out of
        # order, a small weight would leave at a step the path has passed and solves on its own path.
        b, g = shepp005
        path = gtv_denoise._SharedPath(b, g)
        for gamma in (20.0, 1e-3, 0.38):
            cfg = DenoiseConfig(gamma, max_iters=40)
            walked = len(path.sq)
            z, trace = denoise(b, g, cfg, shared=path)
            want, values, stop = public_denoise(b, g, cfg)
            assert (z.tobytes(), trace.objective, trace.stop) == (want.tobytes(), values, stop)
            if gamma != 20.0:
                left = next(t for t, peak in enumerate(path.peak) if peak > gamma / 2)
                assert walked == 40 and left < 39  # the path holds step 39's x and u, not step left's
        assert len(path.sq) == 40

    def test_ascending_weight_ending_before_the_path_restarts(self, monkeypatch):
        # In ascending order a larger weight leaves the path no earlier, but it can still stop on it
        # before the step where the previous weight left; it then restarts on a second path.
        g = graph_from_edges(5, [(1, 3, 0.2), (1, 4, 0.3), (0, 2, 1.9), (2, 3, 1.6), (0, 3, 1.5)])
        b = np.array([-1.1, -0.3, 0.0, 1.6, -0.2])
        cfg = DenoiseConfig(0.0, epsilon=1e-4, max_iters=200)
        _, calls, paths, _ = self.sweep(monkeypatch, b, g, [0.2, 0.7, 1.5, 2.3], cfg)
        assert len(paths) == 2 and len(paths[1].sq) < len(paths[0].sq)
        self.assert_cold(b, g, calls)


@st.composite
def small_problems(draw):
    """A ``graph_from_edges`` graph of 2-8 nodes with weights in [0, 2] and a signal on it."""
    n = draw(st.integers(2, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]),
                          min_size=1, max_size=2 * n, unique=True))
    weights = draw(st.lists(st.floats(0.0, 2.0), min_size=len(pairs), max_size=len(pairs)))
    b = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    return graph_from_edges(n, [(i, j, w) for (i, j), w in zip(pairs, weights)]), np.array(b)


class TestDualityGap:
    """``z = b - D^T u`` for a ``u`` in its box, so ``F(z) >= ||b||^2 - ||z||^2`` (weak duality)."""

    @staticmethod
    def assert_weak_duality(b, z, trace):
        f, dual = trace.objective[-1], float(b @ b) - float(z @ z)
        assert f - dual >= -1e-12 * (float(b @ b) + float(z @ z))
        assert trace.gap == ((f - dual) / f if f else 0.0)

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        small_problems(),
        st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=4),
        st.floats(-12.0, -2.0).map(lambda e: 10.0**e),
        st.integers(1, 60),
    )
    @example((graph_from_edges(6, [(1, 5, 5e-324)]), np.arange(6.0)), [0.5], 1e-6, 10)  # tau = 3.1e-162
    def test_cold_solves_and_every_sweep_weight(self, problem, gammas, epsilon, max_iters):
        g, b = problem
        if np.any(g.weights > 0) and 1.0 / (spectral_norm(g) * spectral_norm(g)) == np.inf:
            with pytest.raises(ValueError, match="finite dual step"):
                denoise(b, g, DenoiseConfig(gammas[0]))
            return
        cfg = DenoiseConfig(0.0, epsilon, max_iters)
        for gamma in gammas:
            z, trace = denoise(b, g, replace(cfg, gamma=gamma))
            self.assert_weak_duality(b, z, trace)
        with pytest.MonkeyPatch.context() as mp:
            _, calls, _, _ = TestSharedPath.sweep(mp, b, g, gammas, cfg)
        assert len(calls) == len(gammas)
        for _, z, trace in calls:
            self.assert_weak_duality(b, z, trace)
