from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gtvtomo.patch_graph

from gtvtomo import (
    PatchConfig,
    PatchGraph,
    Sinogram,
    build_graph,
    extract_patches,
    graph_divergence,
    graph_from_edges,
    graph_gradient,
    spectral_norm,
)

from conftest import adjoint_gap


def knn_oracle(points):
    """O(n^2) neighbor lists: per node, every other node as (distance, index), nearest first."""
    n = len(points)
    lists = []
    for i in range(n):
        d = np.linalg.norm(points - points[i], axis=1)
        lists.append(sorted((d[j], j) for j in range(n) if j != i))
    return lists


def knn_union_oracle(points, k):
    """O(n^2) K-NN with (distance, index) tie order, symmetrized by union."""
    return {(min(i, j), max(i, j)) for i, row in enumerate(knn_oracle(points)) for _, j in row[:k]}


@st.composite
def knn_inputs(draw):
    """(points, k): continuous, rounded (ties), duplicated or all-identical point sets, n >= k + 1."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.standard_normal((n, draw(st.integers(1, 4))))
    kind = draw(st.sampled_from(("continuous", "rounded", "duplicated", "identical")))
    if kind == "rounded":
        points = np.round(points, 1)
    elif kind == "duplicated":
        points = np.round(points[rng.integers(0, max(1, n // 4), n)], 1)
    elif kind == "identical":
        points[:] = points[0]
    return points, k


def random_graph(rng, n_nodes, k=3):
    points = rng.standard_normal((n_nodes, 4))
    return build_graph(points, PatchConfig(3, k))


def dense_gradient_matrix(g):
    B = np.zeros((g.edge_count, g.node_count))
    B[np.arange(g.edge_count), g.edge_i] = -g.sqrt_weights
    B[np.arange(g.edge_count), g.edge_j] = g.sqrt_weights
    return B


class TestExtractPatches:
    def test_count_and_length(self, sino64_noisy):
        patches = extract_patches(sino64_noisy, PatchConfig(3, 10))
        assert patches.shape == (95 * 36, 9)

    def test_constant_sinogram(self):
        s = Sinogram(6, 5, np.full(30, 5.0))
        patches = extract_patches(s, PatchConfig(3, 1))
        np.testing.assert_array_equal(patches, np.full((30, 9), 5.0))

    def test_replicate_padding_against_brute_force(self):
        rng = np.random.default_rng(8)
        grid = rng.random((7, 5))
        s = Sinogram.from_grid(grid)
        l, half = 3, 1
        patches = extract_patches(s, PatchConfig(l, 1))
        for pix in [0, 4, 30, 34, 17]:  # corners and an interior pixel
            r, c = divmod(pix, 5)
            expected = [
                grid[min(max(r + dr, 0), 6), min(max(c + dc, 0), 4)]
                for dr in range(-half, half + 1)
                for dc in range(-half, half + 1)
            ]
            np.testing.assert_array_equal(patches[pix], expected)

    def test_patch_too_large_rejected(self):
        s = Sinogram(3, 3, np.zeros(9))
        with pytest.raises(ValueError):
            extract_patches(s, PatchConfig(7, 1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PatchConfig(4, 1)  # even side
        with pytest.raises(ValueError):
            PatchConfig(3, 0)


class TestBuildGraph:
    def test_identical_patches_fall_back_to_unit_weights(self):
        patches = np.zeros((3, 4))
        g = build_graph(patches, PatchConfig(3, 1))
        assert g.sigma == 1.0
        np.testing.assert_array_equal(g.weights, np.ones(g.edge_count))

    def test_points_on_a_line(self):
        patches = np.array([[0.0], [1.0], [2.0], [3.0], [10.0]])
        g = build_graph(patches, PatchConfig(1, 1))
        edges = set(zip(g.edge_i.tolist(), g.edge_j.tolist()))
        # node 4 selects node 3; interior nodes select a distance-1 neighbor
        # (ties toward the lower index), node 0 selects node 1
        assert edges == knn_union_oracle(patches, 1)
        assert (3, 4) in edges

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(8):
            n = int(rng.integers(12, 120))
            k = int(rng.integers(1, 6))
            points = rng.standard_normal((n, 5))
            g = build_graph(points, PatchConfig(3, k))
            got = set(zip(g.edge_i.tolist(), g.edge_j.tolist()))
            assert got == knn_union_oracle(points, k)

    @pytest.mark.parametrize("rows_per_chunk", [1, 3, 7])
    def test_chunking_does_not_change_the_graph(self, monkeypatch, rows_per_chunk):
        # the k-d tree splits the points into leaf buckets of at most 1, 3 and 7 rows;
        # the graph must be byte-identical to the one built with the default buckets
        rng = np.random.default_rng(22)
        points = np.round(rng.standard_normal((50, 4)), 1)  # rounding makes ties
        whole = build_graph(points, PatchConfig(3, 4))
        tree = gtvtomo.patch_graph.cKDTree
        monkeypatch.setattr(gtvtomo.patch_graph, "cKDTree", lambda data: tree(data, leafsize=rows_per_chunk))
        chunked = build_graph(points, PatchConfig(3, 4))
        for name in ("edge_i", "edge_j", "weights"):
            assert getattr(chunked, name).tobytes() == getattr(whole, name).tobytes()
        assert chunked.sigma == whole.sigma
        assert set(zip(chunked.edge_i.tolist(), chunked.edge_j.tolist())) == knn_union_oracle(points, 4)

    @settings(max_examples=150, deadline=None, database=None)
    @given(knn_inputs())
    @example((np.round(np.random.default_rng(22).standard_normal((50, 4)), 1), 4))  # rounding makes ties
    @example((np.array([[0.0], [1.0], [-np.nextafter(1.0, 2.0)]]), 1))  # node 0: a tie up to one ulp
    @example((np.repeat(np.eye(3), 4, axis=0), 3))  # 3 duplicates per node: clear rows, self not first
    @example((np.repeat(np.eye(3), 4, axis=0), 2))  # duplicates tie at distance 0
    @example((np.arange(4.0)[:, None], 3))  # n = k + 1
    @example((np.zeros((3, 2)), 2))  # n = k + 1, all identical
    def test_against_oracle(self, data):
        """Edges and sigma match the O(n^2) oracle; rows tied in the oracle take the brute-force row."""
        points, k = data
        knn_select = gtvtomo.patch_graph._knn_select
        brute_rows = []

        def spy(dist_row, kk):
            brute_rows.append(int(np.argmax(dist_row)))  # the node's own entry is the only inf
            return knn_select(dist_row, kk)

        with mock.patch.object(gtvtomo.patch_graph, "_knn_select", spy):
            g = build_graph(points, PatchConfig(1, k))
        # the edge list itself, not only its set, comes out in lexicographic (i, j) order
        assert list(zip(g.edge_i.tolist(), g.edge_j.tolist())) == sorted(knn_union_oracle(points, k))
        assert g.edge_i.dtype == g.edge_j.dtype == np.int64
        d2 = ((points[g.edge_i] - points[g.edge_j]) ** 2).sum(axis=1)
        np.testing.assert_allclose(g.weights, np.exp(-d2 / g.sigma**2), rtol=1e-12)
        lists = knn_oracle(points)
        mean = np.mean([d for row in lists for d, _ in row[:k]])
        assert g.sigma == pytest.approx(mean if mean > 0 else 1.0, rel=1e-12)
        tied = {i for i, row in enumerate(lists) if len(row) > k and row[k][0] <= row[k - 1][0] * (1 + 1e-12)}
        assert tied <= set(brute_rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_patches_rejected(self, bad):
        points = np.random.default_rng(23).standard_normal((6, 3))
        points[4, 1] = bad
        with pytest.raises(ValueError, match="patches must be finite"):
            build_graph(points, PatchConfig(1, 2))

    def test_overflowing_distances_rejected(self):
        # Finite values whose squared distances overflow float64 make sigma infinite.
        with pytest.raises(ValueError, match="patch distances overflow float64"):
            build_graph(np.array([[0.0], [1e200], [-1e200], [3e200]]), PatchConfig(1, 1))

    def test_duplicate_points_tie_break(self):
        # four copies of the same point plus two distant ones: ties must
        # resolve toward lower indices, never to self
        points = np.array([[0.0], [0.0], [0.0], [0.0], [5.0], [9.0]])
        g = build_graph(points, PatchConfig(1, 2))
        assert set(zip(g.edge_i.tolist(), g.edge_j.tolist())) == knn_union_oracle(points, 2)

    def test_sigma_is_mean_directed_knn_distance(self):
        rng = np.random.default_rng(3)
        points = rng.random((40, 3))
        g = build_graph(points, PatchConfig(3, 4))
        dists = [d for row in knn_oracle(points) for d, _ in row[:4]]
        assert g.sigma == pytest.approx(np.mean(dists), rel=1e-12)

    def test_weights_gaussian_in_distance(self):
        rng = np.random.default_rng(4)
        points = rng.random((25, 2))
        g = build_graph(points, PatchConfig(3, 3))
        for e in range(0, g.edge_count, 5):
            d2 = np.sum((points[g.edge_i[e]] - points[g.edge_j[e]]) ** 2)
            assert g.weights[e] == pytest.approx(np.exp(-d2 / g.sigma**2), rel=1e-12)

    def test_degree_recomputable_from_edges(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 50)
        deg = np.zeros(g.node_count)
        for i, j, w in zip(g.edge_i, g.edge_j, g.weights):
            deg[i] += w
            deg[j] += w
        np.testing.assert_allclose(deg, g.degree, atol=1e-12)
        assert np.all(np.bincount(g.edge_i, minlength=50) + np.bincount(g.edge_j, minlength=50) >= 1)

    def test_desk_scale_edge_count(self, graph64_noisy):
        assert graph64_noisy.node_count == 3420
        assert graph64_noisy.edge_count >= 3420 * 10 / 2

    def test_too_few_patches_rejected(self):
        with pytest.raises(ValueError):
            build_graph(np.zeros((3, 2)), PatchConfig(3, 3))


class TestGradientDivergence:
    def test_gradient_of_constant_is_zero(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 20)
        grad = graph_gradient(g, np.full(20, 3.7))
        np.testing.assert_array_equal(grad, np.zeros(g.edge_count))
        np.testing.assert_array_equal(graph_divergence(g, grad), np.zeros(20))

    def test_two_node_values(self):
        g = graph_from_edges(2, [(0, 1, 4.0)])
        np.testing.assert_allclose(graph_gradient(g, np.array([1.0, 3.0])), [4.0])
        np.testing.assert_allclose(graph_divergence(g, np.array([1.0])), [-2.0, 2.0])

    def test_total_variation_against_double_loop(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 20)
        z = rng.standard_normal(20)
        tv = np.abs(graph_gradient(g, z)).sum()
        brute = 0.0
        for i, j, w in zip(g.edge_i, g.edge_j, g.weights):
            brute += np.sqrt(w) * abs(z[i] - z[j])
        assert tv == pytest.approx(brute, rel=1e-12)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(5, 100)))
            for _ in range(10):
                z = rng.standard_normal(g.node_count)
                u = rng.standard_normal(g.edge_count)
                assert adjoint_gap(graph_gradient(g, z), u, z, graph_divergence(g, u)) <= 1e-10

    def test_length_validation(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValueError):
            graph_gradient(g, np.zeros(2))
        with pytest.raises(ValueError):
            graph_divergence(g, np.zeros(3))


@st.composite
def small_graphs(draw):
    """Graphs on 2-9 nodes with any edge subset; weights may be 0, so nodes may be isolated."""
    n = draw(st.integers(2, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    return graph_from_edges(n, [(i, j, draw(weight)) for i, j in chosen])


K4 = graph_from_edges(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])


class TestOperatorProperties:
    """Gradient, divergence and spectral norm against the dense +-sqrt(w) matrix."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(small_graphs(), st.integers(0, 2**32 - 1))
    @example(graph_from_edges(2, [(0, 1, 2.5)]), 0)
    @example(K4, 1)  # D^T D has eigenvalues 0, 4, 4, 4: the top one is repeated 3 times
    @example(graph_from_edges(8, [(0, 1, 2.0), (1, 2, 0.5), (3, 4, 1.0), (4, 5, 0.0), (5, 6, 3.0)]), 2)
    @example(graph_from_edges(3, [(0, 1, 0.0), (1, 2, 0.0)]), 3)
    @example(graph_from_edges(5, []), 4)
    def test_against_dense(self, g, seed):
        rng = np.random.default_rng(seed)
        B = dense_gradient_matrix(g)
        z = rng.standard_normal(g.node_count)
        u = rng.standard_normal(g.edge_count)
        np.testing.assert_allclose(graph_gradient(g, z), B @ z, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(graph_divergence(g, u), B.T @ u, rtol=1e-12, atol=1e-9)
        assert adjoint_gap(graph_gradient(g, z), u, z, graph_divergence(g, u)) <= 1e-10
        if not np.any(g.weights > 0):
            with pytest.raises(ValueError):
                spectral_norm(g)
            return
        dense = np.linalg.svd(B, compute_uv=False)[0]
        assert spectral_norm(g) == pytest.approx(dense, rel=1e-9)


class TestSpectralNorm:
    def test_two_node_unit_weight(self):
        g = graph_from_edges(2, [(0, 1, 1.0)])
        assert spectral_norm(g) == pytest.approx(np.sqrt(2), rel=1e-9)

    def test_matches_dense_svd(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            g = random_graph(rng, int(rng.integers(5, 40)))
            tau = spectral_norm(g)
            dense = np.linalg.svd(dense_gradient_matrix(g), compute_uv=False)[0]
            assert tau == pytest.approx(dense, abs=1e-6 * max(1.0, dense))

    def test_degree_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            g = random_graph(rng, 30)
            tau = spectral_norm(g)
            assert tau**2 <= 2.0 * g.degree.max() + 1e-9

    def test_cached(self):
        g = graph_from_edges(2, [(0, 1, 1.0)])
        assert "tau" not in g.__dict__
        tau = spectral_norm(g)
        assert g.__dict__["tau"] == tau
        assert spectral_norm(g) == tau

    def test_tau_is_not_a_constructor_argument(self):
        # a passed tau would be returned unchecked as the denoiser's step bound
        with pytest.raises(TypeError):
            PatchGraph(2, np.array([0]), np.array([1]), np.array([1.0]), tau=1.0)

    def test_edgeless_graph_rejected(self):
        # no edges, or only edges of weight 0: the operator is zero
        for edges in ([], [(0, 1, 0.0), (1, 2, 0.0)]):
            with pytest.raises(ValueError):
                spectral_norm(graph_from_edges(3, edges))


class TestGraphFromEdges:
    def test_rejects_self_loops_and_duplicates(self):
        with pytest.raises(ValueError):
            graph_from_edges(3, [(1, 1, 1.0)])
        with pytest.raises(ValueError):
            graph_from_edges(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            PatchGraph(2, np.array([0]), np.array([1]), np.array([-1.0]))
