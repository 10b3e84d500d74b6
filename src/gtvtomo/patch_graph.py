"""Nonlocal patch similarity graph over sinogram pixels.

Each sinogram pixel becomes a node whose feature vector is the vectorized
l-by-l patch around it (replicate padding at the border).  Nodes are linked
to their K nearest neighbors in patch space (k-d tree, exact, ties broken by
lower node index) and the directed edge set is symmetrized by union.  Edge
weights are Gaussian in the patch distance, ``exp(-d^2 / sigma^2)``, with
``sigma`` the mean distance over all directed K-NN pairs.

Edge signals are plain arrays with one entry per stored undirected edge
(i, j), i < j.  The graph gradient is the sparse incidence matrix ``D``,
``(D z)_e = sqrt(W_ij) * (z_j - z_i)``, so its l1 norm counts each unordered
pair once; conventions that sum over ordered pairs double this value, which
simply rescales any regularization weight multiplying it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree, distance

from gtvtomo.phantoms import flat_finite
from gtvtomo.projector import top_eigenvalue

# Relative margin within which k-th and (k+1)-th tree distances count as tied:
# the tree and cdist round the same distance differently in the last bits.
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class PatchConfig:
    """Patch extraction and graph construction parameters."""

    patch_side: int = 3
    k: int = 10

    def __post_init__(self):
        if self.patch_side < 1 or self.patch_side % 2 == 0:
            raise ValueError(f"patch side must be odd and positive, got {self.patch_side}")
        if self.k < 1:
            raise ValueError(f"neighbor count must be >= 1, got {self.k}")


@dataclass(eq=False)
class PatchGraph:
    """Undirected weighted graph with cached derived quantities.

    Edges are stored once with ``edge_i < edge_j``, sorted lexicographically.
    ``incidence`` is the gradient ``D`` (CSR), ``degree[i]`` the sum of
    incident edge weights and :attr:`tau` is ``||D||_2``, built on first use.
    """

    node_count: int
    edge_i: np.ndarray = field(repr=False)
    edge_j: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    sigma: float = 1.0

    def __post_init__(self):
        self.edge_i = np.ascontiguousarray(self.edge_i, dtype=np.int64)
        self.edge_j = np.ascontiguousarray(self.edge_j, dtype=np.int64)
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if not (self.edge_i.shape == self.edge_j.shape == self.weights.shape):
            raise ValueError("edge arrays must have identical shapes")
        if self.edge_i.size and not np.all(self.edge_i < self.edge_j):
            raise ValueError("edges must be stored with i < j")
        if self.edge_i.size and (self.edge_i.min() < 0 or self.edge_j.max() >= self.node_count):
            raise ValueError("edge endpoints out of range")
        if np.any(self.weights < 0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("edge weights must be finite and nonnegative")
        self.sqrt_weights = np.sqrt(self.weights)
        self.degree = np.bincount(self.edge_i, self.weights, self.node_count) + np.bincount(
            self.edge_j, self.weights, self.node_count
        )
        # Row e holds -sqrt(w) at edge_i[e], then +sqrt(w) at edge_j[e] (sorted, as i < j).
        ends = np.column_stack((self.edge_i, self.edge_j)).ravel()
        vals = np.column_stack((-self.sqrt_weights, self.sqrt_weights)).ravel()
        indptr = np.arange(0, ends.size + 1, 2)
        self.incidence = sp.csr_matrix((vals, ends, indptr), shape=(self.edge_count, self.node_count))

    @property
    def edge_count(self) -> int:
        return self.edge_i.size

    @cached_property
    def tau(self) -> float:
        """Largest singular value ``||D||_2`` of the gradient operator, built on first use.

        ``tau`` is the square root of :func:`~gtvtomo.projector.top_eigenvalue` of
        ``D^T D``; a graph with no edge of positive weight (a zero ``D``) is rejected.
        """
        if not np.any(self.weights > 0):
            raise ValueError("spectral norm needs at least one edge of positive weight")
        return float(np.sqrt(top_eigenvalue(self.incidence.T @ self.incidence)))


def graph_from_edges(node_count: int, edges) -> PatchGraph:
    """Build a graph from an iterable of (i, j, weight) triples.

    Intended for tests and tiny hand-built instances; endpoints are
    normalized to i < j and duplicate pairs are rejected.
    """
    triples = [(min(i, j), max(i, j), w) for i, j, w in edges]
    if any(i == j for i, j, _ in triples):
        raise ValueError("self loops are not allowed")
    if len({(i, j) for i, j, _ in triples}) != len(triples):
        raise ValueError("duplicate edges")
    triples.sort()
    ei = np.array([t[0] for t in triples], dtype=np.int64)
    ej = np.array([t[1] for t in triples], dtype=np.int64)
    w = np.array([t[2] for t in triples], dtype=np.float64)
    return PatchGraph(node_count, ei, ej, w)


def extract_patches(s, cfg: PatchConfig) -> np.ndarray:
    """Vectorized l-by-l patches around every pixel of a p-by-q :class:`~gtvtomo.projector.Sinogram`.

    Returns a (p*q, l*l) array; patch i is centered at pixel i in row-major
    order, with replicate padding past the border.
    """
    p, q = s.p, s.q
    l = cfg.patch_side
    if l > 2 * min(p, q) - 1:
        raise ValueError(f"patch side {l} too large for a {p}x{q} sinogram")
    half = l // 2
    padded = np.pad(s.grid, half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (l, l))
    return windows.reshape(p * q, l * l).copy()


def _knn_select(dist_row: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest entries, ties resolved to lower index."""
    kth = np.partition(dist_row, k - 1)[k - 1]
    cand = np.flatnonzero(dist_row <= kth)
    order = np.argsort(dist_row[cand], kind="stable")
    return cand[order[:k]]


def build_graph(patches: np.ndarray, cfg: PatchConfig) -> PatchGraph:
    """Exact symmetrized K-NN graph over patch vectors (k-d tree; ties go to the lower index).

    Parameters
    ----------
    patches : (N, d) array
        One finite feature vector per node.
    cfg : PatchConfig
        ``cfg.k`` neighbors per node.

    Returns
    -------
    PatchGraph
        Union-symmetrized graph with Gaussian weights
        ``exp(-d^2 / sigma^2)``, sigma being the mean distance over the
        N*k directed neighbor pairs.  When every K-NN distance is zero the
        bandwidth falls back to 1.0 so identical patches keep weight 1.
    """
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 2:
        raise ValueError(f"patches must be a 2-D array, got shape {patches.shape}")
    n = patches.shape[0]
    k = cfg.k
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} patches for k={k}, got {n}")
    if not np.all(np.isfinite(patches)):
        raise ValueError("patches must be finite (found NaN or inf)")

    dist, idx = cKDTree(patches).query(patches, k=k + 2)
    sigma = float(dist[:, 1 : k + 1].mean())
    if sigma == 0.0:
        sigma = 1.0
    if not np.isfinite(sigma * sigma):
        raise ValueError("patch distances overflow float64; rescale the sinogram")

    # Hits 0..k are the node and k neighbors; hit 0 takes the node's slot if a duplicate came first.
    rows = np.arange(n)
    neighbor_idx = np.where(idx[:, 1 : k + 1] == rows[:, None], idx[:, :1], idx[:, 1 : k + 1])
    for r in rows[dist[:, k + 1] <= dist[:, k] * (1 + _TIE_TOL)]:
        d = distance.cdist(patches[r : r + 1], patches)[0]
        d[r] = np.inf
        neighbor_idx[r] = _knn_select(d, k)

    src = np.repeat(rows, k)
    dst = neighbor_idx.ravel()
    # Key i * n + j (i < j) sorts like the pair (i, j), so the unique keys give sorted edges.
    edge_i, edge_j = np.divmod(np.unique(np.minimum(src, dst) * n + np.maximum(src, dst)), n)
    diff = patches[edge_i] - patches[edge_j]
    d2 = np.einsum("ij,ij->i", diff, diff)
    weights = np.exp(-d2 / (sigma * sigma))
    return PatchGraph(n, edge_i, edge_j, weights, sigma=sigma)


def graph_gradient(g: PatchGraph, z: np.ndarray) -> np.ndarray:
    """Edge-wise weighted differences ``sqrt(W_ij) * (z_j - z_i)``, i.e. ``D z``."""
    return g.incidence @ flat_finite(z, g.node_count, "graph gradient", "node signal")


def graph_divergence(g: PatchGraph, u: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`graph_gradient`, ``D^T u``, applied through the transposed (CSC) view."""
    return g.incidence.T @ flat_finite(u, g.edge_count, "graph divergence", "edge signal")


def spectral_norm(g: PatchGraph) -> float:
    """Largest singular value ``||D||_2`` of the gradient operator: :attr:`PatchGraph.tau`."""
    return g.tau
