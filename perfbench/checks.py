"""Output checks, each computed apart from the code it checks.

Every check returns a list of failure messages; an empty list is a pass.
Files are parsed here with plain numpy and csv, not with gtvtomo's readers,
and the reference values come from independent formulas: analytic chord
lengths, brute-force nearest neighbours, a k-d tree for the bandwidth, the
denoising objective written out from its definition, and the data residual
of each reconstruction.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.spatial import cKDTree

# Relative tolerances.  Values that the program and the check compute by the
# same arithmetic are compared exactly; the rest differ only in summation
# order, which moves the last few bits.
ROUNDING = 1e-9
ADJOINT = 1e-10
# Largest relative data residual ||A x - b|| / ||b|| accepted for a written
# reconstruction.  The zero image has 1; the outputs of table1's seeds 1-5
# and of the CLI chain have 0.17 at most.
RESIDUAL_LIMIT = 0.25


# -- file parsing --------------------------------------------------------------


def read_raw(path, tag: str) -> tuple[list[int], np.ndarray]:
    """Header integers and float64 payload of an ``IMG n`` / ``SINO p q`` file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    newline = blob.index(b"\n")
    head = blob[:newline].split()
    if not head or head[0] != tag.encode():
        raise ValueError(f"{path}: expected a {tag} header")
    return [int(v) for v in head[1:]], np.frombuffer(blob[newline + 1 :], dtype="<f8")


def read_csv(path, header: bool = True) -> np.ndarray:
    """Numeric rows of a CSV file, after its header line if it has one, as a 2-D array."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row] for row in rows[1 if header else 0 :]], dtype=np.float64)


# -- projector -----------------------------------------------------------------


def chord_lengths(n: int, offsets: np.ndarray, angles_deg: np.ndarray) -> np.ndarray:
    """Length of each ray's chord through the square [-n/2, n/2]^2, in row order ray*q + angle."""
    h = n / 2.0
    t = np.asarray(offsets, dtype=np.float64)[:, None]
    theta = np.deg2rad(np.asarray(angles_deg, dtype=np.float64))[None, :]
    c, s = np.cos(theta), np.sin(theta)
    shape = np.broadcast(t, c).shape
    lo, hi = np.full(shape, -np.inf), np.full(shape, np.inf)
    miss = np.zeros(shape, dtype=bool)
    # The ray is t*(c, s) + u*(-s, c); clip u to each slab |x| <= h, |y| <= h.
    for along, across in ((-s, t * c), (c, t * s)):
        along = np.broadcast_to(along, shape)
        across = np.broadcast_to(across, shape)
        moving = np.abs(along) > 1e-12
        safe = np.where(moving, along, 1.0)
        a = np.where(moving, (-h - across) / safe, -np.inf)
        b = np.where(moving, (h - across) / safe, np.inf)
        lo = np.maximum(lo, np.minimum(a, b))
        hi = np.minimum(hi, np.maximum(a, b))
        miss |= ~moving & (np.abs(across) > h)
    return np.where(miss, 0.0, np.clip(hi - lo, 0.0, None)).ravel()


def check_projector(A, seed: int = 0) -> list[str]:
    """Row sums equal analytic chord lengths; a random adjoint dot test holds."""
    from gtvtomo import back_project, forward_project

    g = A.geometry
    fails = []
    sums = np.asarray(A.matrix.sum(axis=1)).ravel()
    chords = chord_lengths(g.n, g.offsets, g.angles)
    worst = float(np.max(np.abs(sums - chords)))
    if worst > ROUNDING * g.n:
        fails.append(f"projector row sum differs from the chord length by {worst:.3g}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(A.cols)
    y = rng.standard_normal(A.rows)
    ax = forward_project(A, x).values
    ax_y = float(ax @ y)
    x_aty = float(x @ back_project(A, y).pixels)
    scale = float(np.linalg.norm(ax) * np.linalg.norm(y))
    if abs(ax_y - x_aty) > ADJOINT * scale:
        fails.append(f"adjoint dot test: <Ax,y>={ax_y!r} but <x,A^T y>={x_aty!r}")
    return fails


# -- noise ---------------------------------------------------------------------


def check_noise_level(clean: np.ndarray, noisy: np.ndarray, level: float) -> list[str]:
    realised = float(np.linalg.norm(noisy - clean) / np.linalg.norm(clean))
    if abs(realised - level) > ROUNDING * max(level, 1.0):
        return [f"realised noise level {realised!r} != requested {level!r}"]
    return []


# -- patch graph ---------------------------------------------------------------


def patches(grid: np.ndarray, side: int) -> np.ndarray:
    """side x side patches around every pixel, replicate padding, row-major order."""
    p, q = grid.shape
    half = side // 2
    padded = np.pad(grid, half, mode="edge")
    cols = [padded[a : a + p, b : b + q].ravel() for a in range(side) for b in range(side)]
    return np.stack(cols, axis=1)


def _distances_from(P: np.ndarray, i: int) -> np.ndarray:
    """Euclidean distances from node i, summed feature by feature in index order."""
    acc = np.zeros(P.shape[0])
    for c in range(P.shape[1]):
        acc += (P[:, c] - P[i, c]) ** 2
    return np.sqrt(acc)


def _nearest(P: np.ndarray, i: int, k: int) -> np.ndarray:
    d = _distances_from(P, i)
    d[i] = np.inf
    return np.lexsort((np.arange(P.shape[0]), d))[:k]


def check_knn_graph(
    grid: np.ndarray,
    side: int,
    k: int,
    edge_i: np.ndarray,
    edge_j: np.ndarray,
    weights: np.ndarray,
    sample: np.ndarray,
) -> list[str]:
    """The graph is the union-symmetrised exact K-NN graph with Gaussian weights.

    For each sampled node, its brute-force K nearest neighbours (ties to the
    lower index) are all edges, and every edge at the node is explained by
    one endpoint being among the other's K nearest.  Every edge weight equals
    ``exp(-d^2 / sigma^2)`` with sigma the mean K-NN distance over all nodes.
    """
    P = patches(grid, side)
    N = P.shape[0]
    edge_i = np.asarray(edge_i, dtype=np.int64)
    edge_j = np.asarray(edge_j, dtype=np.int64)
    fails = []
    keys = np.sort(edge_i * N + edge_j)
    if np.any(edge_i >= edge_j):
        fails.append("edges must be stored with i < j")
    for i in np.asarray(sample, dtype=np.int64):
        near = _nearest(P, i, k)
        want = np.minimum(near, i) * N + np.maximum(near, i)
        missing = near[~np.isin(want, keys)]
        if missing.size:
            fails.append(f"node {i}: nearest neighbours {missing.tolist()} are not edges")
        incident = np.concatenate([edge_j[edge_i == i], edge_i[edge_j == i]])
        for j in np.setdiff1d(incident, near):
            if i not in _nearest(P, j, k):
                fails.append(f"edge ({i}, {j}) joins nodes that are not each other's neighbours")
    # Distances to the k+1 nearest points include the point itself once, at 0.
    knn_dist, _ = cKDTree(P).query(P, k=k + 1)
    sigma = float(knn_dist.sum() / (N * k)) or 1.0
    diff = P[edge_i] - P[edge_j]
    expected = np.exp(-np.einsum("ij,ij->i", diff, diff) / sigma**2)
    bad = ~np.isclose(weights, expected, rtol=ROUNDING, atol=1e-300)
    if np.any(bad):
        e = int(np.flatnonzero(bad)[0])
        fails.append(
            f"{int(bad.sum())} edge weights differ from exp(-d^2/sigma^2), "
            f"first ({edge_i[e]}, {edge_j[e]}): {weights[e]!r} vs {expected[e]!r}"
        )
    return fails


def graph_sample(node_count: int, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.choice(node_count, size=min(size, node_count), replace=False)


# -- denoiser --------------------------------------------------------------------


def gtv_objective(b, z, edge_i, edge_j, weights, gamma) -> float:
    """``||z - b||^2 + gamma * sum_edges sqrt(w_ij) |z_j - z_i|``."""
    r = z - b
    return float(r @ r) + gamma * float(np.sum(np.sqrt(weights) * np.abs(z[edge_j] - z[edge_i])))


def check_denoised(b, z, edge_i, edge_j, weights, gamma) -> list[str]:
    """The denoised objective is no higher than at z = b or at z = mean(b)."""
    fz = gtv_objective(b, z, edge_i, edge_j, weights, gamma)
    fails = []
    for label, ref in (("z = b", b), ("z = mean(b)", np.full_like(b, b.mean()))):
        f_ref = gtv_objective(b, ref, edge_i, edge_j, weights, gamma)
        if fz > f_ref * (1.0 + 1e-12):
            fails.append(f"denoised objective {fz!r} above the objective at {label} ({f_ref!r})")
    return fails


def check_best_gamma(gamma_scores, best_gamma: float) -> list[str]:
    """best_gamma minimises the score, ties going to the smaller gamma."""
    score, gamma = min((float(s), float(g)) for g, s in gamma_scores)
    if gamma != best_gamma:
        return [f"best gamma {best_gamma!r} but the lowest score {score!r} is at gamma {gamma!r}"]
    return []


# -- reconstructions -------------------------------------------------------------


def check_final_error(reported: float, image: np.ndarray, truth: np.ndarray, label: str) -> list[str]:
    """The reported final error is the l2 error of the written image."""
    actual = float(np.linalg.norm(image - truth))
    if not np.isclose(reported, actual, rtol=ROUNDING, atol=0.0):
        return [f"{label}: reported final error {reported!r}, written image has {actual!r}"]
    return []


def check_reconstruction(matrix, image, sino, truth, min_error: float, label: str) -> list[str]:
    """The image explains its sinogram, and the method got closer to the truth than the zero image.

    ``matrix`` is the projector's, checked on its own by :func:`check_projector`.
    """
    fails = []
    residual = float(np.linalg.norm(matrix @ image - sino) / np.linalg.norm(sino))
    if not residual < RESIDUAL_LIMIT:
        fails.append(f"{label}: relative data residual {residual:.4g} is not below {RESIDUAL_LIMIT}")
    zero = float(np.linalg.norm(truth))
    if not min_error < zero:
        fails.append(f"{label}: min error {min_error!r} is not below the zero image's {zero!r}")
    return fails


def check_fbp_order(methods: dict) -> list[str]:
    """FBP on the denoised sinogram is at least as good: the gamma grid contains 0."""
    raw, gd = methods["fbp"]["raw"]["min_error"], methods["fbp"]["gd"]["min_error"]
    if gd > raw:
        return [f"FBP-GD min error {gd!r} above FBP-raw {raw!r}"]
    return []
