"""Graph total-variation denoising by dual projected gradient.

Solves ``min_z ||z - b||_2^2 + gamma * TV(z)`` where ``TV(z)`` is the l1
norm of the graph gradient (each unordered edge counted once).  Writing the
solution as ``z = b - divergence(u)``, the dual variable u lives in the box
``[-gamma/2, gamma/2]`` per edge and is updated by a gradient step of length
``1 / tau^2`` followed by projection onto the box, ``tau`` being the spectral
norm of the gradient operator.  The step length equals the inverse Lipschitz
constant of the dual gradient, so the iteration is a plain convergent
forward-backward scheme.  Its products are :func:`~gtvtomo.projector.spmv`
calls into buffers allocated once per call, and ``u`` is clipped in place.

Stopping uses the relative change of the objective evaluated at the current
iterate, ``F = ||b - x||^2 + gamma * ||gradient(x)||_1``, with an immediate
stop when F hits zero (e.g. constant input or gamma = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from gtvtomo.patch_graph import PatchGraph, graph_gradient, spectral_norm
from gtvtomo.phantoms import flat_finite
from gtvtomo.projector import spmv

@dataclass(frozen=True)
class DenoiseConfig:
    """Regularization weight and stopping controls."""

    gamma: float
    epsilon: float = 1e-6
    max_iters: int = 500

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters}")


@dataclass(eq=False)
class DenoiseTrace:
    """Objective values per iteration and how the run ended."""

    objective: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations_run(self) -> int:
        return len(self.objective)  # one objective value per iteration


def denoise(b: np.ndarray, g: PatchGraph, cfg: DenoiseConfig) -> tuple[np.ndarray, DenoiseTrace]:
    """Denoise a node signal on its patch graph.

    Parameters
    ----------
    b : (node_count,) array
        Noisy signal (e.g. a vectorized sinogram).
    g : PatchGraph
        Graph over the same index space; its spectral norm is computed on
        demand and cached.
    cfg : DenoiseConfig

    Returns
    -------
    (z, trace)
        Denoised signal and the objective trace.  ``gamma = 0``, or a graph
        with no edge of positive weight, returns the input unchanged after a
        single iteration: the total-variation term vanishes, so ``b`` is the
        minimizer.
    """
    b = flat_finite(b, g.node_count, "denoise", "input signal")
    if cfg.gamma == 0.0 or not np.any(g.weights > 0):
        return b.copy(), DenoiseTrace([0.0], True)

    tau = spectral_norm(g)
    step = 1.0 / (tau * tau)
    bound = cfg.gamma / 2.0
    D, m, n = g.incidence, g.edge_count, g.node_count
    arrays = (D.indptr, D.indices, D.data)
    u, grad_x, scratch, x, resid = np.zeros(m), np.empty(m), np.empty(m), np.empty(n), np.empty(n)
    trace = DenoiseTrace()
    f_prev = None
    for _ in range(cfg.max_iters):
        spmv(arrays, u, x, transpose=True)
        np.subtract(b, x, out=x)
        spmv(arrays, x, grad_x)
        np.multiply(grad_x, step, out=scratch)
        u += scratch
        np.clip(u, -bound, bound, out=u)
        np.subtract(b, x, out=resid)
        f = float(resid @ resid) + cfg.gamma * float(np.abs(grad_x, out=scratch).sum())
        trace.objective.append(f)
        # f_prev is never 0 here: a zero objective has already stopped the loop.
        if f == 0.0 or (f_prev is not None and ((f - f_prev) / f_prev) ** 2 < cfg.epsilon):
            trace.converged = True
            break
        f_prev = f
    return x, trace


def objective(b: np.ndarray, z: np.ndarray, g: PatchGraph, gamma: float) -> float:
    """Denoising objective ``||z - b||^2 + gamma * ||gradient(z)||_1``."""
    b = flat_finite(b, g.node_count, "objective", "input signal")
    z = flat_finite(z, g.node_count, "objective", "candidate signal")
    d = z - b
    return float(d @ d) + gamma * float(np.abs(graph_gradient(g, z)).sum())


def gamma_sweep(
    b: np.ndarray,
    g: PatchGraph,
    gammas,
    evaluator,
    cfg: DenoiseConfig | None = None,
) -> tuple[float, np.ndarray, list[float]]:
    """Denoise at each gamma and keep the one the evaluator scores lowest.

    ``evaluator`` maps a denoised signal to a scalar score (typically a
    downstream reconstruction error against ground truth).  Ties are broken
    toward the smaller gamma.  Returns (best_gamma, best_z, scores) with
    scores aligned to the input gammas.
    """
    gammas = [float(gm) for gm in gammas]
    if not gammas:
        raise ValueError("gamma sweep needs at least one value")
    base = cfg if cfg is not None else DenoiseConfig(gamma=0.0)
    best = None  # (score, gamma, z)
    scores: list[float] = []
    for gm in gammas:
        z, _ = denoise(b, g, replace(base, gamma=gm))
        score = float(evaluator(z))
        scores.append(score)
        if best is None or (score, gm) < (best[0], best[1]):
            best = (score, gm, z)
    return best[1], best[2], scores
