"""Graph total-variation denoising by dual projected gradient.

Solves ``min_z ||z - b||_2^2 + gamma * TV(z)`` where ``TV(z)`` is the l1
norm of the graph gradient (each unordered edge counted once).  Writing the
solution as ``z = b - divergence(u)``, the dual variable u lives in the box
``[-gamma/2, gamma/2]`` per edge and is updated by a gradient step of length
``1 / tau^2`` followed by projection onto the box, ``tau`` being the spectral
norm of the gradient operator.  The step length equals the inverse Lipschitz
constant of the dual gradient, so the iteration is a plain convergent
forward-backward scheme.  Its products are :func:`~gtvtomo.projector.spmv`
calls into buffers allocated once per solve, and ``u`` is clipped in place.

Stopping uses the relative change of the objective evaluated at the current
iterate, ``F = ||b - x||^2 + gamma * ||gradient(x)||_1``, with an immediate
stop when F hits zero (e.g. constant input or gamma = 0).  Each solve reports
why it stopped (``zero``, ``rel_change`` or ``max_iters``) and the relative
duality gap of its output, a bound on how far ``F`` is above the optimum.

From ``u = 0`` the iterates do not depend on gamma until the first step whose
unclipped ``u`` leaves the box, and until then ``F`` needs only ``||b - x||^2``
and ``||gradient(x)||_1``.  Every weight of a :func:`gamma_sweep` therefore
walks one shared path of unclipped steps, computed once.  A solve is one loop
that takes each step from that path until its box first clips and from a
clipped copy of the path's dual after; each weight's iterates, objective
values and output are bit for bit those of a solve of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    """Objective values per iteration, why the solve stopped and its relative duality gap.

    ``stop`` is ``"zero"`` (the objective reached 0; also ``gamma = 0`` and graphs with no
    edge of positive weight), ``"rel_change"`` (the relative-change rule) or ``"max_iters"``.
    ``gap`` is ``(F(z) - (||b||^2 - ||z||^2)) / F(z)`` with ``F(z)`` the last objective value,
    and 0 when that is 0: ``z = b - D^T u`` for a ``u`` inside its box, so by weak duality the
    gap is >= 0 up to rounding and bounds how far ``F(z)`` can be above the optimum.
    """

    objective: list[float]
    stop: str
    gap: float

    @property
    def iterations_run(self) -> int:
        """Iterations of this weight's solve, the steps it walked on a sweep's shared path included."""
        return len(self.objective)  # one objective value per iteration


class _Dual:
    """A dual iterate ``u`` for one ``(b, graph)`` with the buffers of one step."""

    def __init__(self, b: np.ndarray, g: PatchGraph, u: np.ndarray):
        tau = spectral_norm(g)
        D = g.incidence
        self.b, self.u, self.step, self.arrays = b, u, 1.0 / (tau * tau), (D.indptr, D.indices, D.data)
        if self.step == np.inf:
            raise ValueError(f"graph spectral norm {tau!r} is too small for a finite dual step 1/tau^2")
        self.x, self.resid = np.empty(g.node_count), np.empty(g.node_count)
        self.grad_x, self.scratch = np.empty(g.edge_count), np.empty(g.edge_count)

    def advance(self, bound: float | None) -> tuple[float, float]:
        """One step: ``x = b - D^T u``, ``u += step * D x``, then clip ``u`` to ``[-bound, bound]``
        (not at all for ``None``); returns ``(||b - x||^2, ||D x||_1)``."""
        spmv(self.arrays, self.u, self.x, transpose=True)
        np.subtract(self.b, self.x, out=self.x)
        spmv(self.arrays, self.x, self.grad_x)
        np.multiply(self.grad_x, self.step, out=self.scratch)
        self.u += self.scratch
        if bound is not None:
            np.clip(self.u, -bound, bound, out=self.u)
        np.subtract(self.b, self.x, out=self.resid)
        return float(self.resid @ self.resid), float(np.abs(self.grad_x, out=self.scratch).sum())


class _SharedPath(_Dual):
    """The unclipped dual steps from ``u = 0`` for one ``(b, graph)``, taken on demand.

    Step ``t`` records ``||b - x||^2``, ``||D x||_1`` and the peak ``max|u|`` after its
    update; only the newest step's ``x`` and ``u`` are kept.
    """

    def __init__(self, b: np.ndarray, g: PatchGraph):
        super().__init__(b, g, np.zeros(g.edge_count))
        self.sq, self.l1, self.peak = [], [], []

    def extend(self) -> None:
        sq, l1 = self.advance(None)
        self.sq.append(sq)
        self.l1.append(l1)
        self.peak.append(max(self.u.max(), -self.u.min()))


def _stop(f: float, f_prev: float | None, epsilon: float) -> str | None:
    # f_prev is never 0 here: a zero objective has already stopped the loop.
    if f == 0.0:
        return "zero"
    if f_prev is not None and ((f - f_prev) / f_prev) ** 2 < epsilon:
        return "rel_change"
    return None


def _walk(b: np.ndarray, g: PatchGraph, cfg: DenoiseConfig, path: _SharedPath) -> tuple[np.ndarray, DenoiseTrace]:
    """Solve from ``u = 0``, taking each step from ``path`` until this weight's box clips and from a
    clipped copy of the path's dual after; restart on a fresh path if this weight ends or leaves at a
    step ``path`` has already passed."""
    bound = cfg.gamma / 2.0
    dual, values, f_prev = path, [], None
    for t in range(cfg.max_iters):
        if dual is path:
            if t == len(path.sq):
                path.extend()
            sq, l1 = path.sq[t], path.l1[t]
        else:
            sq, l1 = dual.advance(bound)
        f = sq + cfg.gamma * l1
        values.append(f)
        stop = _stop(f, f_prev, cfg.epsilon)
        ends = stop is not None or t + 1 == cfg.max_iters
        if dual is path and (ends or path.peak[t] > bound):
            if t + 1 < len(path.sq):  # step t's x and u are overwritten
                return _walk(b, g, cfg, _SharedPath(b, g))
            if not ends:
                dual = _Dual(b, g, np.clip(path.u, -bound, bound))
        if ends:
            break
        f_prev = f
    x = path.x.copy() if dual is path else dual.x
    gap = (f - (float(b @ b) - float(x @ x))) / f if f else 0.0
    return x, DenoiseTrace(values, stop or "max_iters", gap)


def denoise(
    b: np.ndarray, g: PatchGraph, cfg: DenoiseConfig, *, shared: _SharedPath | None = None
) -> tuple[np.ndarray, DenoiseTrace]:
    """Denoise a node signal on its patch graph.

    Parameters
    ----------
    b : (node_count,) array
        Noisy signal (e.g. a vectorized sinogram).
    g : PatchGraph
        Graph over the same index space; its spectral norm is computed on
        demand and cached.
    cfg : DenoiseConfig
    shared : optional
        The shared path of unclipped dual steps that :func:`gamma_sweep`
        builds for this ``b`` and ``g``.  The solve's one loop takes each step
        from the path, extending it, until this weight's box clips, and from a
        clipped copy of the path's dual after; it restarts on a fresh path of
        its own when it would end or leave at a step the path has already
        passed.  Without one it runs on a fresh path.  The result is the same
        either way, bit for bit.

    Returns
    -------
    (z, trace)
        Denoised signal and the :class:`DenoiseTrace`: the objective per
        iteration, the stop reason and the relative duality gap of ``z``.
        ``gamma = 0``, or a graph with no edge of positive weight, returns the
        input unchanged after a single iteration with ``stop="zero"`` and
        ``gap=0.0``: the total-variation term vanishes, so ``b`` is the
        minimizer.
    """
    b = flat_finite(b, g.node_count, "denoise", "input signal")
    if cfg.gamma == 0.0 or not np.any(g.weights > 0):
        return b.copy(), DenoiseTrace([0.0], "zero", 0.0)
    return _walk(b, g, cfg, shared if shared is not None else _SharedPath(b, g))


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

    The gammas are solved in ascending order, one :func:`denoise` call each,
    on one shared path of unclipped dual steps: a larger weight's box clips
    no earlier, so it mostly walks on where the smaller one left (one that
    stops on the path before that restarts on a path of its own).  Each ``z``
    equals a solve of its own, bit for bit, and only the best one is kept.
    """
    gammas = [float(gm) for gm in gammas]
    if not gammas:
        raise ValueError("gamma sweep needs at least one value")
    b = flat_finite(b, g.node_count, "denoise", "input signal")
    base = cfg if cfg is not None else DenoiseConfig(gamma=0.0)
    path = _SharedPath(b, g) if max(gammas) > 0 and np.any(g.weights > 0) else None  # else denoise takes no step
    best = None  # (score, gamma, z)
    scores: list[float] = [0.0] * len(gammas)
    for i in sorted(range(len(gammas)), key=gammas.__getitem__):
        gm = gammas[i]
        z, _ = denoise(b, g, replace(base, gamma=gm), shared=path)
        scores[i] = score = float(evaluator(z))
        if best is None or (score, gm) < (best[0], best[1]):
            best = (score, gm, z)
    return best[1], best[2], scores
