"""Desk-scale parallel-beam CT toolkit.

Pipeline: generate a phantom, forward project it with a sparse ray-traced
operator, corrupt the sinogram with relative Gaussian noise, denoise it with
total-variation regularization on a nonlocal patch graph, and reconstruct
with FBP, ART (Kaczmarz) or SIRT (Cimmino), tracking per-iteration errors.
"""

from gtvtomo.phantoms import Image, PHANTOM_KINDS, generate_phantom
from gtvtomo.projector import (
    Geometry,
    ProjectionOperator,
    Sinogram,
    back_project,
    build_projector,
    forward_project,
)
from gtvtomo.noise import NoiseSpec, add_noise
from gtvtomo.patch_graph import (
    PatchConfig,
    PatchGraph,
    build_graph,
    extract_patches,
    graph_divergence,
    graph_from_edges,
    graph_gradient,
    spectral_norm,
)
from gtvtomo.gtv_denoise import (
    DenoiseConfig,
    DenoiseTrace,
    denoise,
    gamma_sweep,
    objective,
)
from gtvtomo.metrics import (
    ErrorCurve,
    l2_error,
    min_error,
    profile,
)
from gtvtomo.recon import (
    ArtConfig,
    DivergenceError,
    FbpConfig,
    SirtConfig,
    art,
    fbp,
    sirt,
)
from gtvtomo.pipeline import ExperimentSpec, run_experiment, run_table1

__version__ = "0.1.0"

__all__ = [
    "ArtConfig",
    "DenoiseConfig",
    "DenoiseTrace",
    "DivergenceError",
    "ErrorCurve",
    "ExperimentSpec",
    "FbpConfig",
    "Geometry",
    "Image",
    "NoiseSpec",
    "PHANTOM_KINDS",
    "PatchConfig",
    "PatchGraph",
    "ProjectionOperator",
    "Sinogram",
    "SirtConfig",
    "add_noise",
    "art",
    "back_project",
    "build_graph",
    "build_projector",
    "denoise",
    "extract_patches",
    "fbp",
    "forward_project",
    "gamma_sweep",
    "generate_phantom",
    "graph_divergence",
    "graph_from_edges",
    "graph_gradient",
    "l2_error",
    "min_error",
    "objective",
    "profile",
    "run_experiment",
    "run_table1",
    "sirt",
    "spectral_norm",
]
