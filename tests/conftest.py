import numpy as np
import pytest

import gtvtomo
from gtvtomo import (
    Geometry,
    NoiseSpec,
    add_noise,
    build_projector,
    forward_project,
    generate_phantom,
)


def pytest_report_header(config):
    # pyproject's pythonpath puts this checkout's src first, ahead of PYTHONPATH
    return f"gtvtomo: {gtvtomo.__file__}"


@pytest.fixture(scope="session")
def geometry64():
    return Geometry(64, 95, 36)


@pytest.fixture(scope="session")
def projector64(geometry64):
    return build_projector(geometry64)


@pytest.fixture(scope="session")
def shepp64():
    return generate_phantom("shepp-logan", 64)


@pytest.fixture(scope="session")
def sino64_clean(projector64, shepp64):
    return forward_project(projector64, shepp64)


@pytest.fixture(scope="session")
def sino64_noisy(sino64_clean):
    return add_noise(sino64_clean, NoiseSpec(0.08, 2))


@pytest.fixture(scope="session")
def graph64_noisy(sino64_noisy):
    from gtvtomo import PatchConfig, build_graph, extract_patches

    cfg = PatchConfig(3, 10)
    return build_graph(extract_patches(sino64_noisy, cfg), cfg)


def rel_close(a: float, b: float, tol: float) -> bool:
    """|a - b| within tol relative to the larger magnitude (absolute near zero)."""
    scale = max(abs(a), abs(b), 1e-30)
    return abs(a - b) <= tol * scale


def adjoint_gap(forward_out: np.ndarray, y: np.ndarray, x: np.ndarray, adjoint_out: np.ndarray) -> float:
    """Dot-test residual |<Ax,y> - <x,A*y>| scaled by the summand magnitude.

    Normalizing by ||Ax||*||y|| keeps the test meaningful when the inner
    products themselves nearly cancel.
    """
    lhs = float(forward_out @ y)
    rhs = float(x @ adjoint_out)
    scale = max(
        np.linalg.norm(forward_out) * np.linalg.norm(y),
        np.linalg.norm(x) * np.linalg.norm(adjoint_out),
        1e-30,
    )
    return abs(lhs - rhs) / scale


def normalized_cross_correlation(a: np.ndarray, b: np.ndarray) -> float:
    a = a.ravel()
    b = b.ravel()
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
