"""Each benchmark check passes on real program output and fails on a corrupted copy.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gtvtomo import (  # noqa: E402
    DenoiseConfig,
    Geometry,
    Image,
    NoiseSpec,
    PatchConfig,
    ProjectionOperator,
    add_noise,
    build_graph,
    build_projector,
    denoise,
    extract_patches,
    forward_project,
    generate_phantom,
)
from gtvtomo.pipeline import ExperimentSpec, run_experiment  # noqa: E402


@pytest.fixture(scope="module")
def small():
    geo = Geometry(16, 23, 12)
    A = build_projector(geo)
    clean = forward_project(A, generate_phantom("shepp-logan", 16))
    noisy = add_noise(clean, NoiseSpec(0.08, seed=3))
    cfg = PatchConfig(3, 4)
    graph = build_graph(extract_patches(noisy, cfg), cfg)
    return A, clean, noisy, graph


def write_raw(path, tag, dims, values):
    with open(path, "wb") as fh:
        fh.write((" ".join([tag] + [str(d) for d in dims]) + "\n").encode())
        fh.write(np.asarray(values, dtype="<f8").tobytes())


def test_projector_row_sums(small):
    A = small[0]
    assert checks.check_projector(A) == []
    bad = A.matrix.copy()
    bad.data[7] *= 1.001
    assert checks.check_projector(ProjectionOperator(bad, A.geometry))


def test_projector_adjoint(small, monkeypatch):
    import gtvtomo

    A = small[0]
    skewed = lambda op, y: Image(op.geometry.n, 1.0001 * (op.transpose_matrix @ y))  # noqa: E731
    monkeypatch.setattr(gtvtomo, "back_project", skewed)
    assert any("adjoint" in f for f in checks.check_projector(A))


def test_noise_level(small):
    _, clean, noisy, _ = small
    assert checks.check_noise_level(clean.values, noisy.values, 0.08) == []
    rescaled = clean.values + 1.001 * (noisy.values - clean.values)
    assert checks.check_noise_level(clean.values, rescaled, 0.08)


def test_knn_graph(small):
    _, _, noisy, g = small
    args = (noisy.grid, 3, 4)
    every = np.arange(g.node_count)
    assert checks.check_knn_graph(*args, g.edge_i, g.edge_j, g.weights, every) == []

    near = checks._nearest(checks.patches(noisy.grid, 3), 0, 4)[0]
    drop = np.flatnonzero((g.edge_i == 0) & (g.edge_j == near))
    keep = np.setdiff1d(np.arange(g.edge_count), drop)
    assert checks.check_knn_graph(*args, g.edge_i[keep], g.edge_j[keep], g.weights[keep], [0])

    far = int(np.setdiff1d(np.arange(1, g.node_count), g.edge_j[g.edge_i == 0])[-1])
    ei, ej = np.append(g.edge_i, 0), np.append(g.edge_j, far)
    assert checks.check_knn_graph(*args, ei, ej, np.append(g.weights, 0.5), [0])

    w = g.weights.copy()
    w[3] *= 1.0 + 1e-6
    assert checks.check_knn_graph(*args, g.edge_i, g.edge_j, w, [0])
    assert checks.check_knn_graph(*args, g.edge_i, g.edge_j, g.weights ** 1.1, [0])


def test_denoised_objective(small):
    _, _, noisy, g = small
    b = noisy.values
    z, _ = denoise(b, g, DenoiseConfig(gamma=0.6))
    edges = (g.edge_i, g.edge_j, g.weights)
    assert checks.check_denoised(b, z, *edges, 0.6) == []
    perturbed = z + 0.5 * np.random.default_rng(0).standard_normal(z.size)
    assert checks.check_denoised(b, perturbed, *edges, 0.6)


def test_best_gamma():
    scores = [(0.0, 3.0), (0.1, 2.0), (1.0, 2.0), (10.0, 4.0)]
    assert checks.check_best_gamma(scores, 0.1) == []
    assert checks.check_best_gamma(scores, 1.0)


def test_final_error_and_fbp_order():
    rng = np.random.default_rng(1)
    truth, img = rng.random(64), rng.random(64)
    err = float(np.linalg.norm(img - truth))
    assert checks.check_final_error(err, img, truth, "x") == []
    assert checks.check_final_error(err, img + 1e-6, truth, "x")
    good = {"fbp": {"raw": {"min_error": 2.0}, "gd": {"min_error": 1.5}}}
    assert checks.check_fbp_order(good) == []
    good["fbp"]["gd"]["min_error"] = 2.5
    assert checks.check_fbp_order(good)


def test_reconstruction(small):
    A, clean, _, _ = small
    truth = generate_phantom("shepp-logan", 16).pixels
    sino = clean.values
    assert checks.check_reconstruction(A.matrix, truth, sino, truth, 0.0, "x") == []
    zero = np.zeros_like(truth)
    fails = checks.check_reconstruction(A.matrix, zero, sino, truth, float(np.linalg.norm(truth)), "x")
    assert any("residual" in f for f in fails) and any("min error" in f for f in fails)
    assert checks.check_reconstruction(A.matrix, 1.5 * truth, sino, truth, 0.0, "x")


@pytest.fixture()
def capture():
    cap = tracing.Capture()
    cap.install()
    yield cap
    cap.uninstall()


def test_experiment_checks(tmp_path, capture):
    spec = ExperimentSpec(
        phantom="smooth", n=16, rays=23, num_angles=12, gammas=(0.0, 0.1, 1.0),
        methods=("fbp", "sirt"), sirt_iterations=200, seed=2, output_dir=str(tmp_path),
    )
    summary = run_experiment(spec)
    args = (spec, summary, capture.projector, capture.graph, 0)
    assert workloads.check_experiment(*args) == []
    _, img = checks.read_raw(tmp_path / "recon_sirt_gd.img", "IMG")
    write_raw(tmp_path / "recon_sirt_gd.img", "IMG", [16], img + 1e-3)
    assert any("sirt/gd" in f for f in workloads.check_experiment(*args))
    write_raw(tmp_path / "recon_art_raw.img", "IMG", [16], np.zeros_like(img))
    summary["methods"]["art"] = {"raw": {"final_error": float(np.linalg.norm(img)), "min_error": 0.0}}
    assert any("art/raw: relative data residual" in f for f in workloads.check_experiment(*args))


def test_cli_checks(tmp_path, capture):
    wl = workloads.CliStages(7, tmp_path, capture)
    wl.setup()
    out = wl.unit(0)
    assert wl.check(out) == []
    seed, codes, printed = out
    assert wl.check((seed, [0, 0, 2, 0, 0, 0], printed)) == ["noise exited with 2"]

    d = wl.dir
    saved = {name: (d / name).read_bytes() for name in ("rec_fbp.img", "trace.csv", "edges.csv")}
    _, img = checks.read_raw(d / "rec_fbp.img", "IMG")
    write_raw(d / "rec_fbp.img", "IMG", [64], img * 1.01)
    assert any("fbp" in f for f in wl.check(out))
    (d / "rec_fbp.img").write_bytes(saved["rec_fbp.img"])

    lines = saved["trace.csv"].decode().splitlines()
    last_iter, last_val = lines[-1].split(",")
    lines[-1] = f"{last_iter},{float(last_val) * 1.001!r}"
    (d / "trace.csv").write_text("\n".join(lines) + "\n")
    assert any("traced objective" in f for f in wl.check(out))
    (d / "trace.csv").write_bytes(saved["trace.csv"])

    (p, q), noisy = checks.read_raw(d / "noisy.sino", "SINO")
    i = int(checks.graph_sample(p * q, workloads.GRAPH_SAMPLE, seed)[0])
    j = int(checks._nearest(checks.patches(noisy.reshape(p, q), 3), i, 10)[0])
    edge_lines = saved["edges.csv"].decode().splitlines()
    kept = [line for line in edge_lines if not line.startswith(f"{min(i, j)},{max(i, j)},")]
    assert len(kept) == len(edge_lines) - 1
    (d / "edges.csv").write_text("\n".join(kept) + "\n")
    assert any("not edges" in f for f in wl.check(out))
    (d / "edges.csv").write_bytes(saved["edges.csv"])
    assert wl.check(out) == []


def test_tracer_accounts_for_the_unit(tmp_path):
    spec = ExperimentSpec(
        phantom="smooth", n=16, rays=23, num_angles=12, gammas=(0.0, 0.1, 1.0),
        methods=("fbp", "sirt"), sirt_iterations=20, output_dir=str(tmp_path),
    )
    import gtvtomo.pipeline as gp

    original = gp.run_experiment
    tracer = tracing.Tracer(time.perf_counter())
    tracer.install()
    try:
        root = tracer.open("bench.unit")
        gp.run_experiment(spec)
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert gp.run_experiment is original
    m = tracing.phase_metrics(tracer.spans, 0, tracing.call_cost())
    assert m["gtv_denoise.calls"] == 3 and m["recon.fbp_calls"] == 5
    assert m["patch_graph.nodes"] == 23 * 12 and m["recon.sirt_iter_ms"] > 0
    written_by_pipeline = {"gamma_scores.csv", "summary.csv", "summary.txt"}
    assert m["serialize.bytes_written"] == sum(
        f.stat().st_size for f in tmp_path.iterdir() if f.name not in written_by_pipeline
    )
    assert 0.99 < m["trace.coverage"] <= 1.0
