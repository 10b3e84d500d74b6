"""The benchmark's workloads: shared set-up, one unit of work, and its checks.

A workload runs in rounds of ``units_per_round`` units; unit ``k`` of a run
is fully determined by the workload, the run's ``--seed`` and ``k``.  Every
call into gtvtomo goes through a module attribute (``gp.run_experiment``,
``gcli.main``) so that the tracer's rebinding is seen.
"""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
import gtvtomo.cli as gcli
import gtvtomo.pipeline as gp
import gtvtomo.projector as gproj

# table1's default seed list; the table1 workloads cycle through it.
TABLE1_SEEDS = (1, 2, 3, 4, 5)
# Nodes whose neighbourhoods are brute-forced per unit.
GRAPH_SAMPLE = 24


def check_experiment(spec, summary, projector, graph, unit_seed: int) -> list[str]:
    """Checks on one run_experiment: its return record and the files it wrote."""
    out = Path(spec.output_dir)
    fails = checks.check_projector(projector, seed=unit_seed)
    _, truth = checks.read_raw(out / "phantom.img", "IMG")
    (p, q), clean = checks.read_raw(out / "sino_clean.sino", "SINO")
    _, noisy = checks.read_raw(out / "sino_noisy.sino", "SINO")
    _, denoised = checks.read_raw(out / "sino_denoised.sino", "SINO")
    fails += checks.check_noise_level(clean, noisy, spec.noise_level)
    sample = checks.graph_sample(p * q, GRAPH_SAMPLE, unit_seed)
    fails += checks.check_knn_graph(
        noisy.reshape(p, q), spec.patch_side, spec.neighbors,
        graph.edge_i, graph.edge_j, graph.weights, sample,
    )
    fails += checks.check_denoised(
        noisy, denoised, graph.edge_i, graph.edge_j, graph.weights, summary["best_gamma"]
    )
    fails += checks.check_best_gamma(summary["gamma_scores"], summary["best_gamma"])
    fails += checks.check_fbp_order(summary["methods"])
    sinos = {"raw": noisy, "gd": denoised}
    for method, branches in summary["methods"].items():
        for branch, rec in branches.items():
            label = f"{method}/{branch}"
            _, img = checks.read_raw(out / f"recon_{method}_{branch}.img", "IMG")
            fails += checks.check_final_error(rec["final_error"], img, truth, label)
            fails += checks.check_reconstruction(projector.matrix, img, sinos[branch], truth, rec["min_error"], label)
    return fails


class Table1Rows:
    """Two rows of table1 (one phantom, noise 0.05 and 0.08) with one shared projector."""

    def __init__(self, phantom: str, seed: int, workdir: Path, capture):
        self.rows = [row for row in gp.TABLE1_ROWS if row[0] == phantom]
        self.units_per_round = len(self.rows)
        self.seed = seed
        self.workdir = workdir
        self.capture = capture
        self.base = gp.ExperimentSpec()
        self.projector = None

    def setup(self):
        b = self.base
        self.projector = gproj.build_projector(gproj.Geometry(b.n, b.rays, b.num_angles, b.detector_span))

    def unit(self, k: int):
        phantom, level, method = self.rows[k % len(self.rows)]
        seed = TABLE1_SEEDS[(self.seed + k // len(self.rows)) % len(TABLE1_SEEDS)]
        spec = replace(
            self.base,
            phantom=phantom,
            noise_level=level,
            methods=("fbp", method),
            seed=seed,
            output_dir=str(self.workdir / "experiment"),
        )
        return spec, gp.run_experiment(spec, projector=self.projector)

    def check(self, out) -> list[str]:
        spec, summary = out
        return check_experiment(spec, summary, self.projector, self.capture.graph, spec.seed)


class CliStages:
    """The README's stage-by-stage chain through gtvtomo.cli.main, in-process."""

    units_per_round = 1
    GAMMA = 0.6
    LEVEL = 0.08

    def __init__(self, seed: int, workdir: Path, capture):
        self.seed = seed
        self.dir = workdir / "cli"
        self.capture = capture

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)

    def _stages(self, seed: int):
        f = lambda name: str(self.dir / name)  # noqa: E731
        return [
            ["phantom", "--kind", "shepp-logan", "--n", "64", "--out", f("ph.img"), "--pgm", f("ph.pgm")],
            ["project", "--image", f("ph.img"), "--rays", "95", "--num-angles", "36",
             "--out", f("clean.sino"), "--csv", f("clean.csv")],
            ["noise", "--sino", f("clean.sino"), "--level", repr(self.LEVEL), "--seed", str(seed),
             "--out", f("noisy.sino")],
            ["denoise", "--sino", f("noisy.sino"), "--gamma", repr(self.GAMMA), "--out", f("denoised.sino"),
             "--trace", f("trace.csv"), "--edges", f("edges.csv")],
            ["reconstruct", "--sino", f("denoised.sino"), "--n", "64", "--method", "sirt",
             "--truth", f("ph.img"), "--curve", f("curve.csv"), "--out", f("rec_sirt.img")],
            ["reconstruct", "--sino", f("denoised.sino"), "--n", "64", "--method", "fbp",
             "--truth", f("ph.img"), "--out", f("rec_fbp.img")],
        ]

    def unit(self, k: int):
        seed = 1000 * self.seed + k
        codes, stdout = [], io.StringIO()
        with contextlib.redirect_stdout(stdout):
            for argv in self._stages(seed):
                codes.append(gcli.main(argv))
        return seed, codes, stdout.getvalue()

    def check(self, out) -> list[str]:
        seed, codes, printed = out
        stages = self._stages(seed)
        fails = [f"{argv[0]} exited with {code}" for argv, code in zip(stages, codes) if code != 0]
        if fails:
            return fails
        d = self.dir
        fails += checks.check_projector(self.capture.projector, seed=seed)
        _, truth = checks.read_raw(d / "ph.img", "IMG")
        (p, q), clean = checks.read_raw(d / "clean.sino", "SINO")
        _, noisy = checks.read_raw(d / "noisy.sino", "SINO")
        _, denoised = checks.read_raw(d / "denoised.sino", "SINO")
        if not np.array_equal(checks.read_csv(d / "clean.csv", header=False).ravel(), clean):
            fails.append("sinogram CSV view differs from the raw sinogram")
        fails += checks.check_noise_level(clean, noisy, self.LEVEL)
        edges = checks.read_csv(d / "edges.csv")
        ei, ej, w = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64), edges[:, 2]
        sample = checks.graph_sample(p * q, GRAPH_SAMPLE, seed)
        fails += checks.check_knn_graph(noisy.reshape(p, q), 3, 10, ei, ej, w, sample)
        fails += checks.check_denoised(noisy, denoised, ei, ej, w, self.GAMMA)
        last = checks.read_csv(d / "trace.csv")[-1, 1]
        final = checks.gtv_objective(noisy, denoised, ei, ej, w, self.GAMMA)
        if not np.isclose(last, final, rtol=checks.ROUNDING, atol=0.0):
            fails.append(f"last traced objective {last!r} is not the objective of the output ({final!r})")
        _, sirt_img = checks.read_raw(d / "rec_sirt.img", "IMG")
        curve = checks.read_csv(d / "curve.csv")[:, 1]
        fails += checks.check_final_error(curve[-1], sirt_img, truth, "sirt")
        matrix = self.capture.projector.matrix
        fails += checks.check_reconstruction(matrix, sirt_img, denoised, truth, float(curve.min()), "sirt")
        _, fbp_img = checks.read_raw(d / "rec_fbp.img", "IMG")
        fbp_error = float(np.linalg.norm(fbp_img - truth))
        fails += checks.check_reconstruction(matrix, fbp_img, denoised, truth, fbp_error, "fbp")
        printed_errors = [float(v) for v in re.findall(r"l2 error: (\S+)", printed)]
        if len(printed_errors) != 2:
            fails.append(f"expected two printed l2 errors, got {printed_errors}")
        else:
            for label, img, shown in (("sirt", sirt_img, printed_errors[0]), ("fbp", fbp_img, printed_errors[1])):
                actual = float(np.linalg.norm(img - truth))
                if abs(shown - actual) > 5e-7:
                    fails.append(f"{label}: printed l2 error {shown} but the written image has {actual!r}")
        return fails


WORKLOADS = {
    "table1-shepp-art": lambda seed, wd, cap: Table1Rows("shepp-logan", seed, wd, cap),
    "table1-smooth-sirt": lambda seed, wd, cap: Table1Rows("smooth", seed, wd, cap),
    "cli-stages": CliStages,
}
