"""End-to-end experiments: denoise a noisy sinogram, reconstruct both ways.

:func:`run_experiment` executes the two-step pipeline for one phantom in three
stages.  The front end forward projects, adds noise, builds the patch graph and
picks the regularization weight by sweep (scored by FBP error against the known
phantom).  The solves reconstruct with every requested method from the raw noisy
sinogram and from the graph-denoised one.  Only then do the writers create the
output directory and write every artifact and a summary table.

:func:`run_table1` runs the built-in four-row benchmark (Shepp-Logan and
smooth phantoms at relative noise 0.05 and 0.08) averaged over seeds and
formats the per-method minimum errors side by side, raw vs graph-denoised.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from gtvtomo.gtv_denoise import DenoiseConfig, gamma_sweep
from gtvtomo.metrics import ErrorCurve, l2_error, l2_norm, min_error, profile
from gtvtomo.noise import NoiseSpec, add_noise
from gtvtomo.patch_graph import PatchConfig, build_graph, extract_patches
from gtvtomo.phantoms import PHANTOM_KINDS, generate_phantom
from gtvtomo.projector import Geometry, Sinogram, build_projector, forward_project
from gtvtomo.recon import ArtConfig, FbpConfig, SirtConfig, art, fbp, sirt
from gtvtomo.serialize import (
    write_csv,
    write_curve_csv,
    write_image_pgm,
    write_image_raw,
    write_profile_csv,
    write_sinogram_raw,
)

METHODS = ("fbp", "art", "sirt")
BRANCHES = ("raw", "gd")


def _known_method(method: str) -> str:
    """``method`` itself if it is one of :data:`METHODS`; a ValueError naming it otherwise."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return method


def default_gamma_grid() -> list[float]:
    """0 plus 21 log-spaced points up to 20; brackets useful weights at desk scale."""
    return [0.0] + [float(v) for v in np.logspace(-3, np.log10(20.0), 21)]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one pipeline run needs; defaults match the desk-scale setup.

    Stage settings default to their config classes' defaults; :attr:`stages` holds them, built and so
    checked with the spec.  ``gammas`` and ``methods`` are stored as tuples, so a spec hashes.
    """

    phantom: str = "shepp-logan"
    n: int = 64
    rays: int = 95
    num_angles: int = 36
    detector_span: float | None = Geometry.detector_span
    noise_level: float = 0.08
    patch_side: int = PatchConfig.patch_side
    neighbors: int = PatchConfig.k
    gammas: tuple[float, ...] = tuple(default_gamma_grid())
    methods: tuple[str, ...] = ("fbp", "art")
    art_lam: float = ArtConfig.lam
    art_sweeps: int = ArtConfig.sweeps
    sirt_lam: float = SirtConfig.lam
    sirt_iterations: int = SirtConfig.iterations
    fbp_filter: str = FbpConfig.filter_name
    fbp_interpolation: str = FbpConfig.interpolation
    denoise_epsilon: float = DenoiseConfig.epsilon
    denoise_max_iters: int = DenoiseConfig.max_iters
    seed: int = 1
    output_dir: str = "out"

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "methods", tuple(_known_method(str(m)) for m in self.methods))
        if self.phantom not in PHANTOM_KINDS:
            raise ValueError(f"unknown phantom {self.phantom!r}; expected one of {PHANTOM_KINDS}")
        if not self.methods:
            raise ValueError("at least one reconstruction method is required")
        if len(self.gammas) == 0:
            raise ValueError("gamma list must not be empty")
        for name, items in (("method", self.methods), ("gamma", self.gammas)):
            if len(set(items)) < len(items):
                raise ValueError(f"each {name} may be listed once, got {items}")
        denoise_cfg = self.stages["denoise"]
        NoiseSpec(self.noise_level, self.seed)  # seed >= 0 covers the phantom and noise seeds
        for gm in self.gammas:
            replace(denoise_cfg, gamma=gm)  # rejects a negative or non-finite weight

    @cached_property
    def stages(self) -> dict:
        """Geometry, patch, FBP, ART, SIRT and denoiser settings; the sweep sets the denoiser's gamma."""
        return {
            "geometry": Geometry(self.n, self.rays, self.num_angles, self.detector_span),
            "patch": PatchConfig(self.patch_side, self.neighbors),
            "fbp": FbpConfig(self.fbp_filter, self.fbp_interpolation),
            "art": ArtConfig(self.art_lam, self.art_sweeps),
            "sirt": SirtConfig(self.sirt_lam, self.sirt_iterations),
            "denoise": DenoiseConfig(0.0, self.denoise_epsilon, self.denoise_max_iters),
        }


def _coerce(name: str, raw: str):
    """Parse one spec value, from a file line or a CLI flag, into the declared field type.

    Lists are comma-separated and ``detector_span = auto`` means the default
    span.  A bad value raises ValueError naming the key.
    """
    spec_fields = {f.name: f for f in fields(ExperimentSpec)}
    if name not in spec_fields:
        raise ValueError(f"unknown experiment key {name!r}")
    raw = raw.strip()
    items = [p.strip() for p in raw.split(",") if p.strip()]
    ftype = spec_fields[name].type
    if name == "methods":
        return tuple(items)
    if ftype == "str":
        return raw
    if name == "detector_span" and raw.lower() == "auto":
        return None
    try:
        if name == "gammas":
            return tuple(float(i) for i in items)
        return int(raw) if "int" in ftype else float(raw)
    except ValueError:
        kind = "numbers" if name == "gammas" else "an integer" if "int" in ftype else "a number"
        raise ValueError(f"{name}: expected {kind}, got {raw!r}") from None


def parse_spec_file(path) -> dict:
    """Read a flat ``key = value`` spec file (blank lines and # comments ok; each key once)."""
    values: dict = {}
    lines: dict = {}  # the line each key was set on
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key in lines:
                raise ValueError(f"{path}:{lineno}: {key} is already set on line {lines[key]}")
            lines[key] = lineno
            try:
                values[key] = _coerce(key, raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def _projector(geometry: Geometry, projector):
    """``projector`` if it has ``geometry``, a new one if it is None; any other geometry is a ValueError."""
    if projector is None:
        return build_projector(geometry)
    if projector.geometry != geometry:
        raise ValueError(f"projector has {projector.geometry} but the spec asks for {geometry}")
    return projector


def reconstruct(method: str, sino: Sinogram, spec: ExperimentSpec, projector=None, truth=None):
    """Reconstruct with one method and the spec's geometry and settings for it.

    ``sino`` must have the spec's ray and angle counts and ``projector``, if given, its
    geometry.  FBP uses no projector; ART and SIRT build one if none is given.  Returns
    ``(Image, ErrorCurve)`` for every method: given a ``truth`` image, the
    curve holds the l2 error after each ART sweep or SIRT iteration, or FBP's
    one error; without one it is empty.
    """
    geometry, cfg = spec.stages["geometry"], spec.stages[_known_method(method)]
    if method == "fbp":
        if projector is not None:
            _projector(geometry, projector)  # checked, though FBP does not use it
        img = fbp(sino, geometry, cfg)
        return img, ErrorCurve(np.array([l2_error(img, truth)] if truth is not None else []))
    if (sino.p, sino.q) != (geometry.p, geometry.q):
        raise ValueError(f"sinogram is {sino.p}x{sino.q} but geometry expects {geometry.p}x{geometry.q}")
    A = _projector(geometry, projector)
    tracker = (lambda xv: l2_error(xv, truth)) if truth is not None else None
    return (art if method == "art" else sirt)(A, sino.values, cfg, tracker=tracker)


def _front_end(spec: ExperimentSpec, A):
    """Phantom, sinograms, patch graph and gamma sweep (the graph is freed on return); returns the
    truth, the clean sinogram, the branches ``{"raw": noisy, "gd": denoised}`` and the record's scalar keys."""
    truth = generate_phantom(spec.phantom, spec.n, spec.seed)
    clean = forward_project(A, truth)
    noisy = add_noise(clean, NoiseSpec(spec.noise_level, spec.seed + 1))

    pcfg = spec.stages["patch"]
    graph = build_graph(extract_patches(noisy, pcfg), pcfg)

    def fbp_score(z):
        return reconstruct("fbp", Sinogram(spec.rays, spec.num_angles, z), spec, truth=truth)[1].values[0]

    best_gamma, best_z, scores = gamma_sweep(noisy.values, graph, spec.gammas, fbp_score, spec.stages["denoise"])
    denoised = Sinogram(spec.rays, spec.num_angles, best_z)

    clean_norm = l2_norm(clean.values)
    rel_noisy, rel_denoised = (
        l2_error(s.values, clean.values) / clean_norm if clean_norm else 0.0
        for s in (noisy, denoised)
    )
    record = {
        "best_gamma": best_gamma,
        "gamma_scores": list(zip(spec.gammas, scores)),
        "noisy_rel_error": rel_noisy,
        "denoised_rel_error": rel_denoised,
    }
    return truth, clean, {"raw": noisy, "gd": denoised}, record


def _write(spec: ExperimentSpec, truth, clean, branches: dict, record: dict, recons: dict) -> dict:
    """Create the output directory, write every artifact; return ``record`` with its ``methods``."""
    outdir = Path(spec.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_image_raw(truth, outdir / "phantom.img")
    write_image_pgm(truth, outdir / "phantom.pgm")
    write_sinogram_raw(clean, outdir / "sino_clean.sino")
    write_sinogram_raw(branches["raw"], outdir / "sino_noisy.sino")
    write_sinogram_raw(branches["gd"], outdir / "sino_denoised.sino")
    write_csv(record["gamma_scores"], outdir / "gamma_scores.csv", ("gamma", "score"))
    write_profile_csv(profile(truth), outdir / "profile_truth.csv")

    results: dict = {}
    for (method, branch), (img, curve) in recons.items():
        arg, best = min_error(curve)
        row = {
            "phantom": spec.phantom,
            "n": spec.n,
            "noise_level": spec.noise_level,
            "seed": spec.seed,
            "best_gamma": record["best_gamma"],
            "method": method,
            "branch": branch,
            "final_error": float(curve.values[-1]),
            "min_error": best,
            "argmin_iteration": arg,
        }
        results.setdefault(method, {})[branch] = row
        tag = f"{method}_{branch}"
        write_image_raw(img, outdir / f"recon_{tag}.img")
        write_image_pgm(img, outdir / f"recon_{tag}.pgm")
        if method != "fbp":
            write_curve_csv(curve.values, outdir / f"curve_{tag}.csv")
        write_profile_csv(profile(img), outdir / f"profile_{tag}.csv")
    rows = [row for by_branch in results.values() for row in by_branch.values()]
    write_csv([row.values() for row in rows], outdir / "summary.csv", rows[0].keys())

    with open(outdir / "summary.txt", "w") as fh:
        fh.write(f"phantom={spec.phantom} n={spec.n} noise={spec.noise_level} seed={spec.seed}\n")
        fh.write(f"relative error: noisy={record['noisy_rel_error']:.6f} denoised={record['denoised_rel_error']:.6f}\n")
        fh.write(f"best gamma: {record['best_gamma']!r}\n")
        fh.write(f"{'method':<8}{'branch':<8}{'final':>14}{'min':>14}{'argmin':>8}\n")
        for row in rows:
            fh.write(
                f"{row['method']:<8}{row['branch']:<8}"
                f"{row['final_error']:>14.6f}{row['min_error']:>14.6f}"
                f"{row['argmin_iteration']:>8d}\n"
            )
    return {**record, "methods": results}


def run_experiment(spec: ExperimentSpec, projector=None) -> dict:
    """Execute the two-step pipeline and write artifacts to spec.output_dir.

    A ``projector`` must have the spec's geometry; without one, one is
    built.  Returns a JSON-serializable record with the chosen gamma, the sweep
    scores and, as ``methods[method][branch]``, that branch's row of ``summary.csv``.
    The record is deterministic for a fixed spec.  Every reconstruction runs
    before the output directory is created, so a spec the data cannot
    satisfy (a patch or neighbor count too large, FBP on one ray) or a
    solver that diverges leaves nothing behind.  ``curve_*.csv`` is written
    per iterative method and branch, at every budget.
    """
    A = _projector(spec.stages["geometry"], projector)
    truth, clean, branches, record = _front_end(spec, A)
    recons = {(m, br): reconstruct(m, sino, spec, A, truth) for m in spec.methods for br, sino in branches.items()}
    return _write(spec, truth, clean, branches, record, recons)


def _seed_stats(values: list[float]) -> dict:
    """One table1 cell: mean and population std of the per-seed values."""
    return {"mean": float(np.mean(values)), "std": float(np.std(values)), "values": values}


# Built-in benchmark rows: phantom, noise level, iterative method to pair with FBP.
TABLE1_ROWS = (
    ("shepp-logan", 0.05, "art"),
    ("shepp-logan", 0.08, "art"),
    ("smooth", 0.05, "sirt"),
    ("smooth", 0.08, "sirt"),
)


def run_table1(
    output_dir,
    seeds,
    base: ExperimentSpec | None = None,
    noise_override: float | None = None,
) -> dict:
    """Four-row raw-vs-denoised benchmark, averaged over seeds.

    Each row runs FBP plus one iterative method (ART for Shepp-Logan rows,
    SIRT for smooth rows) on both the noisy and the graph-denoised sinogram;
    the table reports the per-method minimum l2 error, mean and standard
    deviation over seeds.  ``noise_override`` replaces every row's noise
    level (useful for sanity checks at level 0).  Returns the table record
    and writes table1.csv and table1.txt.
    """
    seeds = list(seeds)
    if not_int := [s for s in seeds if not isinstance(s, (int, np.integer))]:
        raise ValueError(f"seeds must be integers, got {not_int[0]!r}")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"each seed may be listed once, got {seeds}")
    base = base if base is not None else ExperimentSpec()
    # Every spec is built, and so checked, before any projector exists.
    row_specs = []
    for phantom, noise_level, iter_method in TABLE1_ROWS:
        level = noise_level if noise_override is None else noise_override
        row = replace(base, phantom=phantom, noise_level=level, methods=("fbp", iter_method))
        rowdir = Path(output_dir) / f"{phantom}_rn{int(round(level * 100)):02d}"
        row_specs.append([replace(row, seed=seed, output_dir=str(rowdir / f"seed_{seed}")) for seed in seeds])
    projector = build_projector(base.stages["geometry"])

    # With noise_override, a phantom's two rows share their specs, so each distinct spec runs once.
    distinct = dict.fromkeys(spec for specs in row_specs for spec in specs)
    runs = {spec: run_experiment(spec, projector=projector)["methods"] for spec in distinct}
    rows = []
    for (phantom, _, iter_method), specs in zip(TABLE1_ROWS, row_specs):
        cells = {
            m: {br: _seed_stats([runs[spec][m][br]["min_error"] for spec in specs]) for br in BRANCHES}
            for m in ("fbp", iter_method)
        }
        rows.append(dict(phantom=phantom, noise_level=specs[0].noise_level, iter_method=iter_method, cells=cells))

    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    table_csv = outdir / "table1.csv"
    write_csv(
        (
            (row["phantom"], float(row["noise_level"]), m, br, cell["mean"], cell["std"], len(seeds))
            for row in rows
            for m, branch_cells in row["cells"].items()
            for br, cell in branch_cells.items()
        ),
        table_csv,
        ("phantom", "noise_level", "method", "branch", "mean_min_error", "std_min_error", "seeds"),
    )

    table_txt = outdir / "table1.txt"
    with open(table_txt, "w") as fh:
        fh.write("Raw vs graph-denoised (GD) reconstruction, min l2 error over iterations\n")
        fh.write(f"mean over seeds {seeds} (std in parentheses)\n\n")
        for row in rows:
            m = row["iter_method"].upper()
            fh.write(f"{'Phantom':<24}{'FBP':>14}{'FBP-GD':>14}{m:>14}{m + '-GD':>14}\n")
            label = f"{row['phantom']} (RN={row['noise_level']:.2f})"
            means, stds = f"{label:<24}", f"{'':<24}"
            for cell in (c for branch_cells in row["cells"].values() for c in branch_cells.values()):
                means += f"{cell['mean']:>14.4f}"
                stds += f"{'(' + format(cell['std'], '.4f') + ')':>14}"
            fh.write(f"{means}\n{stds}\n\n")

    return {"rows": rows, "csv": str(table_csv), "txt": str(table_txt), "seeds": seeds}
