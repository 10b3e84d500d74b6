"""Command-line interface.

Subcommands mirror the pipeline stages: ``phantom``, ``project``, ``noise``,
``denoise``, ``reconstruct``, ``experiment`` and ``table1``.  Exit codes:
0 success, 2 invalid arguments or spec, 3 I/O failure, 4 numerical
divergence.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from functools import cache
from pathlib import Path

from gtvtomo.gtv_denoise import denoise
from gtvtomo.noise import NoiseSpec, add_noise
from gtvtomo.patch_graph import build_graph, extract_patches
from gtvtomo.phantoms import PHANTOM_KINDS, generate_phantom
from gtvtomo.pipeline import (
    METHODS,
    ExperimentSpec,
    _coerce,
    parse_spec_file,
    reconstruct,
    run_experiment,
    run_table1,
)
from gtvtomo.projector import Sinogram, build_projector, forward_project
from gtvtomo.recon import FBP_FILTERS, FBP_INTERPOLATIONS, DivergenceError
from gtvtomo.serialize import (
    read_image_raw,
    read_sinogram_raw,
    write_curve_csv,
    write_graph_edges_csv,
    write_image_pgm,
    write_image_raw,
    write_sinogram_csv,
    write_sinogram_raw,
)


_SPEC_FIELDS = tuple(f.name for f in fields(ExperimentSpec))
_CHOICES = {
    "phantom": PHANTOM_KINDS,
    "fbp_filter": FBP_FILTERS,
    "fbp_interpolation": FBP_INTERPOLATIONS,
}
_SIRT_LAM = {"help": "relaxation in units of 1/rho, in (0, 2)"}


def _spec_value(name):
    """argparse type for one ExperimentSpec field: the spec file's value syntax."""

    def parse(raw):
        try:
            return _coerce(name, raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _add_spec_flags(p, names, flags=None, **kwargs):
    """One ``--field-name`` flag per spec field; ``flags`` renames (a tuple gives aliases), ``kwargs`` adds options."""
    for name in names:
        flag = (flags or {}).get(name, "--" + name.replace("_", "-"))
        opts = flag if isinstance(flag, tuple) else (flag,)
        p.add_argument(*opts, dest=name, type=_spec_value(name), choices=_CHOICES.get(name), **kwargs.get(name, {}))


def _spec_from_args(args, **values) -> ExperimentSpec:
    """``values`` overridden by every spec-field flag that was given."""
    values.update({k: getattr(args, k) for k in _SPEC_FIELDS if getattr(args, k, None) is not None})
    return ExperimentSpec(**values)


def int_list(raw):
    """argparse type for comma-separated integers; argparse reports a ValueError by flag."""
    return [int(s) for s in raw.split(",") if s.strip()]


def _add_phantom(sub):
    p = sub.add_parser("phantom", help="generate a test image")
    p.add_argument("--kind", choices=PHANTOM_KINDS, default="shepp-logan")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="raw IMG output path")
    p.add_argument("--pgm", help="also write a PGM preview")
    p.set_defaults(run=_cmd_phantom)


def _add_project(sub):
    p = sub.add_parser("project", help="forward project an image")
    p.add_argument("--image", required=True)
    _add_spec_flags(
        p,
        ("rays", "num_angles", "detector_span"),
        flags={"detector_span": "--span"},
        detector_span={"help": "detector span (default n*sqrt(2))"},
    )
    p.add_argument("--out", required=True, help="raw SINO output path")
    p.add_argument("--csv", help="also write a CSV view (one column per angle)")
    p.set_defaults(run=_cmd_project)


def _add_noise(sub):
    p = sub.add_parser("noise", help="add relative Gaussian noise to a sinogram")
    p.add_argument("--sino", required=True)
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_noise)


def _add_denoise(sub):
    p = sub.add_parser(
        "denoise",
        help="graph total-variation denoising of a sinogram",
        description="The regularization weight multiplies a total variation that counts each unordered pixel pair "
        "once; if your weight was calibrated against a convention summing over ordered pairs, double it here.",
    )
    p.add_argument("--sino", required=True)
    p.add_argument("--gamma", type=float, required=True)
    _add_spec_flags(
        p,
        ("patch_side", "neighbors", "denoise_epsilon", "denoise_max_iters"),
        flags={"denoise_epsilon": "--epsilon", "denoise_max_iters": "--max-iters"},
    )
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="write the objective trace CSV")
    p.add_argument("--edges", help="write the patch-graph edge list CSV")
    p.set_defaults(run=_cmd_denoise)


def _add_reconstruct(sub):
    p = sub.add_parser("reconstruct", help="reconstruct an image from a sinogram")
    p.add_argument("--sino", required=True)
    p.add_argument("--method", choices=METHODS, default="fbp")
    _add_spec_flags(
        p,
        ("n", "detector_span", "fbp_filter", "fbp_interpolation", "art_lam", "art_sweeps",
         "sirt_lam", "sirt_iterations"),
        flags={"detector_span": "--span"},
        n={"required": True, "help": "output image side"},
        sirt_lam=_SIRT_LAM,
    )
    p.add_argument("--truth", help="reference IMG for per-iteration error tracking")
    p.add_argument("--curve", help="write the error curve CSV (needs --truth)")
    p.add_argument("--out", required=True)
    p.add_argument("--pgm", help="also write a PGM preview")
    p.set_defaults(run=_cmd_reconstruct)


def _add_experiment(sub):
    p = sub.add_parser("experiment", help="full raw-vs-denoised pipeline run")
    p.add_argument("--spec", help="flat 'key = value' spec file")
    _add_spec_flags(
        p,
        _SPEC_FIELDS,
        flags={"output_dir": "--out-dir", "detector_span": ("--detector-span", "--span")},
        gammas={"help": "comma-separated weights (default: built-in sweep grid)"},
        methods={"help": "comma-separated subset of fbp,art,sirt"},
        sirt_lam=_SIRT_LAM,
    )
    p.set_defaults(run=_cmd_experiment)


def _add_table1(sub):
    p = sub.add_parser("table1", help="built-in four-row raw-vs-denoised benchmark")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seeds", type=int_list, default="1,2,3,4,5", help="comma-separated seed list")
    _add_spec_flags(
        p,
        ("n", "rays", "num_angles", "gammas", "art_sweeps", "sirt_iterations"),
        gammas={"help": "comma-separated sweep grid override"},
    )
    p.add_argument("--noise-override", type=float, default=None)
    p.set_defaults(run=_cmd_table1)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand and its flags, built at the first call and shared by every later one."""
    parser = argparse.ArgumentParser(prog="gtvtomo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_phantom(sub)
    _add_project(sub)
    _add_noise(sub)
    _add_denoise(sub)
    _add_reconstruct(sub)
    _add_experiment(sub)
    _add_table1(sub)
    return parser


def _cmd_phantom(args) -> int:
    img = generate_phantom(args.kind, args.n, args.seed)
    write_image_raw(img, args.out)
    if args.pgm:
        write_image_pgm(img, args.pgm)
    return 0


def _cmd_project(args) -> int:
    img = read_image_raw(args.image)
    spec = _spec_from_args(args, n=img.n)
    A = build_projector(spec.stages["geometry"])
    sino = forward_project(A, img)
    write_sinogram_raw(sino, args.out)
    if args.csv:
        write_sinogram_csv(sino, args.csv)
    return 0


def _cmd_noise(args) -> int:
    sino = read_sinogram_raw(args.sino)
    write_sinogram_raw(add_noise(sino, NoiseSpec(args.level, args.seed)), args.out)
    return 0


def _cmd_denoise(args) -> int:
    sino = read_sinogram_raw(args.sino)
    spec = _spec_from_args(args)
    cfg = replace(spec.stages["denoise"], gamma=args.gamma)
    pcfg = spec.stages["patch"]
    graph = build_graph(extract_patches(sino, pcfg), pcfg)
    z, trace = denoise(sino.values, graph, cfg)
    write_sinogram_raw(Sinogram(sino.p, sino.q, z), args.out)
    if args.trace:
        write_curve_csv(trace.objective, args.trace, header=("iteration", "objective"))
    if args.edges:
        write_graph_edges_csv(graph, args.edges)
    print(f"denoised in {trace.iterations_run} iterations (stop={trace.stop}, gap={trace.gap!r})")
    return 0


def _cmd_reconstruct(args) -> int:
    if args.curve and (not args.truth or args.method == "fbp"):
        raise ValueError("--curve needs --truth and an iterative method")
    sino = read_sinogram_raw(args.sino)
    spec = _spec_from_args(args, rays=sino.p, num_angles=sino.q)
    truth = read_image_raw(args.truth) if args.truth else None
    if truth is not None and truth.n != spec.n:
        raise ValueError(f"--truth image is {truth.n}x{truth.n} but --n asks for {spec.n}x{spec.n}")
    [(img, curve)] = reconstruct(args.method, [sino], spec, truth=truth)
    write_image_raw(img, args.out)
    if args.pgm:
        write_image_pgm(img, args.pgm)
    if args.curve:
        write_curve_csv(curve.values, args.curve)
    if truth is not None:
        print(f"l2 error: {float(curve.values[-1])!r}")
    return 0


def _cmd_experiment(args) -> int:
    spec = _spec_from_args(args, **(parse_spec_file(args.spec) if args.spec else {}))
    run_experiment(spec)
    print(Path(spec.output_dir, "summary.txt").read_text(), end="")
    return 0


def _cmd_table1(args) -> int:
    record = run_table1(args.out_dir, args.seeds, _spec_from_args(args), noise_override=args.noise_override)
    print(Path(record["txt"]).read_text())
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
