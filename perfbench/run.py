"""Benchmark runner for the gtvtomo pipeline.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1-shepp-art --seed 1 --seconds 30 --trace 0

Imports gtvtomo from the checkout's ``src/`` (and from nowhere else), sets the
workload up several times, each time importing gtvtomo afresh, then runs
whole rounds of units of work until ``--seconds`` have passed, checking every
unit's outputs.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics,
including the tracing overhead, and writes every span to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("table1-shepp-art", "table1-smooth-sirt", "cli-stages")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_program():
    """Import gtvtomo from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gtvtomo

    where = Path(gtvtomo.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"gtvtomo imported from {where}, not from {src}")
    return gtvtomo


def _forget_program():
    """Drop gtvtomo and the benchmark module bound to it, so the next import runs them again.

    numpy and scipy stay loaded: compiled extensions cannot be imported twice
    in one process.
    """
    for name in [n for n in sys.modules if n in ("gtvtomo", "workloads") or n.startswith("gtvtomo.")]:
        del sys.modules[name]


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return found
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def _environment() -> dict:
    import numpy
    import scipy

    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "process_threads": threads,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import gtvtomo from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import calibrate
    import tracing

    import_s = time.perf_counter() - T0

    out_root = ROOT / ".bench_out"
    workdir = out_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    capture = tracing.Capture()
    tracer = tracing.Tracer(T0) if args.trace else None
    try:
        # One set-up is gtvtomo's import (its own modules, which run again
        # each time) plus the workload's shared state.  It lasts a fraction
        # of a second, so the kernel timed just before it gives its speed.
        setup_times, setup_scales, setup_roots = [], [], []
        for _ in range(SETUP_REPEATS):
            wl = None  # release the previous set-up's state before collecting
            _forget_program()
            gc.collect()
            setup_scales.append(calibrate.REFERENCE_S / calibrate.measure())
            if tracer:
                setup_roots.append(len(tracer.spans))
                root = tracer.open("bench.setup")
            t = time.perf_counter()
            workloads = importlib.import_module("workloads")
            wl = workloads.WORKLOADS[args.workload](args.seed, workdir, capture)
            if tracer:
                tracer.install()
            wl.setup()
            setup_times.append(time.perf_counter() - t)
            if tracer:
                tracer.uninstall()
                tracer.close(root)
        capture.install()

        unit_times = {False: [], True: []}
        unit_scales = {False: [], True: []}
        check_times = []
        unit_roots = []
        attempted = failed = 0
        started = time.perf_counter()
        rnd = 0
        while True:
            traced = tracer is not None and rnd % 2 == 1
            if traced:
                tracer.install()
            for u in range(wl.units_per_round):
                k = rnd * wl.units_per_round + u
                attempted += 1
                # Drop the previous unit's outputs first, so that they neither
                # add to this unit's peak memory nor get collected inside it.
                out = capture.projector = capture.graph = None
                gc.collect()
                before = calibrate.measure()
                if traced:
                    unit_roots.append(len(tracer.spans))
                    root = tracer.open("bench.unit")
                t = time.perf_counter()
                try:
                    out = wl.unit(k)
                except Exception:  # a unit the program could not finish is a failed operation
                    traceback.print_exc()
                    out = None
                finally:
                    elapsed = time.perf_counter() - t
                    if traced:
                        tracer.close(root)
                # The machine's speed can change within a unit, so the kernel
                # is timed on both sides of it.
                after = calibrate.measure()
                unit_times[traced].append(elapsed)
                unit_scales[traced].append(calibrate.REFERENCE_S / ((before + after) / 2))
                if out is None:
                    failed += 1
                    continue
                if traced:
                    tracer.uninstall()
                t = time.perf_counter()
                try:
                    problems = wl.check(out)
                except Exception as exc:  # a check that cannot read the outputs fails the unit
                    traceback.print_exc()
                    problems = [f"check raised {exc!r}"]
                check_times.append(time.perf_counter() - t)
                if traced:
                    tracer.install()
                if problems:
                    failed += 1
                    print(f"unit {k}: " + "; ".join(problems), file=sys.stderr)
            if traced:
                tracer.uninstall()
            rnd += 1
            if time.perf_counter() - started >= args.seconds and (tracer is None or rnd >= 2):
                break
        capture.uninstall()

        env = _environment()
        print(json.dumps({"env": env}))
        print(json.dumps({
            "raw_unit_s": {"untraced": unit_times[False], "traced": unit_times[True]},
            "speed_scale": {"untraced": unit_scales[False], "traced": unit_scales[True], "setup": setup_scales},
            "raw_import_s": import_s,
            "raw_setup_s": setup_times,
            "check_s": check_times,
        }))
        if tracer is None:
            metrics = {
                "setup_s": _metric(_scaled_median(setup_times, setup_scales), "s"),
                "experiment_s": _metric(_scaled_median(unit_times[False], unit_scales[False]), "s"),
                "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        else:
            metrics = _layer_report(
                tracer, tracing, unit_roots, unit_scales, setup_roots, setup_scales, unit_times, import_s
            )
            spans_path = out_root / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans_path, {"workload": args.workload, "seed": args.seed, "env": env})
            print(json.dumps({"spans": str(spans_path.relative_to(ROOT)), "count": len(tracer.spans)}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _scaled_median(times, scales) -> float:
    """Median of the times, each scaled to the reference machine speed by its own factor."""
    return statistics.median(t * s for t, s in zip(times, scales))


def _layer_report(tracer, tracing, unit_roots, unit_scales, setup_roots, setup_scales, unit_times, import_s) -> dict:
    """Median over traced units of each per-layer metric, plus tracing overhead.

    Times are scaled to the reference machine speed like ``experiment_s``.
    A metric that is zero in every unit but not in set-up (the shared
    projector of the table1 workloads) is reported per set-up instead.
    """
    derived = ("trace.untraced_unit_s", "trace.speed_scale", "setup.cold_import_s")
    cost = tracing.call_cost()

    def scaled(phase: dict, scale: float) -> dict:
        return {
            name: phase[name] * scale if unit in ("s", "ms", "us") else phase[name]
            for name, unit in tracing.PER_LAYER
            if name not in derived
        }

    per_unit = [scaled(tracing.phase_metrics(tracer.spans, r, cost), s) for r, s in zip(unit_roots, unit_scales[True])]
    per_setup = [scaled(tracing.phase_metrics(tracer.spans, r, cost), s) for r, s in zip(setup_roots, setup_scales)]
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        if name in derived:
            continue
        value = statistics.median(m[name] for m in per_unit)
        if value == 0 and any(m[name] for m in per_setup):
            value = statistics.median(m[name] for m in per_setup)
        metrics[name] = _metric(value, unit)
    untraced = _scaled_median(unit_times[False], unit_scales[False])
    metrics["trace.untraced_unit_s"] = _metric(untraced, "s")
    metrics["trace.speed_scale"] = _metric(statistics.median(unit_scales[True]), "ratio")
    metrics["setup.cold_import_s"] = _metric(import_s * statistics.median(setup_scales), "s")
    # Cross-check only: with a few units per run this difference is mostly noise.
    print(json.dumps({"trace_median_difference_s": metrics["trace.unit_s"]["value"] - untraced}))
    return {name: metrics[name] for name, _ in tracing.PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
