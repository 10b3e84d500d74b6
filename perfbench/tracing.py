"""Spans and counts around the public functions of each gtvtomo module.

Nothing under ``src/`` is edited: :class:`Tracer` rebinds each traced
function, in every ``gtvtomo`` module that imported it, to a wrapper that
records a span (name, start, end, parent) and the counts that belong to that
call, and :meth:`Tracer.uninstall` puts the originals back.  Spans stay in
memory; :func:`phase_metrics` turns the spans of one unit of work into the
per-layer metrics, and :meth:`Tracer.dump` writes them out as JSON lines.

:class:`Capture` is the only wrapper active in untraced runs: it keeps the
last projector and graph the program built so that the output checks can
inspect them, at the cost of one extra Python call per build.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time

import numpy as np

# Functions traced per module.  The fine-grained graph operators
# (graph_gradient, graph_divergence) run once per denoiser iteration and are
# left out: a span there would cost more than the work it measures.
TRACED = {
    "projector": ("build_projector", "forward_project", "back_project"),
    "patch_graph": ("extract_patches", "build_graph", "spectral_norm"),
    "gtv_denoise": ("gamma_sweep", "denoise"),
    "recon": ("fbp", "art", "sirt"),
    "serialize": (
        "write_image_raw",
        "read_image_raw",
        "write_sinogram_raw",
        "read_sinogram_raw",
        "write_image_pgm",
        "write_sinogram_csv",
        "write_curve_csv",
        "read_curve_csv",
        "write_profile_csv",
        "read_profile_csv",
        "write_graph_edges_csv",
    ),
    "phantoms": ("generate_phantom",),
    "noise": ("add_noise",),
    "pipeline": ("run_experiment",),
    "cli": ("main",),
}
LAYERS = tuple(TRACED) + ("bench",)


def _gtvtomo_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "gtvtomo" or name.startswith("gtvtomo.")]


def _rebind(original, make_wrapper):
    """Replace every module-level binding of ``original`` in gtvtomo; return undo records."""
    undo = []
    for mod in _gtvtomo_modules():
        for attr, value in list(vars(mod).items()):
            if callable(value) and inspect.unwrap(value) is original:
                setattr(mod, attr, make_wrapper(value))
                undo.append((mod, attr, value))
    return undo


def _restore(undo):
    for mod, attr, value in reversed(undo):
        setattr(mod, attr, value)


class Capture:
    """Keeps the last projector and patch graph the program built."""

    def __init__(self):
        self.projector = None
        self.graph = None
        self._undo = []

    def install(self):
        from gtvtomo import patch_graph, projector

        self._undo += _rebind(projector.build_projector, lambda fn: self._keep(fn, "projector"))
        self._undo += _rebind(patch_graph.build_graph, lambda fn: self._keep(fn, "graph"))

    def uninstall(self):
        _restore(self._undo)
        self._undo = []

    def _keep(self, fn, slot):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            setattr(self, slot, result)
            return result

        return wrapper


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "marks")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.counts = {}
        self.marks = None

    @property
    def duration(self):
        return self.end - self.start


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self, clock_origin):
        self.origin = clock_origin
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        import importlib

        for layer, names in TRACED.items():
            mod = importlib.import_module(f"gtvtomo.{layer}")
            for fname in names:
                original = inspect.unwrap(getattr(mod, fname))
                self._undo += _rebind(
                    original, lambda fn, n=f"{layer}.{fname}": self._wrap(n, fn)
                )

    def uninstall(self):
        _restore(self._undo)
        self._undo = []

    # -- spans --------------------------------------------------------------

    def open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                if before is not None:
                    args, kwargs = before(span, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    def dump(self, path, header: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for idx, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": s.name,
                            "start": s.start - self.origin,
                            "end": s.end - self.origin,
                            "parent": s.parent,
                            "counts": s.counts,
                        }
                    )
                    + "\n"
                )


# -- per-function hooks: counts and tracker timestamps ------------------------


def _timestamp_tracker(span, args, kwargs):
    """Wrap the solver's tracker so each call marks the end of one sweep/iteration."""
    user = _arg(args, kwargs, 4, "tracker")
    if user is None:
        return args, kwargs
    span.marks = []

    def tracker(x):
        entered = time.perf_counter()
        value = user(x)
        span.marks.append((entered, time.perf_counter()))
        return value

    if "tracker" in kwargs or len(args) <= 4:
        kwargs = dict(kwargs, tracker=tracker)
    else:
        args = args[:4] + (tracker,) + args[5:]
    return args, kwargs


def _count_art(span, args, kwargs, result):
    A, cfg = args[0], _arg(args, kwargs, 2, "cfg")
    span.counts["sweeps"] = cfg.sweeps
    span.counts["row_updates"] = int(np.count_nonzero(A.row_norms_sq > 0)) * cfg.sweeps


def _count_sirt(span, args, kwargs, result):
    span.counts["sirt_iterations"] = _arg(args, kwargs, 2, "cfg").iterations


def _bytes_of(index, name, key):
    def hook(span, args, kwargs, result):
        span.counts[key] = os.path.getsize(_arg(args, kwargs, index, name))

    return hook


_BEFORE = {"recon.art": _timestamp_tracker, "recon.sirt": _timestamp_tracker}
_AFTER = {
    "projector.build_projector": lambda s, a, k, r: s.counts.update(nnz=int(r.matrix.nnz)),
    "patch_graph.build_graph": lambda s, a, k, r: s.counts.update(
        nodes=int(r.node_count), edges=int(r.edge_count)
    ),
    "gtv_denoise.denoise": lambda s, a, k, r: s.counts.update(iterations=int(r[1].iterations_run)),
    "recon.art": _count_art,
    "recon.sirt": _count_sirt,
}
for _name in TRACED["serialize"]:
    if _name.startswith("write_"):
        _AFTER[f"serialize.{_name}"] = _bytes_of(1, "path", "bytes_written")
    else:
        _AFTER[f"serialize.{_name}"] = _bytes_of(0, "path", "bytes_read")


# -- overhead --------------------------------------------------------------------


def call_cost(calls: int = 2000, batches: int = 5) -> tuple[float, float]:
    """Seconds that one traced call and one tracker timestamp add, on no-op functions.

    Each is the fastest of ``batches`` batches, minus the same calls made
    untraced: the fixed cost, without the machine's slow phases.
    """

    def noop(*args, **kwargs):
        return None

    probe = Tracer(time.perf_counter())
    root = probe.open("bench.probe")
    wrapped = probe._wrap("bench.noop", noop)
    span = Span("bench.noop", time.perf_counter(), None)
    tracker = _timestamp_tracker(span, (None, None, None, None, noop), {})[0][4]

    def fastest(fn):
        best = float("inf")
        for _ in range(batches):
            t = time.perf_counter()
            for _ in range(calls):
                fn(None)
            best = min(best, time.perf_counter() - t)
            del probe.spans[1:], span.marks[:]
        return best / calls

    bare = fastest(noop)
    costs = (max(fastest(wrapped) - bare, 0.0), max(fastest(tracker) - bare, 0.0))
    probe.close(root)
    return costs


# -- aggregation ---------------------------------------------------------------

# (metric, unit) in the order they are reported; every one is produced for
# every workload, as 0 where the layer does not run.
PER_LAYER = (
    ("projector.build_s", "s"),
    ("projector.nnz", "count"),
    ("projector.forward_s", "s"),
    ("projector.self_s", "s"),
    ("patch_graph.extract_s", "s"),
    ("patch_graph.build_graph_s", "s"),
    ("patch_graph.nodes", "count"),
    ("patch_graph.edges", "count"),
    ("patch_graph.spectral_norm_s", "s"),
    ("patch_graph.self_s", "s"),
    ("gtv_denoise.sweep_s", "s"),
    ("gtv_denoise.denoise_s", "s"),
    ("gtv_denoise.calls", "count"),
    ("gtv_denoise.iterations", "count"),
    ("gtv_denoise.iter_us", "us"),
    ("gtv_denoise.self_s", "s"),
    ("recon.fbp_s", "s"),
    ("recon.fbp_calls", "count"),
    ("recon.art_s", "s"),
    ("recon.art_sweep_ms", "ms"),
    ("recon.art_row_updates", "count"),
    ("recon.sirt_s", "s"),
    ("recon.sirt_iter_ms", "ms"),
    ("recon.self_s", "s"),
    ("serialize.write_s", "s"),
    ("serialize.read_s", "s"),
    ("serialize.bytes_written", "bytes"),
    ("serialize.bytes_read", "bytes"),
    ("serialize.self_s", "s"),
    ("phantoms.generate_s", "s"),
    ("noise.add_s", "s"),
    ("pipeline.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.unit_s", "s"),
    ("trace.untraced_unit_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.accounted_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
    ("trace.speed_scale", "ratio"),
    ("setup.cold_import_s", "s"),
)


def _step_times(span: Span) -> list[float]:
    """Per-sweep/iteration times from tracker timestamps, tracker time excluded."""
    if not span.marks:
        return []
    times, prev = [], span.start
    for entered, left in span.marks:
        times.append(entered - prev)
        prev = left
    return times


def phase_metrics(spans: list[Span], root: int, cost: tuple[float, float]) -> dict:
    """Per-layer metrics of one phase (a unit of work or a set-up) rooted at ``root``.

    ``cost`` is :func:`call_cost`: the tracing overhead is one traced call
    per span below the root plus one timestamp per solver step.
    """
    members = [root]
    for idx in range(root + 1, len(spans)):
        if spans[idx].parent is None:
            break
        members.append(idx)
    child_time = {idx: 0.0 for idx in members}
    norm_time: dict[int, float] = {}  # spectral_norm time inside each span
    for idx in members[1:]:
        s = spans[idx]
        child_time[s.parent] += s.duration
        if s.name == "patch_graph.spectral_norm":
            norm_time[s.parent] = norm_time.get(s.parent, 0.0) + s.duration

    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    counts: dict[str, float] = {}
    maxima: dict[str, int] = {}
    art_steps, sirt_steps = [], []
    marks = 0
    denoise_own = 0.0
    for idx in members:
        s = spans[idx]
        incl[s.name] = incl.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        self_time[s.name.split(".")[0]] += s.duration - child_time[idx]
        for key, val in s.counts.items():
            if key in ("nnz", "nodes", "edges"):
                maxima[key] = max(maxima.get(key, 0), val)
            else:
                counts[key] = counts.get(key, 0) + val
        marks += len(s.marks or ())
        if s.name == "recon.art":
            art_steps += _step_times(s) or [s.duration / s.counts["sweeps"]] * s.counts["sweeps"]
        elif s.name == "recon.sirt":
            sirt_steps += _step_times(s) or [s.duration / s.counts["sirt_iterations"]] * s.counts["sirt_iterations"]
        elif s.name == "gtv_denoise.denoise":
            denoise_own += s.duration - norm_time.get(idx, 0.0)

    def total(prefix):
        return sum(v for k, v in incl.items() if k.startswith(prefix))

    unit_s = spans[root].duration
    accounted = unit_s - self_time["bench"]
    iterations = counts.get("iterations", 0)
    return {
        "projector.build_s": incl.get("projector.build_projector", 0.0),
        "projector.nnz": maxima.get("nnz", 0),
        "projector.forward_s": incl.get("projector.forward_project", 0.0),
        "projector.self_s": self_time["projector"],
        "patch_graph.extract_s": incl.get("patch_graph.extract_patches", 0.0),
        "patch_graph.build_graph_s": incl.get("patch_graph.build_graph", 0.0),
        "patch_graph.nodes": maxima.get("nodes", 0),
        "patch_graph.edges": maxima.get("edges", 0),
        "patch_graph.spectral_norm_s": incl.get("patch_graph.spectral_norm", 0.0),
        "patch_graph.self_s": self_time["patch_graph"],
        "gtv_denoise.sweep_s": incl.get("gtv_denoise.gamma_sweep", 0.0),
        "gtv_denoise.denoise_s": incl.get("gtv_denoise.denoise", 0.0),
        "gtv_denoise.calls": calls.get("gtv_denoise.denoise", 0),
        "gtv_denoise.iterations": iterations,
        "gtv_denoise.iter_us": 1e6 * denoise_own / iterations if iterations else 0.0,
        "gtv_denoise.self_s": self_time["gtv_denoise"],
        "recon.fbp_s": incl.get("recon.fbp", 0.0),
        "recon.fbp_calls": calls.get("recon.fbp", 0),
        "recon.art_s": incl.get("recon.art", 0.0),
        "recon.art_sweep_ms": 1e3 * statistics.median(art_steps) if art_steps else 0.0,
        "recon.art_row_updates": counts.get("row_updates", 0),
        "recon.sirt_s": incl.get("recon.sirt", 0.0),
        "recon.sirt_iter_ms": 1e3 * statistics.median(sirt_steps) if sirt_steps else 0.0,
        "recon.self_s": self_time["recon"],
        "serialize.write_s": total("serialize.write_"),
        "serialize.read_s": total("serialize.read_"),
        "serialize.bytes_written": counts.get("bytes_written", 0),
        "serialize.bytes_read": counts.get("bytes_read", 0),
        "serialize.self_s": self_time["serialize"],
        "phantoms.generate_s": incl.get("phantoms.generate_phantom", 0.0),
        "noise.add_s": incl.get("noise.add_noise", 0.0),
        "pipeline.self_s": self_time["pipeline"],
        "cli.self_s": self_time["cli"],
        "trace.unit_s": unit_s,
        "trace.overhead_s": (len(members) - 1) * cost[0] + marks * cost[1],
        "trace.accounted_s": accounted,
        "trace.coverage": accounted / unit_s if unit_s > 0 else 0.0,
        "trace.spans": len(members),
    }
