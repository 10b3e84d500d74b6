"""Reference figures for the README: table1 wall time, its means, and per-layer shares.

Usage (from the repository root)::

    python3 perfbench/reference.py

Runs ``run_table1`` on table1's seeds 1-5 once untraced (wall time, the same
at reference speed, and the table's means), then once traced, and prints the
per-layer time metrics of the whole traced run with their share of it.
Outputs go to ``.bench_out/reference`` and are removed afterwards.
"""

import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import tracing  # noqa: E402
from workloads import TABLE1_SEEDS  # noqa: E402
from run import _environment  # noqa: E402

import gtvtomo.pipeline as gp  # noqa: E402


def main() -> int:
    seeds = list(TABLE1_SEEDS)
    out = ROOT / ".bench_out" / "reference"
    print("environment:", _environment())
    try:
        before = calibrate.measure()
        t = time.perf_counter()
        record = gp.run_table1(out / "plain", seeds)
        wall = time.perf_counter() - t
        scale = calibrate.REFERENCE_S / ((before + calibrate.measure()) / 2)
        print(
            f"table1 --seeds {','.join(map(str, seeds))}: {wall:.1f} s untraced, "
            f"{wall * scale:.1f} s at reference speed (speed factor {scale:.3f})"
        )
        print(Path(record["txt"]).read_text())

        tracer = tracing.Tracer(time.perf_counter())
        tracer.install()
        try:
            root = tracer.open("bench.unit")
            gp.run_table1(out / "traced", seeds)
            tracer.close(root)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(out, ignore_errors=True)

    m = tracing.phase_metrics(tracer.spans, 0, tracing.call_cost())
    total = m["trace.unit_s"]
    print(f"traced: {total:.1f} s, {total - wall:+.1f} s against the untraced run")
    print("per-layer metric, seconds and share of the traced run:")
    for name, unit in tracing.PER_LAYER:
        if unit == "s" and name in m and not name.startswith("trace.") and m[name] >= 0.0005 * total:
            print(f"  {name:<30}{m[name]:9.2f} s {100 * m[name] / total:6.1f} %")
    return 0


if __name__ == "__main__":
    sys.exit(main())
