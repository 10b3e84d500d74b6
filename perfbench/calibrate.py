"""A fixed reference kernel that measures how fast the machine runs right now.

The 2-vCPU virtual machine the benchmark was tuned on shares its cores with
other work.  The same code runs up to 1.8 times slower there, in phases of
seconds to minutes, so raw unit times of identical 25 s runs spread by up
to 24 % (IQR over median, ten runs).  A time multiplied by
``REFERENCE_S / kernel time`` is what it would take at full speed; run.py
scales each set-up by the kernel timed just before it, and the median unit
by the median of the kernel timed around every unit.  See
perfbench/README.md, "Reference speed".

The kernel has two halves of about equal time: a plain interpreter loop,
and a Kaczmarz-like loop of small numpy gathers, dots and scatters on fixed
data.  The machine's slow phases slow the two kinds of code by different
amounts; ART follows the second and SIRT the first, and their sum follows
both better than either does alone.  The kernel does not call gtvtomo, so
no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on the reference machine (2-vCPU virtual machine, Python 3.11.7)
# when nothing else is running.  The interpreter half alone, at twice its
# length, took 11.5 ms there (10th percentile of 378 timings); the whole
# kernel takes 1.55 times as long (median ratio of 300 interleaved timings).
REFERENCE_S = 0.0178

_RNG = np.random.default_rng(0)
_X_SIZE = 4096
_ROWS = [np.sort(_RNG.choice(_X_SIZE, 60, replace=False)).astype(np.int32) for _ in range(2400)]
_WEIGHTS = [_RNG.random(60) for _ in range(2400)]


def _kernel() -> float:
    s = 0
    for i in range(90_000):
        s += i * i % 7
    x = np.zeros(_X_SIZE)
    for cols, w in zip(_ROWS, _WEIGHTS):
        r = 1.0 - w @ x[cols]
        x[cols] += (0.01 * r) * w
    return s + float(x.sum())


def measure(repeats: int = 3) -> float:
    """Median seconds the kernel takes, over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)
