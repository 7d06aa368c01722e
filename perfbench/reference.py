"""Reference kernels: a yardstick for the machine's speed at the moment.

The benchmark's host is shared, and its speed swings by 25-50% over minutes
as other tenants come and go. An operation's CPU time divided by the time of
fixed reference work measured in the same run cancels most of that swing
while keeping every change in the program's own speed.

The reference is two small kernels, each close to one kind of work the
program does: numpy products on mid-sized arrays (GD on a dataset) and a
pure-Python loop over dicts and strings (sampling, parsing, CSV rows). One
`burst` times each kernel `REPEATS` times and returns the geometric mean of
their median CPU times. None of it touches `qni_lab`, so no change to the
program can move it. Numpy calls on 3-element arrays (single-point forward
passes) have no kernel here: their time swings by up to 2x between bursts,
more than any operation's, and would add that noise to every cost.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 41

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((2000, 10))
_W = _rng.standard_normal((10, 12))


def _arrays() -> float:
    s = 0.0
    for _ in range(40):
        h = _X @ _W
        s += float((h * h).sum())
    return s


def _python() -> int:
    counts: dict[int, int] = {}
    total = 0
    for i in range(6000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += len(str(i))
    return total + len(sorted(counts.values()))


KERNELS = (_arrays, _python)


def burst() -> float:
    """Geometric mean, over the kernels, of each one's median CPU time in seconds."""
    medians = []
    for kernel in KERNELS:
        times = []
        for _ in range(REPEATS):
            t0 = time.process_time()
            kernel()
            times.append(time.process_time() - t0)
        medians.append(statistics.median(times))
    return statistics.geometric_mean(medians)
