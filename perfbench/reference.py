"""A fixed reference computation that measures how fast the machine runs right now.

The CPU this benchmark runs on is shared, and its speed drifts in phases of
seconds to minutes: the same pipeline run can take 1.4 times as long in a
slow phase. The process's CPU time drifts with it, so the slowdown is in
the CPU itself, not in waiting for it. `run.py` times `reference_seconds()`
between the CLI command calls, for `SHARE` of the time the calls take, and
scales its end-to-end times by `NOMINAL_S / median reference time`, which
gives seconds at one fixed machine speed. The computation mixes the kinds
of work the pipeline does: a pure Python loop over a dict, numpy gathers,
sorts and `unique` on arrays of a few thousand elements, and a Python loop
that issues small numpy calls. It depends on nothing in `walkaug`, so a
change to the program cannot change it.
"""

from time import perf_counter

import numpy as np

# Median of `reference_seconds()` on the machine described in README.md
# (Environment). Only ratios to it matter; it fixes the scale of the times.
NOMINAL_S = 0.15
# Reference time per second of command time. A single timing varies by up to
# 2x, so the speed factor needs many of them: with one timing per command group
# (5% of a run) the scaling added more noise than it removed.
SHARE = 0.15


def _dict_loop() -> int:
    counts: dict[int, int] = {}
    total = 0
    for i in range(240_000):
        key = i % 1009
        counts[key] = counts.get(key, 0) + i
        total += key
    return total


def _array_ops() -> float:
    rng = np.random.default_rng(0)
    values = rng.random(4000)
    index = rng.integers(0, 4000, 4000)
    total = 0.0
    for _ in range(80):
        total += float(np.sort(values[index])[::50].sum()) + np.unique(index).size
    return total


def _small_numpy_calls() -> float:
    rng = np.random.default_rng(0)
    table = rng.random((2000, 32))
    weights = rng.random((32, 32)) / 32
    rows = rng.integers(0, 2000, (1500, 16))
    grads = np.zeros_like(table)
    for batch in rows:
        out = np.tanh(table[batch] @ weights)
        np.add.at(grads, batch, out)
    return float(grads.sum())


def reference_seconds() -> float:
    """Wall seconds of one pass through the fixed reference computation."""
    start = perf_counter()
    _dict_loop()
    _array_ops()
    _small_numpy_calls()
    return perf_counter() - start
