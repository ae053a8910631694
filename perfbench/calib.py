"""A fixed calibration loop that measures how fast the machine runs right now.

On a shared virtual machine the CPU time of identical work swung by 1.4x to
2x within minutes (clock speed, and neighbours on the same core), so raw
seconds from two sets of runs are not comparable. Timings are therefore
also reported in reference seconds: CPU seconds times ``REFERENCE_S`` over
the CPU time of this loop measured next to them, i.e. the time the same work
would take on a machine where the loop takes ``REFERENCE_S``.

The loop uses numpy and the standard library only, never the package, so no
change to the package can move it. Its mix follows the workloads: small
numpy operations in a Blahut-Arimoto-style update, a pure-Python loop over
array elements and a short pure-Python arithmetic loop.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.05  # CPU seconds of one loop where the bounds were set
SIZE = 31


def _loop(a: np.ndarray) -> float:
    p = np.full(SIZE, 1.0 / SIZE)
    for _ in range(1200):
        q = a.T @ p
        d = (a * np.log2(a / q[np.newaxis, :])).sum(axis=1)
        w = p * np.exp2(d - d.max())
        p = w / w.sum()
    b = a.T @ a
    for _ in range(20):
        for i in range(SIZE - 1):
            for j in range(i + 1, SIZE):
                b[i, j] = 0.5 * (b[i, j] + b[j, i])
    s = 0
    for i in range(400000):
        s += i * i
    return float(p.sum()) + s


def loop_cpu_s(reps: int = 3) -> float:
    """Median CPU seconds of one calibration loop over ``reps`` runs."""
    a = np.random.default_rng(0).random((SIZE, SIZE)) + 0.1
    a /= a.sum(axis=1, keepdims=True)
    times = []
    for _ in range(reps):
        c0 = time.process_time()
        _loop(a)
        times.append(time.process_time() - c0)
    return statistics.median(times)


def reference_seconds(cpu_s: float, loop_s: float) -> float:
    """``cpu_s`` on a machine where the loop takes ``REFERENCE_S``."""
    return cpu_s * REFERENCE_S / loop_s
