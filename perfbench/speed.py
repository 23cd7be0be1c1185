"""Machine-speed calibration for the end-to-end times.

A shared 2-vCPU Xeon host drifts: over a few minutes the same
single-threaded Python code runs up to 60 % slower or faster (a fixed
pure-Python loop measured 27 ms in one minute and 43 ms in another).
That swing dwarfs the differences the benchmark must resolve, so every
task is bracketed by a fixed calibration kernel and its wall time is
rescaled to nominal machine speed:

    normalized = wall * NOMINAL_S / (median kernel time around the task)

The kernel is a fixed pure-Python loop that never calls facilab, so no
change to the program can move it.  On that host facilab's task times
follow the kernel's time with a log-log slope near 1 (0.9 to 1.1, fitted
over 250 tasks while the host's speed drifted by a factor of 1.5); kernels
built from small numpy calls over-reacted (slope 0.6).  Raw wall times are
reported next to the normalized ones.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.0017  # typical kernel time on a 2-vCPU Xeon host (Python 3.11)
KERNEL_STEPS = 30_000


def kernel_seconds() -> float:
    """Wall time of one pass of the calibration kernel."""
    started = time.perf_counter()
    acc = 0
    for i in range(KERNEL_STEPS):
        acc += i * i
    return time.perf_counter() - started


def sample(repeats: int) -> float:
    """Median of several kernel runs, for a speed reading that one
    preempted run cannot skew."""
    return statistics.median(kernel_seconds() for _ in range(repeats))


def factors(kernel_times: list[float], reach: int = 3) -> list[float]:
    """Per-task speed factors from the kernel times taken between tasks.

    ``kernel_times`` has one entry before the first task and one after
    each task, so task i sits between entries i and i + 1.  Its factor
    uses the median of the ``reach`` entries on either side, which
    follows drift over seconds but not a single disturbed kernel run.
    """
    out = []
    for i in range(len(kernel_times) - 1):
        window = kernel_times[max(0, i + 1 - reach) : i + 1 + reach]
        out.append(NOMINAL_S / statistics.median(window))
    return out
