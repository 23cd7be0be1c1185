"""Time one benchmark set-up in a fresh interpreter and print it in seconds.

Usage:  python3 perfbench/setup_probe.py <workload> <seed>

Covers imports, loading the committed reference and building the seeded
workload; the benchmark runs this several times and reports the median.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402

import bootstrap  # noqa: E402

bootstrap.prepare()

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - STARTED))
