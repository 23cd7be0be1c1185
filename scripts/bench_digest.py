#!/usr/bin/env python3
"""One SHA-256 per perfbench workload over the outputs of its first tasks.

Runs tasks 0 .. N-1 of each workload at a seed, untimed and unchecked, as
perfbench builds them (BLAS pinned to one thread, facilab imported from
this checkout's src/), and hashes every field of every output: floats by
their hex form, arrays by their bytes, a raising task by its error.  The
wall time an audit report carries is left out.  Two checkouts give equal
lines exactly when their outputs are bit-identical:

    python scripts/bench_digest.py --seed 4242 --tasks 72

Without ``--tasks`` each workload runs two cycles of its class grid.
"""

import argparse
import dataclasses
import enum
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import bootstrap  # noqa: E402  (pins BLAS before numpy loads)

bootstrap.prepare()

import numpy as np  # noqa: E402
import workloads  # noqa: E402

SKIPPED = {"runtime_ms"}  # wall time, not an output


def cycle(name: str) -> int:
    """Tasks in one pass over the workload's grid of task classes."""
    if name == "audit":
        return len(workloads.AUDIT_MECHS) * len(workloads.AUDIT_NORMS)
    if name == "pricing":
        return len(workloads.pricing_classes())
    return len(workloads.hunt_combos())


def feed(digest, value) -> None:
    """Hash a value and every field under it, each closed by a separator."""
    if dataclasses.is_dataclass(value):
        digest.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            if f.name not in SKIPPED:
                feed(digest, getattr(value, f.name))
    elif isinstance(value, enum.Enum):
        feed(digest, value.value)
    elif isinstance(value, float):
        digest.update(value.hex().encode())
    elif isinstance(value, np.ndarray):
        digest.update(f"{value.dtype}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        digest.update(b"[")
        for item in value:
            feed(digest, item)
        digest.update(b"]")
    elif isinstance(value, dict):
        digest.update(b"{")
        for key, item in value.items():
            feed(digest, key)
            feed(digest, item)
        digest.update(b"}")
    else:  # int, bool, str, None
        digest.update(repr(value).encode())
    digest.update(b"|")


def workload_digest(name: str, seed: int, count: int) -> str:
    wl = workloads.build(name, seed)
    digest = hashlib.sha256()
    for i in range(count):
        try:
            output = wl.run(wl.task(i))
        except Exception as err:  # a raising task hashes as its error
            output = f"{type(err).__name__}: {err}"
        feed(digest, output)
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--tasks", type=int, help="tasks per workload (default: two cycles of its grid)")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    for name in args.workload or ("audit", "pricing", "hunt"):
        count = 2 * cycle(name) if args.tasks is None else args.tasks
        print(f"{name} {count} {workload_digest(name, args.seed, count)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
