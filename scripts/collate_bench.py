#!/usr/bin/env python3
"""Collate parent/change perfbench runs into a committed BENCH_<n>.json.

Each side's runs sit in its own checkout's ``perfbench/out/`` as
``result-<workload>-seed<N>-trace<T>.json`` (see perfbench/README.md).
Untraced runs of one workload and seed on both sides form a pair.  Per
workload and end-to-end metric the output holds each side's median and
quartiles, the change's wins over the pairs (by the metric's direction in
BENCHMARK.json) and every pair's values; the held-out seed is kept apart
from the pairs.  Traced runs are copied as per-layer metrics per side.

    python scripts/collate_bench.py --parent ../parent/perfbench/out --out BENCH_6.json
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"result-(\w+)-seed(\d+)-trace([01])\.json$")


def load(directory: Path) -> dict:
    """{(workload, seed, trace): result} for every result file in directory."""
    runs = {}
    for path in sorted(directory.glob("result-*.json")):
        match = NAME.search(path.name)
        if match:
            workload, seed, trace = match.groups()
            runs[workload, int(seed), int(trace)] = json.loads(path.read_text(encoding="utf-8"))
    return runs


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def collate(parent: dict, change: dict, better: dict) -> dict:
    out = {}
    workloads = sorted({w for w, _, t in parent if t == 0} & {w for w, _, t in change if t == 0})
    for workload in workloads:
        seeds = sorted(s for w, s, t in parent if w == workload and t == 0 and (w, s, 0) in change)
        held_out = {s for s in seeds if parent[workload, s, 0]["environment"]["held_out_seed"] == s}
        paired = [s for s in seeds if s not in held_out]
        row = {"pairs": len(paired), "seeds": paired, "failed": {}, "metrics": {}, "held_out": {}}
        for side, runs in (("parent", parent), ("change", change)):
            row["failed"][side] = sum(runs[workload, s, 0]["checks"]["failed"] for s in seeds)
        for metric, direction in better.items():
            p = [parent[workload, s, 0]["metrics"][metric]["value"] for s in paired]
            c = [change[workload, s, 0]["metrics"][metric]["value"] for s in paired]
            if not paired:
                continue
            sign = 1.0 if direction == "higher" else -1.0
            row["metrics"][metric] = {
                "better": direction,
                "parent": quartiles(p),
                "change": quartiles(c),
                "change_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
                "values": [[a, b] for a, b in zip(p, c)],
            }
        for s in sorted(held_out):
            row["held_out"][str(s)] = {
                m: [parent[workload, s, 0]["metrics"][m]["value"], change[workload, s, 0]["metrics"][m]["value"]]
                for m in better
            }
        out[workload] = row
    traced = {}
    for (workload, seed, trace), result in change.items():
        if trace == 1 and (workload, seed, 1) in parent:
            layers = {}
            for name, value in result["metrics"].items():
                layers[name] = [parent[workload, seed, 1]["metrics"][name]["value"], value["value"], value["unit"]]
            traced[f"{workload}-seed{seed}"] = layers
    return {"end_to_end": out, "traced_parent_change": traced}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="perfbench/out directory of the parent checkout")
    parser.add_argument("--change", default=str(ROOT / "perfbench" / "out"), help="perfbench/out of this checkout")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent, change = load(Path(args.parent)), load(Path(args.change))
    bench = collate(parent, change, better)
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    for workload, row in bench["end_to_end"].items():
        for metric, m in row["metrics"].items():
            print(
                f"{workload:8s} {metric:13s} parent {m['parent']['median']:10.4g} "
                f"[{m['parent']['q1']:.4g}-{m['parent']['q3']:.4g}]  change {m['change']['median']:10.4g} "
                f"[{m['change']['q1']:.4g}-{m['change']['q3']:.4g}]  wins {m['change_wins']}/{row['pairs']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
