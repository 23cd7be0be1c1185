#!/usr/bin/env python3
"""Compare two oracle trees written by scripts/oracle_reports.py, with a
tolerance for reports whose certified optima may move.

    PYTHONPATH=src python scripts/oracle_compare.py BEFORE AFTER

Byte-identical files pass.  ``check`` reports (their ``scenario`` is
"check"), every file this script does not parse, and the command and exit
code lines of ``console.txt`` must be byte-identical.  A changed ``ratio``,
``evaluate`` or ``repro`` report, or ``table1.csv``, passes only when its
structure and every other value are unchanged and:

* each certified interval overlaps the old one, and the old point ratio
  beside it lies inside the new interval or the new one inside the old;
* the old optimum lies in [new value - new gap, new value + new gap], or
  the new one within the old gap of the old value.  A certified optimum
  says value - gap <= optimum <= value, so this is the two certificates
  agreeing; it lets a tighter certificate move a value that sat above the
  optimum by more than the new gap, but less than the old one;
* no optimum that met its gap target, gap <= GAP_REL * (1 + value), misses
  it now.

Prints one line per changed or missing file and a verdict; exits 1 if any
file fails.
"""

import argparse
import csv
import io
import json
import re
import sys
from pathlib import Path

from facilab.objectives import GAP_REL

# optimum -> its certified gap
OPTIMA = {"opt_value": "opt_gap", "opt_mc": "opt_mc_gap", "opt_sc": "opt_sc_gap"}
# (low end, high end, point value or None) of each certified interval
INTERVALS = (
    ("mc_ratio_lo", "mc_ratio_hi", "mc_ratio"),
    ("sc_ratio_lo", "sc_ratio_hi", "sc_ratio"),
    ("measured_lo", "measured_hi", None),
)
EXIT_LINE = re.compile(r"^(\$ .*|exit -?\d+|.*; exit -?\d+)$")


def _inside(point, interval: tuple) -> bool:
    return float(interval[0]) <= float(point) <= float(interval[1])


def _overlap(old: tuple, new: tuple) -> bool:
    return float(new[0]) <= float(old[1]) and float(old[0]) <= float(new[1])


def _compare_node(old, new, path: str, faults: list) -> None:
    """Walk two report trees; a leaf may differ only as a checked optimum,
    gap, interval end or point ratio."""
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            faults.append(f"{path}: keys differ")
            return
        checked = set()
        for value, gap in OPTIMA.items():
            if value in old and gap in old and (old[value], old[gap]) != (new[value], new[gap]):
                checked |= {value, gap}
                v, g, was, had = float(new[value]), float(new[gap]), float(old[value]), float(old[gap])
                if abs(was - v) > max(g, had):
                    faults.append(f"{path}/{value}: {was!r} +/- {had!r} and {v!r} +/- {g!r} disagree")
                if had <= GAP_REL * (1.0 + was) and not g <= GAP_REL * (1.0 + v):
                    faults.append(f"{path}/{gap}: {g!r} now misses the gap target")
        pairs = [(lo, hi, point) for lo, hi, point in INTERVALS if lo in old and hi in old]
        if "ratio_interval" in old and old["ratio_interval"] is not None and new["ratio_interval"] is not None:
            pairs.append(("ratio_interval", None, None))
        for lo, hi, point in pairs:
            was = tuple(old[lo]) if hi is None else (old[lo], old[hi])
            now = tuple(new[lo]) if hi is None else (new[lo], new[hi])
            changed = was != now or (point is not None and old[point] != new[point])
            if not changed:
                continue
            checked |= {lo, hi, point} - {None}
            if len(was) != 2 or len(now) != 2 or not _overlap(was, now):
                faults.append(f"{path}/{lo}: interval {now} does not overlap {was}")
            if point is not None and not (_inside(old[point], now) or _inside(new[point], was)):
                faults.append(f"{path}/{point}: ratios {old[point]!r} and {new[point]!r} outside {now} and {was}")
        for key in old:
            if key not in checked:
                _compare_node(old[key], new[key], f"{path}/{key}", faults)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            faults.append(f"{path}: length {len(old)} -> {len(new)}")
            return
        for i, (a, b) in enumerate(zip(old, new)):
            _compare_node(a, b, f"{path}/{i}", faults)
    elif type(old) is not type(new) or old != new:
        faults.append(f"{path}: {old!r} -> {new!r}")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_rows(text: str) -> list:
    return [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def compare_file(name: str, old: bytes, new: bytes) -> list:
    """The faults of one changed file; an empty list means it passes."""
    if name == "console.txt" or name.endswith("/console.txt"):
        lines = [
            [line for line in data.decode().splitlines() if EXIT_LINE.match(line)] for data in (old, new)
        ]
        return [] if lines[0] == lines[1] else ["command or exit code lines differ"]
    faults: list = []
    if name.endswith(".csv"):
        head = [data.decode().split("\n", 1)[0] for data in (old, new)]
        if head[0] != head[1]:
            return ["csv header differs"]
        _compare_node(_csv_rows(old.decode()), _csv_rows(new.decode()), name, faults)
        return faults
    if not name.endswith(".json"):
        return ["not a report, so it must be byte-identical"]
    try:
        before, after = json.loads(old), json.loads(new)
    except json.JSONDecodeError as err:
        return [f"not valid JSON: {err}"]
    if not isinstance(before, dict) or "scenario" not in before or before.get("scenario") == "check":
        return ["must be byte-identical"]
    _compare_node(before, after, name, faults)
    return faults


def compare_trees(before: Path, after: Path) -> list:
    """(file, faults) for every file that differs between the two trees."""
    names = sorted(
        {p.relative_to(root).as_posix() for root in (before, after) for p in root.rglob("*") if p.is_file()}
    )
    results = []
    for name in names:
        old, new = before / name, after / name
        if not old.is_file() or not new.is_file():
            results.append((name, ["missing in " + ("BEFORE" if not old.is_file() else "AFTER")]))
            continue
        a, b = old.read_bytes(), new.read_bytes()
        if a != b:
            results.append((name, compare_file(name, a, b)))
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("before", type=Path, help="oracle tree of the old code")
    parser.add_argument("after", type=Path, help="oracle tree of the new code")
    args = parser.parse_args()
    for tree in (args.before, args.after):
        if not tree.is_dir():
            print(f"error: {tree} is not a directory", file=sys.stderr)
            return 2
    results = compare_trees(args.before, args.after)
    failed = 0
    for name, faults in results:
        print(f"{'FAIL' if faults else 'ok  '} {name}")
        for fault in faults:
            print(f"     {fault}")
        failed += bool(faults)
    print(f"{len(results)} files differ, {failed} fail")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
