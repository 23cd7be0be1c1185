#!/usr/bin/env python3
"""Write the fixed equivalence set of canonical reports into one directory.

Two trees are equivalent when their outputs are byte-identical:

    PYTHONPATH=src python scripts/oracle_reports.py --out /tmp/before   # old tree
    PYTHONPATH=src python scripts/oracle_reports.py --out /tmp/after    # new tree
    diff -r /tmp/before /tmp/after

A change that may move certified optima compares the two directories with
``scripts/oracle_compare.py /tmp/before /tmp/after`` instead: ``check``
reports stay byte-identical, and a moved optimum or ratio must agree with
the old one within both certificates.

The set is 160 commands: 66 ``check --seed 3 --budget 300`` runs (6 mechanisms x lp:2,
lp:1, lp:inf at (n, d) = (3, 2), (4, 2), (5, 3), plus lp:3;w=1,2 at d=2),
26 ``ratio --n 4 --seed 1 --budget 2000`` runs (5 mechanisms x mc/sc x
lp:2, lp:1, and rand_center x mc/sc under lp:inf, lp:3;w=1,2 and
lp:2;A=1.1,0.3,-0.2,0.9, so the hunt's p = inf, weighted and transformed
norm evaluations are byte-checked too), 4 ``check --seed 0`` runs at the
CLI default budget of 20,000 (80 restarts, so the searches cross their
lockstep blocks: rand_center, coord_median and sep2d:a=0 under lp:2 at
(n, d) = (3, 2), and rand_med at (4, 2), whose misreport search finds
nothing and runs every restart), 6 ``check --seed 3 --budget 300`` runs under
transform norms at (3, 2) (rand_center, sep2d:a=0 and coord_median under
lp:2;A=1,0.5,0,1 and under lp:2;A=1.1,0.3,-0.2,0.9, whose inexact products
tell a one-row (gemv) norm call from a stacked one, so the checkers' one-row
rounding under a transform is byte-checked; coord_median is not
strategyproof under these norms, so its two reports hold single-agent
witnesses), 57 ``evaluate`` runs at the default budget (rand_med,
rand_center and coord_median on the four fixed profiles of
:data:`EVAL_PROFILES`, which the script writes to ``<out>/profiles/``,
under lp:2, lp:1.5, lp:1, lp:inf and, in d = 2, lp:2;A=1.1,0.3,-0.2,0.9;
the 3-D profile sends L1 max cost and L-inf social cost down the LP route,
and the one with duplicate reports sends max cost down the two-point route)
and ``scripts/run_repro_suite.py --seed 0 --budget 2000``.
Every command's exit code and console output go to ``console.txt``, with
the output directory written as ``<out>`` and wall times as ``<ms>``.  ``--budget`` and ``--limit``
shrink the set for a smoke run; the full set is the default.
"""

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

from facilab.cli import main as facilab_main

CHECK_MECHS = ("dictator:1", "rand_med", "rand_center", "sep2d:a=0", "sep2d:a=0.5", "coord_median")
RATIO_MECHS = ("dictator:1", "rand_med", "rand_center", "sep2d:a=0", "coord_median")
SHAPES = ((3, 2), (4, 2), (5, 3))
DEFAULT_BUDGET_CHECKS = (("rand_center", 3), ("coord_median", 3), ("sep2d:a=0", 3), ("rand_med", 4))
TRANSFORMS = ("lp:2;A=1,0.5,0,1", "lp:2;A=1.1,0.3,-0.2,0.9")
TRANSFORM_CHECKS = ("rand_center", "sep2d:a=0", "coord_median")
RATIO_NORMS = ("lp:inf", "lp:3;w=1,2", "lp:2;A=1.1,0.3,-0.2,0.9")
EVAL_MECHS = ("rand_med", "rand_center", "coord_median")
EVAL_NORMS = ("lp:2", "lp:1.5", "lp:2;A=1.1,0.3,-0.2,0.9", "lp:1", "lp:inf")
EVAL_PROFILES = {
    "tri": [[0, 0], [2, 0], [0.5, 1.5]],
    "five": [[-1.25, 0.5], [3, 1], [0.75, -2], [1.5, 2.5], [0.1, 0.3]],
    "cube": [[0, 0, 0], [2, 0.5, -1], [0.5, 1.5, 0.25], [-1, 0.75, 1.5], [0.25, -1.25, 0.5]],
    "dup": [[0, 0], [1.5, 2], [0, 0], [1.5, 2]],
}


def slug(*parts) -> str:
    text = "-".join(str(p) for p in parts)
    return text.replace(":", "").replace(";", "_").replace("=", "").replace(",", "_")


def commands(budget, profiles: Path):
    """(name, argv) of every CLI run in the set, without --out; evaluate
    runs read their profile files from the directory ``profiles``."""
    for mech in CHECK_MECHS:
        for norm in ("lp:2", "lp:1", "lp:inf", "lp:3;w=1,2"):
            for n, d in SHAPES:
                if norm.startswith("lp:3;w") and d != 2:
                    continue
                argv = ["check", "--mech", mech, "--norm", norm, "--n", str(n), "--d", str(d)]
                yield slug("check", mech, norm, n, d), argv + ["--seed", "3", "--budget", str(budget or 300)]
    ratios = [(mech, obj, norm) for mech in RATIO_MECHS for obj in ("mc", "sc") for norm in ("lp:2", "lp:1")]
    ratios += [("rand_center", obj, norm) for norm in RATIO_NORMS for obj in ("mc", "sc")]
    for mech, obj, norm in ratios:
        argv = ["ratio", "--mech", mech, "--norm", norm, "--obj", obj, "--n", "4"]
        yield slug("ratio", mech, obj, norm), argv + ["--seed", "1", "--budget", str(budget or 2000)]
    for mech, n in DEFAULT_BUDGET_CHECKS:
        argv = ["check", "--mech", mech, "--norm", "lp:2", "--n", str(n), "--d", "2"]
        yield slug("check-default", mech, "lp:2", n, 2), argv + ["--seed", "0", "--budget", str(budget or 20_000)]
    for norm in TRANSFORMS:
        for mech in TRANSFORM_CHECKS:
            argv = ["check", "--mech", mech, "--norm", norm, "--n", "3", "--d", "2"]
            yield slug("check", mech, norm, 3, 2), argv + ["--seed", "3", "--budget", str(budget or 300)]
    for name, points in EVAL_PROFILES.items():
        for mech in EVAL_MECHS:
            for norm in EVAL_NORMS:
                if ";A=" in norm and len(points[0]) != 2:
                    continue
                argv = ["evaluate", "--profile", str(profiles / f"{name}.json"), "--mech", mech, "--norm", norm]
                yield slug("evaluate", name, mech, norm), argv + (["--budget", str(budget)] if budget else [])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="directory for the reports")
    parser.add_argument("--budget", type=int, default=None, help="one budget for every run (smoke runs)")
    parser.add_argument("--limit", type=int, default=None, help="run only the first N CLI commands (smoke runs)")
    args = parser.parse_args()

    out = Path(args.out)
    profiles = out / "profiles"
    profiles.mkdir(parents=True, exist_ok=True)
    for name, points in EVAL_PROFILES.items():
        (profiles / f"{name}.json").write_text(json.dumps({"d": len(points[0]), "points": points}) + "\n")
    console = []
    for name, argv in list(commands(args.budget, profiles))[: args.limit]:
        path = out / f"{name}.json"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = facilab_main(argv + ["--out", str(path)])
        console.append(f"$ facilab {' '.join(argv)}\nexit {code}\n{buf.getvalue()}")
    repro = out / "repro"
    script = Path(__file__).resolve().parent / "run_repro_suite.py"
    budget = str(args.budget or 2000)
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "0", "--budget", budget, "--outdir", str(repro)],
        capture_output=True,
        text=True,
    )
    console.append(f"$ run_repro_suite.py --seed 0 --budget {budget}\nexit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    text = "\n".join(console).replace(str(out), "<out>")
    (out / "console.txt").write_text(re.sub(r"runtime \d+ ms", "runtime <ms>", text))
    print(f"{len(console)} commands written to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
