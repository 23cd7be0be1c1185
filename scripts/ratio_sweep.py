#!/usr/bin/env python3
"""Sweep worst-case approximation ratios across mechanisms, objectives, n.

Prints a fixed-width table of the searched ratio against the documented
bound (where one exists).  Useful for eyeballing how tight the searches
run at different budgets.

Usage:
    python scripts/ratio_sweep.py [--seed 0] [--restarts 12] [--nmax 6] [--norm lp:2]
"""

import argparse
import sys

from facilab.geometry import parse_norm
from facilab.mechanisms import parse_mechanism
from facilab.objectives import Objective
from facilab.search import SearchConfig, search_worst_ratio

MECHANISMS = ("dictator:1", "rand_med", "rand_center")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--restarts", type=int, default=12)
    parser.add_argument("--nmax", type=int, default=6)
    parser.add_argument("--norm", default="lp:2")
    args = parser.parse_args()

    norm = parse_norm(args.norm)
    config = SearchConfig(rng_seed=args.seed, restarts=args.restarts, local_steps=14)
    print(f"{'mechanism':>12} {'obj':>3} {'n':>2} {'ratio':>12} {'certified hi':>12} {'bound':>8}")
    for mech_text in MECHANISMS:
        spec = parse_mechanism(mech_text)
        for objective in (Objective.MAX_COST, Objective.SOCIAL_COST):
            for n in range(2, args.nmax + 1):
                res = search_worst_ratio(spec, norm, objective, n, 2, config)
                bound = spec.bound(objective, n)
                bound_text = f"{bound:8.4f}" if bound is not None else "     n/a"
                print(
                    f"{mech_text:>12} {objective.value:>3} {n:>2} "
                    f"{res.ratio:12.6f} {res.hi:12.6f} {bound_text}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
