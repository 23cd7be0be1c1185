#!/usr/bin/env python3
"""Fuzz the certified optimizers against a dense grid in 2-D.

Draws seeded profiles (n = 3..6) under plain, weighted and transformed
p-norms for p in {1, 1.2, 2, 3, 8, inf}, certifies both objectives with
opt_max_cost / opt_social_cost, and compares each certificate with the
minimum over a dense grid that covers the profile's box padded by its
extent on every side.  Every grid point is feasible, so a certificate is
unsound when value - certified_gap exceeds the grid minimum; it misses
its target when certified_gap > GAP_REL * (1 + value).

Prints one row per p x objective and the totals; exits 1 if any
certificate is unsound.

Usage:
    python scripts/cert_fuzz.py [--seed 0] [--profiles 40] [--grid 401]
"""

import argparse
import math
import sys
import time

import numpy as np

from facilab.geometry import Norm, Profile
from facilab.objectives import GAP_REL, opt_max_cost, opt_social_cost

EXPONENTS = (1.0, 1.2, 2.0, 3.0, 8.0, math.inf)
VARIANTS = ("plain", "weighted", "transformed")


def random_norm(p: float, variant: str, rng: np.random.Generator) -> Norm:
    weights = tuple(rng.uniform(0.5, 3.0, size=2)) if variant != "plain" else None
    transform = None
    if variant == "transformed":
        mat = np.eye(2) + rng.uniform(-0.6, 0.6, size=(2, 2))
        transform = tuple(tuple(row) for row in mat)
    return Norm(p, weights=weights, transform=transform)


def grid_minimum(xs: np.ndarray, norm: Norm, steps: int) -> tuple[float, float]:
    """Grid minima of (max cost, social cost) over the padded box."""
    lo, hi = xs.min(axis=0), xs.max(axis=0)
    pad = float((hi - lo).max())
    axes = [np.linspace(lo[k] - pad, hi[k] + pad, steps) for k in range(2)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    dists = norm.eval_many((grid[:, None, :] - xs[None, :, :]).reshape(-1, 2))
    dists = dists.reshape(grid.shape[0], xs.shape[0])
    return float(dists.max(axis=1).min()), float(dists.sum(axis=1).min())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profiles", type=int, default=40, help="profiles per exponent")
    parser.add_argument("--grid", type=int, default=401, help="grid points per axis")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'p':>5} {'obj':>3} {'certs':>5} {'unsound':>7} {'misses':>6} {'worst gap/(1+v)':>15} {'s':>6}")
    total_unsound = total_misses = 0
    for p in EXPONENTS:
        rows = {"mc": [0, 0, 0, 0.0, 0.0], "sc": [0, 0, 0, 0.0, 0.0]}
        for i in range(args.profiles):
            n = int(rng.integers(3, 7))
            xs = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
            norm = random_norm(p, VARIANTS[i % len(VARIANTS)], rng)
            profile = Profile.from_rows(xs)
            grid_mc, grid_sc = grid_minimum(xs, norm, args.grid)
            cases = (("mc", opt_max_cost, grid_mc), ("sc", opt_social_cost, grid_sc))
            for name, opt, grid_min in cases:
                started = time.perf_counter()
                res = opt(profile, norm)
                row = rows[name]
                row[4] += time.perf_counter() - started
                row[0] += 1
                row[1] += res.value - res.certified_gap > grid_min + 1e-9 * (1.0 + grid_min)
                row[2] += res.certified_gap > GAP_REL * (1.0 + res.value)
                row[3] = max(row[3], res.certified_gap / (1.0 + res.value))
        for name, (certs, unsound, misses, worst, seconds) in rows.items():
            print(f"{p:>5g} {name:>3} {certs:>5} {unsound:>7} {misses:>6} {worst:>15.3g} {seconds:>6.2f}")
            total_unsound += unsound
            total_misses += misses
    print(f"total unsound {total_unsound} misses {total_misses}")
    return 1 if total_unsound else 0


if __name__ == "__main__":
    sys.exit(main())
