#!/usr/bin/env python3
"""Fuzz the certified optimizers against an independent optimum in 2-D or 3-D.

Draws seeded profiles (n = 3..6) under plain, weighted and transformed
p-norms for p in {1, 1.2, 2, 3, 8, inf}, certifies both objectives with
opt_max_cost / opt_social_cost, and compares each certificate with an
oracle value that is feasible, so never below the true optimum:

* the minimum over a dense grid covering the profile's box padded by its
  extent on every side (every p in 2-D; p other than 1 and inf in 3-D);
* in 3-D for p in {1, inf}, when scipy can be imported: the objective at
  the optimum that scipy's ``linprog`` (HiGHS) finds for the linear program
  of that norm, which matches the optimum to the solver's tolerance.

A certificate is unsound when value - certified_gap exceeds the oracle
value; it misses its target when certified_gap > GAP_REL * (1 + value).
In 3-D a third of the profiles lie on a small integer grid, with duplicate
and coplanar reports.

Prints one row per p x objective, with how many certificates each
optimizer route gave (``OptResult.method``, e.g. ``ball 37 grid 3``), and
the totals with a SHA-256 digest of every certificate (value, gap,
evaluations, route, note and point bytes), so two trees' optimizers
compare bit for bit in one line; exits 1 if any certificate is unsound.

Usage:
    python scripts/cert_fuzz.py [--d 2] [--seed 0] [--profiles 40] [--grid 401]
"""

import argparse
import hashlib
import itertools
import math
import sys
import time
from collections import Counter

import numpy as np

from facilab.geometry import Norm, Profile
from facilab.objectives import GAP_REL, opt_max_cost, opt_social_cost

EXPONENTS = (1.0, 1.2, 2.0, 3.0, 8.0, math.inf)
VARIANTS = ("plain", "weighted", "transformed")
DEFAULT_GRID = {2: 401, 3: 41}

try:
    from scipy.optimize import linprog
except ImportError:  # the fuzz then falls back to the grid everywhere
    linprog = None


def random_norm(p: float, variant: str, d: int, rng: np.random.Generator) -> Norm:
    weights = tuple(rng.uniform(0.5, 3.0, size=d)) if variant != "plain" else None
    transform = None
    if variant == "transformed":
        mat = np.eye(d) + rng.uniform(-0.6, 0.6, size=(d, d))
        transform = tuple(tuple(row) for row in mat)
    return Norm(p, weights=weights, transform=transform)


def grid_minimum(xs: np.ndarray, norm: Norm, steps: int) -> tuple[float, float]:
    """Grid minima of (max cost, social cost) over the padded box."""
    d = xs.shape[1]
    lo, hi = xs.min(axis=0), xs.max(axis=0)
    pad = float((hi - lo).max())
    axes = [np.linspace(lo[k] - pad, hi[k] + pad, steps) for k in range(d)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    dists = norm.eval_many((grid[:, None, :] - xs[None, :, :]).reshape(-1, d))
    dists = dists.reshape(grid.shape[0], xs.shape[0])
    return float(dists.max(axis=1).min()), float(dists.sum(axis=1).min())


def lp_minimum(xs: np.ndarray, norm: Norm) -> tuple[float, float]:
    """(max cost, social cost) at HiGHS's optima for p in {1, inf}.

    With M the transform scaled by the weights, ||M u||_p <= t is the rows
    g.(M u) <= t for g in {-1, 1}^d (p = 1) or g = +-e_k (p = inf); max
    cost shares one t, social cost has one t per report.
    """
    n, d = xs.shape
    mat = np.eye(d) if norm.transform is None else np.asarray(norm.transform, dtype=float)
    if norm.weights is not None:
        mat = np.asarray(norm.weights, dtype=float)[:, None] * mat
    if norm.p == 1.0:
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=d)))
    else:
        signs = np.concatenate([np.eye(d), -np.eye(d)])
    slopes = np.tile(signs @ mat, (n, 1))
    owner = np.repeat(np.arange(n), len(signs))
    values = []
    for terms, cost_fn in ((1, lambda ds: ds.max()), (n, lambda ds: ds.sum())):
        a_ub = np.zeros((len(slopes), d + terms))
        a_ub[:, :d] = slopes
        a_ub[np.arange(len(slopes)), d + (owner if terms == n else 0)] = -1.0
        b_ub = (slopes * xs[owner]).sum(axis=1)
        res = linprog(
            np.r_[np.zeros(d), np.ones(terms)],
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(None, None)] * (d + terms),
            method="highs",
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        )
        if res.status != 0:
            raise RuntimeError(f"linprog failed: {res.message}")
        values.append(float(cost_fn(norm.eval_many(res.x[:d] - xs))))
    return values[0], values[1]


def draw_profile(d: int, i: int, rng: np.random.Generator) -> np.ndarray:
    n = int(rng.integers(3, 7))
    if d == 3 and i % 3 == 2:
        return rng.integers(-2, 3, size=(n, d)).astype(float)
    return rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, choices=(2, 3), default=2, help="dimension of the profiles")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profiles", type=int, default=40, help="profiles per exponent")
    parser.add_argument("--grid", type=int, default=None, help="grid points per axis (401 in 2-D, 41 in 3-D)")
    args = parser.parse_args()
    steps = args.grid or DEFAULT_GRID[args.d]

    rng = np.random.default_rng(args.seed)
    print(f"{'p':>5} {'obj':>3} {'certs':>5} {'unsound':>7} {'misses':>6} {'worst gap/(1+v)':>15} {'s':>6}  routes")
    total_unsound = total_misses = 0
    digest = hashlib.sha256()
    for p in EXPONENTS:
        rows = {"mc": [0, 0, 0, 0.0, 0.0, Counter()], "sc": [0, 0, 0, 0.0, 0.0, Counter()]}
        for i in range(args.profiles):
            xs = draw_profile(args.d, i, rng)
            norm = random_norm(p, VARIANTS[i % len(VARIANTS)], args.d, rng)
            profile = Profile.from_rows(xs)
            if args.d == 3 and p in (1.0, math.inf) and linprog is not None:
                oracle_mc, oracle_sc = lp_minimum(xs, norm)
            else:
                oracle_mc, oracle_sc = grid_minimum(xs, norm, steps)
            cases = (("mc", opt_max_cost, oracle_mc), ("sc", opt_social_cost, oracle_sc))
            for name, opt, oracle in cases:
                started = time.perf_counter()
                res = opt(profile, norm)
                row = rows[name]
                row[4] += time.perf_counter() - started
                row[0] += 1
                row[1] += res.value - res.certified_gap > oracle + 1e-9 * (1.0 + oracle)
                row[2] += res.certified_gap > GAP_REL * (1.0 + res.value)
                row[3] = max(row[3], res.certified_gap / (1.0 + res.value))
                row[5][res.method] += 1
                digest.update(f"{res.value.hex()} {res.certified_gap.hex()} {res.evaluations} {res.method} {res.note}|".encode())
                digest.update(res.point.as_array().tobytes())
        for name, (certs, unsound, misses, worst, seconds, routes) in rows.items():
            routes = " ".join(f"{route} {count}" for route, count in sorted(routes.items()))
            print(f"{p:>5g} {name:>3} {certs:>5} {unsound:>7} {misses:>6} {worst:>15.3g} {seconds:>6.2f}  {routes}")
            total_unsound += unsound
            total_misses += misses
    print(f"total unsound {total_unsound} misses {total_misses} digest {digest.hexdigest()}")
    return 1 if total_unsound else 0


if __name__ == "__main__":
    sys.exit(main())
