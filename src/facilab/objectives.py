"""Cost objectives and numerically certified optimal benchmarks.

``cost_mc`` / ``cost_sc`` evaluate the expected maximum / social cost of a
lottery exactly (finite support).  ``opt_social_cost`` / ``opt_max_cost``
return a feasible point together with a certified optimality gap, so
approximation ratios can be reported as intervals instead of overclaimed
point estimates.

Both optimizers work in coordinates z = M x, where M is the norm's
transform with the weights folded in as a row scaling.  There the norm is
the plain p-norm of coordinate differences.

Certification routes:

* social cost under any p = 2 norm (Euclidean in the working coordinates):
  Weiszfeld iteration with a coincidence guard, gap certified from the
  gradient norm times the hull radius;
* anything else: Lipschitz branch-and-bound over the working bounding box
  (the objectives are n- resp. 1-Lipschitz per unit axis step), which
  keeps a sound global lower bound even across flat valleys.

Both objectives are convex and the plain p-norm is coordinate-monotone, so
clamping onto the working bounding box never increases either objective:
the optimum provably lies inside the searched box for every supported norm.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import mechanisms
from .geometry import (
    GEOM_TOL,
    DimensionMismatch,
    Lottery,
    Norm,
    Point,
    Profile,
)

DEFAULT_BUDGET = 60_000
GAP_REL = 1e-6  # certified_gap target: <= GAP_REL * (1 + value)
RATIO_ULPS = 4  # rounding of one computed cost or optimum, in ulps of its size


class Objective(Enum):
    MAX_COST = "mc"
    SOCIAL_COST = "sc"

    @classmethod
    def parse(cls, text: str) -> "Objective":
        aliases = {
            "mc": cls.MAX_COST,
            "max_cost": cls.MAX_COST,
            "sc": cls.SOCIAL_COST,
            "social_cost": cls.SOCIAL_COST,
        }
        key = text.strip().lower()
        if key not in aliases:
            raise ValueError(f"unknown objective {text!r}")
        return aliases[key]


@dataclass(frozen=True)
class OptResult:
    """A feasible benchmark point with a certified optimality gap.

    ``certified_gap`` upper-bounds value - true optimum; the value itself
    is always attained at ``point``, so it never undershoots the optimum.
    """

    point: Point
    value: float
    certified_gap: float
    method: str = ""
    evaluations: int = 0
    note: str = ""


def _distance_matrix(points: np.ndarray, xs: np.ndarray, norm: Norm) -> np.ndarray:
    """Pairwise distances, rows = points, columns = profile agents."""
    m, d = points.shape
    n = xs.shape[0]
    diffs = points[:, None, :] - xs[None, :, :]
    return norm.eval_many(diffs.reshape(m * n, d)).reshape(m, n)


def cost_xs(
    objective: Objective, weights: np.ndarray, points: np.ndarray, xs: np.ndarray, norm: Norm
) -> float:
    """Expected cost of the lottery (weights, points) to the reports xs.

    Max cost is the expectation over atoms of the per-atom max, not the
    maximum of per-agent expectations; social cost is the expectation of
    the per-atom sum.
    """
    dist = _distance_matrix(points, xs, norm)
    per_atom = dist.max(axis=1) if objective is Objective.MAX_COST else dist.sum(axis=1)
    return float(weights @ per_atom)


def cost(objective: Objective, lot: Lottery, profile: Profile, norm: Norm) -> float:
    if lot.dim != profile.d:
        raise DimensionMismatch("lottery and profile dimensions differ")
    return cost_xs(objective, lot.weights_array, lot.points_array, profile.as_array, norm)


def cost_mc(lot: Lottery, profile: Profile, norm: Norm) -> float:
    """Expected maximum cost (see :func:`cost_xs`)."""
    return cost(Objective.MAX_COST, lot, profile, norm)


def cost_sc(lot: Lottery, profile: Profile, norm: Norm) -> float:
    """Expected social cost (see :func:`cost_xs`)."""
    return cost(Objective.SOCIAL_COST, lot, profile, norm)


def point_cost(objective: Objective, y: Point, profile: Profile, norm: Norm) -> float:
    """Deterministic mc/sc of a single facility point."""
    return cost(objective, Lottery.degenerate(y), profile, norm)


# -- working coordinates -----------------------------------------------------
#
# Optimization always runs in coordinates z = M x.  M is the norm's
# transform with the weights folded in as a row scaling (w**(1/p), or w for
# p = inf), so distances equal plain p-norms of z-differences.  That residual
# is coordinate-monotone, which makes the bounding box rigorous, moves by at
# most one per unit axis step, and is Euclidean whenever p = 2.


def _working_space(profile: Profile, norm: Norm):
    """Mapped reports, the plain residual p-norm, and inv(M) (None for M = I)."""
    xs = profile.as_array
    residual = Norm(norm.p)
    if norm.weights is None and norm.transform is None:
        return xs, residual, None
    if norm.dim != profile.d:
        raise DimensionMismatch(f"norm expects dimension {norm.dim}, got {profile.d}")
    mat = np.eye(profile.d) if norm.transform is None else np.asarray(norm.transform, dtype=float)
    if norm.weights is not None:
        w = np.asarray(norm.weights, dtype=float)
        mat = (w if norm.p == math.inf else w ** (1.0 / norm.p))[:, None] * mat
    return xs @ mat.T, residual, np.linalg.inv(mat)


def _distinct_rows(arr: np.ndarray) -> np.ndarray:
    return np.unique(arr, axis=0)


# -- Weiszfeld ----------------------------------------------------------------


def _weiszfeld(zs: np.ndarray, budget: int):
    """Geometric median of rows of zs under the plain Euclidean norm.

    Returns (point array, value, gap, evals, note).  The coincidence guard tests
    the subgradient optimality condition whenever an iterate lands on a
    data point; if it holds the point is exactly optimal (gap 0), otherwise
    a finite descent step escapes the singularity.
    """
    n = zs.shape[0]
    scale = 1.0 + float(np.abs(zs).max())
    snap_eps = GEOM_TOL * scale
    m = zs.mean(axis=0)
    best_val = math.inf
    best_m = m
    # fallback certificate only: the optimum is at least the diameter
    # (n >= 2); folding this into the running bound would cut iteration
    # short of the exact data-point snap on collinear profiles
    pair_diffs = zs[:, None, :] - zs[None, :, :]
    diam = float(np.linalg.norm(pair_diffs, axis=2).max())
    opt_lb = -math.inf
    evals = 0
    iterations = max(2, budget // max(n, 1))
    for _ in range(iterations):
        diff = zs - m
        dist = np.linalg.norm(diff, axis=1)
        evals += n
        nearest = int(np.argmin(dist))
        if dist[nearest] < snap_eps:
            anchor = zs[nearest]
            d_exact = np.linalg.norm(zs - anchor, axis=1)
            away = d_exact > 0.0
            if not away.any():
                return anchor, 0.0, 0.0, evals, ""
            value = float(d_exact.sum())
            if value < best_val:
                best_val, best_m = value, anchor.copy()
            g = ((anchor - zs[away]) / d_exact[away, None]).sum(axis=0)
            gnorm = float(np.linalg.norm(g))
            coincident = int((~away).sum())  # multiplicity of the anchor
            if gnorm <= coincident + 1e-12:
                # subgradient condition holds: the data point is optimal
                return anchor, value, 0.0, evals, ""
            gap = max(0.0, best_val - opt_lb)
            if gap <= GAP_REL * (1.0 + best_val):
                return best_m, best_val, gap, evals, ""
            # escape the singularity with an explicit descent step
            inv_sum = float((1.0 / d_exact[away]).sum())
            step = (gnorm - coincident) / inv_sum
            m = anchor - step * g / gnorm
            continue
        value = float(dist.sum())
        grad = -(diff / dist[:, None]).sum(axis=0)
        hull_radius = float(dist.max())
        opt_lb = max(opt_lb, value - float(np.linalg.norm(grad)) * hull_radius)
        if value < best_val:
            best_val, best_m = value, m.copy()
        gap = max(0.0, best_val - opt_lb)
        if gap <= GAP_REL * (1.0 + best_val):
            return best_m, best_val, gap, evals, ""
        w = 1.0 / dist
        m = (zs * w[:, None]).sum(axis=0) / w.sum()
    note = "budget exhausted before gap target"
    opt_lb = max(opt_lb, diam)
    gap = max(0.0, best_val - opt_lb) if math.isfinite(best_val) else math.inf
    if gap <= GAP_REL * (1.0 + best_val):
        note = ""
    return best_m, best_val, gap, evals, note


# -- Lipschitz branch-and-bound ------------------------------------------------


def _branch_bound(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    axis_rate: np.ndarray,
    budget: int,
    seeds: np.ndarray,
):
    """Certified minimization of a Lipschitz function over a box.

    ``fn`` is batched ((m, d) -> (m,)); ``axis_rate[j]`` bounds the
    objective change per unit move along axis j, so a cell with half-widths
    h has the sound lower bound f(center) - h . axis_rate.  Cells that
    cannot beat the incumbent are pruned; surviving cells split 3x per
    active axis.  Returns (best_point, best_value, lower_bound, evals, note).
    """
    d = lo.size
    span = hi - lo
    active = span > 1e-15 * (1.0 + np.abs(hi).max())
    note = ""
    evals = 0

    best_val = math.inf
    best_pt = (lo + hi) / 2.0
    if seeds.size:
        seeds = np.clip(seeds, lo, hi)
        vals = fn(seeds)
        evals += seeds.shape[0]
        k = int(np.argmin(vals))
        best_val, best_pt = float(vals[k]), seeds[k].copy()

    if not active.any():
        # box is numerically a point; charge its full extent to the bound
        return best_pt, best_val, best_val - float(span @ axis_rate), evals, note

    # initial tiling of the box
    splits = np.where(active, {1: 24, 2: 14, 3: 8}.get(int(active.sum()), 6), 1)
    axes = [
        (np.arange(k) + 0.5) * span[j] / k + lo[j] if k > 1 else np.array([(lo[j] + hi[j]) / 2.0])
        for j, k in enumerate(splits)
    ]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    halves = span / splits / 2.0

    dropped_lower = math.inf
    lower = -math.inf
    cell_cap = 30_000
    split_budget = budget - min(2000, budget // 5)  # reserve room for the polish
    for _generation in range(64):
        vals = fn(centers)
        evals += centers.shape[0]
        k = int(np.argmin(vals))
        if float(vals[k]) < best_val:
            best_val, best_pt = float(vals[k]), centers[k].copy()
        radius = float(halves @ axis_rate)
        bounds = vals - radius
        lower = min(float(bounds.min()), dropped_lower, best_val)
        gap = best_val - lower
        if gap <= GAP_REL * (1.0 + best_val):
            break
        keep = bounds < best_val
        if not keep.any():
            # bound-pruned cells cannot beat the incumbent, but cells dropped
            # earlier to the budget cap still might
            lower = min(best_val, dropped_lower)
            break
        survivors = centers[keep]
        order = np.argsort(bounds[keep], kind="stable")
        survivors = survivors[order]
        n_children = int(survivors.shape[0] * np.prod(np.where(active, 3, 1)))
        if evals + n_children > split_budget or n_children > cell_cap:
            max_parents = max(
                1, min((split_budget - evals), cell_cap) // int(np.prod(np.where(active, 3, 1)))
            )
            if max_parents < survivors.shape[0]:
                cut = np.sort(bounds[keep], kind="stable")[max_parents:]
                if cut.size:
                    dropped_lower = min(dropped_lower, float(cut.min()))
                survivors = survivors[:max_parents]
            if evals >= split_budget:
                note = "budget exhausted before gap target"
                break
        offsets = [
            np.array([-2.0 / 3.0, 0.0, 2.0 / 3.0]) * halves[j] if active[j] else np.array([0.0])
            for j in range(d)
        ]
        grid = np.stack(np.meshgrid(*offsets, indexing="ij"), axis=-1).reshape(-1, d)
        centers = (survivors[:, None, :] + grid[None, :, :]).reshape(-1, d)
        halves = np.where(active, halves / 3.0, halves)
        if float(halves.max()) < 1e-13 * (1.0 + np.abs(hi).max()):
            break
    else:
        note = "generation cap reached"

    # pattern-search polish: can only lower the incumbent value
    step = float(halves.max())
    scale = 1.0 + float(np.abs(hi).max())
    dirs = [np.eye(d)[j] for j in range(d) if active[j]]
    if dirs:
        dirs.append(np.where(active, 1.0, 0.0) / math.sqrt(max(1, int(active.sum()))))
    while step > 1e-12 * scale and evals < budget and dirs:
        improved = False
        for direction in dirs:
            for sign in (1.0, -1.0):
                cand = np.clip(best_pt + sign * step * direction, lo, hi)
                val = float(fn(cand[None, :])[0])
                evals += 1
                if val < best_val - 1e-15:
                    best_val, best_pt = val, cand
                    improved = True
        if not improved:
            step *= 0.5

    lower = min(lower, best_val)
    return best_pt, best_val, max(lower, -math.inf), evals, note


def _objective_fn(
    objective: Objective, zs: np.ndarray, norm: Norm
) -> Callable[[np.ndarray], np.ndarray]:
    """Batched objective over the rows zs: one value per candidate row."""
    if objective is Objective.MAX_COST:
        return lambda points: _distance_matrix(points, zs, norm).max(axis=1)
    return lambda points: _distance_matrix(points, zs, norm).sum(axis=1)


def _seed_points(zs: np.ndarray) -> np.ndarray:
    n = zs.shape[0]
    seeds = [zs, zs.mean(axis=0, keepdims=True), np.median(zs, axis=0, keepdims=True)]
    mids = [(zs[i] + zs[j]) / 2.0 for i in range(n) for j in range(i + 1, n)]
    if mids:
        seeds.append(np.asarray(mids))
    return np.vstack(seeds)


def _dual_norm(p: float, u: np.ndarray) -> float:
    """Dual of the plain p-norm, for Hoelder bounds on subgradients.

    Max-factored so huge conjugate exponents (p near 1) cannot overflow;
    a small safety factor keeps the result an upper bound, which is the
    side certificates need.
    """
    if p == 1.0:
        return float(np.max(np.abs(u)))
    if p == math.inf:
        return float(np.sum(np.abs(u)))
    q = p / (p - 1.0)
    a = np.abs(u)
    peak = float(a.max())
    if peak == 0.0:
        return 0.0
    value = peak * float(((a / peak) ** q).sum() ** (1.0 / q))
    return value * (1.0 + 1e-12)


def _term_gradients(zs: np.ndarray, p: float, y: np.ndarray, dists: np.ndarray):
    """Gradients of y -> ||y - z_i||_p for 1 < p < inf, given those distances.

    Each ratio |u_k| / ||u||_p is at most 1, so the power cannot overflow
    even for huge p.  Once p is so large that ||u||_p rounds to max |u_k|,
    a k-way tie yields k unit entries; such rows are scaled back to dual
    norm 1, which keeps them subgradients.
    """
    diffs = y[None, :] - zs
    grads = np.sign(diffs) * (np.abs(diffs) / dists[:, None]) ** (p - 1.0)
    q = p / (p - 1.0)
    dual = (np.abs(grads) ** q).sum(axis=1) ** (1.0 / q)
    return grads / np.where(dual > 1.0 + 1e-9, dual, 1.0)[:, None]


def _min_norm_point(grads: np.ndarray) -> np.ndarray:
    """Shortest vector in the convex hull of the given rows.

    The projection of the origin onto a polytope in R^d lies in the hull
    of at most d+1 vertices (Caratheodory), so subsets up to that size are
    enumerated and the origin is projected onto each affine hull by least
    squares on the edge matrix (stable even for nearly opposite rows);
    projections with negative barycentric weights are discarded.
    """
    k, d = grads.shape
    norms_sq = (grads * grads).sum(axis=1)
    best = grads[int(np.argmin(norms_sq))].copy()
    best_val = float(norms_sq.min())
    max_support = min(k, d + 1)
    for size in range(2, max_support + 1):
        for idx in itertools.combinations(range(k), size):
            base = grads[idx[0]]
            edges = grads[list(idx[1:])] - base
            t, *_ = np.linalg.lstsq(edges.T, -base, rcond=None)
            lam_rest = t
            lam0 = 1.0 - float(lam_rest.sum())
            if lam0 < -1e-12 or lam_rest.min() < -1e-12:
                continue
            candidate = base + edges.T @ t
            val = float(candidate @ candidate)
            if val < best_val:
                best_val, best = val, candidate
    return best


def _mc_steepest_polish(
    zs: np.ndarray,
    residual: Norm,
    y: np.ndarray,
    value: float,
    lo: np.ndarray,
    hi: np.ndarray,
):
    """Local minimax refinement along min-norm subgradient directions.

    Compass search stalls at kink points of a max-of-distances function;
    the steepest-descent direction there is the shortest vector in the
    convex hull of the band-active term gradients.  Needed so the
    active-set certificate sees balanced terms.
    """
    if not 1.0 < residual.p < math.inf:
        return y, value, 0
    evals = 0
    tau = 1e-2 * (1.0 + value)
    for _ in range(80):
        if tau < 1e-11 * (1.0 + value):
            break
        dists = residual.eval_many(y[None, :] - zs)
        evals += zs.shape[0]
        value = float(dists.max())
        scale = 1.0 + float(np.abs(zs).max())
        active = dists >= value - tau
        if float(dists[active].min()) < 1e-12 * scale:
            break  # at a data point; nothing to balance
        grads = _term_gradients(zs[active], residual.p, y, dists[active])
        combo = _min_norm_point(grads)
        gnorm = float(np.linalg.norm(combo))
        if gnorm < 1e-14:
            tau /= 4.0
            continue
        direction = -combo / gnorm
        improved = False
        step = tau / gnorm
        for _halving in range(12):
            cand = np.clip(y + step * direction, lo, hi)
            cand_val = float(residual.eval_many(cand[None, :] - zs).max())
            evals += zs.shape[0]
            if cand_val < value - 1e-15:
                y, value = cand, cand_val
                improved = True
                break
            step /= 2.0
        if not improved:
            tau /= 4.0
    return y, value, evals


def _mc_subgradient_lower_bound(
    zs: np.ndarray,
    residual: Norm,
    y: np.ndarray,
    value: float,
    lo: np.ndarray,
    hi: np.ndarray,
) -> float:
    """Active-set certificate for the minimax center (a kink point).

    For any weights lam over terms within eps of the max, every x satisfies
    mc(x) >= mc(y) - eps + (sum lam_i grad_i) . (x - y), so the optimum is
    bounded below by value - eps - ||sum lam grad||_dual * D with D the
    farthest box corner.  Several eps levels are tried; each is valid.
    """
    if not 1.0 < residual.p < math.inf:
        return -math.inf
    diffs = y[None, :] - zs
    dists = residual.eval_many(diffs)
    scale = 1.0 + float(np.abs(zs).max())
    corners = np.stack(
        np.meshgrid(*[(lo[j], hi[j]) for j in range(lo.size)], indexing="ij"), axis=-1
    ).reshape(-1, lo.size)
    reach = float(residual.eval_many(corners - y[None, :]).max())
    best = -math.inf
    for eps_rel in (1e-12, 1e-9, 1e-7, 1e-5):
        eps = eps_rel * (1.0 + value)
        active = dists >= value - eps
        if not active.any() or float(dists[active].min()) < 1e-12 * scale:
            continue
        grads = _term_gradients(zs[active], residual.p, y, dists[active])
        combo = _min_norm_point(grads)
        best = max(best, value - eps - _dual_norm(residual.p, combo) * reach)
    return best


def _sc_gradient_lower_bound(
    zs: np.ndarray, residual: Norm, y: np.ndarray, value: float
) -> float:
    """Convexity certificate: sc(opt) >= sc(y) - ||grad||_dual * hull radius.

    Valid for differentiable residual norms (1 < p < inf) whenever y avoids
    the data points; returns -inf when it does not apply.
    """
    if not 1.0 < residual.p < math.inf:
        return -math.inf
    dists = residual.eval_many(y[None, :] - zs)
    scale = 1.0 + float(np.abs(zs).max())
    if float(dists.min()) < 1e-12 * scale:
        return -math.inf
    grad = _term_gradients(zs, residual.p, y, dists).sum(axis=0)
    return value - _dual_norm(residual.p, grad) * float(dists.max())


def opt_social_cost(
    profile: Profile,
    norm: Norm,
    budget: int = DEFAULT_BUDGET,
    method: str = "auto",
) -> OptResult:
    """Certified geometric-median benchmark (social-cost optimum).

    method: "auto" picks Weiszfeld for every p = 2 norm and
    branch-and-bound otherwise; "weiszfeld" / "grid" force a route (the
    two stay independent so they can cross-check each other).
    """
    xs = profile.as_array
    distinct = _distinct_rows(xs)
    if distinct.shape[0] == 1:
        return OptResult(Point.from_array(distinct[0]), 0.0, 0.0, "exact", 0)
    if profile.n == 2:
        mid = Point.from_array(xs.mean(axis=0))
        value = norm.distance(profile.agent(1), profile.agent(2))
        return OptResult(mid, value, 0.0, "exact-two-point", 0)

    if method not in ("auto", "weiszfeld", "grid"):
        raise ValueError(f"unknown method {method!r}")
    if method == "weiszfeld" and norm.p != 2.0:
        raise ValueError("weiszfeld route requires a Euclidean-reducible norm")

    zs, residual, inv = _working_space(profile, norm)
    if norm.p == 2.0 and method != "grid":
        route = "weiszfeld"
        z, value, gap, evals, note = _weiszfeld(zs, budget)
    else:
        route = "grid"
        fn = _objective_fn(Objective.SOCIAL_COST, zs, residual)
        rates = np.full(profile.d, float(profile.n))
        z, value, lower, evals, note = _branch_bound(
            fn, zs.min(axis=0), zs.max(axis=0), rates, budget, _seed_points(zs)
        )
        # the sum of distances is at least the profile diameter (n >= 2)
        diam = profile.diameter(norm)
        lower = max(lower, diam, _sc_gradient_lower_bound(zs, residual, z, value))
        gap = max(0.0, value - lower)
        if gap <= GAP_REL * (1.0 + value):
            note = ""
    pt = Point.from_array(z if inv is None else z @ inv.T)
    return OptResult(pt, value, gap, route, evals, note)


def opt_max_cost(
    profile: Profile, norm: Norm, budget: int = DEFAULT_BUDGET
) -> OptResult:
    """Certified minimax-center benchmark (maximum-cost optimum).

    Two distinct support points: their midpoint halves the diameter and is
    exactly optimal under any norm (gap 0).  General case: Lipschitz
    branch-and-bound, with half the profile diameter as an extra certified
    lower bound.
    """
    xs = profile.as_array
    distinct = _distinct_rows(xs)
    if distinct.shape[0] == 1:
        return OptResult(Point.from_array(distinct[0]), 0.0, 0.0, "exact", 0)
    if distinct.shape[0] == 2:
        a, b = distinct[0], distinct[1]
        mid = Point.from_array((a + b) / 2.0)
        value = norm((a - b) / 2.0)
        return OptResult(mid, value, 0.0, "exact-two-point", 0)

    zs, residual, inv = _working_space(profile, norm)
    lo, hi = zs.min(axis=0), zs.max(axis=0)
    fn = _objective_fn(Objective.MAX_COST, zs, residual)
    z, value, lower, evals, note = _branch_bound(
        fn, lo, hi, np.ones(profile.d), budget, _seed_points(zs)
    )
    z, value, polish_evals = _mc_steepest_polish(zs, residual, z, value, lo, hi)
    evals += polish_evals
    half_diam = profile.diameter(norm) / 2.0
    lower = max(
        lower, half_diam, _mc_subgradient_lower_bound(zs, residual, z, value, lo, hi)
    )
    gap = max(0.0, value - lower)
    if gap <= GAP_REL * (1.0 + value):
        note = ""
    pt = Point.from_array(z if inv is None else z @ inv.T)
    return OptResult(pt, value, gap, "grid", evals, note)


def opt_cost(
    objective: Objective, profile: Profile, norm: Norm, budget: int = DEFAULT_BUDGET
) -> OptResult:
    if objective is Objective.MAX_COST:
        return opt_max_cost(profile, norm, budget)
    return opt_social_cost(profile, norm, budget)


def opt_value_upper(objective: Objective, profile: Profile, norm: Norm) -> float:
    """Cheap upper bound on the optimum: best of a few heuristic centers.

    Never undershoots the optimum (every candidate is feasible), so ratios
    scored against it never exceed the true ratio.  Used to steer searches;
    reported results are re-certified with the full optimizers.
    """
    return opt_value_upper_xs(objective, profile.as_array, norm)


def opt_value_upper_xs(objective: Objective, xs: np.ndarray, norm: Norm) -> float:
    """:func:`opt_value_upper` on an (n, d) report array."""
    distinct = _distinct_rows(xs)
    if distinct.shape[0] == 1:
        return 0.0
    if distinct.shape[0] == 2 and objective is Objective.MAX_COST:
        # midpoint halves the diameter regardless of multiplicities
        return norm((distinct[0] - distinct[1]) / 2.0)
    return float(_objective_fn(objective, xs, norm)(_seed_points(xs)).min())


@dataclass(frozen=True)
class RatioResult:
    """Approximation ratio with certified interval bounds.

    ``unbounded`` marks the optimum-zero, positive-cost case; the 0/0 case
    is defined as ratio 1.
    """

    ratio: float
    lo: float
    hi: float
    cost: float
    opt: OptResult
    unbounded: bool = False


def approx_ratio(
    mech,
    profile: Profile,
    norm: Norm,
    objective: Objective,
    budget: int = DEFAULT_BUDGET,
) -> RatioResult:
    """Ratio of the mechanism's cost to the certified optimum."""
    lot = mechanisms.resolve(mech)(profile, norm)
    mech_cost = cost(objective, lot, profile, norm)
    opt = opt_cost(objective, profile, norm, budget)
    if opt.value <= 0.0:
        if mech_cost <= GEOM_TOL:
            return RatioResult(1.0, 1.0, 1.0, mech_cost, opt)
        return RatioResult(math.inf, math.inf, math.inf, mech_cost, opt, True)
    ratio = mech_cost / opt.value
    # Round the ends outward, or a zero gap certifies [r, r] for an r that is
    # only right to rounding: cost and optimum each carry RATIO_ULPS, and atoms
    # and working coordinates computed from the reports are rounded per
    # coordinate, an error the norm maps by at most sum_k |x_k| * ||e_k||.
    xs = profile.as_array
    reach = float((np.abs(xs) @ norm.eval_many(np.eye(profile.d))).max())
    slack = RATIO_ULPS * (2.0 + profile.n * reach / opt.value) * sys.float_info.epsilon
    lo = max(0.0, 1.0 - slack) * mech_cost / (opt.value + opt.certified_gap)
    denom = opt.value - opt.certified_gap
    hi = (1.0 + slack) * mech_cost / denom if denom > 0.0 else math.inf
    return RatioResult(ratio, lo, hi, mech_cost, opt)
