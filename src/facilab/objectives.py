"""Cost objectives and numerically certified optimal benchmarks.

``cost_mc`` / ``cost_sc`` evaluate the expected maximum / social cost of a
lottery exactly (finite support).  ``opt_social_cost`` / ``opt_max_cost``
return a feasible point together with a certified optimality gap, so
approximation ratios can be reported as intervals instead of overclaimed
point estimates.

Both optimizers work in coordinates z = (M x - c) / s, where M is the
norm's transform with the weights folded in as a row scaling, and c and s
are the centroid and extent of the mapped reports.  There the norm is s
times the plain p-norm of coordinate differences, and every profile has
unit extent whatever its scale.

Certification routes (``OptResult.method``), chosen in one place,
:func:`_optimum`, from the objective and, in working coordinates, the
exponent p and the dimension d:

* "exact", gap 0: a unanimous profile, its location; L1 social cost, the
  coordinate-wise median; Linf max cost, the center of the bounding box.
  In d = 2 the rotation (z1 + z2, z1 - z2) carries L1 max cost and Linf
  social cost onto those two, and in d = 1 both apply for every p;
* "exact-two-point", gap 0: max cost over two distinct locations, or
  social cost over two reports, takes their midpoint under any norm;
* "lp": Linf social cost and L1 max cost in d >= 3, by a dense linear
  program (two-phase tableau simplex), its point from the active rows of
  the final basis and its gap from weak duality on the final multipliers;
* "ball": max cost under every other 1 < p < inf, the reports' minimax
  center, from the centers of their support sets of 2..d+1 reports (a
  pair's midpoint; larger sets' p = 2 circumcenters, refined for p != 2 by
  batched Newton steps on each set's KKT system), gap certified by the
  active set on its support.  For p != 2 the best center so far is
  certified after each set size and the search stops once the gap meets
  its target; a profile whose support sets miss it falls back to "grid";
* "grid": social cost under every 1 < p < inf, p = 2 included, and that
  fallback: one certified search.  The best seed is polished (damped
  Newton for social cost, min-norm subgradient steps for max cost) and
  certified before any tiling, for both objectives by one bundle of linear
  minorants (:func:`_bundle_lower_bound`), social cost also by Kuhn's
  condition at the reports.  Only when that misses the gap target does a
  Lipschitz branch-and-bound over the working bounding box (the
  objectives are n- resp. 1-Lipschitz per unit axis step) continue from
  the incumbent, polishing and certifying again whenever the incumbent
  improves and stopping once the gap meets the target.
  ``opt_social_cost(..., method="grid")`` forces this route for every
  norm; it shares no code with the closed forms or the LP, so it can
  cross-check them.

Both objectives are convex and the plain p-norm is coordinate-monotone, so
clamping onto the working bounding box never increases either objective:
the optimum provably lies inside the searched box for every supported norm.
"""

from __future__ import annotations

import functools
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
    _owned_costs,
    distance_matrix,
    duplicate_rows,
    expected_cost_stack,
    fold,
)

DEFAULT_BUDGET = 60_000
GAP_REL = 1e-6  # certified_gap target: <= GAP_REL * (min(1, extent) + value)
RATIO_ULPS = 4  # rounding of one computed cost or optimum, in ulps of its size
BUNDLE_TIE = 1e-4  # a coordinate this close to a report's is a tie the smooth certificate straddles


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

    @property
    def per_atom(self) -> np.ufunc:
        """How one atom's distances to the agents combine: max or sum."""
        return np.maximum if self is Objective.MAX_COST else np.add


@dataclass(frozen=True, slots=True)
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


def cost(objective: Objective, lot: Lottery, profile: Profile, norm: Norm) -> float:
    if lot.dim != profile.d:
        raise DimensionMismatch("lottery and profile dimensions differ")
    atoms = lot.weights_array[None], lot.points_array[None]
    return float(expected_cost_stack(objective.per_atom, *atoms, profile.as_array[None], norm)[0])


def cost_mc(lot: Lottery, profile: Profile, norm: Norm) -> float:
    """Expected maximum cost (see :func:`~facilab.geometry.expected_cost_stack`)."""
    return cost(Objective.MAX_COST, lot, profile, norm)


def cost_sc(lot: Lottery, profile: Profile, norm: Norm) -> float:
    """Expected social cost (see :func:`~facilab.geometry.expected_cost_stack`)."""
    return cost(Objective.SOCIAL_COST, lot, profile, norm)


# -- working coordinates -----------------------------------------------------
#
# Optimization always runs in coordinates z = (M x - c) / s.  M is the
# norm's transform with the weights folded in as a row scaling (w**(1/p), or
# w for p = inf), so distances equal s times plain p-norms of z-differences.
# That residual is coordinate-monotone, which makes the bounding box
# rigorous, moves by at most one per unit axis step, and is Euclidean
# whenever p = 2.  Translating by the centroid c and dividing by the extent s
# gives every working profile unit extent, so tolerances, powers and the gap
# target mean the same at 1e-300 as at 1e200; the tolerances below are
# absolute in these coordinates.


def _working_space(profile: Profile, norm: Norm):
    """Working reports, the plain residual p-norm, the extent s, and the map back.

    ``to_x(z)`` maps a working point to report coordinates; a working
    report maps to its report exactly.
    """
    xs = profile.as_array
    mapped, inv = xs, None
    if norm.weights is not None or norm.transform is not None:
        if norm.dim != profile.d:
            raise DimensionMismatch(f"norm expects dimension {norm.dim}, got {profile.d}")
        mat = np.eye(profile.d) if norm.transform is None else np.asarray(norm.transform, dtype=float)
        if norm.weights is not None:
            w = np.asarray(norm.weights, dtype=float)
            mat = (w if norm.p == math.inf else w ** (1.0 / norm.p))[:, None] * mat
        mapped, inv = xs @ mat.T, np.linalg.inv(mat)
    center = mapped.mean(axis=0)
    extent = float(np.abs(mapped - center).max()) or 1.0
    zs = (mapped - center) / extent

    def to_x(z: np.ndarray) -> np.ndarray:
        hit = np.flatnonzero((zs == z).all(axis=1))
        if hit.size:
            return xs[hit[0]]
        y = z * extent + center
        return y if inv is None else y @ inv.T

    return zs, Norm(norm.p), extent, to_x


def _meets_target(gap: float, value: float, unit: float) -> bool:
    """The gap target in working coordinates, where ``unit`` is min(1, 1/s):
    GAP_REL * (1 + value) in report coordinates, but relative to the extent
    for a profile smaller than 1."""
    return gap <= GAP_REL * (unit + value)


# -- closed forms ----------------------------------------------------------------
#
# The polyhedral residuals are separable: sum_k |u_k| is minimized one
# coordinate at a time by a median, and the maximum over reports of
# max_k |u_k| by the center of their bounding box.  In d = 2 the map
# (u, v) = (z1 + z2, z1 - z2) turns |a| + |b| into max(|u|, |v|) and
# max(|a|, |b|) into (|u| + |v|) / 2, which swaps the two cases; in d = 1
# every p-norm is |.|, so both apply for every p.

_ROTATION = np.array([[1.0, 1.0], [1.0, -1.0]])  # symmetric; its inverse is itself / 2


def _exact_point(objective: Objective, zs: np.ndarray, p: float):
    """Exact minimizer in working coordinates, or None without a closed form."""
    if objective is Objective.MAX_COST:
        center = lambda a: (a.min(axis=0) + a.max(axis=0)) / 2.0
        native, swapped = math.inf, 1.0
    else:
        center = lambda a: np.median(a, axis=0)
        native, swapped = 1.0, math.inf
    d = zs.shape[1]
    if d == 1 or p == native:
        return center(zs)
    if d == 2 and p == swapped:
        return center(zs @ _ROTATION) @ _ROTATION / 2.0
    return None


# -- dense LP for the other polyhedral cases -----------------------------------
#
# Without a closed form (d >= 3), Linf social cost and L1 max cost are small
# linear programs min c.v s.t. A v <= b over v = (x, t):
#   Linf sc: min sum_i t_i  s.t.  +-(x_k - z_ik) <= t_i   (d + n variables, 2nd rows)
#   L1 mc:   min t          s.t.  s.(x - z_i) <= t        (d + 1 variables, 2^d n rows,
#                                                          s in {-1, 1}^d)
# Each row g.(x - z_i) <= t_j is a linear minorant of the term ||x - z_i||
# (||g||_dual = 1).  The simplex runs on the dual, min b.mu s.t. A^T mu = -c,
# mu >= 0, whose final basis names the active rows (the point) and whose
# values are the multipliers (the certificate).

LP_PIVOT_CAP = 500  # simplex pivots per LP, both phases together
LP_TOL = 1e-9  # pivot tolerance; the dual's constraint matrix has entries 0, +-1


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= factors[:, None] * tab[row][None, :]
    basis[row] = col


def _pivot_loop(tab: np.ndarray, basis: np.ndarray, cols: int, cap: int) -> int:
    """Primal simplex pivots with Bland's rule (no cycling) over the first
    ``cols`` columns until optimal, unbounded or ``cap``; returns the count."""
    done = 0
    while done < cap:
        entering = np.flatnonzero(tab[-1, :cols] < -LP_TOL)
        if not entering.size:
            break
        col = int(entering[0])
        rows = np.flatnonzero(tab[:-1, col] > LP_TOL)
        if not rows.size:
            break
        ratios = np.maximum(tab[rows, -1], 0.0) / tab[rows, col]
        ties = rows[ratios <= ratios.min() + LP_TOL]
        _pivot(tab, basis, int(ties[np.argmin(basis[ties])]), col)
        done += 1
    return done


def _simplex(cost: np.ndarray, eq: np.ndarray, rhs: np.ndarray):
    """Two-phase tableau simplex for min cost.mu s.t. eq @ mu = rhs >= 0, mu >= 0.

    Returns (mu, basis, pivots).  ``basis`` holds the final basic columns;
    an index >= eq.shape[1] is an artificial left in by an unfinished phase
    1.  At most LP_PIVOT_CAP pivots run; mu is the last basic solution
    either way, so it may be infeasible or suboptimal and callers must
    certify what they use.
    """
    m, k = eq.shape
    tab = np.zeros((m + 1, k + m + 1))
    tab[:m, :k] = eq
    tab[:m, k : k + m] = np.eye(m)
    tab[:m, -1] = rhs
    tab[m, :k] = -eq.sum(axis=0)  # phase 1: minimize the artificials' sum
    tab[m, -1] = -rhs.sum()
    basis = np.arange(k, k + m)
    pivots = _pivot_loop(tab, basis, k, LP_PIVOT_CAP)
    for row in np.flatnonzero(basis >= k):  # artificials left at level zero
        nonzero = np.flatnonzero(np.abs(tab[row, :k]) > LP_TOL)
        if nonzero.size and pivots < LP_PIVOT_CAP:
            _pivot(tab, basis, int(row), int(nonzero[0]))
            pivots += 1
    real = basis < k
    tab[m] = 0.0
    tab[m, :k] = cost
    tab[m] -= cost[basis[real]] @ tab[:m][real]
    pivots += _pivot_loop(tab, basis, k, LP_PIVOT_CAP - pivots)
    mu = np.zeros(k)
    mu[basis[real]] = tab[:m, -1][real]
    return mu, basis, pivots


def _lp_rows(objective: Objective, zs: np.ndarray):
    """The rows g_j.(x - z_i) <= t of the LP above as (g, i, t) arrays."""
    n, d = zs.shape
    if objective is Objective.SOCIAL_COST:
        signs = np.concatenate([np.eye(d), -np.eye(d)])
        group = np.repeat(np.arange(n), len(signs))
    else:
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=d)))
        group = np.zeros(n * len(signs), dtype=int)
    return np.tile(signs, (n, 1)), np.repeat(np.arange(n), len(signs)), group


def _dual_bound(rows, zs: np.ndarray, residual: Norm, y: np.ndarray, mu: np.ndarray) -> float:
    """Weak duality: a lower bound on the objective over the box from any
    multipliers mu of the rows of :func:`_lp_rows`.

    mu is clipped to >= 0 and renormalized to lam with sum 1 per t (0 where
    a t has none).  Each row is a minorant of its term, so with r the
    residual sum_j lam_j g_j every x in the box satisfies
    f(x) >= sum_j lam_j g_j.(y - z_i) - ||r||_dual R, R the box reach from
    y.  A few ulps per row and coordinate cover the bound's own arithmetic.
    """
    grads, owner, group = rows
    terms = int(group.max()) + 1
    lam = np.maximum(mu, 0.0)
    sums = np.bincount(group, lam, minlength=terms)
    lam = lam / np.where(sums > 0.0, sums, 1.0)[group]
    r = lam @ grads
    slopes = grads * (y - zs[owner])
    minorant = float(lam @ slopes.sum(axis=1))
    rnorm = float(np.abs(r).sum() if residual.p == math.inf else np.abs(r).max())
    reach = float(_reach(residual, y[None, :], zs)[0])
    size = float(lam @ np.abs(slopes).sum(axis=1)) + abs(minorant) + (rnorm + terms) * reach
    ulps = 2.0 * (len(grads) + y.size + 4) * sys.float_info.epsilon
    return minorant - rnorm * reach - ulps * size


def _polyhedral_lp(objective: Objective, zs: np.ndarray, residual: Norm, unit: float):
    """Linf social cost or L1 max cost in working coordinates, by the LP above.

    The point solves the active rows of the final basis, clamped onto the
    box; the gap is :func:`_dual_bound` on the final multipliers.  That
    bound holds for any multipliers, so a capped or stuck simplex still
    returns a sound gap, noted as missing its target.
    Returns (point, gap, pivots, note).
    """
    d = zs.shape[1]
    rows = _lp_rows(objective, zs)
    grads, owner, group = rows
    ts = np.zeros((len(grads), int(group.max()) + 1))
    ts[np.arange(len(grads)), group] = -1.0
    b_vec = (grads * zs[owner]).sum(axis=1)
    # the dual: x-rows sum_j mu_j g_j = 0, t-rows sum_{j in t} mu_j = 1
    mu, basis, pivots = _simplex(b_vec, np.vstack([grads.T, -ts.T]), np.r_[np.zeros(d), np.ones(ts.shape[1])])

    lo, hi = zs.min(axis=0), zs.max(axis=0)
    y = None
    if (basis < len(grads)).all():
        try:
            y = np.linalg.solve(np.hstack([grads, ts])[basis], b_vec[basis])[:d]
        except np.linalg.LinAlgError:
            pass
    if y is None or not np.isfinite(y).all():
        y = (lo + hi) / 2.0
    y = np.clip(y, lo, hi)  # clamping onto the box never raises the objective
    value = float(_objective_fn(objective, zs, residual)(y[None, :])[0])
    gap = max(0.0, value - _dual_bound(rows, zs, residual, y, mu))
    return y, gap, pivots, "" if _meets_target(gap, value, unit) else "gap target missed"


# -- Lipschitz branch-and-bound ------------------------------------------------


def _branch_bound(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    axis_rate: np.ndarray,
    budget: int,
    seeds: np.ndarray,
    polish: Callable,
    certify: Callable[[np.ndarray, float], float],
    unit: float,
):
    """Certified minimization of a Lipschitz function over a box.

    ``fn`` is batched ((m, d) -> (m,)); ``axis_rate[j]`` bounds the
    objective change per unit move along axis j, so a cell with half-widths
    h has the sound lower bound f(center) - h . axis_rate.
    ``polish(y, value, budget)`` refines an incumbent locally and returns
    (y, value, evals); ``certify(y, value)`` returns a sound lower bound on
    the minimum.  The best seed is polished and certified before the first
    tiling, and so is every incumbent a tiling improves; the search returns
    as soon as the gap meets its target.  Otherwise cells that cannot beat
    the incumbent are pruned and surviving cells split 3x per active axis.
    ``unit`` scales the gap target (see :func:`_meets_target`).  The box
    is the working one: no side wider than 2, and one at least 1 wide.
    Returns (best_point, best_value, gap, evals, note).
    """
    d = lo.size
    span = hi - lo
    active = span > 1e-15
    note = ""
    seeds = np.clip(seeds, lo, hi)
    vals = fn(seeds)
    evals = seeds.shape[0]
    k = int(np.argmin(vals))

    def settle(y, value):
        nonlocal evals
        y, value, spent = polish(y, value, budget - evals)
        evals += spent
        return y, value, certify(y, value)

    best_pt, best_val, cert = settle(seeds[k].copy(), float(vals[k]))
    if _meets_target(best_val - cert, best_val, unit):
        return best_pt, best_val, max(0.0, best_val - cert), evals, note

    # initial tiling of the box
    splits = np.where(active, {1: 24, 2: 14, 3: 8}.get(int(active.sum()), 6), 1)
    axes = [
        (np.arange(k) + 0.5) * span[j] / k + lo[j] if k > 1 else np.array([(lo[j] + hi[j]) / 2.0])
        for j, k in enumerate(splits)
    ]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    halves = span / splits / 2.0

    dropped_lower = math.inf
    lower = cert
    cell_cap = 30_000
    split_budget = budget - min(2000, budget // 5)  # reserve room for the polish
    while True:  # halves start at most 1/6 and shrink x1/3: at most 26 generations
        vals = fn(centers)
        evals += centers.shape[0]
        k = int(np.argmin(vals))
        if float(vals[k]) < best_val:
            best_pt, best_val, new_cert = settle(centers[k].copy(), float(vals[k]))
            cert = max(cert, new_cert)
        radius = float(halves @ axis_rate)
        bounds = vals - radius
        lower = max(cert, min(float(bounds.min()), dropped_lower, best_val))
        if _meets_target(best_val - lower, best_val, unit):
            return best_pt, best_val, max(0.0, best_val - lower), evals, note
        keep = bounds < best_val
        if not keep.any():
            # bound-pruned cells cannot beat the incumbent, but cells dropped
            # earlier to the budget cap still might
            lower = max(cert, min(best_val, dropped_lower))
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
        if float(halves.max()) < 1e-13:
            break

    # the polishes can only lower the incumbent value
    best_pt, best_val, spent = _compass_polish(
        fn, best_pt, best_val, lo, hi, float(halves.max()), budget - evals
    )
    evals += spent
    best_pt, best_val, new_cert = settle(best_pt, best_val)
    lower = max(lower, new_cert)
    gap = best_val - min(lower, best_val)
    if _meets_target(gap, best_val, unit):
        note = ""
    elif not note:
        note = "gap target missed"
    return best_pt, best_val, gap, evals, note


def _compass_polish(
    fn: Callable[[np.ndarray], np.ndarray],
    y: np.ndarray,
    value: float,
    lo: np.ndarray,
    hi: np.ndarray,
    step: float,
    budget: int,
):
    """Pattern search from y: poll +-step along each free axis and the
    diagonal in one batch, move to the best poll that lowers the value,
    halve the step when none does.  Returns (y, value, evals)."""
    active = hi > lo
    dirs = np.eye(lo.size)[active]
    if not dirs.size:
        return y, value, 0
    dirs = np.vstack([dirs, active / math.sqrt(dirs.shape[0])])
    polls = np.vstack([dirs, -dirs])
    evals = 0
    while step > 1e-12 and evals + polls.shape[0] <= budget:
        cands = np.clip(y + step * polls, lo, hi)
        vals = fn(cands)
        evals += polls.shape[0]
        k = int(np.argmin(vals))
        if float(vals[k]) < value - 1e-15:
            y, value = cands[k], float(vals[k])
        else:
            step *= 0.5
    return y, value, evals


def _objective_fn(
    objective: Objective, zs: np.ndarray, norm: Norm
) -> Callable[[np.ndarray], np.ndarray]:
    """Batched objective over the rows zs: one value per candidate row (per
    row of a stack of reports and of candidates)."""
    return lambda points: fold(objective.per_atom, distance_matrix(points, zs, norm))


@functools.cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs i < j of n reports, read-only, since callers share them."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _seed_points(zs: np.ndarray) -> np.ndarray:
    """The reports, their mean and median and every pairwise midpoint, for
    (n, d) reports or per row of an (m, n, d) stack.  The median is
    ``np.median``'s bit for bit: the mean of the middle one or two sorted
    reports, summed from +0.0."""
    n = zs.shape[-2]
    i, j = _pairs(n)
    s, m = np.sort(zs, axis=-2), n // 2
    if n % 2:
        median = 0.0 + s[..., m : m + 1, :]
    else:
        median = (0.0 + s[..., m - 1 : m, :] + s[..., m : m + 1, :]) / 2.0
    centers = [zs.mean(axis=-2, keepdims=True), median]
    return np.concatenate([zs, *centers, (zs[..., i, :] + zs[..., j, :]) / 2.0], axis=-2)


def _dual_norm(p: float, u: np.ndarray):
    """Dual of the plain p-norm (1 < p < inf) over the last axis, for
    Hoelder bounds on subgradients.

    Max-factored so huge conjugate exponents (p near 1) cannot overflow;
    a small safety factor keeps the result an upper bound, which is the
    side certificates need.
    """
    q = p / (p - 1.0)
    a = np.abs(u)
    peak = a.max(axis=-1, keepdims=True)
    ratios = a / np.where(peak > 0.0, peak, 1.0)
    return peak[..., 0] * (ratios**q).sum(axis=-1) ** (1.0 / q) * (1.0 + 1e-12)


def _term_gradients(diffs: np.ndarray, p: float, dists: np.ndarray) -> np.ndarray:
    """Gradients of y -> ||y - z_i||_p for 1 < p < inf at diffs = y - z_i,
    given those distances (a zero difference with distance 1 gives 0).

    Each ratio |u_k| / ||u||_p is at most 1, so the power cannot overflow
    even for huge p.  Once p is so large that ||u||_p rounds to max |u_k|,
    a k-way tie yields k unit entries; such rows are scaled back to dual
    norm 1, which keeps them subgradients.
    """
    grads = np.sign(diffs) * (np.abs(diffs) / dists[..., None]) ** (p - 1.0)
    q = p / (p - 1.0)
    dual = (np.abs(grads) ** q).sum(axis=-1) ** (1.0 / q)
    return grads / np.where(dual > 1.0 + 1e-9, dual, 1.0)[..., None]


def _hessian(diffs: np.ndarray, dists: np.ndarray, grads: np.ndarray, p: float, weights) -> np.ndarray:
    """Weighted sum over the terms (axis -2) of the Hessians of ||u||_p at
    u = diffs, given their distances and gradients, one (d, d) matrix per
    leading index.

    The Hessian of ||u||_p is (p-1)/||u|| (diag(r^(p-2)) - g g^T) with
    r = |u|/||u|| (kept >= 1e-12, so p < 2 cannot divide by zero) and g
    the gradient.
    """
    ratios = np.maximum(np.abs(diffs) / dists[..., None], 1e-12)
    curv = weights * (p - 1.0) / dists
    hess = np.einsum("...i,...ij,...ik->...jk", -curv, grads, grads)
    hess += np.eye(diffs.shape[-1]) * (curv[..., None] * ratios ** (p - 2.0)).sum(axis=-2)[..., None, :]
    return hess


def _reach(residual: Norm, ys: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Distance from each row of ys to the farthest corner of the reports'
    bounding box.

    Clamping onto that box never increases either objective, so a
    minimizer lies within this distance of every row.  The residual is
    coordinate-monotone, so that corner takes the larger of |y - lo| and
    |y - hi| on every axis.
    """
    lo, hi = zs.min(axis=0), zs.max(axis=0)
    return residual.eval_many(np.maximum(np.abs(ys - lo), np.abs(ys - hi)))


def _min_norm_point(grads: np.ndarray):
    """Shortest vector in the convex hull of the given rows, and its weights.

    The projection of the origin onto a polytope in R^d lies in the hull
    of at most d+1 vertices (Caratheodory), so subsets up to that size are
    enumerated and the origin is projected onto each affine hull by least
    squares on the edge matrix (stable even for nearly opposite rows);
    projections with barycentric weights below -1e-12 are discarded.  When
    the best one has a weight below 0, the weights are clipped to >= 0 and
    renormalized and the vector is their combination, so it lies in the
    hull up to rounding.  Returns (vector, weights), one weight per row.
    """
    k, d = grads.shape
    norms_sq = (grads * grads).sum(axis=1)
    support = [int(np.argmin(norms_sq))]
    best, best_val, lam = grads[support[0]].copy(), float(norms_sq.min()), np.ones(1)
    for size in range(2, min(k, d + 1) + 1):
        for idx in itertools.combinations(range(k), size):
            base = grads[idx[0]]
            edges = grads[list(idx[1:])] - base
            t, *_ = np.linalg.lstsq(edges.T, -base, rcond=None)
            lam0 = 1.0 - float(t.sum())
            if lam0 < -1e-12 or t.min() < -1e-12:
                continue
            candidate = base + edges.T @ t
            val = float(candidate @ candidate)
            if val < best_val:
                best_val, best, support, lam = val, candidate, list(idx), np.concatenate(([lam0], t))
    if lam.min() < 0.0:
        lam = np.maximum(lam, 0.0)
        lam = lam / lam.sum()
        best = lam @ grads[support]
    return best, np.bincount(support, lam, minlength=k)


def _mc_steepest_polish(
    fn: Callable[[np.ndarray], np.ndarray],
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
    bundle certificate sees balanced terms.  Returns (y, value, evals).
    """
    evals = 0
    tau = 1e-2 * (1.0 + value)
    rounds = 0
    while rounds < 200 and tau >= 1e-11 * (1.0 + value):
        rounds += 1
        dists = residual.eval_many(y[None, :] - zs)
        evals += 1
        value = float(dists.max())
        active = dists >= value - tau
        floor = float(dists[active].min())
        if floor < 1e-12:
            break  # at a data point; nothing to balance
        grads = _term_gradients(y - zs[active], residual.p, dists[active])
        combo = _min_norm_point(grads)[0]
        gnorm = float(np.linalg.norm(combo))
        if gnorm < 1e-14:
            # y stays put, so the next rounds would see these distances and
            # this zero min-norm point again until tau drops a term from the
            # band: count them, one evaluation each, without redoing them
            tau /= 4.0
            while rounds < 200 and tau >= 1e-11 * (1.0 + value) and floor >= value - tau:
                rounds += 1
                evals += 1
                tau /= 4.0
            continue
        # the step tau / |combo| halved 0..11 times, scored in one batch
        steps = (tau / gnorm) * 0.5 ** np.arange(12.0)
        cands = np.clip(y[None, :] - steps[:, None] * (combo / gnorm)[None, :], lo, hi)
        vals = fn(cands)
        evals += steps.size
        better = np.flatnonzero(vals < value - 1e-15)
        if better.size:
            y, value = cands[better[0]], float(vals[better[0]])
        else:
            tau /= 4.0
    return y, value, evals


def _bundle_lower_bound(
    objective: Objective, zs: np.ndarray, residual: Norm, y: np.ndarray, value: float, floor: float, unit: float
) -> float:
    """Cutting-plane lower bound on the optimum for 1 < p < inf, at least ``floor``.

    Each minorant f(x) >= f_k(y_k) + g_k.(x - y_k) takes the gradient at y_k
    of the summed terms (social cost) or of one term (max cost, the best set
    of the terms within 1e-5 (1 + f(y)) of the max).  With lam the weights of
    their min-norm point, the optimum is at least sum lam_k (f_k(y_k) +
    g_k.(y - y_k)) - ||sum lam g||_dual R, R the box's reach from y (Kelley
    1960; Lemarechal's bundle methods).  Only when that misses the gap target
    at y alone are they also taken at y +- 2 delta_c e_c on each coordinate c
    within delta_c <= BUNDLE_TIE of a report's (floored at 1e-12), where
    ||u||_p turns too fast for one gradient if p < 2, with a few ulps each.
    """
    mc = objective is Objective.MAX_COST
    reach = float(_reach(residual, y[None, :], zs)[0])

    def bound(terms, points):
        rows = []  # per point: its minorants' gradients, values at y and rounding sizes (0 at y)
        for at in points:
            ds = residual.eval_many(diffs := at - zs[terms])
            if float(ds.min()) >= 1e-12:  # at a report, its term has no gradient
                g = _term_gradients(diffs, residual.p, ds)
                g, ds = (g, ds) if mc else (g.sum(axis=0)[None, :], ds.sum()[None])
                lin = g * (y - at)
                rows.append((g, ds + lin.sum(axis=1), (ds + np.abs(lin).sum(axis=1)) * (at is not y)))
        if not rows:
            return -math.inf
        grads, lows, sizes = map(np.concatenate, zip(*rows))
        lam = _min_norm_point(grads)[1] if len(grads) > 1 else np.ones(1)
        ulps = 2.0 * (len(lam) + y.size + 4) * sys.float_info.epsilon
        return float(lam @ lows - _dual_norm(residual.p, lam @ grads) * reach - ulps * (lam @ sizes))

    errs = value - residual.eval_many(y[None, :] - zs) if mc else np.zeros(len(zs))
    sets = [errs <= e for e in sorted(set(errs[errs <= 1e-5 * (1.0 + value)].tolist()))]
    lower, terms = max(
        ((bound(s, [y]), s) for s in sets), key=lambda c: c[0], default=(-math.inf, np.ones(len(zs), dtype=bool))
    )
    if not _meets_target(value - max(floor, lower), value, unit):
        delta = np.maximum(np.abs(y - zs).min(axis=0), 1e-12)
        steps = np.diag(2.0 * delta)[delta <= BUNDLE_TIE]
        lower = max(lower, bound(terms, [y, *(y + steps), *(y - steps)]) if len(steps) else lower)
    return max(floor, lower)


# -- minimax center from support sets -------------------------------------------
#
# The max-cost optimum under a strictly convex plain p-norm is the reports'
# minimax center c.  For some support set S of 2..d+1 reports it solves the
# square KKT system in (c, r, lam):
#   ||c - z_i||_p = r for i in S,  sum_S lam_i grad ||c - z_i||_p = 0,  sum lam = 1,
# with lam >= 0; every other set's solution is farther from some report.
# A pair's center is its midpoint under any norm, with lam = (1/2, 1/2).
# Under p = 2 the center is the circumcenter of S in its affine hull, the
# center of the minimum enclosing ball (Elzinga and Hearn 1972, Welzl 1991);
# for other p Newton's method solves the system from there.

BALL_TOL = 1e-12  # barycentric weights down to -BALL_TOL still count as >= 0
BALL_ONE_PASS = 64  # support sets enumerated at once; more grow a working set
BALL_ROUNDS = 64  # working-set rounds; each one strictly grows the ball
BALL_NEWTON = 12  # Newton steps per support-set size for p != 2
BALL_HALVINGS = 7  # step halvings scored when a full Newton step does not help
BALL_KKT_TOL = 1e-14  # a KKT residual this small counts as solved


def _ball_dists(p: float, diffs: np.ndarray) -> np.ndarray:
    """Plain p-norms over the last axis; numpy's Euclidean norm at p = 2."""
    return np.linalg.norm(diffs, axis=-1) if p == 2.0 else Norm(p).eval_many(diffs)


def _kkt_state(rows: np.ndarray, x: np.ndarray, residual: Norm):
    """(diffs, distances, gradients, residual) of the KKT system above at
    x = (c, r, lam), one row per support set of ``rows``."""
    d = rows.shape[-1]
    diffs = x[:, None, :d] - rows
    dists = residual.eval_many(diffs)
    grads = _term_gradients(diffs, residual.p, dists)
    lam = x[:, d + 1 :]
    stationary = (lam[:, :, None] * grads).sum(axis=1)
    return diffs, dists, grads, np.concatenate([dists - x[:, d, None], stationary, lam.sum(axis=1)[:, None] - 1.0], axis=1)


def _merit(resid: np.ndarray) -> np.ndarray:
    """Squared residual norm per system; inf where it is not finite."""
    merit = (resid * resid).sum(axis=1)
    return np.where(np.isfinite(merit), merit, math.inf)


# a center that lands on one of its set's reports has no gradient there:
# that system turns non-finite and drops out
@np.errstate(divide="ignore", invalid="ignore")
def _support_newton(ws: np.ndarray, sets: np.ndarray, centers: np.ndarray, lam: np.ndarray, live: np.ndarray, p: float):
    """Newton's method on the KKT system above for a batch of support sets.

    ``sets`` is (m, k): m sets of k rows of ws, started at ``centers`` with
    weights ``lam``; r starts at the mean distance.  The Jacobian holds
    the lam-weighted :func:`_hessian` of the set's terms.  Each step is one
    batched solve.  A system whose full step does not lower its squared
    residual takes the best of the step halved 1..BALL_HALVINGS times
    instead, all scored in one batch; that damping keeps p far from 2 from
    diverging from the p = 2 start.
    Systems that turn singular or non-finite drop out of ``live``.
    Returns (centers, lam, live).
    """
    rows = ws[sets]
    m, k, d = rows.shape
    size = k + d + 1
    residual = Norm(p)
    r = residual.eval_many(centers[:, None, :] - rows).mean(axis=1)
    x = np.concatenate([centers, r[:, None], lam], axis=1)
    diffs, dists, grads, resid = _kkt_state(rows, x, residual)
    for _ in range(BALL_NEWTON):
        lam = x[:, d + 1 :]
        live &= np.isfinite(resid).all(axis=1)
        done = live & (np.abs(resid).max(axis=1) <= BALL_KKT_TOL)
        if (done == live).all():
            break
        # a solved set with lam >= 0 whose center holds every row is the
        # minimax center of all of them, so the other sets need no more steps
        held = np.flatnonzero(done & (lam.min(axis=1) >= -BALL_TOL))
        if held.size and (residual.eval_many(x[held, None, :d] - ws).max(axis=1) <= x[held, d] + BALL_KKT_TOL).any():
            break
        jac = np.zeros((m, size, size))
        jac[:, :k, :d] = grads
        jac[:, :k, d] = -1.0
        jac[:, k : k + d, :d] = _hessian(diffs, dists, grads, p, lam)
        jac[:, k : k + d, d + 1 :] = grads.transpose(0, 2, 1)
        jac[:, -1, d + 1 :] = 1.0
        jac[~live], resid[~live] = np.eye(size), 0.0
        try:
            step = np.linalg.solve(jac, -resid[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:  # an exactly singular system: drop it, step the rest
            live &= np.linalg.det(jac) != 0.0
            jac[~live], resid[~live] = np.eye(size), 0.0
            step = np.linalg.solve(jac, -resid[:, :, None])[:, :, 0]
        trial = x + step
        new = _kkt_state(rows, trial, residual)
        worse = np.flatnonzero(live & ~(_merit(new[3]) < _merit(resid)))
        if worse.size:
            halves = 0.5 ** np.arange(1.0, BALL_HALVINGS + 1.0)
            tries = (x[worse, None, :] + halves[None, :, None] * step[worse, None, :]).reshape(-1, size)
            halved = _kkt_state(np.repeat(rows[worse], halves.size, axis=0), tries, residual)
            pick = np.arange(worse.size) * halves.size + _merit(halved[3]).reshape(worse.size, -1).argmin(axis=1)
            trial[worse] = tries[pick]
            for full, part in zip(new, halved):
                full[worse] = part[pick]
        x = trial
        diffs, dists, grads, resid = new
    return x[:, :d], x[:, d + 1 :], live & np.isfinite(x).all(axis=1)


def _ball_of(ws: np.ndarray, p: float):
    """The minimax center of the rows ws among their support sets' centers,
    one set size at a time.

    One batched Gram solve per set size gives each set's circumcenter
    z_0 + E^T t from G t = diag(G) / 2, with E the edges z_i - z_0 and
    G = E E^T; its barycentric weights are (1 - sum t, t).  Singular
    (collinear or coplanar) sets are skipped.  For p != 2 a pair takes its
    midpoint instead, and larger sets run :func:`_support_newton` from
    there.  Of the sets whose weights are >= -BALL_TOL, the one whose
    center is nearest its farthest row wins, so a center that misses a row
    loses to one that holds them all; pairs always qualify.  Yields, after
    each set size, (center, support rows, weights, sets scored) of the
    winner so far.
    """
    m, d = ws.shape
    best, scored = None, 0
    for size in range(2, min(m, d + 1) + 1):
        sets = np.array(list(itertools.combinations(range(m), size)))
        base = ws[sets[:, 0]]
        edges = ws[sets[:, 1:]] - base[:, None, :]
        gram = edges @ edges.transpose(0, 2, 1)
        diag = np.diagonal(gram, axis1=1, axis2=2)
        solvable = np.abs(np.linalg.det(gram)) > 1e-24 * diag.prod(axis=1)
        gram[~solvable] = np.eye(size - 1)
        t = np.linalg.solve(gram, diag[:, :, None] / 2.0)
        centers = base + (t * edges).sum(axis=1)
        lam = np.concatenate([1.0 - t.sum(axis=1), t[:, :, 0]], axis=1)
        if p != 2.0 and size == 2:
            centers = (base + ws[sets[:, 1]]) / 2.0  # the midpoint, under any norm
        elif p != 2.0:
            centers, lam, solvable = _support_newton(ws, sets, centers, lam, solvable, p)
        far = _ball_dists(p, centers[:, None, :] - ws[None, :, :]).max(axis=1)
        keep = solvable & (lam.min(axis=1) >= -BALL_TOL) & np.isfinite(far)
        k = int(np.argmin(np.where(keep, far, math.inf)))
        if keep[k] and (best is None or far[k] < best[0]):
            best = (float(far[k]), centers[k], sets[k], lam[k])
        scored += len(sets)
        yield best[1], best[2], best[3], scored


def _min_enclosing_ball(zs: np.ndarray, p: float):
    """The minimax center of the working reports zs under the plain p-norm.

    All reports are enumerated at once when that makes at most
    BALL_ONE_PASS support sets; a set holding a report twice is singular,
    so duplicates need no pass of their own.  Otherwise the center of a
    working set, first a report and the one farthest from it, grows the
    set by the farthest report outside, keeping only the support, until no
    report is outside.  Yields what :func:`_ball_of` yields, with the
    support as rows of zs and the sets scored so far; the last is the
    center.
    """
    m, d = zs.shape
    one_pass = sum(math.comb(m, k) for k in range(2, d + 2)) <= BALL_ONE_PASS
    work = np.arange(m) if one_pass else np.array([0, int(np.argmax(_ball_dists(p, zs - zs[0])))])
    scored = 0
    for _ in range(BALL_ROUNDS):
        for center, support, lam, spent in _ball_of(zs[work], p):
            yield center, zs[work[support]], lam, scored + spent
        scored += spent
        dists = _ball_dists(p, zs - center)
        out = int(np.argmax(dists))
        if dists[out] <= dists[work].max():
            return
        work = np.append(work[support], out)


def _ball_lower_bound(zs: np.ndarray, residual: Norm, y: np.ndarray, support: np.ndarray, lam: np.ndarray) -> float:
    """The active-set certificate on a support set and its weights.

    With lam clipped to >= 0 and renormalized, g = sum lam_i grad ||y - z_i||
    and eps = mc(y) - min_i ||y - z_i|| over the support, convexity gives
    mc(x) >= mc(y) - eps + g . (x - y) for every x, so the optimum is at
    least that smallest support distance less ||g||_dual R, with R the
    reach of the bounding box.  That holds for any y and any weights with
    a positive entry, however rough the solve.
    """
    diffs = y - support
    dists = residual.eval_many(diffs)
    floor = float(dists.min())
    if floor < 1e-12:
        return -math.inf
    lam = np.maximum(lam, 0.0)
    lam = lam / lam.sum()
    if residual.p == 2.0:
        slope = np.linalg.norm(lam @ (diffs / dists[:, None]))
    else:
        slope = _dual_norm(residual.p, lam @ _term_gradients(diffs, residual.p, dists))
    return floor - float(slope) * float(_reach(residual, y[None, :], zs)[0])


def _sc_newton(
    fn: Callable[[np.ndarray], np.ndarray],
    zs: np.ndarray,
    residual: Norm,
    y: np.ndarray,
    value: float,
    budget: int,
):
    """Damped Newton descent on sum_i ||y - z_i||_p for 1 < p < inf, on the
    terms' summed :func:`_hessian`.

    At a report, where that term has no gradient, the step follows the
    steepest descent direction of the sum instead, and the descent stops
    when Kuhn's condition says the report is optimal.  Each step is scored
    halved 0..20 times in one batch and the best is taken; a step wider
    than the working box whose halvings all fail is scored once more from
    width 2.  The descent stops when none lowers the value.
    Returns (y, value, evals).
    """
    p = residual.p
    q = p / (p - 1.0)
    shrink = 0.5 ** np.arange(21.0)
    evals = 0
    for _ in range(30):
        if evals + shrink.size > budget:
            break
        diffs = y[None, :] - zs
        dists = residual.eval_many(diffs)
        at = dists < 1e-12
        grads = _term_gradients(diffs[~at], p, dists[~at])
        if at.any():
            grad = grads.sum(axis=0)
            gnorm = float(_dual_norm(p, grad))
            if gnorm <= at.sum():
                break
            # along -h for the unit h with grad . h = gnorm, out to the nearest other report
            step = -np.sign(grad) * (np.abs(grad) / gnorm) ** (q - 1.0) * float(dists[~at].min())
        else:
            hess = _hessian(diffs, dists, grads, p, 1.0)
            hess += 1e-12 * float(np.trace(hess)) * np.eye(y.size)
            try:
                step = np.linalg.solve(hess, -grads.sum(axis=0))
            except np.linalg.LinAlgError:
                break
        if not np.all(np.isfinite(step)):
            break
        cands = y[None, :] + shrink[:, None] * step[None, :]
        vals = fn(cands)
        evals += shrink.size
        wide = float(np.abs(step).max())
        if not float(vals.min()) < value and wide > 2.0 and evals + shrink.size <= budget:
            # too wide for the box, as where a coordinate tie leaves the summed Hessian singular
            cands = y[None, :] + shrink[:, None] * (step * (2.0 / wide))[None, :]
            vals = fn(cands)
            evals += shrink.size
        k = int(np.argmin(vals))
        if not float(vals[k]) < value:
            break
        y, value = cands[k], float(vals[k])
    return y, value, evals


def _sc_report_bound(zs: np.ndarray, residual: Norm) -> float:
    """Lower bound on the social cost from the reports' distance matrix:
    the profile diameter (n >= 2), and for 1 < p < inf Kuhn's optimality
    condition at the reports, whichever is larger.

    At a report z_k of multiplicity m the coincident terms contribute any
    m s with ||s||_dual <= 1 to the subgradient, and the others the sum g
    of their gradients, so sc >= sc(z_k) - max(0, ||g||_dual - m) * R_k
    (gap 0 when ||g||_dual <= m; Kuhn 1973, Vardi & Zhang 2000).
    """
    diffs = zs[:, None, :] - zs[None, :, :]
    dists = residual.eval_many(diffs.reshape(-1, zs.shape[1])).reshape(len(zs), len(zs))
    diameter = float(dists.max())
    if not residual.strictly_convex:
        return diameter
    away = dists > 0.0
    grads = _term_gradients(diffs, residual.p, np.where(away, dists, 1.0)).sum(axis=1)
    excess = np.maximum(0.0, _dual_norm(residual.p, grads) - (~away).sum(axis=1))
    return max(diameter, float((dists.sum(axis=1) - excess * _reach(residual, zs, zs)).max()))


def _optimum(objective: Objective, profile: Profile, norm: Norm, budget: int, method: str) -> OptResult:
    """Both certified optimizers: the early exact cases, then the route the
    module docstring lists, its point mapped back to report coordinates
    and valued there.  ``method="grid"`` forces "grid" for either objective."""
    if method not in ("auto", "grid"):
        raise ValueError(f"unknown method {method!r}")
    mc = objective is Objective.MAX_COST
    xs = profile.as_array
    distinct = xs[duplicate_rows(xs)[1]]
    if distinct.shape[0] == 1:
        return OptResult(Point.from_array(distinct[0]), 0.0, 0.0, "exact", 0)
    if distinct.shape[0] == 2 and (mc or profile.n == 2):
        a, b = distinct[0], distinct[1]
        value = norm((a - b) / 2.0) if mc else norm(a - b)
        return OptResult(Point.from_array((a + b) / 2.0), value, 0.0, "exact-two-point", 0)

    zs, residual, extent, to_x = _working_space(profile, norm)
    unit = min(1.0, 1.0 / extent)
    fn = _objective_fn(objective, zs, residual)
    exact = _exact_point(objective, zs, norm.p) if method == "auto" else None
    if exact is not None:
        route, z, gap, evals, note = "exact", exact, 0.0, 1, ""
    elif method == "auto" and norm.p == (1.0 if mc else math.inf):
        route = "lp"
        z, gap, evals, note = _polyhedral_lp(objective, zs, residual, unit)
    else:
        # lower bounds on the optimum: half the diameter, or the reports' bound
        floor = float(distance_matrix(zs, zs, residual).max()) / 2.0 if mc else _sc_report_bound(zs, residual)
        route, evals = "grid", 0
        if mc and method == "auto":
            route = "ball"
            centers = _min_enclosing_ball(zs, norm.p)
            if norm.p == 2.0:
                *_, last = centers  # certified once, at the center
                centers = [last]
            for z, support, lam, evals in centers:
                value = float(fn(z[None, :])[0])
                gap = max(0.0, value - max(floor, _ball_lower_bound(zs, residual, z, support, lam)))
                if _meets_target(gap, value, unit):
                    break
            note = "" if _meets_target(gap, value, unit) else "gap target missed"
        if route == "grid" or note and norm.p != 2.0:
            route = "grid"
            lo, hi = zs.min(axis=0), zs.max(axis=0)
            polish, certify = (lambda y, v, b: (y, v, 0)), (lambda y, v: floor)
            if residual.strictly_convex:
                sc_polish = lambda y, v, b: _sc_newton(fn, zs, residual, y, v, b)
                polish = (lambda y, v, b: _mc_steepest_polish(fn, zs, residual, y, v, lo, hi)) if mc else sc_polish
                certify = lambda y, v: _bundle_lower_bound(objective, zs, residual, y, v, floor, unit)
            rates = np.full(profile.d, 1.0 if mc else float(profile.n))  # Lipschitz per unit axis step
            z, _, gap, spent, note = _branch_bound(fn, lo, hi, rates, budget, _seed_points(zs), polish, certify, unit)
            evals += spent
    x = to_x(z)
    value = float(_objective_fn(objective, xs, norm)(x[None, :])[0])
    return OptResult(Point.from_array(x), value, extent * gap, route, evals, note)


def opt_social_cost(
    profile: Profile,
    norm: Norm,
    budget: int = DEFAULT_BUDGET,
    method: str = "auto",
) -> OptResult:
    """Certified geometric-median benchmark (social-cost optimum) by the
    routes the module docstring lists; ``method="grid"`` forces "grid"."""
    return _optimum(Objective.SOCIAL_COST, profile, norm, budget, method)


def opt_max_cost(
    profile: Profile, norm: Norm, budget: int = DEFAULT_BUDGET
) -> OptResult:
    """Certified minimax-center benchmark (maximum-cost optimum) by the
    routes the module docstring lists."""
    return _optimum(Objective.MAX_COST, profile, norm, budget, "auto")


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
    return float(opt_value_upper_stack(objective, profile.as_array[None], norm)[0])


def opt_value_upper_stack(objective: Objective, xs: np.ndarray, norm: Norm) -> np.ndarray:
    """:func:`opt_value_upper` of each row of an (m, n, d) report stack:
    0 for a unanimous row, half the diameter for a max cost over two
    distinct reports, and otherwise the best seed point (the reports, their
    mean and median and every pairwise midpoint).  The bound of
    :func:`_upper_and_cost`, which also prices a mechanism from the same
    distance table."""
    return _upper_and_cost(objective, xs, norm)[0]


def _upper_and_cost(objective: Objective, xs: np.ndarray, norm: Norm, weights=None, points=None):
    """(bound, cost) of each row of an (m, n, d) report stack: the bound of
    :func:`opt_value_upper_stack` and, given the zero-padded lotteries
    (weights, points) a mechanism kernel returns for those rows, their
    expected costs bit for bit as :func:`expected_cost_stack` prices them
    (cost is None without them).

    Every row's seeds, then its atoms, meet its reports in one flat
    subtraction and one norm call, folded by the objective into one
    (m, seeds + atoms) table: the bound is the min over the seeds and the
    cost one batched product per atom count over the atoms.  A unanimous
    row's bound is 0, never its seeds' min (an overflowing mean makes that
    NaN): social cost tests unanimity exactly, and max cost reads it from
    the duplicate table it needs anyway for its two-point rows.
    """
    m, n, d = xs.shape
    seeds = _seed_points(xs)
    s = seeds.shape[1]
    cands = seeds if points is None else np.concatenate([seeds, points], axis=1)
    # every candidate minus every report in one flat subtraction: the rows of
    # distance_matrix(cands, xs), several times cheaper than its broadcast
    # here, but slower than it on the one-agent cost calls of the searches
    diffs = np.repeat(cands, n, axis=1) - np.tile(xs, (cands.shape[1], 1))
    table = fold(objective.per_atom, norm.eval_many(diffs.reshape(-1, d)).reshape(m, -1, n))
    upper = fold(np.minimum, table[:, :s])
    if objective is Objective.MAX_COST:
        lead = duplicate_rows(xs)[1]
        distinct = lead.sum(axis=1)
        # the midpoint halves the diameter regardless of multiplicities
        two = np.flatnonzero(distinct == 2)
        if two.size:  # none at n = 1, where lead[two, 1:] has no column to pick
            half = (xs[two, 0] - xs[two, lead[two, 1:].argmax(axis=1) + 1]) / 2.0
            upper[two] = norm.eval_many(half[:, None, :])[:, 0]
        unanimous = distinct == 1
    else:
        unanimous = (xs == xs[:, :1]).all(axis=(1, 2))
    upper[unanimous] = 0.0
    if points is None:
        return upper, None
    return upper, _owned_costs(objective.per_atom, weights, points, None, xs, norm, table[:, s:])


@dataclass(frozen=True, slots=True)
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
    """Ratio of the mechanism's cost, priced on its kernel's arrays, to the
    certified optimum."""
    xs = profile.as_array[None]
    mech_cost = float(expected_cost_stack(objective.per_atom, *mechanisms.kernel_of(mech)(xs, norm), xs, norm)[0])
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
    reach = float((np.abs(xs[0]) @ norm.eval_many(np.eye(profile.d))).max())
    slack = RATIO_ULPS * (2.0 + profile.n * reach / opt.value) * sys.float_info.epsilon
    lo = max(0.0, 1.0 - slack) * mech_cost / (opt.value + opt.certified_gap)
    denom = opt.value - opt.certified_gap
    hi = (1.0 + slack) * mech_cost / denom if denom > 0.0 else math.inf
    return RatioResult(ratio, lo, hi, mech_cost, opt)
