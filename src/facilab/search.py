"""Adversarial searches: misreport fuzzing and worst-ratio profile hunts.

All randomness flows from a single 64-bit seed through a counter-based
Philox generator; restart r uses the stream ``Philox(key=seed).jumped(r)``,
so results are reproducible, and enlarging the budget only extends the
candidate stream (best-so-far is retained).

Candidates are scored on arrays: the mechanism's array kernel
(:func:`~facilab.mechanisms.kernel_of`) and the array cost cores.  Only a
candidate that beats the margin becomes a ``Point``/``Profile`` again, to be
re-validated by the checkers in :mod:`facilab.properties`.

Structured profile families (clustered, collinear, simplex vertices,
two-cluster splits, and the known hard instances) are seeded before any
random sampling, so extremal profiles are hit deterministically at any
budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .geometry import (
    GEOM_TOL,
    IMPROVE_MARGIN,
    Norm,
    Point,
    Profile,
    expected_distance_stack,
    expected_distance_xs,
)
from .mechanisms import MechanismLike, kernel_of
from .objectives import (
    Objective,
    OptResult,
    approx_ratio,
    cost_stack,
    opt_value_upper_stack,
)
from .properties import (
    Witness,
    check_group_strategyproof_at,
    check_strategyproof_at,
)

BOUNDING_SCALE = 4.0  # misreports stay within this many diameters of the profile box
# Lockstep stacks grow with the restart count (hunts) and with the number of
# coalitions (2**n - 1); these caps bound the memory of one array call.
SCORE_DISTANCES = 2**13  # hunt: profiles per call times n**3
COALITION_BLOCK = 64  # gsp: coalitions searched in lockstep at a time


@dataclass(frozen=True)
class SearchConfig:
    rng_seed: int = 0
    restarts: int = 100
    local_steps: int = 24

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(stream))


DISCUSSION_PROFILE = Profile.from_rows(
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 1)]
)


def structured_profiles(n: int, d: int) -> list[Profile]:
    """Deterministic hard-instance families, emitted before random draws.

    Includes the isolated-agent cluster (x1 alone, everyone else together),
    its reverse, collinear spreads, simplex vertices, two-cluster splits,
    sign-straddling first coordinates, and fixed asymmetric profiles.
    """
    e1 = np.zeros(d)
    e1[0] = 1.0
    eye = np.eye(d)
    rows: list[np.ndarray] = []

    def add(points: Sequence[np.ndarray]) -> None:
        rows.append(np.asarray(points, dtype=float))

    # known extremal instances go first so any budget reaches them
    if n == 5 and d == 3:
        rows.append(DISCUSSION_PROFILE.as_array)
    add([e1] + [np.zeros(d)] * (n - 1))  # isolated first agent
    add([np.zeros(d)] + [e1] * (n - 1))  # reversed cluster
    if n >= 3 and d >= 2:
        add([eye[0], eye[1], np.zeros(d)] + [eye[0]] * (n - 3))  # non-collinear triangle
    for k in range(1, n):  # two-cluster splits
        add([np.zeros(d)] * k + [e1] * (n - k))
    add([k * e1 for k in range(n)])  # collinear spread
    add([eye[i % d] * (1.0 + i // d) for i in range(n)])  # simplex-ish vertices
    if n == 4 and d == 2:
        add([np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])])
    # first coordinates straddling both signs (branch-sensitive mechanisms)
    base = [(i + 1.0) * eye[i % d] for i in range(n)]
    add([0.7 * e1] + base[1:])
    add([-0.7 * e1] + base[1:])
    # fixed asymmetric profiles (no axis alignment, no symmetry)
    gen = _rng(0x5EED_FAC1, 0)
    for _ in range(2):
        add(gen.normal(size=(n, d)))
    return [Profile.from_rows(r) for r in rows]


def _profile_stream(n: int, d: int, config: SearchConfig) -> Iterator[tuple[int, Profile]]:
    """Structured profiles first, then seeded random ones, `restarts` total."""
    structured = structured_profiles(n, d)
    for r in range(config.restarts):
        if r < len(structured):
            yield r, structured[r]
        else:
            gen = _rng(config.rng_seed, r)
            yield r, Profile.from_rows(gen.normal(size=(n, d)) * 2.0)


def _scale(profile: Profile, norm: Norm) -> float:
    diam = profile.diameter(norm)
    return diam if diam > GEOM_TOL else 1.0


def _clip_box(profile: Profile, scale: float):
    lo, hi = profile.bounding_box()
    pad = BOUNDING_SCALE * scale
    return lo - pad, hi + pad


def _pattern_minimize(fn, starts: np.ndarray, scale, max_sweeps: int, lo, hi):
    """Coordinate pattern searches from the rows of ``starts``, in lockstep.

    Each search polls the axis directions and the all-ones diagonal, + then
    -, with geometric step decay x0.5 from scale/4 (``scale`` is shared or
    one per search); candidates are clipped to [lo, hi].  ``fn(cands,
    owners)`` scores an (m, dim) stack of candidates, row j for search
    ``owners[j]``.  Every round polls each search's remaining directions
    from its current point as one stack.  A search takes its first
    improving poll in order and re-polls the rest from there, so it makes
    exactly the moves of polling one direction at a time, and counts only
    those polls.  Returns (best points, best values, evaluations), one row
    per search.
    """
    count, dim = starts.shape
    scales = np.broadcast_to(np.asarray(scale, dtype=float), (count,))
    dirs = np.repeat(np.vstack([np.eye(dim), np.ones(dim) / math.sqrt(dim)]), 2, axis=0)
    signs = np.tile([1.0, -1.0], dim + 1)
    polls = len(dirs)
    x = np.clip(starts, lo, hi)
    best = fn(x, np.arange(count))
    evals = np.ones(count, dtype=int)
    step = scales / 4.0
    sweeps = np.zeros(count, dtype=int)
    done = np.zeros(count, dtype=int)  # polls already made in the current sweep
    improved = np.zeros(count, dtype=bool)
    live = np.flatnonzero((step > 1e-7 * scales) & (max_sweeps > 0))
    while live.size:
        left = polls - done[live]
        owners = np.repeat(live, left)
        first = np.repeat(np.cumsum(left) - left, left)  # where each search's polls start
        which = done[owners] + np.arange(len(owners)) - first
        cands = np.clip(x[owners] + (signs[which] * step[owners])[:, None] * dirs[which], lo, hi)
        vals = fn(cands, owners)
        hits = np.flatnonzero(vals < best[owners] - 1e-15)
        movers, at = np.unique(owners[hits], return_index=True)
        at = hits[at]  # each improving search's first improving poll
        best[movers], x[movers], improved[movers] = vals[at], cands[at], True
        taken = left.copy()
        taken[np.searchsorted(live, movers)] = at - first[at] + 1
        evals[live] += taken
        done[live] += taken
        swept = live[done[live] == polls]
        sweeps[swept] += 1
        step[swept[~improved[swept]]] *= 0.5
        done[swept], improved[swept] = 0, False
        live = live[(step[live] > 1e-7 * scales[live]) & (sweeps[live] < max_sweeps)]
    return x, best, evals


def _costs(kernel, norm: Norm, moved: np.ndarray, owners: np.ndarray, agents: np.ndarray, xs: np.ndarray):
    """Expected distance from each true report xs[agents[j]] to the lottery
    the mechanism draws on the (m, n, d) stack ``moved`` at row owners[j]."""
    weights, points = kernel(moved, norm)
    return expected_distance_stack(xs[agents], weights[owners], points[owners], norm)


# -- single-agent misreport search --------------------------------------------


def _sp_candidates(
    xs: np.ndarray,
    agent: int,
    scale: float,
    truth: tuple[np.ndarray, np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    n, d = xs.shape
    xi = xs[agent - 1]
    weights, points = truth
    out: list[np.ndarray] = []
    # axis steps
    for h in (0.5, 0.1, 0.02):
        for k in range(d):
            off = np.zeros(d)
            off[k] = h * scale
            out.append(xi + off)
            out.append(xi - off)
    # common points
    out.append(weights @ points)
    out.append(xs.mean(axis=0))
    out.append(np.median(xs, axis=0))
    out.extend(xs[j] for j in range(n) if j != agent - 1)
    # gaussian jitter
    for sigma in (0.05, 0.25, 1.0):
        out.append(xi + sigma * scale * rng.normal(size=d))
    # grid near the support
    for arr in points:
        out.append(arr)
        for k in range(d):
            off = np.zeros(d)
            off[k] = 0.1 * scale
            out.append(arr + off)
            out.append(arr - off)
    # segment points
    for j in range(n):
        if j == agent - 1:
            continue
        for t in (0.25, 0.5, 0.75, 1.0):
            out.append(xi + t * (xs[j] - xi))
    return [np.clip(c, lo, hi) for c in out]


def search_sp_violation(
    mech: MechanismLike, norm: Norm, n: int, d: int, config: SearchConfig
) -> Optional[Witness]:
    """Hunt for a single-agent misreport with a strict expected-cost gain.

    Candidate misreports (axis steps, common points, jitter, points near the
    output support, segment points) are drawn per agent and refined by
    pattern search on the agent's cost; the first candidate that
    re-validates through the strategyproofness checker (gain beyond
    IMPROVE_MARGIN) is returned.  All agents of one restart are scored as
    one stack and their pattern searches run in lockstep; the results are
    then walked in agent order.
    """
    kernel = kernel_of(mech)
    for r, profile in _profile_stream(n, d, config):
        rng = _rng(config.rng_seed, r)
        xs = profile.as_array
        scale = _scale(profile, norm)
        lo, hi = _clip_box(profile, scale)
        truth = kernel(xs, norm)
        truth_cost = [expected_distance_xs(x, *truth, norm) for x in xs]

        def misreport_costs(z: np.ndarray, agents: np.ndarray) -> np.ndarray:
            moved = np.repeat(xs[None], len(z), axis=0)
            moved[np.arange(len(z)), agents] = z
            return _costs(kernel, norm, moved, np.arange(len(z)), agents, xs)

        cands = [np.array(_sp_candidates(xs, agent, scale, truth, lo, hi, rng)) for agent in range(1, n + 1)]
        sizes = [len(c) for c in cands]
        vals = np.split(misreport_costs(np.concatenate(cands), np.repeat(np.arange(n), sizes)), np.cumsum(sizes)[:-1])
        best_x = [c[int(np.argmin(v))] for c, v in zip(cands, vals)]
        best_val = [v.min() for v in vals]
        refine = np.flatnonzero(np.array(best_val) < np.array(truth_cost) + 0.25 * scale)
        if refine.size:
            found = _pattern_minimize(
                lambda z, owners: misreport_costs(z, refine[owners]),
                np.array([best_x[i] for i in refine]),
                scale,
                config.local_steps,
                lo,
                hi,
            )
            for i, x, val in zip(refine, *found[:2]):
                best_x[i], best_val[i] = x, val
        for i in range(n):
            if best_val[i] < truth_cost[i] - IMPROVE_MARGIN:
                verdict = check_strategyproof_at(
                    mech, profile, i + 1, Point.from_array(best_x[i]), norm
                )
                if not verdict.passed and not verdict.inconclusive:
                    return verdict.witness
    return None


# -- coalition misreport search ------------------------------------------------


def search_gsp_violation(
    mech: MechanismLike, norm: Norm, n: int, d: int, config: SearchConfig
) -> Optional[Witness]:
    """Hunt for a coalition misreport making every member strictly better.

    Coalitions are enumerated by size then lexicographically.  The main
    generator is the all-members-report-one-point move (output centroid,
    coalition centroid and extremes, atom points), refined by pattern
    search on the worst member's gain; per-member segment pulls, correlated
    jitter and axis shifts follow.  The coalitions of one restart (in
    blocks of ``COALITION_BLOCK``) are scored as stacks and their pattern
    searches run in lockstep; witnesses re-validate through the group
    checker, in coalition order, before being returned.
    """
    kernel = kernel_of(mech)
    for r, profile in _profile_stream(n, d, config):
        rng = _rng(config.rng_seed, r)
        xs = profile.as_array
        scale = _scale(profile, norm)
        lo, hi = _clip_box(profile, scale)
        truth = kernel(xs, norm)
        weights, points = truth
        before = np.array([expected_distance_xs(x, *truth, norm) for x in xs])
        coalitions = [
            c for size in range(1, n + 1) for c in itertools.combinations(range(n), size)
        ]
        sizes = np.array([len(c) for c in coalitions])
        members_of = np.concatenate(coalitions)  # coalition c is members_of[at[c]:at[c] + sizes[c]]
        at = np.cumsum(sizes) - sizes

        def joint_margins(reports: np.ndarray, which: np.ndarray) -> np.ndarray:
            """Worst member gain of each coalition which[j] making its members
            report the next sizes[which[j]] rows of reports."""
            counts = sizes[which]
            owners = np.repeat(np.arange(len(which)), counts)
            starts = np.cumsum(counts) - counts
            agents = members_of[np.repeat(at[which] - starts, counts) + np.arange(len(owners))]
            moved = np.repeat(xs[None], len(which), axis=0)
            moved[owners, agents] = reports
            margins = _costs(kernel, norm, moved, owners, agents, xs) - before[agents]
            return np.maximum.reduceat(margins, starts)

        def common_margins(z: np.ndarray, which: np.ndarray) -> np.ndarray:
            return joint_margins(np.repeat(np.clip(z, lo, hi), sizes[which], axis=0), which)

        for first in range(0, len(coalitions), COALITION_BLOCK):
            block = np.arange(first, min(first + COALITION_BLOCK, len(coalitions)))
            targets, moves = [], []
            for c in block:
                members = xs[list(coalitions[c])]
                targets.append([
                    weights @ points,
                    xs.mean(axis=0),
                    members.mean(axis=0),
                    np.median(xs, axis=0),
                    members.min(axis=0),
                    members.max(axis=0),
                    *points,
                ])
                # per-member moves: segment pulls, correlated jitter, axis shifts
                center = members.mean(axis=0)
                candidates = [members + t * (center - members) for t in (0.5, 1.0)]
                for sigma in (0.1, 0.5):
                    for _ in range(2):
                        shift = sigma * scale * rng.normal(size=d)
                        candidates.append(np.clip(members + shift, lo, hi))
                for h in (0.5, 0.1):
                    for k in range(d):
                        off = np.zeros(d)
                        off[k] = h * scale
                        for sign in (1.0, -1.0):
                            candidates.append(np.clip(members + sign * off, lo, hi))
                moves.append(candidates)
            counts = [len(t) for t in targets]
            vals = np.split(common_margins(np.concatenate(targets), np.repeat(block, counts)), np.cumsum(counts)[:-1])
            starts = np.array([t[int(np.argmin(v))] for t, v in zip(targets, vals)])
            zs, best_margin, _ = _pattern_minimize(
                lambda z, owners: common_margins(z, block[owners]), starts, scale, config.local_steps, lo, hi
            )
            counts = [len(m) for m in moves]
            flat = np.concatenate([reports for m in moves for reports in m])
            vals = np.split(joint_margins(flat, np.repeat(block, counts)), np.cumsum(counts)[:-1])
            for j, c in enumerate(block):
                best_reports = np.tile(np.clip(zs[j], lo, hi), (sizes[c], 1))
                k = int(np.argmin(vals[j]))
                if vals[j][k] < best_margin[j]:
                    best_margin[j], best_reports = vals[j][k], moves[j][k]
                if best_margin[j] < -IMPROVE_MARGIN:
                    verdict = check_group_strategyproof_at(
                        mech,
                        profile,
                        [i + 1 for i in coalitions[c]],
                        [Point.from_array(x) for x in best_reports],
                        norm,
                    )
                    if not verdict.passed and not verdict.inconclusive:
                        return verdict.witness
    return None


# -- worst-case ratio search ----------------------------------------------------


@dataclass(frozen=True)
class WorstRatioResult:
    """Best ratio found, with the certified interval of the extremal profile.

    ``ratio`` is the search's monotone score cost / (cheap optimum upper
    bound); it never exceeds the true ratio of the profile nor the
    certified interval's upper end.  ``lo``/``hi`` come from re-certifying
    the extremal profile with the full optimizer.
    """

    profile: Profile
    ratio: float
    lo: float
    hi: float
    cost: float
    opt: OptResult
    evaluations: int


def search_worst_ratio(
    mech: MechanismLike,
    norm: Norm,
    objective: Objective,
    n: int,
    d: int,
    config: SearchConfig,
) -> WorstRatioResult:
    """Maximize the mechanism's approximation ratio over profiles.

    Structured families run first, then random restarts; each profile is
    hill-climbed in profile space (per-agent axis directions plus per-agent
    diagonals, geometric step decay), all restarts in lockstep, with the
    mechanism, its cost and the bound run on each round's stack of polls.
    Scoring uses a feasible upper bound on the optimum, so scores never
    exceed true ratios and the best-so-far score is monotone in the budget.
    """
    kernel = kernel_of(mech)
    # the cheap bound measures about n**3 / 2 distances per profile; blocks of
    # this many profiles keep a round's arrays small at any restart count
    block = max(1, SCORE_DISTANCES // n**3)

    def score(arrs: np.ndarray) -> np.ndarray:
        """Negated cost / (cheap optimum upper bound) of each flattened profile."""
        stack = arrs.reshape(-1, n, d)
        upper = opt_value_upper_stack(objective, stack, norm)
        costs = cost_stack(objective, *kernel(stack, norm), stack, norm)
        # a unanimous profile has cost 0 as well
        unanimous = upper <= GEOM_TOL * GEOM_TOL
        return np.where(unanimous, -1.0, -(costs / np.where(unanimous, 1.0, upper)))

    def scores(arrs: np.ndarray, owners: np.ndarray) -> np.ndarray:
        return np.concatenate([score(arrs[i : i + block]) for i in range(0, len(arrs), block)])

    box = 8.0  # profiles confined to [-box, box]^d; ratios are scale-invariant
    lo = np.full(n * d, -box)
    hi = np.full(n * d, box)
    profiles = [profile for _, profile in _profile_stream(n, d, config)]
    found, values, evals = _pattern_minimize(
        scores,
        np.array([np.clip(p.as_array.reshape(-1), lo, hi) for p in profiles]),
        [max(1.0, p.diameter(norm)) for p in profiles],
        config.local_steps,
        lo,
        hi,
    )
    best_score = -math.inf
    best_profile: Optional[Profile] = None
    for x, val in zip(found, values.tolist()):
        if -val > best_score:
            best_score = -val
            best_profile = Profile.from_rows(x.reshape(n, d))
    assert best_profile is not None
    certified = approx_ratio(mech, best_profile, norm, objective)
    return WorstRatioResult(
        profile=best_profile,
        ratio=best_score,
        lo=min(certified.lo, best_score),
        hi=certified.hi,
        cost=certified.cost,
        opt=certified.opt,
        evaluations=int(evals.sum()),
    )
