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
    expected_distance_xs,
)
from .mechanisms import MechanismLike, kernel_of
from .objectives import (
    Objective,
    OptResult,
    approx_ratio,
    cost_xs,
    opt_value_upper_xs,
)
from .properties import (
    Witness,
    check_group_strategyproof_at,
    check_strategyproof_at,
)

BOUNDING_SCALE = 4.0  # misreports stay within this many diameters of the profile box


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


def _pattern_minimize(fn, start: np.ndarray, scale: float, max_sweeps: int, lo, hi):
    """Coordinate pattern search: geometric step decay x0.5 from scale/4.

    Directions are axis-aligned plus the all-ones diagonal; candidates are
    clipped to [lo, hi].  Returns (best_x, best_value, evals).
    """
    d = start.size
    x = np.clip(start, lo, hi)
    best = fn(x)
    evals = 1
    step = scale / 4.0
    dirs = list(np.eye(d)) + [np.ones(d) / math.sqrt(d)]
    sweeps = 0
    while step > 1e-7 * scale and sweeps < max_sweeps:
        improved = False
        for direction in dirs:
            for sign in (1.0, -1.0):
                cand = np.clip(x + sign * step * direction, lo, hi)
                val = fn(cand)
                evals += 1
                if val < best - 1e-15:
                    best, x = val, cand
                    improved = True
        sweeps += 1
        if not improved:
            step *= 0.5
    return x, best, evals


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
    IMPROVE_MARGIN) is returned.
    """
    kernel = kernel_of(mech)
    for r, profile in _profile_stream(n, d, config):
        rng = _rng(config.rng_seed, r)
        xs = profile.as_array
        scale = _scale(profile, norm)
        lo, hi = _clip_box(profile, scale)
        truth = kernel(xs, norm)
        for agent in range(1, n + 1):
            xi = xs[agent - 1]
            truth_cost = expected_distance_xs(xi, *truth, norm)

            def misreport_cost(z: np.ndarray) -> float:
                moved = xs.copy()
                moved[agent - 1] = z
                return expected_distance_xs(xi, *kernel(moved, norm), norm)

            cands = _sp_candidates(xs, agent, scale, truth, lo, hi, rng)
            vals = [misreport_cost(c) for c in cands]
            best_idx = int(np.argmin(vals))
            best_x, best_val = cands[best_idx], vals[best_idx]
            if best_val < truth_cost + 0.25 * scale:
                best_x, best_val, _ = _pattern_minimize(
                    misreport_cost, best_x, scale, config.local_steps, lo, hi
                )
            if best_val < truth_cost - IMPROVE_MARGIN:
                verdict = check_strategyproof_at(
                    mech, profile, agent, Point.from_array(best_x), norm
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
    jitter and axis shifts follow.  Witnesses re-validate through the group
    checker before being returned.
    """
    kernel = kernel_of(mech)
    for r, profile in _profile_stream(n, d, config):
        rng = _rng(config.rng_seed, r)
        xs = profile.as_array
        scale = _scale(profile, norm)
        lo, hi = _clip_box(profile, scale)
        truth = kernel(xs, norm)
        weights, points = truth
        before = [expected_distance_xs(x, *truth, norm) for x in xs]
        for size in range(1, n + 1):
            for coalition in itertools.combinations(range(1, n + 1), size):
                rows = [i - 1 for i in coalition]
                members = xs[rows]

                def joint_margin(reports: np.ndarray) -> float:
                    moved = xs.copy()
                    moved[rows] = reports
                    lot = kernel(moved, norm)
                    return max(
                        expected_distance_xs(xs[i], *lot, norm) - before[i] for i in rows
                    )

                def common_margin(z: np.ndarray) -> float:
                    return joint_margin(np.clip(z, lo, hi))

                targets = [
                    weights @ points,
                    xs.mean(axis=0),
                    members.mean(axis=0),
                    np.median(xs, axis=0),
                    members.min(axis=0),
                    members.max(axis=0),
                    *points,
                ]
                vals = [common_margin(t) for t in targets]
                k = int(np.argmin(vals))
                z, best_margin, _ = _pattern_minimize(
                    common_margin, targets[k], scale, config.local_steps, lo, hi
                )
                best_reports = np.tile(np.clip(z, lo, hi), (size, 1))
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
                for reports in candidates:
                    val = joint_margin(reports)
                    if val < best_margin:
                        best_margin, best_reports = val, reports
                if best_margin < -IMPROVE_MARGIN:
                    verdict = check_group_strategyproof_at(
                        mech,
                        profile,
                        coalition,
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
    diagonals, geometric step decay).  Scoring uses a feasible upper bound
    on the optimum, so scores never exceed true ratios and the best-so-far
    score is monotone in the budget.
    """
    kernel = kernel_of(mech)
    evaluations = 0

    def score(arr: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        xs = arr.reshape(n, d)
        upper = opt_value_upper_xs(objective, xs, norm)
        c = cost_xs(objective, *kernel(xs, norm), xs, norm)
        if upper <= GEOM_TOL * GEOM_TOL:
            return 1.0  # unanimous profile: cost is 0 as well
        return c / upper

    best_score = -math.inf
    best_profile: Optional[Profile] = None
    box = 8.0  # profiles confined to [-box, box]^d; ratios are scale-invariant
    lo = np.full(n * d, -box)
    hi = np.full(n * d, box)
    for r, profile in _profile_stream(n, d, config):
        start = np.clip(profile.as_array.reshape(-1), lo, hi)
        climb_scale = max(1.0, profile.diameter(norm))
        x, val, _ = _pattern_minimize(
            lambda arr: -score(arr), start, climb_scale, config.local_steps, lo, hi
        )
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
        evaluations=evaluations,
    )
