"""Adversarial searches: misreport fuzzing and worst-ratio profile hunts.

All randomness flows from a single 64-bit seed through a counter-based
Philox generator; restart r uses the stream ``Philox(key=seed).jumped(r)``,
so results are reproducible, and enlarging the budget only extends the
candidate stream (best-so-far is retained).

Candidates are scored on arrays: the mechanism's array kernel
(:func:`~facilab.mechanisms.kernel_of`) and the array cost cores.  Only a
candidate that beats the margin becomes a ``Point``/``Profile`` again, to be
re-validated by the checkers in :mod:`facilab.properties`.

Every search starts from the same restart reports (:func:`_restarts`): the
structured families as one array, then seeded draws.  One misreport search
(:func:`_misreport_witnesses`) gives both the strategyproof and the group
verdict: it searches every coalition, each restart's single agents first,
and one check runs it once for both.  It builds every restart once, as one
read-only array plan (:func:`_plan`): the stacked reports, their truthful
lotteries and costs, common points, scales and boxes, one row per restart.
The hunt reads only the reports and their diameters, and builds no plan.
Agent costs come from one expected-cost kernel
(:func:`~facilab.geometry.expected_cost_stack`); the hunt prices each
round's mechanism costs and optimum bounds from one distance table
(:func:`~facilab.objectives._upper_and_cost`).  The misreport
search runs its restarts in lockstep: the (restart, coalition) searches are
cut into blocks of ``LOCKSTEP_BLOCK``, and each block's candidates are built
as arrays on the plan's rows (:func:`_block`: start targets as one padded
stack, single agents' extra targets among them, and per-member moves as
another), with no Python loop over its searches; each search draws from its
restart's stream, and the block is scored and refined as one stack.  One
member-margin core scores every candidate of a block, start target,
pattern-search poll or per-member move (:func:`_member_margins`): the
block builds its member tables once (each search's member slots, their
truthful reports and truthful costs), and a call makes one kernel call
and one cost pass over the members, each atom-count group gathering its
lotteries once by owner.  The pattern search clips its polls to each
search's box, so only the start targets are clipped before scoring.  A
restart whose reports equal an earlier restart's, byte for byte (the
structured families repeat the reversed cluster as the first two-cluster
split), makes the same start and pattern search for every coalition: it
takes that restart's (:func:`_search_block`, ``plan.firsts``), and scores
only its own per-member moves, which draw from its own stream.  Only
the searches whose best margin beats the validation margin are validated,
in restart order, so each witness returned is the one a restart-at-a-time
search finds; a ``Profile`` is built only for that validation.  Each round
of a pattern search polls its live searches as one stack: a misreport
search polls every direction left in its sweep (six at d = 2) and, from
the same point, the next ``_LOOK_AHEAD`` sweeps it would make if it did not
move, so a search that stalls spends one round on several sweeps; it starts
from the score its block gave its start target.  A hunt search polls only
its next few directions, so that a round fills about one score block and a
search scores few polls past its first improving one.  Either way a search
makes the moves of polling one direction at a time.

Structured profile families (clustered, collinear, simplex vertices,
two-cluster splits, and the known hard instances) are seeded before any
random sampling, so extremal profiles are hit deterministically at any
budget.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .geometry import (
    GEOM_TOL,
    IMPROVE_MARGIN,
    Norm,
    Point,
    Profile,
    _owned_costs,
    expected_cost_stack,
)
from .mechanisms import MechanismLike, kernel_of
from .objectives import Objective, OptResult, _upper_and_cost, approx_ratio
from .properties import Witness, check_group_strategyproof_at

BOUNDING_SCALE = 4.0  # misreports stay within this many diameters of the profile box
# Lockstep stacks grow with the restart count and with the number of
# coalitions (2**n - 1); these caps bound the memory of one array call.
SCORE_DISTANCES = 2**13  # hunt: profiles per call times n**3
# misreports: (restart, coalition) searches run in lockstep at a time; a
# block also bounds the work left over after an early witness
LOCKSTEP_BLOCK = 64
# an uncapped pattern-search round polls this many sweeps past the current
# one: most late sweeps make no move, and each round costs a fn call
_LOOK_AHEAD = 3


@dataclass(frozen=True)
class SearchConfig:
    rng_seed: int = 0
    restarts: int = 100
    local_steps: int = 24

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


def _rng(seed: int, stream: int) -> np.random.Generator:
    """``Philox(key=seed).jumped(stream)``, built at the counter the jump reaches."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, stream, 0]))


DISCUSSION_PROFILE = Profile.from_rows(
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 1)]
)


def structured_profiles(n: int, d: int) -> list[Profile]:
    """Deterministic hard-instance families, emitted before random draws.

    Includes the isolated-agent cluster (x1 alone, everyone else together),
    its reverse, collinear spreads, simplex vertices, two-cluster splits,
    sign-straddling first coordinates, and fixed asymmetric profiles.
    """
    return [Profile.from_rows(rows) for rows in _structured(n, d)]


@functools.cache
def _structured(n: int, d: int) -> np.ndarray:
    """The rows of :func:`structured_profiles`, as one read-only (families,
    n, d) array, built once per (n, d)."""
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
    stack = np.stack(rows)
    stack.flags.writeable = False
    return stack


def _pattern_minimize(fn, starts: np.ndarray, scale, max_sweeps: int, lo, hi, rows=None, values=None):
    """Coordinate pattern searches from the rows of ``starts``, in lockstep.

    Each search polls the axis directions and the all-ones diagonal, + then
    -, with geometric step decay x0.5 from scale/4 (``scale`` is shared or
    one per search); candidates are clipped to the search's box [lo, hi]
    (``lo``/``hi`` are one shared box of shape (dim,), or (count, dim)
    with one box per search).  ``fn(cands, owners)`` scores an (m, dim) stack of candidates,
    row j for search ``owners[j]``; ``values``, when given, are the scores
    of the clipped starts, which are then not scored again.  Every round
    polls each live search from its current point as one stack: the rest
    of its sweep, then the next ``_LOOK_AHEAD`` sweeps it would make if it
    did not move, each at the step that sweep would use (unhalved after a
    sweep that moved, then halved once per sweep) and none past
    ``max_sweeps`` or the 1e-7 x scale floor.  When ``rows`` caps the
    candidates of one ``fn`` call, a round polls no sweep ahead, only the
    next ``max(isqrt(polls), rows // live)`` polls of the current one, so
    it scores about ``rows`` rows and a search that moves early wastes few.
    A search takes its first improving poll in order, and the sweeps it
    polled before it are the sweeps it completed; it polls on from there,
    so it makes exactly the moves of polling one direction at a time, and
    counts only those polls.  Look-ahead and ``rows`` change only how many
    rows are scored and in how many rounds.  Returns (best points, best
    values, evaluations), one row per search.
    """
    count, dim = starts.shape
    scales = np.broadcast_to(np.asarray(scale, dtype=float), (count,))
    floor = 1e-7 * scales
    lo, hi = np.asarray(lo), np.asarray(hi)
    shared = lo.ndim == 1  # one box for all: clip without gathering rows
    dirs = np.repeat(np.vstack([np.eye(dim), np.ones(dim) / math.sqrt(dim)]), 2, axis=0)
    signs = np.tile([1.0, -1.0], dim + 1)
    polls = len(dirs)
    x = np.clip(starts, lo, hi)
    best = fn(x, np.arange(count)) if values is None else np.array(values, dtype=float)
    evals = np.ones(count, dtype=int)
    step = scales / 4.0
    sweeps = np.zeros(count, dtype=int)
    done = np.zeros(count, dtype=int)  # polls already made in the current sweep
    improved = np.zeros(count, dtype=bool)
    ahead = np.arange(1, _LOOK_AHEAD + 1)
    live = np.flatnonzero((step > floor) & (max_sweeps > 0))
    while live.size:
        chunk = polls - done[live]  # this round's polls: the rest of each sweep,
        if rows is None:  # then the sweeps ahead
            # ladder[:, k]: the step of the k-th sweep from the current one if none moves
            ladder = np.empty((live.size, _LOOK_AHEAD + 2))
            ladder[:, 0] = step[live]
            ladder[:, 1] = np.where(improved[live], step[live], step[live] * 0.5)
            for k in range(2, _LOOK_AHEAD + 2):
                ladder[:, k] = ladder[:, k - 1] * 0.5
            runs = (ladder[:, 1:-1] > floor[live, None]) & (sweeps[live, None] + ahead < max_sweeps)
            chunk += polls * runs.sum(axis=1)  # a prefix: steps fall and sweeps rise along a row
        else:  # or its next few
            chunk = np.minimum(chunk, max(math.isqrt(polls), rows // live.size))
        owners = np.repeat(live, chunk)
        first = np.repeat(np.cumsum(chunk) - chunk, chunk)  # where each search's polls start
        which = done[owners] + np.arange(len(owners)) - first
        if rows is None:
            sweep, which = np.divmod(which, polls)
            lengths = ladder[np.repeat(np.arange(live.size), chunk), sweep]
        else:
            lengths = step[owners]
        moves = x[owners] + (signs[which] * lengths)[:, None] * dirs[which]
        cands = np.clip(moves, lo if shared else lo[owners], hi if shared else hi[owners])
        vals = fn(cands, owners)
        hits = np.flatnonzero(vals < best[owners] - 1e-15)
        movers, at = np.unique(owners[hits], return_index=True)
        at = hits[at]  # each improving search's first improving poll
        best[movers], x[movers] = vals[at], cands[at]
        taken = chunk.copy()
        moved = np.searchsorted(live, movers)
        taken[moved] = at - first[at] + 1
        evals[live] += taken
        if rows is None:
            swept, done[live] = np.divmod(done[live] + taken, polls)
            hit = np.zeros(live.size, dtype=bool)
            hit[moved] = True
            closing = hit & (done[live] == 0)  # a move on a sweep's last poll keeps that sweep's step
            step[live] = ladder[np.arange(live.size), swept - closing]
            improved[live] = hit & ~closing
            sweeps[live] += swept
        else:
            improved[movers] = True
            done[live] += taken
            swept = live[done[live] == polls]
            sweeps[swept] += 1
            step[swept[~improved[swept]]] *= 0.5
            done[swept], improved[swept] = 0, False
        live = live[(step[live] > floor[live]) & (sweeps[live] < max_sweeps)]
    return x, best, evals


# -- the restart plan -----------------------------------------------------------


class _Plan(NamedTuple):
    """The restarts of a search, one read-only row per restart."""

    reports: np.ndarray  # (restarts, n, d): structured profiles, then seeded draws
    weights: np.ndarray  # (restarts, k) truthful lottery, zero-padded
    points: np.ndarray  # (restarts, k, d)
    before: np.ndarray  # (restarts, n) each agent's expected cost under truthful reports
    common: np.ndarray  # (restarts, 3, d) output centroid, report mean and coordinate median
    scales: np.ndarray  # (restarts,) pattern-search scale: the diameter, or 1 for a point
    lo: np.ndarray  # (restarts, d) misreport box
    hi: np.ndarray
    firsts: np.ndarray  # (restarts,) the first restart whose reports equal this one's, byte for byte


def _restarts(norm: Norm, n: int, d: int, config: SearchConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (restarts, n, d) reports every search starts from, and their
    diameters: the structured families, then for each later restart r
    2 x the first n*d normals of ``_rng(seed, r)``."""
    structured = _structured(n, d)[: config.restarts]
    drawn = [_rng(config.rng_seed, r).normal(size=(n, d)) * 2.0 for r in range(len(structured), config.restarts)]
    reports = np.concatenate([structured, np.reshape(drawn, (-1, n, d))])
    diffs = reports[:, :, None] - reports[:, None]
    return reports, norm.eval_many(diffs.reshape(len(reports), n * n, d)).max(axis=1)


def _plan(mech: MechanismLike, norm: Norm, n: int, d: int, config: SearchConfig) -> _Plan:
    """Every restart of the misreport search, built once.  The plan holds no
    state; the search makes its own candidate streams (:func:`_streams`)."""
    reports, diameters = _restarts(norm, n, d, config)
    weights, points = kernel_of(mech)(reports, norm)
    truth = np.repeat(weights, n, axis=0), np.repeat(points, n, axis=0)  # one row per (restart, agent)
    before = expected_cost_stack(np.add, *truth, reports.reshape(-1, 1, d), norm).reshape(-1, n)
    centroid = np.matmul(weights[:, None, :], points)[:, 0]
    common = np.stack([centroid, reports.mean(axis=1), np.median(reports, axis=1)], axis=1)
    scales = np.where(diameters > GEOM_TOL, diameters, 1.0)
    pad = BOUNDING_SCALE * scales[:, None]
    box = reports.min(axis=1) - pad, reports.max(axis=1) + pad
    seen: dict[bytes, int] = {}
    firsts = np.array([seen.setdefault(row.tobytes(), r) for r, row in enumerate(reports)])
    plan = _Plan(reports, weights, points, before, common, scales, *box, firsts)
    for array in plan:
        array.flags.writeable = False
    return plan


def _streams(config: SearchConfig):
    """Restart r's candidate stream, made the first time a search asks for it:
    ``_rng(seed, r)``, the very stream restart r's random profile came from."""
    return functools.cache(functools.partial(_rng, config.rng_seed))


# -- misreport search -----------------------------------------------------------


def _member_margins(kernel, norm: Norm, plan: _Plan, runs: np.ndarray, members: np.ndarray, sizes: np.ndarray):
    """The scorer of a block of (restart, coalition) searches, where search j
    makes agents members[j, :sizes[j]] of restart runs[j] misreport.

    The block's member tables are built once: one row per member slot, in
    search order, with its agent, truthful report and truthful cost.
    ``margins(reports, which)`` gives the worst member gain (cost after
    minus cost before) of each candidate row j of search which[j], whose
    members report either reports[j] together (one row per candidate) or
    the next sizes[which[j]] rows of ``reports`` (one row per member; the
    two agree when every member is alone).  A call makes one kernel call
    and one cost pass over the members.
    """
    xs = plan.reports[runs]
    agents = members[np.arange(members.shape[1]) < sizes[:, None]]
    searches = np.repeat(np.arange(len(runs)), sizes)
    truth = xs[searches, agents][:, None]
    before = plan.before[runs[searches], agents]
    first = np.cumsum(sizes) - sizes  # each search's first member slot

    def margins(reports: np.ndarray, which: np.ndarray) -> np.ndarray:
        counts = sizes[which]
        starts = np.cumsum(counts) - counts
        owners = np.repeat(np.arange(len(which)), counts)
        at = np.repeat(first[which] - starts, counts) + np.arange(len(owners))  # member slots, row by row
        moved = xs[which]
        moved[owners, agents[at]] = reports[owners] if len(reports) == len(which) else reports
        costs = _owned_costs(np.add, *kernel(moved, norm), owners, truth[at], norm)
        return np.maximum.reduceat(costs - before[at], starts)

    return margins


def _block(plan: _Plan, runs: np.ndarray, members: np.ndarray, sizes: np.ndarray, stream, margins, fresh: np.ndarray):
    """The candidates of a block of (restart, coalition) searches, built as
    arrays: search j makes agents members[j, :sizes[j]] of restart runs[j]
    misreport (``members`` is padded to n columns, ``runs`` non-decreasing).

    Start targets, where all members report one point: the output centroid,
    the report mean, the coalition centroid, the coordinate median, the
    coalition's extremes and the support atoms, and for a single agent also
    axis steps, the other reports, a grid around the support atoms and
    points on the segments to the other reports.  They lie in a padded
    (B, L, d) stack; ``targets[mask]`` holds each search's in turn, and
    ``margins(targets[mask], owners)`` scores them, where owners[j] is the
    search of row j.  Only the targets of the searches ``fresh`` lists
    are scored (the others repeat a search made before); each of those
    starts from its best target, the first of equals, whose score is its
    start value, and the starts and start values are theirs alone.
    Per-member moves: segment pulls to the coalition centroid, correlated
    jitter from the restart's stream (four normals per search, drawn once
    per restart for the block), and axis shifts; the (B, 6 + 4d, n, d)
    stack is padded past each coalition's members.  Returns (targets,
    mask, starts, start values, moves).
    """
    count, n = members.shape
    d = plan.reports.shape[2]
    every = np.arange(count)
    xs, scales = plan.reports[runs], plan.scales[runs]
    own = xs[every[:, None], members]
    center, low, high = np.empty((3, count, d))
    for size in np.unique(sizes).tolist():
        at = sizes == size
        group = own[at, :size]
        center[at], low[at], high[at] = group.mean(axis=1), group.min(axis=1), group.max(axis=1)
    # a single agent's extra targets
    alone = sizes == 1
    xi, eye = own[:, 0], np.eye(d)
    rest = np.arange(n - 1)
    others = xs[every[:, None], rest + (rest >= members[:, :1])]
    axis = (np.array([0.5, 0.1, 0.02]) * scales[:, None])[:, :, None, None] * eye
    grid = ((0.1 * scales)[:, None, None] * eye)[:, None]
    atoms, real = plan.points[runs], plan.weights[runs] > 0.0
    near = atoms[:, :, None, :]
    segments = xi[:, None, None] + np.array([0.25, 0.5, 0.75, 1.0])[:, None] * (others - xi[:, None])[:, :, None, :]
    targets = np.concatenate([
        plan.common[runs, :2], center[:, None], plan.common[runs, 2:], low[:, None], high[:, None], atoms,
        np.stack([xi[:, None, None] + axis, xi[:, None, None] - axis], axis=3).reshape(count, -1, d),
        others,
        np.stack([near + grid, near - grid], axis=3).reshape(count, -1, d),
        segments.reshape(count, -1, d),
    ], axis=1)
    mask = np.concatenate([
        np.ones((count, 6), dtype=bool), real,
        np.repeat(alone[:, None], 6 * d + n - 1, axis=1),
        np.repeat(real, 2 * d, axis=1) & alone[:, None],
        np.repeat(alone[:, None], 4 * (n - 1), axis=1),
    ], axis=1)
    scored = mask[fresh]
    vals = np.full(scored.shape, np.inf)  # a pad never wins: row 0 of every search is real
    if fresh.size:  # a block may hold repeats alone
        vals[scored] = margins(targets[fresh][scored], fresh[np.nonzero(scored)[0]])
    pick = np.argmin(vals, axis=1)
    starts, start_values = targets[fresh, pick], vals[np.arange(fresh.size), pick]
    # per-member moves: segment pulls, correlated jitter, axis shifts
    pulls = own[:, None] + np.array([0.5, 1.0])[:, None, None] * (center[:, None] - own)[:, None]
    normals = np.concatenate([stream(r).normal(size=(4 * len(list(g)), d)) for r, g in itertools.groupby(runs.tolist())])
    jitter = (np.array([0.1, 0.1, 0.5, 0.5]) * scales[:, None])[:, :, None] * normals.reshape(count, 4, d)
    axis = (np.array([0.5, 0.1]) * scales[:, None])[:, :, None, None] * eye
    shifts = np.concatenate([jitter, np.stack([axis, -axis], axis=3).reshape(count, -1, d)], axis=1)
    lo, hi = plan.lo[runs][:, None, None], plan.hi[runs][:, None, None]
    moves = np.concatenate([pulls, np.clip(own[:, None] + shifts[:, :, None, :], lo, hi)], axis=1)
    return targets, mask, starts, start_values, moves


class _Found(NamedTuple):
    """What each (restart, coalition) search found, at [restart, coalition]:
    a search that repeats an earlier one (its restart's reports equal an
    earlier restart's) reads that search's entries and writes none."""

    starts: np.ndarray  # (restarts, coalitions, d) the best start target
    start_margins: np.ndarray  # (restarts, coalitions) its margin
    points: np.ndarray  # (restarts, coalitions, d) the pattern search's best point
    margins: np.ndarray  # (restarts, coalitions) its margin


def _search_block(
    kernel, norm: Norm, plan: _Plan, runs: np.ndarray, coalition: np.ndarray,
    padded: np.ndarray, sizes: np.ndarray, stream, steps: int, found: _Found,
) -> tuple[np.ndarray, np.ndarray]:
    """Run a block of (restart, coalition) searches, where search j makes
    coalition[j] (agents padded[coalition[j], :sizes[coalition[j]]]) of
    restart runs[j] misreport.

    A search whose restart is the first with its reports (``plan.firsts``)
    scores its start targets and runs its pattern search, in lockstep with
    the others of the block, and writes what it found to ``found``; any
    other search is the repeat of one made before it, in this block or an
    earlier one, and scores neither.  Every search builds its per-member
    moves (:func:`_block`: its jitter is the next draw of its restart's
    stream) and scores them.  Returns the (B, 6 + 4d, n, d) moves and their
    (B, 6 + 4d) margins.
    """
    members, counts = padded[coalition], sizes[coalition]
    lo, hi = plan.lo[runs], plan.hi[runs]
    margins = _member_margins(kernel, norm, plan, runs, members, counts)
    fresh = np.flatnonzero(plan.firsts[runs] == runs)
    _, _, starts, start_margins, moves = _block(
        plan, runs, members, counts, stream, lambda z, which: margins(np.clip(z, lo[which], hi[which]), which), fresh
    )
    # the pattern search clips its candidates to the same boxes
    points, best, _ = _pattern_minimize(
        lambda z, which: margins(z, fresh[which]), starts, plan.scales[runs[fresh]], steps, lo[fresh], hi[fresh],
        values=start_margins,
    )
    at = runs[fresh], coalition[fresh]
    found.starts[at], found.start_margins[at], found.points[at], found.margins[at] = starts, start_margins, points, best
    real = np.arange(members.shape[1]) < counts[:, None, None]
    vals = margins(moves[np.broadcast_to(real, moves.shape[:3])], np.repeat(np.arange(len(runs)), moves.shape[1]))
    return moves, vals.reshape(len(runs), -1)


def _misreport_witnesses(
    mech: MechanismLike, norm: Norm, n: int, d: int, config: SearchConfig
) -> tuple[Optional[Witness], Optional[Witness]]:
    """(sp, gsp): the first validated single-agent misreport and the first
    validated misreport of any size, each None when none validated.

    Coalitions are enumerated by size then lexicographically, so each
    restart's single agents come first.  The main generator is the
    all-members-report-one-point move from the best start target, refined
    by pattern search on the worst member's gain; per-member moves follow.
    The (restart, coalition) searches run in lockstep blocks of
    ``LOCKSTEP_BLOCK`` (:func:`_search_block`, which runs a repeated
    restart's start and pattern searches once), on the rows of the restart
    plan (:func:`_plan`); only the searches whose best margin beats
    -IMPROVE_MARGIN re-validate through the group checker, in restart
    order, then coalition order, so each witness is the one a search of
    one coalition at a time finds.  The first validated witness of any size is
    the group witness, after which only single agents are searched; the
    first single-agent witness ends the walk, and is the group witness as
    well when no coalition validated before it.  A caller that needs both
    verdicts, as ``check`` does, calls this once; :func:`search_sp_violation`
    and :func:`search_gsp_violation` each run it for one half.
    """
    kernel = kernel_of(mech)
    plan = _plan(mech, norm, n, d, config)
    stream = _streams(config)
    coalitions = [c for size in range(1, n + 1) for c in itertools.combinations(range(n), size)]
    sizes = np.array([len(c) for c in coalitions])
    padded = np.array([c + (0,) * (n - len(c)) for c in coalitions])  # coalition c is padded[c, :sizes[c]]
    shape = config.restarts, len(coalitions)
    found = _Found(np.empty(shape + (d,)), np.empty(shape), np.empty(shape + (d,)), np.empty(shape))
    queue = np.arange(config.restarts * len(coalitions))  # (restart, coalition) pairs in walk order
    group: Optional[Witness] = None
    while queue.size:
        runs, coalition = np.divmod(queue[:LOCKSTEP_BLOCK], len(coalitions))
        queue = queue[LOCKSTEP_BLOCK:]
        moves, vals = _search_block(
            kernel, norm, plan, runs, coalition, padded, sizes, stream, config.local_steps, found
        )
        ran = plan.firsts[runs], coalition  # the search each one made or repeats
        zs, best_margin = found.points[ran], found.margins[ran]
        every = np.arange(len(runs))
        k = np.argmin(vals, axis=1)
        move_wins = vals[every, k] < best_margin  # a per-member move beats the pattern search
        best_margin = np.where(move_wins, vals[every, k], best_margin)
        for j in np.flatnonzero(best_margin < -IMPROVE_MARGIN).tolist():
            r, c = int(runs[j]), int(coalition[j])
            if group is not None and sizes[c] > 1:
                continue
            if move_wins[j]:
                best_reports = moves[j, k[j], : sizes[c]]
            else:
                best_reports = np.tile(zs[j], (sizes[c], 1))
            verdict = check_group_strategyproof_at(
                mech,
                Profile.from_rows(plan.reports[r]),
                [i + 1 for i in coalitions[c]],
                [Point.from_array(x) for x in best_reports],
                norm,
            )
            if not verdict.passed and not verdict.inconclusive:
                if sizes[c] == 1:
                    return verdict.witness, group or verdict.witness
                group = verdict.witness
                queue = queue[sizes[queue % len(coalitions)] == 1]
    return None, group


def search_sp_violation(
    mech: MechanismLike, norm: Norm, n: int, d: int, config: SearchConfig
) -> Optional[Witness]:
    """Hunt for a single-agent misreport with a strict expected-cost gain:
    the first witness of the misreport search (:func:`_misreport_witnesses`)
    that a single agent makes, re-validated beyond IMPROVE_MARGIN."""
    return _misreport_witnesses(mech, norm, n, d, config)[0]


def search_gsp_violation(
    mech: MechanismLike, norm: Norm, n: int, d: int, config: SearchConfig
) -> Optional[Witness]:
    """Hunt for a coalition misreport making every member strictly better:
    the first witness of any size of the misreport search
    (:func:`_misreport_witnesses`), re-validated through the group checker."""
    return _misreport_witnesses(mech, norm, n, d, config)[1]


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
    diagonals, geometric step decay), all restarts in lockstep.  Restarts
    with the same clipped start and scale are one search, run once and
    counted for each (a search's moves do not depend on the others in the
    lockstep).  Each round's stack of polls makes one kernel call and one
    distance table, from which the mechanism's cost and the bound are read
    (:func:`~facilab.objectives._upper_and_cost`).  Scoring uses a feasible
    upper bound on the optimum, so scores never exceed true ratios and the
    best-so-far score is monotone in the budget; a profile scores -1 where
    the bound is 0, as it is exactly on a unanimous profile, so the score
    holds under a norm of any scale.
    """
    kernel = kernel_of(mech)
    # the cheap bound measures about n**3 / 2 distances per profile; blocks of
    # this many profiles keep a round's arrays small at any restart count, and
    # a round polls about one block, not every search's whole sweep
    block = max(1, SCORE_DISTANCES // n**3)

    def score(arrs: np.ndarray) -> np.ndarray:
        """Negated cost / (cheap optimum upper bound) of each flattened profile."""
        stack = arrs.reshape(-1, n, d)
        upper, costs = _upper_and_cost(objective, stack, norm, *kernel(stack, norm))
        # the bound is exactly 0 on a unanimous profile, which has cost 0 as
        # well; no threshold, so a norm of any scale scores its profiles
        unanimous = upper <= 0.0
        return np.where(unanimous, -1.0, -(costs / np.where(unanimous, 1.0, upper)))

    def scores(arrs: np.ndarray, owners: np.ndarray) -> np.ndarray:
        return np.concatenate([score(arrs[i : i + block]) for i in range(0, len(arrs), block)])

    box = 8.0  # profiles confined to [-box, box]^d; ratios are scale-invariant
    lo = np.full(n * d, -box)
    hi = np.full(n * d, box)
    reports, diameters = _restarts(norm, n, d, config)
    starts, scales = np.clip(reports.reshape(config.restarts, -1), lo, hi), np.maximum(1.0, diameters)
    # restarts with one start and scale make one search (the structured
    # families repeat profiles): search each once and hand its result to all
    seen: dict[bytes, int] = {}
    back = np.array([seen.setdefault(key.tobytes(), len(seen)) for key in np.column_stack([starts, scales])])
    first = np.unique(back, return_index=True)[1]
    found, values, evals = _pattern_minimize(
        scores, starts[first], scales[first], config.local_steps, lo, hi, rows=block
    )
    found, values, evals = found[back], values[back], evals[back]
    best = int(np.argmin(values))  # the first of equals
    best_score = -float(values[best])
    best_profile = Profile.from_rows(found[best].reshape(n, d))
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
