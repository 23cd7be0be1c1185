"""Pass/fail-with-witness checkers for mechanism guarantees.

Each checker evaluates one definitional or structural guarantee on
explicit inputs and returns a :class:`PropertyVerdict`.  Checkers never
assume the property they test; they report the observed margin either way.

Margin conventions:

* inequality-style checks (strategyproofness, group strategyproofness,
  cost continuity, the two-agent displacement bound): margin is the worst
  observed slack; a pass needs margin >= -GEOM_TOL, a violation needs
  margin < -IMPROVE_MARGIN, and the band in between is reported as
  inconclusive (strictness in the definitions is about exact reals, so
  floats get a buffer);
* equality-style checks (unanimity, translation invariance,
  uncompromising, support segment, 2-dictatorship): margin is minus the
  worst deviation, and there is no inconclusive band.

Every checker runs on an array core: it reads all of its probe reports
as one (m, n, d) stack (:func:`_stack`), makes one call of the mechanism's kernel
(:func:`~facilab.mechanisms.kernel_of`) on it (uncompromising makes a
second, for its moves onto the outputs), and scores agent costs with one
call of the expected-cost kernel
(:func:`~facilab.geometry.expected_cost_stack`, one agent per row) and
distances with one ``Norm.eval_many`` on one-row blocks, which round as
the one-row ``Norm.distance`` does.  Inputs are ``Profile``/``Point``
objects or their arrays alike; a checker builds such objects only for the
:class:`Witness` it returns, from the first lowest-margin probe in input
order (2-dictatorship judges its set as a whole).  A probe set holds
profiles of one (n, d) shape, a bare profile being a set of one; the
points of unanimity and the shifts of translation invariance share one
dimension too, and a ragged or empty set or another shape raises
``DimensionMismatch``.

Agent indices are 1-based everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .geometry import (
    EUCLIDEAN,
    GEOM_TOL,
    IMPROVE_MARGIN,
    DimensionMismatch,
    Norm,
    Point,
    Profile,
    canonical_atoms,
    expected_cost_stack,
    mass_gap_stack,
)
from .mechanisms import MechanismLike, MechanismSpec, kernel_of, parse_mechanism

Profiles = Union[Profile, Sequence[Profile], np.ndarray]
PROBE_SHAPE = "a probe set needs one or more profiles of one (n, d) shape"


@dataclass(frozen=True)
class Witness:
    """A concrete, re-validatable record backing a failed verdict.

    For manipulation witnesses ``coalition`` (1-based agents) and
    ``misreports`` align and ``per_agent_delta`` holds
    (agent, cost_before, cost_after) triples.  Non-manipulation failures
    (support geometry, translation mismatches, worst-ratio profiles) carry
    the profile plus a note and may leave the coalition empty.
    """

    profile: Profile
    coalition: tuple[int, ...] = ()
    misreports: tuple[Point, ...] = ()
    per_agent_delta: tuple[tuple[int, float, float], ...] = ()
    note: str = ""


@dataclass(frozen=True)
class PropertyVerdict:
    name: str
    passed: bool
    margin: float
    witness: Optional[Witness] = None
    inconclusive: bool = False
    note: str = ""

    @property
    def status(self) -> str:
        if self.passed:
            return "pass"
        return "inconclusive" if self.inconclusive else "fail"


def _inequality_verdict(
    name: str, margin: float, witness: Optional[Witness], note: str = ""
) -> PropertyVerdict:
    if margin >= -GEOM_TOL:
        return PropertyVerdict(name, True, margin, None, note=note)
    if margin < -IMPROVE_MARGIN:
        return PropertyVerdict(name, False, margin, witness, note=note)
    return PropertyVerdict(name, False, margin, None, inconclusive=True, note=note)


def _equality_verdict(
    name: str, deviation: float, witness: Optional[Witness], note: str = ""
) -> PropertyVerdict:
    margin = -deviation
    if margin >= -GEOM_TOL:
        return PropertyVerdict(name, True, margin, None, note=note)
    return PropertyVerdict(name, False, margin, witness, note=note)


# -- array helpers ---------------------------------------------------------------


def _dist(norm: Norm, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a - b|| over the last axis of the broadcast rows, as one-row norm
    calls: each value rounds as ``norm.distance`` on that pair does, and
    ||b - a|| rounds the same, since a - b is exactly -(b - a)."""
    diff = a - b
    return norm.eval_many(diff.reshape(-1, 1, diff.shape[-1])).reshape(diff.shape[:-1])


def _stack(items, rank: int, problem: str, d: Optional[int] = None) -> np.ndarray:
    """A probe set as one float array of ``rank`` axes, the first over its
    probes; one bare probe (``rank - 1`` axes) is a set of one.  A ragged or
    empty set, or a last axis other than ``d``, raises DimensionMismatch."""
    try:
        xs = np.asarray(items, dtype=float)
    except ValueError:  # ragged: probes of unequal shapes
        xs = np.empty(0)
    if xs.ndim == rank - 1 and xs.size:
        xs = xs[None]
    if xs.ndim != rank or not xs.size or d not in (None, xs.shape[-1]):
        raise DimensionMismatch(problem)
    return xs


def _empty(items) -> bool:
    """Is a probe set an empty sequence or array?  A bare ``Profile``, which
    has no length, is a set of one."""
    return not isinstance(items, Profile) and not len(items)


def _strays(norm: Norm, weights: np.ndarray, points: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each padded lottery row's farthest atom distance from its point y[i]."""
    return np.where(weights > 0.0, _dist(norm, points, y[:, None]), 0.0).max(axis=1)


def _worst_verdict(name: str, devs: np.ndarray, witness_at) -> PropertyVerdict:
    """Equality verdict on the first largest positive deviation in devs
    (flat order); ``witness_at(k, dev)`` builds the witness of a failure."""
    k = int(np.argmax(devs)) if devs.size else 0
    dev = float(devs.flat[k]) if devs.size and devs.flat[k] > 0.0 else 0.0
    return _equality_verdict(name, dev, witness_at(k, dev) if dev > GEOM_TOL else None)


def _coalition_costs(mech: MechanismLike, profile: Profile, coalition, misreports, norm: Norm):
    """Each member's expected cost before and after the joint misreport,
    from one 2-row kernel call and one cost call."""
    xs = np.stack([profile.as_array, profile.replaced_many(coalition, misreports).as_array])
    weights, points = kernel_of(mech)(xs, norm)
    size = len(coalition)
    members = np.tile(xs[0, [i - 1 for i in coalition]], (2, 1))[:, None]
    truth = np.repeat(weights, size, axis=0), np.repeat(points, size, axis=0)
    costs = expected_cost_stack(np.add, *truth, members, norm)
    return costs[:size], costs[size:]


# -- checkers --------------------------------------------------------------------


def check_strategyproof_at(
    mech: MechanismLike, profile: Profile, agent: int, misreport: Point, norm: Norm
) -> PropertyVerdict:
    """Does this single misreport strictly reduce the agent's expected cost?"""
    before, after = _coalition_costs(mech, profile, (agent,), (misreport,), norm)
    truth, mis = float(before[0]), float(after[0])
    witness = Witness(profile, (agent,), (misreport,), ((agent, truth, mis),))
    return _inequality_verdict("strategyproof", mis - truth, witness)


def check_group_strategyproof_at(
    mech: MechanismLike, profile: Profile, coalition: Sequence[int], misreports: Sequence[Point], norm: Norm
) -> PropertyVerdict:
    """Does this joint misreport strictly improve every coalition member?

    The margin is the worst member's cost change; a violation needs every
    member to improve by more than IMPROVE_MARGIN.
    """
    coalition = tuple(coalition)
    misreports = tuple(misreports)
    if not coalition:
        raise ValueError("coalition must be nonempty")
    if len(coalition) != len(misreports):
        raise ValueError("coalition and misreports must align")
    before, after = _coalition_costs(mech, profile, coalition, misreports, norm)
    witness = Witness(profile, coalition, misreports, tuple(zip(coalition, before.tolist(), after.tolist())))
    return _inequality_verdict("group_strategyproof", float((after - before).max()), witness)


def _default_arity(mech: MechanismLike) -> int:
    if isinstance(mech, str):
        mech = parse_mechanism(mech)
    if isinstance(mech, MechanismSpec):
        return max(2, mech.min_agents)
    return 3  # bare callables: 3 agents satisfy every built-in arity


def check_unanimity(
    mech: MechanismLike, norm: Norm, points: Union[Sequence[Point], np.ndarray], n: Optional[int] = None
) -> PropertyVerdict:
    """Identical reports z must force a degenerate output at z.

    The points (or an (m, d) array), all of one dimension, run as one stack.
    """
    n = n if n is not None else _default_arity(mech)
    devs = np.zeros(0)
    if len(points):
        zs = _stack(points, 2, "unanimity needs points of one dimension")
        xs = np.repeat(zs[:, None], n, axis=1)
        devs = _strays(norm, *kernel_of(mech)(xs, norm), zs)

    def witness_at(k: int, dev: float) -> Witness:
        note = f"all-{tuple(zs[k].tolist())} profile output strays by {dev:.3g}"
        return Witness(Profile.from_rows(xs[k]), note=note)

    return _worst_verdict("unanimity", devs, witness_at)


def _translated(weights: np.ndarray, points: np.ndarray, shifts: np.ndarray):
    """The canonical form of each padded canonical lottery row moved by its
    shift: the moved atoms, re-canonicalized only in the rows where rounding
    made the move merge or reorder them."""
    live = weights > 0.0
    moved = np.where(live[..., None], points + shifts[:, None], 0.0)
    a, b = moved[:, :-1], moved[:, 1:]
    first = (a != b).argmax(axis=-1)[..., None]
    rising = np.take_along_axis(a < b, first, axis=-1)[..., 0]  # lexicographic a < b
    weights = weights.copy()
    for r in np.flatnonzero((live[:, 1:] & ~rising).any(axis=1)).tolist():
        w, p = canonical_atoms(weights[r], moved[r])
        weights[r], moved[r] = 0.0, 0.0
        weights[r, : len(w)], moved[r, : len(w)] = w, p
    return weights, moved


def check_translation_invariance(
    mech: MechanismLike, norm: Norm, profiles: Profiles, shifts: Union[Sequence[Point], np.ndarray]
) -> PropertyVerdict:
    """Shifting all reports must shift the output lottery atom-by-atom.

    The profiles (of one (n, d) shape) under every shift (of dimension d)
    run as one stack; no profile or no shift is a vacuous pass.
    """
    kernel = kernel_of(mech)
    if _empty(profiles) or not len(shifts):
        return _worst_verdict("translation_invariance", np.zeros(0), None)
    xs = _stack(profiles, 3, PROBE_SHAPE)
    g, n, d = xs.shape
    steps = _stack(shifts, 2, f"every shift needs dimension {d}", d)
    moves = np.tile(steps, (g, 1))
    moved = np.repeat(xs, len(steps), axis=0) + moves[:, None]  # row k: profile k // shifts, shift k % shifts
    weights, points = kernel(np.concatenate([xs, moved]), norm)
    base = np.repeat(weights[:g], len(steps), axis=0), np.repeat(points[:g], len(steps), axis=0)
    devs = mass_gap_stack(*_translated(*base, moves), weights[g:], points[g:])  # (profile, shift), flat

    def witness_at(k: int, dev: float) -> Witness:
        weights, points = kernel(np.stack([xs[k // len(steps)], moved[k]]), norm)
        ew, ep = _translated(weights[:1], points[:1], moves[k : k + 1])
        rows = np.repeat([0, 1], n)  # each agent under the expected, then the actual output
        both = np.concatenate([ew, weights[1:]])[rows], np.concatenate([ep, points[1:]])[rows]
        costs = expected_cost_stack(np.add, *both, np.tile(moved[k], (2, 1))[:, None], norm)
        note = f"shift {tuple(moves[k].tolist())} moves {dev:.3g} probability mass off the translated output"
        deltas = tuple(zip(range(1, n + 1), costs[:n].tolist(), costs[n:].tolist()))
        profile, misreports = Profile.from_rows(xs[k // len(steps)]), tuple(map(Point.from_array, moved[k]))
        return Witness(profile, tuple(range(1, n + 1)), misreports, deltas, note)

    return _worst_verdict("translation_invariance", devs, witness_at)


def check_uncompromising(mech: MechanismLike, profiles: Profiles, norm: Norm) -> PropertyVerdict:
    """Moving any subset of agents onto a deterministic output keeps it.

    Applies to degenerate outputs; a randomized one is a vacuous pass with
    a note.  The probes run as one stack, all 2**n - 1 subsets as another.
    """
    xs = _stack(profiles, 3, PROBE_SHAPE)
    kernel = kernel_of(mech)
    weights, points = kernel(xs, norm)
    fixed = (weights > 0.0).sum(axis=1) == 1
    m, n, d = xs.shape
    agents = range(1, n + 1)
    subsets = [c for size in agents for c in itertools.combinations(agents, size)]
    onto = np.array([[i in subset for i in agents] for subset in subsets])[..., None]
    devs = np.zeros((m, len(subsets)))  # (probe, subset)
    if fixed.any():
        y = points[fixed, 0]
        moved = np.where(onto, y[:, None, None], xs[fixed, None]).reshape(-1, n, d)
        devs[fixed] = _strays(norm, *kernel(moved, norm), np.repeat(y, len(subsets), axis=0)).reshape(-1, len(subsets))
    if not fixed[int(np.argmax(devs)) // len(subsets)]:
        return PropertyVerdict("uncompromising", True, 0.0, note="skipped: output is randomized")

    def witness_at(k: int, dev: float) -> Witness:
        probe, subset = k // len(subsets), subsets[k % len(subsets)]
        note = f"moving agents {subset} onto the output moves it by {dev:.3g}"
        y = Point.from_array(points[probe, 0])
        return Witness(Profile.from_rows(xs[probe]), subset, (y,) * len(subset), note=note)

    return _worst_verdict("uncompromising", devs, witness_at)


def check_cost_continuity(
    mech: MechanismLike, profiles: Profiles, agents: Sequence[int], perturbations: Union[np.ndarray, Sequence], norm: Norm
) -> PropertyVerdict:
    """1-Lipschitz bound on each probe agent's own-cost map under her movement.

    Probe k moves agent agents[k] of profiles[k] to each point z of
    perturbations[k], as many points for every probe: Points, or one
    (probes, points, d) array (a bare profile takes a bare agent and one
    sequence or (points, d) array).  mu(z) is the
    agent's expected distance to the output when she reports z; the check
    compares |mu(x_i) - mu(z)| against ||x_i - z||.  Reported as an
    empirical margin even for mechanisms with no strategyproofness claim.
    Every truth and every z run as one stack.
    """
    if np.ndim(agents) == 0:  # one probe
        agents, perturbations = (agents,), (perturbations,)
    xs = _stack(profiles, 3, PROBE_SHAPE)
    m, n, d = xs.shape
    if len(agents) != m or len(perturbations) != m or not all(1 <= i <= n for i in agents):
        raise ValueError(f"each profile needs one agent in [1, {n}] and one list of perturbations")
    try:
        zs = np.asarray(perturbations, dtype=float)
    except ValueError:  # ragged: probes of unequal counts or points of unequal dimensions
        zs = None
    if zs is not None and zs.size == 0:
        zs = zs.reshape(m, 0, d)
    if zs is None or zs.ndim != 3 or zs.shape[2] != d:
        raise DimensionMismatch(f"every probe needs as many perturbations, all in dimension {d}")
    size, at = zs.shape[1] + 1, np.array(agents) - 1  # rows: the truth, then each z
    rows = np.repeat(xs, size, axis=0).reshape(m, size, n, d)
    rows[np.arange(m), 1:, at] = zs
    own = rows[np.arange(m), :, at]  # (probe, row, d): the moving agent's report
    weights, points = kernel_of(mech)(rows.reshape(-1, n, d), norm)
    mu = expected_cost_stack(np.add, weights, points, own.reshape(-1, 1, d), norm).reshape(m, size)
    if size == 1:
        return PropertyVerdict("cost_continuity", True, 0.0, note="no perturbations sampled")
    slack = _dist(norm, own[:, :1], own[:, 1:]) - np.abs(mu[:, 1:] - mu[:, :1])
    probe, j = divmod(int(np.argmin(slack)), size - 1)
    margin, witness = float(slack[probe, j]), None
    if margin < -IMPROVE_MARGIN:  # a violation
        agent, note = int(agents[probe]), "own-cost change exceeds the agent's movement"
        deltas = ((agent, *mu[probe, [0, j + 1]].tolist()),)  # the truth's cost, then z's
        witness = Witness(Profile.from_rows(xs[probe]), (agent,), (Point.from_array(zs[probe, j]),), deltas, note)
    return _inequality_verdict("cost_continuity", margin, witness)


def _segment_excess(xs: np.ndarray, weights: np.ndarray, points: np.ndarray, norm: Norm) -> np.ndarray:
    """Betweenness excess ||a-q|| + ||q-b|| - ||a-b||, maximized over the
    atoms q, of each pair (a, b) = (x_i, x_j), i <= j in row-major order,
    of every row of the stack: (m, pairs)."""
    i, j = np.triu_indices(xs.shape[1])
    near = _dist(norm, xs[:, :, None], points[:, None])  # (m, n, atoms)
    excess = near[:, i] + near[:, j] - _dist(norm, xs[:, i], xs[:, j])[..., None]
    return np.where(weights[:, None] > 0.0, excess, -np.inf).max(axis=-1)


def _segment_norm(norm: Norm) -> tuple[Norm, str]:
    if norm.strictly_convex:
        return norm, ""
    return EUCLIDEAN, "betweenness downgraded to Euclidean (norm not strictly convex)"


def check_support_segment(mech: MechanismLike, profiles: Profiles, norm: Norm) -> PropertyVerdict:
    """Each output must be degenerate or supported on a segment x_i x_j.

    The betweenness test ||a-q|| + ||q-b|| <= ||a-b|| + tol characterizes
    segment membership only for strictly convex norms; under p in {1, inf}
    it falls back to Euclidean collinearity and notes the downgrade.
    """
    xs = _stack(profiles, 3, PROBE_SHAPE)
    weights, points = kernel_of(mech)(xs, norm)
    spread = (weights > 0.0).sum(axis=1) > 1
    seg_norm, note = _segment_norm(norm)
    best = _segment_excess(xs, weights, points, seg_norm).min(axis=1)
    devs = np.where(spread, np.maximum(best, 0.0), 0.0)
    k = int(np.argmax(devs))  # the first lowest margin: +0.0 (degenerate) ties -0.0
    if not spread[k]:
        return PropertyVerdict("support_segment", True, 0.0, note="degenerate output")
    witness = None
    if devs[k] > GEOM_TOL:  # a failure
        atoms = "; ".join(str(tuple(pt)) for pt in points[k][weights[k] > 0.0].tolist())
        witness = Witness(Profile.from_rows(xs[k]), note=f"support atoms {atoms} fit no agent segment")
    return _equality_verdict("support_segment", float(devs[k]), witness, note=note)


def check_2dictatorship(mech: MechanismLike, profiles: Profiles, norm: Norm) -> PropertyVerdict:
    """One fixed agent pair must carry the support across all profiles.

    The profiles, of one (n, d) shape, run as one stack.
    """
    xs = () if _empty(profiles) else _stack(profiles, 3, PROBE_SHAPE)
    if len(xs) < 2:
        raise ValueError("2-dictatorship needs at least 2 sampled profiles")
    n = xs.shape[1]
    seg_norm, note = _segment_norm(norm)
    excess = _segment_excess(xs, *kernel_of(mech)(xs, norm), seg_norm)  # (profile, pair)
    pair_excess = np.maximum(excess.max(axis=0), 0.0)
    best = int(np.argmin(pair_excess))  # the first pair in order on a tie
    best_excess = float(pair_excess[best])
    if best_excess <= GEOM_TOL:
        i, j = np.triu_indices(n)
        extra = f"dictator pair {(int(i[best]) + 1, int(j[best]) + 1)}"
        return PropertyVerdict("2dictatorship", True, -best_excess, note="; ".join(s for s in (note, extra) if s))
    worst_profile = Profile.from_rows(xs[np.argmax(excess.min(axis=1))])
    witness = Witness(worst_profile, note="no fixed agent pair carries the support")
    return _equality_verdict("2dictatorship", best_excess, witness, note=note)


def check_delta_bound(mech: MechanismLike, x1: Point, x2: Point, x2_alt: Point, norm: Norm) -> PropertyVerdict:
    """Two-agent displacement bound on the output's distance to agent 1.

    With delta the expected distance from agent 1 to the truthful output,
    moving agent 2 by d < r = ||x2 - x1|| can push that distance to at
    most delta / (1 - d/r).  Exploratory diagnostic for 2-agent unanimous
    group-strategyproof mechanisms.
    """
    r = norm.distance(x2, x1)
    d = norm.distance(x2_alt, x2)
    if d >= r:
        raise ValueError("precondition ||x2'-x2|| < ||x2-x1|| violated")
    xs = np.array([[x1.coords, x2.coords], [x1.coords, x2_alt.coords]])
    delta, measured = expected_cost_stack(np.add, *kernel_of(mech)(xs, norm), xs[:, :1], norm).tolist()
    bound = delta / (1.0 - d / r)
    note = f"measured {measured:.6g} exceeds displacement bound {bound:.6g}"
    witness = Witness(Profile((x1, x2)), (2,), (x2_alt,), ((1, delta, measured),), note)
    return _inequality_verdict("delta_bound", bound - measured, witness)
