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

Agent indices are 1-based everywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import (
    EUCLIDEAN,
    GEOM_TOL,
    IMPROVE_MARGIN,
    Norm,
    Point,
    Profile,
    expected_distance,
    lotteries_match,
)
from .mechanisms import MechanismLike, MechanismSpec, parse_mechanism, resolve


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

    def is_manipulation(self) -> bool:
        return bool(self.coalition)


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


def check_strategyproof_at(
    mech: MechanismLike,
    profile: Profile,
    agent: int,
    misreport: Point,
    norm: Norm,
) -> PropertyVerdict:
    """Does this single misreport strictly reduce the agent's expected cost?"""
    fn = resolve(mech)
    xi = profile.agent(agent)
    cost_truth = expected_distance(xi, fn(profile, norm), norm)
    cost_mis = expected_distance(
        xi, fn(profile.replaced(agent, misreport), norm), norm
    )
    margin = cost_mis - cost_truth
    witness = Witness(
        profile,
        coalition=(agent,),
        misreports=(misreport,),
        per_agent_delta=((agent, cost_truth, cost_mis),),
    )
    return _inequality_verdict("strategyproof", margin, witness)


def check_group_strategyproof_at(
    mech: MechanismLike,
    profile: Profile,
    coalition: Sequence[int],
    misreports: Sequence[Point],
    norm: Norm,
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
    fn = resolve(mech)
    truth_lot = fn(profile, norm)
    new_lot = fn(profile.replaced_many(coalition, misreports), norm)
    deltas = []
    margin = -math.inf
    for i in coalition:
        xi = profile.agent(i)
        before = expected_distance(xi, truth_lot, norm)
        after = expected_distance(xi, new_lot, norm)
        deltas.append((i, before, after))
        margin = max(margin, after - before)
    witness = Witness(
        profile,
        coalition=coalition,
        misreports=misreports,
        per_agent_delta=tuple(deltas),
    )
    return _inequality_verdict("group_strategyproof", margin, witness)


def _default_arity(mech: MechanismLike) -> int:
    if isinstance(mech, str):
        mech = parse_mechanism(mech)
    if isinstance(mech, MechanismSpec):
        return max(2, mech.min_agents)
    return 3  # bare callables: 3 agents satisfy every built-in arity


def check_unanimity(
    mech: MechanismLike,
    norm: Norm,
    points: Sequence[Point],
    n: Optional[int] = None,
) -> PropertyVerdict:
    """Identical reports z must force a degenerate output at z."""
    fn = resolve(mech)
    n = n if n is not None else _default_arity(mech)
    worst = 0.0
    worst_witness: Optional[Witness] = None
    for z in points:
        profile = Profile(tuple(z for _ in range(n)))
        lot = fn(profile, norm)
        dev = max(norm.distance(pt, z) for _, pt in lot.atoms)
        if dev > worst:
            worst = dev
            worst_witness = Witness(profile, note=f"all-{z.coords} profile output strays by {dev:.3g}")
    return _equality_verdict("unanimity", worst, worst_witness)


def check_translation_invariance(
    mech: MechanismLike,
    norm: Norm,
    profiles: Sequence[Profile],
    shifts: Sequence[Point],
) -> PropertyVerdict:
    """Shifting all reports must shift the output lottery atom-by-atom."""
    fn = resolve(mech)
    worst = 0.0
    worst_witness: Optional[Witness] = None
    for profile in profiles:
        base = fn(profile, norm)
        for shift in shifts:
            if shift.dim != profile.d:
                continue
            moved = profile.translate(shift)
            expected = base.translate(shift)
            actual = fn(moved, norm)
            _, dev = lotteries_match(expected, actual)
            if dev > worst:
                worst = dev
                deltas = tuple(
                    (
                        i,
                        expected_distance(moved.agent(i), expected, norm),
                        expected_distance(moved.agent(i), actual, norm),
                    )
                    for i in range(1, profile.n + 1)
                )
                worst_witness = Witness(
                    profile,
                    coalition=tuple(range(1, profile.n + 1)),
                    misreports=tuple(moved.points),
                    per_agent_delta=deltas,
                    note=f"shift {shift.coords} moves {dev:.3g} probability mass off the translated output",
                )
    return _equality_verdict("translation_invariance", worst, worst_witness)


def check_uncompromising(
    mech: MechanismLike, profile: Profile, norm: Norm
) -> PropertyVerdict:
    """Moving any subset of agents onto a deterministic output keeps it.

    Applies only when the output is degenerate; otherwise reported as a
    vacuous pass with a note.
    """
    fn = resolve(mech)
    lot = fn(profile, norm)
    if not lot.is_degenerate:
        return PropertyVerdict(
            "uncompromising", True, 0.0, note="skipped: output is randomized"
        )
    y = lot.atoms[0][1]
    worst = 0.0
    worst_witness: Optional[Witness] = None
    agents = range(1, profile.n + 1)
    for size in range(1, profile.n + 1):
        for subset in itertools.combinations(agents, size):
            moved = profile.replaced_many(subset, tuple(y for _ in subset))
            out = fn(moved, norm)
            dev = max(norm.distance(pt, y) for _, pt in out.atoms)
            if dev > worst:
                worst = dev
                worst_witness = Witness(
                    profile,
                    coalition=subset,
                    misreports=tuple(y for _ in subset),
                    note=f"moving agents {subset} onto the output moves it by {dev:.3g}",
                )
    return _equality_verdict("uncompromising", worst, worst_witness)


def check_cost_continuity(
    mech: MechanismLike,
    profile: Profile,
    agent: int,
    perturbations: Sequence[Point],
    norm: Norm,
) -> PropertyVerdict:
    """1-Lipschitz bound on the agent's own-cost map under her movement.

    mu(z) is the agent's expected distance to the output when she reports
    z; the check compares |mu(x_i) - mu(z)| against ||x_i - z|| for each
    sampled z.  Reported as an empirical margin even for mechanisms with
    no strategyproofness claim.
    """
    fn = resolve(mech)
    xi = profile.agent(agent)
    mu_base = expected_distance(xi, fn(profile, norm), norm)
    margin = math.inf
    worst_witness: Optional[Witness] = None
    for z in perturbations:
        mu_z = expected_distance(z, fn(profile.replaced(agent, z), norm), norm)
        slack = norm.distance(xi, z) - abs(mu_z - mu_base)
        if slack < margin:
            margin = slack
            worst_witness = Witness(
                profile,
                coalition=(agent,),
                misreports=(z,),
                per_agent_delta=((agent, mu_base, mu_z),),
                note="own-cost change exceeds the agent's movement",
            )
    if math.isinf(margin):
        return PropertyVerdict("cost_continuity", True, 0.0, note="no perturbations sampled")
    witness = worst_witness if margin < -IMPROVE_MARGIN else None
    return _inequality_verdict("cost_continuity", margin, witness)


def _segment_excess(
    a: Point, b: Point, atoms: Sequence[Point], norm: Norm
) -> float:
    base = norm.distance(a, b)
    return max(norm.distance(a, q) + norm.distance(q, b) - base for q in atoms)


def _segment_norm(norm: Norm) -> tuple[Norm, str]:
    if norm.strictly_convex:
        return norm, ""
    return EUCLIDEAN, "betweenness downgraded to Euclidean (norm not strictly convex)"


def check_support_segment(
    mech: MechanismLike, profile: Profile, norm: Norm
) -> PropertyVerdict:
    """Output must be degenerate or supported on a segment x_i x_j.

    The betweenness test ||a-q|| + ||q-b|| <= ||a-b|| + tol characterizes
    segment membership only for strictly convex norms; under p in {1, inf}
    it falls back to Euclidean collinearity and notes the downgrade.
    """
    fn = resolve(mech)
    lot = fn(profile, norm)
    if lot.is_degenerate:
        return PropertyVerdict("support_segment", True, 0.0, note="degenerate output")
    seg_norm, note = _segment_norm(norm)
    atoms = [pt for _, pt in lot.atoms]
    best = math.inf
    for i in range(1, profile.n + 1):
        for j in range(i, profile.n + 1):
            best = min(
                best,
                _segment_excess(profile.agent(i), profile.agent(j), atoms, seg_norm),
            )
    witness = Witness(
        profile,
        note="support atoms "
        + "; ".join(str(pt.coords) for pt in atoms)
        + " fit no agent segment",
    )
    return _equality_verdict("support_segment", max(best, 0.0), witness, note=note)


def check_2dictatorship(
    mech: MechanismLike, profiles: Sequence[Profile], norm: Norm
) -> PropertyVerdict:
    """One fixed agent pair must carry the support across all profiles."""
    profiles = tuple(profiles)
    if len(profiles) < 2:
        raise ValueError("2-dictatorship needs at least 2 sampled profiles")
    fn = resolve(mech)
    seg_norm, note = _segment_norm(norm)
    outputs = [fn(p, norm) for p in profiles]
    n = min(p.n for p in profiles)
    best_excess = math.inf
    best_pair = None
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            excess = 0.0
            for profile, lot in zip(profiles, outputs):
                atoms = [pt for _, pt in lot.atoms]
                excess = max(
                    excess,
                    _segment_excess(profile.agent(i), profile.agent(j), atoms, seg_norm),
                )
                if excess > best_excess:
                    break
            if excess < best_excess:
                best_excess = excess
                best_pair = (i, j)
    best_excess = max(best_excess, 0.0)
    if best_excess <= GEOM_TOL:
        extra = f"dictator pair {best_pair}"
        return PropertyVerdict(
            "2dictatorship", True, -best_excess, note="; ".join(s for s in (note, extra) if s)
        )
    worst_profile = max(
        zip(profiles, outputs),
        key=lambda po: min(
            _segment_excess(po[0].agent(i), po[0].agent(j), [pt for _, pt in po[1].atoms], seg_norm)
            for i in range(1, n + 1)
            for j in range(i, n + 1)
        ),
    )[0]
    witness = Witness(worst_profile, note="no fixed agent pair carries the support")
    return _equality_verdict("2dictatorship", best_excess, witness, note=note)


def check_delta_bound(
    mech: MechanismLike, x1: Point, x2: Point, x2_alt: Point, norm: Norm
) -> PropertyVerdict:
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
    fn = resolve(mech)
    delta = expected_distance(x1, fn(Profile((x1, x2)), norm), norm)
    bound = delta / (1.0 - d / r)
    measured = expected_distance(x1, fn(Profile((x1, x2_alt)), norm), norm)
    margin = bound - measured
    witness = Witness(
        Profile((x1, x2)),
        coalition=(2,),
        misreports=(x2_alt,),
        per_agent_delta=((1, delta, measured),),
        note=f"measured {measured:.6g} exceeds displacement bound {bound:.6g}",
    )
    return _inequality_verdict("delta_bound", margin, witness)
