"""Property checkers: worked examples, witness plumbing, verdict bands."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

from facilab.geometry import (
    GEOM_TOL,
    DimensionMismatch,
    Lottery,
    Norm,
    Point,
    Profile,
    expected_distance,
    parse_norm,
    point,
)
from facilab import properties
from facilab.mechanisms import MechanismSpec, kernel_of, resolve
from facilab.properties import (
    PropertyVerdict,
    Witness,
    _equality_verdict,
    _inequality_verdict,
    check_2dictatorship,
    check_cost_continuity,
    check_delta_bound,
    check_group_strategyproof_at,
    check_strategyproof_at,
    check_support_segment,
    check_translation_invariance,
    check_unanimity,
    check_uncompromising,
)
from facilab.search import structured_profiles

from conftest import PARITY_NORMS, point_strategy

N2 = Norm(2.0)
N1 = Norm(1.0)

RAND_MED = MechanismSpec("rand_med")
RAND_CENTER = MechanismSpec("rand_center")
DICTATOR = MechanismSpec("dictator", index=1)
SEP2D = MechanismSpec("sep2d", a=0.0)
COORD_MEDIAN = MechanismSpec("coord_median")


class TestStrategyproofAt:
    def test_rand_center_symmetric_misreport_is_neutral(self):
        prof = Profile.from_rows([(0, 0), (1, 0)])
        v = check_strategyproof_at(RAND_CENTER, prof, 1, point(-1, 0), N2)
        assert v.passed
        assert v.margin == pytest.approx(0.0, abs=GEOM_TOL)

    def test_dictator_immune_to_others(self):
        prof = Profile.from_rows([(3, 3), (0, 0)])
        v = check_strategyproof_at(DICTATOR, prof, 2, point(9, -9), N2)
        assert v.passed and v.margin == pytest.approx(0.0, abs=GEOM_TOL)

    def test_coord_median_truthful_is_optimal_for_agent(self):
        prof = Profile.from_rows([(0, 0), (1, 0), (2, 0)])
        # exhaustive grid of misreports: no gain anywhere (oracle for the checker)
        worst = math.inf
        for gx in np.linspace(-3, 3, 25):
            for gy in np.linspace(-3, 3, 25):
                v = check_strategyproof_at(COORD_MEDIAN, prof, 1, point(gx, gy), N2)
                worst = min(worst, v.margin)
                assert v.passed
        assert worst >= -GEOM_TOL

    def test_violation_produces_witness(self, mean_mechanism):
        prof = Profile.from_rows([(0, 0), (1, 0)])
        v = check_strategyproof_at(mean_mechanism, prof, 1, point(-1, 0), N2)
        assert not v.passed and not v.inconclusive
        assert v.witness is not None
        agent, before, after = v.witness.per_agent_delta[0]
        assert agent == 1
        assert before == pytest.approx(0.5) and after == pytest.approx(0.0)


class TestGroupStrategyproofAt:
    def test_discussion_coalition_violation(self):
        prof = Profile.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 1)])
        v = check_group_strategyproof_at(
            COORD_MEDIAN, prof, (1, 2, 3), [point(0, 0, 0)] * 3, N1
        )
        assert not v.passed and v.witness is not None
        for agent, before, after in v.witness.per_agent_delta:
            assert before == pytest.approx(2.0) and after == pytest.approx(1.0)
        assert v.margin == pytest.approx(-1.0)

    def test_identity_misreport_never_violates(self):
        prof = Profile.from_rows([(0.5, 1), (2, 0), (1, 1)])
        for spec in (RAND_MED, RAND_CENTER, DICTATOR, SEP2D, COORD_MEDIAN):
            v = check_group_strategyproof_at(
                spec, prof, (1, 2, 3), list(prof.points), N2
            )
            assert v.passed and v.margin == pytest.approx(0.0, abs=GEOM_TOL)

    def test_rand_med_joint_midpoint_is_neutral(self):
        # both members keep expected cost 1 before and after the joint move
        prof = Profile.from_rows([(0, 0), (2, 0)])
        v = check_group_strategyproof_at(RAND_MED, prof, (1, 2), [point(1, 0)] * 2, N2)
        assert v.passed
        assert v.margin == pytest.approx(0.0, abs=GEOM_TOL)

    def test_requires_alignment(self):
        prof = Profile.from_rows([(0, 0), (2, 0)])
        with pytest.raises(ValueError):
            check_group_strategyproof_at(RAND_MED, prof, (1, 2), [point(1, 0)], N2)


class TestUnanimity:
    def test_builtins_unanimous(self):
        zs = [point(0, 0), point(2, -3), point(0.5, 0.25)]
        for spec in (RAND_MED, RAND_CENTER, DICTATOR, SEP2D, COORD_MEDIAN):
            v = check_unanimity(spec, N2, zs)
            assert v.passed, spec

    def test_violating_mechanism_caught(self):
        def stubborn(profile, norm):
            return Lottery.degenerate(point(0, 0))

        v = check_unanimity(stubborn, N2, [point(1, 1)], n=2)
        assert not v.passed and v.witness is not None


class TestTranslationInvariance:
    def test_rand_med_invariant(self):
        profs = [Profile.from_rows([(0, 0), (2, 0)]), Profile.from_rows([(1, 1), (-2, 3)])]
        shifts = [point(1, 0), point(-0.5, 2)]
        assert check_translation_invariance(RAND_MED, N2, profs, shifts).passed

    def test_dictator_invariant(self):
        profs = [Profile.from_rows([(0, 0), (2, 0)])]
        assert check_translation_invariance(DICTATOR, N2, profs, [point(3, -1)]).passed

    def test_sep2d_fails_with_branch_switch_witness(self):
        profs = [Profile.from_rows([(2, 0), (5, 0), (0, 4)])]
        shifts = [point(-3, 0)]
        v = check_translation_invariance(SEP2D, N2, profs, shifts)
        assert not v.passed
        assert v.witness is not None
        assert v.witness.coalition == (1, 2, 3)
        # shifted profile output moved onto segment x1x3: a third of the mass strays
        assert v.margin <= -(1 / 3) + GEOM_TOL


class TestUncompromising:
    def test_dictator(self):
        v = check_uncompromising(DICTATOR, Profile.from_rows([(3, 3), (0, 0)]), N2)
        assert v.passed

    def test_coord_median_recomputed(self):
        v = check_uncompromising(COORD_MEDIAN, Profile.from_rows([(0, 0), (2, 0), (4, 0)]), N2)
        assert v.passed

    def test_rand_med_degenerate_profile(self):
        v = check_uncompromising(RAND_MED, Profile.from_rows([(1, 1), (1, 1), (9, 9)]), N2)
        assert v.passed

    def test_randomized_output_skipped(self):
        v = check_uncompromising(RAND_MED, Profile.from_rows([(0, 0), (2, 0)]), N2)
        assert v.passed and "skipped" in v.note

    def test_violating_mechanism_caught(self, mean_mechanism):
        v = check_uncompromising(mean_mechanism, Profile.from_rows([(0, 0), (2, 0), (1, 0)]), N2)
        assert not v.passed and v.witness is not None


class TestCostContinuity:
    def test_rand_center_small_move(self):
        prof = Profile.from_rows([(0, 0), (1, 0)])
        v = check_cost_continuity(RAND_CENTER, prof, 1, [point(0.1, 0)], N2)
        assert v.passed
        # own cost moves from 0.5 to 0.45: well within the 0.1 movement
        assert v.margin == pytest.approx(0.1 - 0.05, abs=1e-12)

    def test_dictator_own_cost_identically_zero(self):
        prof = Profile.from_rows([(3, 3), (0, 0)])
        v = check_cost_continuity(DICTATOR, prof, 1, [point(5, 5), point(-1, 2)], N2)
        assert v.passed

    def test_sep2d_across_branch_boundary(self):
        prof = Profile.from_rows([(0.05, 0), (5, 0), (-5, 4)])
        sweeps = [point(x, 0.0) for x in np.linspace(-0.4, 0.4, 41)]
        v = check_cost_continuity(SEP2D, prof, 1, sweeps, N2)
        assert v.passed, v.margin

    def test_discontinuous_mechanism_caught(self):
        # own cost jumps by ~10 across the boundary while the agent moves 0.002
        def jumpy(profile, norm):
            x = profile.agent(1)
            target = point(10, 0) if x.coords[0] > 0 else x
            return Lottery.degenerate(target)

        prof = Profile.from_rows([(0.001, 0), (1, 1)])
        v = check_cost_continuity(jumpy, prof, 1, [point(-0.001, 0)], N2)
        assert not v.passed and v.witness is not None
        # the same moves as one array give the same verdict and witness
        assert check_cost_continuity(jumpy, prof, 1, np.array([[-0.001, 0.0]]), N2) == v
        assert v.witness.misreports == (point(-0.001, 0),)

    def test_array_moves_match_point_lists(self):
        profs = structured_profiles(3, 2)[:4]
        moves = np.array([p.agent(2).as_array() for p in profs])[:, None] + np.linspace(-1.0, 1.0, 10).reshape(1, 5, 2)
        points = [[Point.from_array(z) for z in zs] for zs in moves]
        for mech in (SEP2D, RAND_CENTER, COORD_MEDIAN):
            assert check_cost_continuity(mech, profs, [2] * 4, moves, N1) == check_cost_continuity(
                mech, profs, [2] * 4, points, N1
            )


class TestSupportSegment:
    def test_rand_med_on_leader_segment(self):
        v = check_support_segment(RAND_MED, Profile.from_rows([(0, 0), (2, 0), (9, 9)]), N2)
        assert v.passed

    def test_sep2d_on_segment(self):
        v = check_support_segment(SEP2D, Profile.from_rows([(2, 0), (5, 0), (0, 4)]), N2)
        assert v.passed

    def test_rand_center_triangle_fails(self):
        v = check_support_segment(RAND_CENTER, Profile.from_rows([(0, 0), (1, 0), (0, 1)]), N2)
        assert not v.passed and v.witness is not None

    def test_degenerate_output_trivially_passes(self):
        v = check_support_segment(COORD_MEDIAN, Profile.from_rows([(0, 1), (1, 0)]), N2)
        assert v.passed and "degenerate" in v.note

    def test_non_strictly_convex_norm_flagged(self):
        v = check_support_segment(RAND_MED, Profile.from_rows([(0, 0), (2, 0)]), N1)
        assert v.passed and "Euclidean" in v.note


class TestTwoDictatorship:
    PROFILES = [
        Profile.from_rows([(0, 0), (2, 0), (5, 1)]),
        Profile.from_rows([(1, 1), (-1, 2), (0, 4)]),
        Profile.from_rows([(0.3, -2), (2, 1), (1, 1)]),
    ]

    def test_rand_med_pair_12(self):
        v = check_2dictatorship(RAND_MED, self.PROFILES, N2)
        assert v.passed and "(1, 2)" in v.note

    def test_dictator_degenerate_pair(self):
        v = check_2dictatorship(DICTATOR, self.PROFILES, N2)
        assert v.passed

    def test_rand_center_fails(self):
        v = check_2dictatorship(RAND_CENTER, self.PROFILES, N2)
        assert not v.passed and v.witness is not None

    def test_sep2d_fails_across_branches(self):
        profs = [
            Profile.from_rows([(2, 0), (5, 0), (0, 4)]),
            Profile.from_rows([(-2, 0), (5, 0), (0, 4)]),
        ]
        v = check_2dictatorship(SEP2D, profs, N2)
        assert not v.passed

    def test_needs_two_profiles(self):
        with pytest.raises(ValueError):
            check_2dictatorship(RAND_MED, self.PROFILES[:1], N2)


class TestDeltaBound:
    def test_rand_med_two_agents(self):
        # delta = 2, displacement 1 of 4: bound 8/3; measured 1.5
        v = check_delta_bound(RAND_MED, point(0, 0), point(4, 0), point(3, 0), N2)
        assert v.passed
        assert v.margin == pytest.approx(8.0 / 3.0 - 1.5, abs=1e-9)

    def test_identity_displacement_is_tight(self):
        v = check_delta_bound(RAND_MED, point(0, 0), point(4, 0), point(4, 0), N2)
        assert v.passed and v.margin == pytest.approx(0.0, abs=GEOM_TOL)

    def test_dictator_trivial(self):
        v = check_delta_bound(DICTATOR, point(0, 0), point(4, 0), point(2, 0), N2)
        assert v.passed

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            check_delta_bound(RAND_MED, point(0, 0), point(1, 0), point(9, 0), N2)


class TestVerdictBands:
    def test_inconclusive_band(self):
        # a mechanism granting a gain inside the indeterminate band
        def nudge(profile, norm):
            x = profile.agent(1)
            if x == point(0, 0):
                return Lottery.degenerate(point(1e-8, 0))
            return Lottery.degenerate(point(0, 0))

        prof = Profile.from_rows([(0, 0), (1, 0)])
        v = check_strategyproof_at(nudge, prof, 1, point(-1, 0), N2)
        assert not v.passed and v.inconclusive and v.witness is None

    def test_status_strings(self):
        assert PropertyVerdict("x", True, 0.0).status == "pass"
        assert PropertyVerdict("x", False, -1.0).status == "fail"
        assert PropertyVerdict("x", False, -1e-8, inconclusive=True).status == "inconclusive"

    @given(z=point_strategy(2))
    @settings(max_examples=50)
    def test_singleton_coalition_matches_individual_check(self, z):
        prof = Profile.from_rows([(0, 0), (2, 0), (1, 3)])
        a = check_strategyproof_at(RAND_CENTER, prof, 2, z, N2)
        b = check_group_strategyproof_at(RAND_CENTER, prof, (2,), [z], N2)
        assert a.passed == b.passed
        assert a.margin == pytest.approx(b.margin, abs=1e-12)


# -- parity with the Profile/Lottery loops the array cores replaced -------------
#
# The reference checkers below run one Lottery per probe through ``resolve``
# and compare lotteries by union-find, as the package did before its array
# cores; every verdict must come out identical, repr for repr (margins, notes
# and witnesses bit for bit).


def _ref_lotteries_gap(lhs, rhs, tol=GEOM_TOL):
    tagged = [(pt.as_array(), w, 0) for w, pt in lhs.atoms] + [(pt.as_array(), w, 1) for w, pt in rhs.atoms]
    parent = list(range(len(tagged)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(tagged)):
        for j in range(i + 1, len(tagged)):
            if np.max(np.abs(tagged[i][0] - tagged[j][0])) <= tol:
                parent[find(i)] = find(j)
    sums = {}
    for i, (_, w, side) in enumerate(tagged):
        sums.setdefault(find(i), [0.0, 0.0])[side] += w
    return max(abs(a - b) for a, b in sums.values())


def _ref_sp(mech, profile, agent, misreport, norm):
    fn = resolve(mech)
    xi = profile.agent(agent)
    truth = expected_distance(xi, fn(profile, norm), norm)
    mis = expected_distance(xi, fn(profile.replaced(agent, misreport), norm), norm)
    witness = Witness(profile, (agent,), (misreport,), ((agent, truth, mis),))
    return _inequality_verdict("strategyproof", mis - truth, witness)


def _ref_gsp(mech, profile, coalition, misreports, norm):
    fn = resolve(mech)
    truth, new = fn(profile, norm), fn(profile.replaced_many(coalition, misreports), norm)
    deltas, margin = [], -math.inf
    for i in coalition:
        before = expected_distance(profile.agent(i), truth, norm)
        after = expected_distance(profile.agent(i), new, norm)
        deltas.append((i, before, after))
        margin = max(margin, after - before)
    witness = Witness(profile, tuple(coalition), tuple(misreports), tuple(deltas))
    return _inequality_verdict("group_strategyproof", margin, witness)


def _ref_unanimity(mech, norm, points, n=3):
    fn = resolve(mech)
    worst, witness = 0.0, None
    for z in points:
        profile = Profile(tuple(z for _ in range(n)))
        dev = max(norm.distance(pt, z) for _, pt in fn(profile, norm).atoms)
        if dev > worst:
            worst, witness = dev, Witness(profile, note=f"all-{z.coords} profile output strays by {dev:.3g}")
    return _equality_verdict("unanimity", worst, witness)


def _ref_translation(mech, norm, profiles, shifts):
    fn = resolve(mech)
    worst, witness = 0.0, None
    for profile in profiles:
        base = fn(profile, norm)
        for shift in shifts:
            if shift.dim != profile.d:
                continue
            moved = profile.translate(shift)
            expected, actual = base.translate(shift), fn(moved, norm)
            dev = _ref_lotteries_gap(expected, actual)
            if dev > worst:
                worst = dev
                costs = [[expected_distance(x, lot, norm) for lot in (expected, actual)] for x in moved.points]
                deltas = tuple((i, *c) for i, c in enumerate(costs, 1))
                note = f"shift {shift.coords} moves {dev:.3g} probability mass off the translated output"
                witness = Witness(profile, tuple(range(1, profile.n + 1)), tuple(moved.points), deltas, note)
    return _equality_verdict("translation_invariance", worst, witness)


def _ref_uncompromising(mech, profile, norm):
    fn = resolve(mech)
    lot = fn(profile, norm)
    if not lot.is_degenerate:
        return PropertyVerdict("uncompromising", True, 0.0, note="skipped: output is randomized")
    y = lot.atoms[0][1]
    worst, witness = 0.0, None
    for size in range(1, profile.n + 1):
        for subset in itertools.combinations(range(1, profile.n + 1), size):
            out = fn(profile.replaced_many(subset, tuple(y for _ in subset)), norm)
            dev = max(norm.distance(pt, y) for _, pt in out.atoms)
            if dev > worst:
                note = f"moving agents {subset} onto the output moves it by {dev:.3g}"
                worst, witness = dev, Witness(profile, subset, tuple(y for _ in subset), note=note)
    return _equality_verdict("uncompromising", worst, witness)


def _ref_continuity(mech, profile, agent, perturbations, norm):
    fn = resolve(mech)
    xi = profile.agent(agent)
    mu_base = expected_distance(xi, fn(profile, norm), norm)
    margin, witness = math.inf, None
    for z in perturbations:
        mu_z = expected_distance(z, fn(profile.replaced(agent, z), norm), norm)
        slack = norm.distance(xi, z) - abs(mu_z - mu_base)
        if slack < margin:
            margin = slack
            note = "own-cost change exceeds the agent's movement"
            witness = Witness(profile, (agent,), (z,), ((agent, mu_base, mu_z),), note)
    if math.isinf(margin):
        return PropertyVerdict("cost_continuity", True, 0.0, note="no perturbations sampled")
    return _inequality_verdict("cost_continuity", margin, witness if margin < -1e-6 else None)


def _ref_excess(a, b, atoms, norm):
    base = norm.distance(a, b)
    return max(norm.distance(a, q) + norm.distance(q, b) - base for q in atoms)


def _ref_seg_norm(norm):
    if norm.strictly_convex:
        return norm, ""
    return Norm(2.0), "betweenness downgraded to Euclidean (norm not strictly convex)"


def _ref_support(mech, profile, norm):
    lot = resolve(mech)(profile, norm)
    if lot.is_degenerate:
        return PropertyVerdict("support_segment", True, 0.0, note="degenerate output")
    seg, note = _ref_seg_norm(norm)
    atoms = [pt for _, pt in lot.atoms]
    pairs = [(i, j) for i in range(1, profile.n + 1) for j in range(i, profile.n + 1)]
    best = min(_ref_excess(profile.agent(i), profile.agent(j), atoms, seg) for i, j in pairs)
    text = "; ".join(str(pt.coords) for pt in atoms)
    witness = Witness(profile, note=f"support atoms {text} fit no agent segment")
    return _equality_verdict("support_segment", max(best, 0.0), witness, note=note)


def _ref_2dictatorship(mech, profiles, norm):
    fn = resolve(mech)
    seg, note = _ref_seg_norm(norm)
    atoms = [[pt for _, pt in fn(p, norm).atoms] for p in profiles]
    n = min(p.n for p in profiles)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    table = [[_ref_excess(p.agent(i), p.agent(j), a, seg) for i, j in pairs] for p, a in zip(profiles, atoms)]
    pair_excess = [max([0.0] + [row[k] for row in table]) for k in range(len(pairs))]
    best = min(range(len(pairs)), key=lambda k: pair_excess[k])
    if pair_excess[best] <= GEOM_TOL:
        extra = f"dictator pair {pairs[best]}"
        return PropertyVerdict("2dictatorship", True, -pair_excess[best], note="; ".join(s for s in (note, extra) if s))
    worst = max(range(len(profiles)), key=lambda k: min(table[k]))
    witness = Witness(profiles[worst], note="no fixed agent pair carries the support")
    return _equality_verdict("2dictatorship", pair_excess[best], witness, note=note)


def _ref_delta_bound(mech, x1, x2, x2_alt, norm):
    fn = resolve(mech)
    r, d = norm.distance(x2, x1), norm.distance(x2_alt, x2)
    delta = expected_distance(x1, fn(Profile((x1, x2)), norm), norm)
    bound = delta / (1.0 - d / r)
    measured = expected_distance(x1, fn(Profile((x1, x2_alt)), norm), norm)
    note = f"measured {measured:.6g} exceeds displacement bound {bound:.6g}"
    witness = Witness(Profile((x1, x2)), (2,), (x2_alt,), ((1, delta, measured),), note)
    return _inequality_verdict("delta_bound", bound - measured, witness)


def _lean(profile, norm):
    """Bare callable: half on the mean report, half on agent 1 (manipulable,
    off every agent segment)."""
    mean = Point.from_array(profile.as_array.mean(axis=0))
    return Lottery(((0.5, mean), (0.5, profile.agent(1))))


def _drift(profile, norm):
    """Bare callable: the mean report moved by a tenth of agent 1's report
    (deterministic, not unanimous, compromising)."""
    return Lottery.degenerate(Point.from_array(profile.as_array.mean(axis=0) + 0.1 * profile.as_array[0]))


PARITY_MECHS = {
    "dictator": DICTATOR,
    "rand_med": RAND_MED,
    "rand_center": RAND_CENTER,
    "sep2d": SEP2D,
    "coord_median": COORD_MEDIAN,
    "lean": _lean,
    "drift": _drift,
}


@pytest.mark.parametrize("norm_text,d", PARITY_NORMS, ids=[f"{t}-d{d}" for t, d in PARITY_NORMS])
@pytest.mark.parametrize("name", list(PARITY_MECHS))
def test_array_checkers_match_the_lottery_loops(name, norm_text, d):
    mech, norm = PARITY_MECHS[name], parse_norm(norm_text)
    gen = np.random.Generator(np.random.Philox(key=20 + d))
    draw = lambda *shape: gen.normal(size=shape)  # noqa: E731
    profiles = structured_profiles(3, d)[:7] + [Profile.from_rows(draw(3, d) * 1.5) for _ in range(3)]
    # rand_med's first two agents coincide: a degenerate output from a randomized mechanism
    profiles.append(Profile.from_rows([draw(d)] * 2 + [draw(d)]))
    pts = [Point.from_array(row) for row in draw(6, d)]
    shifts = [Point.from_array(row) for row in draw(3, d)] + [Point.from_array(1.5 * np.eye(d)[0])]

    def same(new, old):
        assert repr(new) == repr(old)
        assert new.margin.hex() == old.margin.hex()

    same(check_unanimity(mech, norm, pts), _ref_unanimity(mech, norm, pts))
    same(check_unanimity(mech, norm, [], n=4), _ref_unanimity(mech, norm, [], n=4))
    same(
        check_translation_invariance(mech, norm, profiles[:8], shifts), _ref_translation(mech, norm, profiles[:8], shifts)
    )
    same(check_translation_invariance(mech, norm, profiles[:2], []), _ref_translation(mech, norm, profiles[:2], []))
    with pytest.raises(DimensionMismatch):  # a shift of another dimension
        check_translation_invariance(mech, norm, profiles[:8], shifts + [point(1.0, 2.0, 3.0, 4.0)])
    with pytest.raises(DimensionMismatch):  # profiles of another size
        check_2dictatorship(mech, profiles[:6] + [Profile.from_rows(draw(4, d))], norm)
    same(check_2dictatorship(mech, profiles, norm), _ref_2dictatorship(mech, profiles, norm))
    # the arrays of the same probes give the same verdicts, witnesses included
    arr = np.asarray
    same(check_unanimity(mech, norm, arr(pts)), check_unanimity(mech, norm, pts))
    same(check_unanimity(mech, norm, np.zeros((0, d)), n=4), check_unanimity(mech, norm, [], n=4))
    same(
        check_translation_invariance(mech, norm, arr(profiles[:8]), arr(shifts)),
        check_translation_invariance(mech, norm, profiles[:8], shifts),
    )
    same(check_2dictatorship(mech, arr(profiles), norm), check_2dictatorship(mech, profiles, norm))
    unanimous = Profile(tuple(pts[0] for _ in range(3)))
    for profile in [unanimous] + profiles:
        same(check_support_segment(mech, profile, norm), _ref_support(mech, profile, norm))
        same(check_uncompromising(mech, profile, norm), _ref_uncompromising(mech, profile, norm))
        same(check_support_segment(mech, arr(profile), norm), check_support_segment(mech, profile, norm))
        same(check_uncompromising(mech, arr(profile), norm), check_uncompromising(mech, profile, norm))
    for profile in profiles[6:9]:
        for agent in (1, 2, 3):
            moves = [Point.from_array(profile.agent(agent).as_array() + step) for step in draw(5, d) * 0.4]
            same(
                check_cost_continuity(mech, profile, agent, moves, norm),
                _ref_continuity(mech, profile, agent, moves, norm),
            )
            same(
                check_cost_continuity(mech, arr(profile), agent, arr(moves), norm),
                check_cost_continuity(mech, profile, agent, moves, norm),
            )
            same(
                check_strategyproof_at(mech, profile, agent, moves[0], norm), _ref_sp(mech, profile, agent, moves[0], norm)
            )
        same(check_cost_continuity(mech, profile, 2, [], norm), _ref_continuity(mech, profile, 2, [], norm))
        for coalition in ((1, 2), (3,), (1, 2, 3)):
            reports = [Point.from_array(row) for row in draw(len(coalition), d)]
            same(
                check_group_strategyproof_at(mech, profile, coalition, reports, norm),
                _ref_gsp(mech, profile, coalition, reports, norm),
            )
    if name != "sep2d":  # sep2d needs 3 agents
        x1, x2 = Point.from_array(draw(d)), Point.from_array(draw(d) + 2.0)
        x2_alt = Point.from_array(x2.as_array() + 0.1 * draw(d))
        same(check_delta_bound(mech, x1, x2, x2_alt, norm), _ref_delta_bound(mech, x1, x2, x2_alt, norm))


def _jumpy(profile, norm):
    """Bare callable: agent 1's report, or 10 e_1 once its first coordinate
    is positive (agent 1's own cost jumps by ~10 across x_1[0] = 0)."""
    x = profile.as_array[0]
    return Lottery.degenerate(Point.from_array(10.0 * np.eye(len(x))[0] if x[0] > 0 else x))


@pytest.mark.parametrize("norm_text,d", PARITY_NORMS, ids=[f"{t}-d{d}" for t, d in PARITY_NORMS])
@pytest.mark.parametrize("name", [*PARITY_MECHS, "jumpy"])
def test_probe_sets_give_the_first_worst_profile_verdict(name, norm_text, d):
    mech, norm = {**PARITY_MECHS, "jumpy": _jumpy}[name], parse_norm(norm_text)
    gen = np.random.Generator(np.random.Philox(key=40 + d))
    draw = lambda *shape: gen.normal(size=shape)  # noqa: E731
    unanimous = Profile.from_rows([draw(d)] * 3)
    # _jumpy's jump is at x_1[0] = 0: two profiles that differ only in agents 2 and 3 tie
    edges = [Profile.from_rows([1e-3 * np.eye(d)[0], draw(d), draw(d)]) for _ in range(2)]
    # a degenerate output before and after spread and randomized ones
    profiles = [unanimous, Profile.from_rows([draw(d)] * 2 + [draw(d)])] + structured_profiles(3, d)[:5]
    profiles += [Profile.from_rows(draw(3, d) * 1.5) for _ in range(2)] + [unanimous] + edges
    probes = [(p, i) for p in profiles for i in (1, 2, 3)]
    moves = [[Point.from_array(p.agent(i).as_array() + step) for step in draw(4, d) * 0.4] for p, i in probes]
    for k in (-6, -3):  # each edge's agent 1 crosses the jump
        moves[k][1] = Point.from_array(-1e-3 * np.eye(d)[0])

    def same(new, per_probe):
        old = min(per_probe, key=lambda v: v.margin)
        assert repr(new) == repr(old)
        assert new.margin.hex() == old.margin.hex()

    same(check_support_segment(mech, profiles, norm), [check_support_segment(mech, p, norm) for p in profiles])
    same(check_uncompromising(mech, profiles, norm), [check_uncompromising(mech, p, norm) for p in profiles])
    movers, agents = [p for p, _ in probes], [i for _, i in probes]
    continuity = check_cost_continuity(mech, movers, agents, moves, norm)
    same(continuity, [check_cost_continuity(mech, p, i, zs, norm) for (p, i), zs in zip(probes, moves)])
    assert name != "jumpy" or continuity.witness is not None
    # the same probe sets as arrays
    arr = np.asarray
    same(check_support_segment(mech, arr(profiles), norm), [check_support_segment(mech, profiles, norm)])
    same(check_uncompromising(mech, arr(profiles), norm), [check_uncompromising(mech, profiles, norm)])
    same(check_cost_continuity(mech, arr(movers), arr(agents), arr(moves), norm), [continuity])
    nothing = [check_cost_continuity(mech, p, i, [], norm) for p, i in probes[:4]]
    same(check_cost_continuity(mech, movers[:4], agents[:4], [[]] * 4, norm), nothing)


def test_support_tie_goes_to_the_first_probe():
    # atoms a third and two thirds along x1x2, whose betweenness excess rounds
    # to -8.9e-16 here: the spread output passes with margin -0.0, which ties
    # the degenerate output's +0.0
    def thirds(profile, norm):
        x1, x2 = profile.as_array[:2]
        return Lottery(((0.5, Point.from_array(x1 + (x2 - x1) / 3)), (0.5, Point.from_array(x1 + (x2 - x1) * 2 / 3))))

    spread = Profile.from_rows([(-0.29, -3.78), (-0.39, 0.38), (0.14, -2.03)])
    fixed = Profile.from_rows([(1, 1), (1, 1), (0, 2)])
    assert check_support_segment(thirds, spread, N2).margin.hex() == "-0x0.0p+0"
    assert check_support_segment(thirds, fixed, N2).note == "degenerate output"
    for probes in ([spread, fixed], [fixed, spread]):
        assert repr(check_support_segment(thirds, probes, N2)) == repr(check_support_segment(thirds, probes[0], N2))


def test_each_probe_set_makes_one_kernel_call(monkeypatch):
    calls = []

    def counted(mech):
        kernel = kernel_of(mech)

        def run(xs, norm):
            calls.append(len(xs))
            return kernel(xs, norm)

        return run

    monkeypatch.setattr(properties, "kernel_of", counted)
    profiles = structured_profiles(3, 2)[:5] + [Profile.from_rows([(1, 1)] * 3)]
    moves = [[Point.from_array(p.agent(1).as_array() + step) for step in ((0.1, 0), (0, -0.2))] for p in profiles]
    for mech in (RAND_MED, COORD_MEDIAN, _drift):
        for check, most in (
            (lambda: check_support_segment(mech, profiles, N2), 1),
            (lambda: check_cost_continuity(mech, profiles, [1] * 6, moves, N2), 1),
            (lambda: check_uncompromising(mech, profiles, N2), 2),
        ):
            calls.clear()
            check()
            assert 1 <= len(calls) <= most
    assert calls == [6, 6 * 7]  # _drift's uncompromising: every output degenerate, 7 subsets each


class TestErrorPaths:
    PROF = Profile.from_rows([(0, 0), (2, 0), (1, 3)])

    def test_wrong_dimension_points_raise_dimension_mismatch(self):
        bad = point(1, 2, 3)
        with pytest.raises(DimensionMismatch):
            check_cost_continuity(RAND_CENTER, self.PROF, 1, [point(0.1, 0), bad], N2)
        with pytest.raises(DimensionMismatch):
            check_strategyproof_at(RAND_CENTER, self.PROF, 1, bad, N2)
        with pytest.raises(DimensionMismatch):
            check_group_strategyproof_at(RAND_CENTER, self.PROF, (1, 2), [point(0, 0), bad], N2)

    def test_shift_of_another_dimension_raises(self):
        assert not check_translation_invariance(SEP2D, N2, [self.PROF], [point(-3, 0)]).passed
        for shifts in ([point(1, 2, 3), point(-3, 0)], [point(1, 2, 3)]):
            with pytest.raises(DimensionMismatch):
                check_translation_invariance(SEP2D, N2, [self.PROF], shifts)
        # no profile, or no shift, is a vacuous pass
        assert check_translation_invariance(SEP2D, N2, [], [point(-3, 0)]).passed
        assert check_translation_invariance(SEP2D, N2, [self.PROF], []).passed
        with pytest.raises(DimensionMismatch):
            check_unanimity(SEP2D, N2, [point(1, 2), point(1, 2, 3)])
        # arrays: ragged or of another dimension raise, and none is a vacuous pass
        for shifts in (np.zeros((1, 3)), [np.zeros(2), np.zeros(3)]):
            with pytest.raises(DimensionMismatch):
                check_translation_invariance(SEP2D, N2, self.PROF.as_array[None], shifts)
        for points in ([np.zeros(2), np.zeros(3)], np.zeros((2, 3, 2))):
            with pytest.raises(DimensionMismatch):
                check_unanimity(SEP2D, N2, points)
        assert check_translation_invariance(SEP2D, N2, self.PROF.as_array[None], np.zeros((0, 2))).passed
        assert check_unanimity(SEP2D, N2, np.zeros((0, 2))).passed

    def test_probe_sets_need_one_shape(self):
        square = Profile.from_rows([(0, 0), (2, 0)])
        arrays = [self.PROF.as_array, square.as_array], [self.PROF.as_array, np.zeros((3, 3))], np.zeros((0, 3, 2))
        for mixed in ([self.PROF, square], [self.PROF, Profile.from_rows([(0, 0, 0)] * 3)], [], *arrays):
            with pytest.raises(DimensionMismatch):
                check_support_segment(RAND_MED, mixed, N2)
            with pytest.raises(DimensionMismatch):
                check_uncompromising(RAND_MED, mixed, N2)
            with pytest.raises(DimensionMismatch):
                check_cost_continuity(RAND_MED, mixed, [1] * len(mixed), [[point(0.1, 0)]] * len(mixed), N2)
        with pytest.raises(DimensionMismatch):  # as many perturbations per probe
            check_cost_continuity(RAND_MED, [self.PROF] * 2, [1, 2], [[point(0.1, 0)], []], N2)
        for moves in ([np.zeros((1, 2)), np.zeros((0, 2))], np.zeros((2, 1, 3))):  # arrays: ragged, another d
            with pytest.raises(DimensionMismatch):
                check_cost_continuity(RAND_MED, [self.PROF.as_array] * 2, [1, 2], moves, N2)
        with pytest.raises(ValueError, match="one agent"):
            check_cost_continuity(RAND_MED, [self.PROF] * 2, [1, 4], [[point(0.1, 0)]] * 2, N2)

    def test_2dictatorship_needs_two_profiles(self):
        # a bare Profile or (n, d) array is a set of one profile
        few_sets = ([], [self.PROF], np.zeros((0, 3, 2)), self.PROF.as_array[None], self.PROF.as_array, self.PROF)
        for few in few_sets:
            with pytest.raises(ValueError, match="at least 2"):
                check_2dictatorship(RAND_MED, few, N2)

    def test_translation_invariance_takes_a_bare_profile(self):
        # a bare Profile or (n, d) array is a set of one profile, judged
        want = check_translation_invariance(SEP2D, N2, [self.PROF], [point(-3, 0)])
        assert not want.passed
        for bare in (self.PROF, self.PROF.as_array):
            assert check_translation_invariance(SEP2D, N2, bare, [point(-3, 0)]) == want
            assert check_translation_invariance(RAND_MED, N2, bare, [point(-3, 0)]).passed


def test_translation_recanonicalizes_atoms_that_rounding_merges():
    # x1 and x1 + 1e-17 e1 are distinct atoms at x1 = 0 but one atom after a
    # unit shift; the witness's costs must use the merged translated lottery
    def collide(profile, norm):
        x = profile.agent(1).as_array()
        return Lottery(((0.28, x), (0.22, x + [1e-17, 0.0]), (0.5, point(7.0, 7.0))))

    profiles = [Profile.from_rows([(0, 0), (-1.2, 0.5), (0.2, 3.3)])]
    shifts = [point(1.0, 0.0), point(-3.0, 0.5)]
    new = check_translation_invariance(collide, N2, profiles, shifts)
    assert not new.passed and new.witness.misreports[0] == point(1.0, 0.0)
    assert repr(new) == repr(_ref_translation(collide, N2, profiles, shifts))
