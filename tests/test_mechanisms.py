"""Mechanism definitions: worked examples plus structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facilab.geometry import (
    GEOM_TOL,
    DimensionMismatch,
    Lottery,
    Norm,
    Point,
    Profile,
    canonical_atoms,
    canonical_stack,
    expected_cost_stack,
    expected_distance,
    parse_norm,
    point,
)
from facilab.mechanisms import (
    KINDS,
    REGISTRY,
    MechanismSpec,
    apply,
    format_mechanism,
    kernel_of,
    parse_mechanism,
    resolve,
)
from facilab.objectives import Objective, cost_mc, cost_sc, opt_value_upper_stack
from facilab.search import SCORE_DISTANCES

from conftest import is_on_segment, lotteries_match, profile_strategy

N2 = Norm(2.0)
DICTATOR_2 = MechanismSpec("dictator", index=2)
RAND_MED = MechanismSpec("rand_med")
RAND_CENTER = MechanismSpec("rand_center")
SEP2D = MechanismSpec("sep2d", a=0.0)
COORD_MEDIAN = MechanismSpec("coord_median")


def atoms(lot: Lottery):
    return {pt.coords: w for w, pt in lot.atoms}


class TestSpecParsing:
    def test_round_trip(self):
        suffix = {None: "", "index": ":2", "a": ":a=0.5"}
        for kind in KINDS:
            text = kind + suffix[REGISTRY[kind].param]
            spec = parse_mechanism(text)
            assert spec.kind == kind
            assert format_mechanism(spec) == text
            assert parse_mechanism(format_mechanism(spec)) == spec

    def test_rejects_unknown(self):
        for text in (
            "dictator", "sep2d", "sep2d:b=1", "median", "dictator:0", "rand_med:", "coord_median:x"
        ):
            with pytest.raises(ValueError):
                parse_mechanism(text)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MechanismSpec("dictator")
        with pytest.raises(ValueError):
            MechanismSpec("sep2d")
        with pytest.raises(ValueError):
            MechanismSpec("rand_med", a=1.0)


class TestDictator:
    def test_follows_dictator_only(self):
        prof = Profile.from_rows([(3, 3), (0, 0)])
        assert apply(MechanismSpec("dictator", index=1), prof, N2) == Lottery.degenerate(point(3, 3))

    def test_ignores_everyone_else(self):
        base = Profile.from_rows([(1, 2), (0, 0), (5, 5)])
        out = apply(DICTATOR_2, base, N2)
        assert apply(DICTATOR_2, base.replaced(1, point(9, 9)), N2) == out
        assert apply(DICTATOR_2, base.replaced(3, point(-7, 3)), N2) == out

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            apply(MechanismSpec("dictator", index=3), Profile.from_rows([(0, 0), (1, 1)]), N2)


class TestRandMed:
    def test_three_atom_shape(self):
        lot = apply(RAND_MED, Profile.from_rows([(0, 0), (2, 0)]), N2)
        assert atoms(lot) == {(0.0, 0.0): 0.25, (2.0, 0.0): 0.25, (1.0, 0.0): 0.5}

    def test_coincident_leaders_merge(self):
        lot = apply(RAND_MED, Profile.from_rows([(0, 0), (0, 0), (5, 5)]), N2)
        assert lot == Lottery.degenerate(point(0, 0))

    def test_third_agent_ignored(self):
        lot = apply(RAND_MED, Profile.from_rows([(1, 1), (3, 1), (99, 99)]), N2)
        assert atoms(lot) == {(1.0, 1.0): 0.25, (3.0, 1.0): 0.25, (2.0, 1.0): 0.5}

    def test_needs_two_agents(self):
        with pytest.raises(ValueError):
            apply(RAND_MED, Profile.from_rows([(0, 0)]), N2)

    @given(prof=profile_strategy(2, min_n=2, max_n=5))
    @settings(max_examples=150)
    def test_support_on_leader_segment(self, prof):
        lot = apply(RAND_MED, prof, N2)
        for _, pt in lot.atoms:
            assert is_on_segment(prof.agent(1), prof.agent(2), pt, N2, tol=1e-7)


class TestRandCenter:
    def test_unanimous_collapses(self):
        prof = Profile.from_rows([(2, 2), (2, 2), (2, 2)])
        assert apply(RAND_CENTER, prof, N2) == Lottery.degenerate(point(2, 2))

    def test_two_agents(self):
        lot = apply(RAND_CENTER, Profile.from_rows([(0, 0), (1, 0)]), N2)
        assert atoms(lot) == {(0.5, 0.0): 0.5, (0.0, 0.0): 0.25, (1.0, 0.0): 0.25}

    def test_mean_merges_with_report(self):
        lot = apply(RAND_CENTER, Profile.from_rows([(0, 0), (1, 0), (2, 0)]), N2)
        got = atoms(lot)
        assert got[(1.0, 0.0)] == pytest.approx(0.5 + 1 / 6, abs=1e-12)
        assert got[(0.0, 0.0)] == pytest.approx(1 / 6, abs=1e-12)
        assert got[(2.0, 0.0)] == pytest.approx(1 / 6, abs=1e-12)

    @given(prof=profile_strategy(2, min_n=2, max_n=5))
    @settings(max_examples=100)
    def test_support_in_convex_hull(self, prof):
        lot = apply(RAND_CENTER, prof, N2)
        lo, hi = prof.as_array.min(axis=0), prof.as_array.max(axis=0)
        for _, pt in lot.atoms:
            arr = pt.as_array()
            assert np.all(arr >= lo - GEOM_TOL) and np.all(arr <= hi + GEOM_TOL)


class TestSeparate2Dictator:
    def test_high_branch_short_segment(self):
        prof = Profile.from_rows([(2, 0), (5, 0), (0, 4)])
        lot = apply(SEP2D, prof, N2)
        assert atoms(lot) == {
            (2.0, 0.0): pytest.approx(2 / 3),
            (4.0, 0.0): pytest.approx(1 / 3),
        }

    def test_low_branch_uses_third_agent(self):
        prof = Profile.from_rows([(-1, 0), (5, 0), (-3, 4)])
        lot = apply(SEP2D, prof, N2)
        got = atoms(lot)
        companion = (-1.4472135954999579, 0.8944271909999159)
        assert got[(-1.0, 0.0)] == pytest.approx(2 / 3)
        assert got[companion] == pytest.approx(1 / 3)
        assert N2.distance(point(*companion), point(-1, 0)) == pytest.approx(1.0, abs=GEOM_TOL)

    def test_capped_by_partner_distance(self):
        prof = Profile.from_rows([(2, 0), (3, 0), (0, 4)])
        lot = apply(SEP2D, prof, N2)
        assert atoms(lot)[(3.0, 0.0)] == pytest.approx(1 / 3)

    def test_unanimous_collapses(self):
        prof = Profile.from_rows([(1, 1), (1, 1), (1, 1)])
        assert apply(SEP2D, prof, N2) == Lottery.degenerate(point(1, 1))

    def test_needs_three_agents(self):
        with pytest.raises(ValueError):
            apply(SEP2D, Profile.from_rows([(0, 0), (1, 0)]), N2)

    @given(prof=profile_strategy(2, min_n=3, max_n=5))
    @settings(max_examples=150)
    def test_leader_weight_and_support(self, prof):
        lot = apply(SEP2D, prof, N2)
        got = atoms(lot)
        x1 = prof.agent(1)
        assert got.get(x1.coords, 0.0) >= 2 / 3 - GEOM_TOL
        r = x1.coords[0]
        partner = prof.agent(2) if r >= 0.0 else prof.agent(3)
        for _, pt in lot.atoms:
            assert is_on_segment(x1, partner, pt, N2, tol=1e-7)


class TestCoordinateMedian:
    def test_majority_corner(self):
        prof = Profile.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 1)])
        assert apply(COORD_MEDIAN, prof, N2) == Lottery.degenerate(point(1, 1, 1))

    def test_majority_origin(self):
        prof = Profile.from_rows([(0, 0, 0), (0, 0, 0), (0, 0, 0), (1, 1, 1), (1, 1, 1)])
        assert apply(COORD_MEDIAN, prof, N2) == Lottery.degenerate(point(0, 0, 0))

    def test_single_agent_identity(self):
        prof = Profile((point(4, 2),))
        assert apply(COORD_MEDIAN, prof, N2) == Lottery.degenerate(point(4, 2))

    def test_even_n_takes_lower_median(self):
        prof = Profile.from_rows([(0, 3), (1, 0)])
        assert apply(COORD_MEDIAN, prof, N2) == Lottery.degenerate(point(0, 0))

    def test_order_independent(self):
        rows = [(0, 5), (2, 1), (9, 3)]
        out = apply(COORD_MEDIAN, Profile.from_rows(rows), N2)
        assert apply(COORD_MEDIAN, Profile.from_rows(rows[::-1]), N2) == out


MECHS = [
    MechanismSpec("dictator", index=1),
    MechanismSpec("rand_med"),
    MechanismSpec("rand_center"),
    MechanismSpec("sep2d", a=0.0),
    MechanismSpec("coord_median"),
]


@pytest.mark.parametrize("spec", MECHS, ids=format_mechanism)
@given(z=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=2))
@settings(max_examples=60)
def test_unanimity_all_mechanisms(spec, z):
    prof = Profile(tuple(Point(tuple(z)) for _ in range(3)))
    lot = apply(spec, prof, N2)
    assert lot.is_degenerate
    assert N2.distance(lot.atoms[0][1], Point(tuple(z))) <= GEOM_TOL


@pytest.mark.parametrize(
    "spec",
    [MechanismSpec("rand_med"), MechanismSpec("rand_center")],
    ids=format_mechanism,
)
@given(prof=profile_strategy(2, min_n=2, max_n=4), shift=st.lists(st.floats(-4, 4, allow_nan=False), min_size=2, max_size=2))
@settings(max_examples=120)
def test_translation_covariance(spec, prof, shift):
    shift_pt = Point(tuple(shift))
    base = apply(spec, prof, N2)
    moved = apply(spec, prof.translate(shift_pt), N2)
    ok, dev = lotteries_match(base.translate(shift_pt), moved)
    assert ok, dev


def test_resolve_accepts_strings_and_callables():
    prof = Profile.from_rows([(0, 0), (2, 0)])
    assert resolve("rand_med")(prof, N2) == apply(RAND_MED, prof, N2)

    def custom(profile, norm):
        return Lottery.degenerate(profile.agent(1))

    assert resolve(custom)(prof, N2) == Lottery.degenerate(point(0, 0))


def test_kernel_of_callable_checks_output_dimension():
    def flat(profile, norm):
        return Lottery.degenerate(point(0))

    with pytest.raises(DimensionMismatch):
        kernel_of(flat)(np.zeros((1, 3, 2)), N2)


def test_apply_is_deterministic():
    prof = Profile.from_rows([(0.1, 0.7), (2.3, -1.1), (0.5, 0.9)])
    for spec in MECHS:
        assert apply(spec, prof, N2) == apply(spec, prof, N2)


# -- array kernels against the Profile/Lottery boundary -----------------------

EQUIV_NORMS = [Norm(1.0), N2, Norm(3.0), Norm(math.inf)]
SPECS = [
    MechanismSpec(kind, **{None: {}, "index": {"index": 2}, "a": {"a": 0.0}}[REGISTRY[kind].param])
    for kind in KINDS
]
special = st.sampled_from([0.0, -0.0, 1.0, -1.5])


@st.composite
def reports_with_ties(draw):
    """Profiles drawn from a small pool of points: duplicate reports, -0.0
    coordinates, and (pool of one) unanimous profiles."""
    d = draw(st.integers(1, 3))
    coord = st.one_of(special, st.floats(-10, 10, allow_nan=False))
    pool = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=4))
    return Profile.from_rows(draw(st.lists(st.sampled_from(pool), min_size=3, max_size=5)))


def bitwise(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def mean_report(profile, norm):
    return Lottery.degenerate(Point.from_array(profile.as_array.mean(axis=0)))


@given(prof=reports_with_ties())
@settings(max_examples=150, deadline=None)
def test_array_kernels_match_apply_bitwise(prof):
    xs = prof.as_array[None]
    for mech in SPECS + [mean_report]:
        for norm in EQUIV_NORMS:
            weights, points = kernel_of(mech)(xs, norm)
            lot = resolve(mech)(prof, norm)
            assert bitwise(weights[0], lot.weights_array) and bitwise(points[0], lot.points_array)
            again = Lottery(lot.atoms)  # the kernel's arrays are already canonical
            assert bitwise(weights[0], again.weights_array) and bitwise(points[0], again.points_array)
            for x in prof.points:
                dist = expected_cost_stack(np.add, weights, points, x.as_array()[None, None], norm)[0]
                assert bitwise(dist, expected_distance(x, lot, norm))
            assert bitwise(expected_cost_stack(np.maximum, weights, points, xs, norm)[0], cost_mc(lot, prof, norm))
            assert bitwise(expected_cost_stack(np.add, weights, points, xs, norm)[0], cost_sc(lot, prof, norm))


# -- stacked kernels against per-row calls ------------------------------------

# the second transform has entries whose products round, so one-row
# (matrix-vector) and blocked (matrix-matrix) products of it can differ
STACK_NORMS = ["lp:2", "lp:1", "lp:inf", "lp:3;w=1,2", "lp:2;A=1,0.5,0,1", "lp:2;A=0.3,-1.2,0.8,0.5"]


@st.composite
def report_stacks(draw):
    """(m, n, d) stacks drawn from a small pool of points: duplicate reports,
    -0.0 coordinates, unanimous rows, and rows that differ in one agent."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(3, 5))
    coord = st.one_of(special, st.floats(-10, 10, allow_nan=False))
    pool = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=4))
    rows = draw(st.lists(st.lists(st.sampled_from(pool), min_size=n, max_size=n), min_size=2, max_size=6))
    return np.array(rows, dtype=float).reshape(len(rows), n, d)


def reference_distance(x, weights, points, norm):
    """The expected distance as computed before lotteries were stacked."""
    return float(weights @ norm.eval_many(points - x))


def reference_cost(objective, weights, points, xs, norm):
    """The lottery cost as computed before lotteries were stacked."""
    diffs = points[:, None, :] - xs[None, :, :]
    dist = norm.eval_many(diffs.reshape(-1, xs.shape[1])).reshape(len(points), len(xs))
    return float(weights @ (dist.max(axis=1) if objective is Objective.MAX_COST else dist.sum(axis=1)))


def unpadded(weights, points):
    k = int((weights > 0.0).sum())
    return weights[:k], points[:k]


@given(stack=report_stacks())
@settings(max_examples=120, deadline=None)
def test_stacked_kernels_match_per_row_bitwise(stack):
    m, n, d = stack.shape
    norms = [parse_norm(t) for t in STACK_NORMS if d == 2 or ";" not in t]
    for norm in norms:
        lotteries = []  # every kind's rows, one-atom and merged ones mixed
        for mech in SPECS + [mean_report]:
            weights, points = kernel_of(mech)(stack, norm)
            assert weights.shape[0] == m and points.shape[:2] == weights.shape
            for i in range(m):
                lot = resolve(mech)(Profile.from_rows(stack[i]), norm)
                w, p = unpadded(weights[i], points[i])
                assert bitwise(w, lot.weights_array) and bitwise(p, lot.points_array)
                assert not weights[i, len(w) :].any()
                lotteries.append((w, p, i))
            for objective in Objective:
                costs = expected_cost_stack(objective.per_atom, weights, points, stack, norm)
                # to the first agent alone, a one-atom lottery is a single distance
                alone = expected_cost_stack(objective.per_atom, weights, points, stack[:, :1], norm)
                for i in range(m):
                    row = unpadded(weights[i], points[i])
                    assert bitwise(costs[i], reference_cost(objective, *row, stack[i], norm))
                    one = expected_cost_stack(objective.per_atom, row[0][None], row[1][None], stack[i : i + 1], norm)
                    assert bitwise(costs[i], one[0])
                    assert bitwise(alone[i], reference_cost(objective, *row, stack[i, :1], norm))
        width = max(len(w) for w, _, _ in lotteries)
        pad_w, pad_p = np.zeros((len(lotteries), width)), np.zeros((len(lotteries), width, d))
        for j, (w, p, _) in enumerate(lotteries):
            pad_w[j, : len(w)], pad_p[j, : len(w)] = w, p
        for agent in range(n):
            xq = stack[[i for _, _, i in lotteries], agent]
            dists = expected_cost_stack(np.add, pad_w, pad_p, xq[:, None], norm)
            for j, (w, p, _) in enumerate(lotteries):
                assert bitwise(dists[j], reference_distance(xq[j], w, p, norm))
                assert bitwise(dists[j], expected_cost_stack(np.add, w[None], p[None], xq[j][None, None], norm)[0])


def reference_upper(objective, xs, norm):
    """The cheap optimum upper bound as written before it was stacked."""
    distinct = np.unique(xs, axis=0)
    if len(distinct) == 1:
        return 0.0
    if len(distinct) == 2 and objective is Objective.MAX_COST:
        return norm((distinct[0] - distinct[1]) / 2.0)
    n = len(xs)
    mids = [(xs[i] + xs[j]) / 2.0 for i in range(n) for j in range(i + 1, n)]
    seeds = np.vstack([xs, xs.mean(axis=0, keepdims=True), np.median(xs, axis=0, keepdims=True), mids])
    dist = norm.eval_many((seeds[:, None, :] - xs[None]).reshape(-1, xs.shape[1])).reshape(len(seeds), n)
    return float((dist.max(axis=1) if objective is Objective.MAX_COST else dist.sum(axis=1)).min())


@given(stack=report_stacks())
@settings(max_examples=120, deadline=None)
def test_stacked_upper_bound_matches_reference(stack):
    for text in STACK_NORMS:
        if stack.shape[2] != 2 and ";" in text:
            continue
        norm = parse_norm(text)
        for objective in Objective:
            upper = opt_value_upper_stack(objective, stack, norm)
            for i in range(len(stack)):
                assert bitwise(upper[i], reference_upper(objective, stack[i], norm))


@given(
    stack=report_stacks(),
    weights=st.lists(st.sampled_from([0.25, 0.5, 0.125, 1 / 3, 1 / 6, 0.0]), min_size=1, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_canonical_stack_matches_canonical_atoms(stack, weights):
    atoms = stack[:, : len(weights)]
    k = atoms.shape[1]
    w = np.asarray(weights[:k]) / math.fsum(weights[:k]) if math.fsum(weights[:k]) > 0 else np.ones(k) / k
    out_w, out_p = canonical_stack(w, atoms)
    for i in range(len(atoms)):
        ref_w, ref_p = canonical_atoms(w, atoms[i])
        row_w, row_p = unpadded(out_w[i], out_p[i])
        assert bitwise(row_w, ref_w) and bitwise(row_p, ref_p)


def test_canonical_stack_rejects_like_canonical_atoms():
    atoms = np.zeros((2, 2, 2))
    atoms[1, 1] = 1.0
    with pytest.raises(ValueError, match="sum to"):
        canonical_stack([0.5, 0.6], atoms)
    atoms[1, 1, 0] = math.inf
    with pytest.raises(ValueError, match="finite points"):
        canonical_stack([0.5, 0.5], atoms)


def test_stacked_kernel_with_more_atoms_than_a_merge_mask_holds():
    # rand_center on 70 agents has 71 atoms, more positions than a 64-bit
    # merge mask holds, so the stack goes through canonical_atoms per row
    rng = np.random.default_rng(3)
    stack = rng.integers(-2, 3, size=(3, 70, 2)).astype(float)
    weights, points = kernel_of(RAND_CENTER)(stack, N2)
    for i in range(len(stack)):
        lot = apply(RAND_CENTER, Profile.from_rows(stack[i]), N2)
        w, p = unpadded(weights[i], points[i])
        assert bitwise(w, lot.weights_array) and bitwise(p, lot.points_array)


@pytest.mark.parametrize("d", [1, 3])
def test_canonical_stack_with_masks_wider_than_a_byte(d):
    # 9..60 atoms: merge masks span several bytes, and a merge may join
    # positions in different bytes; -0.0 and 0.0 coordinates are equal
    rng = np.random.default_rng(19 + d)
    zero = np.array([0.0, -0.0])
    for k in range(9, 61):
        w = rng.integers(1, 9, size=k).astype(float)
        w /= w.sum()
        merged = zero[rng.integers(0, 2, size=(k, d))]  # one point written with both signs of zero
        distinct = np.arange(k * d, dtype=float).reshape(k, d) - 1.5
        pool = np.vstack([zero[rng.integers(0, 2, size=(3, d))], rng.integers(-2, 3, size=(3, d)).astype(float)])
        drawn = pool[rng.integers(0, len(pool), size=(4, k))]
        atoms = np.concatenate([merged[None], drawn[:2], distinct[rng.permutation(k)][None], drawn[2:]])
        out_w, out_p = canonical_stack(w, atoms)
        widths = []
        for i in range(len(atoms)):
            ref_w, ref_p = canonical_atoms(w, atoms[i])
            row_w, row_p = unpadded(out_w[i], out_p[i])
            assert bitwise(row_w, ref_w) and bitwise(row_p, ref_p), (k, i)
            assert not out_w[i, len(row_w) :].any() and not out_p[i, len(row_w) :].any()
            widths.append(len(row_w))
        assert widths[0] == 1 and widths[3] == k


def test_stacked_scores_at_the_hunt_block_sizes():
    # the hunt scores blocks of SCORE_DISTANCES // n**3 profiles (303, 128
    # and 65); every row must match its own per-row computation bit for bit
    rng = np.random.default_rng(4242)
    pool = np.array([[0.0, -0.0], [-0.0, 0.0], [1.0, -1.5], [0.5, 2.0]])
    for n in (3, 4, 5):
        m = SCORE_DISTANCES // n**3
        stack = rng.normal(size=(m, n, 2))
        ties = rng.random(m) < 0.25  # rows with duplicate and unanimous reports
        stack[ties] = pool[rng.integers(0, len(pool), size=(ties.sum(), n))]
        for text in ("lp:2", "lp:1", "lp:2;A=1.1,0.3,-0.2,0.9"):
            norm = parse_norm(text)
            for objective in Objective:
                upper = opt_value_upper_stack(objective, stack, norm)
                for i in range(m):
                    assert bitwise(upper[i], reference_upper(objective, stack[i], norm)), (n, text, i)
            for mech in SPECS:
                weights, points = kernel_of(mech)(stack, norm)
                rows = [unpadded(weights[i], points[i]) for i in range(m)]
                for i, (w, p) in enumerate(rows):
                    lot = resolve(mech)(Profile.from_rows(stack[i]), norm)
                    assert bitwise(w, lot.weights_array) and bitwise(p, lot.points_array), (n, text, i)
                for objective in Objective:
                    costs = expected_cost_stack(objective.per_atom, weights, points, stack, norm)
                    for i, row in enumerate(rows):
                        assert bitwise(costs[i], reference_cost(objective, *row, stack[i], norm)), (n, text, i)
