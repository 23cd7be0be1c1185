"""Objective evaluation and certified optimizers.

The grid route (``method="grid"``) shares no code with the closed forms,
the LP or the ball route; tests here cross-check those against it and
every route against test-local oracles: a dense grid, plain Weiszfeld
iteration, scipy's LP solver and loops that restate a kernel.  Expected
constants were derived with those oracles (or closed forms confirmed by
them) and then frozen.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings

from facilab.geometry import (
    DimensionMismatch,
    Lottery,
    Norm,
    Profile,
    distance_matrix,
    duplicate_rows,
    expected_cost_stack,
    expected_distance,
    fold,
    parse_norm,
    point,
)
from facilab.mechanisms import REGISTRY, MechanismSpec, apply, kernel_of, parse_mechanism, resolve
from facilab.objectives import (
    GAP_REL,
    RATIO_ULPS,
    Objective,
    approx_ratio,
    cost,
    cost_mc,
    cost_sc,
    opt_cost,
    opt_max_cost,
    opt_social_cost,
    opt_value_upper,
    opt_value_upper_stack,
)
from facilab.objectives import _bundle_lower_bound, _seed_points, _upper_and_cost

from conftest import (
    STANDARD_NORMS,
    brute_force_minimize,
    brute_social_cost,
    lottery_strategy,
    profile_strategy,
)

N2 = Norm(2.0)
MC = Objective.MAX_COST
SC = Objective.SOCIAL_COST


class TestCosts:
    def test_mc_of_rand_med_on_pair(self):
        prof = Profile.from_rows([(0, 0), (2, 0)])
        lot = apply(MechanismSpec("rand_med"), prof, N2)
        assert cost_mc(lot, prof, N2) == pytest.approx(1.5, abs=1e-12)

    def test_mc_zero_when_unanimous(self):
        prof = Profile.from_rows([(1, 1), (1, 1)])
        assert cost_mc(Lottery.degenerate(point(1, 1)), prof, N2) == 0.0

    def test_mc_of_rand_center_on_pair(self):
        prof = Profile.from_rows([(0, 0), (1, 0)])
        lot = apply(MechanismSpec("rand_center"), prof, N2)
        assert cost_mc(lot, prof, N2) == pytest.approx(0.75, abs=1e-12)

    def test_sc_of_rand_med_clustered(self):
        prof = Profile.from_rows([(0, 0), (1, 0), (1, 0), (1, 0)])
        lot = apply(MechanismSpec("rand_med"), prof, N2)
        assert cost_sc(lot, prof, N2) == pytest.approx(2.0, abs=1e-12)

    def test_sc_zero_when_unanimous(self):
        prof = Profile.from_rows([(2, 3), (2, 3)])
        assert cost_sc(Lottery.degenerate(point(2, 3)), prof, N2) == 0.0

    def test_sc_degenerate_hand_value(self):
        prof = Profile.from_rows([(3, 4), (0, 0)])
        assert cost_sc(Lottery.degenerate(point(0, 0)), prof, N2) == pytest.approx(5.0)

    @given(prof=profile_strategy(2), lot=lottery_strategy(2))
    @settings(max_examples=150)
    def test_sc_is_sum_of_expected_distances(self, prof, lot):
        for norm in STANDARD_NORMS:
            total = sum(expected_distance(p, lot, norm) for p in prof.points)
            assert cost_sc(lot, prof, norm) == pytest.approx(total, abs=1e-9)

    @given(prof=profile_strategy(2), lot=lottery_strategy(2))
    @settings(max_examples=150)
    def test_mc_dominates_each_expected_distance(self, prof, lot):
        for norm in STANDARD_NORMS:
            worst = max(expected_distance(p, lot, norm) for p in prof.points)
            assert cost_mc(lot, prof, norm) >= worst - 1e-9

    @given(prof=profile_strategy(2))
    @settings(max_examples=100)
    def test_degenerate_lottery_matches_point_cost(self, prof):
        y = point(0.25, -0.5)
        lot = Lottery.degenerate(y)
        dists = [N2.distance(x, y) for x in prof.points]
        assert cost_mc(lot, prof, N2) == max(dists)
        assert cost_sc(lot, prof, N2) == pytest.approx(sum(dists), rel=1e-15)


class TestOptSocialCost:
    def test_collinear_median(self):
        prof = Profile.from_rows([(0, 0), (1, 0), (10, 0)])
        res = opt_social_cost(prof, N2)
        assert res.value == pytest.approx(10.0, abs=1e-9)
        assert N2.distance(res.point, point(1, 0)) <= 1e-6

    def test_single_agent(self):
        res = opt_social_cost(Profile((point(3, 3),)), N2)
        assert res.value == 0.0 and res.certified_gap == 0.0

    def test_unit_square_center(self):
        prof = Profile.from_rows([(0, 0), (1, 0), (0, 1), (1, 1)])
        res = opt_social_cost(prof, N2)
        # frozen from the dense-grid oracle; equals 2*sqrt(2) at (0.5, 0.5)
        assert res.value == pytest.approx(2.8284271247461903, abs=1e-6)
        assert res.certified_gap <= GAP_REL * (1.0 + res.value)

    def test_two_agents_any_norm(self):
        prof = Profile.from_rows([(0, 1), (4, -2)])
        for norm in STANDARD_NORMS:
            res = opt_social_cost(prof, norm)
            assert res.value == pytest.approx(norm.distance(prof.agent(1), prof.agent(2)))
            assert res.certified_gap == 0.0

    def test_majority_point_snaps_exactly(self):
        prof = Profile.from_rows([(0, 0), (1, 0), (1, 0), (1, 0)])
        res = opt_social_cost(prof, N2)
        assert res.point == point(1, 0)
        assert res.value == 1.0 and res.certified_gap == 0.0

    def test_degenerate_extent_profile(self):
        # whole profile inside the snap radius: the route must stay finite
        eps = 9.36e-10
        prof = Profile.from_rows([(0.0, 0.0), (0.0, eps), (eps, 0.0)])
        res = opt_social_cost(prof, N2, method="grid")
        assert math.isfinite(res.value) and res.value <= 2 * eps + 1e-12
        assert res.certified_gap <= GAP_REL * (1.0 + res.value)

    def test_unknown_method_rejected(self):
        # also where a closed form returns before any route is chosen
        for rows in ([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0)], [(1, 1)]):
            with pytest.raises(ValueError, match="unknown method"):
                opt_social_cost(Profile.from_rows(rows), N2, method="weiszfeld")

    def test_weighted_transformed_euclidean(self):
        norm = Norm(2.0, weights=(1.0, 4.0), transform=((1.0, 1.0), (0.0, 1.0)))
        prof = Profile.from_rows([(0, 0), (2, 1), (1, -1), (0.5, 0.5)])
        res = opt_social_cost(prof, norm)
        fn = lambda p: brute_social_cost(prof, norm, p)
        brute_val, _ = brute_force_minimize(fn, (-1.5, -1.5), (2.5, 1.5), steps=171)
        assert res.value <= brute_val + 1e-6
        assert res.certified_gap <= GAP_REL * (1.0 + res.value) + 1e-12

    def test_near_l1_exponent_certificate(self):
        # conjugate exponent ~1e4: the dual-norm certificate must stay sound
        prof = Profile.from_rows([(0, 0), (2, 0), (1, 1.7)])
        res = opt_social_cost(prof, Norm(1.0001))
        brute = lambda p: brute_social_cost(prof, Norm(1.0001), p)
        brute_val, _ = brute_force_minimize(brute, (-0.2, -0.2), (2.2, 1.9), steps=121)
        assert res.value <= brute_val + 1e-9
        assert brute_val <= res.value + res.certified_gap + 3 * 2.4 / 120 + 1e-9

    def test_l1_flat_valley_budget_honesty(self):
        # L1 square: separable, optimum 2 per coordinate, flat over the square
        prof = Profile.from_rows([(0, 0), (1, 0), (0, 1), (1, 1)])
        res = opt_social_cost(prof, Norm(1.0), budget=900)
        assert res.value >= 4.0 - 1e-9
        assert res.certified_gap >= 0.0
        assert res.value - res.certified_gap <= 4.0 + 1e-9


class TestOptMaxCost:
    def test_two_point_midpoint_any_norm(self):
        prof = Profile.from_rows([(0, 0), (2, 0)])
        for norm in STANDARD_NORMS:
            res = opt_max_cost(prof, norm)
            assert res.point == point(1, 0)
            assert res.value == pytest.approx(1.0, abs=1e-12)
            assert res.certified_gap == 0.0

    def test_all_identical(self):
        prof = Profile.from_rows([(5, 5), (5, 5), (5, 5)])
        res = opt_max_cost(prof, N2)
        assert res.value == 0.0

    def test_equilateral_circumcenter(self):
        prof = Profile.from_rows([(0, 0), (2, 0), (1, math.sqrt(3))])
        res = opt_max_cost(prof, N2)
        # frozen: circumradius 2/sqrt(3) at (1, 1/sqrt(3)), confirmed by grid oracle
        assert res.value == pytest.approx(1.1547005383792515, abs=1e-5)
        assert N2.distance(res.point, point(1.0, 0.5773502691896257)) <= 1e-4
        assert res.certified_gap <= GAP_REL * (1.0 + res.value) + 1e-12

    def test_two_location_cluster_multiplicities(self):
        prof = Profile.from_rows([(0, 0), (1, 0), (1, 0), (1, 0)])
        res = opt_max_cost(prof, N2)
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.certified_gap == 0.0

    def test_three_dimensional_kink_certified(self):
        # minimax centers in d=3 balance up to four terms; the active-set
        # certificate must still reach the gap target there
        gen = np.random.default_rng(515)
        for p in (1.5, 2.0, 3.0):
            prof = Profile.from_rows(gen.normal(size=(7, 3)) * 2.0)
            res = opt_max_cost(prof, Norm(p))
            assert res.certified_gap <= GAP_REL * (1.0 + res.value), (p, res)

    @given(prof=profile_strategy(2, min_n=2, max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_value_between_half_and_full_diameter(self, prof):
        res = opt_max_cost(prof, N2, budget=4000)
        diam = max(N2.distance(a, b) for a in prof.points for b in prof.points)
        assert res.value >= diam / 2.0 - 1e-9
        assert res.value <= diam + 1e-9


class TestOptUpperBound:
    @given(prof=profile_strategy(2, min_n=2, max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_never_undershoots_certified_optimum(self, prof):
        norms = (
            N2,
            Norm(3.0, weights=(1.0, 2.0)),
            Norm(1.5, transform=((1.0, 0.5), (-0.25, 1.0))),
            Norm(math.inf, weights=(2.0, 1.0), transform=((1.0, 0.5), (0.0, 1.0))),
        )
        for norm in norms:
            for objective in (MC, SC):
                upper = opt_value_upper(objective, prof, norm)
                opt = opt_max_cost if objective is MC else opt_social_cost
                res = opt(prof, norm, budget=4000)
                assert upper >= res.value - res.certified_gap - 1e-9, (norm, objective)

    def test_respects_multiplicities(self):
        prof = Profile.from_rows([(0, 0), (0, 0), (1, 0), (1, 0), (1, 0)])
        assert opt_value_upper(SC, prof, N2) == pytest.approx(2.0)
        assert opt_value_upper(MC, prof, N2) == pytest.approx(0.5)

    @pytest.mark.parametrize("objective", [MC, SC], ids=lambda o: o.value)
    def test_single_agent_rows_give_zero(self, objective):
        # one report per row is unanimous, so a stack of them holds no
        # two-location row for the max cost's midpoint to pick
        from facilab.objectives import opt_value_upper_stack

        xs = np.random.default_rng(1).normal(size=(3, 1, 2))
        assert opt_value_upper_stack(objective, xs, N2).tolist() == [0.0, 0.0, 0.0]
        assert opt_value_upper(objective, Profile.from_rows(xs[0]), N2) == 0.0


def reference_upper_stack(objective, xs, norm):
    """opt_value_upper_stack as it was written before the bound shared its
    distance table with the mechanism cost: a duplicate table for both
    objectives, and the seeds scored only on the rows they decide."""
    lead = duplicate_rows(xs)[1]
    distinct = lead.sum(axis=1)
    out = np.zeros(len(xs))
    if objective is MC:
        two = np.flatnonzero(distinct == 2)
        if two.size:
            half = (xs[two, 0] - xs[two, lead[two, 1:].argmax(axis=1) + 1]) / 2.0
            out[two] = norm.eval_many(half[:, None, :])[:, 0]
    rest = distinct > (2 if objective is MC else 1)
    zs = xs[rest]
    seeds = _seed_points(zs)
    (m, k, d), n = seeds.shape, zs.shape[1]
    diffs = np.repeat(seeds, n, axis=1) - np.tile(zs, (k, 1))
    dists = norm.eval_many(diffs.reshape(-1, d)).reshape(m, k, n)
    out[rest] = fold(np.minimum, fold(objective.per_atom, dists))
    return out


def two_ends(profile, norm):
    """Half each on 1.25 x the first and the last report: one atom that is
    no report at n = 1, two on most profiles."""
    xs = 1.25 * profile.as_array
    return Lottery(((0.5, point(*xs[0])), (0.5, point(*xs[-1]))))


def core_stack(n):
    """Report stacks of n agents in d = 2: generic rows, unanimous rows, rows
    of two distinct reports, signed zeros, and generic rows near 1e300 and
    1e-316."""
    rng = np.random.default_rng(27 + n)
    generic = rng.normal(size=(4, n, 2))
    unanimous = np.repeat(rng.normal(size=(2, 1, 2)), n, axis=1)
    a, b = rng.normal(size=(2, 2))
    two = np.array([[a if i % 2 else b for i in range(n)], [a] * (n - 1) + [b]])
    zeros = np.zeros((2, n, 2))
    zeros[0, ::2, 0] = -0.0  # unanimous: -0.0 == 0.0
    zeros[1, -1] = (-0.0, 1.0)
    return np.concatenate([generic, unanimous, two, zeros, 1e300 * generic, 1e-316 * generic, 1e300 * unanimous])


@pytest.mark.parametrize("mech", ["dictator:1", "rand_med", "rand_center", "sep2d:a=0.5", "coord_median", two_ends])
@pytest.mark.parametrize("text", ["lp:1", "lp:2", "lp:inf", "lp:3;w=1,2", "lp:2;A=1.1,0.3,-0.2,0.9"])
def test_upper_and_cost_match_the_separate_passes_bitwise(mech, text):
    # n = 1 under the transform prices a lone atom off the report, which
    # distance_matrix measures by a one-row (gemv) norm call
    norm, kernel = parse_norm(text), kernel_of(mech)
    fewest = parse_mechanism(mech).min_agents if isinstance(mech, str) else 1
    for n in range(fewest, 6):
        xs = core_stack(n)
        lottery = kernel(xs, norm)
        for objective in (MC, SC):
            upper, cost = _upper_and_cost(objective, xs, norm, *lottery)
            assert upper.tobytes() == reference_upper_stack(objective, xs, norm).tobytes(), (n, objective)
            assert upper.tobytes() == opt_value_upper_stack(objective, xs, norm).tobytes(), (n, objective)
            expected = expected_cost_stack(objective.per_atom, *lottery, xs, norm)
            assert cost.tobytes() == expected.tobytes(), (n, objective)


@pytest.mark.parametrize("objective", [MC, SC], ids=lambda o: o.value)
def test_unanimous_row_bound_is_zero_where_the_seeds_overflow(objective):
    # the mean and midpoints of 1.7e308 overflow, so the seeds' min is NaN
    xs = np.full((2, 3, 2), 1.7e308)
    xs[1, 0, 0] = -0.0 * xs[1, 0, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(fold(np.minimum, fold(objective.per_atom, distance_matrix(_seed_points(xs[:1]), xs[:1], N2))))
        assert opt_value_upper_stack(objective, xs[:1], N2).tolist() == [0.0]


def reference_ratio(mech, profile, norm, objective):
    """(cost, ratio, lo, hi) as approx_ratio computed them through the
    mechanism's Lottery and ``cost``, for a positive optimum."""
    mech_cost = cost(objective, resolve(mech)(profile, norm), profile, norm)
    opt = opt_cost(objective, profile, norm)
    reach = float((np.abs(profile.as_array) @ norm.eval_many(np.eye(profile.d))).max())
    slack = RATIO_ULPS * (2.0 + profile.n * reach / opt.value) * np.finfo(float).eps
    lo = max(0.0, 1.0 - slack) * mech_cost / (opt.value + opt.certified_gap)
    denom = opt.value - opt.certified_gap
    hi = (1.0 + slack) * mech_cost / denom if denom > 0.0 else math.inf
    return mech_cost, mech_cost / opt.value, lo, hi


def _lean_on_first(profile, norm):
    """Bare callable: half on the mean report, half on agent 1."""
    mean = profile.as_array.mean(axis=0)
    return Lottery(((0.5, tuple(mean)), (0.5, profile.agent(1))))


RATIO_SPECS = {"dictator": "dictator:2", "sep2d": "sep2d:a=0.5"}


@pytest.mark.parametrize("kind", list(REGISTRY) + ["callable"])
def test_ratio_prices_the_kernel_arrays_as_the_lottery_path(kind):
    # the kernel's arrays are the Lottery's, so the cost and the interval
    # keep every bit; lp:1.5 in d = 3 and the rough transform go to the
    # grid route, the others to closed forms, the LP and the ball
    mech = _lean_on_first if kind == "callable" else RATIO_SPECS.get(kind, kind)
    rows = [[(0.3, 0.4), (1.7, -0.2), (0.9, 1.4), (-1.1, 0.25)], [(0, 0), (2, 0), (0, 0), (0.5, 1.5), (2, 0)]]
    rows.append([(0.3, -1.2, 0.5), (2.0, 0.5, -0.25), (-0.7, 0.9, 1.5)])
    for norm_text in ("lp:2", "lp:1.5", "lp:1", "lp:inf", "lp:2;A=1.1,0.3,-0.2,0.9"):
        norm = parse_norm(norm_text)
        for profile in map(Profile.from_rows, rows):
            if norm.dim not in (None, profile.d):
                continue
            for objective in Objective:
                rr = approx_ratio(mech, profile, norm, objective)
                got = (rr.cost, rr.ratio, rr.lo, rr.hi)
                assert [x.hex() for x in got] == [x.hex() for x in reference_ratio(mech, profile, norm, objective)]


def test_ratio_rejects_a_callable_of_another_dimension():
    def lifted(profile, norm):
        return Lottery.degenerate(point(0, 0, 0))

    with pytest.raises(DimensionMismatch):
        approx_ratio(lifted, Profile.from_rows([(0, 0), (1, 0), (0, 2)]), N2, MC)


class TestApproxRatio:
    def test_rand_center_mc_pair(self):
        prof = Profile.from_rows([(0, 0), (1, 0)])
        rr = approx_ratio(MechanismSpec("rand_center"), prof, N2, MC)
        assert rr.ratio == pytest.approx(1.5, abs=1e-9)

    def test_dictator_mc_pair(self):
        prof = Profile.from_rows([(0, 0), (2, 0)])
        rr = approx_ratio(MechanismSpec("dictator", index=1), prof, N2, MC)
        assert rr.ratio == pytest.approx(2.0, abs=1e-9)

    def test_dictator_sc_isolated(self):
        prof = Profile.from_rows([(0, 0)] + [(1, 0)] * 4)
        rr = approx_ratio(MechanismSpec("dictator", index=1), prof, N2, SC)
        assert rr.ratio == pytest.approx(4.0, abs=1e-9)

    def test_zero_optimum_zero_cost_is_one(self):
        prof = Profile.from_rows([(1, 1), (1, 1)])
        rr = approx_ratio(MechanismSpec("rand_med"), prof, N2, MC)
        assert rr.ratio == 1.0 and not rr.unbounded

    def test_zero_optimum_positive_cost_unbounded(self):
        def offset_mech(profile, norm):
            return Lottery.degenerate(profile.agent(1) + point(1, 0))

        prof = Profile.from_rows([(1, 1), (1, 1)])
        rr = approx_ratio(offset_mech, prof, N2, MC)
        assert rr.unbounded and math.isinf(rr.ratio)

    def test_interval_brackets_ratio(self):
        prof = Profile.from_rows([(0.3, 0.4), (1.7, -0.2), (0.9, 1.4)])
        for objective in (MC, SC):
            rr = approx_ratio(MechanismSpec("rand_center"), prof, N2, objective)
            assert rr.lo - 1e-12 <= rr.ratio <= rr.hi + 1e-12

    def test_exact_ratio_inside_zero_gap_interval(self):
        # every closed-form route certifies gap 0; with integer reports and
        # float weights or transform, rand_center's cost and the optimum are
        # both rational.  The transformed cases are ill-conditioned, with
        # reports far from the origin relative to their spread.  Two
        # locations take the midpoint route, three or more the median and
        # box-center routes (in d = 2 also after the 45-degree rotation).
        far2, far3 = (10**6, 10**6), (10**6, 10**6, 10**6)
        ill2, ill3 = "A=1,-1,0,1e-3", "A=1,-1,0,0,1e-3,0,0,0,1"
        cases = [
            (MC, "lp:1;w=1,3", (0, 0), 2),
            (MC, "lp:1;" + ill2, far2, 2),
            (SC, "lp:1;w=1,3", (0, 0), 3),
            (SC, "lp:1;" + ill2, far2, 3),
            (SC, "lp:1;w=1,3,2", (0, 0, 0), 3),
            (SC, "lp:1;" + ill3, far3, 3),
            (MC, "lp:inf;w=1,3", (0, 0), 3),
            (MC, "lp:inf;" + ill2, far2, 3),
            (MC, "lp:inf;w=1,3,2", (0, 0, 0), 3),
            (MC, "lp:inf;" + ill3, far3, 3),
            (MC, "lp:1;w=1,3", (0, 0), 3),
            (MC, "lp:1;" + ill2, far2, 3),
            (SC, "lp:inf;w=1,3", (0, 0), 3),
            (SC, "lp:inf;" + ill2, far2, 3),
        ]
        rng = np.random.default_rng(7)
        for objective, text, base, locations in cases:
            norm = parse_norm(text)
            d = len(base)
            rows_a = [tuple(Fraction(c) for c in row) for row in norm.transform or np.eye(d)]
            scales = [Fraction(w) for w in norm.weights or (1,) * d]

            def working(u):
                # working coordinates: the weights scale the transformed rows
                return [w * sum(r * c for r, c in zip(row, u)) for w, row in zip(scales, rows_a)]

            def dist(u, v):
                z = [abs(c) for c in working([a - b for a, b in zip(u, v)])]
                return sum(z) if norm.p == 1 else max(z)

            checked = 0
            for n in range(locations, locations + 4):
                for _ in range(50 if locations == 2 else 20):
                    spots = {tuple(int(o + c) for o, c in zip(base, rng.integers(-6, 7, size=d)))
                             for _ in range(locations)}
                    if len(spots) < locations:
                        continue
                    spots = sorted(spots)
                    rows = spots + [spots[k] for k in rng.integers(0, locations, size=n - locations)]
                    pts = [tuple(Fraction(c) for c in row) for row in rows]
                    mean = tuple(sum(c) / n for c in zip(*pts))
                    atoms = [(Fraction(1, 2), mean)] + [(Fraction(1, 2 * n), p) for p in pts]
                    agg = max if objective is MC else sum
                    cost = sum(w * agg(dist(x, p) for p in pts) for w, x in atoms)
                    opt = _exact_polyhedral_optimum(objective, norm.p, [working(p) for p in pts])
                    exact = cost / opt
                    rr = approx_ratio(
                        MechanismSpec("rand_center"), Profile.from_rows(rows), norm, objective
                    )
                    assert rr.opt.certified_gap == 0.0, (text, rows)
                    assert Fraction(rr.lo) <= exact <= Fraction(rr.hi), (text, rows, rr.lo, rr.hi)
                    checked += 1
            assert checked > (150 if locations == 2 else 60), (text, checked)

    def test_exact_ratio_inside_lp_interval(self):
        # Linf social cost and L1 max cost in d = 3 take the LP route, whose
        # gap is a dual bound a few ulps wide, not 0.  The exact optimum is a
        # rational primal/dual pair in working coordinates, checked exactly
        # for feasibility and equal objective values.
        far = (10**6, 10**6, 10**6)
        ill = "A=1,-1,0,0,1e-3,0,0,0,1"
        cases = [
            (SC, "lp:inf", (0, 0, 0)),
            (SC, "lp:inf;w=1,3,2", (0, 0, 0)),
            (SC, "lp:inf;" + ill, far),
            (MC, "lp:1", (0, 0, 0)),
            (MC, "lp:1;w=1,3,2", (0, 0, 0)),
            (MC, "lp:1;" + ill, far),
        ]
        rng = np.random.default_rng(11)
        for objective, text, base in cases:
            norm = parse_norm(text)
            rows_a = [tuple(Fraction(c) for c in row) for row in norm.transform or np.eye(3)]
            scales = [Fraction(w) for w in norm.weights or (1, 1, 1)]

            def working(u):
                return [w * sum(r * c for r, c in zip(row, u)) for w, row in zip(scales, rows_a)]

            def dist(u, v):
                z = [abs(c) for c in working([a - b for a, b in zip(u, v)])]
                return sum(z) if norm.p == 1 else max(z)

            checked = 0
            for n in (3, 4, 5, 6):
                for _ in range(3):
                    rows = [tuple(int(o + c) for o, c in zip(base, rng.integers(-3, 4, size=3)))
                            for _ in range(n)]
                    if len(set(rows)) < 3:
                        continue
                    pts = [tuple(Fraction(c) for c in row) for row in rows]
                    mean = tuple(sum(c) / n for c in zip(*pts))
                    atoms = [(Fraction(1, 2), mean)] + [(Fraction(1, 2 * n), p) for p in pts]
                    agg = max if objective is MC else sum
                    cost = sum(w * agg(dist(x, p) for p in pts) for w, x in atoms)
                    a, b, c = _polyhedral_lp_rows(objective, norm.p, [working(p) for p in pts])
                    opt = _exact_lp_optimum(a, b, c)
                    rr = approx_ratio(
                        MechanismSpec("rand_center"), Profile.from_rows(rows), norm, objective
                    )
                    assert rr.opt.method == "lp", (text, rows)
                    assert rr.opt.note == "" and rr.opt.certified_gap <= GAP_REL * (1.0 + rr.opt.value)
                    assert Fraction(rr.lo) <= cost / opt <= Fraction(rr.hi), (text, rows, rr.lo, rr.hi)
                    checked += 1
            assert checked >= 10, (text, checked)

    def test_l1_social_cost_ratio_is_exact(self):
        # the coordinate median is the exact L1 social-cost optimum (3.8, so
        # the ratio is 4.4 / 3.8); branch-and-bound used to spend its budget
        # and certify only [1.1529, 1.1629]
        prof = Profile.from_rows([(0.2, 0.1), (1.3, -0.4), (0.7, 0.9), (-0.5, 0.3)])
        rr = approx_ratio(MechanismSpec("rand_center"), prof, Norm(1.0), SC)
        assert rr.opt.certified_gap == 0.0
        assert Fraction(rr.lo) <= Fraction(22, 19) <= Fraction(rr.hi)
        assert rr.hi - rr.lo < 1e-12


def _exact_polyhedral_optimum(objective, p, zs):
    """Closed-form optimum on exact working coordinates zs (p = 1 or inf).

    L1 social cost is a sum of per-coordinate median deviations and Linf max
    cost the largest half-range; in d = 2, (u, v) = (z1 + z2, z1 - z2) maps
    L1 max cost and Linf social cost onto those two.
    """
    def deviation(col):
        med = sorted(col)[(len(col) - 1) // 2]
        return sum(abs(c - med) for c in col)

    def half_range(col):
        return (max(col) - min(col)) / 2

    if (objective is SC) == (p == 1):
        cols = list(zip(*zs))
    else:
        cols = [[a + b for a, b in zs], [a - b for a, b in zs]]
    if objective is SC:
        total = sum(deviation(col) for col in cols)
        return total if p == 1 else total / 2
    return max(half_range(col) for col in cols)


def _polyhedral_lp_rows(objective, p, zs):
    """min c.v s.t. a v <= b over v = (x, t) for Linf social cost or L1 max
    cost of the plain norm at the points zs (any number type): one row
    g.(x - z_i) <= t per report and g in {+-e_k} (Linf) or {-1, 1}^d (L1),
    with one t per report (sc) or one shared t (mc)."""
    d = len(zs[0])
    if p == 1:
        grads = list(itertools.product((1, -1), repeat=d))
    else:
        grads = [tuple(s * int(j == k) for j in range(d)) for k in range(d) for s in (1, -1)]
    terms = len(zs) if objective is SC else 1
    a, b = [], []
    for i, z in enumerate(zs):
        for g in grads:
            a.append(list(g) + [-int(j == (i if objective is SC else 0)) for j in range(terms)])
            b.append(sum(gk * zk for gk, zk in zip(g, z)))
    return a, b, [0] * d + [1] * terms


def _exact_lp_optimum(a, b, c):
    """Exact optimum of min c.v s.t. a v <= b (v free), as a Fraction.

    A two-phase tableau simplex with Bland's rule runs in exact arithmetic
    on the dual min b.mu s.t. a^T mu = -c, mu >= 0; the primal v is read
    from the final basis inverse.  The pair is then checked exactly: v
    feasible, mu feasible and c.v = -b.mu, which by weak duality makes c.v
    the optimum.
    """
    k, m = len(a), len(c)
    sign = [-1 if cj > 0 else 1 for cj in c]  # rows scaled so that rhs = -sign c >= 0
    tab = [
        [Fraction(sign[j] * a[i][j]) for i in range(k)]
        + [Fraction(int(r == j)) for r in range(m)]
        + [Fraction(-sign[j] * c[j])]
        for j in range(m)
    ]
    basis = list(range(k, k + m))

    def pivot(row, col):
        piv = tab[row][col]
        tab[row] = [v / piv for v in tab[row]]
        for r in range(m):
            if r != row and tab[r][col] != 0:
                f = tab[r][col]
                tab[r] = [v - f * w for v, w in zip(tab[r], tab[row])]
        basis[row] = col

    def run(cost):
        while True:
            reduced = [cost[j] - sum(cost[basis[r]] * tab[r][j] for r in range(m)) for j in range(k)]
            entering = next((j for j in range(k) if reduced[j] < 0), None)
            if entering is None:
                return
            ratios = [(tab[r][-1] / tab[r][entering], basis[r], r) for r in range(m) if tab[r][entering] > 0]
            pivot(min(ratios)[2], entering)

    run([0] * k + [1] * m)
    for row in range(m):
        if basis[row] >= k:
            pivot(row, next(j for j in range(k) if tab[row][j] != 0))
    cost = [Fraction(v) for v in b] + [Fraction(0)] * m
    run(cost)
    mu = [Fraction(0)] * k
    for r in range(m):
        mu[basis[r]] = tab[r][-1]
    pi = [sum(cost[basis[r]] * tab[r][k + j] for r in range(m)) for j in range(m)]
    v = [s * x for s, x in zip(sign, pi)]
    assert all(sum(aij * vj for aij, vj in zip(row, v)) <= bi for row, bi in zip(a, b))
    assert all(x >= 0 for x in mu)
    assert all(sum(a[i][j] * mu[i] for i in range(k)) == -c[j] for j in range(m))
    value = sum(cj * vj for cj, vj in zip(c, v))
    assert value == -sum(bi * x for bi, x in zip(b, mu))
    return value


def _scalar_norm(norm, vec):
    """Pure-python reference norm evaluation, no vectorization."""
    if norm.transform is not None:
        rows = norm.transform
        vec = [sum(rows[i][j] * vec[j] for j in range(len(vec))) for i in range(len(rows))]
    weights = norm.weights or tuple(1.0 for _ in vec)
    if norm.p == math.inf:
        return max(w * abs(c) for w, c in zip(weights, vec))
    total = sum(w * abs(c) ** norm.p for w, c in zip(weights, vec))
    return total ** (1.0 / norm.p)


def _scalar_costs(lot, prof, norm):
    mc = 0.0
    sc = 0.0
    for w, atom in lot.atoms:
        dists = [
            _scalar_norm(norm, [a - b for a, b in zip(atom.coords, p.coords)])
            for p in prof.points
        ]
        mc += w * max(dists)
        sc += w * sum(dists)
    return mc, sc


@given(prof=profile_strategy(2, min_n=2, max_n=5), lot=lottery_strategy(2))
@settings(max_examples=120)
def test_costs_match_scalar_reference(prof, lot):
    norms = STANDARD_NORMS + [
        Norm(2.0, weights=(0.5, 3.0)),
        Norm(1.5, transform=((1.0, 0.5), (-0.25, 1.0))),
        Norm(math.inf, weights=(2.0, 1.0)),
    ]
    for norm in norms:
        ref_mc, ref_sc = _scalar_costs(lot, prof, norm)
        assert cost_mc(lot, prof, norm) == pytest.approx(ref_mc, rel=1e-12, abs=1e-12)
        assert cost_sc(lot, prof, norm) == pytest.approx(ref_sc, rel=1e-12, abs=1e-12)


@given(prof=profile_strategy(2, min_n=3, max_n=5))
@settings(max_examples=25, deadline=None)
def test_euclidean_social_cost_agrees_with_grid_oracle(prof):
    res = opt_social_cost(prof, N2)
    fn = lambda p: brute_social_cost(prof, N2, p)
    lo, hi = prof.as_array.min(axis=0), prof.as_array.max(axis=0)
    brute_val, _ = brute_force_minimize(fn, lo - 0.01, hi + 0.01, steps=81)
    # brute grid value is itself off by at most n * grid step (sc is
    # n-Lipschitz); the grid spans the box padded by 0.01 on each side
    slack = prof.n * (float(max(hi - lo)) + 0.02) / 80.0
    assert res.value <= brute_val + 1e-9
    assert brute_val <= res.value + res.certified_gap + slack + 1e-9


def test_weiszfeld_iterate_landing_on_a_report():
    # Weiszfeld from the mean lands on the report (0, 0), and no report is
    # optimal: the route must certify a point off the reports.
    prof = Profile.from_rows([(0, 0), (-1, 1), (-1, -1), (-1, 0.5), (3, -0.5)])
    res = opt_social_cost(prof, N2)
    assert res.point not in prof.points
    assert res.certified_gap <= GAP_REL * (1.0 + res.value)
    xs = prof.as_array
    y = np.array([-0.3, 0.1])
    for _ in range(5000):  # plain Weiszfeld: the optimum is no report
        w = 1.0 / np.linalg.norm(xs - y, axis=1)
        y = (xs * w[:, None]).sum(axis=0) / w.sum()
    optimum = float(np.linalg.norm(xs - y, axis=1).sum())
    assert res.value - res.certified_gap <= optimum + 1e-12
    assert optimum <= res.value + 1e-12


def test_sc_newton_leaves_a_double_coordinate_tie():
    # the coordinate-wise median ties a report on both axes, where the summed
    # Hessian is singular and the Newton step is about 1e10 wide: none of its
    # halvings improves, but the same step scaled to the working box does
    from facilab import objectives

    prof = Profile.from_rows(
        [[-0.10170514771972461, 8.788593914022922], [0.6138405110428198, 3.3203957396495163],
         [-15.706301759011325, 4.7416434003378]]
    )
    norm = Norm(3.0)
    zs, residual, _, _ = objectives._working_space(prof, norm)
    fn = objectives._objective_fn(SC, zs, residual)
    seed = np.median(zs, axis=0)
    assert (zs == seed).any(axis=0).all()
    value = float(fn(seed[None])[0])
    y, moved, _ = objectives._sc_newton(fn, zs, residual, seed, value, 60_000)
    assert moved < value and not np.array_equal(y, seed)
    # so the first settle certifies, before one 14 x 14 tiling of the box
    res = opt_social_cost(prof, norm)
    assert res.value == 20.059734412789993 and res.evaluations < 14 * 14
    assert res.certified_gap <= GAP_REL * (1.0 + res.value)


GRID_PROFILE = Profile.from_rows([(0, 0), (2, 0.5), (0.7, 1.9), (1.6, -0.8)])


@pytest.mark.parametrize("objective", [MC, SC], ids=["mc", "sc"])
@pytest.mark.parametrize(
    "text",
    [
        "lp:1;w=1,3",
        "lp:3;w=1,2",
        "lp:inf;w=2,1",
        "lp:1.5;A=1,0.5,0,1",
        "lp:3;w=1,2;A=1,0.5,0,1",
    ],
)
def test_weighted_transformed_optima_against_dense_grid(text, objective):
    norm = parse_norm(text)
    prof = GRID_PROFILE
    xs = prof.as_array
    lo, hi = prof.as_array.min(axis=0), prof.as_array.max(axis=0)
    pad = float(max(hi - lo)) / 2.0  # covers optima outside the box under a transform
    steps = 301
    h = (float(max(hi - lo)) + 2.0 * pad) / (steps - 1)
    axes = [np.linspace(lo[k] - pad, hi[k] + pad, steps) for k in range(2)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    dists = norm.eval_many((grid[:, None, :] - xs[None, :, :]).reshape(-1, 2))
    dists = dists.reshape(grid.shape[0], prof.n)
    grid_min = float((dists.max(axis=1) if objective is MC else dists.sum(axis=1)).min())
    res = (opt_max_cost if objective is MC else opt_social_cost)(prof, norm)
    # sound: the grid minimum is feasible, so it never beats the optimum
    assert res.value - res.certified_gap <= grid_min + 1e-9
    assert res.value <= grid_min + res.certified_gap + prof.n * h


SCALE_PROFILE = ((0.2, 0.1), (1.3, -0.4), (0.7, 0.9), (-0.5, 0.3))
SCALE_PROFILE_3D = (
    (-1.7, -0.1, 0.3), (-0.8, -0.7, -0.2), (0.7, -0.5, 1.8),
    (0.3, -0.1, 1.4), (0.6, 0.4, -0.3), (1.8, 0.8, -0.2),
)


@pytest.mark.parametrize("objective", [MC, SC], ids=["mc", "sc"])
@pytest.mark.parametrize(
    "text, rows",
    [pytest.param(t, SCALE_PROFILE, id=t) for t in ("lp:1", "lp:2", "lp:3", "lp:inf")]
    + [pytest.param(t, SCALE_PROFILE_3D, id=t + "-3d") for t in ("lp:1", "lp:inf")],
)
def test_ratio_interval_does_not_depend_on_scale(text, rows, objective):
    # ratios are scale-invariant, and so must be the certified intervals and
    # their tightness; at 1e-300 the absolute part of the gap target used to
    # pass loose gaps as met, at 1e200 Weiszfeld overflowed to a ratio of 0
    # with interval [0, inf], and in 3-D branch-and-bound stopped Linf social
    # cost and L1 max cost at incumbents that moved with the scale
    norm = parse_norm(text)
    spec = MechanismSpec("rand_center")
    unit = approx_ratio(spec, Profile.from_rows(rows), norm, objective).ratio
    for factor in (1e-300, 1e200):
        scaled = Profile.from_rows(np.array(rows) * factor)
        rr = approx_ratio(spec, scaled, norm, objective)
        assert rr.lo <= unit <= rr.hi, (factor, rr.lo, rr.ratio, rr.hi)
        assert rr.hi - rr.lo <= 1e-5 * unit, (factor, rr.lo, rr.ratio, rr.hi)


@pytest.mark.parametrize("text", ["lp:3;w=1,2", "lp:2;w=1,2", "lp:1.5;A=1,0.5,0,1"])
def test_pinned_norm_dimension_checked(text):
    prof = Profile.from_rows([(0, 0, 0), (1, 0, 2), (0, 1, 1)])
    for opt in (opt_max_cost, opt_social_cost):
        with pytest.raises(DimensionMismatch):
            opt(prof, parse_norm(text))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_huge_exponent_matches_linf(seed):
    # p = 1e300 is L-infinity to double precision; the optimizers used to
    # overflow in the term gradients there
    prof = Profile.from_rows(np.random.default_rng(seed).normal(size=(4, 2)))
    huge, linf = Norm(1e300), Norm(math.inf)
    diffs = prof.as_array[:, None, :] - prof.as_array[None, :, :]
    assert np.array_equal(huge.eval_many(diffs.reshape(-1, 2)), linf.eval_many(diffs.reshape(-1, 2)))
    for opt in (opt_max_cost, opt_social_cost):
        a, b = opt(prof, huge), opt(prof, linf)
        assert math.isfinite(a.value) and math.isfinite(a.certified_gap)
        assert abs(a.value - b.value) <= a.certified_gap + b.certified_gap + 1e-12


def test_gradient_certificate_sound_at_coordinate_tie():
    # at y = 0 the first term ties in both coordinates, which ||u||_p cannot
    # resolve at these p; counted as two unit gradients, the tie would
    # certify sc >= 3, above the optimum 2.5
    prof = Profile.from_rows([(-1, -1), (1, 0), (0, 1)])
    zs = prof.as_array
    for p in (1e15, 1e300):
        lower = _bundle_lower_bound(SC, zs, Norm(p), np.zeros(2), 3.0, -math.inf, 1.0)
        assert lower <= opt_social_cost(prof, Norm(p)).value


@pytest.mark.parametrize(
    "p, rows",
    [
        (1.5, [(-1, -2), (2, -4), (3, -2), (4, -2), (1, -3), (3, -2)]),
        (3.0, [(0, -3), (-1, -1), (-4, 2), (-2, 2)]),
        (3.0, [(4, -3), (-1, 3), (4, -3), (-1, 0)]),
    ],
)
def test_data_point_certificate_against_grid(p, rows):
    # the social-cost optimum is a report, where the gradient certificate
    # does not apply; branch-and-bound alone missed the target on all three
    prof = Profile.from_rows(rows)
    norm = Norm(p)
    res = opt_social_cost(prof, norm)
    assert res.certified_gap <= GAP_REL * (1.0 + res.value)
    lo, hi = prof.as_array.min(axis=0), prof.as_array.max(axis=0)
    grid_min, _ = brute_force_minimize(lambda x: brute_social_cost(prof, norm, x), lo, hi)
    assert res.value - res.certified_gap <= grid_min + 1e-9


def _highs_optimum(objective, xs, norm):
    """Optimum of Linf social cost or L1 max cost from scipy's HiGHS, in
    report coordinates: the rows of :func:`_polyhedral_lp_rows` applied to
    M (x - x_i), with M the transform scaled by the weights."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    n, d = xs.shape
    mat = np.eye(d) if norm.transform is None else np.asarray(norm.transform, dtype=float)
    if norm.weights is not None:
        mat = np.asarray(norm.weights, dtype=float)[:, None] * mat
    a, b, c = _polyhedral_lp_rows(objective, norm.p, list(xs @ mat.T))
    a = np.asarray(a, dtype=float)
    a[:, :d] = a[:, :d] @ mat
    res = linprog(
        c, A_ub=a, b_ub=np.asarray(b, dtype=float), bounds=[(None, None)] * len(c), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


def _degenerate_profile(kind, n, d, rng):
    if kind == "integer":  # ties and duplicates on a small grid
        return rng.integers(-2, 3, size=(n, d)).astype(float)
    if kind == "duplicates":
        rows = rng.normal(size=(max(2, n // 2), d))
        return rows[rng.integers(0, len(rows), size=n)]
    if kind == "coplanar":
        return rng.normal(size=d) + rng.normal(size=(n, 2)) @ rng.normal(size=(2, d))
    if kind == "rank1":
        return rng.normal(size=d) + rng.normal(size=(n, 1)) * rng.normal(size=(1, d))
    xs = rng.normal(size=(n, d)) * 2.0
    if kind == "flat-axis":
        xs[:, int(rng.integers(0, d))] = 0.7
    return xs


@pytest.mark.parametrize("seed", range(4))
def test_lp_route_robust_against_highs(seed):
    # degenerate reports under plain, weighted and transformed polyhedral
    # norms in d = 3..4: the LP's certificate stays sound against HiGHS, meets
    # its target, and its social-cost interval overlaps branch-and-bound's
    pytest.importorskip("scipy")
    rng = np.random.default_rng(seed)
    kinds = ("generic", "integer", "duplicates", "coplanar", "rank1", "flat-axis")
    for i, kind in enumerate(kinds * 2):
        d = 3 + i % 2
        xs = _degenerate_profile(kind, int(rng.integers(3, 8)), d, rng)
        weights = tuple(rng.uniform(0.5, 3.0, size=d)) if i % 3 else None
        transform = None
        if i % 3 == 2:
            transform = tuple(map(tuple, np.eye(d) + rng.uniform(-0.6, 0.6, size=(d, d))))
        prof = Profile.from_rows(xs)
        for objective, p in ((SC, math.inf), (MC, 1.0)):
            norm = Norm(p, weights=weights, transform=transform)
            res = (opt_max_cost if objective is MC else opt_social_cost)(prof, norm)
            if res.method.startswith("exact"):  # unanimous, or two locations for mc
                continue
            assert res.method == "lp", (kind, res)
            opt = _highs_optimum(objective, xs, norm)
            tol = 1e-9 * (1.0 + abs(opt))
            assert res.value - res.certified_gap <= opt + tol, (kind, objective, res, opt)
            assert res.value >= opt - tol, (kind, objective, res, opt)
            assert res.note == "" and res.certified_gap <= GAP_REL * (1.0 + res.value), (kind, res)
            if objective is SC:
                grid = opt_social_cost(prof, norm, budget=4000, method="grid")
                assert max(res.value - res.certified_gap, grid.value - grid.certified_gap) <= min(
                    res.value, grid.value
                ) + tol, (kind, res, grid)


@pytest.mark.parametrize("cap", [0, 2, 6])
def test_lp_certificate_sound_when_pivots_run_out(monkeypatch, cap):
    # the dual bound holds for the multipliers of any basis, so a simplex
    # stopped early (phase 1 included) still returns a sound gap and says
    # that it missed its target
    from facilab import objectives

    pytest.importorskip("scipy")
    monkeypatch.setattr(objectives, "LP_PIVOT_CAP", cap)
    rng = np.random.default_rng(cap)
    for i in range(6):
        d = 3 + i % 2
        xs = rng.normal(size=(int(rng.integers(4, 8)), d))
        for objective, p in ((SC, math.inf), (MC, 1.0)):
            norm = Norm(p, weights=tuple(rng.uniform(0.5, 3.0, size=d)))
            res = (opt_max_cost if objective is MC else opt_social_cost)(Profile.from_rows(xs), norm)
            opt = _highs_optimum(objective, xs, norm)
            assert res.method == "lp"
            assert res.value - res.certified_gap <= opt + 1e-9 * (1.0 + opt), (cap, res, opt)
            met = res.certified_gap <= GAP_REL * (1.0 + res.value)
            assert res.note == ("" if met else "gap target missed"), (cap, res)


@pytest.mark.parametrize("seed", range(3))
def test_dual_bound_sound_for_any_multipliers(seed):
    # the bound must hold for multipliers of any basis, not only an optimal
    # one: the subgradient of the objective at a point y off the optimum
    # gives a minorant equal to f(y) there, which only the residual charge
    # brings below the optimum; noise on top must not break it either
    from facilab import objectives

    pytest.importorskip("scipy")
    rng = np.random.default_rng(seed)
    for i in range(8):
        d = 3 + i % 2
        zs = rng.normal(size=(int(rng.integers(3, 7)), d))
        lo, hi = zs.min(axis=0), zs.max(axis=0)
        for objective, p in ((SC, math.inf), (MC, 1.0)):
            rows = objectives._lp_rows(objective, zs)
            grads, owner, group = rows
            opt = _highs_optimum(objective, zs, Norm(p))
            for _ in range(5):
                y = lo + rng.uniform(size=d) * (hi - lo)
                scores = (grads * (y - zs[owner])).sum(axis=1)
                if objective is MC:
                    scores = np.where(owner == np.argmax(Norm(p).eval_many(y - zs)), scores, -np.inf)
                mu = np.zeros(len(grads))
                for g in np.unique(group):
                    members = np.flatnonzero(group == g)
                    mu[members[np.argmax(scores[members])]] = 1.0
                for noise in (0.0, 0.3):
                    noisy = mu + noise * rng.uniform(-1.0, 1.0, size=mu.size)
                    lower = objectives._dual_bound(rows, zs, Norm(p), y, noisy)
                    assert lower <= opt + 1e-9 * (1.0 + opt), (objective, y, lower, opt)


# -- the max-cost polish and active-set bound against their plain loops -------


def _reference_polish(fn, zs, residual, y, value, lo, hi):
    """The steepest polish as written before rounds with a zero min-norm
    point were counted without being redone: the oracle for the skip."""
    from facilab import objectives

    evals = 0
    tau = 1e-2 * (1.0 + value)
    for _ in range(200):
        if tau < 1e-11 * (1.0 + value):
            break
        dists = residual.eval_many(y[None, :] - zs)
        evals += 1
        value = float(dists.max())
        active = dists >= value - tau
        if float(dists[active].min()) < 1e-12:
            break
        grads = objectives._term_gradients(y - zs[active], residual.p, dists[active])
        combo = objectives._min_norm_point(grads)[0]
        gnorm = float(np.linalg.norm(combo))
        if gnorm < 1e-14:
            tau /= 4.0
            continue
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


def _reference_mc_lower_bound(zs, residual, y, value):
    """The active-set bound with one min-norm point per eps level."""
    from facilab import objectives

    dists = residual.eval_many(y[None, :] - zs)
    reach = float(objectives._reach(residual, y[None, :], zs)[0])
    best = -math.inf
    for eps_rel in (1e-12, 1e-9, 1e-7, 1e-5):
        eps = eps_rel * (1.0 + value)
        active = dists >= value - eps
        if not active.any() or float(dists[active].min()) < 1e-12:
            continue
        grads = objectives._term_gradients(y - zs[active], residual.p, dists[active])
        combo = objectives._min_norm_point(grads)[0]
        best = max(best, value - eps - float(objectives._dual_norm(residual.p, combo)) * reach)
    return best


@pytest.mark.parametrize("d", [2, 3])
def test_mc_polish_and_bound_match_plain_loops(d, monkeypatch):
    # polishing again from a polished point sits at a kink whose min-norm
    # point is zero, which is where the polish counts rounds without
    # redoing them; the results, evaluations included, must not change
    from facilab import objectives

    calls = {"new": 0, "old": 0}
    side = ["old"]
    min_norm_point = objectives._min_norm_point

    def counted(grads):
        calls[side[0]] += 1
        return min_norm_point(grads)

    monkeypatch.setattr(objectives, "_min_norm_point", counted)
    for p in (1.5, 2.0, 3.0, 8.0):
        rng = np.random.default_rng([d, int(p * 10)])
        residual = Norm(p)
        for _ in range(8):
            zs = rng.normal(size=(int(rng.integers(3, 7)), d))
            lo, hi = zs.min(axis=0), zs.max(axis=0)
            fn = objectives._objective_fn(MC, zs, residual)
            mean = zs.mean(axis=0)
            side[0] = "old"
            kink = _reference_polish(fn, zs, residual, mean, float(fn(mean[None])[0]), lo, hi)[0]
            for y in (mean, kink):
                value = float(fn(y[None])[0])
                side[0] = "old"
                want = _reference_polish(fn, zs, residual, y, value, lo, hi)
                bound = _reference_mc_lower_bound(zs, residual, *want[:2])
                side[0] = "new"
                got = objectives._mc_steepest_polish(fn, zs, residual, y, value, lo, hi)
                assert (got[0].tobytes(), got[1], got[2]) == (want[0].tobytes(), want[1], want[2]), (p, zs, y)
                # the bundle's exact errors never do worse than eps per level
                assert _bundle_lower_bound(MC, zs, residual, *got[:2], -math.inf, 1.0) >= bound
    assert calls["new"] < calls["old"] - 8 * 4  # the skipped rounds and the shared eps levels


@pytest.mark.parametrize("n", range(1, 8))
def test_seed_points_match_numpy_median_bit_for_bit(n):
    # ties, signed zeros and exponents across +-30 decades, as (n, d)
    # reports and as an (m, n, d) stack
    from facilab import objectives

    rng = np.random.default_rng(n)
    zs = rng.standard_normal((400, n, 3)) * 10.0 ** rng.integers(-30, 31, (400, n, 3))
    tie = rng.random(zs.shape) < 0.4
    zs[tie] = rng.choice([-0.0, 0.0, 1.0, -1.0, 2.5], tie.sum())
    i, j = np.triu_indices(n, 1)
    for reports in (zs, zs[5]):
        centers = [reports.mean(axis=-2, keepdims=True), np.median(reports, axis=-2, keepdims=True)]
        want = np.concatenate([reports, *centers, (reports[..., i, :] + reports[..., j, :]) / 2.0], axis=-2)
        assert objectives._seed_points(reports).tobytes() == want.tobytes()


BALL_NORMS = {
    2: ("lp:2", "lp:2;w=1,3", "lp:2;A=1.1,0.3,-0.2,0.9"),
    3: ("lp:2", "lp:2;w=1,3,0.5", "lp:2;A=1.1,0.3,-0.2,0.1,0.9,0.4,0,-0.3,1.2"),
}
# the other smooth exponents, each case under one of the plain, weighted and
# transformed variants in turn
SMOOTH_P = (1.2, 1.5, 3.0, 8.0)


def _ball_cases():
    """(d, rows, scale, norm text) parameters for the ball route's parity and soundness test."""
    rng = np.random.default_rng(2024)
    hexagon = [(math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)) for k in range(6)]
    heptagon = [(math.cos(k * math.pi / 3.5), math.sin(k * math.pi / 3.5)) for k in range(7)]
    tetra = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1), (0, 0, 0)]
    cases = []
    for d in (2, 3):
        for i in range(4):
            cases.append((f"random{i}-{d}d", d, rng.normal(size=(int(rng.integers(3, 7)), d)) * 2.0, 1.0))
        rows = rng.normal(size=(3, d))
        cases.append((f"duplicates-{d}d", d, rows[[0, 1, 1, 2, 0, 2]], 1.0))
        cases.append((f"collinear-{d}d", d, np.outer([-1.5, 0.25, 2.0, 0.5], rng.normal(size=d)) + rows[0], 1.0))
        twin = rng.normal(size=(5, d))
        cases += [(f"twin{s:g}-{d}d", d, twin, s) for s in (1.0, 1e-300, 1e200)]
    plane = rng.normal(size=(5, 2))
    cases.append(("coplanar-3d", 3, np.c_[plane, 0.5 * plane[:, 0] - 0.25 * plane[:, 1] + 0.3], 1.0))
    cases.append(("hexagon-2d", 2, np.array(hexagon), 1.0))
    cases.append(("heptagon-2d", 2, np.array(heptagon), 1.0))
    cases.append(("tetrahedron-center-3d", 3, np.array(tetra, dtype=float), 1.0))
    cases.append(("n200-3d", 3, rng.normal(size=(200, 3)), 1.0))
    params = [pytest.param(d, rows, scale, text, id=f"{name}-{text}") for name, d, rows, scale in cases for text in BALL_NORMS[d]]
    for j, p in enumerate(SMOOTH_P):
        for i, (name, d, rows, scale) in enumerate(cases[:-1]):  # n200 only at p = 2
            text = BALL_NORMS[d][(i + j) % 3].replace("lp:2", f"lp:{p:g}")
            params.append(pytest.param(d, rows, scale, text, id=f"{name}-{text}"))
    return params


def _grid_oracle_mc(profile, norm, steps):
    """Smallest max cost over a dense grid on the box padded by half its span."""
    xs = profile.as_array
    lo, hi = xs.min(axis=0), xs.max(axis=0)
    pad = (hi - lo).max() / 2.0
    axes = [np.linspace(lo[k] - pad, hi[k] + pad, steps) for k in range(profile.d)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, profile.d)
    best = math.inf
    for chunk in np.array_split(grid, max(1, grid.shape[0] * profile.n // 200_000)):
        dists = norm.eval_many((chunk[:, None, :] - xs[None, :, :]).reshape(-1, profile.d))
        best = min(best, float(dists.reshape(len(chunk), profile.n).max(axis=1).min()))
    return best


@pytest.mark.parametrize("d, rows, scale, text", _ball_cases())
def test_ball_route_inside_branch_and_bound_interval(d, rows, scale, text):
    # the support-set center against the branch-and-bound, the route every
    # smooth p took before and the fallback now: inside its certified
    # interval, certified to a few ulps, and never above a feasible grid
    # value once the gap is taken off
    from facilab import objectives

    norm = parse_norm(text)
    prof = Profile.from_rows(rows * scale)
    res = opt_max_cost(prof, norm)
    assert res.method == "ball"
    ulps = 1e-12 * res.value
    bb = objectives._optimum(MC, prof, norm, objectives.DEFAULT_BUDGET, "grid")
    assert bb.method == "grid"
    assert bb.value - bb.certified_gap - ulps <= res.value <= bb.value + ulps, (res, bb)
    assert res.certified_gap <= 1e-13 * (scale + res.value), res
    assert res.value - res.certified_gap <= _grid_oracle_mc(prof, norm, {2: 201, 3: 31}[d]) + ulps


@pytest.mark.parametrize("n, d", [(30, 2), (12, 3), (25, 3)])
def test_ball_working_set_matches_full_enumeration(n, d):
    # past BALL_ONE_PASS support sets the ball grows a working set; its
    # center must be the one enumerating every set of every report finds
    from facilab import objectives

    rng = np.random.default_rng([n, d])
    for i in range(5):
        zs = rng.normal(size=(n, d))
        if i == 0:
            zs[: d + 2] = zs[0]  # the leading reports are one location
        assert sum(math.comb(n, k) for k in range(2, d + 2)) > objectives.BALL_ONE_PASS
        *_, (center, support, lam, _) = objectives._min_enclosing_ball(zs, 2.0)
        *_, (full, _, _, _) = objectives._ball_of(zs, 2.0)
        radius = lambda c: float(np.linalg.norm(zs - c, axis=1).max())
        assert abs(radius(center) - radius(full)) <= 1e-15 * 4, (zs, center, full)
        assert np.abs(center - full).max() <= 1e-7
        assert support.shape[0] == lam.size <= d + 1 and lam.min() >= -objectives.BALL_TOL


def test_ball_equilateral_circumradius_exact():
    prof = Profile.from_rows([(0, 0), (2, 0), (1, math.sqrt(3))])
    res = opt_max_cost(prof, N2)
    assert res.method == "ball"
    assert abs(res.value - 2.0 / math.sqrt(3.0)) <= 1e-15
    assert res.certified_gap <= 1e-15


@pytest.mark.xfail(
    strict=True, reason="_optimum's half-diameter floor charges no rounding slack: it equals the value, and max(floor, bound) gives gap 0"
)
def test_ball_zero_gap_sound_to_the_ulp():
    # the oracle set's cube profile: the ball route certifies its value with
    # gap 0, yet a feasible point one rounding away costs one ulp less
    cube = Profile.from_rows([(0, 0, 0), (2, 0.5, -1), (0.5, 1.5, 0.25), (-1, 0.75, 1.5), (0.25, -1.25, 0.5)])
    res = opt_max_cost(cube, N2)
    feasible = cost_mc(Lottery.degenerate(point(0.4999999999999999, 0.625, 0.25)), cube, N2)
    assert res.value - res.certified_gap <= feasible


@pytest.mark.parametrize("d", [2, 3])
def test_ball_bound_sound_off_the_center(d):
    # the certificate holds for any point and any weights, so a rough solve
    # can loosen it but never make it overshoot the optimum; a step off the
    # support's affine hull moves away from every support report, so there
    # only the gradient term keeps the bound below the optimum
    from facilab import objectives

    rng = np.random.default_rng(d)
    for _ in range(30):
        zs = rng.normal(size=(int(rng.integers(3, 7)), d))
        *_, (center, support, lam, _) = objectives._min_enclosing_ball(zs, 2.0)
        opt = float(np.linalg.norm(zs - center, axis=1).max())
        steps = [rng.normal(size=d)]
        if len(support) <= d:
            steps.append(np.linalg.svd(support[1:] - support[0])[2][-1])
        noisy = lam + rng.uniform(-0.5, 0.5, size=lam.size)
        noisy[np.argmax(lam)] += 0.5  # keeps a positive weight
        for step, shift in itertools.product(steps, (1e-9, 1e-4, 1e-1, 3.0)):
            y = center + shift * step / np.linalg.norm(step)
            weights = [lam, noisy]
            if len(support) == d + 1:
                # signed weights that cancel the gradients at y exactly
                units = (y - support) / np.linalg.norm(y - support, axis=1)[:, None]
                weights.append(np.linalg.solve(np.vstack([units.T, np.ones(d + 1)]), np.eye(d + 1)[-1]))
            for w in weights:
                lower = objectives._ball_lower_bound(zs, N2, y, support, w)
                assert lower <= opt + 1e-15 * (1.0 + opt), (zs, y, w, lower, opt)


@pytest.mark.parametrize("p", SMOOTH_P)
@pytest.mark.parametrize("d", [2, 3])
def test_support_bound_sound_off_the_center(p, d):
    # the certificate holds at any point for any weights, under every smooth
    # p as under p = 2: off the center, with noisy weights and with signed
    # weights that cancel the gradients exactly, it stays below the optimum
    from facilab import objectives

    residual = Norm(p)
    rng = np.random.default_rng([d, int(p * 10)])
    for _ in range(20):
        zs = rng.normal(size=(int(rng.integers(3, 7)), d))
        *_, (center, support, lam, _) = objectives._min_enclosing_ball(zs, p)
        # the optimum to within its certified gap (the ball route or its fallback)
        res = opt_max_cost(Profile.from_rows(zs), residual)
        opt = res.value
        assert res.certified_gap <= 1e-9 * (1.0 + opt), res
        noisy = lam + rng.uniform(-0.5, 0.5, size=lam.size)
        noisy[np.argmax(lam)] += 0.5  # keeps a positive weight
        for shift in (1e-9, 1e-4, 1e-1, 3.0):
            step = rng.normal(size=d)
            y = center + shift * step / np.linalg.norm(step)
            weights = [lam, noisy]
            if len(support) == d + 1:
                dists = residual.eval_many(y - support)
                grads = objectives._term_gradients(y - support, p, dists)
                weights.append(np.linalg.solve(np.vstack([grads.T, np.ones(d + 1)]), np.eye(d + 1)[-1]))
            for w in weights:
                lower = objectives._ball_lower_bound(zs, residual, y, support, w)
                assert lower <= opt + 1e-12 * (1.0 + opt), (zs, y, w, lower, opt)


# cert_fuzz profiles (d = 3) whose support sets miss the gap target: the
# p = 1.2 optimum ties a report's first coordinate, where the norm has no
# second derivative and Newton stalls; the bundle bound closes it there
FALLBACKS = {
    "p1.2": (
        [[-2.292448132061992, 1.782985597069095, -1.6487674420312248], [-2.333474514371022, -1.867472490429604, -1.6169413300586728],
         [0.30848700763126424, 1.5395362056021207, -3.980962089970294], [-1.0362999923716743, 1.6866221449146686, 0.3701534995072214]],
        Norm(1.2, weights=(2.341020106206493, 2.21695250629061, 2.542087169641142)),
    ),
    "p8": (
        [[-0.21005782467497147, -0.5325632700682696, -1.7233011427897773], [0.887526269159319, -0.48302978882529596, -1.8366368330155969],
         [-1.1644120293583033, -1.816420901833752, 2.433860594925535], [-0.3799784793133727, 0.15782383156960614, -1.8543259098113225],
         [-1.5820625832601827, 1.5932648626799408, -0.3643784554973061]],
        Norm(8.0, weights=(1.0757778323220086, 2.6560554685953317, 2.5241036199797438)),
    ),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_ball_route_falls_back_to_branch_and_bound(case):
    rows, norm = FALLBACKS[case]
    prof = Profile.from_rows(rows)
    res = opt_max_cost(prof, norm)
    assert res.method == "grid", res
    assert (res.note == "") == (res.certified_gap <= GAP_REL * (1.0 + res.value)), res
    assert res.value - res.certified_gap <= _grid_oracle_mc(prof, norm, 41) + 1e-12 * res.value


# cert_fuzz.py --d 3 --seed 0 profiles 19 and 30 at p = 1.2, whose social
# cost optimum ties a report's coordinate: one gradient misses the target
# there and tiling runs out of budget, where the bundle closes it at once
TILINGS = {
    "weighted": (
        [[-1.289612448724284, -2.083538844788671, -1.313290802599652], [2.1182028793695786, 0.7396381312197446, 1.1602856264766044],
         [2.7279024024447853, -2.33148353531082, 1.008067230590594]],
        Norm(1.2, weights=(2.155318974895602, 1.6364878273011478, 0.7744513423777675)),
    ),
    "plain": (
        [[-0.02349769511685959, 0.12403493775216681, 1.089826950647537], [-0.3426774620167504, 1.197972207012678, -1.016101616680608],
         [-0.594588060276362, -1.1378928166051652, -0.5383694689171589]],
        Norm(1.2),
    ),
}

# (value.hex(), certified_gap.hex(), evaluations, note, point) of the routes
# no canonical report reaches: the max-cost fallback and the social-cost
# ties, each certified at its first settle, frozen so a refactor of either
# keeps their bits
PINNED_ROUTES = {
    ("mc", "p1.2"): ("0x1.cedf75adaa51dp+2", "0x1.88eabe6e81877p-35", 1388, "",
                     [-1.0362999922040603, 0.47720014641132585, -2.218167776303509]),
    ("mc", "p8"): ("0x1.3470ff378e30bp+1", "0x1.3c3d3c92d6ac6p-35", 644, "",
                   [-0.8065258398895647, -0.5393978210820548, 0.29198261796668307]),
    ("sc", "weighted"): ("0x1.abc6ad9f83fa9p+3", "0x1.9834aea43f62cp-33", 365, "",
                         [2.118202879365346, -2.0803932573436636, 1.005922192292531]),
    ("sc", "plain"): ("0x1.288ad2c136e34p+2", "0x1.a60de02f4b6fbp-27", 386, "",
                      [-0.34267746201685634, 0.12403489482596411, -0.5381570133826985]),
}


@pytest.mark.parametrize("objective, case", sorted(PINNED_ROUTES), ids="-".join)
def test_grid_routes_pinned(objective, case):
    rows, norm = (FALLBACKS if objective == "mc" else TILINGS)[case]
    opt = opt_max_cost if objective == "mc" else opt_social_cost
    res = opt(Profile.from_rows(rows), norm)
    assert res.method == "grid", res
    got = (res.value.hex(), res.certified_gap.hex(), res.evaluations, res.note, res.point.as_array().tolist())
    assert got == PINNED_ROUTES[objective, case]



# -- the bundle bound against the one-gradient bound and sampled values -------


def _reference_sc_gradient_bound(zs, residual, y, value):
    """The one-gradient social-cost bound as written before the bundle, -inf
    at a report: the oracle for the bundle's bits where it closes."""
    from facilab import objectives

    dists = residual.eval_many(y[None, :] - zs)
    if float(dists.min()) < 1e-12:
        return -math.inf
    grad = objectives._term_gradients(y - zs, residual.p, dists).sum(axis=0)
    return value - float(objectives._dual_norm(residual.p, grad) * objectives._reach(residual, y[None, :], zs)[0])


def _recorded_bounds(monkeypatch, runs):
    """Every (arguments, result) of the bundle bound while the optimizers
    certify the (objective, rows, norm) cases ``runs``."""
    from facilab import objectives

    calls = []
    bundle = objectives._bundle_lower_bound

    def recorder(*args):
        calls.append((args, bundle(*args)))
        return calls[-1][1]

    monkeypatch.setattr(objectives, "_bundle_lower_bound", recorder)
    for objective, rows, norm in runs:
        opt_cost(objective, Profile.from_rows(rows), norm)
    return calls


def _tie_runs(seed, count):
    """Profiles of an odd number of reports at p = 1.1, plain and weighted,
    for both objectives: near L1, most social-cost optima tie a report's
    coordinate as the coordinate-wise median does."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = 2 + i % 2
        rows = rng.normal(size=(int(rng.choice([3, 5])), d))
        norm = Norm(1.1, weights=tuple(rng.uniform(0.5, 3.0, size=d)) if i % 3 else None)
        yield from ((SC, rows, norm), (MC, rows, norm))


def test_bundle_keeps_the_one_gradient_bits_where_that_closes(monkeypatch):
    # a bundle of one point is the one-gradient bound: wherever that bound
    # meets the target, the bundle returns it bit for bit and grows nothing
    from facilab import objectives

    rng = np.random.default_rng(21)
    runs = []
    for p, d, weighted, _ in itertools.product((1.2, 1.5, 3.0, 8.0), (2, 3), (False, True), range(3)):
        rows = rng.normal(size=(int(rng.integers(3, 7)), d))
        runs.append((SC, rows, Norm(p, weights=tuple(rng.uniform(0.5, 3.0, size=d)) if weighted else None)))
    closed = 0
    for (objective, zs, residual, y, value, floor, unit), got in _recorded_bounds(monkeypatch, runs):
        want = max(floor, _reference_sc_gradient_bound(zs, residual, y, value))
        if objectives._meets_target(value - want, value, unit):
            closed += 1
            assert float(got).hex() == float(want).hex(), (zs, y)
    assert closed >= len(runs)


def test_bundle_bound_sound_around_ties(monkeypatch):
    # sampled values in boxes of 1e-2 down to 1e-8 around each certified
    # point never fall below its bound, on the pinned ties and on random
    # ones; the bundle grows past y on the ties, where one gradient misses
    from facilab import objectives

    runs = [(MC, *FALLBACKS[case]) for case in sorted(FALLBACKS)]
    runs += [(SC, *TILINGS[case]) for case in sorted(TILINGS)] + list(_tie_runs(3, 24))
    rng = np.random.default_rng(7)
    grown = 0
    for (objective, zs, residual, y, value, floor, unit), lower in _recorded_bounds(monkeypatch, runs):
        if (np.abs(y - zs).min(axis=0) > objectives.BUNDLE_TIE).all():
            continue
        if objective is SC:
            grown += lower > max(floor, _reference_sc_gradient_bound(zs, residual, y, value))
        fn = objectives._objective_fn(objective, zs, residual)
        for half in 10.0 ** -np.arange(2.0, 9.0):
            samples = y + half * rng.uniform(-1.0, 1.0, size=(400, y.size))
            assert float(fn(samples).min()) >= lower, (objective, zs, y, half)
    assert grown >= len(TILINGS) + 12
# the route each objective takes per exponent, at d = 2 and d = 3 (d = 1 is
# always "exact"); weighted L2 takes the plain L2 route.  Max cost under a
# smooth p takes the ball route unless its support sets miss the gap target
ROUTES = {
    (SC, 1.0): ("exact", "exact"),
    (SC, 1.5): ("grid", "grid"),
    (SC, 2.0): ("grid", "grid"),
    (SC, 3.0): ("grid", "grid"),
    (SC, math.inf): ("exact", "lp"),
    (MC, 1.0): ("exact", "lp"),
    (MC, 1.5): ("ball", "ball"),
    (MC, 2.0): ("ball", "ball"),
    (MC, 3.0): ("ball", "ball"),
    (MC, math.inf): ("exact", "exact"),
}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "objective, p, weighted",
    [(obj, p, False) for obj, p in ROUTES] + [(SC, 2.0, True), (MC, 2.0, True)],
    ids=lambda v: getattr(v, "value", str(v)),
)
def test_route_table(objective, p, weighted, d):
    weights = tuple(1.0 + k for k in range(d)) if weighted else None
    prof = Profile.from_rows(np.random.default_rng(d).normal(size=(4, d)))
    res = opt_max_cost(prof, Norm(p, weights)) if objective is MC else opt_social_cost(prof, Norm(p, weights))
    assert res.method == ("exact" if d == 1 else ROUTES[objective, p][d - 2])
    assert res.certified_gap <= GAP_REL * (1.0 + res.value)


def test_every_route_returns_plain_floats():
    # callers count comparisons of value and gap and hand the counts to
    # json.dumps, which refuses the numpy integers that numpy floats would
    # give: every route, the grown bundle's included, returns plain floats
    cases = [(SC, *TILINGS["plain"]), (MC, *FALLBACKS["p1.2"])]
    for d in (2, 3):
        rows = np.random.default_rng(d).normal(size=(4, d))
        cases += [(objective, rows, Norm(p)) for objective, p in ROUTES]
    for objective, rows, norm in cases:
        res = opt_cost(objective, Profile.from_rows(rows), norm)
        assert type(res.value) is float and type(res.certified_gap) is float, (objective, norm, res)


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 3.0, 8.0, math.inf])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_reach_matches_corner_enumeration(p, d):
    # the farthest corner of the reports' box, found with one norm call,
    # bit for bit against the norm of every corner
    from facilab import objectives

    residual = Norm(p)
    rng = np.random.default_rng([d, int(min(p, 99))])
    for scale in (1e-3, 1.0, 1e3):
        for ties in (False, True):
            zs = rng.normal(size=(5, d)) * scale
            ys = rng.normal(size=(40, d)) * scale
            if ties:
                zs, ys = np.round(zs / scale) * scale, np.round(ys / scale) * scale
            lo, hi = zs.min(axis=0), zs.max(axis=0)
            corners = np.array(list(itertools.product(*zip(lo, hi))))
            offsets = corners[None, :, :] - ys[:, None, :]
            ref = residual.eval_many(offsets.reshape(-1, d)).reshape(len(ys), -1).max(axis=1)
            assert np.array_equal(objectives._reach(residual, ys, zs), ref)
