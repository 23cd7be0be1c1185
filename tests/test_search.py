"""Adversarial search: controls, determinism, monotone budgets, fixtures.

Positive controls (mechanisms with known violations) must yield witnesses;
negative controls (mechanisms with proved guarantees) must yield none.
Fixture outcomes for the open cases record what the oracle run found.
"""

import itertools
import math

import numpy as np
import pytest

from facilab.geometry import (
    GEOM_TOL,
    IMPROVE_MARGIN,
    Lottery,
    Norm,
    Point,
    Profile,
    expected_cost_stack,
    parse_norm,
    point,
)
from facilab.mechanisms import MechanismSpec, apply, kernel_of, parse_mechanism
from facilab.objectives import Objective, opt_value_upper_stack
from facilab.properties import Witness, check_group_strategyproof_at, check_strategyproof_at
from facilab import search
from facilab.search import (
    DISCUSSION_PROFILE,
    SearchConfig,
    _pattern_minimize,
    search_gsp_violation,
    search_sp_violation,
    search_worst_ratio,
    structured_profiles,
)

N2 = Norm(2.0)
N1 = Norm(1.0)

RAND_MED = MechanismSpec("rand_med")
RAND_CENTER = MechanismSpec("rand_center")
DICTATOR = MechanismSpec("dictator", index=1)
SEP2D = MechanismSpec("sep2d", a=0.0)
COORD_MEDIAN = MechanismSpec("coord_median")


def small_config(seed=0, restarts=10, steps=12):
    return SearchConfig(rng_seed=seed, restarts=restarts, local_steps=steps)


class TestStructuredProfiles:
    def test_families_present(self):
        profs = structured_profiles(4, 2)
        arrays = [p.as_array.tolist() for p in profs]
        assert [[1, 0], [0, 0], [0, 0], [0, 0]] in arrays  # isolated first agent
        assert [[0, 0], [1, 0], [2, 0], [3, 0]] in arrays  # collinear spread

    def test_discussion_profile_seeded_first(self):
        profs = structured_profiles(5, 3)
        assert profs[0] == DISCUSSION_PROFILE

    def test_deterministic(self):
        a = structured_profiles(4, 2)
        b = structured_profiles(4, 2)
        assert a == b


class TestSpSearch:
    def test_broken_mean_mechanism_caught(self, mean_mechanism):
        witness = search_sp_violation(mean_mechanism, N2, 2, 2, small_config())
        assert witness is not None
        agent = witness.coalition[0]
        _, before, after = witness.per_agent_delta[0]
        assert after < before - IMPROVE_MARGIN
        # witness re-validates through the checker
        v = check_strategyproof_at(
            mean_mechanism, witness.profile, agent, witness.misreports[0], N2
        )
        assert not v.passed

    def test_dictator_clean(self):
        assert search_sp_violation(DICTATOR, N2, 3, 2, small_config()) is None

    def test_rand_center_clean(self):
        for p in (1.5, 2.0, 3.0):
            w = search_sp_violation(RAND_CENTER, Norm(p), 3, 2, small_config(restarts=8))
            assert w is None, p

    def test_deterministic_witness(self, mean_mechanism):
        a = search_sp_violation(mean_mechanism, N2, 2, 2, small_config(seed=3))
        b = search_sp_violation(mean_mechanism, N2, 2, 2, small_config(seed=3))
        assert a == b


class TestGspSearch:
    def test_discussion_counterexample(self):
        witness = search_gsp_violation(COORD_MEDIAN, N1, 5, 3, small_config(restarts=2))
        assert witness is not None
        assert witness.profile == DISCUSSION_PROFILE
        assert witness.coalition == (1, 2, 3)
        assert all(m == point(0, 0, 0) for m in witness.misreports)
        for _, before, after in witness.per_agent_delta:
            assert before == pytest.approx(2.0) and after == pytest.approx(1.0)

    def test_rand_med_clean(self):
        assert search_gsp_violation(RAND_MED, N2, 4, 2, small_config(restarts=8)) is None

    def test_sep2d_clean(self):
        assert search_gsp_violation(SEP2D, N2, 3, 2, small_config(restarts=8)) is None

    def test_rand_center_n3_violated(self):
        # oracle-recorded fixture: coalition manipulation exists at n=3
        witness = search_gsp_violation(RAND_CENTER, N2, 3, 2, small_config(restarts=8))
        assert witness is not None
        v = check_group_strategyproof_at(
            RAND_CENTER, witness.profile, witness.coalition, witness.misreports, N2
        )
        assert not v.passed and not v.inconclusive
        for _, before, after in v.witness.per_agent_delta:
            assert after < before - IMPROVE_MARGIN

    def test_rand_center_n2_clean(self):
        # oracle-recorded fixture: no coalition gain at n=2 (the centroid
        # move is cost-neutral for two agents)
        assert search_gsp_violation(RAND_CENTER, N2, 2, 2, small_config(restarts=12)) is None


class TestWorstRatio:
    def test_rand_med_sc_hits_half_n(self):
        for n in (3, 4):
            res = search_worst_ratio(RAND_MED, N2, Objective.SOCIAL_COST, n, 2, small_config())
            assert res.ratio == pytest.approx(n / 2, abs=1e-9)

    def test_rand_center_mc_hits_two_minus_one_over_n(self):
        res = search_worst_ratio(RAND_CENTER, N2, Objective.MAX_COST, 3, 2, small_config())
        assert res.ratio == pytest.approx(5 / 3, abs=1e-9)

    def test_dictator_mc_two(self):
        res = search_worst_ratio(DICTATOR, N2, Objective.MAX_COST, 2, 2, small_config())
        assert res.ratio == pytest.approx(2.0, abs=1e-9)

    def test_ratio_never_exceeds_certified_upper_end(self):
        for spec, obj in ((RAND_MED, Objective.SOCIAL_COST), (RAND_CENTER, Objective.MAX_COST)):
            res = search_worst_ratio(spec, N2, obj, 3, 2, small_config(seed=11))
            assert res.ratio <= res.hi + 1e-12
            assert res.lo <= res.hi

    def test_deterministic(self):
        a = search_worst_ratio(RAND_MED, N2, Objective.SOCIAL_COST, 3, 2, small_config(seed=4))
        b = search_worst_ratio(RAND_MED, N2, Objective.SOCIAL_COST, 3, 2, small_config(seed=4))
        assert a.ratio == b.ratio and a.profile == b.profile

    def test_monotone_budget(self):
        small = search_worst_ratio(
            RAND_CENTER, N2, Objective.MAX_COST, 3, 2,
            SearchConfig(rng_seed=9, restarts=4, local_steps=6),
        )
        large = search_worst_ratio(
            RAND_CENTER, N2, Objective.MAX_COST, 3, 2,
            SearchConfig(rng_seed=9, restarts=12, local_steps=12),
        )
        assert large.ratio >= small.ratio - 1e-15
        assert large.evaluations > small.evaluations


class TestConfig:
    def test_rejects_bad_restarts(self):
        with pytest.raises(ValueError):
            SearchConfig(restarts=0)


# -- the batched pattern search against a one-poll-at-a-time loop -------------


def reference_pattern_minimize(fn, start, scale, max_sweeps, lo, hi):
    """The pattern search polling one direction at a time, as it was written
    before polls were batched: the oracle for the batched version."""
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


XS = np.array([[0.3, -1.2], [2.0, 0.5], [-0.7, 0.9], [1.1, 1.4]])


def misreport_margins(kernel, norm, agents):
    """An agent's cost after misreporting z in XS, one z at a time and as
    the batched ``fn(zs, owners)`` of search owners[j] moving agents[owners[j]]."""

    def margin(z, agent):
        moved = XS.copy()
        moved[agent] = z
        return expected_cost_stack(np.add, *kernel(moved[None], norm), XS[agent][None, None], norm)[0]

    def margins(zs, owners):
        moved = np.repeat(XS[None], len(zs), axis=0)
        moved[np.arange(len(zs)), agents[owners]] = zs
        weights, points = kernel(moved, norm)
        return expected_cost_stack(np.add, weights, points, XS[agents[owners]][:, None], norm)

    return margin, margins


def assert_matches_reference(batched, reference, count):
    """``batched(rows)`` against the one-poll-at-a-time ``reference(s)`` of
    each of its ``count`` searches: uncapped, polling no sweep ahead, one,
    three or more than any search makes, and under row caps of one row, a
    few, and more than any round needs.  Look-ahead and caps change how
    many polls a round scores, never a search's moves."""
    expected = [reference(s) for s in range(count)]
    runs = [(depth, None) for depth in (0, 1, 3, 50)] + [(search._LOOK_AHEAD, rows) for rows in (1, 7, 10_000)]
    for depth, rows in runs:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "_LOOK_AHEAD", depth)
            found = batched(rows)
        for s, (x, val, evals) in enumerate(expected):
            assert found[0][s].tobytes() == x.tobytes(), (depth, rows)
            assert found[1][s] == val and found[2][s] == evals, (depth, rows)


@pytest.mark.parametrize("mech", ["rand_med", "rand_center", "sep2d:a=0.5", "coord_median"])
@pytest.mark.parametrize("norm_text", ["lp:2", "lp:inf", "lp:2;A=1,0.5,0,1"])
def test_batched_poll_matches_reference_on_misreport_margin(mech, norm_text):
    lo, hi = XS.min(axis=0) - 4.0, XS.max(axis=0) + 4.0
    agents = np.array([0, 1, 2, 3])
    margin, margins = misreport_margins(kernel_of(mech), parse_norm(norm_text), agents)
    starts = XS + 0.37
    assert_matches_reference(
        lambda rows: _pattern_minimize(margins, starts, 1.7, 30, lo, hi, rows=rows),
        lambda s: reference_pattern_minimize(lambda z: margin(z, agents[s]), starts[s], 1.7, 30, lo, hi),
        len(agents),
    )


@pytest.mark.parametrize("objective", list(Objective))
def test_batched_poll_matches_reference_on_hunt_score(objective):
    n, d = 3, 2
    norm, kernel = Norm(2.0), kernel_of("rand_center")
    lo, hi = np.full(n * d, -8.0), np.full(n * d, 8.0)

    def score(arr):
        xs = arr.reshape(1, n, d)
        upper = opt_value_upper_stack(objective, xs, norm)[0]
        c = expected_cost_stack(objective.per_atom, *kernel(xs, norm), xs, norm)[0]
        return -1.0 if upper <= GEOM_TOL * GEOM_TOL else -(c / upper)

    def scores(arrs, owners):
        stack = arrs.reshape(-1, n, d)
        costs = expected_cost_stack(objective.per_atom, *kernel(stack, norm), stack, norm)
        uppers = [opt_value_upper_stack(objective, xs[None], norm)[0] for xs in stack]
        return np.array([-1.0 if u <= GEOM_TOL * GEOM_TOL else -(c / u) for c, u in zip(costs, uppers)])

    starts = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.2, -1.0, 1.5, 0.3, -0.4, 2.2]])
    scales = [1.0, 3.2]
    assert_matches_reference(
        lambda rows: _pattern_minimize(scores, starts, scales, 16, lo, hi, rows=rows),
        lambda s: reference_pattern_minimize(score, starts[s], scales[s], 16, lo, hi),
        len(starts),
    )


@pytest.mark.parametrize("distances", [search.SCORE_DISTANCES, 200])
def test_worst_ratio_evaluations_pinned(distances, monkeypatch):
    # values produced by the one-poll-at-a-time search, with each round's
    # polls scored in one block or in blocks of seven profiles (n = 3), or
    # of one profile (n = 5)
    monkeypatch.setattr(search, "SCORE_DISTANCES", distances)
    config = SearchConfig(rng_seed=2, restarts=14, local_steps=40)
    res = search_worst_ratio(RAND_MED, N2, Objective.SOCIAL_COST, 3, 2, config)
    assert (res.evaluations, res.ratio) == (6412, 1.5)
    res = search_worst_ratio(RAND_CENTER, N1, Objective.MAX_COST, 3, 2, config)
    assert (res.evaluations, res.ratio) == (6202, 1.6666666666666667)
    assert res.profile == Profile.from_rows([(1.0, 0.0), (0.0, 0.0), (0.0, 0.0)])
    # n = 5: 22 polls a sweep, of which a round polls 4 while all 16
    # searches are live; the winner is hill-climbed from a structured profile
    config = SearchConfig(rng_seed=5, restarts=16, local_steps=24)
    res = search_worst_ratio(RAND_CENTER, N2, Objective.SOCIAL_COST, 5, 2, config)
    assert (res.evaluations, res.ratio) == (8288, 1.6000000000000003)
    assert res.profile == Profile.from_rows([(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (2.0, 1.0), (0.0, 0.0)])


@pytest.mark.parametrize("block", [64, 3, 2])
def test_gsp_witness_pinned(block, monkeypatch):
    # the witness produced by the one-coalition-at-a-time search, at
    # restart 2: the 70 (restart, coalition) searches run in one lockstep
    # block, or in blocks of three or two that split restarts
    monkeypatch.setattr(search, "LOCKSTEP_BLOCK", block)
    witness = search_gsp_violation(RAND_CENTER, N2, 3, 2, small_config())
    move = Point((0.599609375, 0.599609375))
    assert witness == Witness(
        profile=Profile.from_rows([(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]),
        coalition=(1, 2),
        misreports=(move, move),
        per_agent_delta=((1, 0.7750469233121475, 0.7675919922845482), (2, 0.7750469233121475, 0.7675919922845482)),
    )


def test_batched_poll_matches_reference_with_a_box_per_search():
    # each search clips to its own box, some tight enough to bind
    agents = np.array([0, 1, 2, 3, 1, 2])
    pads = np.array([4.0, 0.3, 1.0, 0.05, 2.0, 0.6])
    lo = XS.min(axis=0) - pads[:, None]
    hi = XS.max(axis=0) + pads[:, None] * np.array([1.0, 0.5])
    margin, margins = misreport_margins(kernel_of("rand_center"), Norm(2.0), agents)
    starts = XS[agents] + np.array([0.37, -0.52])
    scales = np.array([1.7, 0.9, 2.5, 1.7, 0.4, 3.0])
    assert_matches_reference(
        lambda rows: _pattern_minimize(margins, starts, scales, 30, lo, hi, rows=rows),
        lambda s: reference_pattern_minimize(lambda z: margin(z, agents[s]), starts[s], scales[s], 30, lo[s], hi[s]),
        len(agents),
    )


@pytest.mark.parametrize("rows", [1, 7, 40])
def test_row_cap_bounds_each_call_and_scores_fewer_rows(rows):
    # a search polls at least isqrt(polls) directions a round, so a call
    # scores at most max(rows, live * isqrt(polls)) candidates
    count, dim = 12, 4
    polls = 2 * (dim + 1)
    starts = np.random.default_rng(5).normal(size=(count, dim))
    target = np.linspace(-1.0, 1.0, dim)
    lo, hi = np.full(dim, -3.0), np.full(dim, 3.0)

    def counting(sizes, cap=None):
        def fn(cands, owners):
            live = np.unique(owners).size
            if cap is not None:
                assert len(cands) <= max(cap, live * math.isqrt(polls))
            sizes.append(len(cands))
            return np.abs(cands - target).sum(axis=1) + np.sin(3.0 * cands).sum(axis=1)

        return fn

    uncapped, capped = [], []
    free = _pattern_minimize(counting(uncapped), starts, 2.0, 12, lo, hi)
    found = _pattern_minimize(counting(capped, rows), starts, 2.0, 12, lo, hi, rows=rows)
    assert found[0].tobytes() == free[0].tobytes()
    assert found[1].tobytes() == free[1].tobytes() and found[2].tobytes() == free[2].tobytes()
    assert sum(capped) < sum(uncapped)


def quadratic_margins(target):
    """A smooth, wavy score, one point at a time and batched."""

    def value(z):
        return float(((z - target) ** 2).sum() + np.sin(5.0 * z).sum())

    def values(zs, owners):
        return ((zs - target) ** 2).sum(axis=1) + np.sin(5.0 * zs).sum(axis=1)

    return value, values


@pytest.mark.parametrize("max_sweeps", [1, 2, 3])
def test_look_ahead_stops_at_max_sweeps(max_sweeps):
    # three sweeps ahead of the first would cross the cap at every depth > 0
    count, dim = 5, 3
    starts = np.random.default_rng(11).normal(size=(count, dim))
    lo, hi = np.full(dim, -4.0), np.full(dim, 4.0)
    value, values = quadratic_margins(np.array([0.4, -0.3, 1.1]))
    assert_matches_reference(
        lambda rows: _pattern_minimize(values, starts, 1.3, max_sweeps, lo, hi, rows=rows),
        lambda s: reference_pattern_minimize(value, starts[s], 1.3, max_sweeps, lo, hi),
        count,
    )


def test_look_ahead_stops_at_the_step_floor():
    # a coarse score stops moving early, then every search halves its step
    # down to the 1e-7 x scale floor, well before the sweep cap
    count, dim = 6, 2
    starts = np.random.default_rng(12).normal(size=(count, dim))
    scales = np.array([0.5, 1.0, 2.0, 3.0, 7.0, 0.01])
    lo, hi = np.full(dim, -5.0), np.full(dim, 5.0)

    def value(z):
        return float(np.round(np.abs(z - 0.2).sum(), 1))

    def values(zs, owners):
        return np.round(np.abs(zs - 0.2).sum(axis=1), 1)

    expected = [reference_pattern_minimize(value, starts[s], scales[s], 60, lo, hi) for s in range(count)]
    assert all(evals < 1 + 60 * 2 * (dim + 1) for _, _, evals in expected)  # the floor ends every search
    assert_matches_reference(
        lambda rows: _pattern_minimize(values, starts, scales, 60, lo, hi, rows=rows),
        lambda s: expected[s],
        count,
    )


def test_a_search_moves_inside_a_speculated_sweep(monkeypatch):
    # from 0 at step 1, no poll of the first sweep improves on |z - 0.3|;
    # the second sweep's first poll, at step 0.5, does
    monkeypatch.setattr(search, "_LOOK_AHEAD", 3)
    sizes = []

    def values(zs, owners):
        sizes.append(len(zs))
        return np.abs(zs - 0.3).sum(axis=1)

    lo, hi = np.full(1, -5.0), np.full(1, 5.0)
    x, best, evals = _pattern_minimize(values, np.zeros((1, 1)), 4.0, 20, lo, hi)
    want = reference_pattern_minimize(lambda z: float(np.abs(z - 0.3).sum()), np.zeros(1), 4.0, 20, lo, hi)
    assert (x[0].tobytes(), best[0], evals[0]) == (want[0].tobytes(), want[1], want[2])
    assert sizes[:2] == [1, 4 * 4]  # the start, then the rest of the sweep and three ahead
    rounds = len(sizes)
    monkeypatch.setattr(search, "_LOOK_AHEAD", 0)
    sizes.clear()
    _pattern_minimize(values, np.zeros((1, 1)), 4.0, 20, lo, hi)
    assert rounds < len(sizes)


@pytest.mark.parametrize("scale", [1e-300, 1e-305, 1e-316, 1e200])
def test_extreme_scales_match_reference(scale):
    # at 1e-305 and 1e-316 the steps fall into subnormals, where halving rounds
    count, dim = 3, 2
    starts = np.array([[1.0, 1.0], [-2.0, 0.5], [0.3, -0.7]]) * scale
    target = np.array([0.3, -0.7])
    lo, hi = np.full(dim, -10.0 * scale), np.full(dim, 10.0 * scale)

    def value(z):
        return float(np.abs(z / scale - target).sum())

    def values(zs, owners):
        return np.abs(zs / scale - target).sum(axis=1)

    assert_matches_reference(
        lambda rows: _pattern_minimize(values, starts, scale, 40, lo, hi, rows=rows),
        lambda s: reference_pattern_minimize(value, starts[s], scale, 40, lo, hi),
        count,
    )


def test_look_ahead_halves_steps_one_at_a_time():
    # in subnormals, halving four times rounds differently from one product
    # with 0.125: the fifth sweep's step is 79,064 ulps, not 79,063, and
    # only a poll at exactly that step scores better
    scale, needle = 2.5e-317, 2.5e-317 / 4.0
    for _ in range(4):
        needle *= 0.5
    assert needle != scale / 4.0 * 0.5 * 0.125
    lo, hi = np.full(2, -10.0 * scale), np.full(2, 10.0 * scale)

    def value(z):
        return 0.0 if z[0] == needle else 1.0

    def values(zs, owners):
        return np.where(zs[:, 0] == needle, 0.0, 1.0)

    starts = np.zeros((2, 2))
    starts[1, 1] = scale
    expected = [reference_pattern_minimize(value, starts[s], scale, 30, lo, hi) for s in range(2)]
    assert all(x[0] == needle for x, _, _ in expected)
    assert_matches_reference(
        lambda rows: _pattern_minimize(values, starts, scale, 30, lo, hi, rows=rows),
        lambda s: expected[s],
        2,
    )


def test_given_start_values_are_not_scored_again():
    count, dim = 4, 3
    starts = np.random.default_rng(13).normal(size=(count, dim)) * 3.0
    lo, hi = np.full(dim, -2.0), np.full(dim, 2.0)  # some starts are clipped
    _, values = quadratic_margins(np.array([0.4, -0.3, 1.1]))
    calls = []

    def counting(zs, owners):
        calls.append(zs.copy())
        return values(zs, owners)

    scored = _pattern_minimize(counting, starts, 1.3, 20, lo, hi)
    rounds = len(calls)
    given = _pattern_minimize(counting, starts, 1.3, 20, lo, hi, values=values(np.clip(starts, lo, hi), None))
    assert len(calls) == 2 * rounds - 1
    for a, b in zip(scored, given):
        assert a.tobytes() == b.tobytes()  # evaluations still count the start


AUDIT_NORMS = ("lp:2", "lp:1", "lp:inf", "lp:3;w=1,2")


@pytest.mark.parametrize(
    "mech,rounds",
    [("dictator:1", [5, 5, 5, 5]), ("rand_med", [5, 5, 5, 5]), ("rand_center", [18, 5, 16, 18]),
     ("sep2d:a=0", [5, 5, 5, 5]), ("coord_median", [10, 5, 13, 16])],
)
def test_one_audit_block_polls_in_few_rounds(mech, rounds, monkeypatch):
    # check's misreport search at budget 2000 (8 restarts, 20 sweeps) runs
    # its 56 (restart, coalition) searches at n = 3, d = 2 as one block; a
    # search that never moves polls its 20 sweeps in 5 rounds.  Scoring the
    # starts and then polling one sweep a round took 21 rounds at the
    # least (37, 21, 31, 36 for rand_center and 26, 21, 28, 34 for
    # coord_median), with the same moves and evaluations
    calls, minimize = [], search._pattern_minimize

    def counting(fn, *args, **kwargs):
        return minimize(lambda z, owners: calls.append(len(z)) or fn(z, owners), *args, **kwargs)

    monkeypatch.setattr(search, "_pattern_minimize", counting)
    config = SearchConfig(rng_seed=0, restarts=8, local_steps=20)
    found = []
    for norm_text in AUDIT_NORMS:
        calls.clear()
        search._misreport_witnesses(parse_mechanism(mech), parse_norm(norm_text), 3, 2, config)
        found.append(len(calls))
    assert found == rounds


def median_mean(profile, norm):
    """Coordinate median in x, mean in y: strategyproof on profiles whose
    reports share one y, manipulable in y elsewhere."""
    xs = profile.as_array
    return Lottery.degenerate(Point((float(np.median(xs[:, 0])), float(xs[:, 1].mean()))))


@pytest.mark.parametrize("block", [64, 2])
def test_sp_witness_pinned(block, monkeypatch):
    # the witness produced by the one-restart-at-a-time search: the first
    # two structured profiles lie on the x axis, so the first witness is
    # agent 1 at restart 2 (the triangle), and agent 2 there has one too;
    # the 30 (restart, agent) searches run in one block or in blocks of two
    monkeypatch.setattr(search, "LOCKSTEP_BLOCK", block)
    witness = search_sp_violation(median_mean, N2, 3, 2, small_config())
    assert witness == Witness(
        profile=Profile.from_rows([(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]),
        coalition=(1,),
        misreports=(Point((1.03125, -1.0017888131397217)),),
        per_agent_delta=((1, 1.0540925533894598, 1.0000001777695646),),
    )


# -- the restart plan against the per-restart build it replaced ----------------


def reference_restarts(mech, norm, n, d, config):
    """Each restart as it was built one at a time before the plan: reports,
    unpadded truthful lottery, before, common points, diameter, scale, box."""
    kernel = kernel_of(mech)
    structured = structured_profiles(n, d)
    for r in range(config.restarts):
        if r < len(structured):
            xs = structured[r].as_array
        else:
            xs = Profile.from_rows(search._rng(config.rng_seed, r).normal(size=(n, d)) * 2.0).as_array
        diffs = xs[:, None, :] - xs[None, :, :]
        diameter = float(norm.eval_many(diffs.reshape(-1, d)).max())
        scale = diameter if diameter > GEOM_TOL else 1.0
        weights, points = (a[0] for a in kernel(xs[None], norm))
        before = expected_cost_stack(np.add, np.tile(weights, (n, 1)), np.tile(points, (n, 1, 1)), xs[:, None], norm)
        common = np.array([weights @ points, xs.mean(axis=0), np.median(xs, axis=0)])
        pad = search.BOUNDING_SCALE * scale
        yield xs, weights, points, before, common, diameter, scale, xs.min(axis=0) - pad, xs.max(axis=0) + pad


@pytest.mark.parametrize("mech", ["rand_med", "rand_center", "sep2d:a=0.5", "coord_median"])
@pytest.mark.parametrize("norm_text", ["lp:2", "lp:inf", "lp:3;w=1,2", "lp:2;A=1.1,0.3,-0.2,0.9"])
def test_plan_rows_match_per_restart_build_bitwise(mech, norm_text):
    # 13 structured profiles at (4, 2), ties among them, then 5 seeded draws
    norm, config = parse_norm(norm_text), SearchConfig(rng_seed=5, restarts=18)
    plan = search._plan(mech, norm, 4, 2, config)
    diameters = search._restarts(norm, 4, 2, config)[1]
    counts = (plan.weights > 0.0).sum(axis=1)
    if mech != "coord_median":
        assert counts.min() < plan.weights.shape[1]  # some rows are padded
    for r, (xs, weights, points, before, common, diameter, scale, lo, hi) in enumerate(
        reference_restarts(mech, norm, 4, 2, config)
    ):
        k = len(weights)
        assert counts[r] == k and not plan.weights[r, k:].any() and not plan.points[r, k:].any()
        pairs = [
            (plan.reports[r], xs), (plan.weights[r, :k], weights), (plan.points[r, :k], points),
            (plan.before[r], before), (plan.common[r], common), (diameters[r], diameter),
            (plan.scales[r], scale), (plan.lo[r], lo), (plan.hi[r], hi),
        ]
        for got, want in pairs:
            assert np.asarray(got).tobytes() == np.asarray(want, dtype=float).tobytes()


def test_plan_is_read_only():
    plan = search._plan(RAND_CENTER, N2, 3, 2, small_config())
    for array in plan:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 1.0


# -- the block build against the per-(restart, coalition) build it replaced ----


def reference_sp_targets(plan, r, agent):
    """Agent (0-based) alone at restart r: axis steps, the other reports, a
    grid around the output support and points on the segments to the other
    reports, built as before the block build."""
    xs, scale = plan.reports[r], plan.scales[r]
    d = xs.shape[1]
    xi = xs[agent]
    others = np.delete(xs, agent, axis=0)
    axis = (np.array([0.5, 0.1, 0.02]) * scale)[:, None, None] * np.eye(d)
    grid = 0.1 * scale * np.eye(d)
    near = plan.points[r][plan.weights[r] > 0.0][:, None, :]
    return np.concatenate([
        np.stack([xi + axis, xi - axis], axis=2).reshape(-1, d),
        others,
        np.stack([near + grid, near - grid], axis=2).reshape(-1, d),
        (xi + np.array([0.25, 0.5, 0.75, 1.0])[:, None] * (others - xi)[:, None, :]).reshape(-1, d),
    ])


def reference_block(plan, runs, coalitions, stream):
    """Each (restart, coalition) search's start targets and per-member moves,
    built one pair at a time as before the block build."""
    d = plan.reports.shape[2]
    targets, moves = [], []
    for r, c in zip(runs.tolist(), coalitions):
        members = plan.reports[r, list(c)]
        center = members.mean(axis=0)
        extremes = [members.min(axis=0), members.max(axis=0)]
        common, atoms = plan.common[r], plan.points[r][plan.weights[r] > 0.0]
        alone = [reference_sp_targets(plan, r, c[0])] if len(c) == 1 else []
        targets.append(np.vstack([common[:2], center, common[2], *extremes, atoms, *alone]))
        pulls = members + np.array([0.5, 1.0])[:, None, None] * (center - members)
        jitter = (np.array([0.1, 0.1, 0.5, 0.5]) * plan.scales[r])[:, None] * stream(r).normal(size=(4, d))
        axis = (np.array([0.5, 0.1]) * plan.scales[r])[:, None, None] * np.eye(d)
        shifts = np.concatenate([jitter, np.stack([axis, -axis], axis=2).reshape(-1, d)])
        moves.append(np.concatenate([pulls, np.clip(members + shifts[:, None, :], plan.lo[r], plan.hi[r])]))
    return targets, moves


def tied_margins(z, which):
    """A stand-in score with many ties, so the first of equals must win."""
    return np.round(np.abs(z).sum(axis=1), 1) + which % 3


def assert_block_matches_reference(mech, norm, n, d, config, block, singles_after=None):
    """Walk the (restart, coalition) queue in blocks, as the misreport search
    does, keeping only single agents after ``singles_after`` blocks, and
    compare every block's build with the per-pair build, by bytes."""
    plan = search._plan(mech, norm, n, d, config)
    coalitions = [c for size in range(1, n + 1) for c in itertools.combinations(range(n), size)]
    padded = np.array([c + (0,) * (n - len(c)) for c in coalitions])
    sizes = np.array([len(c) for c in coalitions])
    stream, reference_stream = search._streams(config), search._streams(config)
    queue, blocks = np.arange(config.restarts * len(coalitions)), 0
    while queue.size:
        runs, coalition = np.divmod(queue[:block], len(coalitions))
        queue, blocks = queue[block:], blocks + 1
        if blocks == singles_after:
            queue = queue[sizes[queue % len(coalitions)] == 1]
        targets, mask, starts, start_values, moves = search._block(
            plan, runs, padded[coalition], sizes[coalition], stream, tied_margins
        )
        want_targets, want_moves = reference_block(plan, runs, [coalitions[c] for c in coalition], reference_stream)
        counts = [len(t) for t in want_targets]
        vals = np.split(tied_margins(np.concatenate(want_targets), np.repeat(np.arange(len(runs)), counts)), np.cumsum(counts)[:-1])
        want_starts = np.array([t[int(np.argmin(v))] for t, v in zip(want_targets, vals)])
        assert mask.sum(axis=1).tolist() == counts
        assert targets[mask].tobytes() == np.concatenate(want_targets).tobytes()
        assert starts.tobytes() == want_starts.tobytes()
        assert start_values.tobytes() == np.array([v.min() for v in vals]).tobytes()
        for j, want in enumerate(want_moves):
            assert moves[j, :, : sizes[coalition[j]]].tobytes() == want.tobytes()
    return blocks


BLOCK_MECHS = {"rand_med": 1, "rand_center": 1, "sep2d:a=0.5": 2, "coord_median": 1, "median_mean": 2}
BLOCK_NORMS = {"lp:2": 1, "lp:inf": 1, "lp:3;w=1,2": 2, "lp:2;A=1.1,0.3,-0.2,0.9": 2}  # 2: for d = 2 only


@pytest.mark.parametrize("block", [64, 3])
@pytest.mark.parametrize(
    "mech,norm_text,n,d",
    [
        (mech, norm_text, n, d)
        for mech, mech_d in BLOCK_MECHS.items()
        for norm_text, norm_d in BLOCK_NORMS.items()
        for n, d in [(2, 1), (3, 2), (4, 2), (5, 3)]
        if mech_d in (1, d) and norm_d in (1, d) and (n >= 3 or mech != "sep2d:a=0.5")
    ],
)
def test_block_build_matches_per_pair_build_bitwise(mech, norm_text, n, d, block):
    # structured profiles, then seeded draws; blocks of three split restarts
    # of three or more agents
    config = SearchConfig(rng_seed=7, restarts=len(structured_profiles(n, d)) + 2)
    mech = median_mean if mech == "median_mean" else mech
    blocks = assert_block_matches_reference(mech, parse_norm(norm_text), n, d, config, block)
    assert blocks > 1 or block == 64


@pytest.mark.parametrize("block", [64, 3])
def test_block_build_after_a_group_witness_matches_bitwise(block):
    # after the first blocks only single agents are left, mid-restart
    config = SearchConfig(rng_seed=3, restarts=12)
    for singles_after in (1, 2):
        assert_block_matches_reference(RAND_CENTER, N2, 4, 2, config, block, singles_after)


# -- the member-margin core against the block scorers it replaced -------------


def reference_margins(kernel, norm, plan, runs, members, sizes):
    """A block's two scorers as written before the member-margin core:
    ``joint`` gathers each row's reports and truthful costs again and
    copies every atom to every member, ``common`` clips each point to its
    search's box and repeats it once per member."""
    n = members.shape[1]
    xs, before, lo, hi = plan.reports[runs], plan.before[runs], plan.lo[runs], plan.hi[runs]

    def costs(moved, owners, truth):
        weights, points = kernel(moved, norm)
        return expected_cost_stack(np.add, weights[owners], points[owners], truth[:, None], norm)

    def joint(reports, which):
        counts = sizes[which]
        owners = np.repeat(np.arange(len(which)), counts)
        starts = np.cumsum(counts) - counts
        agents = members[which][np.arange(n) < counts[:, None]]
        moved = xs[which]
        moved[owners, agents] = reports
        rows = which[owners]
        return np.maximum.reduceat(costs(moved, owners, xs[rows, agents]) - before[rows, agents], starts)

    def common(z, which):
        z = np.clip(z, lo[which], hi[which])
        return joint(np.repeat(z, sizes[which], axis=0), which)

    return joint, common


def assert_margins_match_reference(mech, norm, n, d, config, block, singles_after=None):
    """Walk the (restart, coalition) queue in blocks, as the misreport search
    does, and score each block's start targets, pattern-round candidates
    and per-member moves with the core and with the old scorers, by bytes."""
    kernel, plan = kernel_of(mech), search._plan(mech, norm, n, d, config)
    coalitions = [c for size in range(1, n + 1) for c in itertools.combinations(range(n), size)]
    padded = np.array([c + (0,) * (n - len(c)) for c in coalitions])
    sizes = np.array([len(c) for c in coalitions])
    stream, queue, blocks, rows = search._streams(config), np.arange(config.restarts * len(coalitions)), 0, 0
    while queue.size:
        runs, coalition = np.divmod(queue[:block], len(coalitions))
        queue, blocks = queue[block:], blocks + 1
        if blocks == singles_after:
            queue = queue[sizes[queue % len(coalitions)] == 1]
        lo, hi = plan.lo[runs], plan.hi[runs]
        margins = search._member_margins(kernel, norm, plan, runs, padded[coalition], sizes[coalition])
        joint, common = reference_margins(kernel, norm, plan, runs, padded[coalition], sizes[coalition])

        def both(z, which, clip):
            got = margins(np.clip(z, lo[which], hi[which]) if clip else z, which)
            assert got.tobytes() == common(z, which).tobytes()
            return got

        _, _, starts, values, moves = search._block(
            plan, runs, padded[coalition], sizes[coalition], stream, lambda z, which: both(z, which, True)
        )
        rounds = []
        search._pattern_minimize(
            lambda z, which: rounds.append(len(z)) or both(z, which, False),
            starts, plan.scales[runs], config.local_steps, lo, hi, values=values,
        )
        real = np.broadcast_to(np.arange(n) < sizes[coalition][:, None, None], moves.shape[:3])
        which = np.repeat(np.arange(len(runs)), moves.shape[1])
        assert margins(moves[real], which).tobytes() == joint(moves[real], which).tobytes()
        rows += sum(rounds)
    assert rows > 0  # pattern rounds were compared too
    return blocks


MARGIN_MECHS = {"dictator:1": 1, "rand_med": 1, "rand_center": 1, "sep2d:a=0.5": 2, "coord_median": 1, "median_mean": 2}


@pytest.mark.parametrize("block", [64, 3])
@pytest.mark.parametrize(
    "mech,norm_text,n,d",
    [
        (mech, norm_text, n, d)
        for mech, mech_d in MARGIN_MECHS.items()
        for norm_text, norm_d in BLOCK_NORMS.items()
        for n, d in [(1, 2), (2, 1), (3, 2), (4, 2), (5, 3)]
        if mech_d in (1, d) and norm_d in (1, d)
        and (n >= parse_mechanism(mech).min_agents if mech != "median_mean" else norm_text.startswith("lp:2"))
    ],
)
def test_member_margins_match_the_old_scorers_bitwise(mech, norm_text, n, d, block):
    # median_mean runs through the per-profile adapter, under two norms
    config = SearchConfig(rng_seed=7, restarts=len(structured_profiles(n, d)) + 2, local_steps=6)
    mech = median_mean if mech == "median_mean" else mech
    blocks = assert_margins_match_reference(mech, parse_norm(norm_text), n, d, config, block)
    assert blocks > 1 or block == 64 or n == 1


@pytest.mark.parametrize("block", [64, 3])
def test_member_margins_after_a_group_witness_match_bitwise(block):
    # after the first blocks only single agents are left, mid-restart
    config = SearchConfig(rng_seed=3, restarts=12, local_steps=6)
    for singles_after in (1, 2):
        assert_margins_match_reference(RAND_CENTER, N2, 4, 2, config, block, singles_after)


def inside_box(fn, lo, hi):
    """``fn``, asserting first that every candidate row lies in its search's box."""

    def checked(cands, owners):
        low, high = (lo, hi) if lo.ndim == 1 else (lo[owners], hi[owners])
        assert ((low <= cands) & (cands <= high)).all()
        return fn(cands, owners)

    return checked


@pytest.mark.parametrize("rows", [None, 7])
@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e-316, 1e200])
def test_pattern_search_scores_only_rows_inside_the_box(scale, rows):
    # the misreport scorer does not clip again: every row polled, the
    # start included, must already lie in its search's box; the boxes are
    # tight enough that unclipped polls and starts would leave them
    count, dim = 6, 2
    starts = np.random.default_rng(14).normal(size=(count, dim)) * 2.0 * scale
    target = np.array([0.3, -0.7])
    _, values = quadratic_margins(target)
    score = lambda zs, owners: values(zs / scale, owners)  # noqa: E731
    pads = np.array([0.05, 0.3, 1.0, 0.5, 0.1, 2.0]) * scale
    boxes = [(np.full(dim, -0.5 * scale), np.full(dim, 0.5 * scale)), (target * scale - pads[:, None], target * scale + pads[:, None] * 0.5)]
    for lo, hi in boxes:
        x, _, _ = _pattern_minimize(inside_box(score, lo, hi), starts, 3.0 * scale, 12, lo, hi, rows=rows)
        assert ((lo <= x) & (x <= hi)).all()


def count_plans(monkeypatch) -> list:
    """Record the arguments of every restart plan built from now on."""
    built, build = [], search._plan
    monkeypatch.setattr(search, "_plan", lambda *args: built.append(args) or build(*args))
    return built


def test_one_check_builds_its_plan_once(monkeypatch):
    # both verdicts come from one misreport search, which builds one plan
    from facilab.cli import run_check

    built = count_plans(monkeypatch)
    run_check(RAND_MED, N2, 3, 2, seed=0, budget=300)
    assert len(built) == 1


def test_a_hunt_between_two_checks_builds_no_plan(monkeypatch):
    # the hunt starts from the restart reports alone
    from facilab.cli import run_check

    built = count_plans(monkeypatch)
    run_check(RAND_MED, N2, 3, 2, seed=0, budget=300)
    search_worst_ratio(RAND_CENTER, N1, Objective.MAX_COST, 3, 2, small_config(restarts=14, steps=4))
    assert len(built) == 1
    run_check(RAND_MED, N2, 3, 2, seed=0, budget=300)
    assert len(built) == 2 and built[0] == built[1]


def test_misreport_search_goes_on_with_single_agents_past_a_group_witness():
    # rand_center is strategyproof: the pair witness at restart 2 ends the
    # coalitions, and the single agents of every restart find nothing
    sp, group = search._misreport_witnesses(RAND_CENTER, N2, 3, 2, small_config())
    move = Point((0.599609375, 0.599609375))
    assert sp is None
    assert group.profile == Profile.from_rows([(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)])
    assert (group.coalition, group.misreports) == ((1, 2), (move, move))


def center_or_mean(profile, norm):
    """rand_center, but the mean on profiles with no report on the x axis.
    The structured profiles at n = 3, d = 2 have at least two reports on
    the axis, so there only a coalition reaches the manipulable mean."""
    xs = profile.as_array
    if np.all(xs[:, 1] != 0.0):
        return Lottery.degenerate(Point.from_array(xs.mean(axis=0)))
    return apply(RAND_CENTER, profile, norm)


def test_single_agent_witness_after_a_pair_witness():
    config = small_config()
    group = search_gsp_violation(center_or_mean, N2, 3, 2, config)
    sp = search_sp_violation(center_or_mean, N2, 3, 2, config)
    restart = [p.as_array.tobytes() for p in structured_profiles(3, 2)].index
    assert len(group.coalition) == 2 and len(sp.coalition) == 1
    assert restart(group.profile.as_array.tobytes()) < restart(sp.profile.as_array.tobytes())
    verdict = check_strategyproof_at(center_or_mean, sp.profile, sp.coalition[0], sp.misreports[0], N2)
    assert not verdict.passed and verdict.witness == sp
    [(_, before, after)] = sp.per_agent_delta
    assert verdict.margin == after - before


@pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (5, 3), (2, 1)])
def test_structured_rows_are_built_once_read_only(n, d):
    rows = search._structured(n, d)
    assert search._structured(n, d) is rows
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0, 0] = 1.0
    assert rows.tobytes() == search._structured.__wrapped__(n, d).tobytes()


@pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (5, 3), (2, 1)])
def test_structured_profiles_are_the_family_rows(n, d):
    rows = search._structured(n, d)
    assert rows.shape[1:] == (n, d)
    assert [p.as_array.tobytes() for p in structured_profiles(n, d)] == [r.tobytes() for r in rows]


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_restart_streams_are_the_jumped_streams(seed):
    # a jump adds stream * 2**128 to the 256-bit counter, where _rng starts
    for stream in (0, 1, 13, 299, 987):
        jumped = np.random.Generator(np.random.Philox(key=seed).jumped(stream))
        made = search._rng(seed, stream)
        for key in ("counter", "key"):
            assert np.array_equal(made.bit_generator.state["state"][key], jumped.bit_generator.state["state"][key])
        assert made.normal(size=(5, 3)).tobytes() == jumped.normal(size=(5, 3)).tobytes()
