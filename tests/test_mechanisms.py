"""Mechanism definitions: worked examples plus structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facilab.geometry import GEOM_TOL, Lottery, Norm, Point, Profile, is_on_segment, lotteries_match, point
from facilab.mechanisms import (
    KINDS,
    REGISTRY,
    MechanismSpec,
    apply,
    apply_coordinate_median,
    apply_dictator,
    apply_rand_center,
    apply_rand_med,
    apply_separate_2dictator,
    format_mechanism,
    parse_mechanism,
    resolve,
)

from conftest import profile_strategy

N2 = Norm(2.0)


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
        out = apply_dictator(base, 2)
        assert apply_dictator(base.replaced(1, point(9, 9)), 2) == out
        assert apply_dictator(base.replaced(3, point(-7, 3)), 2) == out

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            apply_dictator(Profile.from_rows([(0, 0), (1, 1)]), 3)


class TestRandMed:
    def test_three_atom_shape(self):
        lot = apply_rand_med(Profile.from_rows([(0, 0), (2, 0)]))
        assert atoms(lot) == {(0.0, 0.0): 0.25, (2.0, 0.0): 0.25, (1.0, 0.0): 0.5}

    def test_coincident_leaders_merge(self):
        lot = apply_rand_med(Profile.from_rows([(0, 0), (0, 0), (5, 5)]))
        assert lot == Lottery.degenerate(point(0, 0))

    def test_third_agent_ignored(self):
        lot = apply_rand_med(Profile.from_rows([(1, 1), (3, 1), (99, 99)]))
        assert atoms(lot) == {(1.0, 1.0): 0.25, (3.0, 1.0): 0.25, (2.0, 1.0): 0.5}

    def test_needs_two_agents(self):
        with pytest.raises(ValueError):
            apply_rand_med(Profile.from_rows([(0, 0)]))

    @given(prof=profile_strategy(2, min_n=2, max_n=5))
    @settings(max_examples=150)
    def test_support_on_leader_segment(self, prof):
        lot = apply_rand_med(prof)
        for _, pt in lot.atoms:
            assert is_on_segment(prof.agent(1), prof.agent(2), pt, N2, tol=1e-7)


class TestRandCenter:
    def test_unanimous_collapses(self):
        prof = Profile.from_rows([(2, 2), (2, 2), (2, 2)])
        assert apply_rand_center(prof) == Lottery.degenerate(point(2, 2))

    def test_two_agents(self):
        lot = apply_rand_center(Profile.from_rows([(0, 0), (1, 0)]))
        assert atoms(lot) == {(0.5, 0.0): 0.5, (0.0, 0.0): 0.25, (1.0, 0.0): 0.25}

    def test_mean_merges_with_report(self):
        lot = apply_rand_center(Profile.from_rows([(0, 0), (1, 0), (2, 0)]))
        got = atoms(lot)
        assert got[(1.0, 0.0)] == pytest.approx(0.5 + 1 / 6, abs=1e-12)
        assert got[(0.0, 0.0)] == pytest.approx(1 / 6, abs=1e-12)
        assert got[(2.0, 0.0)] == pytest.approx(1 / 6, abs=1e-12)

    @given(prof=profile_strategy(2, min_n=2, max_n=5))
    @settings(max_examples=100)
    def test_support_in_convex_hull(self, prof):
        lot = apply_rand_center(prof)
        lo, hi = prof.bounding_box()
        for _, pt in lot.atoms:
            arr = pt.as_array()
            assert np.all(arr >= lo - GEOM_TOL) and np.all(arr <= hi + GEOM_TOL)


class TestSeparate2Dictator:
    def test_high_branch_short_segment(self):
        prof = Profile.from_rows([(2, 0), (5, 0), (0, 4)])
        lot = apply_separate_2dictator(prof, N2, 0.0)
        assert atoms(lot) == {
            (2.0, 0.0): pytest.approx(2 / 3),
            (4.0, 0.0): pytest.approx(1 / 3),
        }

    def test_low_branch_uses_third_agent(self):
        prof = Profile.from_rows([(-1, 0), (5, 0), (-3, 4)])
        lot = apply_separate_2dictator(prof, N2, 0.0)
        got = atoms(lot)
        companion = (-1.4472135954999579, 0.8944271909999159)
        assert got[(-1.0, 0.0)] == pytest.approx(2 / 3)
        assert got[companion] == pytest.approx(1 / 3)
        assert N2.distance(point(*companion), point(-1, 0)) == pytest.approx(1.0, abs=GEOM_TOL)

    def test_capped_by_partner_distance(self):
        prof = Profile.from_rows([(2, 0), (3, 0), (0, 4)])
        lot = apply_separate_2dictator(prof, N2, 0.0)
        assert atoms(lot)[(3.0, 0.0)] == pytest.approx(1 / 3)

    def test_unanimous_collapses(self):
        prof = Profile.from_rows([(1, 1), (1, 1), (1, 1)])
        assert apply_separate_2dictator(prof, N2, 0.0) == Lottery.degenerate(point(1, 1))

    def test_needs_three_agents(self):
        with pytest.raises(ValueError):
            apply_separate_2dictator(Profile.from_rows([(0, 0), (1, 0)]), N2, 0.0)

    @given(prof=profile_strategy(2, min_n=3, max_n=5))
    @settings(max_examples=150)
    def test_leader_weight_and_support(self, prof):
        lot = apply_separate_2dictator(prof, N2, 0.0)
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
        assert apply_coordinate_median(prof) == Lottery.degenerate(point(1, 1, 1))

    def test_majority_origin(self):
        prof = Profile.from_rows([(0, 0, 0), (0, 0, 0), (0, 0, 0), (1, 1, 1), (1, 1, 1)])
        assert apply_coordinate_median(prof) == Lottery.degenerate(point(0, 0, 0))

    def test_single_agent_identity(self):
        prof = Profile((point(4, 2),))
        assert apply_coordinate_median(prof) == Lottery.degenerate(point(4, 2))

    def test_even_n_takes_lower_median(self):
        prof = Profile.from_rows([(0, 3), (1, 0)])
        assert apply_coordinate_median(prof) == Lottery.degenerate(point(0, 0))

    def test_order_independent(self):
        rows = [(0, 5), (2, 1), (9, 3)]
        out = apply_coordinate_median(Profile.from_rows(rows))
        assert apply_coordinate_median(Profile.from_rows(rows[::-1])) == out


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
    assert resolve("rand_med")(prof, N2) == apply_rand_med(prof)

    def custom(profile, norm):
        return Lottery.degenerate(profile.agent(1))

    assert resolve(custom)(prof, N2) == Lottery.degenerate(point(0, 0))


def test_apply_is_deterministic():
    prof = Profile.from_rows([(0.1, 0.7), (2.3, -1.1), (0.5, 0.9)])
    for spec in MECHS:
        assert apply(spec, prof, N2) == apply(spec, prof, N2)
