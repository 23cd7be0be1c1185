"""Geometry layer: norm evaluation, lotteries, segment math, invariants."""

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
    Profile,
    _merge_masks,
    canonical_atoms,
    canonical_stack,
    centroid,
    duplicate_rows,
    expected_cost_stack,
    expected_distance,
    fold,
    format_norm,
    mass_gap_stack,
    parse_norm,
    point,
    point_on_segment_at_distance,
    radius,
    stack_lotteries,
    strict_convexity_witness,
)

from conftest import PARITY_NORMS, STANDARD_NORMS, is_on_segment, lotteries_match, lottery_strategy, point_strategy


class TestNormEval:
    def test_euclidean_pythagorean(self):
        assert Norm(2.0)(point(3, 4)) == pytest.approx(5.0, abs=1e-12)

    def test_l1_sum_of_abs(self):
        assert Norm(1.0)(point(1, -2, 3)) == pytest.approx(6.0, abs=1e-12)

    def test_linf_max_abs(self):
        assert Norm(math.inf)(point(1, -2)) == pytest.approx(2.0, abs=1e-12)

    def test_weighted_norm(self):
        n = Norm(2.0, weights=(4.0, 1.0))
        assert n(point(1, 0)) == pytest.approx(2.0, abs=1e-12)

    def test_transformed_norm(self):
        n = Norm(2.0, transform=((2.0, 0.0), (0.0, 1.0)))
        assert n(point(1, 0)) == pytest.approx(2.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        n = Norm(2.0, weights=(1.0, 1.0))
        with pytest.raises(DimensionMismatch):
            n(point(1, 2, 3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Norm(2.0)(np.array([math.nan, 0.0]))

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            Norm(0.5)

    def test_strict_convexity_flag(self):
        assert not Norm(1.0).strictly_convex
        assert not Norm(math.inf).strictly_convex
        assert Norm(1.5).strictly_convex
        assert Norm(2.0, weights=(2.0, 3.0)).strictly_convex

    def test_large_exponent_does_not_overflow(self):
        assert Norm(1000.0)(point(3, 1)) == pytest.approx(3.0, abs=1e-6)
        # two coordinates tie at magnitude 7: value is 7 * 2^(1/600)
        assert Norm(600.0)(point(-7, 2, 7)) == pytest.approx(7.0 * 2 ** (1 / 600), rel=1e-12)

    def test_zero_vector_any_exponent(self):
        for p in (1.0, 1.0001, 2.0, 500.0, math.inf):
            assert Norm(p)(point(0, 0)) == 0.0


def _reduce_eval_many(norm: Norm, vs: np.ndarray) -> np.ndarray:
    """``Norm.eval_many`` as written with ``ufunc.reduce`` over the last axis."""
    if norm._matrix is not None:
        vs = vs @ norm._matrix.T
    u, w = np.abs(vs), norm._weight_arr
    if norm.p == math.inf:
        return (u if w is None else u * w).max(axis=-1)
    if norm.p == 1.0:
        return (u if w is None else u * w).sum(axis=-1)
    if w is not None:
        u = u * w ** (1.0 / norm.p)
    peak = u.max(axis=-1)
    u = (u / np.where(peak > 0.0, peak, 1.0)[..., None]) ** norm.p
    return peak * u.sum(axis=-1) ** (1.0 / norm.p)


def _wide_floats(rng, shape):
    """Normals scaled across +-30 decades, with a quarter of the entries
    replaced by signed zeros, NaN, infinities and ties at +-1."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 31, shape)
    special = rng.random(shape) < 0.25
    x[special] = rng.choice([-0.0, 0.0, math.nan, math.inf, -math.inf, 1.0, -1.0], special.sum())
    return x


@pytest.mark.parametrize("ufunc", [np.add, np.maximum, np.minimum, np.logical_and])
def test_fold_matches_reduce_bit_for_bit(ufunc):
    # numpy adds fewer than 8 terms left to right from +0.0 and pairwise from
    # 8 on; a numpy that changes either order must fail here
    rng = np.random.default_rng(17)
    for k in range(1, 10):
        for shape in [(301, k), (13, 23, k)]:
            x = _wide_floats(rng, shape[:-1] + (2 * k,))
            if ufunc is np.logical_and:
                x = x > 0.0
            base = x[..., :k]
            for a in (np.ascontiguousarray(base), base, x[..., ::2], x[::2, ..., :k], np.asfortranarray(base)):
                with np.errstate(invalid="ignore"):
                    want, got = ufunc.reduce(a, axis=-1), fold(ufunc, a)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (ufunc.__name__, k, a.shape, a.strides)


def test_fold_sums_lone_negative_zeros_to_positive_zero():
    for k in range(1, 8):
        assert math.copysign(1.0, fold(np.add, np.full((1, k), -0.0))[0]) == 1.0


def test_duplicate_rows_marks_first_occurrences():
    # -0.0 equals 0.0; a stack gives each row's own masks
    rows = np.array([[0.0, 1.0], [2.0, 3.0], [-0.0, 1.0], [2.0, 3.0], [5.0, 1.0]])
    same, lead = duplicate_rows(rows)
    assert lead.tolist() == [True, True, False, False, True]
    assert same.tolist() == [[a == b for b in rows.tolist()] for a in rows.tolist()]
    stack = np.stack([rows, rows[::-1]])
    assert duplicate_rows(stack)[1].tolist() == [lead.tolist(), [True, True, True, False, False]]


def _argmax_duplicates(pts):
    """``duplicate_rows`` as written before the merge masks: ``lead`` is the
    first ``True`` down each column of the duplicate table."""
    same = pts[..., :, None, 0] == pts[..., None, :, 0]
    for c in range(1, pts.shape[-1]):
        same &= pts[..., :, None, c] == pts[..., None, :, c]
    return same, same.argmax(axis=-2) == np.arange(pts.shape[-2])


def test_mask_leads_match_the_argmax_leads():
    # stacks of k = 1..65 rows drawn from few points, zeros of both signs,
    # so most rows repeat one before them; past 64 rows there are no masks
    rng = np.random.default_rng(28)
    zero = np.array([0.0, -0.0])
    for k in range(1, 66):
        pool = np.vstack([zero[rng.integers(0, 2, size=(4, 2))], rng.integers(-1, 2, size=(3, 2)).astype(float)])
        pts = pool[rng.integers(0, len(pool), size=(6, k))]
        want_same, want_lead = _argmax_duplicates(pts)
        same, masks, lead = _merge_masks(pts)
        assert same.tolist() == want_same.tolist() and lead.tolist() == want_lead.tolist()
        assert [x.tolist() for x in duplicate_rows(pts)] == [want_same.tolist(), want_lead.tolist()]
        assert [x.tolist() for x in duplicate_rows(pts[0])] == [want_same[0].tolist(), want_lead[0].tolist()]
        if k > 64:
            assert masks is None
            continue
        bits = [[sum(1 << j for j in range(k) if row[j]) for row in table] for table in want_same.tolist()]
        assert masks.dtype == np.uint64 and masks.tolist() == bits
        if k <= 60:  # canonical_stack's own limit
            w = rng.integers(1, 9, size=k).astype(float)
            w /= w.sum()
            out_w, out_p = canonical_stack(w, pts)
            for i in range(len(pts)):
                ref_w, ref_p = canonical_atoms(w, pts[i])
                width = len(ref_w)
                assert out_w[i, :width].tobytes() == ref_w.tobytes() and out_p[i, :width].tobytes() == ref_p.tobytes()
                assert not out_w[i, width:].any() and not out_p[i, width:].any()


def _old_expected_distance_stack(xs, weights, points, norm):
    """Each (p, d) agent's expected distance to its padded lottery, as the
    per-agent kernel computed it before the expected-cost kernel replaced it."""
    counts = (weights > 0.0).sum(axis=1)
    out = np.empty(len(xs))
    for k in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == k)
        diffs = points[rows, :k] - xs[rows, None, :]
        dists = norm.eval_many(diffs if k == 1 else diffs.reshape(-1, diffs.shape[-1]))
        out[rows] = np.matmul(weights[rows, None, :k], dists.reshape(len(rows), k, 1))[:, 0, 0]
    return out


def _old_cost_stack(per_atom, weights, points, xs, norm):
    """The max or social cost of each padded lottery to its (n, d) reports,
    as the objectives module computed it before the expected-cost kernel."""
    counts = (weights > 0.0).sum(axis=1)
    out = np.empty(len(xs))
    for k in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == k)
        diffs = points[rows, :k][:, :, None, :] - xs[rows][:, None, :, :]
        single = diffs.shape[-3] * diffs.shape[-2] == 1
        flat = diffs.reshape(-1, 1, diffs.shape[-1]) if single else diffs.reshape(-1, diffs.shape[-1])
        folded = fold(per_atom, norm.eval_many(flat).reshape(diffs.shape[:-1]))
        out[rows] = np.matmul(weights[rows, None, :k], folded[:, :, None])[:, 0, 0]
    return out


@pytest.mark.parametrize("norm_text,d", PARITY_NORMS, ids=[f"{t}-d{d}" for t, d in PARITY_NORMS])
def test_expected_cost_kernel_matches_both_old_kernels_bitwise(norm_text, d):
    # lotteries of k = 1..7 atoms drawn from a small pool with -0.0 and +0.0
    # coordinates, padded to 7, against n = 1..5 agents who often sit on atoms
    norm, rng = parse_norm(norm_text), np.random.default_rng(40 + d)
    pool = np.concatenate([rng.normal(size=(4, d)), np.zeros((1, d)), np.full((1, d), -0.0), np.eye(d)[:1]])
    pool[1, 0] = -0.0
    counts = np.tile(np.arange(1, 8), 3)
    weights, points = np.zeros((len(counts), 7)), np.zeros((len(counts), 7, d))
    for i, k in enumerate(counts):
        w = rng.random(k) + 0.05
        weights[i, :k], points[i, :k] = w / w.sum(), pool[rng.integers(len(pool), size=k)]
    for n in range(1, 6):
        xs = pool[rng.integers(len(pool), size=(len(counts), n))]
        for per_atom in (np.maximum, np.add):
            got = expected_cost_stack(per_atom, weights, points, xs, norm)
            assert got.tobytes() == _old_cost_stack(per_atom, weights, points, xs, norm).tobytes()
            for i in range(len(xs)):  # one-row stacks round as the row does in the stack
                one = (weights[i : i + 1], points[i : i + 1], xs[i : i + 1])
                assert expected_cost_stack(per_atom, *one, norm).tobytes() == got[i : i + 1].tobytes()
                assert _old_cost_stack(per_atom, *one, norm).tobytes() == got[i : i + 1].tobytes()
        for j in range(n):  # each agent alone: the expected distance
            old = _old_expected_distance_stack(xs[:, j], weights, points, norm)
            for per_atom in (np.maximum, np.add):
                assert expected_cost_stack(per_atom, weights, points, xs[:, j : j + 1], norm).tobytes() == old.tobytes()
            one = _old_expected_distance_stack(xs[:1, j], weights[:1], points[:1], norm)
            assert expected_cost_stack(np.add, weights[:1], points[:1], xs[:1, j : j + 1], norm).tobytes() == one.tobytes()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 8.0, math.inf])
def test_eval_many_matches_reduce_formula_bit_for_bit(p):
    rng = np.random.default_rng(int(p) if p < math.inf else 99)
    for d in range(1, 10):
        weights = tuple(rng.uniform(0.2, 3.0, d).tolist())
        transform = tuple(map(tuple, (np.eye(d) + 0.3 * rng.standard_normal((d, d))).tolist()))
        for norm in (Norm(p), Norm(p, weights=weights), Norm(p, weights=weights, transform=transform)):
            flat = rng.standard_normal((40, d)) * 10.0 ** rng.integers(-8, 9, (40, 1))
            flat[::7] = 0.0  # all-zero rows take the peak == 0 path
            flat[3, 0] = -0.0
            stack = flat.reshape(8, 5, d)
            for vs in (flat, stack, stack[:, :1], flat[:1], stack[:, ::2]):
                want = _reduce_eval_many(norm, vs)
                assert norm.eval_many(vs).tobytes() == want.tobytes(), (format_norm(norm), vs.shape)


@given(v=point_strategy(3), c=st.floats(-5, 5, allow_nan=False))
@settings(max_examples=200)
def test_homogeneity_sampled(v, c):
    for norm in STANDARD_NORMS:
        assert norm(v.scale(c)) == pytest.approx(abs(c) * norm(v), abs=GEOM_TOL)


@given(u=point_strategy(3), v=point_strategy(3))
@settings(max_examples=200)
def test_triangle_inequality_sampled(u, v):
    for norm in STANDARD_NORMS:
        assert norm(u + v) <= norm(u) + norm(v) + GEOM_TOL


@given(v=point_strategy(2))
@settings(max_examples=200)
def test_nonnegative_and_definite(v):
    norms = STANDARD_NORMS + [
        Norm(2.0, weights=(0.5, 3.0)),
        Norm(1.5, transform=((1.0, 0.5), (0.0, 1.0))),
    ]
    for norm in norms:
        val = norm(v)
        assert val >= 0.0
        if max(abs(c) for c in v.coords) > 1e-6:
            assert val > 0.0  # zero only at the zero vector
        assert norm(v.scale(0.0)) == 0.0


def test_norm_string_round_trip():
    for text in ("lp:2", "lp:1.5;w=1,2", "lp:inf", "lp:2;A=1,0,0,1", "lp:3;w=2,1;A=1,0,0,2"):
        norm = parse_norm(text)
        assert parse_norm(format_norm(norm)) == norm


def test_norm_string_rejects_garbage():
    for text in ("l2", "lp:2;q=1", "lp:2;A=1,2,3"):
        with pytest.raises(ValueError):
            parse_norm(text)


class TestLottery:
    def test_merges_duplicates_and_sorts(self):
        lot = Lottery(((0.25, point(1, 0)), (0.5, point(0, 0)), (0.25, point(1, 0))))
        assert lot.atoms == ((0.5, point(0, 0)), (0.5, point(1, 0)))

    def test_zero_weight_atoms_dropped(self):
        lot = Lottery(((1.0, point(0, 0)), (0.0, point(1, 1))))
        assert lot.is_degenerate

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            Lottery(((0.5, point(0, 0)),))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            Lottery(((1.5, point(0, 0)), (-0.5, point(1, 0))))

    @given(lot=lottery_strategy(2))
    @settings(max_examples=150)
    def test_canonicalization_idempotent(self, lot):
        again = Lottery(lot.atoms)
        assert again.atoms == lot.atoms


class TestDerivedQuantities:
    def test_expected_distance_hand_values(self):
        n2 = Norm(2.0)
        lot = Lottery(((0.5, point(3, 4)), (0.5, point(0, 0))))
        assert expected_distance(point(0, 0), lot, n2) == pytest.approx(2.5, abs=1e-12)
        assert expected_distance(point(7, 7), Lottery.degenerate(point(7, 7)), n2) == 0.0
        lot2 = Lottery(((0.25, point(1, 0)), (0.75, point(2, 0))))
        assert expected_distance(point(0, 0), lot2, n2) == pytest.approx(1.75, abs=1e-12)

    def test_centroid_hand_values(self):
        assert centroid(Lottery(((0.5, point(0, 0)), (0.5, point(2, 0))))) == point(1, 0)
        assert centroid(Lottery.degenerate(point(3, -1))) == point(3, -1)
        assert centroid(Lottery(((0.25, point(0, 0)), (0.75, point(4, 0))))) == point(3, 0)

    def test_radius_hand_values(self):
        n2 = Norm(2.0)
        assert radius(Lottery(((0.5, point(0, 0)), (0.5, point(2, 0)))), n2) == pytest.approx(1.0)
        assert radius(Lottery.degenerate(point(5, 5)), n2) == 0.0
        lot = Lottery(((0.25, point(0, 0)), (0.75, point(4, 0))))
        assert radius(lot, n2) == pytest.approx(1.5, abs=1e-12)

    @given(x=point_strategy(2), lot=lottery_strategy(2))
    @settings(max_examples=300)
    def test_jensen_centroid_dominance(self, x, lot):
        for norm in STANDARD_NORMS:
            assert expected_distance(x, lot, norm) >= norm.distance(x, centroid(lot)) - GEOM_TOL


class TestStrictConvexityWitness:
    def test_l1_axis_pair(self):
        witness = strict_convexity_witness(Norm(1.0), trials=5, rng_seed=0, d=2)
        assert witness is not None
        x, y = witness
        n1 = Norm(1.0)
        assert n1(x) == pytest.approx(1.0, abs=GEOM_TOL)
        assert n1(y) == pytest.approx(1.0, abs=GEOM_TOL)
        assert n1(x + y) == pytest.approx(2.0, abs=GEOM_TOL)

    def test_strictly_convex_norms_have_no_witness(self):
        for p in (1.5, 2.0, 3.0):
            assert strict_convexity_witness(Norm(p), trials=300, rng_seed=1, d=2) is None

    def test_linf_sign_flip_pair(self):
        witness = strict_convexity_witness(Norm(math.inf), trials=5, rng_seed=0, d=2)
        assert witness is not None
        x, y = witness
        ninf = Norm(math.inf)
        assert ninf(x + y) == pytest.approx(ninf(x) + ninf(y), abs=GEOM_TOL)
        assert max(abs(a - b) for a, b in zip(x.coords, y.coords)) > 1e-6

    def test_requires_dimension(self):
        with pytest.raises(ValueError):
            strict_convexity_witness(Norm(2.0), trials=5, rng_seed=0)


class TestSegment:
    def test_interior_point(self):
        got = point_on_segment_at_distance(point(2, 0), point(5, 0), 2.0, Norm(2.0))
        assert got == point(4, 0)

    def test_zero_distance_returns_start(self):
        assert point_on_segment_at_distance(point(1, 2), point(5, 5), 0.0, Norm(2.0)) == point(1, 2)

    def test_full_length(self):
        got = point_on_segment_at_distance(point(0, 0), point(0, 3), 3.0, Norm(2.0))
        assert got == point(0, 3)

    def test_too_far_rejected(self):
        with pytest.raises(ValueError):
            point_on_segment_at_distance(point(0, 0), point(1, 0), 2.0, Norm(2.0))

    def test_collapsed_segment_rejected(self):
        with pytest.raises(ValueError):
            point_on_segment_at_distance(point(0, 0), point(0, 0), 1.0, Norm(2.0))

    @given(
        a=point_strategy(2),
        b=point_strategy(2),
        t=st.floats(0, 1, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_round_trip_distance(self, a, b, t):
        for norm in STANDARD_NORMS:
            length = norm.distance(a, b)
            if length < 1e-6:
                continue
            dist = t * length
            got = point_on_segment_at_distance(a, b, dist, norm)
            assert norm.distance(a, got) == pytest.approx(dist, abs=GEOM_TOL)
            assert is_on_segment(a, b, got, norm)


class TestProfile:
    def test_dimension_consistency_enforced(self):
        with pytest.raises(DimensionMismatch):
            Profile((point(0, 0), point(1, 2, 3)))

    def test_replace_and_translate(self):
        prof = Profile.from_rows([(0, 0), (2, 0)])
        assert prof.replaced(2, point(5, 5)).agent(2) == point(5, 5)
        shifted = prof.translate(point(1, 1))
        assert shifted.agent(1) == point(1, 1)

    def test_agent_indices_are_one_based(self):
        prof = Profile.from_rows([(0, 0), (2, 0)])
        assert prof.agent(1) == point(0, 0)
        with pytest.raises(ValueError):
            prof.agent(0)


class TestLotteriesMatch:
    def test_near_duplicate_atoms_cluster(self):
        eps = 1e-12
        lhs = Lottery(((0.5, point(1, 0)), (0.25, point(0, 0)), (0.25, point(2, 0))))
        rhs = Lottery(
            ((0.25, point(1, 0)), (0.25, point(1 + eps, 0)), (0.25, point(0, 0)), (0.25, point(2, 0)))
        )
        ok, dev = lotteries_match(lhs, rhs)
        assert ok and dev <= GEOM_TOL

    def test_interleaved_coordinates_still_cluster(self):
        # a far-apart atom sorting between two near-identical ones must not split them
        ulp = 1e-16
        lhs = Lottery(((0.5, point(0.5, -0.7)), (0.5, point(0.5, -1.0))))
        rhs = Lottery(((0.5, point(0.5 - ulp, -0.7)), (0.5, point(0.5, -1.0))))
        ok, dev = lotteries_match(lhs, rhs)
        assert ok, dev

    def test_chained_atoms_form_one_cluster(self):
        # a and b lie 1.8e-9 apart, beyond the tolerance, but c links them
        lhs = Lottery(((0.5, point(0, 0)), (0.5, point(1.8e-9, 0))))
        rhs = Lottery.degenerate(point(0.9e-9, 0))
        ok, dev = lotteries_match(lhs, rhs)
        assert ok and dev == 0.0
        ok, dev = lotteries_match(rhs, lhs)
        assert ok and dev == 0.0

    def test_stack_matches_pair_by_pair(self):
        lots = [
            Lottery(((0.5, point(0, 0)), (0.5, point(1.8e-9, 0)))),
            Lottery.degenerate(point(0.9e-9, 0)),
            Lottery(((0.25, point(1, 0)), (0.75, point(0, 2)))),
            Lottery(((0.5, point(1, 1e-12)), (0.5, point(0, 2)))),
        ]
        pairs = [(a, b) for a in lots for b in lots]
        lw, lp = stack_lotteries([(a.weights_array, a.points_array) for a, _ in pairs], 2)
        rw, rp = stack_lotteries([(b.weights_array, b.points_array) for _, b in pairs], 2)
        gaps = mass_gap_stack(lw, lp, rw, rp)
        assert gaps.tolist() == [lotteries_match(a, b)[1] for a, b in pairs]
        assert gaps.reshape(4, 4)[2, 3] == 0.25

    def test_detects_mass_mismatch(self):
        lhs = Lottery.degenerate(point(0, 0))
        rhs = Lottery(((0.5, point(0, 0)), (0.5, point(3, 0))))
        ok, dev = lotteries_match(lhs, rhs)
        assert not ok and dev == pytest.approx(0.5)
