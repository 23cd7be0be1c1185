"""Shared fixtures, hypothesis strategies, and test-side oracles.

The brute-force helpers here are deliberately independent of the package's
optimizers and checkers: they re-derive expected values the slow way so
the fast paths have something honest to be compared against.
"""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from facilab.geometry import GEOM_TOL, DimensionMismatch, Lottery, Norm, Point, Profile, mass_gap_stack

STANDARD_NORMS = [Norm(1.0), Norm(1.5), Norm(2.0), Norm(3.0), Norm(math.inf)]
STRICT_NORMS = [Norm(1.5), Norm(2.0), Norm(3.0)]
# (norm string, d) pairs for bitwise parity tests.  The transform path runs
# twice: A=1,0.5,0,1 has exact products, so only the rough matrices tell
# one-row (gemv) rounding from a stacked gemm's
PARITY_NORMS = [("lp:2", 2), ("lp:1", 2), ("lp:inf", 2), ("lp:3;w=1,2", 2), ("lp:2;A=1,0.5,0,1", 2)]
PARITY_NORMS += [("lp:2;A=1.1,0.3,-0.2,0.9", 2), ("lp:1.5;A=0.9,0.1,0.3,-0.2,1.3,0.7,0.4,0.6,1.1", 3)]
PARITY_NORMS += [("lp:2", 3), ("lp:1", 3), ("lp:inf", 3)]

coord = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def point_strategy(d: int):
    return st.lists(coord, min_size=d, max_size=d).map(lambda cs: Point(tuple(cs)))


def profile_strategy(d: int, min_n: int = 2, max_n: int = 5):
    return st.lists(point_strategy(d), min_size=min_n, max_size=max_n).map(
        lambda ps: Profile(tuple(ps))
    )


def lottery_strategy(d: int, max_atoms: int = 4):
    def build(rows):
        weights = [w for w, _ in rows]
        total = sum(weights)
        return Lottery(tuple((w / total, pt) for w, pt in rows))

    atom = st.tuples(st.floats(min_value=0.05, max_value=1.0), point_strategy(d))
    return st.lists(atom, min_size=1, max_size=max_atoms).map(build)


@pytest.fixture
def mean_mechanism():
    """Deliberately manipulable control: degenerate output at the average."""

    def mech(profile: Profile, norm: Norm) -> Lottery:
        return Lottery.degenerate(Point.from_array(profile.as_array.mean(axis=0)))

    return mech


def brute_force_minimize(fn, lo, hi, steps=161):
    """Dense-grid oracle over a box; returns (best value, best point array)."""
    axes = [np.linspace(lo[k], hi[k], steps) for k in range(len(lo))]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    vals = np.array([fn(p) for p in pts])
    k = int(np.argmin(vals))
    return float(vals[k]), pts[k]


def brute_social_cost(profile: Profile, norm: Norm, point_arr) -> float:
    return float(
        sum(norm(point_arr - p.as_array()) for p in profile.points)
    )


def brute_max_cost(profile: Profile, norm: Norm, point_arr) -> float:
    return float(
        max(norm(point_arr - p.as_array()) for p in profile.points)
    )


def is_on_segment(
    a: Point, b: Point, q: Point, norm: Norm, tol: float = GEOM_TOL
) -> bool:
    """Betweenness test ||a-q|| + ||q-b|| <= ||a-b|| + tol.

    A correct segment-membership characterization only for strictly convex
    norms; callers fall back to the Euclidean norm otherwise.
    """
    return norm.distance(a, q) + norm.distance(q, b) <= norm.distance(a, b) + tol


def lotteries_match(
    lhs: Lottery, rhs: Lottery, tol: float = GEOM_TOL
) -> tuple[bool, float]:
    """Compare two lotteries as measures, tolerating near-duplicate atoms.

    Returns (match, worst weight deviation) from :func:`mass_gap_stack`.
    Clustering makes the comparison robust to one side having merged exact
    duplicates that the other side kept a hair apart.
    """
    if lhs.dim != rhs.dim:
        raise DimensionMismatch("lottery dimensions differ")
    sides = (lhs.weights_array[None], lhs.points_array[None], rhs.weights_array[None], rhs.points_array[None])
    worst = float(mass_gap_stack(*sides, tol)[0])
    return worst <= tol, worst
