"""Geometric substrate: points, norms, profiles, finite-support lotteries.

Everything downstream (mechanisms, objectives, property checks) consumes
these types.  All types are immutable after construction and every
operation is pure.  The searches and the property checkers skip the types
and work on the arrays underneath: :func:`canonical_atoms` is the one
canonical form of a lottery, :class:`Lottery` is built on it, and
:func:`canonical_stack` and :func:`mass_gap_stack` apply it and the
lottery comparison to whole stacks of lotteries at once.
:func:`expected_cost_stack` is the one expected-cost kernel: it prices
every lottery of a stack, as one agent's expected distance or as a max or
social cost.  :func:`fold` reduces a short last axis (coordinates, agents)
column by column, bit for bit as numpy does and faster on tall arrays.

Tolerance ledger, shared across the package:

* ``WEIGHT_TOL`` (1e-12): lottery weight bookkeeping.
* ``GEOM_TOL`` (1e-9): geometric identities and pass/fail slack.
* ``IMPROVE_MARGIN`` (1e-6): strict-improvement threshold in violation
  searches.

The gap between ``GEOM_TOL`` and ``IMPROVE_MARGIN`` separates float noise
from genuine strict inequalities; outcomes landing in between are reported
as inconclusive rather than as either verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

WEIGHT_TOL = 1e-12
GEOM_TOL = 1e-9
IMPROVE_MARGIN = 1e-6


class DimensionMismatch(ValueError):
    """Operands live in different dimensions."""


@dataclass(frozen=True, slots=True)
class Point:
    """A location in R^d, d >= 1.  Coordinates are finite floats."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        coords = tuple(float(c) for c in self.coords)
        if len(coords) < 1:
            raise ValueError("a point needs at least one coordinate")
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"non-finite coordinate in {coords!r}")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def from_array(cls, arr: Iterable[float]) -> "Point":
        return cls(tuple(float(c) for c in arr))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.coords, dtype=dtype or float)

    def __add__(self, other: "Point") -> "Point":
        _same_dim(self, other)
        return Point(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Point") -> "Point":
        _same_dim(self, other)
        return Point(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, c: float) -> "Point":
        return Point(tuple(c * a for a in self.coords))


def point(*coords: float) -> Point:
    """Shorthand constructor: ``point(1, 2)`` instead of ``Point((1, 2))``."""
    return Point(tuple(coords))


def _same_dim(a: Point, b: Point) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


def fold(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1)``, bit for bit, as one elementwise call per
    column of a short last axis, which is several times faster on tall arrays.

    numpy adds fewer than 8 terms one at a time, left to right from +0.0 (a
    lone -0.0 sums to +0.0), and so does this; from 8 terms on it sums
    pairwise, so longer (and empty) axes go to ``ufunc.reduce`` itself.
    ``maximum``, ``minimum`` and ``logical_and`` give the same in any order,
    except that their reduction drops the sign of a negative NaN.
    """
    k = a.shape[-1]
    if not 0 < k < 8:
        return ufunc.reduce(a, axis=-1)
    if ufunc is np.add:
        out, start = a[..., 0] + 0.0, 1
    elif k == 1:
        return a[..., 0].copy()
    else:
        out, start = ufunc(a[..., 0], a[..., 1]), 2
    for j in range(start, k):
        ufunc(out, a[..., j], out=out)
    return out


def duplicate_rows(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal rows (``-0.0 == 0.0``) along the last two axes of an
    (..., k, d) array: ``same[..., i, j]`` says rows i and j are equal and
    ``lead[..., j]`` that row j is the first of its duplicates.  Compared
    one coordinate plane at a time, so no (..., k, k, d) array is built."""
    same = pts[..., :, None, 0] == pts[..., None, :, 0]
    for c in range(1, pts.shape[-1]):
        same &= pts[..., :, None, c] == pts[..., None, :, c]
    return same, same.argmax(axis=-2) == np.arange(pts.shape[-2])


@dataclass(frozen=True)
class Norm:
    """A declared-structure norm on R^d.

    ``p`` is the exponent in [1, inf].  Optional positive per-dimension
    ``weights`` enter as (sum_i w_i |u_i|^p)^(1/p) (for p = inf the value
    is max_i w_i |u_i|), and the optional invertible ``transform`` matrix
    is applied to the argument before evaluation.  The norm is strictly
    convex exactly when p lies strictly between 1 and infinity; weights
    and transform preserve that.
    """

    p: float
    weights: Optional[tuple[float, ...]] = None
    transform: Optional[tuple[tuple[float, ...], ...]] = None

    def __post_init__(self) -> None:
        p = float(self.p)
        if math.isnan(p) or p < 1.0:
            raise ValueError(f"norm exponent must be in [1, inf], got {p}")
        object.__setattr__(self, "p", p)
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            if not w or any(not math.isfinite(x) or x <= 0.0 for x in w):
                raise ValueError("norm weights must be positive finite reals")
            object.__setattr__(self, "weights", w)
        if self.transform is not None:
            rows = tuple(tuple(float(x) for x in row) for row in self.transform)
            mat = np.asarray(rows, dtype=float)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError("norm transform must be a square matrix")
            if not np.all(np.isfinite(mat)):
                raise ValueError("norm transform must be finite")
            if np.linalg.cond(mat) > 1e12:
                raise ValueError("norm transform must be invertible")
            if self.weights is not None and len(self.weights) != mat.shape[0]:
                raise ValueError("weights and transform disagree on dimension")
            object.__setattr__(self, "transform", rows)

    @property
    def strictly_convex(self) -> bool:
        return 1.0 < self.p < math.inf

    @property
    def dim(self) -> Optional[int]:
        """Pinned dimension, or None when the norm is dimension-agnostic."""
        if self.transform is not None:
            return len(self.transform)
        if self.weights is not None:
            return len(self.weights)
        return None

    @cached_property
    def _matrix(self) -> Optional[np.ndarray]:
        if self.transform is None:
            return None
        return np.asarray(self.transform, dtype=float)

    @cached_property
    def _weight_arr(self) -> Optional[np.ndarray]:
        if self.weights is None:
            return None
        return np.asarray(self.weights, dtype=float)

    def _check_dim(self, d: int) -> None:
        pinned = self.dim
        if pinned is not None and pinned != d:
            raise DimensionMismatch(f"norm expects dimension {pinned}, got {d}")

    def eval_many(self, vs: np.ndarray) -> np.ndarray:
        """Evaluate the norm on each row of an (m, d) array, or of a
        (g, r, d) stack, which returns (g, r).

        A transform maps a stack block by block, as g calls on (r, d)
        arrays would: one-row blocks keep the matrix-vector rounding of a
        one-row call.  The p-th powers are taken on max-factored
        coordinates so large exponents cannot overflow (ratios stay in
        [0, 1]).
        """
        vs = np.asarray(vs, dtype=float)
        if vs.ndim == 1:
            vs = vs[None, :]
        self._check_dim(vs.shape[-1])
        if self._matrix is not None:
            vs = vs @ self._matrix.T
        u = np.abs(vs)  # a fresh array: the steps below work in place
        w = self._weight_arr
        if self.p == math.inf:
            if w is not None:
                u *= w
            return fold(np.maximum, u)
        if self.p == 1.0:
            if w is not None:
                u *= w
            return fold(np.add, u)
        if w is not None:
            u *= w ** (1.0 / self.p)
        peak = fold(np.maximum, u)
        u /= np.where(peak > 0.0, peak, 1.0)[..., None]
        u **= self.p
        return peak * fold(np.add, u) ** (1.0 / self.p)

    def __call__(self, v) -> float:
        if isinstance(v, Point):
            arr = v.as_array()
        else:
            arr = np.asarray(v, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("norm argument must be finite")
        return float(self.eval_many(arr.reshape(1, -1))[0])

    def distance(self, a: Point, b: Point) -> float:
        _same_dim(a, b)
        return self(a.as_array() - b.as_array())


EUCLIDEAN = Norm(2.0)


def parse_norm(text: str) -> Norm:
    """Parse a norm string: ``lp:<p>`` with optional ``;w=...`` and ``;A=...``.

    ``p`` may be ``inf``; weights are comma-separated positive reals; the
    transform is a row-major comma-separated square matrix.
    """
    parts = [s.strip() for s in text.strip().split(";") if s.strip()]
    if not parts or not parts[0].startswith("lp:"):
        raise ValueError(f"norm string must start with 'lp:<p>': {text!r}")
    p_text = parts[0][3:]
    p = math.inf if p_text in ("inf", "Inf", "INF") else float(p_text)
    weights = None
    transform = None
    for part in parts[1:]:
        if part.startswith("w="):
            weights = tuple(float(x) for x in part[2:].split(","))
        elif part.startswith("A="):
            flat = [float(x) for x in part[2:].split(",")]
            d = math.isqrt(len(flat))
            if d * d != len(flat):
                raise ValueError(f"transform must be square, got {len(flat)} entries")
            transform = tuple(tuple(flat[i * d : (i + 1) * d]) for i in range(d))
        else:
            raise ValueError(f"unknown norm component {part!r}")
    return Norm(p, weights, transform)


def format_norm(norm: Norm) -> str:
    """Inverse of :func:`parse_norm`."""
    p = "inf" if norm.p == math.inf else _fmt(norm.p)
    out = f"lp:{p}"
    if norm.weights is not None:
        out += ";w=" + ",".join(_fmt(w) for w in norm.weights)
    if norm.transform is not None:
        out += ";A=" + ",".join(_fmt(x) for row in norm.transform for x in row)
    return out


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def canonical_atoms(weights, points) -> tuple[np.ndarray, np.ndarray]:
    """Canonical form of a finite lottery given as weights and (k, d) points.

    Exact-duplicate points are merged (weights summed with ``math.fsum`` in
    order of appearance), zero-weight atoms dropped, and atoms sorted
    lexicographically by coordinates; the total weight must equal 1 within
    ``WEIGHT_TOL``, and a full merge carries exactly 1.0.  Idempotent, so
    equality of canonical forms is bit-stable.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) and (pts.ndim != 2 or pts.shape[1] < 1 or not np.isfinite(pts).all()):
        raise ValueError("lottery atoms need finite points in one dimension d >= 1")
    groups: dict[tuple[float, ...], list[float]] = {}
    for w, coords in zip(weights, pts.tolist(), strict=True):
        w = float(w)
        if w < 0.0 or not math.isfinite(w):
            raise ValueError(f"atom weight must be a nonnegative real, got {w}")
        if w > 0.0:
            groups.setdefault(tuple(coords), []).append(w)
    if not groups:
        raise ValueError("lottery needs at least one atom with positive weight")
    merged = {coords: math.fsum(ws) for coords, ws in groups.items()}
    total = math.fsum(merged.values())
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(f"lottery weights sum to {total!r}, expected 1")
    if len(merged) == 1:
        # a full merge carries the whole unit mass exactly
        return np.ones(1), np.asarray(list(merged), dtype=float)
    keys = sorted(merged)
    return np.asarray([merged[k] for k in keys], dtype=float), np.asarray(keys, dtype=float)


def canonical_stack(weights, points) -> tuple[np.ndarray, np.ndarray]:
    """:func:`canonical_atoms` on every row of an (m, k, d) stack of atoms.

    ``weights`` is one (k,) list shared by all rows.  Returns zero-padded
    (m, K) weights and (m, K, d) points, K the largest atom count: row i
    holds ``canonical_atoms(weights, points[i])`` bit for bit in its first
    ``(out_weights[i] > 0).sum()`` entries.  Duplicates (``-0.0 == 0.0``)
    merge onto their first occurrence with the ``fsum`` of their weights,
    which does not depend on the order of the terms: one ``fsum`` per
    distinct set of merged positions.  The work runs along the rows, never
    along a short coordinate axis: duplicates are compared one coordinate
    plane at a time (:func:`duplicate_rows`), each atom's merged positions
    are one 64-bit mask, bit j for position j (an integer product of the
    duplicate table with the powers of two), and one ``np.lexsort`` on the
    coordinate planes orders the atoms, with the keys of merged atoms set
    to ``+inf`` so they sort after every first occurrence, each row's
    order read as flat indices into the stack.  A stack of one row, of
    more than 60 atoms, or one that :func:`canonical_atoms` might reject
    (weights not positive and finite or more than half of ``WEIGHT_TOL``
    off a total of 1, non-finite points), goes through
    :func:`canonical_atoms` row by row.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3:
        raise ValueError("a stack of lotteries needs (m, k, d) points")
    m, k, d = pts.shape
    w = np.asarray(weights, dtype=float)
    if m == 1:
        one_w, one_p = canonical_atoms(w, pts[0])
        return one_w[None], one_p[None]
    regular = ((w > 0.0) & (w < math.inf)).all() and abs(math.fsum(w) - 1.0) <= WEIGHT_TOL / 2
    if k > 60 or not regular or not np.isfinite(pts).all():
        return stack_lotteries([canonical_atoms(w, p) for p in pts], d)
    if k == 1:  # a lone atom carries the whole unit mass exactly
        return np.ones((m, 1)), pts.copy()
    same, lead = duplicate_rows(pts)
    out_w = np.where(lead, w, 0.0)
    width = k
    keys = [pts[..., c] for c in range(d - 1, -1, -1)]  # lexsort sorts by its last key first
    if not lead.all():
        masks = same.astype(np.uint64) @ (np.uint64(1) << np.arange(k, dtype=np.uint64))  # positions merged onto each atom
        multi = lead & (masks & (masks - 1) != 0)
        merged = masks[multi].tolist()
        sums = {mask: math.fsum(w[[j for j in range(k) if mask >> j & 1]]) for mask in set(merged)}
        out_w[multi] = [sums[mask] for mask in merged]
        counts = lead.sum(axis=1)
        out_w[counts == 1] = lead[counts == 1]  # a full merge carries exactly 1.0
        width = counts.max()
        keys = [np.where(lead, key, np.inf) for key in keys]  # the points are finite: merged atoms sort last
    order = np.lexsort(keys, axis=-1)[:, :width] + k * np.arange(m)[:, None]  # flat atom indices
    out_w, out_p = out_w.reshape(-1)[order], pts.reshape(-1, d)[order]
    out_p[out_w == 0.0] = 0.0
    return out_w, out_p


def stack_lotteries(rows, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack (weights, points) rows of different atom counts, zero-padded."""
    width = max(len(w) for w, _ in rows)
    weights, points = np.zeros((len(rows), width)), np.zeros((len(rows), width, d))
    for i, (w, p) in enumerate(rows):
        weights[i, : len(w)], points[i, : len(w)] = w, p
    return weights, points


@dataclass(frozen=True)
class Lottery:
    """Finite discrete probability distribution over points.

    Construction canonicalizes through :func:`canonical_atoms`, whose
    arrays stay on the lottery as ``weights_array`` and ``points_array``.
    """

    atoms: tuple[tuple[float, Point], ...]
    weights_array: np.ndarray = field(init=False, repr=False, compare=False)
    points_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = [pt if isinstance(pt, Point) else Point(tuple(pt)) for _, pt in self.atoms]
        if any(pt.dim != pts[0].dim for pt in pts):
            raise DimensionMismatch("lottery atoms live in different dimensions")
        weights, points = canonical_atoms([w for w, _ in self.atoms], [pt.coords for pt in pts])
        atoms = tuple(zip(weights.tolist(), (Point(tuple(row)) for row in points.tolist())))
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights_array", weights)
        object.__setattr__(self, "points_array", points)

    @classmethod
    def degenerate(cls, pt: Point) -> "Lottery":
        """Deterministic output embedded as a one-atom lottery."""
        return cls(((1.0, pt),))

    @property
    def dim(self) -> int:
        return self.atoms[0][1].dim

    @property
    def is_degenerate(self) -> bool:
        return len(self.atoms) == 1

    def translate(self, shift: Point) -> "Lottery":
        return Lottery(tuple((w, pt + shift) for w, pt in self.atoms))


def distance_matrix(points: np.ndarray, xs: np.ndarray, norm: Norm) -> np.ndarray:
    """Pairwise distances, rows = points, columns = profile agents; on
    (m, k, d) and (m, n, d) stacks one (k, n) matrix per row.  A matrix of
    one distance stays a one-row norm call."""
    diffs = points[..., :, None, :] - xs[..., None, :, :]
    single = diffs.shape[-3] * diffs.shape[-2] == 1
    flat = diffs.reshape(-1, 1, diffs.shape[-1]) if single else diffs.reshape(-1, diffs.shape[-1])
    return norm.eval_many(flat).reshape(diffs.shape[:-1])


def expected_cost_stack(
    per_atom: np.ufunc, weights: np.ndarray, points: np.ndarray, xs: np.ndarray, norm: Norm
) -> np.ndarray:
    """Expected cost of each zero-padded lottery (weights[i], points[i]) to
    the reports xs[i] of an (m, n, d) stack: the expectation over atoms of
    the agents' distances to the atom folded by ``per_atom``.

    ``np.maximum`` gives the max cost (not the maximum of per-agent
    expectations) and ``np.add`` the social cost; at n = 1 either is the
    agent's expected distance.  Rows are grouped by atom count k, each
    group makes one norm call and one batched (1, k) @ (k, 1) product,
    which rounds as ``w @ per_atom`` on the row alone.
    """
    return _owned_costs(per_atom, weights, points, None, xs, norm)


def _owned_costs(per_atom: np.ufunc, weights, points, owners, xs: np.ndarray, norm: Norm) -> np.ndarray:
    """:func:`expected_cost_stack`, where row i of ``xs`` reads the lottery
    at row owners[i] (row i itself when ``owners`` is None): each atom-count
    group gathers its atoms and weights once, by owner."""
    counts = (weights > 0.0).sum(axis=1)
    if owners is not None:
        counts = counts[owners]
    out = np.empty(len(xs))
    for k in np.flatnonzero(np.bincount(counts)).tolist():
        rows = np.flatnonzero(counts == k)
        at = rows if owners is None else owners[rows]
        folded = fold(per_atom, distance_matrix(points[at, :k], xs[rows], norm))
        out[rows] = np.matmul(weights[at, None, :k], folded[:, :, None])[:, 0, 0]
    return out


def expected_distance(x: Point, lot: Lottery, norm: Norm) -> float:
    """Expected norm distance between a fixed point and the lottery."""
    if x.dim != lot.dim:
        raise DimensionMismatch("point and lottery dimensions differ")
    atoms = lot.weights_array[None], lot.points_array[None]
    return float(expected_cost_stack(np.add, *atoms, x.as_array()[None, None], norm)[0])


def centroid(lot: Lottery) -> Point:
    """Expectation point of the lottery (coordinate-wise convex combination)."""
    return Point.from_array(lot.weights_array @ lot.points_array)


def radius(lot: Lottery, norm: Norm) -> float:
    """Expected distance from the lottery to its own centroid.

    Zero exactly when the lottery is degenerate.
    """
    if lot.is_degenerate:
        return 0.0
    c = lot.weights_array @ lot.points_array
    return float(expected_cost_stack(np.add, lot.weights_array[None], lot.points_array[None], c[None, None], norm)[0])


@dataclass(frozen=True)
class Profile:
    """Ordered reports of n agents sharing one dimension.

    Agent indices are 1-based throughout the public API.
    """

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        pts = tuple(
            p if isinstance(p, Point) else Point(tuple(p)) for p in self.points
        )
        if len(pts) < 1:
            raise ValueError("profile needs at least one agent")
        d = pts[0].dim
        if any(p.dim != d for p in pts):
            raise DimensionMismatch("profile points live in different dimensions")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "Profile":
        return cls(tuple(Point(tuple(row)) for row in rows))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return self.points[0].dim

    @cached_property
    def as_array(self) -> np.ndarray:
        return np.asarray([p.coords for p in self.points], dtype=float)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.as_array, dtype=dtype or float)

    def agent(self, i: int) -> Point:
        """Report of agent i (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"agent index {i} outside [1, {self.n}]")
        return self.points[i - 1]

    def replaced(self, i: int, pt: Point) -> "Profile":
        """Profile with agent i's report (1-based) replaced."""
        if not 1 <= i <= self.n:
            raise ValueError(f"agent index {i} outside [1, {self.n}]")
        pts = list(self.points)
        pts[i - 1] = pt
        return Profile(tuple(pts))

    def replaced_many(
        self, coalition: Sequence[int], reports: Sequence[Point]
    ) -> "Profile":
        """Profile after the coalition (1-based indices) jointly misreports."""
        if len(coalition) != len(reports):
            raise ValueError("coalition and reports must align")
        pts = list(self.points)
        for i, rep in zip(coalition, reports):
            if not 1 <= i <= self.n:
                raise ValueError(f"agent index {i} outside [1, {self.n}]")
            pts[i - 1] = rep
        return Profile(tuple(pts))

    def translate(self, shift: Point) -> "Profile":
        return Profile(tuple(p + shift for p in self.points))


def strict_convexity_witness(
    norm: Norm, trials: int, rng_seed: int, d: Optional[int] = None
) -> Optional[tuple[Point, Point]]:
    """Search for distinct unit vectors x, y with ||x + y|| = ||x|| + ||y||.

    Directed trials (axis-aligned pairs and single-sign-flip pairs of the
    all-ones pattern) run first so L1 and Linf witnesses are found
    deterministically; random unit pairs follow.  Returns None when no
    violation of strict convexity is found within ``GEOM_TOL``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if d is None:
        d = norm.dim
    if d is None:
        raise ValueError("dimension-agnostic norm: pass d explicitly")

    def unit(vec: np.ndarray) -> Optional[np.ndarray]:
        length = norm(vec)
        if length < 1e-12:
            return None
        return vec / length

    candidates: list[tuple[np.ndarray, np.ndarray]] = []
    eye = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            candidates.append((eye[i], eye[j]))
    ones = np.ones(d)
    for k in range(d):
        flipped = ones.copy()
        flipped[k] = -1.0
        candidates.append((ones, flipped))

    rng = np.random.Generator(np.random.Philox(key=rng_seed))
    for _ in range(trials):
        candidates.append((rng.normal(size=d), rng.normal(size=d)))

    for raw_x, raw_y in candidates:
        x = unit(raw_x)
        y = unit(raw_y)
        if x is None or y is None:
            continue
        if np.max(np.abs(x - y)) <= 1e-6:
            continue  # unit vectors must be distinct
        if abs(norm(x + y) - 2.0) <= GEOM_TOL:
            return Point.from_array(x), Point.from_array(y)
    return None


def point_on_segment_at_distance(a: Point, b: Point, dist: float, norm: Norm) -> Point:
    """The point on segment ab at norm-distance ``dist`` from a.

    Relies on absolute homogeneity: the point a + t(b-a) with
    t = dist / ||b-a|| sits exactly at distance ``dist`` from a.
    """
    _same_dim(a, b)
    if dist < -GEOM_TOL:
        raise ValueError(f"distance must be nonnegative, got {dist}")
    if dist <= 0.0:
        return a
    av, bv = a.as_array(), b.as_array()
    length = norm(av - bv)
    if length <= WEIGHT_TOL:
        raise ValueError("segment endpoints coincide but distance is positive")
    if dist > length + GEOM_TOL:
        raise ValueError(f"distance {dist} exceeds segment length {length}")
    t = min(dist / length, 1.0)
    return Point.from_array(av + t * (bv - av))


def mass_gap_stack(lw, lp, rw, rp, tol: float = GEOM_TOL) -> np.ndarray:
    """Worst per-cluster weight deviation between each pair of zero-padded
    lotteries (lw[i], lp[i]) and (rw[i], rp[i]).

    The atoms of both sides are chained into clusters wherever coordinates
    lie within ``tol`` (single linkage, so order does not matter); each
    side's weight in a cluster is summed in atom order, one term at a time.
    """
    w = np.concatenate([lw, rw], axis=1)
    p = np.concatenate([lp, rp], axis=1)
    live = w > 0.0
    reach = (np.abs(p[:, :, None] - p[:, None]).max(axis=-1) <= tol) & live[:, :, None] & live[:, None]
    for _ in range(w.shape[1].bit_length()):  # transitive closure by squaring
        reach = reach @ reach
    k = lw.shape[1]
    left = np.where(reach[..., :k], lw[:, None], 0.0).cumsum(axis=-1)[..., -1]
    right = np.where(reach[..., k:], rw[:, None], 0.0).cumsum(axis=-1)[..., -1]
    return np.abs(left - right).max(axis=1)
