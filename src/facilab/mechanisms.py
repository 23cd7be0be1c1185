"""Facility-location mechanisms as pure kernels on report arrays.

A kernel maps (spec, (m, n, d) stack of reports, norm) to the canonical
(weights, points) of each row's output lottery, which *is* the randomness,
zero-padded to one width (:func:`~facilab.geometry.canonical_stack`).  The
searches score whole candidate stacks through :func:`kernel_of`; one
profile is the m = 1 case, and :func:`apply` and :func:`resolve` wrap it
as Profile x Norm -> Lottery.  Every kind takes the norm, used or
not.  Agent indices are 1-based.  Each kind is one entry of
:data:`REGISTRY`, which parsing, dispatch and the CLI's expectations read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from .geometry import (
    DimensionMismatch,
    Lottery,
    Norm,
    Profile,
    canonical_stack,
    stack_lotteries,
)

if TYPE_CHECKING:
    from .objectives import Objective

MechanismFn = Callable[[Profile, Norm], Lottery]
# (m, n, d) report stack x norm -> padded canonical (weights, points); see kernel_of
ArrayKernel = Callable[[np.ndarray, Norm], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class MechanismSpec:
    """Which mechanism to run, with its parameters.

    * ``dictator`` needs ``index`` (1-based agent).
    * ``sep2d`` needs the branch constant ``a``.
    """

    kind: str
    index: Optional[int] = None
    a: Optional[float] = None

    def __post_init__(self) -> None:
        entry = REGISTRY.get(self.kind)
        if entry is None:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        if entry.param == "index":
            if self.index is None or int(self.index) < 1:
                raise ValueError(f"{self.kind} needs a 1-based agent index")
            object.__setattr__(self, "index", int(self.index))
        elif self.index is not None:
            raise ValueError(f"{self.kind} takes no agent index")
        if entry.param == "a":
            if self.a is None or not math.isfinite(float(self.a)):
                raise ValueError(f"{self.kind} needs a finite constant a")
            object.__setattr__(self, "a", float(self.a))
        elif self.a is not None:
            raise ValueError(f"{self.kind} takes no constant a")

    @property
    def min_agents(self) -> int:
        """Fewest agents the mechanism runs on; a dictator must be one of them."""
        return max(REGISTRY[self.kind].min_agents, self.index or 1)

    def bound(self, objective: Objective, n: int) -> Optional[float]:
        """Documented worst-case ratio at n agents, or None where none is proved."""
        rule = REGISTRY[self.kind].bounds.get(objective.value)
        return rule(n) if rule else None

    def claims(self, n: int, d: int, norm: Norm) -> dict[str, str]:
        """Claimed property outcomes other than pass: "fail", or "info" for no claim."""
        return REGISTRY[self.kind].claims(n, d, norm)


@dataclass(frozen=True)
class MechanismEntry:
    """What one kind is and claims: ``bounds`` maps an objective value
    (mc/sc) to its proved ratio bound at n agents, ``claims`` maps
    (n, d, norm) to the property outcomes other than pass."""

    kernel: Callable[[MechanismSpec, np.ndarray, Norm], tuple[np.ndarray, np.ndarray]]
    min_agents: int
    param: Optional[str] = None  # "index", "a" or None
    bounds: dict[str, Callable[[int], float]] = field(default_factory=dict)
    claims: Callable[[int, int, Norm], dict[str, str]] = lambda n, d, norm: {}


def parse_mechanism(text: str) -> MechanismSpec:
    """Parse CLI syntax: dictator:1, rand_med, rand_center, sep2d:a=0.0, coord_median."""
    text = text.strip()
    kind, colon, arg = text.partition(":")
    entry = REGISTRY.get(kind)
    if entry is None or bool(colon) != (entry.param is not None):
        raise ValueError(f"unknown mechanism string {text!r}")
    if entry.param == "index":
        return MechanismSpec(kind, index=int(arg))
    if entry.param == "a":
        if not arg.startswith("a="):
            raise ValueError(f"{kind} parameter must look like a=<real>: {text!r}")
        return MechanismSpec(kind, a=float(arg[2:]))
    return MechanismSpec(kind)


def format_mechanism(spec: MechanismSpec) -> str:
    param = REGISTRY[spec.kind].param
    if param == "index":
        return f"{spec.kind}:{spec.index}"
    if param == "a":
        return f"{spec.kind}:a={spec.a:.17g}"
    return spec.kind


MechanismLike = Union[MechanismSpec, str, MechanismFn]


def resolve(mech: MechanismLike) -> MechanismFn:
    """Turn a spec, spec string, or callable into a Profile x Norm -> Lottery."""
    if isinstance(mech, str):
        mech = parse_mechanism(mech)
    return partial(apply, mech) if isinstance(mech, MechanismSpec) else mech


def kernel_of(mech: MechanismLike) -> ArrayKernel:
    """The mechanism as an array kernel.

    The kernel maps an (m, n, d) stack of report arrays to zero-padded
    (m, k) weights and (m, k, d) points.  A bare callable is mapped row by
    row, through one Profile and one Lottery per row.
    """
    if isinstance(mech, str):
        mech = parse_mechanism(mech)
    if isinstance(mech, MechanismSpec):
        return partial(_run, mech)
    return partial(_adapted, mech)


def _adapted(mech: MechanismFn, xs: np.ndarray, norm: Norm) -> tuple[np.ndarray, np.ndarray]:
    lots = [mech(Profile.from_rows(row), norm) for row in xs]
    if any(lot.dim != xs.shape[2] for lot in lots):
        raise DimensionMismatch("mechanism output and reports differ in dimension")
    return stack_lotteries([(lot.weights_array, lot.points_array) for lot in lots], xs.shape[2])


def describe(mech: MechanismLike) -> str:
    if isinstance(mech, MechanismSpec):
        return format_mechanism(mech)
    if isinstance(mech, str):
        return format_mechanism(parse_mechanism(mech))
    return getattr(mech, "__name__", repr(mech))


def apply(spec: MechanismSpec, profile: Profile, norm: Norm) -> Lottery:
    """Run the mechanism; output is a canonical lottery."""
    weights, points = _run(spec, profile.as_array[None], norm)
    return Lottery(tuple(zip(weights[0].tolist(), map(tuple, points[0].tolist()))))


def _run(spec: MechanismSpec, xs: np.ndarray, norm: Norm) -> tuple[np.ndarray, np.ndarray]:
    if xs.shape[1] < spec.min_agents:
        raise ValueError(f"{format_mechanism(spec)} needs at least {spec.min_agents} agents")
    return REGISTRY[spec.kind].kernel(spec, xs, norm)


# -- kernels: (spec, (m, n, d) report stack, norm) -> canonical_stack output --


def _dictator(spec: MechanismSpec, xs: np.ndarray, norm: Norm):
    """Always the dictator's own report; everyone else is ignored."""
    return canonical_stack([1.0], xs[:, spec.index - 1 : spec.index])


def _rand_med(spec: MechanismSpec, xs: np.ndarray, norm: Norm):
    """x1 with weight 1/4, x2 with 1/4, their midpoint with 1/2.

    Agents beyond the first two never influence the output; when x1 = x2
    the atoms merge into a degenerate lottery.
    """
    midpoint = (xs[:, :1] + xs[:, 1:2]) / 2.0
    return canonical_stack([0.25, 0.25, 0.5], np.concatenate([xs[:, :2], midpoint], axis=1))


def _rand_center(spec: MechanismSpec, xs: np.ndarray, norm: Norm):
    """The mean report with weight 1/2, each agent's report with 1/(2n)."""
    n = xs.shape[1]
    atoms = np.concatenate([xs.mean(axis=1)[:, None], xs], axis=1)
    # n*z/n need not round back to z: a unanimous row merges onto its report
    unanimous = (xs == xs[:, :1]).all(axis=(1, 2))
    atoms[unanimous, 0] = xs[unanimous, 0]
    return canonical_stack([0.5] + [0.5 / n] * n, atoms)


def _sep2d(spec: MechanismSpec, xs: np.ndarray, norm: Norm):
    """Two-thirds on x1, one-third on a capped point along x1x2 or x1x3.

    With r the first raw coordinate of x1: for r >= a the companion point
    sits on segment x1x2 at distance min(|r - a|, ||x1 - x2||) from x1;
    otherwise it sits on segment x1x3 at distance min(|r - a|, ||x1 - x3||).
    The branch constant makes the mechanism sensitive to translations along
    the first coordinate.
    """
    x1 = xs[:, 0]
    r = x1[:, 0]
    partner = np.where((r >= spec.a)[:, None], xs[:, 1], xs[:, 2])
    gap = norm.eval_many((x1 - partner)[:, None, :])[:, 0]  # one-row norm calls
    target = np.minimum(np.abs(r - spec.a), gap)
    # a collapsed segment leaves the companion on x1 itself
    moved = (target > 0.0) & (gap > 1e-12)
    t = np.minimum(target / np.where(moved, gap, 1.0), 1.0)
    companion = np.where(moved[:, None], x1 + t[:, None] * (partner - x1), x1)
    return canonical_stack([2.0 / 3.0, 1.0 / 3.0], np.stack([x1, companion], axis=1))


def _coord_median(spec: MechanismSpec, xs: np.ndarray, norm: Norm):
    """Degenerate lottery at the coordinate-wise median.

    For even n the lower median is taken in each coordinate, which keeps
    the output deterministic and independent of agent order.
    """
    return canonical_stack([1.0], np.sort(xs, axis=1)[:, (xs.shape[1] - 1) // 2, None])


# -- the registry: claimed outcomes other than pass, then one entry per kind --


def _rand_center_claims(n: int, d: int, norm: Norm) -> dict[str, str]:
    if n < 3 or d < 2:
        return {"group_strategyproof": "info"}
    # the mean atom leaves every segment, and under a strictly convex norm
    # a coalition can pull it toward all of its members at once
    gsp = "fail" if norm.strictly_convex else "info"
    return {"group_strategyproof": gsp, "support_segment": "fail", "2dictatorship": "fail"}


def _sep2d_claims(n: int, d: int, norm: Norm) -> dict[str, str]:
    # the analysis needs |v_0| <= ||v||; under other norms nothing is claimed
    if norm.transform is None and (norm.weights is None or norm.weights[0] >= 1.0):
        return {"translation_invariance": "fail", "2dictatorship": "fail"}
    unclaimed = "strategyproof group_strategyproof translation_invariance 2dictatorship cost_continuity"
    return dict.fromkeys(unclaimed.split(), "info")


def _coord_median_claims(n: int, d: int, norm: Norm) -> dict[str, str]:
    claims = {"group_strategyproof": "info", "2dictatorship": "info"}
    if norm.transform is not None:  # the transform mixes the coordinates
        claims.update(strategyproof="info", cost_continuity="info")
    return claims


REGISTRY: dict[str, MechanismEntry] = {
    "dictator": MechanismEntry(
        kernel=_dictator,
        min_agents=1,
        param="index",
        bounds={"mc": lambda n: 2.0, "sc": lambda n: float(n - 1)},
    ),
    "rand_med": MechanismEntry(
        kernel=_rand_med,
        min_agents=2,
        bounds={"mc": lambda n: 1.5 if n == 2 else 2.0, "sc": lambda n: n / 2.0},
    ),
    "rand_center": MechanismEntry(
        kernel=_rand_center,
        min_agents=2,
        bounds={"mc": lambda n: 2.0 - 1.0 / n},
        claims=_rand_center_claims,
    ),
    "sep2d": MechanismEntry(
        kernel=_sep2d,
        min_agents=3,
        param="a",
        claims=_sep2d_claims,
    ),
    "coord_median": MechanismEntry(
        kernel=_coord_median,
        min_agents=1,
        claims=_coord_median_claims,
    ),
}

KINDS = tuple(REGISTRY)
