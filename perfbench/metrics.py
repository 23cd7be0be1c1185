"""Summary statistics the benchmark reports, kept free of facilab imports
so the self-tests can exercise them on hand-made inputs."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


@dataclass(frozen=True)
class Tail:
    """A tail order statistic with the percentile it sits at."""

    value: float
    percentile: float
    beyond: int
    samples: int


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """Highest percentile that still has ``beyond`` samples above it.

    With n sorted samples this is the (n - beyond)-th smallest, which sits
    at percentile 100 (n - beyond) / n.  With n <= beyond no percentile
    qualifies; the maximum is returned with the count actually beyond it
    (zero), so the caller can see the tail is not resolved.
    """
    if not samples:
        raise ValueError("tail of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return Tail(ordered[-1], 100.0, 0, n)
    k = n - beyond  # 1-based rank of the tail order statistic
    return Tail(ordered[k - 1], 100.0 * k / n, beyond, n)


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples)) if samples else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def norm_family(p: float, transformed: bool) -> str:
    """Optimizer family of a norm: ``affine`` when a transform is declared,
    otherwise by exponent (weights keep the family of their exponent)."""
    if transformed:
        return "affine"
    if p == 1.0:
        return "l1"
    if p == 2.0:
        return "l2"
    if p == math.inf:
        return "linf"
    return "lp"


FAMILIES = ("l1", "l2", "lp", "linf", "affine")


def cert_loose(lo: float, hi: float, ratio_value: float) -> bool:
    """Scale-free looseness of a certified ratio interval."""
    return math.isinf(hi) or hi - lo > 1e-5 * ratio_value
