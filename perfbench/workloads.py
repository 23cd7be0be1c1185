"""The benchmark's three workloads: seeded inputs, one task, and its check.

Each workload is a closed loop over a fixed grid of task classes.  The
grid order never depends on the seed, so every run does the same mix of
work; the seed only picks the concrete inputs inside each class.  The
library receives nothing but those generated inputs.

Checks compare meanings, not bytes: verdict statuses, interval overlap
and documented bounds, with relative tolerances far above the last-bit
noise a legitimate optimizer change can introduce.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

# The timed calls go through the module attributes (cli.run_check, ...)
# so the tracer's rebinding of those attributes sees them.
from facilab import cli, objectives, search
from facilab.geometry import Norm, Profile, parse_norm
from facilab.mechanisms import MechanismSpec, parse_mechanism
from facilab.objectives import Objective, approx_ratio
from facilab.properties import (
    check_cost_continuity,
    check_group_strategyproof_at,
    check_strategyproof_at,
    check_support_segment,
    check_translation_invariance,
    check_unanimity,
    check_uncompromising,
)
from facilab.search import SearchConfig, structured_profiles

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9  # interval and bound comparisons
SCALE_TOL = 1e-6  # scale-twin ratio agreement
SCALE_TWINS = (1e-300, 1e200)

AUDIT_MECHS = ("dictator:1", "rand_med", "rand_center", "sep2d:a=0", "coord_median")
AUDIT_NORMS = ("lp:2", "lp:1", "lp:inf", "lp:3;w=1,2")
AUDIT_N, AUDIT_D, AUDIT_BUDGET = 3, 2, 2000

# sep2d is left out of pricing: its output is not translation-equivariant,
# and pricing moves every pool profile by a seeded similarity transform.
PRICING_MECHS = ("dictator:1", "rand_med", "rand_center", "coord_median")
PRICING_NORMS = {
    2: ("lp:1", "lp:1.5", "lp:2", "lp:3", "lp:inf", "lp:2;w=1,4", "lp:2;A=1,0.5,0,1"),
    3: ("lp:1", "lp:1.5", "lp:2", "lp:3", "lp:inf", "lp:2;w=1,4,2", "lp:2;A=1,0.5,0,0,1,0.5,0,0,1"),
}
PRICING_NS = (3, 4, 5, 6)
PRICING_POOL_SEED = 0x9B1C_E5
PRICING_POOL_PER_CLASS = 6

HUNT_MECHS = ("dictator:1", "rand_med", "rand_center")
HUNT_NS = (3, 4, 5)
HUNT_NORMS = ("lp:2", "lp:1")
HUNT_D = 2
HUNT_EXTRA_RESTARTS = 2  # seeded random restarts after the structured families
HUNT_LOCAL_STEPS = 8

OBJECTIVES = (Objective.MAX_COST, Objective.SOCIAL_COST)


def task_rng(seed: int, *index: int) -> np.random.Generator:
    """Independent stream per (seed, task index)."""
    return np.random.default_rng([seed % 2**63, *index])


def documented_bound(kind: str, objective: Objective, n: int) -> Optional[float]:
    """Approximation ratios the source paper proves for these mechanisms."""
    mc = objective is Objective.MAX_COST
    if kind == "dictator":
        return 2.0 if mc else float(n - 1)
    if kind == "rand_med":
        return (1.5 if n == 2 else 2.0) if mc else n / 2.0
    if kind == "rand_center" and mc:
        return 2.0 - 1.0 / n
    return None


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))


@dataclass
class Outcome:
    """The checks on one task: failures, certified intervals, scale probes."""

    failures: list
    certified: list  # (lo, hi, ratio) of each certified ratio result
    probes: int = 0
    probe_failures: int = 0


def _ratio_failures(lo: float, ratio: float, hi: float, bound: Optional[float]) -> list:
    out = []
    if not (math.isfinite(ratio) and math.isfinite(lo)):
        out.append(f"non-finite ratio {ratio} or lower end {lo}")
    if not lo <= ratio * (1 + REL_TOL) or not ratio <= hi * (1 + REL_TOL):
        out.append(f"ratio {ratio!r} outside its interval [{lo!r}, {hi!r}]")
    if hi < 1.0 - REL_TOL:
        out.append(f"certified upper end {hi!r} below 1")
    if bound is not None and lo > bound * (1 + REL_TOL):
        out.append(f"certified lower end {lo!r} exceeds the documented bound {bound!r}")
    return out


def _overlap(lo: float, hi: float, ref_lo: float, ref_hi: float) -> bool:
    return lo <= ref_hi * (1 + REL_TOL) and ref_lo <= hi * (1 + REL_TOL)


# -- audit ---------------------------------------------------------------------


@dataclass(frozen=True)
class AuditTask:
    mech: str
    norm_text: str
    spec: MechanismSpec
    norm: Norm
    seed: int


class Audit:
    """``cli.run_check`` (the function behind ``facilab check``) at a small budget."""

    def __init__(self, seed: int, reference: dict) -> None:
        self.seed = seed
        self.claims = reference["claims"]
        self.mechs = [(m, parse_mechanism(m)) for m in AUDIT_MECHS]
        self.norms = [(t, parse_norm(t)) for t in AUDIT_NORMS]

    @staticmethod
    def key(mech: str, norm_text: str) -> str:
        return f"{mech} {norm_text}"

    def task(self, i: int) -> AuditTask:
        # 5 mechanisms and 4 norms are coprime, so i -> (i mod 5, i mod 4)
        # walks all 20 pairs, and any run of consecutive tasks holds each
        # mechanism and each norm equally often, whatever its length.
        mech, spec = self.mechs[i % len(self.mechs)]
        text, norm = self.norms[i % len(self.norms)]
        seed = int(task_rng(self.seed, i).integers(2**31))
        return AuditTask(mech, text, spec, norm, seed)

    def run(self, task: AuditTask):
        report, code = cli.run_check(task.spec, task.norm, AUDIT_N, AUDIT_D, task.seed, AUDIT_BUDGET)
        return report, code, report.to_json()

    def check(self, task: AuditTask, output) -> Outcome:
        report, code, text = output
        failures = []
        if code != 0:
            failures.append(f"run_check exited {code}")
        claims = self.claims[self.key(task.mech, task.norm_text)]
        parsed = json.loads(text)
        if parsed["extra"]["expected"] != claims:
            failures.append(f"report claims {parsed['extra']['expected']}, reference claims {claims}")
        for v in parsed["verdicts"]:
            # "info" is no claim: any status, a found witness included, is consistent
            claim = claims.get(v["property"], "info")
            status = "pass" if v["passed"] else ("inconclusive" if v["inconclusive"] else "fail")
            if claim != "info" and status != claim:
                failures.append(f"{v['property']} is {status}, the reference claims {claim}")
        for v in report.verdicts:
            if v.witness is not None and not _replays(task, v):
                failures.append(f"{v.name} witness does not replay")
        return Outcome(failures, [])


def _replays(task: AuditTask, verdict) -> bool:
    """Re-run the checker that produced a witness; it must fail again.

    The 2-dictatorship witness is one profile out of a set, so it has no
    single-profile checker to replay through and is accepted as is.
    """
    w, spec, norm = verdict.witness, task.spec, task.norm
    if verdict.name == "strategyproof":
        again = check_strategyproof_at(spec, w.profile, w.coalition[0], w.misreports[0], norm)
    elif verdict.name == "group_strategyproof":
        again = check_group_strategyproof_at(spec, w.profile, w.coalition, w.misreports, norm)
    elif verdict.name == "support_segment":
        again = check_support_segment(spec, w.profile, norm)
    elif verdict.name == "translation_invariance":
        shift = w.misreports[0] - w.profile.points[0]
        again = check_translation_invariance(spec, norm, [w.profile], [shift])
    elif verdict.name == "cost_continuity":
        again = check_cost_continuity(spec, w.profile, w.coalition[0], list(w.misreports), norm)
    elif verdict.name == "unanimity":
        again = check_unanimity(spec, norm, [w.profile.points[0]], n=w.profile.n)
    elif verdict.name == "uncompromising":
        again = check_uncompromising(spec, w.profile, norm)
    else:
        return True
    return not again.passed and not again.inconclusive


# -- pricing -------------------------------------------------------------------


@dataclass(frozen=True)
class PricingTask:
    item: int
    spec: MechanismSpec
    profile: Profile
    norm: Norm
    objective: Objective


def pricing_classes() -> list:
    return [
        (n, d, text, obj)
        for n in PRICING_NS
        for d in (2, 3)
        for text in PRICING_NORMS[d]
        for obj in OBJECTIVES
    ]


class Pricing:
    """``objectives.approx_ratio`` on pool profiles under a seeded similarity.

    The pool and its certified intervals are committed; each task moves a
    pool profile by a seeded positive scale and translation, which leaves
    every ratio unchanged in exact arithmetic, so the committed interval
    stays a valid reference for any seed.
    """

    def __init__(self, seed: int, reference: dict) -> None:
        self.seed = seed
        self.items = reference["items"]
        self.classes = pricing_classes()
        k = PRICING_POOL_PER_CLASS
        self.norms = {t: parse_norm(t) for d in (2, 3) for t in PRICING_NORMS[d]}
        self.specs = {m: parse_mechanism(m) for m in PRICING_MECHS}
        self.rows = [np.asarray(item["rows"], dtype=float) for item in self.items]
        self.order = [task_rng(seed, 1, c).permutation(k) for c in range(len(self.classes))]

    def task(self, i: int) -> PricingTask:
        c = i % len(self.classes)
        cycle = i // len(self.classes)
        item = c * PRICING_POOL_PER_CLASS + int(self.order[c][cycle % PRICING_POOL_PER_CLASS])
        meta = self.items[item]
        rows = self.rows[item]
        rng = task_rng(self.seed, 2, i)
        scale = math.exp(rng.uniform(-1.5, 1.5))
        shift = rng.normal(size=rows.shape[1]) * 3.0
        return PricingTask(
            item,
            self.specs[meta["mech"]],
            Profile.from_rows(rows * scale + shift),
            self.norms[meta["norm"]],
            Objective(meta["objective"]),
        )

    def run(self, task: PricingTask):
        return objectives.approx_ratio(task.spec, task.profile, task.norm, task.objective)

    def check(self, task: PricingTask, result) -> Outcome:
        ref = self.items[task.item]
        bound = documented_bound(task.spec.kind, task.objective, task.profile.n)
        failures = _ratio_failures(result.lo, result.ratio, result.hi, bound)
        if not _overlap(result.lo, result.hi, ref["lo"], ref["hi"]):
            failures.append(
                f"interval [{result.lo!r}, {result.hi!r}] misses the reference [{ref['lo']!r}, {ref['hi']!r}]"
            )
        probes, probe_failures = self.scale_twins(task, result.ratio)
        return Outcome(failures, [(result.lo, result.hi, result.ratio)], probes, probe_failures)

    @staticmethod
    def scale_twins(task: PricingTask, ratio: float) -> tuple[int, int]:
        """Re-price the profile scaled far down and far up; ratios must not move."""
        failed = 0
        for factor in SCALE_TWINS:
            twin = Profile.from_rows(task.profile.as_array * factor)
            try:
                got = approx_ratio(task.spec, twin, task.norm, task.objective).ratio
            except Exception:  # any raise is a scale-invariance failure to count
                failed += 1
                continue
            if not (math.isfinite(got) and abs(got - ratio) <= SCALE_TOL * ratio):
                failed += 1
        return len(SCALE_TWINS), failed


# -- hunt ----------------------------------------------------------------------


@dataclass(frozen=True)
class HuntTask:
    combo: int
    spec: MechanismSpec
    norm: Norm
    objective: Objective
    n: int
    config: SearchConfig


def hunt_combos() -> list:
    # n varies fastest: task time grows with n, so every stretch of the loop
    # holds all three sizes and the median task sits inside the n=4 group
    # instead of in the gap between two groups.
    return [(m, obj, n, t) for t in HUNT_NORMS for obj in OBJECTIVES for m in HUNT_MECHS for n in HUNT_NS]


def hunt_restarts(n: int) -> int:
    return len(structured_profiles(n, HUNT_D)) + HUNT_EXTRA_RESTARTS


class Hunt:
    """``search.search_worst_ratio`` with the structured families plus a few
    seeded restarts.

    The structured families come first and do not depend on the seed, so
    the committed structured-only score is a floor every run must reach.
    """

    def __init__(self, seed: int, reference: dict) -> None:
        self.seed = seed
        self.floors = reference["structured_ratio"]
        self.combos = hunt_combos()
        self.norms = {t: parse_norm(t) for t in HUNT_NORMS}
        self.specs = {m: parse_mechanism(m) for m in HUNT_MECHS}
        self.restarts = {n: hunt_restarts(n) for n in HUNT_NS}

    @staticmethod
    def key(mech: str, objective: Objective, n: int, norm_text: str) -> str:
        return f"{mech} {objective.value} n={n} {norm_text}"

    def task(self, i: int) -> HuntTask:
        c = i % len(self.combos)
        mech, obj, n, text = self.combos[c]
        seed = int(task_rng(self.seed, i).integers(2**31))
        config = SearchConfig(rng_seed=seed, restarts=self.restarts[n], local_steps=HUNT_LOCAL_STEPS)
        return HuntTask(c, self.specs[mech], self.norms[text], obj, n, config)

    def run(self, task: HuntTask):
        return search.search_worst_ratio(task.spec, task.norm, task.objective, task.n, HUNT_D, task.config)

    def check(self, task: HuntTask, result) -> Outcome:
        mech, obj, n, text = self.combos[task.combo]
        bound = documented_bound(task.spec.kind, obj, n)
        failures = _ratio_failures(result.lo, result.ratio, result.hi, bound)
        floor = self.floors[self.key(mech, obj, n, text)]
        if result.ratio < floor * (1 - REL_TOL):
            failures.append(f"score {result.ratio!r} below the structured-family floor {floor!r}")
        replay = approx_ratio(task.spec, result.profile, task.norm, obj)
        if not _overlap(result.lo, result.hi, replay.lo, replay.hi) or replay.hi < result.ratio * (1 - REL_TOL):
            failures.append("extremal profile does not replay to a consistent interval")
        return Outcome(failures, [(result.lo, result.hi, result.ratio)])


WORKLOADS = {"audit": Audit, "pricing": Pricing, "hunt": Hunt}


def build(name: str, seed: int):
    """Load the committed reference and derive the seeded inputs."""
    return WORKLOADS[name](seed, load_reference(name))

