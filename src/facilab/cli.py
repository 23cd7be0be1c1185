"""Command-line orchestration: evaluation, property suites, ratio hunts,
and canned reproduction scenarios, with machine-readable reports.

Reports are canonical: floats are serialized with 17 significant digits,
keys in fixed order, and nothing time- or host-dependent enters the JSON,
so re-running a command with the same seed and version produces
byte-identical output.  Wall-clock runtime is printed on the console only.

Exit codes: 0 consistent, 1 a property outcome contradicts the documented
expectation for that mechanism, 2 usage, parse or file errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .geometry import (
    GEOM_TOL,
    Lottery,
    Norm,
    Point,
    Profile,
    centroid,
    format_norm,
    parse_norm,
    radius,
)
from .mechanisms import MechanismSpec, apply, describe, parse_mechanism
from .objectives import Objective, approx_ratio
from .properties import (
    PropertyVerdict,
    Witness,
    check_2dictatorship,
    check_cost_continuity,
    check_group_strategyproof_at,
    check_support_segment,
    check_translation_invariance,
    check_unanimity,
    check_uncompromising,
)
from .search import (
    DISCUSSION_PROFILE,
    SearchConfig,
    _misreport_witnesses,
    _rng,
    _structured,
    search_worst_ratio,
)

CHECK_MAX_AGENTS = 16  # check's largest --n: its subset stacks and coalition queue grow as 2**n

PROPERTIES = (
    "unanimity",
    "translation_invariance",
    "strategyproof",
    "group_strategyproof",
    "support_segment",
    "2dictatorship",
    "cost_continuity",
    "uncompromising",
)

# -- canonical serialization ---------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def canonical_json(value) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit floats."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def point_json(pt: Point) -> list:
    return [float(c) for c in pt.coords]


def profile_json(profile: Profile) -> dict:
    return {"d": profile.d, "points": [point_json(p) for p in profile.points]}


def lottery_json(lot: Lottery) -> list:
    return [{"weight": float(w), "point": point_json(p)} for w, p in lot.atoms]


def witness_json(w: Witness) -> dict:
    return {
        "profile": profile_json(w.profile),
        "coalition": list(w.coalition),
        "misreports": [point_json(p) for p in w.misreports],
        "per_agent_delta": [
            {"agent": i, "cost_before": b, "cost_after": a}
            for i, b, a in w.per_agent_delta
        ],
        "note": w.note,
    }


def verdict_json(v: PropertyVerdict) -> dict:
    return {
        "property": v.name,
        "passed": v.passed,
        "inconclusive": v.inconclusive,
        "margin": v.margin,
        "witness": witness_json(v.witness) if v.witness is not None else None,
        "note": v.note,
    }


@dataclass
class ExperimentReport:
    scenario: str
    spec: str
    norm: str
    seed: int
    objective_values: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    ratio_interval: Optional[tuple[float, float]] = None
    witnesses: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    runtime_ms: int = 0
    tool_version: str = __version__

    def to_json(self) -> str:
        # runtime_ms stays out of the canonical form: reports must be
        # byte-identical across re-runs with the same seed and version.
        payload = {
            "scenario": self.scenario,
            "spec": self.spec,
            "norm": self.norm,
            "seed": self.seed,
            "tool_version": self.tool_version,
            "objective_values": self.objective_values,
            "verdicts": [verdict_json(v) for v in self.verdicts],
            "ratio_interval": list(self.ratio_interval) if self.ratio_interval else None,
            "witnesses": [witness_json(w) for w in self.witnesses],
            "extra": self.extra,
        }
        return canonical_json(payload) + "\n"

    def write(self, path: Optional[str]) -> None:
        if path:
            Path(path).write_text(self.to_json(), encoding="utf-8")
            print(f"report written to {path}")


# -- profile file IO -----------------------------------------------------------


def load_profile(path: str) -> Profile:
    """Read {"d": int, "points": [[...], ...]} with field-level diagnostics."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise ValueError(f"cannot read profile file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ValueError(
            f"profile file {path} is not valid JSON (line {err.lineno}, column {err.colno})"
        ) from err
    if not isinstance(raw, dict) or "points" not in raw:
        raise ValueError(f"profile file {path}: expected an object with a 'points' field")
    points = raw["points"]
    if not isinstance(points, list) or not points:
        raise ValueError(f"profile file {path}: 'points' must be a nonempty list")
    d = raw.get("d")
    if d is not None and (isinstance(d, bool) or not isinstance(d, int) or d < 1):
        raise ValueError(f"profile file {path}: 'd' must be a positive integer, got {d!r}")
    rows = []
    for idx, row in enumerate(points):
        coords = [_real(x) for x in row] if isinstance(row, list) else None
        if coords is None or None in coords or (d is not None and len(coords) != d):
            shape = "reals" if d is None else f"{d} reals"
            raise ValueError(f"profile file {path}: point {idx} must be a list of {shape}")
        rows.append(coords)
    return Profile.from_rows(rows)


def _real(x) -> Optional[float]:
    """A JSON number as a finite float, or None (booleans are not numbers)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    try:
        value = float(x)
    except OverflowError:  # an integer beyond the float range
        return None
    return value if math.isfinite(value) else None


# -- property suite ------------------------------------------------------------


def expected_outcomes(spec: MechanismSpec, n: int, d: int, norm: Norm) -> dict:
    """Documented behavior per mechanism: pass / fail / info (no claim)."""
    exp = {name: "pass" for name in PROPERTIES}
    exp.update(spec.claims(n, d, norm))
    if d == 1:
        # segment/dictatorship characterizations need d >= 2; geometry checks soften
        exp["support_segment"] = "pass"
        exp["2dictatorship"] = "info"
    return exp


def _meets(want: str, verdict: PropertyVerdict) -> bool:
    """Whether a verdict is consistent with its expected pass / fail / info."""
    return want == "info" or verdict.passed == (want == "pass")


def _sp_search_verdict(name: str, witness: Optional[Witness]) -> PropertyVerdict:
    if witness is None:
        return PropertyVerdict(name, True, 0.0, note="no validated witness within budget")
    margin = max(after - before for _, before, after in witness.per_agent_delta)
    return PropertyVerdict(name, False, margin, witness)


def _check_profiles(spec: MechanismSpec, n: int, d: int, seed: int) -> np.ndarray:
    """A check's probe profiles: the structured families and four draws."""
    xs = np.concatenate([_structured(n, d), _rng(seed, 987).normal(size=(4, n, d)) * 1.5])
    if spec.a is not None:
        # pin profiles on both sides of the branch constant, moving agent 1
        # of a profile whose agents 2 and 3 differ: with x2 = x3 the segments
        # x1x2 and x1x3 coincide, and one dictator pair can fit every probe
        pins = np.repeat(xs[np.argmax((xs[:, 1] != xs[:, 2]).any(axis=1))][None], 2, axis=0)
        pins[:, 0, 0] = spec.a + np.array([0.7, -0.7])
        xs = np.concatenate([xs, pins])
    return xs


def run_check(
    spec: MechanismSpec, norm: Norm, n: int, d: int, seed: int, budget: int
) -> tuple[ExperimentReport, int]:
    restarts = max(8, min(300, budget // 250))
    config = SearchConfig(rng_seed=seed, restarts=restarts, local_steps=20)
    profiles = _check_profiles(spec, n, d, seed)
    gen = _rng(seed, 13)
    zs = gen.normal(size=(24, d)) * 2.0
    # shifts: three draws, then steps along e1, across the branch constant if any
    steps = [1.5] + ([] if spec.a is None else [spec.a + 1.0, spec.a - 2.0])
    shifts = np.concatenate([gen.normal(size=(3, d)), np.outer(steps, np.eye(d)[0])])
    moves = profiles[:6].reshape(-1, 1, d) + gen.normal(size=(6 * n, 8, d)) * 0.4  # every agent of 6 profiles
    sp, gsp = _misreport_witnesses(spec, norm, n, d, config)
    verdicts = [
        check_unanimity(spec, norm, zs, n=n),
        check_translation_invariance(spec, norm, profiles[:8], shifts),
        _sp_search_verdict("strategyproof", sp),
        _sp_search_verdict("group_strategyproof", gsp),
        check_support_segment(spec, profiles, norm),
        check_2dictatorship(spec, profiles, norm),
        check_cost_continuity(spec, np.repeat(profiles[:6], n, axis=0), np.tile(np.arange(1, n + 1), 6), moves, norm),
        check_uncompromising(spec, np.concatenate([np.repeat(zs[:1, None], n, axis=1), profiles[:5]]), norm),
    ]

    expected = expected_outcomes(spec, n, d, norm)
    exit_code = 0 if all(_meets(expected.get(v.name, "info"), v) for v in verdicts) else 1

    report = ExperimentReport(
        scenario="check",
        spec=describe(spec),
        norm=format_norm(norm),
        seed=seed,
        verdicts=verdicts,
        extra={
            "n": n,
            "d": d,
            "budget": budget,
            "strictly_convex_norm": norm.strictly_convex,
            "expected": expected,
            "d1_note": (
                "d=1 run: the dictatorship/2-dictatorship characterizations assume d >= 2"
                if d == 1
                else None
            ),
        },
    )
    return report, exit_code


# -- commands -------------------------------------------------------------------
#
# Each command returns (report, exit code, console lines), with code None
# for a command that judges nothing; main times, prints and writes them.


def cmd_evaluate(args) -> tuple[ExperimentReport, None, list[str]]:
    profile = load_profile(args.profile)
    spec = parse_mechanism(args.mech)
    norm = parse_norm(args.norm)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        lot = apply(spec, profile, norm)
        rr_mc = approx_ratio(spec, profile, norm, Objective.MAX_COST, args.budget)
        rr_sc = approx_ratio(spec, profile, norm, Objective.SOCIAL_COST, args.budget)
        cen = centroid(lot)
        rad = radius(lot, norm)
    for name, rr in (("max", rr_mc), ("social", rr_sc)):
        if not all(map(math.isfinite, (rr.cost, rr.opt.value, rr.opt.certified_gap))):
            opt = rr.opt
            raise ValueError(f"{name} cost overflows: cost {rr.cost}, optimum {opt.value} +/- {opt.certified_gap}")

    lines = [
        f"mechanism {describe(spec)} on {profile.n} agents in d={profile.d} ({format_norm(norm)})",
        "output lottery:",
        *(f"  weight {w:.17g} at {p.coords}" for w, p in lot.atoms),
        f"centroid {cen.coords}  radius {rad:.17g}",
        f"max cost      {rr_mc.cost:.17g}  (optimum {rr_mc.opt.value:.17g} +/- {rr_mc.opt.certified_gap:.3g})",
        f"social cost   {rr_sc.cost:.17g}  (optimum {rr_sc.opt.value:.17g} +/- {rr_sc.opt.certified_gap:.3g})",
        f"mc ratio      {rr_mc.ratio:.12g}  certified [{rr_mc.lo:.12g}, {rr_mc.hi:.12g}]",
        f"sc ratio      {rr_sc.ratio:.12g}  certified [{rr_sc.lo:.12g}, {rr_sc.hi:.12g}]",
    ]
    report = ExperimentReport(
        scenario="evaluate",
        spec=describe(spec),
        norm=format_norm(norm),
        seed=args.seed,
        objective_values={
            "mc": rr_mc.cost,
            "sc": rr_sc.cost,
            "opt_mc": rr_mc.opt.value,
            "opt_mc_gap": rr_mc.opt.certified_gap,
            "opt_sc": rr_sc.opt.value,
            "opt_sc_gap": rr_sc.opt.certified_gap,
            "mc_ratio": rr_mc.ratio,
            "mc_ratio_lo": rr_mc.lo,
            "mc_ratio_hi": rr_mc.hi,
            "sc_ratio": rr_sc.ratio,
            "sc_ratio_lo": rr_sc.lo,
            "sc_ratio_hi": rr_sc.hi,
            "radius": rad,
        },
        extra={
            "profile": profile_json(profile),
            "lottery": lottery_json(lot),
            "centroid": point_json(cen),
        },
    )
    return report, None, lines


def cmd_check(args) -> tuple[ExperimentReport, int, list[str]]:
    if args.n > CHECK_MAX_AGENTS:
        raise ValueError(f"check needs --n <= {CHECK_MAX_AGENTS}: its searches grow as 2**n")
    spec = parse_mechanism(args.mech)
    norm = parse_norm(args.norm)
    if args.n < spec.min_agents:
        raise ValueError(f"{describe(spec)} needs --n >= {spec.min_agents}")
    report, exit_code = run_check(spec, norm, args.n, args.d, args.seed, args.budget)
    expected = report.extra["expected"]
    lines = [f"property suite for {report.spec} ({report.norm}, n={args.n}, d={args.d}, seed={args.seed})"]
    for v in report.verdicts:
        want = expected.get(v.name, "info")
        mark = "OK" if _meets(want, v) else "MISMATCH"
        lines.append(
            f"  {v.name:24s} {v.status:12s} margin {v.margin:+.3e}  expected {want:4s}  {mark}"
            + (f"  [{v.note}]" if v.note else "")
        )
    if report.extra.get("d1_note"):
        lines.append(f"note: {report.extra['d1_note']}")
    return report, exit_code, lines


def cmd_ratio(args) -> tuple[ExperimentReport, None, list[str]]:
    spec = parse_mechanism(args.mech)
    norm = parse_norm(args.norm)
    objective = Objective.parse(args.obj)
    config = SearchConfig(
        rng_seed=args.seed,
        restarts=max(8, min(200, args.budget // 250)),
        local_steps=24,
    )
    result = search_worst_ratio(spec, norm, objective, args.n, args.d, config)
    bound = spec.bound(objective, args.n)
    lines = [
        f"worst {objective.value} ratio for {describe(spec)} over n={args.n}, d={args.d}: "
        f"{result.ratio:.9f} certified [{result.lo:.9f}, {result.hi:.9f}] "
        f"({result.evaluations} evaluations)",
        f"documented bound: {bound:.9f}" if bound is not None else "documented bound: n/a",
        "extremal profile:",
        *(f"  {p.coords}" for p in result.profile.points),
    ]
    report = ExperimentReport(
        scenario="ratio",
        spec=describe(spec),
        norm=format_norm(norm),
        seed=args.seed,
        objective_values={
            "objective": objective.value,
            "ratio": result.ratio,
            "cost": result.cost,
            "opt_value": result.opt.value,
            "opt_gap": result.opt.certified_gap,
            "theory_bound": bound,
        },
        ratio_interval=(result.lo, result.hi),
        extra={
            "n": args.n,
            "d": args.d,
            "evaluations": result.evaluations,
            "profile": profile_json(result.profile),
        },
    )
    return report, None, lines


def _scenario_l1_median(seed: int, budget: int) -> tuple[ExperimentReport, int, list[str]]:
    norm = Norm(1.0)
    profile = DISCUSSION_PROFILE
    spec = MechanismSpec("coord_median")
    truthful = apply(spec, profile, norm)
    coalition = (1, 2, 3)
    mis = Point((0.0, 0.0, 0.0))
    verdict = check_group_strategyproof_at(spec, profile, coalition, [mis] * 3, norm)
    moved = profile.replaced_many(coalition, [mis] * 3)
    after = apply(spec, moved, norm)
    lines = [
        "coordinate median under L1, 3 dimensions, 5 agents",
        f"profile: {[p.coords for p in profile.points]}",
        f"truthful output: {truthful.atoms[0][1].coords}",
        f"coalition {coalition} misreports {mis.coords}",
        f"new output: {after.atoms[0][1].coords}",
    ]
    for agent, before, afterc in verdict.witness.per_agent_delta if verdict.witness else ():
        lines.append(f"  agent {agent}: cost {before:g} -> {afterc:g}")
    ok = (
        not verdict.passed
        and verdict.witness is not None
        and all(abs(b - 2.0) < GEOM_TOL and abs(a - 1.0) < GEOM_TOL
                for _, b, a in verdict.witness.per_agent_delta)
    )
    report = ExperimentReport(
        scenario="l1-median",
        spec=describe(spec),
        norm=format_norm(norm),
        seed=seed,
        verdicts=[verdict],
        witnesses=[verdict.witness] if verdict.witness else [],
        extra={
            "profile": profile_json(profile),
            "truthful_output": lottery_json(truthful),
            "post_misreport_output": lottery_json(after),
        },
    )
    return report, 0 if ok else 1, lines


def _scenario_table1(seed: int, budget: int) -> tuple[ExperimentReport, int, list[str]]:
    norm = Norm(2.0)
    spec, dictator = MechanismSpec("rand_med"), MechanismSpec("dictator", index=1)
    rows: list[dict] = []
    lines = ["approximation-bound summary (measured with the two-agent mixed mechanism)"]
    for objective in (Objective.MAX_COST, Objective.SOCIAL_COST):
        for n in range(2, 7):
            config = SearchConfig(
                rng_seed=seed, restarts=max(8, min(40, budget // 600)), local_steps=16
            )
            result = search_worst_ratio(spec, norm, objective, n, 2, config)
            det = dictator.bound(objective, n)
            rand = spec.bound(objective, n)
            rows.append(
                {
                    "objective": objective.value,
                    "n": n,
                    "deterministic_bound": det,
                    "randomized_bound": rand,
                    "measured_lo": result.lo,
                    "measured_hi": result.hi,
                }
            )
            lines.append(
                f"  {objective.value} n={n}: deterministic {det:g}, randomized {rand:g}, "
                f"measured [{result.lo:.6f}, {result.hi:.6f}]"
            )
    report = ExperimentReport(
        scenario="table1",
        spec=describe(spec),
        norm=format_norm(norm),
        seed=seed,
        extra={"rows": rows},
    )
    return report, 0, lines


def _scenario_mech2_demo(seed: int, budget: int) -> tuple[ExperimentReport, int, list[str]]:
    norm = Norm(2.0)
    a = 0.0
    spec = MechanismSpec("sep2d", a=a)
    cases = [
        ("short segment (r >= a, |r-a| < ||x1-x2||)", Profile.from_rows([(2, 0), (5, 0), (0, 4)])),
        ("capped at x2 (r >= a, |r-a| >= ||x1-x2||)", Profile.from_rows([(2, 0), (3, 0), (0, 4)])),
        ("other branch (r < a, companion on x1x3)", Profile.from_rows([(-1, 0), (5, 0), (-3, 4)])),
    ]
    lines = [f"two-dictator mechanism with branch constant a={a:g}"]
    payload = []
    for label, profile in cases:
        lot = apply(spec, profile, norm)
        r = profile.agent(1).coords[0]
        lines.append(f"  case: {label}")
        lines.append(f"    profile {[p.coords for p in profile.points]} (r={r:g})")
        for w, p in lot.atoms:
            lines.append(f"    weight {w:.6f} at {p.coords}")
        payload.append(
            {
                "label": label,
                "r": r,
                "profile": profile_json(profile),
                "lottery": lottery_json(lot),
            }
        )
    report = ExperimentReport(
        scenario="mech2-demo",
        spec=describe(spec),
        norm=format_norm(norm),
        seed=seed,
        extra={"cases": payload},
    )
    return report, 0, lines


def _scenario_procaccia_n2(seed: int, budget: int) -> tuple[ExperimentReport, int, list[str]]:
    norm = Norm(2.0)
    profile = Profile.from_rows([(0, 0), (2, 0)])
    spec = MechanismSpec("rand_med")
    rr = approx_ratio(spec, profile, norm, Objective.MAX_COST, budget)
    config = SearchConfig(rng_seed=seed, restarts=20, local_steps=16)
    worst = search_worst_ratio(spec, norm, Objective.MAX_COST, 2, 2, config)
    ok = abs(rr.ratio - 1.5) <= GEOM_TOL and worst.ratio <= 1.5 + 1e-6
    lines = [
        "two-agent mixed mechanism, maximum cost",
        f"profile ((0,0),(2,0)): ratio {rr.ratio:.12f} (documented 3/2)",
        f"worst ratio over searched profiles: {worst.ratio:.12f}",
    ]
    report = ExperimentReport(
        scenario="procaccia-n2",
        spec=describe(spec),
        norm=format_norm(norm),
        seed=seed,
        objective_values={
            "ratio_at_demo_profile": rr.ratio,
            "worst_ratio": worst.ratio,
        },
        ratio_interval=(worst.lo, worst.hi),
        extra={"profile": profile_json(profile), "worst_profile": profile_json(worst.profile)},
    )
    return report, 0 if ok else 1, lines


# name -> (seed, budget) -> (report, exit code, console lines)
SCENARIOS = {
    "l1-median": _scenario_l1_median,
    "table1": _scenario_table1,
    "mech2-demo": _scenario_mech2_demo,
    "procaccia-n2": _scenario_procaccia_n2,
}


def write_csv(path: str, rows: Sequence[dict]) -> None:
    header = ["objective", "n", "deterministic_bound", "randomized_bound", "measured_lo", "measured_hi"]
    out = [",".join(header)]
    for row in rows:
        cells = []
        for key in header:
            val = row[key]
            cells.append(f"{val:.17g}" if isinstance(val, float) else str(val))
        out.append(",".join(cells))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
    print(f"csv written to {path}")


def cmd_repro(args) -> tuple[ExperimentReport, int, list[str]]:
    if args.scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {args.scenario!r} (choose from {', '.join(SCENARIOS)})")
    return SCENARIOS[args.scenario](args.seed, args.budget)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def seed_int(text: str) -> int:
    """A 64-bit seed: an integer in [0, 2**64)."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**64), got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facilab",
        description="Verification bench for single-facility location mechanisms in normed spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options the commands share, each declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=seed_int, default=0)
    common.add_argument("--out", default=None, help="write the JSON report here")
    priced = argparse.ArgumentParser(add_help=False, parents=[common])
    priced.add_argument("--mech", required=True, help="dictator:i | rand_med | rand_center | sep2d:a=<r> | coord_median")
    priced.add_argument("--norm", default="lp:2", help="lp:<p>[;w=...][;A=...], p=inf allowed")
    sized = argparse.ArgumentParser(add_help=False, parents=[priced])
    sized.add_argument("--n", type=positive_int, default=3)
    sized.add_argument("--d", type=positive_int, default=2)

    def command(name, func, parent, budget, text):
        p = sub.add_parser(name, parents=[parent], help=text)
        p.add_argument("--budget", type=positive_int, default=budget)
        p.set_defaults(func=func)
        return p

    p_eval = command("evaluate", cmd_evaluate, priced, 60_000, "run a mechanism on a profile file and price it")
    p_eval.add_argument("--profile", required=True, help="JSON file {'d': int, 'points': [[...], ...]}")
    command("check", cmd_check, sized, 20_000, "run the full property suite for a mechanism")
    p_ratio = command("ratio", cmd_ratio, sized, 10_000, "search for the worst-case approximation ratio")
    p_ratio.add_argument("--obj", required=True, help="mc | sc")
    p_repro = command("repro", cmd_repro, common, 12_000, "run a canned reproduction scenario")
    p_repro.add_argument("scenario", help=" | ".join(SCENARIOS))
    p_repro.add_argument("--csv", default=None, help="table1 only: write the summary CSV here")
    return parser


def _check_outputs(*paths: Optional[str]) -> None:
    """Refuse, before any work, an output path that cannot be written."""
    for path in filter(None, paths):
        target = Path(path)
        if target.is_dir():
            raise ValueError(f"cannot write {path}: it is a directory")
        if not target.parent.is_dir():
            raise ValueError(f"cannot write {path}: no directory {target.parent}")
        if not os.access(target if target.exists() else target.parent, os.W_OK):
            raise ValueError(f"cannot write {path}: permission denied")


def _print_lines(lines) -> None:
    """Print each line to stdout.  A reader that closed the pipe early is
    no error: stdout goes to ``os.devnull`` from then on, so the command
    still writes its files and exits with its own code, and the flush at
    interpreter exit raises nothing."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    csv = getattr(args, "csv", None)
    try:
        _check_outputs(args.out, csv)
        started = time.perf_counter()
        report, code, lines = args.func(args)
        _print_lines(lines)
        report.runtime_ms = int((time.perf_counter() - started) * 1000)
        _print_lines([f"runtime {report.runtime_ms} ms" + ("" if code is None else f"; exit {code}")])
        report.write(args.out)
        if csv:
            if "rows" in report.extra:
                write_csv(csv, report.extra["rows"])
            else:
                print("note: --csv only applies to the table1 scenario", file=sys.stderr)
        return code or 0
    except (ValueError, OSError) as err:  # OSError: an output file that cannot be written
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
