"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single [criterion N] PASS line on success (run with
``pytest tests/test_acceptance.py -v -s`` to see them); an assertion
failure marks the criterion FAIL.  Budgets stay at desk scale: n <= 8,
d <= 3, at most ~1e5 mechanism evaluations per criterion.
"""

import json
import math

import numpy as np

from facilab.cli import main
from facilab.geometry import (
    Lottery,
    Norm,
    Point,
    Profile,
    centroid,
    expected_distance,
    point,
)
from facilab.mechanisms import MechanismSpec, apply
from facilab.objectives import Objective, approx_ratio, opt_max_cost, opt_social_cost
from facilab.properties import (
    check_cost_continuity,
    check_support_segment,
    check_translation_invariance,
    check_unanimity,
)
from facilab.search import (
    SearchConfig,
    search_gsp_violation,
    search_sp_violation,
    search_worst_ratio,
)

from conftest import lotteries_match

N2 = Norm(2.0)
RAND_MED = MechanismSpec("rand_med")
RAND_CENTER = MechanismSpec("rand_center")
DICTATOR = MechanismSpec("dictator", index=1)
SEP2D = MechanismSpec("sep2d", a=0.0)
COORD_MEDIAN = MechanismSpec("coord_median")
ALL_MECHS = (DICTATOR, RAND_MED, RAND_CENTER, SEP2D, COORD_MEDIAN)


def announce(criterion: int, text: str) -> None:
    print(f"[criterion {criterion:2d}] PASS  {text}")


def clustered_profile(n: int) -> Profile:
    return Profile.from_rows([(1.0, 0.0)] + [(0.0, 0.0)] * (n - 1))


def test_criterion_01_rand_med_max_cost_n2():
    prof = Profile.from_rows([(0, 0), (2, 0)])
    rr = approx_ratio(RAND_MED, prof, N2, Objective.MAX_COST)
    assert abs(rr.ratio - 1.5) <= 1e-9

    config = SearchConfig(rng_seed=101, restarts=50, local_steps=24)
    res = search_worst_ratio(RAND_MED, N2, Objective.MAX_COST, 2, 2, config)
    assert res.evaluations >= 10_000
    assert res.ratio <= 1.5 + 1e-6
    announce(1, f"two-agent max-cost ratio 1.5 exact; search over {res.evaluations} evaluations peaked at {res.ratio:.9f}")


def test_criterion_02_rand_med_social_cost_scaling():
    peaks = []
    for n in range(2, 7):
        rr = approx_ratio(RAND_MED, clustered_profile(n), N2, Objective.SOCIAL_COST)
        assert abs(rr.ratio - n / 2) <= 1e-9, (n, rr.ratio)
        config = SearchConfig(rng_seed=102, restarts=12, local_steps=14)
        res = search_worst_ratio(RAND_MED, N2, Objective.SOCIAL_COST, n, 2, config)
        assert res.ratio <= n / 2 + 1e-6, (n, res.ratio)
        peaks.append(res.ratio)
    announce(2, f"social-cost ratios hit n/2 for n=2..6; search peaks {['%.6f' % p for p in peaks]}")


def test_criterion_03_rand_center_max_cost_scaling():
    peaks = []
    for n in range(2, 7):
        rr = approx_ratio(RAND_CENTER, clustered_profile(n), N2, Objective.MAX_COST)
        assert abs(rr.ratio - (2 - 1 / n)) <= 1e-9, (n, rr.ratio)
        config = SearchConfig(rng_seed=103, restarts=12, local_steps=14)
        res = search_worst_ratio(RAND_CENTER, N2, Objective.MAX_COST, n, 2, config)
        assert res.ratio <= 2 - 1 / n + 1e-6, (n, res.ratio)
        peaks.append(res.ratio)
    announce(3, f"max-cost ratios hit 2 - 1/n for n=2..6; search peaks {['%.6f' % p for p in peaks]}")


def test_criterion_04_rand_center_strategyproof_fuzz():
    searches = 0
    for n in (2, 3, 4):
        for p in (1.5, 2.0, 3.0):
            config = SearchConfig(rng_seed=104 + n, restarts=56, local_steps=12)
            witness = search_sp_violation(RAND_CENTER, Norm(p), n, 2, config)
            assert witness is None, (n, p)
            searches += config.restarts
    assert searches >= 500
    announce(4, f"{searches} seeded misreport searches (n in 2..4, p in 1.5/2/3): zero validated witnesses")


def test_criterion_05_sep2d_guarantees():
    gen = np.random.Generator(np.random.Philox(key=105))
    zs = [Point.from_array(row) for row in gen.normal(size=(100, 2)) * 3.0]
    unanimity = check_unanimity(SEP2D, N2, zs, n=3)
    assert unanimity.passed

    config = SearchConfig(rng_seed=105, restarts=500, local_steps=10)
    witness = search_gsp_violation(SEP2D, N2, 3, 2, config)
    assert witness is None

    prof = Profile.from_rows([(2, 0), (5, 0), (0, 4)])
    shift = point(-3, 0)
    verdict = check_translation_invariance(SEP2D, N2, [prof], [shift])
    assert not verdict.passed and verdict.witness is not None
    # the witness replays: shifting the profile really does move the output
    base = apply(SEP2D, prof, N2).translate(shift)
    moved = apply(SEP2D, prof.translate(shift), N2)
    ok, dev = lotteries_match(base, moved)
    assert not ok and dev > 1e-6
    announce(5, f"unanimity on 100 points, 500 coalition restarts clean, translation witness deviates {dev:.3f}")


def test_criterion_06_l1_median_counterexample(tmp_path, capsys):
    out = tmp_path / "l1.json"
    code = main(["repro", "l1-median", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(out.read_text())
    assert data["extra"]["profile"]["points"] == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 1, 1]
    ]
    assert data["extra"]["truthful_output"] == [{"weight": 1, "point": [1, 1, 1]}]
    witness = data["witnesses"][0]
    assert witness["coalition"] == [1, 2, 3]
    assert witness["misreports"] == [[0, 0, 0]] * 3
    assert data["extra"]["post_misreport_output"] == [{"weight": 1, "point": [0, 0, 0]}]
    deltas = witness["per_agent_delta"]
    assert [(w["cost_before"], w["cost_after"]) for w in deltas] == [(2.0, 1.0)] * 3
    announce(6, "recorded 3-agent coalition flips the L1 coordinate median from (1,1,1) to (0,0,0), costs 2 -> 1")


def test_criterion_07_dictator_bounds():
    for n in range(2, 7):
        mc = approx_ratio(DICTATOR, clustered_profile(n), N2, Objective.MAX_COST)
        assert abs(mc.ratio - 2.0) <= 1e-9, (n, mc.ratio)
        sc = approx_ratio(DICTATOR, clustered_profile(n), N2, Objective.SOCIAL_COST)
        assert abs(sc.ratio - (n - 1)) <= 1e-6, (n, sc.ratio)
    announce(7, "dictatorship reaches max-cost ratio 2 and social-cost ratio n-1 for n=2..6")


def test_criterion_08_property_suites():
    # cost continuity: 10_000 perturbations across the five mechanisms
    gen = np.random.Generator(np.random.Philox(key=108))
    worst_margin = math.inf
    per_mech = 2000
    for spec in ALL_MECHS:
        count = 0
        while count < per_mech:
            n = int(gen.integers(3, 6))
            prof = Profile.from_rows(gen.normal(size=(n, 2)) * 2.0)
            agent = int(gen.integers(1, n + 1))
            batch = min(20, per_mech - count)
            perturbations = [
                Point.from_array(prof.agent(agent).as_array() + step)
                for step in gen.normal(size=(batch, 2)) * 0.5
            ]
            v = check_cost_continuity(spec, prof, agent, perturbations, N2)
            worst_margin = min(worst_margin, v.margin)
            count += batch
        assert worst_margin >= -1e-9, spec
    # Jensen dominance: 10_000 sampled (point, lottery) pairs
    jensen_worst = math.inf
    for _ in range(10_000):
        x = Point.from_array(gen.normal(size=2) * 3.0)
        k = int(gen.integers(1, 5))
        weights = gen.random(k) + 0.05
        weights = weights / weights.sum()
        pts = gen.normal(size=(k, 2)) * 3.0
        lot = Lottery(tuple((float(w), Point.from_array(row)) for w, row in zip(weights, pts)))
        slack = expected_distance(x, lot, N2) - N2.distance(x, centroid(lot))
        jensen_worst = min(jensen_worst, slack)
    assert jensen_worst >= -1e-9
    # support segments: composed mechanisms stay on agent segments
    for spec in (RAND_MED, SEP2D):
        for i in range(1000):
            prof = Profile.from_rows(gen.normal(size=(3, 2)) * 2.0)
            assert check_support_segment(spec, prof, N2).passed, (spec, i)
    fixture = Profile.from_rows([(0, 0), (1, 0), (0, 1)])
    assert not check_support_segment(RAND_CENTER, fixture, N2).passed
    announce(8, f"continuity margin {worst_margin:.2e}, Jensen margin {jensen_worst:.2e}, segment fixtures as documented")


def test_criterion_09_optimizer_oracle_equivalence():
    gen = np.random.Generator(np.random.Philox(key=109))
    for trial in range(50):
        n = int(gen.integers(3, 6))
        xs = gen.normal(size=(n, 2)) * 2.0
        res = opt_social_cost(Profile.from_rows(xs), N2)
        # test-local reference: plain Weiszfeld from the mean, or a report
        y = xs.mean(axis=0)
        for _ in range(5000):
            dist = np.linalg.norm(xs - y, axis=1)
            if not dist.all():
                break  # on a report, which the reference takes anyway
            w = 1.0 / dist
            y = (xs * w[:, None]).sum(axis=0) / w.sum()
        ref = min(float(np.linalg.norm(xs - c, axis=1).sum()) for c in [y, *xs])
        assert abs(res.value - ref) <= res.certified_gap + 1e-12, trial
        assert res.value - res.certified_gap <= ref + 1e-12, trial
    for trial in range(20):
        pts = gen.normal(size=(2, 2)) * 3.0
        prof = Profile.from_rows(pts)
        res = opt_max_cost(prof, N2)
        expected = N2((pts[0] - pts[1]) / 2.0)
        assert abs(res.value - expected) <= 1e-9
    announce(9, "certified L2 social-cost optima agree with plain Weiszfeld within their gaps on 50 profiles; two-point centers exact")


def test_criterion_10_reports_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = main(
            ["check", "--mech", "rand_center", "--n", "3", "--seed", "17",
             "--budget", "2500", "--out", str(path)]
        )
        assert code == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()

    ratio_paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for path in ratio_paths:
        code = main(
            ["ratio", "--mech", "rand_med", "--obj", "mc", "--n", "2",
             "--seed", "23", "--budget", "1500", "--out", str(path)]
        )
        assert code == 0
    capsys.readouterr()
    assert ratio_paths[0].read_bytes() == ratio_paths[1].read_bytes()
    announce(10, "check and ratio reports re-run byte-identical for fixed seed and version")
