"""Smoke tests for the helper scripts under scripts/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_ratio_sweep_prints_documented_bounds():
    proc = _run("ratio_sweep.py", "--nmax", "2", "--restarts", "1")
    assert proc.returncode == 0, proc.stderr
    bounds = {tuple(line.split()[:3]): line.split()[-1] for line in proc.stdout.splitlines()[1:]}
    assert bounds[("rand_med", "mc", "2")] == "1.5000"
    assert bounds[("dictator:1", "sc", "2")] == "1.0000"
    assert bounds[("rand_center", "sc", "2")] == "n/a"


def test_cert_fuzz_reports_every_cell():
    proc = _run("cert_fuzz.py", "--profiles", "3", "--grid", "41")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    cells = {tuple(line.split()[:2]) for line in lines[1:-1]}
    assert cells == {(p, obj) for p in ("1", "1.2", "2", "3", "8", "inf") for obj in ("mc", "sc")}
    assert all(line.split()[2] == "3" for line in lines[1:-1])
    assert lines[-1].startswith("total unsound 0 ")
    # the routes column counts each certificate once, by its optimizer route
    assert lines[0].split()[-1] == "routes"
    for line in lines[1:-1]:
        routes = line.split()[7:]
        assert sum(int(count) for count in routes[1::2]) == 3, line
        assert set(routes[0::2]) <= {"exact", "exact-two-point", "lp", "ball", "grid"}, line
    assert {line.split()[7] for line in lines[1:-1] if line.split()[1] == "mc" and line.split()[0] in ("1.2", "3", "8")} == {"ball"}


# 40 profiles per exponent at seeds 0 and 1 hold the p = 1.2 ties whose
# certificates missed their targets before the bundle bound
@pytest.mark.parametrize("profiles, seed", [("3", "0"), ("40", "0"), ("40", "1")])
def test_cert_fuzz_3d_reports_every_cell(profiles, seed):
    proc = _run("cert_fuzz.py", "--d", "3", "--profiles", profiles, "--seed", seed, "--grid", "9")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    cells = {tuple(line.split()[:2]) for line in lines[1:-1]}
    assert cells == {(p, obj) for p in ("1", "1.2", "2", "3", "8", "inf") for obj in ("mc", "sc")}
    assert all(line.split()[2] == profiles for line in lines[1:-1])
    assert re.fullmatch(r"total unsound 0 misses 0 digest [0-9a-f]{64}", lines[-1]), lines[-1]


def test_cert_fuzz_digest_repeats_with_the_seed():
    # the totals line hashes every certificate, so one seed gives one
    # digest and another seed a different one
    digests = []
    for seed in ("4", "4", "5"):
        proc = _run("cert_fuzz.py", "--profiles", "2", "--grid", "9", "--seed", seed)
        assert proc.returncode == 0, proc.stderr
        match = re.fullmatch(r"total unsound 0 misses \d+ digest ([0-9a-f]{64})", proc.stdout.splitlines()[-1])
        assert match, proc.stdout
        digests.append(match.group(1))
    assert digests[0] == digests[1] != digests[2]


def test_bench_digest_repeats_with_the_seed():
    # one line per workload, and the same seed hashes the same outputs
    outputs = []
    for seed in ("3", "3", "4"):
        proc = _run("bench_digest.py", "--seed", seed, "--tasks", "2")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split()[:2] for line in lines] == [["audit", "2"], ["pricing", "2"], ["hunt", "2"]]
        assert all(re.fullmatch(r"\w+ 2 [0-9a-f]{64}", line) for line in lines), lines
        outputs.append(dict(line.split()[::2] for line in lines))
    assert outputs[0] == outputs[1]
    # the seed moves every audit check seed and every pricing profile
    assert outputs[2]["audit"] != outputs[0]["audit"] and outputs[2]["pricing"] != outputs[0]["pricing"]


def test_oracle_reports_smoke(tmp_path):
    out = tmp_path / "oracle"
    proc = _run("oracle_reports.py", "--out", str(out), "--budget", "20", "--limit", "2")
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in out.glob("*.json"))
    assert names == ["check-dictator1-lp2-3-2.json", "check-dictator1-lp2-4-2.json"]
    assert (out / "repro" / "table1.csv").exists()
    console = (out / "console.txt").read_text()
    assert console.count("\nexit 0\n") == 3 and "runtime <ms>" in console and str(out) not in console


def _oracle_tree(root, evaluate=None, ratio=None, check=None, exit_code=0, csv_hi="2.0000000000000178"):
    """A tiny oracle tree: one report of each kind, a table1 CSV and a console log."""
    import json

    (root / "repro").mkdir(parents=True)
    reports = {
        "check-x.json": {"scenario": "check", "verdicts": [{"margin": 0.25}], **(check or {})},
        "evaluate-x.json": {
            "scenario": "evaluate",
            "objective_values": {
                "mc": 1.5, "opt_mc": 1.0000000002, "opt_mc_gap": 2e-9,
                "mc_ratio": 1.4999999997, "mc_ratio_lo": 1.4999999967, "mc_ratio_hi": 1.5000000027,
                **(evaluate or {}),
            },
        },
        "ratio-x.json": {
            "scenario": "ratio",
            "objective_values": {"ratio": 1.5, "cost": 0.75, "opt_value": 0.5, "opt_gap": 1e-9, **(ratio or {})},
            "ratio_interval": [1.4999999, 1.5000001],
        },
    }
    for name, report in reports.items():
        (root / name).write_text(json.dumps(report))
    header = "objective,n,deterministic_bound,randomized_bound,measured_lo,measured_hi"
    (root / "repro" / "table1.csv").write_text(f"{header}\nmc,4,2,2,1.9999999999999822,{csv_hi}\n")
    (root / "console.txt").write_text(f"$ facilab evaluate --mech x\nexit {exit_code}\noptimum {reports['evaluate-x.json']['objective_values']['opt_mc']}\n")


TIGHTER = {"opt_mc": 1.0, "opt_mc_gap": 1e-16, "mc_ratio": 1.5, "mc_ratio_lo": 1.4999999999999996, "mc_ratio_hi": 1.5000000000000004}


@pytest.mark.parametrize(
    "change, code",
    [
        ({}, 0),
        ({"evaluate": TIGHTER}, 0),
        ({"csv_hi": "2.00000000000001"}, 0),
        ({"ratio": {"opt_value": 0.5000000005, "opt_gap": 1e-9}}, 0),
        ({"check": {"verdicts": [{"margin": 0.2500000001}]}}, 1),
        ({"exit_code": 1}, 1),
        ({"evaluate": {**TIGHTER, "opt_mc": 0.999999997}}, 1),  # the optimum left both gaps
        ({"evaluate": {**TIGHTER, "mc_ratio_lo": 1.6, "mc_ratio_hi": 1.7}}, 1),  # disjoint intervals
        ({"ratio": {"opt_gap": 1e-3}}, 1),  # the gap target is missed now
        ({"ratio": {"cost": 0.76}}, 1),  # not a certified quantity
        ({"csv_hi": "1.5"}, 1),
    ],
)
def test_oracle_compare_tolerates_only_consistent_certificates(tmp_path, change, code):
    _oracle_tree(tmp_path / "before")
    _oracle_tree(tmp_path / "after", **change)
    proc = _run("oracle_compare.py", str(tmp_path / "before"), str(tmp_path / "after"))
    assert proc.returncode == code, proc.stdout + proc.stderr


def test_oracle_compare_fails_on_a_missing_file(tmp_path):
    _oracle_tree(tmp_path / "before")
    _oracle_tree(tmp_path / "after")
    (tmp_path / "after" / "ratio-x.json").unlink()
    proc = _run("oracle_compare.py", str(tmp_path / "before"), str(tmp_path / "after"))
    assert proc.returncode == 1 and "missing in AFTER" in proc.stdout
