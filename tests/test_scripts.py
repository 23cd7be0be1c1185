"""Smoke tests for the helper scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_cert_fuzz_3d_reports_every_cell():
    proc = _run("cert_fuzz.py", "--d", "3", "--profiles", "3", "--grid", "9")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    cells = {tuple(line.split()[:2]) for line in lines[1:-1]}
    assert cells == {(p, obj) for p in ("1", "1.2", "2", "3", "8", "inf") for obj in ("mc", "sc")}
    assert all(line.split()[2] == "3" for line in lines[1:-1])
    assert lines[-1] == "total unsound 0 misses 0"


def test_oracle_reports_smoke(tmp_path):
    out = tmp_path / "oracle"
    proc = _run("oracle_reports.py", "--out", str(out), "--budget", "20", "--limit", "2")
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in out.glob("*.json"))
    assert names == ["check-dictator1-lp2-3-2.json", "check-dictator1-lp2-4-2.json"]
    assert (out / "repro" / "table1.csv").exists()
    console = (out / "console.txt").read_text()
    assert console.count("\nexit 0\n") == 3 and "runtime <ms>" in console and str(out) not in console
