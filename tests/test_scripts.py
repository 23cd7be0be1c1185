"""Smoke tests for the helper scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ratio_sweep_prints_documented_bounds():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ratio_sweep.py"), "--nmax", "2", "--restarts", "1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    bounds = {tuple(line.split()[:3]): line.split()[-1] for line in proc.stdout.splitlines()[1:]}
    assert bounds[("rand_med", "mc", "2")] == "1.5000"
    assert bounds[("dictator:1", "sc", "2")] == "1.0000"
    assert bounds[("rand_center", "sc", "2")] == "n/a"
