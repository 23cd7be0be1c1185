"""Cross-version stability of canonical ``check`` reports.

``tests/golden/`` holds the reports of ``facilab check --n 3 --d 2
--seed 3 --budget 300`` for five mechanisms under lp:2 and lp:1, written
before the searches moved to arrays.  A refactor must reproduce them byte
for byte; a change that means to alter a report regenerates its file and
says why.
"""

from pathlib import Path

import pytest

from facilab.cli import run_check
from facilab.geometry import parse_norm
from facilab.mechanisms import parse_mechanism

GOLDEN = Path(__file__).parent / "golden"
MECHANISMS = ("dictator:1", "rand_med", "rand_center", "sep2d:a=0", "coord_median")


@pytest.mark.parametrize("norm", ["lp:2", "lp:1"])
@pytest.mark.parametrize("mech", MECHANISMS)
def test_check_report_matches_golden(mech, norm):
    report, code = run_check(parse_mechanism(mech), parse_norm(norm), 3, 2, 3, 300)
    slug = f"check-{mech}-{norm}".replace(":", "-").replace("=", "")
    assert code == 0
    assert report.to_json().encode("utf-8") == (GOLDEN / f"{slug}.json").read_bytes()
