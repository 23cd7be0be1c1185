"""Command-line surface: parsing, exit codes, report round-trips."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from facilab.cli import (
    build_parser,
    canonical_json,
    expected_outcomes,
    load_profile,
    main,
)
from facilab.geometry import Norm, parse_norm
from facilab.mechanisms import KINDS, parse_mechanism

PROFILE_TWO = '{"d": 2, "points": [[0, 0], [2, 0]]}'


@pytest.fixture
def two_agent_file(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(PROFILE_TWO)
    return str(path)


class TestCanonicalJson:
    def test_floats_round_trip(self):
        for x in (0.25, 1 / 3, 1e-9, 123456.789, -0.0):
            text = canonical_json({"x": x})
            assert json.loads(text)["x"] == x

    def test_non_finite_become_strings(self):
        assert canonical_json(math.inf) == '"inf"'
        assert canonical_json(-math.inf) == '"-inf"'

    def test_key_order_preserved(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"b":1,"a":2}'


class TestProfileIO:
    def test_load(self, two_agent_file):
        prof = load_profile(two_agent_file)
        assert prof.n == 2 and prof.d == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_profile(str(tmp_path / "absent.json"))

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 2, "points": [[0, 0')
        with pytest.raises(ValueError, match="line"):
            load_profile(str(path))

    def test_dimension_mismatch_reports_index(self, tmp_path):
        path = tmp_path / "mismatch.json"
        path.write_text('{"d": 2, "points": [[0, 0], [1, 2, 3]]}')
        with pytest.raises(ValueError, match="point 1"):
            load_profile(str(path))


class TestEvaluate:
    def test_rand_med_pair(self, two_agent_file, capsys):
        code = main(["evaluate", "--profile", two_agent_file, "--mech", "rand_med", "--norm", "lp:2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "weight 0.25 at (0.0, 0.0)" in out
        assert "weight 0.5 at (1.0, 0.0)" in out
        assert "mc ratio      1.5" in out

    def test_unanimous_profile_all_zero(self, tmp_path, capsys):
        path = tmp_path / "same.json"
        path.write_text('{"d": 2, "points": [[1, 1], [1, 1]]}')
        code = main(["evaluate", "--profile", str(path), "--mech", "rand_center"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max cost      0" in out

    def test_sep2d_demo(self, tmp_path, capsys):
        path = tmp_path / "three.json"
        path.write_text('{"d": 2, "points": [[2, 0], [5, 0], [0, 4]]}')
        code = main(["evaluate", "--profile", str(path), "--mech", "sep2d:a=0"])
        out = capsys.readouterr().out
        assert code == 0 and "(4.0, 0.0)" in out

    def test_unknown_mechanism_exit_2(self, two_agent_file, capsys):
        assert main(["evaluate", "--profile", two_agent_file, "--mech", "oracle"]) == 2

    def test_nonpositive_budget_exit_2(self, two_agent_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--profile", two_agent_file, "--mech", "rand_med", "--budget", "0"])
        assert exc.value.code == 2

    def test_huge_exponent_norm(self, tmp_path, capsys):
        path = tmp_path / "four.json"
        path.write_text('{"d": 2, "points": [[0, 0], [2, 0.5], [0.7, 1.9], [1.6, -0.8]]}')
        report = tmp_path / "report.json"
        argv = ["evaluate", "--profile", str(path), "--mech", "rand_center", "--norm", "lp:1e300"]
        assert main(argv + ["--out", str(report)]) == 0
        values = json.loads(report.read_text())["objective_values"]
        # non-finite floats would be serialized as strings
        assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values()), values

    @pytest.mark.parametrize("x", ["1e308", "8e307"])
    def test_overflowing_profile_exit_2(self, tmp_path, capsys, x):
        # at 1e308 the costs are nan, at 8e307 the social cost is inf and its
        # interval [nan, inf]: refused with one error line, nothing printed or written
        path = tmp_path / "huge.json"
        path.write_text('{"d": 2, "points": [[%s, 0], [-%s, 0], [0, 1]]}' % (x, x))
        report = tmp_path / "report.json"
        argv = ["evaluate", "--profile", str(path), "--mech", "rand_center", "--out", str(report)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and not report.exists()
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    def test_large_profile_still_evaluated(self, tmp_path, capsys):
        path = tmp_path / "large.json"
        path.write_text('{"d": 2, "points": [[1e200, 0], [-1e200, 0], [0, 1]]}')
        assert main(["evaluate", "--profile", str(path), "--mech", "rand_center"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "sc ratio      1.16666666667  certified [1.16666666667, 1.16666666667]" in out

    def test_bad_profile_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        assert main(["evaluate", "--profile", str(path), "--mech", "rand_med"]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"d": 2, "points": [[1, null], [3, 4]]}',
            '{"d": 2, "points": [[1, [2]], [3, 4]]}',
            '{"d": 2, "points": [[1, {}], [3, 4]]}',
            '{"d": 2, "points": [[1, true], [3, 4]]}',
            '{"d": 2, "points": [[1, NaN], [3, 4]]}',
            '{"d": 2, "points": [[1, 1%s], [3, 4]]}' % ("0" * 400),
            '{"d": "x", "points": [[1, 2], [3, 4]]}',
            '{"d": 0, "points": [[1, 2], [3, 4]]}',
            '{"d": 2.0, "points": [[1, 2], [3, 4]]}',
            '{"d": true, "points": [[1], [3]]}',
        ],
        ids=["null", "list", "object", "bool", "nan", "huge-int", "d-text", "d-zero", "d-float", "d-bool"],
    )
    def test_malformed_profile_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "malformed.json"
        path.write_text(text)
        assert main(["evaluate", "--profile", str(path), "--mech", "rand_med"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and ("'d' must be" in err or "point 0 must be a list of" in err), err


class TestCheck:
    # sep2d at a far branch constant: the profiles pinned across it must
    # tell the dictator pairs apart when every other profile lies on one side
    @pytest.mark.parametrize(
        "mech",
        ["dictator:1", "rand_med", "rand_center", "sep2d:a=0", "sep2d:a=5", "sep2d:a=-3", "sep2d:a=20", "coord_median"],
    )
    def test_consistent_mechanisms_exit_0(self, mech, capsys):
        code = main(["check", "--mech", mech, "--n", "3", "--budget", "3000"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "MISMATCH" not in out

    # one agent (each restart searches that agent alone, with no other
    # reports to step toward) and one dimension (one axis, one grid step
    # per atom) both run the whole misreport search
    @pytest.mark.parametrize(
        "mech,n,d",
        [("dictator:1", 1, 2), ("coord_median", 1, 2), ("dictator:1", 1, 1), ("coord_median", 3, 1), ("rand_med", 3, 1)],
    )
    def test_one_agent_and_one_dimension_checks(self, mech, n, d, tmp_path, capsys):
        path = tmp_path / "check.json"
        argv = ["check", "--mech", mech, "--n", str(n), "--d", str(d), "--budget", "2000", "--out", str(path)]
        assert main(argv) == 0, capsys.readouterr().out
        verdicts = json.loads(path.read_text())["verdicts"]
        assert [(v["passed"], v["inconclusive"], v["witness"]) for v in verdicts] == [(True, False, None)] * 8
        assert {v["property"]: v["note"] for v in verdicts[2:4]} == dict.fromkeys(
            ["strategyproof", "group_strategyproof"], "no validated witness within budget"
        )

    def test_arity_validation(self, capsys):
        assert main(["check", "--mech", "sep2d:a=0", "--n", "2"]) == 2
        assert main(["check", "--mech", "dictator:5", "--n", "3"]) == 2
        assert main(["check", "--mech", "rand_med", "--n", "1"]) == 2
        assert "rand_med needs --n >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--n", "0"], ["--d", "0"], ["--budget", "-5"], ["--n", "x"]]
    )
    def test_nonpositive_sizes_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--mech", "rand_med", *flag])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_report_written(self, tmp_path, capsys):
        out_path = tmp_path / "check.json"
        code = main(
            ["check", "--mech", "rand_med", "--n", "3", "--budget", "2500", "--out", str(out_path)]
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        names = [v["property"] for v in data["verdicts"]]
        assert names == [
            "unanimity",
            "translation_invariance",
            "strategyproof",
            "group_strategyproof",
            "support_segment",
            "2dictatorship",
            "cost_continuity",
            "uncompromising",
        ]
        assert all(v["passed"] for v in data["verdicts"])
        assert "runtime" not in data


class TestRatio:
    def test_rand_med_sc(self, capsys, tmp_path):
        out_path = tmp_path / "ratio.json"
        code = main(
            [
                "ratio", "--mech", "rand_med", "--obj", "sc", "--n", "4",
                "--budget", "2500", "--seed", "5", "--out", str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2.000000000" in out
        data = json.loads(out_path.read_text())
        assert data["objective_values"]["ratio"] == pytest.approx(2.0, abs=1e-9)
        assert data["objective_values"]["theory_bound"] == pytest.approx(2.0)

    def test_unknown_objective_exit_2(self, capsys):
        assert main(["ratio", "--mech", "rand_med", "--obj", "zz"]) == 2

    @pytest.mark.parametrize("flag", [["--n", "0"], ["--d", "-1"], ["--budget", "0"]])
    def test_nonpositive_sizes_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ratio", "--mech", "rand_med", "--obj", "mc", *flag])
        assert exc.value.code == 2

    @pytest.mark.parametrize("mech", ["coord_median", "dictator:1"])
    def test_single_agent_max_cost(self, mech, capsys, tmp_path):
        # one agent is always unanimous: every mechanism is optimal
        out_path = tmp_path / "ratio.json"
        argv = ["ratio", "--mech", mech, "--obj", "mc", "--n", "1", "--budget", "300", "--out", str(out_path)]
        assert main(argv) == 0
        assert json.loads(out_path.read_text())["objective_values"]["ratio"] == 1.0


class TestRepro:
    def test_unknown_scenario_exit_2(self, capsys):
        assert main(["repro", "nonsense"]) == 2

    def test_l1_median(self, capsys, tmp_path):
        out_path = tmp_path / "l1.json"
        code = main(["repro", "l1-median", "--out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "truthful output: (1.0, 1.0, 1.0)" in out
        assert "new output: (0.0, 0.0, 0.0)" in out
        assert "cost 2 -> 1" in out
        data = json.loads(out_path.read_text())
        deltas = data["witnesses"][0]["per_agent_delta"]
        assert [(d["cost_before"], d["cost_after"]) for d in deltas] == [(2.0, 1.0)] * 3

    def test_mech2_demo_branches(self, capsys):
        code = main(["repro", "mech2-demo"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("case:") == 3
        assert "(4.0, 0.0)" in out  # interior companion point
        assert "(3.0, 0.0)" in out  # capped companion
        assert "-1.4472135954999579" in out  # other-branch companion

    def test_procaccia_n2(self, capsys):
        code = main(["repro", "procaccia-n2", "--budget", "2500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ratio 1.5" in out

    def test_table1_csv_columns(self, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        code = main(["repro", "table1", "--budget", "1500", "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "objective,n,deterministic_bound,randomized_bound,measured_lo,measured_hi"
        assert len(lines) == 11  # mc x 5 + sc x 5
        first = lines[1].split(",")
        assert first[0] == "mc" and first[1] == "2"
        assert float(first[2]) == 2.0 and float(first[3]) == 1.5


@pytest.mark.parametrize("command", ["check", "evaluate", "ratio", "repro"])
@pytest.mark.parametrize("seed", ["-1", str(2**64), "1.5", "x"])
def test_seed_outside_64_bits_exit_2(command, seed, two_agent_file, capsys):
    argv = {
        "check": ["check", "--mech", "rand_med"],
        "evaluate": ["evaluate", "--profile", two_agent_file, "--mech", "rand_med"],
        "ratio": ["ratio", "--mech", "rand_med", "--obj", "mc"],
        "repro": ["repro", "table1"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", seed])
    assert exc.value.code == 2
    assert "argument --seed" in capsys.readouterr().err
    assert build_parser().parse_args([*argv, "--seed", str(2**64 - 1)]).seed == 2**64 - 1


@pytest.mark.parametrize("command", ["check", "evaluate", "ratio", "repro"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_exit_2(command, target, tmp_path, two_agent_file, capsys):
    path = str(tmp_path / "absent" / "r.out" if target == "missing-dir" else tmp_path)
    argv = {
        "check": ["check", "--mech", "rand_med", "--budget", "300", "--out", path],
        "evaluate": ["evaluate", "--profile", two_agent_file, "--mech", "rand_med", "--out", path],
        "ratio": ["ratio", "--mech", "rand_med", "--obj", "mc", "--budget", "300", "--out", path],
        "repro": ["repro", "table1", "--budget", "300", "--csv", path],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and path in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "evaluate", "ratio", "repro-out", "repro-csv"])
def test_unwritable_output_fails_before_any_work(command, two_agent_file, monkeypatch, capsys):
    from facilab import cli

    called = []

    def work(*args, **kwargs):
        called.append(command)
        raise AssertionError("work ran before the output path was checked")

    for name in ("run_check", "approx_ratio", "search_worst_ratio"):
        monkeypatch.setattr(cli, name, work)
    monkeypatch.setitem(cli.SCENARIOS, "table1", work)
    path = "/nonexistent/dir/r.json"
    argv = {
        "check": ["check", "--mech", "rand_med", "--out", path],
        "evaluate": ["evaluate", "--profile", two_agent_file, "--mech", "rand_med", "--out", path],
        "ratio": ["ratio", "--mech", "rand_med", "--obj", "mc", "--out", path],
        "repro-out": ["repro", "table1", "--out", path],
        "repro-csv": ["repro", "table1", "--csv", path],
    }[command]
    assert main(argv) == 2
    assert called == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err and err.count("\n") == 1


def test_check_refuses_more_than_16_agents_before_any_work(monkeypatch, capsys):
    from facilab import cli

    def work(*args, **kwargs):
        raise AssertionError("check ran with too many agents")

    monkeypatch.setattr(cli, "run_check", work)
    monkeypatch.setattr(cli, "parse_mechanism", work)
    assert main(["check", "--mech", "dictator:1", "--n", "17"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: check needs --n <= {cli.CHECK_MAX_AGENTS}: its searches grow as 2**n\n"
    assert cli.CHECK_MAX_AGENTS == 16


def test_witness_free_check_builds_no_point_or_profile(monkeypatch):
    # the probes stay arrays from the draw to the verdict; only a witness is an object
    from facilab import cli, geometry

    built = []
    for cls in (geometry.Point, geometry.Profile):
        monkeypatch.setattr(cls, "__post_init__", lambda self, init=cls.__post_init__: built.append(self) or init(self))
    report, code = cli.run_check(parse_mechanism("dictator:1"), parse_norm("lp:2"), 3, 2, 0, 2000)
    assert code == 0 and all(v.witness is None for v in report.verdicts)
    assert built == []


@pytest.mark.parametrize("command", ["check", "evaluate", "ratio", "repro"])
def test_main_finishes_every_command_alike(command, tmp_path, two_agent_file, capsys):
    # the command's lines, the runtime line, then the report and the CSV;
    # only the commands that judge (check, repro) print their exit code
    report, csv = tmp_path / "r.json", tmp_path / "t.csv"
    argv = {
        "check": ["check", "--mech", "rand_med", "--budget", "300"],
        "evaluate": ["evaluate", "--profile", two_agent_file, "--mech", "rand_med"],
        "ratio": ["ratio", "--mech", "rand_med", "--obj", "mc", "--budget", "300"],
        "repro": ["repro", "table1", "--budget", "300", "--csv", str(csv)],
    }[command]
    code = main([*argv, "--out", str(report)])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    written = [f"report written to {report}"] + ([f"csv written to {csv}"] if command == "repro" else [])
    *body, runtime = out.splitlines()[: -len(written)]
    assert out.splitlines()[-len(written):] == written
    judged = command in ("check", "repro")
    assert re.fullmatch(r"runtime \d+ ms" + ("; exit 0" if judged else ""), runtime), runtime
    assert body and not any("; exit" in line for line in body)
    assert json.loads(report.read_text())["scenario"] == {"repro": "table1"}.get(command, command)


# per command: the options its --help lists, and the values parsed from the
# required ones alone
PARSED = {
    "evaluate": (
        ["--profile", "p.json", "--mech", "rand_med"],
        {"profile": "p.json", "mech": "rand_med", "norm": "lp:2", "budget": 60_000, "seed": 0, "out": None},
    ),
    "check": (
        ["--mech", "rand_med"],
        {"mech": "rand_med", "norm": "lp:2", "n": 3, "d": 2, "budget": 20_000, "seed": 0, "out": None},
    ),
    "ratio": (
        ["--mech", "rand_med", "--obj", "mc"],
        {"mech": "rand_med", "norm": "lp:2", "obj": "mc", "n": 3, "d": 2, "budget": 10_000, "seed": 0, "out": None},
    ),
    "repro": (["table1"], {"scenario": "table1", "budget": 12_000, "seed": 0, "out": None, "csv": None}),
}


@pytest.mark.parametrize("command", sorted(PARSED))
def test_each_command_keeps_its_options_and_defaults(command, capsys):
    required, values = PARSED[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z]+", capsys.readouterr().out))
    assert listed == {"--help"} | {f"--{name}" for name in values if name != "scenario"}
    args = vars(build_parser().parse_args([command, *required]))
    assert {k: v for k, v in args.items() if k not in ("command", "func")} == values


class TestDeterminism:
    def test_check_reports_byte_identical(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["check", "--mech", "rand_center", "--n", "3", "--seed", "7", "--budget", "2500"]
        assert main(argv + ["--out", str(p1)]) == 0
        assert main(argv + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_report_round_trip_same_summary(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        main(["check", "--mech", "rand_med", "--n", "3", "--budget", "2500", "--out", str(path)])
        data = json.loads(path.read_text())
        # re-serializing the parsed payload reproduces the same verdict summary
        summary = [(v["property"], v["passed"]) for v in data["verdicts"]]
        data2 = json.loads(canonical_json(data))
        assert [(v["property"], v["passed"]) for v in data2["verdicts"]] == summary


def test_norm_strings_accept_weights_and_transform():
    norm = parse_norm("lp:2;w=1,2;A=1,0,0,1")
    assert isinstance(norm, Norm) and norm.weights == (1.0, 2.0)


# Claimed outcomes other than "pass", recorded from the hand-written
# expectations that preceded the mechanism registry.  Each row lists the
# (n, d) shapes of CLAIM_SHAPES in order.
CLAIM_SHAPES = ((3, 2), (2, 2), (3, 1))
D1 = {"2dictatorship": "info"}
RC = {"group_strategyproof": "fail", "support_segment": "fail", "2dictatorship": "fail"}
RC_INFO = {"group_strategyproof": "info", "support_segment": "fail", "2dictatorship": "fail"}
RC_N2 = {"group_strategyproof": "info"}
RC_D1 = {"group_strategyproof": "info", "2dictatorship": "info"}
S2 = {"translation_invariance": "fail", "2dictatorship": "fail"}
S2_D1 = {"translation_invariance": "fail", "2dictatorship": "info"}
S2_NONE = dict.fromkeys(
    ["strategyproof", "group_strategyproof", "translation_invariance", "2dictatorship", "cost_continuity"],
    "info",
)
CM = {"group_strategyproof": "info", "2dictatorship": "info"}
CM_A = {**CM, "strategyproof": "info", "cost_continuity": "info"}
CLAIMS = {
    ("dictator:1", "lp:2"): ({}, {}, D1),
    ("dictator:1", "lp:1"): ({}, {}, D1),
    ("dictator:1", "lp:2;w=0.5,1"): ({}, {}, D1),
    ("dictator:1", "lp:2;A=1,0.5,0,1"): ({}, {}, D1),
    ("rand_med", "lp:2"): ({}, {}, D1),
    ("rand_med", "lp:1"): ({}, {}, D1),
    ("rand_med", "lp:2;w=0.5,1"): ({}, {}, D1),
    ("rand_med", "lp:2;A=1,0.5,0,1"): ({}, {}, D1),
    ("rand_center", "lp:2"): (RC, RC_N2, RC_D1),
    ("rand_center", "lp:1"): (RC_INFO, RC_N2, RC_D1),
    ("rand_center", "lp:2;w=0.5,1"): (RC, RC_N2, RC_D1),
    ("rand_center", "lp:2;A=1,0.5,0,1"): (RC, RC_N2, RC_D1),
    ("sep2d:a=0", "lp:2"): (S2, S2, S2_D1),
    ("sep2d:a=0", "lp:1"): (S2, S2, S2_D1),
    ("sep2d:a=0", "lp:2;w=0.5,1"): (S2_NONE, S2_NONE, S2_NONE),
    ("sep2d:a=0", "lp:2;A=1,0.5,0,1"): (S2_NONE, S2_NONE, S2_NONE),
    ("coord_median", "lp:2"): (CM, CM, CM),
    ("coord_median", "lp:1"): (CM, CM, CM),
    ("coord_median", "lp:2;w=0.5,1"): (CM, CM, CM),
    ("coord_median", "lp:2;A=1,0.5,0,1"): (CM_A, CM_A, CM_A),
}


@pytest.mark.parametrize(
    "mech,norm,n,d,claimed",
    [
        pytest.param(mech, norm, n, d, row[i], id=f"{mech}|{norm}|n={n},d={d}")
        for (mech, norm), row in CLAIMS.items()
        for i, (n, d) in enumerate(CLAIM_SHAPES)
    ],
)
def test_expected_outcomes_pinned(mech, norm, n, d, claimed):
    exp = expected_outcomes(parse_mechanism(mech), n, d, parse_norm(norm))
    assert list(exp) == [
        "unanimity",
        "translation_invariance",
        "strategyproof",
        "group_strategyproof",
        "support_segment",
        "2dictatorship",
        "cost_continuity",
        "uncompromising",
    ]
    assert {k: v for k, v in exp.items() if v != "pass"} == claimed


def test_claims_table_covers_every_kind():
    assert {parse_mechanism(mech).kind for mech, _ in CLAIMS} == set(KINDS)


def test_module_entry_point_exit_codes():
    # python -m facilab runs the same main; an unknown scenario is usage (2)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "facilab", "repro", "nope"], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: unknown scenario")
