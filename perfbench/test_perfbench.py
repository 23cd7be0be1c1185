"""Self-tests for the benchmark's own metric code.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import math
from pathlib import Path

import pytest

from metrics import TAIL_BEYOND, cert_loose, norm_family, tail
from tracer import Tracer


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- tail percentile -----------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]  # 1..100
    t = tail(samples)
    assert t.beyond == TAIL_BEYOND
    assert t.value == 90.0  # exactly 10 samples (91..100) lie beyond it
    assert t.percentile == pytest.approx(90.0)
    assert sum(s > t.value for s in samples) == TAIL_BEYOND


def test_tail_percentile_moves_with_sample_count():
    t = tail([float(i) for i in range(30)])
    assert t.value == 19.0
    assert t.percentile == pytest.approx(100.0 * 20 / 30)
    assert t.samples == 30


def test_tail_ignores_input_order():
    samples = [5.0, 1.0, 9.0, 3.0, 7.0] * 5
    assert tail(samples) == tail(sorted(samples))


def test_tail_without_enough_samples_reports_the_maximum_with_none_beyond():
    t = tail([3.0, 1.0, 2.0])
    assert (t.value, t.percentile, t.beyond, t.samples) == (3.0, 100.0, 0, 3)


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        tail([])


# -- self time with nested spans -----------------------------------------------


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        traced_leaf()
        traced_leaf()
        clock.now += 3.0

    def top():
        clock.now += 10.0
        traced_middle()
        traced_leaf()

    traced_leaf = tracer.timed("geometry.leaf", leaf, keep=False)
    traced_middle = tracer.timed("search.middle", middle, keep=True)
    traced_top = tracer.timed("task", top, keep=True)
    traced_top()

    # middle spans 2 + 1 + 1 + 3 = 7 s, of which its children cover 2 s
    assert tracer.total_s("search.middle") == 7.0
    assert tracer.self_s("search.middle") == 5.0
    # top spans 10 + 7 + 1 = 18 s, its direct children cover 8 s
    assert tracer.total_s("task") == 18.0
    assert tracer.self_s("task") == 10.0
    assert tracer.calls("geometry.leaf") == 3
    assert tracer.self_s("geometry.leaf") == 3.0
    # self times partition the root span's duration
    names = ("task", "search.middle", "geometry.leaf")
    assert sum(tracer.self_s(n) for n in names) == tracer.total_s("task")


def test_kept_spans_link_to_the_nearest_kept_ancestor():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 1.0

    traced_inner = tracer.timed("cli.inner", inner, keep=True)

    def hot():
        clock.now += 1.0
        traced_inner()

    traced_hot = tracer.timed("geometry.hot", hot, keep=False)
    tracer.timed("task", lambda: traced_hot(), keep=True)()

    by_name = {rec[2]: rec for rec in tracer.spans}
    assert set(by_name) == {"cli.inner", "task"}  # hot spans are aggregated, not kept
    assert by_name["cli.inner"][1] == by_name["task"][0]
    assert by_name["task"][1] is None
    assert tracer.self_s("geometry.hot") == 1.0


def test_a_raising_call_still_closes_its_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 2.0
        raise RuntimeError("boom")

    traced = tracer.timed("objectives.boom", boom, keep=True)
    with pytest.raises(RuntimeError):
        tracer.timed("task", traced, keep=True)()
    assert tracer.total_s("objectives.boom") == 2.0
    assert tracer.self_s("task") == 0.0
    assert len(tracer._stack) == 1  # back at the root frame


def test_spans_are_written_as_json_lines(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock)

    def work():
        clock.now += 0.5

    tracer.timed("task", work, keep=True)()
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == [{"id": 1, "parent": None, "name": "task", "start": 0.0, "end": 0.5, "self": 0.5}]


# -- norm family classification ------------------------------------------------


@pytest.mark.parametrize(
    "p, transformed, family",
    [
        (1.0, False, "l1"),
        (2.0, False, "l2"),
        (math.inf, False, "linf"),
        (1.5, False, "lp"),
        (3.0, False, "lp"),
        (2.0, True, "affine"),
        (1.0, True, "affine"),
        (math.inf, True, "affine"),
    ],
)
def test_norm_family(p, transformed, family):
    assert norm_family(p, transformed) == family


def test_weighted_norms_keep_their_exponent_family():
    import bootstrap

    bootstrap.prepare()
    from facilab.geometry import parse_norm

    norm = parse_norm("lp:2;w=1,4")
    assert norm_family(norm.p, norm.transform is not None) == "l2"
    norm = parse_norm("lp:2;A=1,0.5,0,1")
    assert norm_family(norm.p, norm.transform is not None) == "affine"


# -- certificate looseness and the declared metric names -------------------------


def test_cert_loose_is_scale_free():
    assert not cert_loose(2.0, 2.0 + 1e-6, 2.0)
    assert cert_loose(2.0, 2.0 + 1e-3, 2.0)
    assert cert_loose(1e-300, 2e-300, 1.5e-300)
    assert cert_loose(1.0, math.inf, 1.0)


def test_layer_metrics_match_the_declared_per_layer_metrics():
    from tracer import layer_metrics

    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    produced = layer_metrics(Tracer(), tasks=1, overhead=0.0, loose=0, certified=0)
    assert list(produced) == [m["name"] for m in declared["per_layer"]]
    for m in declared["per_layer"]:
        assert produced[m["name"]]["unit"] == m["unit"]


# -- machine-speed normalization -----------------------------------------------


def test_speed_factors_follow_drift_but_not_one_disturbed_kernel_run():
    import bootstrap

    bootstrap.prepare()
    from speed import NOMINAL_S, factors

    steady = [NOMINAL_S] * 9
    assert factors(steady) == [1.0] * 8
    spiked = list(steady)
    spiked[4] = 10 * NOMINAL_S  # one kernel run preempted
    assert factors(spiked) == [1.0] * 8
    slow = [2 * NOMINAL_S] * 9  # the whole machine at half speed
    assert factors(slow) == [0.5] * 8
