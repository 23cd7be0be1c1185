"""In-memory span tracer that wraps facilab's public functions from outside.

Every traced call pushes a frame on one stack (the benchmark is single
threaded), so a span's self time is its duration minus the time its direct
children cover.  Hot leaf calls (norm evaluations, mechanism calls) are
only aggregated per name; coarse spans are also kept as records and
written out when the run ends, which bounds memory on runs that make
millions of leaf calls.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

from metrics import FAMILIES, median, norm_family, ratio

# Layer map: traced name -> the end-to-end metrics and workloads it should
# move.  Written down before any optimization lands, so a gain in a layer
# is only credited where this map says it should show.
LAYER_MAP = {
    "geometry.eval_many": "tasks_per_s, task_p50_ms on audit and hunt; no move on pricing",
    "geometry.expected_distance": "tasks_per_s, task_p50_ms on audit and hunt",
    "geometry.point_new": "tasks_per_s, task_p50_ms on audit and hunt",
    "geometry.profile_new": "tasks_per_s, task_p50_ms on audit and hunt",
    "mechanisms.apply": "tasks_per_s on audit and hunt",
    "objectives.opt_sc": "tasks_per_s, task_tail_ms, cert_loose_frac on pricing; a little on hunt; none on audit",
    "objectives.opt_mc": "tasks_per_s, task_tail_ms, cert_loose_frac on pricing; a little on hunt; none on audit",
    "objectives.opt_value_upper": "tasks_per_s on hunt",
    "objectives.cost": "tasks_per_s on hunt",
    "objectives.approx_ratio": "tasks_per_s on pricing",
    "properties.check": "task_p50_ms on audit",
    "search.sp": "task_p50_ms on audit",
    "search.gsp": "task_tail_ms on audit",
    "search.worst_ratio": "tasks_per_s on hunt",
    "cli.run_check": "task_p50_ms on audit",
    "cli.to_json": "task_p50_ms on audit",
}

Observer = Callable[[tuple, dict, object, float], None]


class Tracer:
    """Span stack with per-name totals and kept span records.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with a deterministic clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.open_layers: Counter = Counter()
        self.spans: list[tuple] = []  # (id, parent_id, name, start, end, self)
        self._stack: list[list] = [[0.0, None]]  # frame: [child_time, nearest kept span id]
        self._ids = itertools.count(1)

    def timed(self, name: str, fn, keep: bool, observe: Optional[Observer] = None):
        """Wrap ``fn`` so each call becomes a span named ``name``.

        ``keep`` also stores the span as a record; otherwise it is only
        added to the per-name totals.  The bookkeeping is inlined because
        this wrapper sits on calls that take a few microseconds.
        """
        layer = name.split(".", 1)[0]
        stack, clock, spans, open_layers, ids = self._stack, self.clock, self.spans, self.open_layers, self._ids
        entry = self.stats[name]

        def traced(*args, **kwargs):
            parent = stack[-1]
            if keep:
                frame = [0.0, next(ids)]
                open_layers[layer] += 1
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[0] += dur
                own = dur - frame[0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += own
                if keep:
                    open_layers[layer] -= 1
                    spans.append((frame[1], parent[1], name, start, end, own))
            if observe is not None:
                observe(args, kwargs, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        """Wrap ``fn`` to count calls only; its time stays with the caller."""
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total_s(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_s(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def write(self, path) -> None:
        """Dump the kept spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, own in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name, "start": start, "end": end, "self": own}
                    )
                    + "\n"
                )


# -- wiring into facilab ------------------------------------------------------

FACILAB_MODULES = (
    "facilab",
    "facilab.geometry",
    "facilab.mechanisms",
    "facilab.objectives",
    "facilab.properties",
    "facilab.search",
    "facilab.cli",
)


def _rebind_everywhere(original, replacement, modules, undo: list) -> None:
    """Point every module attribute bound to ``original`` at ``replacement``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


@contextmanager
def installed(tracer: Tracer):
    """Wrap facilab's public functions for the duration of the block.

    Functions are rebound in every module namespace that imported them
    (``facilab.search.expected_distance``, ``facilab.cli.apply``, ...);
    methods are replaced on their class.  Everything is restored on exit.
    """
    modules = [importlib.import_module(m) for m in FACILAB_MODULES]
    geometry, mechanisms, objectives, properties, search, cli = modules[1:]
    watch = observers(tracer, objectives.DEFAULT_BUDGET)
    undo: list = []

    def function(name, mod, attr, keep):
        original = getattr(mod, attr)
        wrapper = tracer.timed(name, original, keep, watch.get(name))
        _rebind_everywhere(original, wrapper, modules, undo)

    def method(name, cls, attr, keep):
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.timed(name, original, keep, watch.get(name)))
        undo.append((cls, attr, original))

    def count(name, cls, attr):
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.counted(name, original))
        undo.append((cls, attr, original))

    method("geometry.eval_many", geometry.Norm, "eval_many", keep=False)
    function("geometry.expected_distance", geometry, "expected_distance", keep=False)
    count("geometry.point_new", geometry.Point, "__post_init__")
    count("geometry.profile_new", geometry.Profile, "__post_init__")
    function("mechanisms.apply", mechanisms, "apply", keep=False)
    function("objectives.opt_sc", objectives, "opt_social_cost", keep=True)
    function("objectives.opt_mc", objectives, "opt_max_cost", keep=True)
    function("objectives.opt_value_upper", objectives, "opt_value_upper", keep=False)
    function("objectives.cost", objectives, "cost", keep=False)
    function("objectives.approx_ratio", objectives, "approx_ratio", keep=True)
    for attr in sorted(vars(properties)):
        if attr.startswith("check_") and callable(getattr(properties, attr)):
            function("properties.check", properties, attr, keep=True)
    function("search.sp", search, "search_sp_violation", keep=True)
    function("search.gsp", search, "search_gsp_violation", keep=True)
    function("search.worst_ratio", search, "search_worst_ratio", keep=True)
    function("cli.run_check", cli, "run_check", keep=True)
    method("cli.to_json", cli.ExperimentReport, "to_json", keep=True)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- per-layer metrics ---------------------------------------------------------

BUDGET_HIT_SHARE = 0.95  # an optimizer call that used this share of its budget ran out


def observers(tracer: Tracer, default_budget: int) -> dict[str, Observer]:
    """Counters recorded at the layer boundaries, next to the spans."""
    counts, samples, open_layers = tracer.counts, tracer.samples, tracer.open_layers

    def eval_rows(args, kwargs, result, dur):
        counts["geometry.eval_many.rows"] += len(result)

    def apply_in_search(args, kwargs, result, dur):
        if open_layers["search"]:
            counts["search.apply_calls"] += 1

    def optimizer(name):
        def observe(args, kwargs, result, dur):
            norm = args[1] if len(args) > 1 else kwargs["norm"]
            budget = args[2] if len(args) > 2 else kwargs.get("budget", default_budget)
            counts[name + ".evals"] += result.evaluations
            counts[name + ".budget_hit"] += result.evaluations >= BUDGET_HIT_SHARE * budget
            samples[f"{name}.{norm_family(norm.p, norm.transform is not None)}"].append(dur)

        return observe

    def witness(args, kwargs, result, dur):
        counts["search.witnesses"] += result is not None

    def report_bytes(args, kwargs, result, dur):
        counts["cli.report_bytes"] += len(result.encode("utf-8"))

    return {
        "geometry.eval_many": eval_rows,
        "mechanisms.apply": apply_in_search,
        "objectives.opt_sc": optimizer("objectives.opt_sc"),
        "objectives.opt_mc": optimizer("objectives.opt_mc"),
        "search.sp": witness,
        "search.gsp": witness,
        "cli.to_json": report_bytes,
    }


def layer_metrics(tracer: Tracer, tasks: int, overhead: float, loose: int, certified: int) -> dict:
    """Per-layer metrics of a traced pass over ``tasks`` tasks.

    Counts and busy times are per task, so they stay comparable when a
    faster program fits more tasks into the same run.
    """
    out: dict = {}
    t = tracer

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def calls_and_self(name):
        put(f"{name}.calls", t.calls(name) / tasks, "calls/task")
        put(f"{name}.self_s", t.self_s(name) / tasks, "s/task")

    calls_and_self("geometry.eval_many")
    put("geometry.eval_many.rows_per_call", ratio(t.counts["geometry.eval_many.rows"], t.calls("geometry.eval_many")), "rows/call")
    calls_and_self("geometry.expected_distance")
    put("geometry.point_new.calls", t.counts["geometry.point_new"] / tasks, "calls/task")
    put("geometry.profile_new.calls", t.counts["geometry.profile_new"] / tasks, "calls/task")
    calls_and_self("mechanisms.apply")
    put("mechanisms.apply.us_per_call", 1e6 * ratio(t.total_s("mechanisms.apply"), t.calls("mechanisms.apply")), "us")
    for opt in ("objectives.opt_sc", "objectives.opt_mc"):
        calls_and_self(opt)
        put(f"{opt}.evals", t.counts[opt + ".evals"] / tasks, "evals/task")
        put(f"{opt}.budget_hit_frac", ratio(t.counts[opt + ".budget_hit"], t.calls(opt)), "frac")
        for family in FAMILIES:
            put(f"{opt}.{family}.p50_ms", 1e3 * median(t.samples[f"{opt}.{family}"]), "ms")
    for name in ("objectives.opt_value_upper", "objectives.cost", "objectives.approx_ratio"):
        calls_and_self(name)
    put("objectives.cert_loose_frac", ratio(loose, certified), "frac")
    calls_and_self("properties.check")
    for name in ("search.sp", "search.gsp", "search.worst_ratio"):
        calls_and_self(name)
    search_s = sum(t.total_s(n) for n in ("search.sp", "search.gsp", "search.worst_ratio"))
    put("search.apply_per_s", ratio(t.counts["search.apply_calls"], search_s), "1/s")
    put("search.witness_frac", ratio(t.counts["search.witnesses"], t.calls("search.sp") + t.calls("search.gsp")), "frac")
    put("cli.run_check.self_s", t.self_s("cli.run_check") / tasks, "s/task")
    put("cli.to_json.self_s", t.self_s("cli.to_json") / tasks, "s/task")
    put("cli.report_bytes", ratio(t.counts["cli.report_bytes"], t.calls("cli.to_json")), "bytes/report")
    put("trace.overhead_frac", overhead, "frac")
    return out
