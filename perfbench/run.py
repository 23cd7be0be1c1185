"""facilab benchmark: one closed-loop workload, end-to-end or per-layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload audit|pricing|hunt --seed N --seconds S --trace 0|1

One client, one process, one thread, BLAS pinned to one thread.  Tasks
run back to back for ``--seconds`` seconds; every output is checked
afterwards, outside the timed region.

``--trace 0`` measures the end-to-end metrics untraced.  A calibration
kernel runs between tasks, and every time is rescaled to nominal machine
speed (see speed.py); the raw wall times are printed beside them.  ``--trace 1``
runs every task twice, untraced and then traced; the per-layer metrics
come from the traced runs and the tracing overhead is the ratio of the
two busy times on the same tasks.

A readable report goes to standard output; its last line is one JSON
object with the metrics declared in BENCHMARK.json.  The full result and
the kept trace spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import bootstrap
from metrics import cert_loose, median, ratio, tail
from speed import NOMINAL_S, factors, kernel_seconds, sample
from tracer import LAYER_MAP, Tracer, installed, layer_metrics

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 7
SETUP_SPEED_REPEATS = 5  # kernel runs per speed reading next to a set-up
SPEED_WARMUP = 20
HELD_OUT_SEED = 7919  # confirmation seed: never used while tuning a change


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("audit", "pricing", "hunt"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "blas_pin": {k: os.environ.get(k) for k in bootstrap.BLAS_PIN},
    }


def setup_times(workload: str, seed: int, kernel) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, run one after another.

    Returns the wall times and the calibration kernel time taken just
    before each.
    """
    times, kernel_times = [], []
    for _ in range(SETUP_REPEATS):
        kernel_times.append(kernel())
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
            cwd=bootstrap.ROOT,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times, kernel_times


def run_tasks(wl, seconds=None, first=0, count=None, tracer=None, kernel=None):
    """Closed loop: the next task starts when the previous one returns.

    Runs tasks ``first``, ``first + 1``, ... and stops after ``count``
    tasks, or at the first task boundary past ``seconds``.  With a
    calibration ``kernel``, it also runs before the first task and after
    each task, outside the task's timing.  Returns (tasks, outputs,
    errors, durations, kernel_times).
    """
    tasks, outputs, errors, durations = [], [], [], []
    clock = time.perf_counter
    run = wl.run if tracer is None else tracer.timed("task", wl.run, keep=True)
    kernel_times = [kernel()] if kernel else []
    started = clock()
    i = first
    while (count is not None and i < first + count) or (count is None and clock() - started < seconds):
        task = wl.task(i)
        output, error = None, None
        t0 = clock()
        try:
            output = run(task)
        except Exception as err:  # a raising task is a failed task, not a crashed run
            error = f"{type(err).__name__}: {err}"
        durations.append(clock() - t0)
        tasks.append(task)
        outputs.append(output)
        errors.append(error)
        if kernel:
            kernel_times.append(kernel())
        i += 1
    return tasks, outputs, errors, durations, kernel_times


def run_paired(wl, seconds, tracer):
    """Run each task untraced, then again traced, until ``seconds`` pass.

    Alternating task by task keeps slow drift of the machine out of the
    overhead estimate.  Returns the untraced durations and the traced
    pass's (tasks, outputs, errors, durations).
    """
    plain, traced = [], ([], [], [], [])
    started = time.perf_counter()
    i = 0
    while time.perf_counter() - started < seconds:
        plain += run_tasks(wl, first=i, count=1)[3]
        with installed(tracer):
            for acc, part in zip(traced, run_tasks(wl, first=i, count=1, tracer=tracer)[:4]):
                acc += part
        i += 1
    return plain, traced


def validate(wl, tasks, outputs, errors) -> dict:
    """Check every output; counts feed ``failed``, error_frac and cert_loose_frac."""
    failed, probes, probe_failures, certified, loose = 0, 0, 0, 0, 0
    first_failures = []
    for task, output, error in zip(tasks, outputs, errors):
        if error is not None:
            failures = [error]
        else:
            try:
                outcome = wl.check(task, output)
            except Exception as err:  # a check that cannot run counts against the task
                failures = [f"check raised {type(err).__name__}: {err}"]
            else:
                failures = outcome.failures
                probes += outcome.probes
                probe_failures += outcome.probe_failures
                certified += len(outcome.certified)
                loose += sum(cert_loose(*c) for c in outcome.certified)
        if failures:
            failed += 1
            if len(first_failures) < 5:
                first_failures.append(f"task {task!r:.120}: {'; '.join(failures)}")
    return {
        "attempted": len(tasks),
        "failed": failed,
        "scale_twins": probes,
        "scale_twin_failures": probe_failures,
        "certified": certified,
        "loose": loose,
        "first_failures": first_failures,
    }


def end_to_end(durations, task_factors, checks, setup, setup_factors) -> tuple[dict, list[str], dict]:
    """End-to-end metrics from speed-normalized times, with the raw ones beside."""
    norm = [d * f for d, f in zip(durations, task_factors)]
    setup_norm = [s * f for s, f in zip(setup, setup_factors)]
    n = len(norm)
    t, raw_t = tail(norm), tail(durations)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = checks["failed"] + checks["scale_twin_failures"]
    error_base = checks["attempted"] + checks["scale_twins"]
    metrics = {
        "tasks_per_s": {"value": n / sum(norm), "unit": "1/s"},
        "task_p50_ms": {"value": 1e3 * median(norm), "unit": "ms"},
        "task_tail_ms": {"value": 1e3 * t.value, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": median(setup_norm), "unit": "s"},
    }
    lines = [
        f"  machine speed: median factor {median(task_factors):.4f} over {n} tasks "
        f"(kernel {NOMINAL_S * 1e3:g} ms nominal, speed.py); times below are normalized, raw in brackets",
        f"  tasks_per_s      {n / sum(norm):12.4f} 1/s   ({n} tasks in {sum(norm):.3f} s normalized busy time) "
        f"[raw {n / sum(durations):.4f} in {sum(durations):.3f} s]",
        f"  task_p50_ms      {1e3 * median(norm):12.4f} ms    (median of {n} tasks) [raw {1e3 * median(durations):.4f}]",
        f"  task_tail_ms     {1e3 * t.value:12.4f} ms    (p{t.percentile:.2f}: {t.beyond} of {t.samples} tasks beyond) "
        f"[raw {1e3 * raw_t.value:.4f}]",
        f"  peak_rss_mb      {rss_mb:12.4f} MB    (peak resident set of this process)",
        f"  setup_s          {median(setup_norm):12.4f} s     (median of {len(setup)} fresh set-ups) "
        f"[raw {median(setup):.4f}: " + ", ".join(f"{s:.4f}" for s in setup) + "]",
        f"  error_frac       {ratio(errors, error_base):12.4f}       ({checks['failed']} of {checks['attempted']} tasks failed; "
        f"{checks['scale_twin_failures']} of {checks['scale_twins']} scale twins failed)",
        f"  cert_loose_frac  {ratio(checks['loose'], checks['certified']):12.4f}       "
        f"({checks['loose']} of {checks['certified']} certified ratio intervals loose)",
    ]
    details = {
        "tail": {"percentile": t.percentile, "beyond": t.beyond, "samples": t.samples},
        "raw": {
            "tasks_per_s": n / sum(durations),
            "task_p50_ms": 1e3 * median(durations),
            "task_tail_ms": 1e3 * raw_t.value,
            "setup_s": median(setup),
        },
        "setup_samples_s": setup,
        "setup_speed_factors": setup_factors,
        "task_durations_s": durations,
        "task_speed_factors": task_factors,
    }
    return metrics, lines, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        bootstrap.prepare()
    except bootstrap.MissingSource as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    # LAPACK reports some numerical failures by writing to file descriptor 1
    # from C, which would land after the result line; send the library's
    # stdout to stderr and keep a private handle for the report.
    report = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout.flush()
    os.dup2(2, 1)

    started = time.perf_counter()
    import facilab

    bootstrap.check_imported_from_checkout(facilab)
    import workloads

    wl = workloads.build(args.workload, args.seed)
    local_setup = time.perf_counter() - started
    env = environment(args.seed)

    def say(line=""):
        report.write(line + "\n")

    say(f"facilab benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    say(
        f"environment: python {env['python']}, numpy {env['numpy']}, cpu {env['cpu_model']}, "
        f"nproc {env['nproc']}, loadavg {env['loadavg_at_start']}, BLAS pin {env['blas_pin']}, "
        f"held-out seed {HELD_OUT_SEED}"
    )
    say("load: closed loop, 1 client, 1 process, 1 thread; no queue, so there is no wait time to report")

    try:
        wl.run(wl.task(0))  # warm lazy imports and first-call paths; not measured
    except Exception:  # the loop runs task 0 again and counts its failure
        pass
    result = {"workload": args.workload, "trace": args.trace, "environment": env, "in_process_setup_s": local_setup}
    if args.trace == 0:
        sample(SPEED_WARMUP)  # the first kernel runs are slower (cold caches)
        setup, setup_kernel = setup_times(args.workload, args.seed, lambda: sample(SETUP_SPEED_REPEATS))
        tasks, outputs, errors, durations, kernel_times = run_tasks(wl, seconds=args.seconds, kernel=kernel_seconds)
        checks = validate(wl, tasks, outputs, errors)
        setup_factors = [NOMINAL_S / k for k in setup_kernel]
        metrics, lines, details = end_to_end(durations, factors(kernel_times), checks, setup, setup_factors)
        result.update(details)
        say("end-to-end:")
    else:
        tracer = Tracer()
        plain, (tasks, outputs, errors, durations) = run_paired(wl, args.seconds, tracer)
        overhead = sum(durations) / sum(plain) - 1.0
        checks = validate(wl, tasks, outputs, errors)
        metrics = layer_metrics(tracer, len(tasks), overhead, checks["loose"], checks["certified"])
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(bootstrap.ROOT))
        say(f"per-layer ({len(tasks)} tasks traced; per-task values are divided by that base):")
        lines = [f"  {k:40s} {v['value']:14.6g} {v['unit']}" for k, v in metrics.items()]
        lines.append(
            f"  tracing overhead: {overhead:+.2%} busy time on the same {len(tasks)} tasks "
            f"({sum(plain):.3f} s untraced, {sum(durations):.3f} s traced)"
        )
        lines.append("layer map (traced name: end-to-end metrics it should move):")
        lines += [f"  {k}: {v}" for k, v in LAYER_MAP.items()]
    for line in lines:
        say(line)
    for failure in checks["first_failures"]:
        say(f"FAILED {failure}")
    result.update(checks=checks, metrics=metrics)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8"
    )
    say(
        json.dumps(
            {
                "correct": checks["failed"] == 0,
                "attempted": checks["attempted"],
                "failed": checks["failed"],
                "metrics": metrics,
            }
        )
    )
    report.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
