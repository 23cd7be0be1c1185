"""Regenerate the committed per-workload references under ``reference/``.

Run from the repository root:  python3 perfbench/make_reference.py [audit|pricing|hunt ...]

A reference records what the library answers today, so a later change
that alters a verdict or an interval shows up as a failed task.  Only
regenerate one on purpose, after checking that the new answers are right.
"""

from __future__ import annotations

import json
import sys

import bootstrap

bootstrap.prepare()

import numpy as np  # noqa: E402

from facilab.cli import run_check  # noqa: E402
from facilab.geometry import parse_norm  # noqa: E402
from facilab.mechanisms import parse_mechanism  # noqa: E402
from facilab.objectives import approx_ratio  # noqa: E402
from facilab.search import SearchConfig, search_worst_ratio, structured_profiles  # noqa: E402

import workloads as wl  # noqa: E402

AUDIT_REFERENCE_SEEDS = range(9000, 9004)


def audit() -> dict:
    """The documented outcome per (mechanism, norm, property): pass, fail or info.

    Each is confirmed on the reference seeds: run_check must exit 0, that
    is, every pass/fail claim must hold there.
    """
    claims: dict = {}
    for mech in wl.AUDIT_MECHS:
        for text in wl.AUDIT_NORMS:
            for seed in AUDIT_REFERENCE_SEEDS:
                report, code = run_check(
                    parse_mechanism(mech), parse_norm(text), wl.AUDIT_N, wl.AUDIT_D, seed, wl.AUDIT_BUDGET
                )
                if code != 0:
                    raise SystemExit(f"run_check {mech} {text} seed {seed} exited {code}")
            claims[wl.Audit.key(mech, text)] = report.extra["expected"]
    return {"seeds": list(AUDIT_REFERENCE_SEEDS), "claims": claims}


def pricing() -> dict:
    """The profile pool with each profile's certified ratio interval."""
    gen = np.random.Generator(np.random.Philox(key=wl.PRICING_POOL_SEED))
    items = []
    for n, d, text, obj in wl.pricing_classes():
        norm = parse_norm(text)
        for _ in range(wl.PRICING_POOL_PER_CLASS):
            mech = wl.PRICING_MECHS[len(items) % len(wl.PRICING_MECHS)]
            rows = gen.normal(size=(n, d)) * 2.0
            result = approx_ratio(parse_mechanism(mech), wl.Profile.from_rows(rows), norm, obj)
            items.append(
                {
                    "mech": mech,
                    "norm": text,
                    "objective": obj.value,
                    "rows": rows.tolist(),
                    "ratio": result.ratio,
                    "lo": result.lo,
                    "hi": result.hi,
                }
            )
    return {"pool_seed": wl.PRICING_POOL_SEED, "items": items}


def hunt() -> dict:
    """Best score over the seed-independent structured families alone."""
    floors = {}
    for mech, obj, n, text in wl.hunt_combos():
        config = SearchConfig(
            rng_seed=0, restarts=len(structured_profiles(n, wl.HUNT_D)), local_steps=wl.HUNT_LOCAL_STEPS
        )
        result = search_worst_ratio(parse_mechanism(mech), parse_norm(text), obj, n, wl.HUNT_D, config)
        floors[wl.Hunt.key(mech, obj, n, text)] = result.ratio
    return {"structured_ratio": floors}


def main(names) -> None:
    builders = {"audit": audit, "pricing": pricing, "hunt": hunt}
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or builders:
        data = builders[name]()
        path = wl.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
