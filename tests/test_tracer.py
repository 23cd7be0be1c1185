"""perfbench's tracer wraps facilab's public names for a traced run and puts
every one back; a renamed name breaks this test, not only a traced run."""

import importlib
import sys
from pathlib import Path

# imported as scripts/bench_digest.py imports the benchmark's modules
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402

from facilab import cli, geometry  # noqa: E402
from facilab.geometry import parse_norm  # noqa: E402
from facilab.mechanisms import parse_mechanism  # noqa: E402


def _bindings():
    """Every module attribute and every class attribute the tracer may rebind."""
    modules = [importlib.import_module(name) for name in tracer.FACILAB_MODULES]
    classes = (geometry.Norm, geometry.Point, geometry.Profile, cli.ExperimentReport)
    return {(owner.__name__, attr): value for owner in (*modules, *classes) for attr, value in vars(owner).items()}


def test_tracer_restores_every_name_after_a_check():
    before = _bindings()
    traced = tracer.Tracer()
    with tracer.installed(traced):
        wrapped = {key for key, value in _bindings().items() if value is not before.get(key)}
        cli.run_check(parse_mechanism("rand_med"), parse_norm("lp:2"), 3, 2, 0, 300)
    after = _bindings()
    assert traced.calls("cli.run_check") == 1 and traced.calls("properties.check") == 6
    assert traced.calls("geometry.eval_many") > 0
    assert ("facilab.cli", "run_check") in wrapped and ("Point", "__post_init__") in wrapped
    assert [key for key in before if after.get(key) is not before[key]] == []
