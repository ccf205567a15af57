"""The per-layer benchmark metrics must name functions the tracer can wrap.

perfbench/tracer.py counts calls by wrapping every public module-level
function (an `inspect.isfunction` object defined in the module) of each
layer's modules; a metric naming anything else makes `--trace 1` fail
with a KeyError.  This test reads BENCHMARK.json and the tracer's LAYERS
map and changes neither.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tracer_layers() -> dict:
    spec = importlib.util.spec_from_file_location("_bench_tracer", ROOT / "perfbench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


def _traced(modname: str, fn: str) -> bool:
    obj = getattr(importlib.import_module(modname), fn, None)
    return (inspect.isfunction(obj) and obj.__module__ == modname
            and not fn.startswith("_"))


def test_per_layer_metrics_name_traceable_functions():
    layers = _tracer_layers()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    checked = 0
    for name in names:
        parts = name.split(".")
        if len(parts) == 2:
            assert parts[1] != "self_s" or parts[0] in layers, name
            continue
        layer, fn, _kind = parts
        assert layer in layers, name
        assert any(_traced(modname, fn) for modname in layers[layer]), name
        checked += 1
    assert checked > 0
