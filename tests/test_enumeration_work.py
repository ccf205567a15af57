"""Operation-count gates on the enumeration layer.

These count work instead of timing it, so they give the same answer on
every run: an enumeration decomposes each candidate once, and no call
enumerates a quiver twice, whatever the closure.
"""

import sys

import pytest

import fovea.covering
import fovea.modules
from fovea.functors import default_battery
from fovea.modules import enumerate_indecomposables
from fovea.naming import load_quiver
from fovea.quiver import Window, lift_window, parse_quiver
from fovea.suites import run_suite

D4 = parse_quiver(
    "field gf 32749\nnilbound 2\nvertex 0 1 2 3\n"
    "arrow a: 1 -> 0\narrow b: 2 -> 0\narrow c: 3 -> 0\n")
NAKAYAMA = parse_quiver(
    "field gf 32749\nnilbound 2\nvertex 1 2\narrow a: 1 -> 2\narrow b: 2 -> 1\n"
    "relation a*b\nrelation b*a\n")


def _nakayama2_window():
    _, _, vq = load_quiver("nakayama2.vq")
    return lift_window(vq, Window(-2, 2))


@pytest.mark.parametrize("make_bq", [lambda: NAKAYAMA, lambda: D4, _nakayama2_window],
                         ids=["nakayama", "d4", "nakayama2-window"])
def test_enumeration_decomposes_each_candidate_once(monkeypatch, make_bq):
    bq = make_bq()
    seen = []
    decompose = fovea.modules.decompose

    def recording(m, *args, **kwargs):
        seen.append(m)
        return decompose(m, *args, **kwargs)

    monkeypatch.setattr(fovea.modules, "decompose", recording)
    enum = enumerate_indecomposables(bq, dim_cap=64, count_cap=128)
    assert enum.complete and seen
    assert len(set(seen)) == len(seen)


def test_battery_enumerates_each_window_once(monkeypatch):
    calls = []
    enumerate_ = fovea.modules.enumerate_indecomposables

    def recording(bq, *args, **kwargs):
        calls.append(bq)
        return enumerate_(bq, *args, **kwargs)

    # every fovea binding of the function, so that no closure escapes the count
    for name, module in list(sys.modules.items()):
        if name.startswith("fovea") and getattr(module, "enumerate_indecomposables", None) is enumerate_:
            monkeypatch.setattr(module, "enumerate_indecomposables", recording)
    assert fovea.covering.enumerate_indecomposables is recording
    runs = {
        "battery trivial-a2.vq": lambda: default_battery(load_quiver("trivial-a2.vq")[2]),
        "pushdown nakayama2.vq": lambda: run_suite("pushdown", "nakayama2.vq"),
        "kg0 nakayama2.vq": lambda: run_suite("kg0", "nakayama2.vq"),
    }
    for label, run in runs.items():
        calls.clear()
        run()
        assert calls, label
        assert len(set(calls)) == len(calls), label
