"""Operation-count gates on the enumeration and repetitive layers.

These count work instead of timing it, so they give the same answer on
every run: an enumeration decomposes each candidate once; no call
enumerates a quiver twice, whatever the closure; the repetitive suite
builds its repetitive category once; the radical filtration spans only
the blocks where a product can land; a hom space builds its maps only
when they are read; and a Fitting split stops factoring at the first
divisor that splits.
"""

import random
import sys

import pytest

import fovea.covering
import fovea.linalg
import fovea.modules
import fovea.repetitive
import fovea.suites
from fovea.functors import default_battery
from fovea.linalg import Matrix, Subspace, inverse
from fovea.modules import (
    ModMap,
    Module,
    decompose,
    direct_sum,
    enumerate_indecomposables,
    hom_space,
    injective,
    projective,
    simple,
)
from fovea.naming import load_quiver
from fovea.quiver import Window, lift_window, parse_quiver, path_basis, radical_filtration
from fovea.repetitive import RepetitiveTruncation
from fovea.suites import run_suite
from test_repetitive import dense_radical_filtration

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
        # the base and the windows of one orbit list
        assert len(calls) <= 3, label


def test_repetitive_suite_builds_the_repetitive_category_once(monkeypatch):
    calls = []
    repetitive_voltage = fovea.repetitive.repetitive_voltage

    def recording(bq, *args, **kwargs):
        calls.append(bq)
        return repetitive_voltage(bq, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("fovea") and getattr(module, "repetitive_voltage", None) is repetitive_voltage:
            monkeypatch.setattr(module, "repetitive_voltage", recording)
    assert fovea.suites.repetitive_voltage is recording
    assert run_suite("repetitive", "a3.bq").passed
    assert len(calls) == 1


def test_radical_filtration_spans_only_nonzero_blocks(monkeypatch):
    cat = RepetitiveTruncation(load_quiver("a3.bq")[2], 3).category
    spans = []
    span = Subspace.span

    def recording(field, ambient, vectors):
        spans.append(ambient)
        return span(field, ambient, vectors)

    with monkeypatch.context() as patch:
        patch.setattr(Subspace, "span", staticmethod(recording))
        radical_filtration(cat)
    # every nonzero block of rad, rad^2, ..., rad^nildeg is spanned once, and
    # each ambient dimension needs at most one zero subspace on top
    _, _, _, powers = dense_radical_filtration(cat)
    nonzero = sum(1 for power in powers for s in power.values() if s.dim)
    bound = nonzero + len(set(cat.dims.values()))
    assert 0 < len(spans) <= bound


def test_hom_dimension_builds_no_maps(monkeypatch):
    pb = path_basis(D4)
    modules = [projective(D4, "0", pb), injective(D4, "1"), simple(D4, "0")]
    built = []
    from_vector = ModMap.from_vector.__func__

    def recording(cls, *args, **kwargs):
        built.append(args)
        return from_vector(cls, *args, **kwargs)

    monkeypatch.setattr(ModMap, "from_vector", classmethod(recording))
    dims = [hom_space(m, n).dim for m in modules for n in modules]
    assert sum(dims) > 0
    assert built == []
    # the maps are still there for a caller that reads them
    assert len(hom_space(modules[0], modules[0]).maps) == dims[0]
    assert len(built) == dims[0]


def test_decompose_stops_factoring_at_the_first_split(monkeypatch):
    pb = path_basis(D4)
    f = D4.field
    pieces = [projective(D4, "0", pb), projective(D4, "0", pb), simple(D4, "1"),
              simple(D4, "0"), injective(D4, "1")]
    m, _, _ = direct_sum(pieces)
    rng = random.Random(8)
    change = {}
    for v in D4.vertices:
        while v not in change:
            cand = Matrix(f, [[f.sample(rng) for _ in range(m.dims[v])] for _ in range(m.dims[v])])
            if inverse(cand) is not None:
                change[v] = cand
    mats = {a.name: change[a.source] @ m.mats[a.name] @ inverse(change[a.target])
            for a in D4.arrows}
    scrambled = Module(D4, dict(m.dims), mats)
    calls = []
    poly_pow_mod = fovea.linalg.poly_pow_mod

    def recording(*args):
        calls.append(args)
        return poly_pow_mod(*args)

    monkeypatch.setattr(fovea.linalg, "poly_pow_mod", recording)
    dec = decompose(scrambled)
    assert sorted(p.module.total_dim for p in dec.pieces) == [1, 1, 2, 4, 4]
    # 11 when recorded; factoring every minimal polynomial in full takes 36
    assert len(calls) <= 11
