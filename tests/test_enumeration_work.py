"""Operation-count gates on the enumeration and repetitive layers.

These count work instead of timing it, so they give the same answer on
every run: an enumeration decomposes each candidate once; no call
enumerates a quiver twice, whatever the closure; the repetitive suite
builds its repetitive category once; the radical filtration spans only
the blocks where a product can land; a hom space builds its maps only
when they are read; a Fitting split tries phi^N before factoring and
stops factoring at the first divisor that splits; a kernel takes one
elimination; and an isomorphism test reads one trace pairing.
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


def _scrambled_d4():
    """P0 + P0 + S1 + S0 + I1 over D4 in a random basis."""
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
    return Module(D4, dict(m.dims), mats)


def _count_poly_pow_mod(monkeypatch):
    calls = []
    poly_pow_mod = fovea.linalg.poly_pow_mod

    def recording(*args):
        calls.append(args)
        return poly_pow_mod(*args)

    monkeypatch.setattr(fovea.linalg, "poly_pow_mod", recording)
    dec = decompose(_scrambled_d4())
    assert sorted(p.module.total_dim for p in dec.pieces) == [1, 1, 2, 4, 4]
    return len(calls)


def test_decompose_stops_factoring_at_the_first_split(monkeypatch):
    # 11 when recorded; factoring every minimal polynomial in full takes 36
    assert _count_poly_pow_mod(monkeypatch) <= 11


def test_decompose_splits_on_the_power_before_factoring(monkeypatch):
    # recorded when phi^N was tried first and scalar-plus-radical
    # candidates were skipped; factoring from the first divisor takes 11
    assert _count_poly_pow_mod(monkeypatch) == 3


def test_kernel_basis_runs_one_elimination(monkeypatch):
    f = D4.field
    matrices = [Matrix(f, [[1, 2, 3], [2, 4, 6]]), Matrix(f, [[0, 1, 0, 5]]),
                Matrix(f, [[1, 0], [0, 1]]), Matrix.zeros(f, 2, 3)]
    calls = []
    rref = fovea.linalg.rref

    def recording(m):
        calls.append(m)
        return rref(m)

    monkeypatch.setattr(fovea.linalg, "rref", recording)
    for m in matrices:
        calls.clear()
        ker = fovea.linalg.kernel_basis(m)
        assert (m @ ker.transpose()).is_zero()
        assert len(calls) == 1


def test_isomorphism_test_reads_one_trace_pairing(monkeypatch):
    pb = path_basis(D4)
    p0 = projective(D4, "0", pb)
    assert set(p0.dims.values()) == {1}
    f = D4.field
    change = {v: Matrix(f, [[k + 2]]) for k, v in enumerate(D4.vertices)}
    twin = Module(D4, dict(p0.dims),
                  {a.name: change[a.source] @ p0.mats[a.name] @ inverse(change[a.target])
                   for a in D4.arrows})
    assert twin != p0
    homs, radicals = [], []
    hom_space_ = fovea.modules.hom_space
    end_radical = fovea.modules.end_radical

    def recording_hom(m, n):
        homs.append((m, n))
        return hom_space_(m, n)

    def recording_radical(*args, **kwargs):
        radicals.append(args)
        return end_radical(*args, **kwargs)

    monkeypatch.setattr(fovea.modules, "hom_space", recording_hom)
    monkeypatch.setattr(fovea.modules, "end_radical", recording_radical)
    assert fovea.modules.is_isomorphic_indec(p0, twin)
    # Hom(P, Q) and Hom(Q, P); End(P) is not needed
    assert len(homs) == 2 and radicals == []
