"""The full closure knits only AR-quiver neighbours and lists what the
older closure listed.

`enumerate_indecomposables` takes rad N only for a projective N and
N/soc N only for an injective N.  tests/closure_reference.py keeps the
closure that took both of every listed N; on the packaged algebras, the
64 catalogued ones the benchmark draws from and windows of two covers
that are not locally Nakayama, both give the same modules in the same
order, the same completeness and the same notes.
"""

import pytest

import fovea.modules
from fovea.modules import enumerate_indecomposables, format_module, injective, is_isomorphic_indec, projective
from fovea.naming import load_quiver
from fovea.quiver import Window, lift_window, parse_quiver

from closure_reference import reference_enumerate_indecomposables
from test_covering import D4_COVER_TEXT
from test_report_digests import REP_A3_PRIME_TEXT
from test_repetitive import _algebra_fixtures, _catalogued_algebras


def _summary(enum):
    return [format_module(m) for m in enum.modules], enum.complete, enum.notes


def _cover_windows():
    out = []
    for name, text in (("d4", D4_COVER_TEXT), ("rep-a3p", REP_A3_PRIME_TEXT)):
        vq = parse_quiver(text)
        for lo, hi in ((-1, 1), (0, 2)):
            out.append(pytest.param(lift_window(vq, Window(lo, hi)), id=f"{name}[{lo},{hi}]"))
    return out


# kg0's caps on algebras; the window loop's fixed caps on cover windows
@pytest.mark.parametrize("bq", _algebra_fixtures() + _catalogued_algebras())
def test_closure_equals_the_reference_at_the_kg0_caps(bq):
    assert _summary(enumerate_indecomposables(bq, dim_cap=12, count_cap=24)) == \
        _summary(reference_enumerate_indecomposables(bq, dim_cap=12, count_cap=24))


@pytest.mark.parametrize("bq", _cover_windows())
def test_closure_equals_the_reference_on_cover_windows(bq):
    assert _summary(enumerate_indecomposables(bq, dim_cap=64, count_cap=128)) == \
        _summary(reference_enumerate_indecomposables(bq, dim_cap=64, count_cap=128))


D4 = parse_quiver("field gf 32749\nnilbound 2\nvertex 0 1 2 3\n"
                  "arrow a: 1 -> 0\narrow b: 2 -> 0\narrow c: 3 -> 0\n")
STAR5 = parse_quiver("field gf 32749\nnilbound 3\nvertex 1 2 3 4 5\n"
                     "arrow a: 2 -> 1\narrow b: 3 -> 1\narrow c: 4 -> 1\narrow d: 1 -> 5\n"
                     "relation a*d\n")


@pytest.mark.parametrize("make_bq,caps", [
    (lambda: D4, (12, 24)),
    (lambda: STAR5, (12, 24)),
    (lambda: load_quiver("kronecker.bq")[2], (12, 24)),
    (lambda: lift_window(parse_quiver(REP_A3_PRIME_TEXT), Window(0, 2)), (64, 128)),
], ids=["d4", "star5", "kronecker", "rep-a3p[0,2]"])
def test_full_closure_takes_radicals_of_projectives_and_socle_quotients_of_injectives(
        monkeypatch, make_bq, caps):
    bq = make_bq()
    seen = {"radical": [], "socle": []}
    radical, socle = fovea.modules.radical_submodule, fovea.modules.socle_quotient

    def recording_radical(m):
        seen["radical"].append(m)
        return radical(m)

    def recording_socle(m):
        seen["socle"].append(m)
        return socle(m)

    monkeypatch.setattr(fovea.modules, "radical_submodule", recording_radical)
    monkeypatch.setattr(fovea.modules, "socle_quotient", recording_socle)
    enumerate_indecomposables(bq, *caps)
    monkeypatch.undo()
    assert seen["radical"] and seen["socle"]
    projectives = [projective(bq, v) for v in bq.vertices]
    injectives = [injective(bq, v) for v in bq.vertices]

    def among(m, modules):
        return any(m.dims == x.dims and is_isomorphic_indec(m, x) for x in modules)

    assert all(among(m, projectives) for m in seen["radical"])
    assert all(among(m, injectives) for m in seen["socle"])
