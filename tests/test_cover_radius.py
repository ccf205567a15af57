"""cover-axioms reads its layer sums off one window of the exact radius.

The sums equal those of the doubling loop it replaced (`oracles`) on every
recorded cover, the identity holds on random graded quivers whose relations
are monomial, and an arrow of large degree, which the doubling loop stopped
short of, is summed too.  The orbit list's windows grow past such an arrow
too: they stop only on Gabriel's count, the number of the base's
indecomposables.
"""

import pytest
from hypothesis import given, settings

from fovea.covering import orbit_enumeration, verify_covering_axioms
from fovea.naming import load_quiver
from fovea.quiver import parse_quiver
from fovea.repetitive import repetitive_voltage
from fovea.suites import run_suite
from oracles import doubling_covering_sums
from test_covering import D4_COVER_TEXT, DEGREE_10_D4_TEXT, LOOP_COVER_TEXT
from test_quiver import graded_quivers
from test_report_digests import (
    KRONECKER_COVER_TEXT,
    REP_A2_TEXT,
    REP_A3_PRIME_TEXT,
    REP_A3_TEXT,
    REP_KD4_TEXT,
    REP_KRONECKER_TEXT,
    REP_LOOP2_TEXT,
)

COVER_TEXTS = {
    "loop-cover": LOOP_COVER_TEXT, "d4": D4_COVER_TEXT, "kronecker-cover": KRONECKER_COVER_TEXT,
    "rep-a2": REP_A2_TEXT, "rep-a3": REP_A3_TEXT, "rep-kronecker": REP_KRONECKER_TEXT,
    "rep-loop2": REP_LOOP2_TEXT, "rep-a3p": REP_A3_PRIME_TEXT, "rep-kd4": REP_KD4_TEXT,
}
DEGREE_10_A2_TEXT = "field gf 32749\nnilbound 2\nvertex 1 2\narrow a: 1 -> 2 deg 10\n"


def _cover(name):
    if name in COVER_TEXTS:
        return parse_quiver(COVER_TEXTS[name])
    if name == "rep-point":
        return repetitive_voltage(load_quiver("point.bq")[2])
    return load_quiver(name)[2]


def _sums(report):
    left, right = {}, {}
    for r in report.records:
        for prefix, sums in (("covering.dim-sum-left[", left), ("covering.dim-sum-right[", right)):
            if r.check.startswith(prefix):
                sums[tuple(r.check[len(prefix):-1].split(","))] = r.actual
    return left, right


@pytest.mark.parametrize("name", ["line-k2.vq", "nakayama2.vq", "trivial-a2.vq", "rep-point",
                                  *COVER_TEXTS])
def test_exact_radius_gives_the_doubling_loops_sums(name):
    report = verify_covering_axioms(_cover(name))
    assert report.ok
    assert _sums(report) == doubling_covering_sums(_cover(name))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(graded_quivers(max_degree=12, binomials=False))
def test_cover_axioms_hold_on_graded_quivers_with_monomial_relations(vq):
    assert verify_covering_axioms(vq).ok


def test_cover_axioms_sum_an_arrow_of_degree_ten():
    """The doubling loop's radii 2, 4 and 8 all miss the arrow's lift, so it
    read 0 for dim A(1, 2) = 1."""
    vq = parse_quiver(DEGREE_10_A2_TEXT)
    assert doubling_covering_sums(vq)[0][("1", "2")] == 0
    report = verify_covering_axioms(vq)
    assert report.ok and _sums(report)[0][("1", "2")] == 1


def test_the_radius_holds_a_relations_longest_term():
    """x*y = a*b*c*d*e*f*y kills x*y, whose lift stays in one layer, while
    the long term climbs 3 layers: past (nilbound - 1) * max|deg| = 2, so a
    window without the relation's length keeps x*y."""
    vq = parse_quiver(
        "field gf 32749\nnilbound 3\nvertex 1 2 3 4 5 6 7\n"
        "arrow x: 1 -> 7 deg 0\narrow y: 7 -> 7 deg 0\narrow a: 1 -> 2 deg 1\n"
        "arrow b: 2 -> 3 deg 1\narrow c: 3 -> 4 deg 1\narrow d: 4 -> 5 deg -1\n"
        "arrow e: 5 -> 6 deg -1\narrow f: 6 -> 7 deg -1\nrelation x*y + 32748 a*b*c*d*e*f*y\n")
    report = verify_covering_axioms(vq)
    assert report.ok and _sums(report)[0][("1", "7")] == 1


@pytest.mark.parametrize("suite", ["pushdown", "kg0", "phi-identities"])
def test_suites_on_the_degree_ten_a2_cover_pass(tmp_path, suite):
    path = tmp_path / "a2-deg10.vq"
    path.write_text(DEGREE_10_A2_TEXT)
    assert run_suite(suite, str(path)).ok


@pytest.mark.parametrize("suite", ["pushdown", "kg0", "phi-identities"])
def test_suites_on_the_degree_ten_d4_cover_pass(tmp_path, suite):
    """Windows of the D4 cover with c of degree 10 narrower than [0, 10]
    hold no lift of c, so its orbit list is read off [0, 10], which holds
    the base's 12 classes."""
    path = tmp_path / "d4-deg10.vq"
    path.write_text(DEGREE_10_D4_TEXT)
    assert run_suite("cover-axioms", str(path)).ok
    assert run_suite(suite, str(path)).ok
    assert len(orbit_enumeration(parse_quiver(DEGREE_10_D4_TEXT))) == 12
