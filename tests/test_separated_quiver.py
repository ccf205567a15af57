"""The separated-quiver certificate of infinite representation type.

`_separated_quiver_is_dynkin` reads A's Gabriel quiver off the arrows and
the length-1 parts of the relations, and tests its separated quiver for
types A, D and E.  When the answer is no, A/rad^2 A and hence A are
representation-infinite, so kg0 and the CLI's simple-functor verbs skip
an enumeration that could never complete.  These tests check the
classifier on each Dynkin and Euclidean type, its reading of linear
relations and of nilbound 1, its agreement with the Tits form oracle in
tests/oracles.py, and (hypothesis, over GF(p) and Q) that an algebra it
flags never gets a complete enumeration at kg0's caps.

A path algebra KQ (no relation, no path of length nilbound) is
representation-finite exactly when Q's graph is a union of Dynkin
diagrams (Gabriel 1972), a test the separated quiver can miss:
`_infinite_reason` adds it, with the same classifier.  These tests check
it on the Euclidean square of the A~3 cover, on path algebras of Dynkin
type in every orientation, and against the graph's Tits form.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import fovea.modules
from fovea.linalg import Field
from fovea.modules import (
    _enumerate_unless_infinite,
    _infinite_reason,
    _separated_quiver_is_dynkin,
    enumerate_indecomposables,
)
from fovea.naming import load_quiver
from fovea.quiver import BoundQuiver, parse_quiver

from oracles import (
    brute_paths,
    separated_tits_form_is_positive_definite,
    tits_form_is_positive_definite,
)
from test_modules import KXY
from test_report_digests import _workloads
from test_repetitive import _catalogued_algebras


def _quiver(arrows: str, relations=(), nilbound: int = 2) -> BoundQuiver:
    """A bound quiver over GF(32749) from arrows written "1>0 2>0 ..."."""
    ends = [a.split(">") for a in arrows.split()]
    vertices = sorted({v for pair in ends for v in pair})
    lines = ["field gf 32749", f"nilbound {nilbound}", "vertex " + " ".join(vertices)]
    lines += [f"arrow a{k}: {s} -> {t}" for k, (s, t) in enumerate(ends)]
    lines += [f"relation {r}" for r in relations]
    return parse_quiver("\n".join(lines) + "\n")


# each separated quiver is named; a vertex v of the quiver splits into
# v+ (its arrows out) and v- (its arrows in)
DYNKIN = {
    "A2 (a loop)": _quiver("1>1"),
    "A2 + A2 (an oriented 2-cycle)": _quiver("1>2 2>1"),
    "A3 (a zigzag)": _quiver("1>2 3>2"),
    "A2 + A2 + A2 (a line)": _quiver("1>2 2>3 3>4", relations=("a0*a1", "a1*a2"),
                                     nilbound=3),
    "D4": _quiver("1>0 2>0 3>0"),
    "D5": _quiver("1>0 2>0 3>0 3>5"),
    "D6": _quiver("1>0 2>0 3>0 3>5 6>5"),
    "E6": _quiver("1>0 2>0 3>0 2>4 3>5"),
    "E7": _quiver("1>0 2>0 3>0 2>4 3>5 6>5"),
    "E8": _quiver("1>0 2>0 3>0 2>4 3>5 6>5 6>7"),
}
EUCLIDEAN = {
    "A~1 (two parallel arrows)": _quiver("1>2 1>2"),
    "A~1 (two loops)": KXY,
    "A~3 (a square)": _quiver("1>2 1>3 4>2 4>3"),
    "D~4 (a star)": _quiver("1>0 2>0 3>0 4>0"),
    "D~5 (two branch vertices)": _quiver("1>0 2>0 3>0 3>5 3>6"),
    "E~6": _quiver("1>0 2>0 3>0 1>8 2>4 3>5"),
    "E~7": _quiver("1>0 2>0 3>0 2>4 8>4 3>5 6>5"),
    "E~8": _quiver("1>0 2>0 3>0 2>4 3>5 6>5 6>7 8>7"),
}


@pytest.mark.parametrize("bq", DYNKIN.values(), ids=DYNKIN.keys())
def test_dynkin_separated_quivers_are_not_flagged(bq):
    assert _separated_quiver_is_dynkin(bq) and _oracle(bq)


@pytest.mark.parametrize("bq", EUCLIDEAN.values(), ids=EUCLIDEAN.keys())
def test_euclidean_separated_quivers_are_flagged(bq):
    assert not _separated_quiver_is_dynkin(bq) and not _oracle(bq)


def test_a_linear_relation_removes_its_arrow_from_the_gabriel_quiver():
    # a0 and a1 are parallel, a Kronecker pair; a0 = a2*a3 puts a0 in rad^2,
    # leaving the Gabriel quiver a1, a2, a3, whose separated quiver is A4
    # (the algebra is still infinite: the certificate is one-sided)
    assert not _separated_quiver_is_dynkin(_quiver("1>2 1>2 1>3 3>2", nilbound=3))
    assert _separated_quiver_is_dynkin(_quiver("1>2 1>2 1>3 3>2", ("a0 - a2*a3",), 3))
    # the length-1 parts span one line: a0 + a1 and 2 a0 + 2 a1 - a3*a4
    # remove one of the two parallel arrows, not both
    bq = _quiver("1>2 1>2 1>2 1>3 3>2", ("a0 + a1", "2 a0 + 2 a1 - a3*a4"), 3)
    assert not _separated_quiver_is_dynkin(bq)
    assert _separated_quiver_is_dynkin(_quiver("1>2 1>2 1>2", ("a0 - a1", "a1 - a2")))


def test_nilbound_one_leaves_no_gabriel_arrow():
    assert not _separated_quiver_is_dynkin(_quiver("1>2 1>2 1>1 1>1"))
    assert _separated_quiver_is_dynkin(_quiver("1>2 1>2 1>1 1>1", nilbound=1))


def test_among_the_recorded_kg0_inputs_only_the_kronecker_algebra_is_flagged():
    """The benchmark's 73 kg0 inputs: the 5 algebra fixtures, the 64
    catalogued algebras and the bases of 4 covers."""
    bases = {}
    for suite, name, text in _workloads().recorded_calls():
        if suite == "kg0":
            q = parse_quiver(text) if text else load_quiver(name)[2]
            bases[name] = q if isinstance(q, BoundQuiver) else q.base
    assert len(bases) == 73
    assert [name for name, bq in bases.items()
            if not _separated_quiver_is_dynkin(bq)] == ["kronecker.bq"]
    catalogued = [param.values[0] for param in _catalogued_algebras()]
    assert len(catalogued) == 64
    assert all(_separated_quiver_is_dynkin(bq) for bq in catalogued)


# decompose needs a prime above the dimension of each candidate, up to
# 4 * dim_cap = 48 at kg0's caps
FIELDS = [Field.gf(101), Field.gf(32749), Field.rationals()]


@st.composite
def bound_quivers(draw, max_vertices=3, max_arrows=4):
    """Random quivers as in tests/test_hom_space.py (parallel arrows
    included), with nilbound 2 or 3 and up to two relations of parallel
    terms: a length-1 term, a length-2 term, or both.

    Loops only over GF(p), and two at most: a local algebra's enumeration
    takes 68 s over Q with two loops (0.7 s over GF(32749)) and 3 s over
    GF(32749) with three, and two loops already make the separated
    quiver non-Dynkin."""
    field = draw(st.sampled_from(FIELDS))
    vertices = [str(v) for v in range(1, draw(st.integers(1, max_vertices)) + 1)]
    pairs = [(s, t) for s in vertices for t in vertices if field.p or s != t]
    arrows = []
    for _ in range(draw(st.integers(0, max_arrows if pairs else 0))):
        s, t = draw(st.sampled_from(pairs))
        if s != t or sum(a[1] == a[2] for a in arrows) < 2:
            arrows.append((f"a{len(arrows)}", s, t))
    by_ends: dict = {}
    for a, s, t in arrows:
        by_ends.setdefault((s, t), []).append((a,))
    for a, s, m in arrows:
        for b, m2, t in arrows:
            if m == m2:
                by_ends.setdefault((s, t), []).append((a, b))
    coefficient = st.sampled_from([1, 2, -1])
    relations = []
    for _ in range(draw(st.integers(0, 2))):
        if not by_ends:
            break
        paths = by_ends[draw(st.sampled_from(sorted(by_ends)))]
        chosen = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True))
        relations.append(tuple((draw(coefficient), p) for p in chosen))
    return BoundQuiver(vertices, arrows, relations, field, draw(st.integers(2, 3)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bound_quivers(max_vertices=5, max_arrows=7))
def test_the_classifier_equals_the_tits_form_oracle(bq):
    assert _separated_quiver_is_dynkin(bq) == _oracle(bq)


def _oracle(bq: BoundQuiver) -> bool:
    return separated_tits_form_is_positive_definite(
        bq.vertices, [tuple(a) for a in bq.arrows], bq.relations, bq.nilbound, bq.field.p)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(bound_quivers())
def test_a_flagged_algebra_never_enumerates_completely(bq):
    dynkin = _separated_quiver_is_dynkin(bq)
    assert dynkin == _oracle(bq)
    if _infinite_reason(bq) is not None:
        assert not enumerate_indecomposables(bq, dim_cap=12, count_cap=24).complete


PATH_ALGEBRA = "algebra is the path algebra of a non-Dynkin quiver"
# Euclidean graphs whose separated quiver, in this orientation, is Dynkin
EUCLIDEAN_PATH_ALGEBRAS = {
    "A~2": _quiver("1>2 2>3 1>3", nilbound=3),
    "A~3 (the base of the A~3 cover)": _quiver("1>2 2>3 3>4 1>4", nilbound=6),
    "D~4 (two arms in, two out)": _quiver("1>0 2>0 0>3 0>4", nilbound=3),
}


@pytest.mark.parametrize("bq", EUCLIDEAN_PATH_ALGEBRAS.values(),
                         ids=EUCLIDEAN_PATH_ALGEBRAS.keys())
def test_a_euclidean_path_algebra_is_refused_before_enumerating(monkeypatch, bq):
    calls = []
    monkeypatch.setattr(fovea.modules, "enumerate_indecomposables",
                        lambda *args, **kwargs: calls.append(args))
    assert _separated_quiver_is_dynkin(bq) and _oracle(bq)
    assert _infinite_reason(bq) == PATH_ALGEBRA
    enum = _enumerate_unless_infinite(bq, 64, 128)
    assert (enum.modules, enum.complete) == ([], False)
    assert enum.notes == [f"{PATH_ALGEBRA}: nothing enumerated"]
    assert calls == []


def test_a_relation_or_a_short_nilbound_keeps_the_euclidean_square():
    """A square with a relation, or whose longest path reaches nilbound,
    is no path algebra; only its separated quiver speaks for it."""
    assert _infinite_reason(_quiver("1>2 2>3 3>4 1>4", ("a0*a1*a2",), 6)) is None
    assert _infinite_reason(_quiver("1>2 2>3 3>4 1>4", nilbound=3)) is None
    assert _infinite_reason(_quiver("1>2 2>3 3>4 1>4", nilbound=4)) == PATH_ALGEBRA


def _orientations(edges):
    for flips in product((False, True), repeat=len(edges)):
        yield " ".join(f"{t}>{s}" if flip else f"{s}>{t}"
                       for (s, t), flip in zip(edges, flips))


@pytest.mark.parametrize("arrows", [*_orientations([(1, 2), (2, 3)]),
                                    *_orientations([(1, 0), (2, 0), (3, 0)])])
def test_a_dynkin_path_algebra_enumerates_completely_in_every_orientation(arrows):
    bq = _quiver(arrows, nilbound=4)
    assert _infinite_reason(bq) is None
    enum = _enumerate_unless_infinite(bq, 40, 80)
    # Gabriel: one indecomposable per positive root, 6 for A3 and 12 for D4
    assert enum.complete and len(enum.modules) == {3: 6, 4: 12}[len(bq.vertices)]


def _is_path_algebra(bq: BoundQuiver) -> bool:
    arrows = [tuple(a) for a in bq.arrows]
    return not bq.relations and not any(
        len(path) == bq.nilbound for v in bq.vertices
        for paths in brute_paths(arrows, v, bq.nilbound).values() for path in paths)


def _infinite_oracle(bq: BoundQuiver) -> bool:
    return not _oracle(bq) or (_is_path_algebra(bq) and not tits_form_is_positive_definite(
        list(bq.vertices), [(a.source, a.target) for a in bq.arrows]))


@st.composite
def relation_free_quivers(draw):
    """Quivers with no relation, no loop and no parallel arrows on three
    to six vertices, over GF(32749), with about as many arrows as
    vertices, each oriented at random, and nilbound 2 up to the number of
    vertices: path algebras when acyclic and nilbound passes the longest
    path, truncated ones otherwise."""
    n = draw(st.integers(3, 6))
    vertices = [str(v) for v in range(1, n + 1)]
    pairs = [(s, t) for s in vertices for t in vertices if s < t]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=n - 1, max_size=n, unique=True))
    arrows = [(f"a{k}", *(e[::-1] if draw(st.booleans()) else e)) for k, e in enumerate(edges)]
    return BoundQuiver(vertices, arrows, [], Field.gf(32749), draw(st.integers(2, n)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(relation_free_quivers())
def test_the_infinite_reason_equals_the_tits_form_oracles(bq):
    reason = _infinite_reason(bq)
    assert (reason is not None) == _infinite_oracle(bq)
    if _oracle(bq):
        assert reason in (None, PATH_ALGEBRA)
