"""hom_space against the dense system it replaced.

`reference_hom_space` is hom_space as it was before the naturality system
was solved sparse: every equation written as a dense row, and the row
space's null space taken by `kernel_basis`.  The null space has one
reduced row echelon form, so both must give the same basis entry for
entry, and the sparse solve must hand the subspace the pivots a fresh
scan of its rows finds.  hom_space stops at the forward echelon form and
reads the basis off it only when asked, so each check runs with the
dimension read before the basis as well as after it.  A repeated pair
is answered from a memo on M, so each check asks twice more, reading the
dimension first and then the basis first.  The quivers are random and
unbound (loops and parallel arrows included), since hom_space never
reads the relations.
The same quivers check the thin-brick certificate `decompose` reads in
place of End(M) against dim End(M) = 1.
"""

import pytest
from hypothesis import given, strategies as st

from fovea.linalg import Field, Matrix, Subspace, kernel_basis
from fovea.modules import HomBasis, ModMap, Module, ModuleError, _is_thin_brick, hom_space
from fovea.quiver import BoundQuiver

from oracles import naturality_hom_dim
from test_properties import CHECKS, FIELDS, scalars


def reference_hom_space(m: Module, n: Module) -> HomBasis:
    """Solve all naturality squares as one dense system."""
    if m.bq != n.bq:
        raise ModuleError("hom between modules over different quivers")
    f = m.bq.field
    p, zero = f.p, f.zero
    offsets = {}
    total = 0
    for v in m.bq.vertices:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]

    # unknown (v, i, j) is the entry (i, j) of the component at v
    rows = []
    for a in m.bq.arrows:
        x, y = a.source, a.target
        ma, na = m.mats[a.name].entries, n.mats[a.name].entries
        mx, my, ny = m.dims[x], m.dims[y], n.dims[y]
        ox, oy = offsets[x], offsets[y]
        for i in range(n.dims[x]):
            for j in range(my):
                row = [zero] * total
                for k in range(mx):
                    c = ma[k][j]
                    if c:
                        u = ox + i * mx + k
                        row[u] = row[u] + c if p is None else (row[u] + c) % p
                for l in range(ny):
                    c = na[i][l]
                    if c:
                        u = oy + l * my + j
                        row[u] = row[u] - c if p is None else (row[u] - c) % p
                if any(row):
                    rows.append(tuple(row))
    system = Matrix._raw(f, len(rows), total, tuple(rows))
    return HomBasis(m, n, Subspace(f, total, kernel_basis(system)))


def _oracle_dim(m, n):
    arrows = [(a.name, a.source, a.target) for a in m.bq.arrows]
    return naturality_hom_dim(
        m.bq.vertices, arrows, m.dims,
        {k: [list(r) for r in v.entries] for k, v in m.mats.items()},
        n.dims, {k: [list(r) for r in v.entries] for k, v in n.mats.items()},
        p=m.bq.field.p)


def _assert_matches_the_reference(m, n, dim_first=False):
    ref = reference_hom_space(m, n)
    hom = hom_space(m, n)
    _assert_equals(hom, ref, dim_first)
    # a repeated pair is answered from M's memo, whichever is read first
    for again_dim_first in (True, False):
        again = hom_space(m, n)
        assert again is not hom
        _assert_equals(again, ref, again_dim_first)
    return hom


def _assert_equals(hom, ref, dim_first):
    m, n = hom.source, hom.target
    if dim_first:
        # read off the forward echelon form or the memo, before any basis exists
        assert "space" not in vars(hom)
        assert hom.dim == len(hom) == ref.dim == _oracle_dim(m, n)
    assert hom.rows.entries == ref.rows.entries
    assert hom.rows.shape == ref.rows.shape
    fresh = Subspace(m.bq.field, hom.rows.cols, hom.rows)
    assert hom.space._pivots == fresh._pivots == ref.space._pivots
    assert hom.dim == ref.dim == _oracle_dim(m, n)
    for g in hom.maps:
        assert g.is_natural()


@st.composite
def quivers(draw, max_vertices=3, max_arrows=4):
    field = draw(st.sampled_from(FIELDS))
    vertices = [str(v) for v in range(1, draw(st.integers(1, max_vertices)) + 1)]
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    arrows = [(f"a{k}", *draw(ends)) for k in range(draw(st.integers(0, max_arrows)))]
    return BoundQuiver(vertices, arrows, [], field, 2)


@st.composite
def modules(draw, bq, max_dim=3):
    field = bq.field
    dims = {v: draw(st.integers(0, max_dim)) for v in bq.vertices}
    entry = st.one_of(st.just(0), st.just(1), scalars(field))
    mats = {a.name: Matrix.from_rows(field, dims[a.source], dims[a.target],
                                     [[draw(entry) for _ in range(dims[a.target])]
                                      for _ in range(dims[a.source])])
            for a in bq.arrows}
    return Module(bq, dims, mats)


@st.composite
def module_pairs(draw):
    bq = draw(quivers())
    m = draw(modules(bq))
    # Hom(M, M) as well, where the loops' two sides share unknowns
    n = m if draw(st.booleans()) else draw(modules(bq))
    return m, n


@CHECKS
@given(module_pairs())
def test_hom_space_equals_the_dense_reference(pair):
    _assert_matches_the_reference(*pair)


@CHECKS
@given(module_pairs())
def test_a_dimension_read_before_the_basis_equals_the_dense_reference(pair):
    """hom_space defers its canonical basis; reading the dimension first
    changes neither the dimension nor the basis read after it."""
    _assert_matches_the_reference(*pair, dim_first=True)


@st.composite
def thin_modules(draw):
    """Every dim at most 1 on up to five vertices: zero arrows, loops,
    parallel arrows and disconnected supports are all frequent."""
    return draw(modules(draw(quivers(max_vertices=5, max_arrows=6)), max_dim=1))


@CHECKS
@given(thin_modules())
def test_the_thin_brick_certificate_is_a_one_dimensional_end(m):
    assert _is_thin_brick(m) == (hom_space(m, m).dim == 1)


def test_the_thin_brick_certificate_on_edge_cases():
    f = Field.gf(7)
    line = _bq(f, [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "1")])
    # one nonzero parallel arrow connects; a loop alone connects nothing
    assert _is_thin_brick(_module(line, {"1": 1, "2": 1}, {"b": [[3]], "c": [[1]]}))
    assert not _is_thin_brick(_module(line, {"1": 1, "2": 1}, {"c": [[1]]}))
    assert _is_thin_brick(_module(line, {"1": 1, "2": 0}, {"c": [[2]]}))
    # not thin, or zero: End(M) is not K
    assert not _is_thin_brick(_module(line, {"1": 2, "2": 0}, {"c": [[0, 1], [0, 0]]}))
    assert not _is_thin_brick(_module(line, {"1": 0, "2": 0}, {}))


def _bq(field, arrows):
    vertices = sorted({v for _name, x, y in arrows for v in (x, y)} | {"1"})
    return BoundQuiver(vertices, arrows, [], field, 2)


def _module(bq, dims, mats):
    f = bq.field
    return Module(bq, dims, {
        a.name: Matrix.from_rows(f, dims[a.source], dims[a.target],
                                 mats.get(a.name, [[0] * dims[a.target]] * dims[a.source]))
        for a in bq.arrows})


@pytest.mark.parametrize("field", FIELDS, ids=["gf7", "gf32749", "q"])
def test_edge_systems_equal_the_dense_reference(field):
    _check_edge_systems(field, dim_first=False)


@pytest.mark.parametrize("field", FIELDS, ids=["gf7", "gf32749", "q"])
def test_edge_systems_read_dimension_first_equal_the_dense_reference(field):
    _check_edge_systems(field, dim_first=True)


def _check_edge_systems(field, dim_first):
    def check(m, n):
        return _assert_matches_the_reference(m, n, dim_first)

    loop = _bq(field, [("a", "1", "1")])
    line = _bq(field, [("a", "1", "2")])
    bare = _bq(field, [])
    # no unknowns: N vanishes wherever M does not
    zero = _module(loop, {"1": 0}, {})
    one = _module(loop, {"1": 1}, {"a": [[0]]})
    assert check(zero, one).rows.shape == (0, 0)
    assert check(one, zero).rows.shape == (0, 0)
    # no arrows, so no equation: every matrix is a map
    m = _module(bare, {"1": 2}, {})
    assert check(m, m).dim == 4
    # an arrow a: 1 -> 2 gives equations f_1 M(a) = N(a) f_2, one for each
    # entry of N(1) x M(2); none when M(2) = 0 or N(1) = 0
    s1 = _module(line, {"1": 1, "2": 0}, {})
    s2 = _module(line, {"1": 0, "2": 1}, {})
    p1 = _module(line, {"1": 1, "2": 1}, {"a": [[1]]})
    assert check(s1, p1).dim == 1
    assert check(p1, s2).dim == 1
    # M(1) = N(2) = 0: the one equation is zero
    assert check(s2, s1).dim == 0
    # nonzero equations with a trivial and with a full solution space
    assert check(p1, s1).dim == 0
    assert check(s2, p1).dim == 0
    assert check(p1, p1).dim == 1
    # a loop whose two sides cancel on one unknown: N(a) = M(a) = [[1]]
    unit = _module(loop, {"1": 1}, {"a": [[1]]})
    assert check(unit, unit).dim == 1
    assert check(unit, one).dim == 0
    jordan = _module(loop, {"1": 2}, {"a": [[1, 1], [0, 1]]})
    assert check(jordan, jordan).dim == 2


def test_hom_space_refuses_modules_over_different_quivers():
    f = Field.gf(7)
    a, b = _bq(f, [("a", "1", "1")]), _bq(f, [("b", "1", "1")])
    with pytest.raises(ModuleError):
        hom_space(_module(a, {"1": 1}, {"a": [[0]]}), _module(b, {"1": 1}, {"b": [[0]]}))
