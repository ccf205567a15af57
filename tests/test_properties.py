"""Property tests of the exact kernel on random small inputs.

Each property runs over GF(7), GF(32749) and Q.  The references are the
naive eliminator in `oracles.py`, plain convolution of coefficient lists,
the trace form built from composite matrices, which `end_radical`
computed before it read the form off the hom basis directly, and the
radical of Hom(M, N) built from composites g f reduced modulo rad End(M),
which `radical_hom` computed before it read the trace pairing.  The runs
are derandomized and write no example database, so every run checks the
same examples.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fovea.linalg import (
    Field,
    Matrix,
    Subspace,
    _candidate_factors,
    candidate_factors,
    inverse,
    kernel_basis,
    poly_divmod,
    poly_trim,
    rref,
)
from fovea.modules import (
    DecompositionError,
    ModMap,
    Module,
    _trace_pairing,
    decompose,
    end_radical,
    hom_space,
    is_isomorphic_indec,
    radical_hom,
)
from fovea.quiver import parse_quiver

from oracles import dumb_rref

FIELDS = [Field.gf(7), Field.gf(32749), Field.rationals()]
CHECKS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

fields = st.sampled_from(FIELDS)


@st.composite
def scalars(draw, field):
    if field.p is None:
        return Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
    # small values and values near p, so reductions wrap
    return draw(st.one_of(st.integers(-3, 3), st.integers(0, field.p - 1)))


@st.composite
def matrices(draw):
    field = draw(fields)
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    # a sparse pick keeps rank drops and zero columns frequent
    entry = st.one_of(st.just(0), scalars(field))
    data = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    return field, data


@CHECKS
@given(matrices())
def test_rref_matches_the_naive_eliminator(case):
    field, data = case
    red = rref(Matrix(field, data))
    rank, rows, pivots = dumb_rref(data, field.p)
    assert red.rank == rank
    assert red.pivots == tuple(pivots)
    assert red.matrix.entries == tuple(tuple(r) for r in rows)


@CHECKS
@given(matrices())
def test_kernel_basis_is_the_canonical_null_space(case):
    field, data = case
    m = Matrix(field, data)
    ker = kernel_basis(m)
    rank = dumb_rref(data, field.p)[0]
    assert ker.rows == m.cols - rank
    if not ker.rows:
        return
    assert (m @ ker.transpose()).is_zero()
    # canonical: in the reduced row echelon form the naive eliminator gives
    _, rows, _ = dumb_rref([list(r) for r in ker.entries], field.p)
    assert ker.entries == tuple(tuple(r) for r in rows)


def _naive_mul(field, a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c if field.p is None else c % field.p for c in out]


@st.composite
def polynomials(draw, field, max_deg, nonzero=False):
    coeffs = [draw(scalars(field)) for _ in range(draw(st.integers(0, max_deg)) + 1)]
    coeffs = poly_trim([field.coerce(c) for c in coeffs])
    if nonzero and not coeffs:
        coeffs = [field.one]
    return coeffs


@st.composite
def division_cases(draw):
    field = draw(fields)
    return field, draw(polynomials(field, 7)), draw(polynomials(field, 4, nonzero=True))


@CHECKS
@given(division_cases())
def test_poly_divmod_satisfies_the_division_identity(case):
    field, a, b = case
    q, r = poly_divmod(field, a, b)
    assert len(r) < len(b)            # deg r < deg b, with deg 0 = -1
    recombined = _naive_mul(field, q, b)
    total = [0] * max(len(recombined), len(r))
    for i, c in enumerate(recombined):
        total[i] += c
    for i, c in enumerate(r):
        total[i] += c
    if field.p is not None:
        total = [c % field.p for c in total]
    assert poly_trim(total) == a


@st.composite
def factor_cases(draw):
    field = draw(fields)
    poly = draw(polynomials(field, 6))
    poly = poly + [field.one] if not poly or poly[-1] != field.one else poly
    return field, poly, draw(st.integers(0, 2 ** 16))


@CHECKS
@given(factor_cases())
def test_lazy_candidates_are_the_candidate_list(case):
    field, poly, seed = case
    eager = candidate_factors(field, poly, random.Random(seed))
    lazy = _candidate_factors(field, poly, random.Random(seed))
    assert list(lazy) == eager
    # a reader that stops early sees a prefix of the same list
    for k in range(len(eager) + 1):
        it = _candidate_factors(field, poly, random.Random(seed))
        assert [g for _, g in zip(range(k), it)] == eager[:k]
    for g in eager:
        assert 0 < len(g) - 1 < len(poly_trim(poly)) - 1 and g[-1] == field.one
        assert poly_divmod(field, poly, g)[1] == []


QUIVERS = [
    "nilbound 2\nvertex 1 2\narrow a: 1 -> 2\n",
    "nilbound 2\nvertex 1 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n",
    "nilbound 3\nvertex 1 2 3\narrow a: 1 -> 2\narrow b: 3 -> 2\n",
]


@st.composite
def modules(draw, bq=None, dims=None):
    if bq is None:
        field = draw(fields)
        spec = "q" if field.p is None else f"gf {field.p}"
        bq = parse_quiver(f"field {spec}\n" + draw(st.sampled_from(QUIVERS)))
    field = bq.field
    if dims is None:
        dims = {v: draw(st.integers(0, 2)) for v in bq.vertices}
    entry = st.one_of(st.just(0), st.just(1), scalars(field))
    mats = {a.name: Matrix.from_rows(field, dims[a.source], dims[a.target],
                                     [[draw(entry) for _ in range(dims[a.target])]
                                      for _ in range(dims[a.source])])
            for a in bq.arrows}
    return Module(bq, dims, mats)


def _composite_trace_form(m, end):
    """The trace form as end_radical first computed it: trace of each composite."""
    f = m.bq.field
    n = end.dim

    def trace(a, b):
        t = f.zero
        for v in m.bq.vertices:
            t = f.add(t, (a.comps[v] @ b.comps[v]).trace())
        return t

    rows = [[trace(end.maps[i], end.maps[j]) for j in range(n)] for i in range(n)]
    return Matrix(f, rows) if n else Matrix.zeros(f, 0, 0)


@CHECKS
@given(modules())
def test_trace_form_equals_the_composite_trace_form(m):
    end = hom_space(m, m)
    gram = _trace_pairing(end, end)
    assert gram == _composite_trace_form(m, end)
    assert end_radical(m, end).rows == kernel_basis(gram)


@st.composite
def module_pairs(draw):
    """Two modules over one quiver: unrelated, of equal dimension vector, or
    the second a change of basis of the first."""
    m = draw(modules())
    kind = draw(st.sampled_from(["any", "same dims", "conjugate"]))
    if kind == "any":
        return m, draw(modules(m.bq))
    if kind == "same dims":
        return m, draw(modules(m.bq, m.dims))
    f = m.bq.field
    change = {}
    for v in m.bq.vertices:
        d = m.dims[v]
        cand = Matrix.from_rows(f, d, d, [[draw(scalars(f)) for _ in range(d)] for _ in range(d)])
        change[v] = cand if inverse(cand) is not None else Matrix.identity(f, d)
    mats = {a.name: change[a.source] @ m.mats[a.name] @ inverse(change[a.target])
            for a in m.bq.arrows}
    return m, Module(m.bq, m.dims, mats)


def _composite_radical_hom(m, n):
    """rad(M, N) as radical_hom first computed it: the f with g f in
    rad End(M) for every g: N -> M, in coordinates of the hom basis."""
    f = m.bq.field
    hom, back, end = hom_space(m, n), hom_space(n, m), hom_space(m, m)
    quot = end_radical(m, end).quotient()
    conditions = [[x for g in back.maps for x in quot.apply(end.coords(g @ h))]
                  for h in hom.maps]
    if not conditions or not conditions[0]:
        return hom, Subspace.span(f, hom.dim, Matrix.identity(f, hom.dim).entries)
    return hom, Subspace(f, hom.dim, kernel_basis(Matrix(f, conditions).transpose()))


@CHECKS
@given(module_pairs())
def test_radical_hom_equals_the_composite_radical(pair):
    m, n = pair
    hom, reference = _composite_radical_hom(m, n)
    assert radical_hom(m, n).coords == reference
    if m.dims == n.dims:
        assert is_isomorphic_indec(m, n) == (m.is_zero() or hom.dim > reference.dim)


@CHECKS
@given(modules())
def test_decomposition_witnesses_are_mutually_inverse(m):
    if m.is_zero():
        return
    try:
        dec = decompose(m)
    except DecompositionError:
        # known gap: a Kronecker module of dimension vector (2, 2) whose
        # pencil has an irreducible quadratic is indecomposable with End(M)
        # a degree-2 field, and decompose takes End(M)/rad as local only
        # when it is one-dimensional
        assert len(m.bq.arrows) == 2 and list(m.dims.values()) == [2, 2]
        return
    total, to_sum, from_sum = dec.witnesses()
    assert from_sum @ to_sum == ModMap.identity(m)
    assert to_sum @ from_sum == ModMap.identity(total)
