"""Property tests of the exact kernel on random small inputs.

Each property runs over GF(7), GF(32749) and Q.  The references are the
naive eliminator in `oracles.py`, plain convolution of coefficient lists,
the trace form built from composite matrices, which the End(M) radical
was computed from before it was read off the hom basis directly, and the
radical of Hom(M, N) built from composites g f reduced modulo rad End(M),
which `radical_hom` computed before it read the trace pairing, and
`reference_decompose`, the decomposition that split on phi^(dim M) and
solved for each piece's arrow matrices before `decompose` took per-vertex
Fitting powers and one change of basis per split; it composes every
witness as it splits, so it is also the reference for the witnesses
`decompose` composes when they are read.  It factors with
`reference_minimal_polynomial` and `reference_poly_of_map`, the routines
`decompose` used before its one-pass Krylov echelon and Horner's rule,
and skips the maps in the span of rad End(P) and the identity, the test
`decompose` ran before it read the trace form.  The runs are
derandomized and write no example database, so every run checks the same
examples.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import fovea.modules
from fovea.linalg import (
    Field,
    Matrix,
    Subspace,
    candidate_factors,
    hstack,
    inverse,
    kernel_basis,
    poly_divmod,
    poly_trim,
    rref,
    solve,
)
from fovea.modules import (
    DecompPiece,
    Decomposition,
    DecompositionError,
    ModMap,
    Module,
    ModuleError,
    _generates_a_residue_field,
    _trace_pairing,
    decompose,
    direct_sum,
    hom_space,
    image_submodule,
    is_isomorphic_indec,
    parse_module,
    radical_hom,
    submodule,
)
from fovea.quiver import parse_quiver

from oracles import dumb_rref
from test_enumeration_work import _scrambled_d4

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
    eager = list(candidate_factors(field, poly, random.Random(seed)))
    # a reader that stops early sees a prefix of the same list
    for k in range(len(eager) + 1):
        it = candidate_factors(field, poly, random.Random(seed))
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
    """The trace form of End(M) as first computed: trace of each composite."""
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
    assert radical_hom(m, m, end, end).coords.rows == kernel_basis(gram)


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
    quot = Subspace(f, end.dim, kernel_basis(_composite_trace_form(m, end))).quotient()
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
    dec = decompose(m)
    total, to_sum, from_sum = dec.witnesses()
    assert from_sum @ to_sum == ModMap.identity(m)
    assert to_sum @ from_sum == ModMap.identity(total)


def _reference_fitting_split(piece, psi):
    """ker psi and im psi as submodules, each arrow matrix solved for."""
    m = piece.module
    f = m.bq.field
    ker_cols = {v: kernel_basis(psi.comps[v]).transpose() for v in m.bq.vertices}
    if not 0 < sum(c.cols for c in ker_cols.values()) < m.total_dim:
        return None
    ker, ker_incl = submodule(m, ker_cols)
    im, im_incl = image_submodule(psi)
    proj_k, proj_i = {}, {}
    for v in m.bq.vertices:
        u_inv = inverse(hstack([ker_incl.comps[v], im_incl.comps[v]]))
        if u_inv is None:
            return None
        kd = ker.dims[v]
        proj_k[v] = Matrix.from_rows(f, kd, m.dims[v], u_inv.entries[:kd])
        proj_i[v] = Matrix.from_rows(f, im.dims[v], m.dims[v], u_inv.entries[kd:])
    pk = ModMap(m, ker, proj_k, check=False)
    pi = ModMap(m, im, proj_i, check=False)
    return (
        DecompPiece(ker, piece.include @ ker_incl, pk @ piece.project),
        DecompPiece(im, piece.include @ im_incl, pi @ piece.project),
    )


def reference_minimal_polynomial(phi):
    """The minimal polynomial as `_minimal_polynomial` found it before it
    kept one incremental echelon form: a fresh `solve` for each power."""
    f = phi.source.bq.field
    vecs = [ModMap.identity(phi.source).vectorize()]
    power = ModMap.identity(phi.source)
    for _ in range(phi.source.total_dim + 1):
        power = phi @ power
        target = Matrix(f, [list(power.vectorize())]).transpose()
        stack = Matrix(f, [list(v) for v in vecs]).transpose()
        sol = solve(stack, target)
        if sol is not None:
            return poly_trim([f.neg(sol.entries[i][0]) for i in range(len(vecs))] + [f.one])
        vecs.append(power.vectorize())
    raise DecompositionError("minimal polynomial did not terminate")


def reference_poly_of_map(poly, phi):
    """g(phi) as the sum of its terms c phi^i, each power composed anew."""
    acc = ModMap.zero(phi.source, phi.source)
    power = ModMap.identity(phi.source)
    for c in poly:
        if c:
            acc = acc + power.scale(c)
        power = phi @ power
    return acc


def _reference_try_split(piece, phi):
    n = max(piece.module.total_dim, 1)
    split = _reference_fitting_split(piece, phi.power(n))
    if split is not None:
        return split
    f = piece.module.bq.field
    rng = random.Random(0xF17)
    for g in candidate_factors(f, reference_minimal_polynomial(phi), rng):
        split = _reference_fitting_split(piece, reference_poly_of_map(g, phi).power(n))
        if split is not None:
            return split
    return None


def reference_decompose(m, seed=0, max_tries=64):
    """The decomposition `decompose` replaced, as a reference: it splits on
    phi^N and g(phi)^N with N = dim M at every vertex, reads each piece's
    arrow matrices by solving against its basis, and builds every map of
    End(P)."""
    if m.is_zero():
        return Decomposition(m, [], [])
    rng = random.Random(seed)
    done = []
    stack = [DecompPiece(m, ModMap.identity(m), ModMap.identity(m))]
    while stack:
        piece = stack.pop()
        p = piece.module
        end = hom_space(p, p)
        if end.dim == 1:
            done.append(piece)
            continue
        rad = radical_hom(p, p, end, end).coords
        if end.dim - rad.dim == 1:
            done.append(piece)
            continue
        f = p.bq.field
        local = Subspace.span(f, end.dim, [*rad.rows.entries, end.coords(ModMap.identity(p))])
        split = None
        for attempt in range(max_tries):
            if attempt < end.dim:
                coords = [f.zero] * end.dim
                coords[attempt] = f.one
            else:
                coords = [f.sample(rng) for _ in range(end.dim)]
            if local.contains(coords):
                continue
            phi = end.maps[attempt] if attempt < end.dim else end.from_coords(coords)
            split = _reference_try_split(piece, phi)
            if split is not None:
                break
        if split is None:
            if not any(_generates_a_residue_field(end, rad, rng) for _ in range(max_tries)):
                raise DecompositionError(
                    "could not split a module with non-local endomorphism algebra; "
                    "the field may be too small")
            done.append(piece)
            continue
        stack.extend(split)

    order = sorted(range(len(done)), key=lambda i: done[i].module.sort_key())
    done = [done[i] for i in order]
    classes = []
    for i, piece in enumerate(done):
        for group in classes:
            if is_isomorphic_indec(done[group[0]].module, piece.module):
                group.append(i)
                break
        else:
            classes.append([i])
    return Decomposition(m, done, classes)


@st.composite
def scrambled_sums(draw):
    """A direct sum of up to three random modules, some of them repeated,
    in a random basis, of dimension at most 10: over Q the entries of a
    scrambled sum grow fast, and one of dimension 15 takes seconds."""
    first = draw(modules())
    bq = first.bq
    f = bq.field
    summands = [first]
    for _ in range(draw(st.integers(1, 2))):
        extra = draw(st.one_of(st.sampled_from(summands), modules(bq)))
        if sum(s.total_dim for s in summands) + extra.total_dim <= 10:
            summands.append(extra)
    m, _, _ = direct_sum(summands)
    change = {}
    for v in bq.vertices:
        d = m.dims[v]
        cand = Matrix.from_rows(f, d, d, [[draw(scalars(f)) for _ in range(d)] for _ in range(d)])
        change[v] = cand if inverse(cand) is not None else Matrix.identity(f, d)
    mats = {a.name: change[a.source] @ m.mats[a.name] @ inverse(change[a.target])
            for a in bq.arrows}
    return Module(bq, m.dims, mats)


def _decomposition_or_error(decomposer, m):
    try:
        return decomposer(m)
    except ModuleError as e:
        return type(e), str(e)


def _assert_decomposes_as_the_reference(m, got=None):
    """decompose(m), or the decomposition got of m, equals the reference's.
    The classes are read first and the witnesses from the last piece up,
    the other way round from the order decompose made them in."""
    got = _decomposition_or_error(decompose, m) if got is None else got
    want = _decomposition_or_error(reference_decompose, m)
    if isinstance(want, tuple):
        assert got == want
        return
    assert len(got.pieces) == len(want.pieces)
    assert got.classes == want.classes
    for mine, theirs in reversed(list(zip(got.pieces, want.pieces))):
        assert mine.module == theirs.module
        assert mine.include == theirs.include
        assert mine.project == theirs.project


@CHECKS
@given(modules())
def test_decompose_equals_the_reference_decomposition(m):
    _assert_decomposes_as_the_reference(m)


@CHECKS
@given(scrambled_sums())
def test_decompose_equals_the_reference_on_scrambled_sums(m):
    _assert_decomposes_as_the_reference(m)


# X + X for the Kronecker module X of dimension vector (2, 1), in a basis
# where no element of the canonical basis of End = M2(K) splits it: the
# first is the identity and the others have irreducible minimal
# polynomials, so only one of the random endomorphisms splits
DOUBLED_KRONECKER = (
    "dims 1=4 2=2\n"
    "mat a = [[8848,425],[595,32607],[32425,8504],[4172,0]]\n"
    "mat b = [[27786,13052],[6579,20162],[10030,28856],[820,4485]]\n")


def test_decompose_equals_the_reference_after_a_random_split(monkeypatch):
    bq = parse_quiver("field gf 32749\n" + QUIVERS[1])
    m = parse_module(bq, DOUBLED_KRONECKER)
    tried = []
    try_split = fovea.modules._try_split

    def recording(piece, phi):
        tried.append(phi)
        return try_split(piece, phi)

    monkeypatch.setattr(fovea.modules, "_try_split", recording)
    _assert_decomposes_as_the_reference(m)
    # the three basis elements other than the identity, then random ones
    assert len(tried) > 3


def test_witnesses_composed_on_read_equal_the_eager_ones():
    bq = parse_quiver("field gf 32749\n" + QUIVERS[1])
    for m in (_scrambled_d4(), parse_module(bq, DOUBLED_KRONECKER)):
        _assert_decomposes_as_the_reference(m)
        dec = decompose(m)
        assert len(dec.pieces) > 1
        total, to_sum, from_sum = dec.witnesses()
        assert from_sum @ to_sum == ModMap.identity(m)
        assert to_sum @ from_sum == ModMap.identity(total)


def dense_trace_pairing(hom, back):
    """[tr(g_j f_i)] as a dot product over every pair of entries, zeros
    included, as `_trace_pairing` computed it over every field."""
    m, n, f = hom.source, hom.target, hom.source.bq.field
    blocks, offset = [], 0
    for v in m.bq.vertices:
        blocks.append((offset, m.dims[v], n.dims[v]))
        offset += m.dims[v] * n.dims[v]
    flipped = [[vec[o + i * c + j] for o, r, c in blocks for j in range(c) for i in range(r)]
               for vec in back.rows.entries]
    return tuple(tuple(f.coerce(sum((x * y for x, y in zip(v, g)), f.zero)) for v in hom.rows.entries)
                 for g in flipped)


@CHECKS
@given(st.one_of(module_pairs(), scrambled_sums().map(lambda m: (m, m))))
def test_trace_pairing_equals_the_dense_pairing(pair):
    m, n = pair
    p = m.bq.field.p
    hom, back = hom_space(m, n), hom_space(n, m)
    if p is not None and p <= m.total_dim and hom.dim and back.dim:
        return      # the pairing refuses the prime
    assert _trace_pairing(hom, back).entries == dense_trace_pairing(hom, back)
