"""The leaner decomposition routines against the ones they replaced.

`decompose` reads locality and its skip test off the trace form T: with
rad End(P) = ker T, a map phi lies in K 1 + rad exactly when T phi is a
multiple of T 1, the vector of traces of the basis maps.  It used to span
rad End(P) and the identity and test membership.  `_minimal_polynomial`
keeps one incremental echelon form of the powers of phi where it used to
solve afresh for each power, and `poly_pow_mod` inverts the leading
coefficient of the modulus once and reduces in place where it called
`poly_divmod` for every product.  Each is checked against the old routine
over GF(7), GF(32749) and Q.  `decompose`, whose Fitting splits now reduce
plain rows and whose g(phi) comes from Horner's rule, is checked against
`reference_decompose` on the 300 `decompose` inputs of the benchmark's
library session at seed 1, read through perfbench/workloads.py and not
changed.  `decompose` builds a piece's witnesses and groups the classes
only when they are first read, and reads the trace form row by row only
as far as its locality test and its attempts need: on those inputs a
caller that reads only the pieces' modules builds no map between a piece
and its whole and makes no isomorphism test, and the witnesses and
classes read afterwards, the classes first and the witnesses from the
last piece up, are the reference's.
"""

from operator import mul

from hypothesis import given, strategies as st

import fovea.modules
from fovea.linalg import Matrix, Subspace, poly_divmod, poly_mul, poly_pow_mod
from fovea.modules import (
    ModMap,
    _is_multiple,
    _minimal_polynomial,
    _trace_pairing,
    _traces,
    decompose,
    hom_space,
    radical_hom,
)

from test_properties import (
    CHECKS,
    _assert_decomposes_as_the_reference,
    fields,
    modules,
    polynomials,
    reference_minimal_polynomial,
    scalars,
    scrambled_sums,
)
from test_report_digests import _workloads


def reference_poly_pow_mod(f, base, e, mod):
    """base^e modulo mod through `poly_mul` and `poly_divmod`, squaring
    after every bit."""
    result = [f.one]
    base = poly_divmod(f, base, mod)[1]
    while e:
        if e & 1:
            result = poly_divmod(f, poly_mul(f, result, base), mod)[1]
        base = poly_divmod(f, poly_mul(f, base, base), mod)[1]
        e >>= 1
    return result


def identity_coords(end):
    return list(end.coords(ModMap.identity(end.source)))


def reference_skips(end, rad, coords):
    """Does the map with these coordinates lie in the span of rad End(P)
    and the identity?"""
    f = end.source.bq.field
    local = Subspace.span(f, end.dim, [*rad.rows.entries, identity_coords(end)])
    return local.contains(coords)


def form_times(form, coords, f):
    return [f.coerce(sum(map(mul, row, coords))) for row in form]


@st.composite
def endomorphisms(draw):
    """A natural endomorphism of a module, or any tuple of square matrices."""
    m = draw(st.one_of(modules(), scrambled_sums()))
    f = m.bq.field
    if draw(st.booleans()):
        end = hom_space(m, m)
        return end.from_coords([f.coerce(draw(scalars(f))) for _ in range(end.dim)])
    comps = {v: Matrix.from_rows(f, d, d, [[draw(scalars(f)) for _ in range(d)] for _ in range(d)])
             for v, d in m.dims.items()}
    return ModMap(m, m, comps, check=False)


@CHECKS
@given(endomorphisms())
def test_minimal_polynomial_equals_the_reference(phi):
    if phi.source.is_zero():
        return
    assert _minimal_polynomial(phi) == reference_minimal_polynomial(phi)


@st.composite
def power_cases(draw):
    field = draw(fields)
    mod = draw(polynomials(field, 6, nonzero=True))
    base = draw(polynomials(field, 8))
    if field.p is None:
        return field, base, draw(st.integers(0, 12)), mod
    exponents = [st.integers(0, 40), st.just(field.p)]
    exponents += [st.just((field.p ** d - 1) // 2) for d in range(1, 5)]
    return field, base, draw(st.one_of(exponents)), mod


@CHECKS
@given(power_cases())
def test_poly_pow_mod_equals_the_reference(case):
    field, base, e, mod = case
    assert poly_pow_mod(field, base, e, mod) == reference_poly_pow_mod(field, base, e, mod)


@CHECKS
@given(st.data())
def test_trace_form_skip_test_equals_the_radical_span(data):
    m = data.draw(st.one_of(modules(), scrambled_sums()))
    f, p = m.bq.field, m.bq.field.p
    if m.is_zero() or (p is not None and p <= m.total_dim):
        return      # no trace form: both decompositions refuse the prime
    end = hom_space(m, m)
    rad = radical_hom(m, m, end, end).coords
    form = _trace_pairing(end, end).entries
    one = _traces(end)
    assert one == form_times(form, identity_coords(end), f)
    assert all(_is_multiple(row, one, p) for row in form) == (end.dim - rad.dim == 1)
    units = [[f.one if i == j else f.zero for i in range(end.dim)] for j in range(end.dim)]
    draws = [[f.coerce(data.draw(scalars(f))) for _ in range(end.dim)] for _ in range(3)]
    # c 1 + r for r in rad End(P): always skipped
    c = f.coerce(data.draw(scalars(f)))
    inside = [f.mul(c, x) for x in identity_coords(end)]
    for row in rad.rows.entries:
        k = f.coerce(data.draw(scalars(f)))
        inside = [f.add(x, f.mul(k, y)) for x, y in zip(inside, row)]
    for coords in units + draws + [inside]:
        skips = _is_multiple(form_times(form, coords, f), one, p)
        assert skips == reference_skips(end, rad, coords)
    assert _is_multiple(form_times(form, inside, f), one, p)
    # row i of the symmetric form is T e_i, as decompose reads it
    assert [list(row) for row in form] == [form_times(form, e, f) for e in units]


def test_decompose_equals_the_reference_on_the_library_session():
    calls = _workloads().library_session(1, None)
    inputs = [call.args[0] for call in calls if call.function == "decompose"]
    assert len(inputs) == 300
    for m in inputs:
        _assert_decomposes_as_the_reference(m)


def test_decompose_builds_no_witness_and_no_class_that_is_not_read(monkeypatch):
    """The library session reads only the pieces' modules: no split builds
    a map between a piece and the module it came from, and no two pieces
    are tested for isomorphism.  Read afterwards, the witnesses and the
    classes are the reference's."""
    inputs = [call.args[0] for call in _workloads().library_session(1, None)
              if call.function == "decompose"]
    assert len(inputs) == 300
    maps, isomorphisms = [], []
    init = ModMap.__init__
    is_isomorphic_indec = fovea.modules.is_isomorphic_indec

    def recording_init(self, source, target, *args, **kwargs):
        maps.append((source, target))
        init(self, source, target, *args, **kwargs)

    def recording_isomorphism(*args, **kwargs):
        isomorphisms.append(args)
        return is_isomorphic_indec(*args, **kwargs)

    monkeypatch.setattr(ModMap, "__init__", recording_init)
    monkeypatch.setattr(fovea.modules, "is_isomorphic_indec", recording_isomorphism)
    decs = [decompose(m) for m in inputs]
    dims = [p.module.dims for dec in decs for p in dec.pieces]
    assert len(dims) > len(decs)    # some inputs split
    # every map built was an endomorphism tried for a split
    assert maps and all(s is t for s, t in maps)
    assert isomorphisms == []
    for m, dec in zip(inputs, decs):
        _assert_decomposes_as_the_reference(m, dec)
    assert isomorphisms and any(s is not t for s, t in maps)
