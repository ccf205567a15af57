import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fovea.linalg import Matrix, Subspace, kernel_basis
from fovea.modules import (
    _is_projective_vertex,
    dual_module,
    injective,
    is_isomorphic_indec,
    projective,
)
from fovea.naming import fixture_names, load_quiver
from fovea.quiver import (
    BoundQuiver,
    QuiverError,
    VoltageQuiver,
    Window,
    arrow_elements,
    check_admissible,
    extract_presentation,
    format_quiver,
    is_convex,
    lift_window,
    normalize_presentation,
    opposite_quiver,
    parse_quiver,
    path_basis,
    radical_filtration,
    rename_vertices,
    structure_category,
)
from fovea.repetitive import (
    RepetitiveTruncation,
    is_selfinjective,
    repetitive_truncation,
    repetitive_voltage,
    selfinjective_orbit,
)
from test_covering import D4_COVER_TEXT
from test_quiver import graded_quivers
from test_report_digests import (
    REP_A2_TEXT,
    REP_A3_TEXT,
    REP_KRONECKER_TEXT,
    REP_LOOP2_TEXT,
    _workloads,
)

POINT = parse_quiver("field gf 32749\nnilbound 1\nvertex v\n")
A2 = parse_quiver("field gf 32749\nnilbound 2\nvertex 1 2\narrow a: 1 -> 2\n")
A3 = parse_quiver(
    "field gf 32749\nnilbound 3\nvertex 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\n")


def test_point_truncation_dimensions():
    assert repetitive_truncation(POINT, 0).total_dim == 1
    assert repetitive_truncation(POINT, 1).total_dim == 5
    assert repetitive_truncation(POINT, 2).total_dim == 9


def test_point_truncation_is_the_short_line_with_zero_composite():
    exported = repetitive_truncation(POINT, 1).export()
    assert len(exported.vertices) == 3
    assert len(exported.arrows) == 2
    pb = path_basis(exported)
    assert pb.total_dim == 5
    # the length-two composite dies: the radical squares to zero
    assert pb.dim("v@-1", "v@1") == 0


def test_a2_truncation_dimension():
    assert repetitive_truncation(A2, 1).total_dim == 15


def test_truncation_dimension_formula():
    for bq, d in ((POINT, 1), (A2, 3), (A3, 6)):
        for n in (0, 1, 2):
            assert repetitive_truncation(bq, n).total_dim == (4 * n + 1) * d


def test_truncation_zero_is_the_algebra_byte_exactly():
    for bq in (POINT, A2, A3):
        norm = format_quiver(normalize_presentation(bq))
        exported = repetitive_truncation(bq, 0).export()
        renamed = rename_vertices(exported, {f"{v}@0": v for v in bq.vertices})
        assert format_quiver(renamed) == norm


def test_exported_presentations_are_admissible():
    for bq in (POINT, A2):
        assert check_admissible(repetitive_truncation(bq, 1).export()).ok


def test_two_connecting_layers_compose_to_zero():
    trunc = repetitive_truncation(A2, 1)
    cat = trunc.category
    for i in A2.vertices:
        for j in A2.vertices:
            for k in A2.vertices:
                x, y, z = (-1, i), (0, j), (1, k)
                for u in range(cat.dim(x, y)):
                    uu = [cat.field.zero] * cat.dim(x, y)
                    uu[u] = cat.field.one
                    for v in range(cat.dim(y, z)):
                        vv = [cat.field.zero] * cat.dim(y, z)
                        vv[v] = cat.field.one
                        assert not any(cat.compose(x, y, z, uu, vv))


def test_truncations_embed_convexly():
    exported2 = repetitive_truncation(A2, 2).export()
    inner = [v for v in exported2.vertices if v.endswith(("@-1", "@0", "@1"))]
    assert is_convex(exported2, inner)
    exported1 = repetitive_truncation(A2, 1).export()
    pb1, pb2 = path_basis(exported1), path_basis(exported2)
    for x in inner:
        for y in inner:
            assert pb1.dim(x, y) == pb2.dim(x, y)


def test_voltage_of_the_point_is_the_graded_loop():
    rv = repetitive_voltage(POINT)
    assert isinstance(rv, VoltageQuiver)
    assert len(rv.base.arrows) == 1
    (arrow,) = rv.base.arrows
    assert rv.degree[arrow.name] == 1
    assert rv.base.relations  # the loop squares to zero


def test_voltage_windows_match_truncations():
    for bq in (POINT, A2):
        rv = repetitive_voltage(bq)
        for n in (0, 1, 2):
            wdim = path_basis(lift_window(rv, Window(-n, n))).total_dim
            assert wdim == repetitive_truncation(bq, n).total_dim


def test_voltage_window_zero_is_the_base():
    rv = repetitive_voltage(A2)
    w0 = lift_window(rv, Window(0, 0))
    renamed = rename_vertices(w0, {f"{v}@0": v for v in A2.vertices})
    assert format_quiver(normalize_presentation(renamed)) == \
        format_quiver(normalize_presentation(A2))


def test_orbit_of_the_point_is_the_dual_numbers():
    orb = selfinjective_orbit(POINT, 1)
    assert len(orb.vertices) == 1 and len(orb.arrows) == 1
    assert path_basis(orb).total_dim == 2
    assert is_selfinjective(orb)


def test_orbit_of_a2_is_the_six_dimensional_trivial_extension():
    orb = selfinjective_orbit(A2, 1)
    assert path_basis(orb).total_dim == 6
    assert is_selfinjective(orb)


def test_orbit_dimension_scales_with_the_exponent():
    for k in (1, 2, 3):
        orb = selfinjective_orbit(A2, k)
        assert path_basis(orb).total_dim == 6 * k
        assert is_selfinjective(orb)


def test_orbit_socle_pairing_bookkeeping():
    # each projective of the trivial extension has a simple socle, and the
    # socle vertices permute the vertex set (the pairing is nondegenerate)
    from fovea.modules import projective, socle_submodule
    orb = selfinjective_orbit(A2, 1)
    socle_vertices = []
    for v in orb.vertices:
        p = projective(orb, v)
        soc, _ = socle_submodule(p)
        assert soc.total_dim == 1
        socle_vertices.append(soc.support[0])
    assert sorted(socle_vertices) == sorted(orb.vertices)


def test_orbit_exponent_must_be_positive():
    with pytest.raises(QuiverError):
        selfinjective_orbit(A2, 0)


def test_truncation_is_shift_invariant():
    trunc = repetitive_truncation(A2, 2)
    cat = trunc.category
    for m in (-2, -1, 0):
        for i in A2.vertices:
            for r_off in (0, 1):
                for j in A2.vertices:
                    a = cat.dim((m, i), (m + r_off, j))
                    b = cat.dim((m + 1, i), (m + 1 + r_off, j))
                    if abs(m + 1 + r_off) <= 2:
                        assert a == b


def test_cover_axioms_hold_on_the_repetitive_cover_of_a2():
    from fovea.covering import verify_covering_axioms
    rv = repetitive_voltage(A2)
    assert verify_covering_axioms(rv).ok


def test_all_suites_pass_on_the_trivial_cover():
    from fovea.suites import run_suite
    for name in ("cover-axioms", "pushdown", "phi-identities", "kg0"):
        assert run_suite(name, "trivial-a2.vq").ok


def dense_radical_filtration(cat):
    """The dense triple loop that radical_filtration replaced, as a reference.

    Composes over every triple of objects, zero blocks included, and takes
    rad^2 in a pass of its own.  Returns (rad, rad^2, nilpotency degree,
    [rad, rad^2, ..., rad^nildeg]).
    """
    f = cat.field
    objs = cat.objects
    rad = {(x, y): cat.radical(x, y) for x in objs for y in objs}

    def compose_spaces(left, right):
        out = {}
        for x in objs:
            for z in objs:
                vecs = []
                for y in objs:
                    for u in left[(x, y)].rows.entries:
                        for v in right[(y, z)].rows.entries:
                            w = cat.compose(x, y, z, u, v)
                            if any(w):
                                vecs.append(w)
                out[(x, z)] = Subspace.span(f, cat.dim(x, z), vecs)
        return out

    rad2 = compose_spaces(rad, rad)
    power, powers = rad, []
    while any(s.dim for s in power.values()):
        powers.append(power)
        power = compose_spaces(power, rad)
    return rad, rad2, len(powers), powers


def _blocks(spaces):
    return {key: (s.ambient, [list(row) for row in s.rows.entries])
            for key, s in spaces.items()}


def _algebra_fixtures():
    out = []
    for name in fixture_names():
        q = load_quiver(name)[2]
        if isinstance(q, BoundQuiver):
            out.append(pytest.param(q, id=name))
    return out


def _nonzero(spaces):
    return {key: s for key, s in spaces.items() if s.dim}


def _assert_matches_dense(cat):
    rad, rad2, nildeg = radical_filtration(cat)
    ref_rad, ref_rad2, ref_nildeg, _ = dense_radical_filtration(cat)
    # the filtration keys only its nonzero blocks
    assert _blocks(rad) == _blocks(_nonzero(ref_rad))
    assert _blocks(rad2) == _blocks(_nonzero(ref_rad2))
    assert nildeg == ref_nildeg


@pytest.mark.parametrize("bq", _algebra_fixtures())
@pytest.mark.parametrize("n", [0, 1, 2])
def test_radical_filtration_matches_the_dense_reference(bq, n):
    _assert_matches_dense(repetitive_truncation(bq, n).category)


def test_radical_filtration_matches_the_dense_reference_on_the_voltage_truncation():
    a3 = load_quiver("a3.bq")[2]
    _, _, nildeg_a, _ = dense_radical_filtration(structure_category(a3))
    _assert_matches_dense(RepetitiveTruncation(a3, max(2 * nildeg_a + 2, 2)).category)


def wide_repetitive_voltage(bq):
    """The construction repetitive_voltage replaced, as a reference.

    It sizes the truncation from the base algebra's nilpotency degree d,
    takes rad, rad^2 and the nilpotency degree on 2d + 3 layers, and
    evaluates every orbit path inside that truncation.
    """
    _, _, nildeg_a = radical_filtration(structure_category(bq))
    cat = RepetitiveTruncation(bq, max(2 * nildeg_a + 2, 2)).category
    rad, rad2, nildeg = radical_filtration(cat)
    nilbound = nildeg + 1
    reps = arrow_elements(cat, rad, rad2)
    arrows, degrees, elems = [], {}, {}
    for i in bq.vertices:
        for d in (0, 1):
            for j in bq.vertices:
                for elem in reps.get(((0, i), (d, j)), []):
                    name = f"a{len(arrows)}"
                    arrows.append((name, i, j))
                    degrees[name] = d
                    elems[name] = elem
    relations = []
    for i in bq.vertices:
        paths = {}
        frontier = [((), i, 0, cat.unit((0, i)))]
        for _ in range(nilbound):
            nxt = []
            for path, end, layer, val in frontier:
                for name, src, tgt in arrows:
                    if src != end:
                        continue
                    r = layer + degrees[name]
                    new_val = cat.compose((0, i), (layer, end), (r, tgt), val, elems[name])
                    paths.setdefault((tgt, r), []).append((path + (name,), new_val))
                    nxt.append((path + (name,), tgt, r, new_val))
            frontier = nxt
        for (j, layer), plist in sorted(paths.items()):
            ev = Matrix(bq.field, [list(val) for _p, val in plist]).transpose() \
                if cat.dim((0, i), (layer, j)) else Matrix.zeros(bq.field, 0, len(plist))
            for row in kernel_basis(ev).entries:
                terms = tuple((c, p) for c, (p, _v) in zip(row, plist) if c)
                if terms:
                    relations.append(terms)
    return VoltageQuiver(BoundQuiver(bq.vertices, arrows, relations, bq.field, nilbound),
                         degrees)


TRUNCATED_POLYNOMIALS = parse_quiver(
    "field gf 32749\nnilbound 5\nvertex v\narrow x: v -> v\n")


@pytest.mark.parametrize("bq", _algebra_fixtures() + [
    pytest.param(TRUNCATED_POLYNOMIALS, id="k[x]/(x^5)")])
def test_voltage_matches_the_wide_truncation(bq):
    assert format_quiver(repetitive_voltage(bq)) == format_quiver(wide_repetitive_voltage(bq))


@st.composite
def small_bound_quivers(draw):
    """1 to 3 vertices, up to 3 arrows (loops and cycles allowed), a
    nilbound of 2 or 3 and random monomial relations of length 2."""
    field = draw(st.sampled_from(["gf 101", "gf 32749", "q"]))
    k = draw(st.integers(1, 3))
    ends = st.integers(1, k)
    arrows = [(f"a{i}", draw(ends), draw(ends)) for i in range(draw(st.integers(0, 3)))]
    composable = [(a, b) for a, _, t in arrows for b, s, _ in arrows if t == s]
    relations = [f"{a}*{b}" for a, b in composable if draw(st.booleans())]
    lines = [f"field {field}", f"nilbound {draw(st.integers(2, 3))}",
             "vertex " + " ".join(str(v) for v in range(1, k + 1))]
    lines += [f"arrow {a}: {s} -> {t}" for a, s, t in arrows]
    lines += [f"relation {r}" for r in relations]
    return parse_quiver("\n".join(lines) + "\n")


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_bound_quivers())
def test_voltage_matches_the_wide_truncation_on_random_bound_quivers(bq):
    assert format_quiver(repetitive_voltage(bq)) == format_quiver(wide_repetitive_voltage(bq))


# k<a, b>/(a^2, b^2, ab - ba): its T_1 export has 8 arrows and 202 relations
EXTERIOR = parse_quiver(
    "field gf 32749\nnilbound 4\nvertex 1\narrow a: 1 -> 1\narrow b: 1 -> 1\n"
    "relation a*a\nrelation b*b\nrelation a*b - b*a\n")


def _catalogued_algebras():
    """The 64 generated algebras the benchmark's algebra-suites draws from."""
    workloads = _workloads()
    return [pytest.param(parse_quiver(text), id=name)
            for stratum in workloads.ALGEBRA_STRATA for v in range(workloads.VARIANTS)
            for name, text in [workloads._algebra_input(*stratum, v)]]


def _assert_lifted_exports_are_extracted_ones(bq):
    for n in (1, 2, 3):
        trunc = RepetitiveTruncation(bq, n)
        extracted = extract_presentation(trunc.category,
                                         vertex_name=lambda o: f"{o[1]}@{o[0]}")
        assert format_quiver(trunc.export()) == format_quiver(extracted), n


@pytest.mark.parametrize("bq", _algebra_fixtures() + _catalogued_algebras()
                         + [pytest.param(EXTERIOR, id="exterior")])
def test_lifted_truncations_are_the_extracted_presentations(bq):
    _assert_lifted_exports_are_extracted_ones(bq)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_bound_quivers())
def test_lifted_truncations_are_the_extracted_presentations_on_random_bound_quivers(bq):
    _assert_lifted_exports_are_extracted_ones(bq)


def reference_is_selfinjective(bq):
    """`is_selfinjective` as it was before it read the injectives off the
    algebra's own basis: each I_x is the dual of a projective over the
    opposite quiver, through a second path basis."""
    projs = {v: projective(bq, v) for v in bq.vertices}
    injs = {v: dual_module(projective(opposite_quiver(bq), v)) for v in bq.vertices}
    remaining = list(bq.vertices)
    for v, p in projs.items():
        match = None
        for w in remaining:
            if p.dims == injs[w].dims and is_isomorphic_indec(p, injs[w]):
                match = w
                break
        if match is None:
            return False
        remaining.remove(match)
    return not remaining


@pytest.mark.parametrize("bq", _algebra_fixtures() + _catalogued_algebras())
def test_selfinjectivity_equals_the_reference_on_the_algebra_and_its_orbit_algebra(bq):
    orbit = selfinjective_orbit(bq, 1)
    assert is_selfinjective(orbit)
    for algebra in (bq, orbit):
        assert is_selfinjective(algebra) == reference_is_selfinjective(algebra)


def _assert_injectives_are_dual_opposite_projectives(bq):
    for v in bq.vertices:
        assert injective(bq, v) == dual_module(projective(opposite_quiver(bq), v)), v


@pytest.mark.parametrize("name", fixture_names())
def test_injectives_are_the_duals_of_the_opposite_projectives_on_the_fixtures(name):
    q = load_quiver(name)[2]
    _assert_injectives_are_dual_opposite_projectives(q.base if isinstance(q, VoltageQuiver) else q)


@pytest.mark.parametrize("make_vq", [
    *[pytest.param(lambda name=name: load_quiver(name)[2], id=name)
      for name in fixture_names() if name.endswith(".vq")],
    *[pytest.param(lambda text=text: parse_quiver(text), id=label) for label, text in (
        ("rep-a2", REP_A2_TEXT), ("rep-a3", REP_A3_TEXT), ("rep-kronecker", REP_KRONECKER_TEXT),
        ("rep-loop2", REP_LOOP2_TEXT), ("d4-cover", D4_COVER_TEXT))],
])
def test_injectives_are_the_duals_of_the_opposite_projectives_on_lifted_windows(make_vq):
    vq = make_vq()
    for lo, hi in ((-2, 2), (0, 3), (-3, 1)):
        _assert_injectives_are_dual_opposite_projectives(lift_window(vq, Window(lo, hi)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(graded_quivers())
def test_injectives_are_the_duals_of_the_opposite_projectives_on_random_bound_quivers(vq):
    """Both bases of I_x are dual to path classes x -> z, one read off the
    quiver's paths and one off their reversals in the opposite quiver.  So
    they are equal when reversing keeps the (length, arrow index) order of
    the paths from x, as on every quiver without two paths whose first and
    last arrows order them differently; two loops a, b with a*b and b*a
    nonzero break it.  Either way D I_x is P_x over the opposite quiver:
    it has P_x's dimension vector and top S_x."""
    bq = vq.base
    op = opposite_quiver(bq)
    for v in bq.vertices:
        new, old = injective(bq, v), dual_module(projective(op, v))
        assert new.dims == old.dims and _is_projective_vertex(dual_module(new)) == v
        if all([p[::-1] for p in path_basis(bq).paths.get((v, z), [])]
               == path_basis(op).paths.get((z, v), []) for z in bq.vertices):
            assert new == old, v


def test_a_window_unlike_its_truncation_reports_its_own_dimension(monkeypatch):
    import fovea.suites
    lift = fovea.suites.lift_window
    dims = {}

    def dropping_a_relation(vq, window):
        bq = lift(vq, window)
        if window.lo == -window.hi:
            bq = BoundQuiver(bq.vertices, bq.arrows, bq.relations[1:], bq.field, bq.nilbound)
            dims[window.hi] = path_basis(bq).total_dim
        return bq

    monkeypatch.setattr(fovea.suites, "lift_window", dropping_a_relation)
    report = fovea.suites.run_suite("repetitive", "kronecker.bq")
    checks = {c["id"]: c for c in report.to_dict()["checks"]}
    for n in (1, 2):
        check = checks[f"repetitive.window-matches-truncation[n={n}]"]
        assert check["actual"] == dims[n]
        assert check["pass"] == (check["expected"] == dims[n])
    # without its first relation, kronecker's window on -1..1 is one bigger
    assert not checks["repetitive.window-matches-truncation[n=1]"]["pass"]
    assert not report.ok
