import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from fovea.linalg import Field, Subspace
from fovea.naming import fixture_names, load_quiver
from fovea.quiver import (
    BoundQuiver,
    ParseError,
    PathBasis,
    QuiverError,
    VoltageQuiver,
    Window,
    check_admissible,
    format_quiver,
    is_convex,
    layer_arrow,
    layer_vertex,
    lift_window,
    normalize_presentation,
    opposite_quiver,
    parse_quiver,
    path_basis,
    presentation_basis,
    structure_category,
    sub_quiver,
)
from fovea.repetitive import RepetitiveTruncation

from oracles import brute_paths

A2_TEXT = """
field gf 32749
nilbound 2
vertex 1 2
arrow a: 1 -> 2
"""

LOOP_TEXT = """
field gf 32749
nilbound 2
vertex v
arrow a: v -> v
relation a*a
"""

LINE_K2 = """
field gf 32749
nilbound 2
vertex v
arrow a: v -> v deg 1
relation a*a
"""


def test_parse_a2():
    bq = parse_quiver(A2_TEXT)
    assert isinstance(bq, BoundQuiver)
    assert bq.vertices == ("1", "2")
    assert len(bq.arrows) == 1 and not bq.relations


def test_parse_loop_relation():
    bq = parse_quiver(LOOP_TEXT)
    assert path_basis(bq).total_dim == 2


def test_parse_error_non_composable_relation():
    text = A2_TEXT + "arrow c: 1 -> 2\nrelation a*c\n"
    with pytest.raises(ParseError):
        parse_quiver(text)


def test_parse_error_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_quiver("field gf 32749\nnilbound 2\nvertex v\narrow broken\n")
    assert "line 4" in str(err.value)
    # semantic errors name the line that causes them, not line 0
    cases = [
        ("field gf 32749\nnilbound 2\nvertex 1 2\narrow a: 1 -> 3\n", 4),
        ("field gf 32749\nnilbound 2\narrow a: 1 -> 3\nvertex 1 2\n", 3),
        ("field gf 32749\nnilbound 0\nvertex v\n", 2),
        ("field gf 32749\nnilbound 2\nvertex v\nvertex w v\n", 4),
        ("field gf 32749\nnilbound 2\nvertex v\narrow a: v -> v\narrow a: v -> v\n", 5),
        ("field gf 32749\nnilbound 3\nvertex v\narrow a: v -> v\n\nrelation a*b\n", 6),
        ("field gf 32749\nnilbound 3\nvertex 1 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n"
         "relation a*a\n", 6),
        ("field gf 32749\nnilbound 3\nvertex v\narrow a: v -> v deg 1\n"
         "arrow b: v -> v\nrelation a*a\nrelation a*a + b*b\n", 7),
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as err:
            parse_quiver(text)
        assert err.value.lineno == line, (text, str(err.value))
        assert str(err.value).startswith(f"line {line}: ")


@pytest.mark.parametrize("text,line,message", [
    ("field gf 1_0_1\nnilbound 2\nvertex v\n", 1, "not an integer: '1_0_1'"),
    ("field gf 32749\nnilbound +1_0\nvertex v\n", 2, "bad nilbound '+1_0'"),
    ("field gf 32749\nnilbound 2\nvertex v\narrow a: v -> v deg \u0661\n", 4,
     "bad degree '\u0661'"),
], ids=["field-order", "nilbound", "degree"])
def test_an_integer_token_is_a_sign_and_ascii_digits(text, line, message):
    """int() alone reads '1_0_1' as 101 and an Arabic-Indic one as 1."""
    with pytest.raises(ParseError) as err:
        parse_quiver(text)
    assert str(err.value) == f"line {line}: {message}"


def test_parse_error_dangling_vertex():
    with pytest.raises(ParseError):
        parse_quiver("field gf 32749\nnilbound 2\nvertex 1\narrow a: 1 -> 9\n")


def test_relation_coefficients_and_signs():
    text = """
field q
nilbound 3
vertex 1 2 3
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 1 -> 2
arrow d: 2 -> 3
relation a*b - c*d
relation 2 a*b + -2 c*d
"""
    bq = parse_quiver(text)
    assert len(bq.relations) == 2
    (c1, p1), (c2, p2) = bq.relations[0]
    assert (p1, p2) == (("a", "b"), ("c", "d"))
    assert c1 == -c2 == 1


def test_format_parse_round_trip():
    for text in (A2_TEXT, LOOP_TEXT, LINE_K2):
        q = parse_quiver(text)
        assert parse_quiver(format_quiver(q)) == q


def test_path_basis_a2_matches_brute_force():
    bq = parse_quiver(A2_TEXT)
    pb = path_basis(bq)
    arrows = [(a.name, a.source, a.target) for a in bq.arrows]
    for x in bq.vertices:
        brute = brute_paths(arrows, x, bq.nilbound - 1)
        for y in bq.vertices:
            assert pb.dim(x, y) == len(brute.get(y, []))
    assert pb.total_dim == 3
    assert pb.dim("1", "2") == 1 and pb.dim("2", "1") == 0


def test_path_basis_single_vertex():
    bq = parse_quiver("field gf 32749\nnilbound 1\nvertex v\n")
    assert path_basis(bq).total_dim == 1


def test_admissible_loop_with_square_zero():
    assert check_admissible(parse_quiver(LOOP_TEXT)).ok


def test_not_admissible_loop_without_relation():
    bq = parse_quiver("field gf 32749\nnilbound 3\nvertex v\narrow a: v -> v\n")
    report = check_admissible(bq)
    assert not report.ok and report.records


def test_admissible_a3_rad_square_zero():
    bq = parse_quiver(
        "field gf 32749\nnilbound 2\nvertex 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\nrelation a*b\n")
    assert check_admissible(bq).ok


def test_short_relation_terms_are_flagged():
    bq = BoundQuiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")],
                     [((1, ("a",)), (-1, ("b",)))], parse_quiver(A2_TEXT).field, 2)
    report = check_admissible(bq)
    assert not report.ok


def test_voltage_needs_homogeneous_relations():
    text = """
field gf 32749
nilbound 3
vertex 1 2 3
arrow a: 1 -> 2 deg 1
arrow b: 2 -> 3 deg 0
arrow c: 1 -> 2 deg 0
arrow d: 2 -> 3 deg 0
relation a*b - c*d
"""
    with pytest.raises(ParseError):
        parse_quiver(text)


def test_forgetting_degrees_returns_the_base():
    vq = parse_quiver(LINE_K2)
    assert isinstance(vq, VoltageQuiver)
    base_text = LINE_K2.replace(" deg 1", "")
    assert vq.base == parse_quiver(base_text)


def test_lift_window_0_1_drops_the_relation():
    vq = parse_quiver(LINE_K2)
    w = lift_window(vq, Window(0, 1))
    assert w.vertices == ("v@0", "v@1")
    assert [a.name for a in w.arrows] == ["a@0"]
    assert not w.relations


def test_lift_window_is_memoised_on_its_quiver():
    vq = parse_quiver(LINE_K2)
    first = lift_window(vq, Window(0, 2))
    assert lift_window(vq, Window(0, 2)) is first
    assert lift_window(vq, Window(0, 1)) is not first
    assert sorted(vq._templates) == [1, 2]
    # the memos take no part in equality or hashing
    other = parse_quiver(LINE_K2)
    assert other == vq and hash(other) == hash(vq)
    assert lift_window(other, Window(0, 2)) == first
    vq._orbits = []
    assert other == vq and hash(other) == hash(vq)


def test_path_basis_and_opposite_are_memoised_on_their_quiver():
    bq = parse_quiver(LOOP_TEXT)
    other = parse_quiver(LOOP_TEXT)
    before = hash(bq)
    assert path_basis(bq) is path_basis(bq)
    op = opposite_quiver(bq)
    assert opposite_quiver(bq) is op and opposite_quiver(op) is bq
    path_basis(op)
    # the memos take no part in equality or hashing
    assert bq == other and hash(bq) == hash(other) == before
    assert op == opposite_quiver(other) and hash(op) == hash(opposite_quiver(other))
    # nor do they keep the quiver alive through a reference cycle
    gc.disable()
    try:
        dead = weakref.ref(bq)
        del bq
        assert dead() is None
        # the opposite outlives it and builds an equal quiver as its opposite
        assert opposite_quiver(op) == other
    finally:
        gc.enable()


def test_lift_window_0_2_keeps_one_relation():
    vq = parse_quiver(LINE_K2)
    w = lift_window(vq, Window(0, 2))
    assert [a.name for a in w.arrows] == ["a@0", "a@1"]
    assert w.relations == (((vq.base.field.one, ("a@0", "a@1")),),)
    pb = path_basis(w)
    assert pb.dim("v@0", "v@2") == 0 and pb.dim("v@0", "v@1") == 1


def test_lift_window_degree_zero_layer():
    vq = parse_quiver(LINE_K2)
    w = lift_window(vq, Window(0, 0))
    assert w.vertices == ("v@0",) and not w.arrows


def reference_lift_window(vq: VoltageQuiver, window: Window) -> BoundQuiver:
    """The window built layer by layer from the base, as `lift_window` did
    before it shifted one template per width."""
    bq = vq.base
    vertices = [layer_vertex(v, n) for n in window.layers for v in bq.vertices]
    arrows = []
    for n in window.layers:
        for a in bq.arrows:
            if n + vq.degree[a.name] in window:
                arrows.append((layer_arrow(a.name, n), layer_vertex(a.source, n),
                               layer_vertex(a.target, n + vq.degree[a.name])))
    relations = []
    for rel in bq.relations:
        for n in window.layers:
            lifted_terms = []
            fits = True
            for coeff, p in rel:
                lifted = []
                layer = n
                for arr in p:
                    if layer not in window or layer + vq.degree[arr] not in window:
                        fits = False
                        break
                    lifted.append(layer_arrow(arr, layer))
                    layer += vq.degree[arr]
                if not fits:
                    break
                lifted_terms.append((coeff, tuple(lifted)))
            if fits:
                relations.append(tuple(lifted_terms))
    return BoundQuiver(vertices, arrows, relations, bq.field, bq.nilbound)


@st.composite
def graded_quivers(draw, max_degree=2, binomials=True):
    """Up to three vertices and five arrows, loops and parallel arrows
    included, of degrees -max_degree..max_degree, with monomial relations
    and, given binomials, binomial ones whose terms are parallel walks of
    one total degree."""
    field = draw(st.sampled_from([Field.gf(7), Field.gf(32749), Field.rationals()]))
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    arrows = [(f"a{i}", draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)))
              for i in range(draw(st.integers(0, 5)))]
    degree = {name: draw(st.integers(-max_degree, max_degree)) for name, _, _ in arrows}

    def walk(source, length):
        path = []
        for _ in range(length):
            out = [a for a in arrows if a[1] == source]
            if not out:
                return None
            name, _, source = draw(st.sampled_from(out))
            path.append(name)
        return tuple(path), source

    relations = []
    for _ in range(draw(st.integers(0, 3)) if arrows else 0):
        source = draw(st.sampled_from(vertices))
        first = walk(source, draw(st.integers(2, 3)))
        if first is None:
            continue
        path, target = first
        coeff = draw(st.integers(1, 6))
        twin = walk(source, len(path)) if binomials and draw(st.booleans()) else None
        if twin and twin[1] == target and twin[0] != path and \
                sum(degree[a] for a in twin[0]) == sum(degree[a] for a in path):
            relations.append(((1, path), (coeff, twin[0])))
        else:
            relations.append(((coeff, path),))
    base = BoundQuiver(vertices, arrows, relations, field, draw(st.integers(1, 4)))
    return VoltageQuiver(base, degree)


def _layout(bq):
    return (bq.vertices, bq.arrows, bq.relations, list(bq.arrow_map.items()),
            list(bq.vertex_index.items()), list(bq.out_arrows.items()),
            list(bq.in_arrows.items()), bq.field, bq.nilbound)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(graded_quivers(), st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 6)),
                                  min_size=1, max_size=6))
def test_lift_window_equals_the_reference(vq, windows):
    for lo, width in windows:
        window = Window(lo, lo + width)
        assert _layout(lift_window(vq, window)) == _layout(reference_lift_window(vq, window))


def test_empty_window_is_an_error():
    with pytest.raises(QuiverError):
        Window(1, 0)


def test_window_nesting_preserves_hom_dims():
    vq = parse_quiver(LINE_K2)
    small = lift_window(vq, Window(0, 1))
    big = lift_window(vq, Window(-1, 2))
    pb_small, pb_big = path_basis(small), path_basis(big)
    for x in small.vertices:
        for y in small.vertices:
            assert pb_small.dim(x, y) == pb_big.dim(x, y)


def test_local_boundedness_sums_on_windows():
    vq = parse_quiver(LINE_K2)
    w = lift_window(vq, Window(-3, 3))
    pb = path_basis(w)
    for x in w.vertices:
        assert sum(pb.dim(x, y) for y in w.vertices) <= 2
        assert sum(pb.dim(y, x) for y in w.vertices) <= 2


def test_is_convex_on_the_short_line():
    vq = parse_quiver(LINE_K2)
    w = lift_window(vq, Window(0, 2))
    assert not is_convex(w, ["v@0", "v@2"])
    assert is_convex(w, ["v@0", "v@1"])
    assert is_convex(w, list(w.vertices))
    with pytest.raises(QuiverError):
        is_convex(w, ["nope"])


def test_sub_quiver_keeps_inner_relations():
    vq = parse_quiver(LINE_K2)
    w = lift_window(vq, Window(0, 3))
    sub = sub_quiver(w, ["v@0", "v@1", "v@2"])
    assert len(sub.relations) == 1


def test_opposite_is_an_involution():
    bq = parse_quiver(LOOP_TEXT)
    assert opposite_quiver(opposite_quiver(bq)) == bq


def test_normalize_presentation_is_idempotent_and_faithful():
    for text in (A2_TEXT, LOOP_TEXT):
        bq = parse_quiver(text)
        norm = normalize_presentation(bq)
        assert path_basis(norm).total_dim == path_basis(bq).total_dim
        assert format_quiver(normalize_presentation(norm)) == format_quiver(norm)


def test_a_presentation_with_other_dimensions_is_named_at_its_first_wrong_pair():
    kronecker, a2 = load_quiver("kronecker.bq")[2], load_quiver("a2.bq")[2]
    with pytest.raises(QuiverError, match=r"wrong dimension at \(1, 2\): 1 != 2$"):
        presentation_basis(structure_category(kronecker), a2)
    # the reversed arrow: (1, 2) is missing from the presentation, (2, 1) is extra
    with pytest.raises(QuiverError, match=r"wrong dimension at \(1, 2\): 0 != 1$"):
        presentation_basis(structure_category(a2), opposite_quiver(a2))


def test_path_explosion_guard():
    bq = parse_quiver(
        "field gf 32749\nnilbound 6\nvertex v\narrow a: v -> v\narrow b: v -> v\n")
    from fovea.quiver import PathExplosionError
    with pytest.raises(PathExplosionError):
        PathBasis(bq, path_cap=20)
    with pytest.raises(PathExplosionError):
        check_admissible(bq, path_cap=20)


def test_relation_with_unknown_arrow_is_rejected():
    with pytest.raises(ParseError):
        parse_quiver("field gf 32749\nnilbound 2\nvertex v\narrow a: v -> v\nrelation a*zz\n")


def test_window_nesting_is_convex():
    vq = parse_quiver(LINE_K2)
    big = lift_window(vq, Window(-2, 3))
    small = lift_window(vq, Window(0, 1))
    assert is_convex(big, list(small.vertices))


def test_negative_degrees_lift():
    vq = parse_quiver(
        "field gf 32749\nnilbound 2\nvertex 1 2\n"
        "arrow a: 1 -> 2 deg -1\n")
    w = lift_window(vq, Window(0, 1))
    names = [a.name for a in w.arrows]
    assert names == ["a@1"]  # only the copy landing inside the window


def test_public_import_surface():
    import fovea
    for name in ("Field", "Matrix", "BoundQuiver", "VoltageQuiver", "Module",
                 "hom_space", "decompose", "right_almost_split", "push_down",
                 "lift_morphism", "fp_hom", "phi", "psi_evaluate",
                 "kg_level0_report", "repetitive_truncation", "selfinjective_orbit"):
        assert hasattr(fovea, name)


# ---------------------------------------------------------------------------
# the dense path-space constructions, kept as references for the sparse ones


def dense_paths_by_pair(bq: BoundQuiver, max_len: int):
    """Every ordered vertex pair's paths of length <= max_len, empty lists
    included, walked by brute force and sorted as _paths_by_pair sorts them
    (by length, then arrow index sequence), with a path -> position index."""
    arrows = [(a.name, a.source, a.target) for a in bq.arrows]
    order = {a.name: i for i, a in enumerate(bq.arrows)}
    paths = {}
    for x in bq.vertices:
        reached = brute_paths(arrows, x, max_len)
        for y in bq.vertices:
            paths[(x, y)] = sorted(reached.get(y, []),
                                   key=lambda p: (len(p), tuple(order[a] for a in p)))
    return paths, {key: {p: i for i, p in enumerate(plist)} for key, plist in paths.items()}


def dense_path_basis(bq: BoundQuiver):
    """The dense construction PathBasis replaced, as a reference.

    Tries every prefix c into a relation and every suffix d out of it, and
    spans and takes the quotient of every vertex pair, empty ones included.
    Returns (paths, ideal vectors, ideal, quots), each keyed by every
    ordered vertex pair.
    """
    f = bq.field
    m = bq.nilbound
    paths, index = dense_paths_by_pair(bq, m - 1)
    ideal_vectors = {key: [] for key in paths}
    for rel in bq.relations:
        u, v = bq.relation_endpoints(rel)
        for x in bq.vertices:
            for c_path in paths[(x, u)]:
                for y in bq.vertices:
                    for d_path in paths[(v, y)]:
                        vec = None
                        for coeff, p in rel:
                            full = c_path + p + d_path
                            if len(full) < m:
                                if vec is None:
                                    vec = [f.zero] * len(paths[(x, y)])
                                idx = index[(x, y)][full]
                                vec[idx] = f.add(vec[idx], coeff)
                        if vec is not None and any(vec):
                            ideal_vectors[(x, y)].append(vec)
    ideal = {key: Subspace.span(f, len(paths[key]), vecs)
             for key, vecs in ideal_vectors.items()}
    quots = {key: sub.quotient() for key, sub in ideal.items()}
    return paths, ideal_vectors, ideal, quots


def dense_check_admissible(bq: BoundQuiver):
    """The dense admissibility check check_admissible replaced, as a
    reference: spans the relation shifts of every vertex pair.  Returns
    (ok, violations)."""
    f = bq.field
    violations = []
    max_term = 0
    for rel in bq.relations:
        for _, p in rel:
            max_term = max(max_term, len(p))
            if len(p) < 2:
                violations.append(f"relation term {'*'.join(p)} has length < 2")
    m = bq.nilbound
    cap_len = m + max_term
    paths, index = dense_paths_by_pair(bq, cap_len)
    spans = {key: [] for key in paths}
    for rel in bq.relations:
        u, v = bq.relation_endpoints(rel)
        for x in bq.vertices:
            for c_path in paths[(x, u)]:
                for y in bq.vertices:
                    for d_path in paths[(v, y)]:
                        if len(c_path) + max_term + len(d_path) > cap_len:
                            continue
                        vec = [f.zero] * len(paths[(x, y)])
                        ok = True
                        for coeff, p in rel:
                            full = c_path + p + d_path
                            if len(full) > cap_len:
                                ok = False
                                break
                            idx = index[(x, y)][full]
                            vec[idx] = f.add(vec[idx], coeff)
                        if ok and any(vec):
                            spans[(x, y)].append(vec)
    ideals = {key: Subspace.span(f, len(paths[key]), vecs) for key, vecs in spans.items()}
    for (x, y), plist in sorted(paths.items()):
        for p in plist:
            if len(p) != m:
                continue
            vec = [f.zero] * len(plist)
            vec[index[(x, y)][p]] = f.one
            if not ideals[(x, y)].contains(vec):
                violations.append(
                    f"path {'*'.join(p)} of length {m} is not in the relation ideal")
    return not violations, violations


def _reference_inputs():
    out = []
    for name in fixture_names():
        q = load_quiver(name)[2]
        if isinstance(q, VoltageQuiver):
            out.append(pytest.param(lambda q=q: q.base, id=f"{name}-base"))
            for r in (1, 2):
                out.append(pytest.param(lambda q=q, r=r: lift_window(q, Window(-r, r)),
                                        id=f"{name}[-{r},{r}]"))
        else:
            out.append(pytest.param(lambda q=q: q, id=name))
            for n in (0, 1, 2):
                out.append(pytest.param(lambda q=q, n=n: RepetitiveTruncation(q, n).export(),
                                        id=f"{name}-truncation{n}"))
    for field in ("gf 7", "q"):
        out.append(pytest.param(lambda field=field: parse_quiver(
            f"field {field}\nnilbound 2\nvertex 1 2 3 4\n"
            "arrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 4\nrelation a*b\n"),
            id="non-admissible-long-path" + ("-q" if field == "q" else "")))
    # a*b and c*d are each outside the ideal, but congruent modulo it
    out.append(pytest.param(lambda: parse_quiver(
        "field q\nnilbound 2\nvertex 1 2 3 4\narrow a: 1 -> 2\narrow b: 2 -> 3\n"
        "arrow c: 1 -> 4\narrow d: 4 -> 3\nrelation 2 a*b - 3 c*d\n"),
        id="non-admissible-commutative-square"))
    for field in ("gf 32749", "q"):
        out.append(pytest.param(lambda field=field: parse_quiver(
            f"field {field}\nnilbound 4\nvertex 1\narrow a: 1 -> 1\narrow b: 1 -> 1\n"
            "relation a*a\nrelation b*b\nrelation 2 a*b - 3 b*a\n"),
            id="exterior-like" + ("-q" if field == "q" else "")))
    out.append(pytest.param(lambda: BoundQuiver(
        ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")],
        [((1, ("a", "b")), (-1, ("c",)))], parse_quiver(A2_TEXT).field, 3),
        id="non-admissible-short-term"))
    return out


def assert_sparse_path_basis_matches_the_dense_reference(bq):
    """PathBasis keys exactly the pairs that hold a path of length <
    nilbound, and on every ordered pair, keyed or not, it answers as the
    dense reference: its paths, ideal and quotient where it keys the pair,
    and dim, representatives and reduce_path everywhere."""
    f = bq.field
    pb = PathBasis(bq)
    paths, _, ideal, quots = dense_path_basis(bq)
    held = {key for key, plist in paths.items() if plist}
    assert pb.paths.keys() == pb.path_index.keys() == pb.ideal.keys() == pb.quots.keys() == held
    for key, plist in paths.items():
        if key in held:
            assert pb.paths[key] == plist, key
            assert pb.ideal[key] == ideal[key], key
            assert pb.quots[key].projection == quots[key].projection, key
            assert pb.quots[key].representatives == quots[key].representatives, key
        assert pb.dim(*key) == quots[key].dim, key
        assert pb.representatives(*key) == [plist[i] for i in quots[key].representatives], key
        for i, p in enumerate(plist):
            unit = [f.one if j == i else f.zero for j in range(len(plist))]
            assert pb.reduce_path(*key, p) == quots[key].apply(unit), (key, p)
    # a path of length nilbound reduces to zero, on a keyed pair or not
    for key, plist in dense_paths_by_pair(bq, bq.nilbound)[0].items():
        for p in plist[len(paths[key]):]:
            assert pb.reduce_path(*key, p) == (f.zero,) * quots[key].dim, (key, p)


@pytest.mark.parametrize("make_bq", _reference_inputs())
def test_sparse_path_basis_matches_the_dense_reference(make_bq):
    assert_sparse_path_basis_matches_the_dense_reference(make_bq())


@pytest.mark.parametrize("make_bq", _reference_inputs())
def test_pruned_admissibility_matches_the_dense_reference(make_bq):
    bq = make_bq()
    report = check_admissible(bq)
    violations = [r.actual for r in report.records if not r.ok]
    assert (report.ok, violations) == dense_check_admissible(bq)


def test_the_references_see_non_admissible_inputs():
    verdicts, violations = {}, {}
    for param in _reference_inputs():
        verdicts[param.id], violations[param.id] = dense_check_admissible(param.values[0]())
    assert not verdicts["non-admissible-long-path"]
    assert not verdicts["non-admissible-long-path-q"]
    assert len(violations["non-admissible-commutative-square"]) == 2
    assert not verdicts["non-admissible-short-term"]
    assert verdicts["a3.bq-truncation2"]
