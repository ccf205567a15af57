import functools
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from fovea.covering import (
    LayeredModule,
    common_window,
    layered_hom,
    layered_hom_dim,
    layered_injective,
    layered_simple,
    push_down,
    push_down_map,
)
from fovea.functors import (
    COVER,
    Coinduction,
    EvalResult,
    FunctorError,
    default_battery,
    evaluate,
    evaluate_dim,
    extend_functor,
    fp_functor,
    fp_hom,
    fp_hom_dim,
    functor_length,
    functor_length_cover,
    hom_functor,
    kg_level0_report,
    phi,
    phi_epi_cover,
    phi_hom_identity,
    psi_evaluate,
    restrict_functor,
    simple_functor,
    simple_functor_cover,
    twist_functor,
    window_indecomposables,
)
from fovea.linalg import Matrix, Subspace, rank
from fovea.modules import (
        ModMap,
    Module,
    enumerate_indecomposables,
    hom_dim,
    hom_space,
    simple,
    projective,
)
from fovea.naming import load_quiver
from fovea.quiver import (
    VoltageQuiver,
    Window,
    layer_vertex,
    lift_window,
    parse_quiver,
    sub_quiver,
)
from test_covering import D4_COVER, D4_COVER_TEXT
from test_properties import modules, scalars

A2 = parse_quiver("field gf 32749\nnilbound 2\nvertex 1 2\narrow a: 1 -> 2\n")
LINE_K2 = parse_quiver(
    "field gf 32749\nnilbound 2\nvertex v\narrow a: v -> v deg 1\nrelation a*a\n")
KRONECKER = parse_quiver(
    "field gf 32749\nnilbound 2\nvertex 1 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n")

ENUM2 = enumerate_indecomposables(A2)
S1, S2 = simple(A2, "1"), simple(A2, "2")
P2 = projective(A2, "2")

S0 = layered_simple(LINE_K2, "v", 0)
M0 = layered_injective(LINE_K2, "v", 0)
BASE_ENUM = enumerate_indecomposables(LINE_K2.base)


def zero_functor(carrier):
    """Hom(-, 0) on either side, which fp_functor presents as 0 -> 0."""
    if isinstance(carrier, VoltageQuiver):
        zero = LayeredModule.make(carrier, Window(0, 0), {}, {})
    else:
        zero = Module.zero(carrier)
    return fp_functor(carrier, hom_functor(carrier, zero).pres)


def same_class(res, h1, h2):
    """Do two maps N1 -> N2 induce the same functor map, that is, does
    their difference factor through the presentation of the target?"""
    c1, c2 = res.hom_targets.coords(h1), res.hom_targets.coords(h2)
    assert c1 is not None and c2 is not None
    f = res.hom_targets.source.bq.field
    return res.trivial_coords.contains([f.sub(a, b) for a, b in zip(c1, c2)])


def profile(t, modules):
    return tuple(evaluate_dim(t, x) for x in modules)


def test_fp_functor_with_zero_target_is_zero():
    t = fp_functor(A2, ModMap.zero(P2, Module.zero(A2)))
    assert all(evaluate_dim(t, x) == 0 for x in ENUM2.modules)


def test_fp_functor_of_an_isomorphism_is_zero():
    t = fp_functor(A2, ModMap.identity(P2))
    assert all(evaluate_dim(t, x) == 0 for x in ENUM2.modules)


def test_fp_functor_of_the_almost_split_epi_is_the_simple():
    g = hom_space(P2, S2).maps[0]
    t = fp_functor(A2, g)
    assert profile(t, ENUM2.modules) == profile(simple_functor(A2, S2, ENUM2), ENUM2.modules)


def test_evaluate_simple_functor_examples():
    t = simple_functor(A2, S2, ENUM2)
    assert evaluate_dim(t, S2) == 1
    assert evaluate_dim(t, P2) == 0


def test_evaluate_hom_functor_is_the_hom_dimension():
    h = hom_functor(A2, P2)
    for x in ENUM2.modules:
        assert evaluate_dim(h, x) == hom_dim(x, P2)


def test_simple_functor_profiles_are_indicators():
    for n in (S1, S2, P2):
        t = simple_functor(A2, n, ENUM2)
        prof = profile(t, ENUM2.modules)
        assert sorted(prof) == [0, 0, 1]
        hit = ENUM2.modules[prof.index(1)]
        assert hit.dims == n.dims


def test_evaluate_rejects_side_mismatch():
    t = hom_functor(A2, P2)
    with pytest.raises(FunctorError):
        evaluate(t, M0)
    with pytest.raises(FunctorError):
        evaluate(hom_functor(LINE_K2, M0), P2)


def test_fp_hom_examples():
    sS2 = simple_functor(A2, S2, ENUM2)
    sS1 = simple_functor(A2, S1, ENUM2)
    assert fp_hom_dim(sS2, sS2) == 1
    assert fp_hom_dim(sS1, sS2) == 0
    assert fp_hom_dim(sS2, zero_functor(A2)) == 0


def test_fp_hom_yoneda():
    for m in ENUM2.modules:
        for n in ENUM2.modules:
            assert fp_hom_dim(hom_functor(A2, m), hom_functor(A2, n)) == hom_dim(m, n)


def test_fp_hom_representative_maps_lift():
    res = fp_hom(hom_functor(A2, P2), simple_functor(A2, P2, ENUM2))
    assert res.dim == 1
    for fm in res.maps:
        assert fm.h.is_natural()


def test_functor_length_examples():
    assert functor_length(hom_functor(A2, P2), ENUM2).length == 2
    assert functor_length(hom_functor(A2, S2), ENUM2).length == 2
    assert functor_length(simple_functor(A2, S2, ENUM2), ENUM2).length == 1


def test_functor_length_refuses_incomplete_lists():
    enum = enumerate_indecomposables(KRONECKER, dim_cap=2, count_cap=8)
    assert not enum.complete
    with pytest.raises(FunctorError):
        functor_length(hom_functor(KRONECKER, simple(KRONECKER, "1")), enum)


def test_length_additivity_on_an_extension():
    # image and cokernel of Hom(-, g) split the length of Hom(-, S2)
    g = hom_space(P2, S2).maps[0]
    t = fp_functor(A2, g)
    total = functor_length(hom_functor(A2, S2), ENUM2).length
    coker_len = functor_length(t, ENUM2).length
    image_len = sum(hom_dim(x, S2) - evaluate_dim(t, x) for x in ENUM2.modules)
    assert total == coker_len + image_len


def test_phi_of_a_representable_is_representable():
    t = hom_functor(LINE_K2, M0)
    u = phi(t)
    a = push_down(M0)
    for x in BASE_ENUM.modules:
        assert evaluate_dim(u, x) == hom_dim(x, a)


def test_phi_of_the_simple_functor_is_an_indicator_at_the_push_down():
    t = simple_functor_cover(LINE_K2, M0)
    u = phi(t)
    a, k = push_down(M0), push_down(S0)
    assert evaluate_dim(u, a) == 1
    assert evaluate_dim(u, k) == 0


def test_phi_of_zero():
    u = phi(zero_functor(LINE_K2))
    assert all(evaluate_dim(u, x) == 0 for x in BASE_ENUM.modules)


def test_psi_of_phi_is_the_twist_sum():
    battery, tests = default_battery(LINE_K2)
    for t in battery:
        for x in tests:
            lhs = psi_evaluate(phi(t), x)
            rhs = sum(evaluate_dim(t, x.twist(k)) for k in range(-5, 6))
            assert lhs == rhs


def test_psi_of_a_representable():
    u = hom_functor(LINE_K2.base, push_down(M0))
    assert psi_evaluate(u, S0) == 1


def test_twist_functor_examples():
    t = simple_functor_cover(LINE_K2, M0)
    assert profile(twist_functor(t, 0), [S0, M0]) == profile(t, [S0, M0])
    t1 = twist_functor(t, 1)
    s_m1 = simple_functor_cover(LINE_K2, M0.twist(1))
    mods = [S0, M0, M0.twist(1), S0.twist(1)]
    assert profile(t1, mods) == profile(s_m1, mods)
    # the profile shifts: evaluating the twist at the twisted module
    for x in mods:
        assert evaluate_dim(t1, x.twist(1)) == evaluate_dim(t, x)


def test_phi_hom_identity_cases():
    sM0 = simple_functor_cover(LINE_K2, M0)
    sS0 = simple_functor_cover(LINE_K2, S0)
    r1 = phi_hom_identity(sM0, sM0)
    assert r1.ok and r1.records[0].expected == 1
    r2 = phi_hom_identity(sM0, sS0)
    assert r2.ok and r2.records[0].expected == 0
    r3 = phi_hom_identity(sM0, twist_functor(sM0, 1))
    assert r3.ok


def test_phi_epi_cover_iso_case():
    tests = [S0, M0, M0.twist(-1)]
    res = phi_epi_cover(M0, M0, ModMap.identity(push_down(M0)), tests)
    assert res.report.ok and res.shifts == [0]
    phit = phi(res.functor)
    u = fp_functor(LINE_K2.base, ModMap.identity(push_down(M0)))
    for z in tests:
        assert evaluate_dim(phit, push_down(z)) == evaluate_dim(u, push_down(z))


def test_phi_epi_cover_zero_presentation():
    tests = [S0, M0]
    a = push_down(M0)
    res = phi_epi_cover(M0, M0, ModMap.zero(a, a), tests)
    assert res.report.ok and res.shifts == []


def test_phi_epi_cover_nilpotent_dominates():
    tests = [S0, M0, M0.twist(-1)]
    a = push_down(M0)
    nil = ModMap(a, a, {"v": a.mats["a"]})
    res = phi_epi_cover(M0, M0, nil, tests)
    assert res.report.ok
    phit = phi(res.functor)
    u = fp_functor(LINE_K2.base, nil)
    for z in tests:
        assert evaluate_dim(phit, push_down(z)) >= evaluate_dim(u, push_down(z))


def test_proper_mono_pushes_to_a_proper_mono():
    # Hom(-, soc) -> Hom(-, M0) is a pointwise mono, strict somewhere;
    # its image under the comparison functor is again a strict mono
    incl_up = hom_space(S0.align(M0.window), M0.module).maps[0]
    mono_strict_up = False
    for x in (S0, M0, M0.twist(-1)):
        w = Window(min(x.window.lo, M0.window.lo) - 1, max(x.window.hi, M0.window.hi) + 1)
        xm = x.align(w)
        cols = [list((hom_space(xm, M0.align(w)).space.reduce(h.vectorize())))
                for h in hom_space(xm, S0.align(w)).maps]
        up_s = hom_dim(xm, S0.align(w))
        up_m = hom_dim(xm, M0.align(w))
        if up_s < up_m:
            mono_strict_up = True
    assert mono_strict_up
    a, k = push_down(M0), push_down(S0)
    down_incl = hom_space(k, a).maps[0]
    for x in BASE_ENUM.modules:
        rows = []
        hom_xk = hom_space(x, k)
        hom_xa = hom_space(x, a)
        for h in hom_xk.maps:
            rows.append(list(hom_xa.coords(down_incl @ h)))
        if rows:
            assert rank(Matrix(A2.field, rows)) == len(rows)  # injective
    assert hom_dim(a, k) < hom_dim(a, a)  # strict somewhere


def test_restrict_extend_round_trip():
    w2 = lift_window(LINE_K2, Window(0, 2))
    subset = ["v@0", "v@1"]
    sub = sub_quiver(w2, subset)
    sub_enum = enumerate_indecomposables(sub)
    co = Coinduction(w2, subset)
    for target in (projective(sub, "v@1"), simple(sub, "v@0")):
        s = hom_functor(sub, target)
        extended = extend_functor(s, w2, subset, co)
        back = restrict_functor(extended, subset)
        for x in sub_enum.modules:
            assert evaluate_dim(back, x) == evaluate_dim(s, x)


def test_extension_preserves_fp_hom_dimensions():
    w2 = lift_window(LINE_K2, Window(0, 2))
    subset = ["v@0", "v@1"]
    sub = sub_quiver(w2, subset)
    co = Coinduction(w2, subset)
    functors = [hom_functor(sub, projective(sub, "v@1")),
                hom_functor(sub, simple(sub, "v@0")),
                hom_functor(sub, simple(sub, "v@1"))]
    extended = [extend_functor(s, w2, subset, co) for s in functors]
    for i, s in enumerate(functors):
        for j, t in enumerate(functors):
            assert fp_hom_dim(s, t) == fp_hom_dim(extended[i], extended[j])


def test_restrict_extend_on_everything_is_the_identity():
    w2 = lift_window(LINE_K2, Window(0, 2))
    subset = list(w2.vertices)
    co = Coinduction(w2, subset)
    t = hom_functor(sub_quiver(w2, subset), projective(sub_quiver(w2, subset), "v@1"))
    e = extend_functor(t, w2, subset, co)
    enum = enumerate_indecomposables(w2)
    for x in enum.modules:
        assert evaluate_dim(e, x) == evaluate_dim(t, x)


def test_restriction_requires_convexity():
    w2 = lift_window(LINE_K2, Window(0, 2))
    with pytest.raises(FunctorError):
        restrict_functor(hom_functor(w2, projective(w2, "v@2")), ["v@0", "v@2"])


def test_length_certificates_match_across_the_comparison():
    h = hom_functor(LINE_K2, M0)
    cert_r = functor_length_cover(h)
    cert_a = functor_length(phi(h), BASE_ENUM)
    assert cert_r.length == cert_a.length == 3
    s = simple_functor_cover(LINE_K2, M0)
    assert functor_length_cover(s).length == 1
    assert functor_length(phi(s), BASE_ENUM).length == 1


def test_phi_is_exact_on_evaluation_dimensions():
    # split Hom(-, N) by the image of a morphism: the image and cokernel
    # evaluation dimensions downstairs match the twist sums upstairs
    from fovea.covering import layered_hom, layered_hom_dim, push_down_map
    lm = layered_hom(S0, M0)[0]
    t_up = fp_functor(LINE_K2, lm)
    t_down = phi(t_up)
    pushed = push_down_map(lm)
    for z in (S0, M0, M0.twist(-1)):
        fz = push_down(z)
        down_coker = evaluate_dim(t_down, fz)
        down_image = hom_dim(fz, pushed.target) - down_coker
        up_coker = sum(evaluate_dim(t_up, z.twist(k)) for k in range(-5, 6))
        up_image = sum(layered_hom_dim(z.twist(k), M0) for k in range(-5, 6)) - up_coker
        assert down_coker == up_coker
        assert down_image == up_image


def test_kg_report_verdicts():
    assert kg_level0_report(A2).verdicts["algebra"].startswith("KG = 0")
    assert kg_level0_report(KRONECKER).verdicts["algebra"] == "undecidable at desk scale"
    rep = kg_level0_report(LINE_K2)
    assert rep.ok
    assert rep.verdicts["base"].startswith("KG = 0")
    assert rep.verdicts["cover"].startswith("KG = 0")


def test_kg_report_on_the_loop_cover():
    # the trivial grading of a*a*a = 0: every battery functor lives in
    # layer 0, and its twists still move its length profile
    loop = parse_quiver(
        "field gf 32749\nnilbound 3\nvertex v\narrow a: v -> v deg 0\nrelation a*a*a\n")
    rep = kg_level0_report(loop)
    assert rep.ok, [r.check for r in rep.records if not r.ok]
    assert rep.verdicts["cover"].startswith("KG = 0")
    assert any(r.check == "kg0.twist-moves-profile[4,k=1]" for r in rep.records)


def test_functor_map_coset_equality():
    res = fp_hom(hom_functor(A2, P2), hom_functor(A2, P2))
    assert res.dim == 1
    h = res.maps[0].h
    # adding anything that factors through the (zero) presentation kernel
    # does not change the class; an independent map does
    assert same_class(res, h, h)
    zero = ModMap.zero(P2, P2)
    assert not same_class(res, h, zero) or h.is_zero()
    # on a simple functor, the radical endomorphism of the target induces
    # the zero class
    sP2 = simple_functor(A2, P2, ENUM2)
    res2 = fp_hom(hom_functor(A2, P2), sP2)
    g = sP2.pres  # S1 -> P2
    induced = hom_space(P2, P2).maps[0] @ g  # lands in the presented image
    assert res2.dim == 1


def test_twist_evaluations_vanish_outside_the_overlap():
    t = simple_functor_cover(LINE_K2, M0)
    hull = common_window(t.pres.source, t.pres.target)
    nonzero = [k for k in range(-8, 9) if evaluate_dim(t, S0.twist(k)) > 0
               or evaluate_dim(t, M0.twist(k)) > 0]
    for k in nonzero:
        assert hull.lo - M0.window.hi <= k <= hull.hi
    assert len(nonzero) <= 4


def test_simple_functors_push_to_indicators_on_the_two_vertex_cover():
    # simple preservation on the richer cover: the pushed-down simple
    # functor of each anchored shift class is the indicator of its
    # push-down among the base classes
    nak = parse_quiver(
        "field gf 32749\nnilbound 2\nvertex 1 2\n"
        "arrow a: 1 -> 2 deg 0\narrow b: 2 -> 1 deg 1\nrelation a*b\nrelation b*a\n")
    from fovea.covering import layered_injective as inj, layered_simple as simp
    from fovea.modules import is_isomorphic_indec
    classes = [simp(nak, "1", 0), simp(nak, "2", 0), inj(nak, "1", 0), inj(nak, "2", 0)]
    base_enum = enumerate_indecomposables(nak.base)
    assert base_enum.complete and len(base_enum.modules) == 4
    for x in classes:
        t = phi(simple_functor_cover(nak, x))
        fx = push_down(x)
        for m in base_enum.modules:
            expected = 1 if (m.dims == fx.dims and is_isomorphic_indec(m, fx)) else 0
            assert evaluate_dim(t, m) == expected


# ---------------------------------------------------------------------------
# evaluate against the reference that builds every hom space


def _fresh_align(lm: LayeredModule, w: Window) -> Module:
    """A layered module extended by zero onto w, built anew (no memo)."""
    if lm.is_zero():
        return Module.zero(lift_window(lm.vq, w))
    return lm._on_window(w).module


def reference_evaluate(t, x) -> EvalResult:
    """evaluate as it was before it read Hom(x, N) first: it aligns the
    whole presentation and builds Hom(x, M) whatever Hom(x, N) is.  The
    alignments are built anew, so no memo of a LayeredModule is read."""
    if t.side == COVER:
        w = common_window(t.pres.source, t.pres.target, x)
        comps = {layer_vertex(v, n): t.pres.map.comps[layer_vertex(v, n)]
                 for v in t.carrier.base.vertices for n in w.layers if n in t.pres.window}
        f = ModMap(_fresh_align(t.pres.source, w), _fresh_align(t.pres.target, w), comps,
                   check=False)
        xm = _fresh_align(x, w)
    else:
        f, xm = t.pres, x
    hom_m = hom_space(xm, f.source)
    hom_n = hom_space(xm, f.target)
    rows = [list(hom_n.coords(f @ h)) for h in hom_m.maps]
    image = Subspace.span(xm.bq.field, hom_n.dim, rows)
    return EvalResult(hom_n.dim - image.dim, hom_n, image)


def _assert_evaluates_as_the_reference(t, x) -> int:
    got, want = evaluate(t, x), reference_evaluate(t, x)
    assert got.dim == want.dim == evaluate_dim(t, x)
    assert got.hom_target.source == want.hom_target.source
    assert got.hom_target.target == want.hom_target.target
    assert got.hom_target.rows.entries == want.hom_target.rows.entries
    assert got.image_coords == want.image_coords
    assert got.image_coords.ambient == want.image_coords.ambient
    return want.hom_target.dim


@pytest.mark.parametrize("make_vq", [
    lambda: load_quiver("line-k2.vq")[2],
    lambda: load_quiver("nakayama2.vq")[2],
    lambda: load_quiver("trivial-a2.vq")[2],
    lambda: D4_COVER,
], ids=["line-k2", "nakayama2", "trivial-a2", "d4"])
def test_cover_evaluate_matches_the_reference(make_vq):
    vq = make_vq()
    battery, _ = default_battery(vq)
    windows = window_indecomposables(vq, Window(-1, 1))
    dims = [_assert_evaluates_as_the_reference(t, x) for t in battery for x in windows]
    # both branches are taken: Hom(X, N) = 0 and Hom(X, N) != 0
    assert 0 in dims and any(dims)


@st.composite
def random_functors(draw, bq=None):
    """coker Hom(-, f) for a random map f: M -> N between random modules."""
    m = draw(modules(bq))
    n = draw(modules(m.bq))
    hom = hom_space(m, n)
    f = hom.from_coords([draw(scalars(m.bq.field)) for _ in range(hom.dim)])
    return fp_functor(m.bq, f)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_algebra_evaluate_matches_the_reference(data):
    t = data.draw(random_functors())
    for _ in range(3):
        _assert_evaluates_as_the_reference(t, data.draw(modules(t.carrier)))


def test_layered_memos_take_no_part_in_equality():
    vq = load_quiver("nakayama2.vq")[2]
    warm = layered_injective(vq, "1", 0)
    push_down(warm)
    for k in (0, 1, 3):
        warm.align(Window(warm.window.lo - k, warm.window.hi + k))
        warm.twist(k - 2)
    fresh = layered_injective(vq, "1", 0)
    assert fresh._pushed is None and not fresh._aligned
    assert not fresh._twists and len(warm._twists) == 3
    assert warm == fresh and fresh == warm
    assert hash(warm) == hash(fresh)
    assert len({warm, fresh}) == 1
    # a layered map's memos are made on first use and take no part either
    warm_map = layered_hom(warm, warm)[0]
    warm_map.twist(1)
    push_down_map(warm_map)
    warm_map.kernel()
    fresh_map = layered_hom(fresh, fresh)[0]
    assert fresh_map._twists is None and fresh_map._pushed is None
    assert fresh_map._kernel is None
    assert warm_map._twists and warm_map._pushed is not None
    assert warm_map._kernel is warm_map.kernel()
    assert warm_map == fresh_map and fresh_map == warm_map
    assert repr(warm_map) == repr(fresh_map)


def test_a_map_kernel_memo_takes_no_part_in_equality():
    g = hom_space(P2, S2).maps[0]
    warm, fresh = ModMap(P2, S2, g.comps), ModMap(P2, S2, g.comps)
    kernel = warm.kernel()
    assert warm.kernel() is kernel and kernel == S1
    assert fresh._kernel is None and "_kernel" not in vars(fresh)
    assert warm == fresh and fresh == warm
    assert hash(warm) == hash(fresh)
    assert len({warm, fresh}) == 1


@pytest.mark.parametrize("make_lm", [
    lambda: layered_injective(load_quiver("nakayama2.vq")[2], "2", 1),
    lambda: layered_simple(load_quiver("line-k2.vq")[2], "v", -1),
    lambda: layered_injective(D4_COVER, "0", 0),
], ids=["nakayama2-injective", "line-k2-simple", "d4-injective"])
def test_align_equals_a_fresh_zero_extension(make_lm):
    lm = make_lm()
    for w in _four_windows(lm.window):
        first = lm.align(w)
        assert first == lm._on_window(w).module
        assert lm.align(w) is first
    # a layered map is placed the same way: twisted by k, its components
    # copied where n - k lies in its window and zero elsewhere
    for t in (hom_functor(lm.vq, lm), simple_functor_cover(lm.vq, lm)):
        pres = t.pres
        for w in _four_windows(common_window(pres.source, pres.target)):
            assert pres.align(w) == _placed_reference(pres, w, 0)
            for k in (-1, 2):
                wk = Window(w.lo + k, w.hi + k)
                assert pres.align(wk, k) == pres.twist(k).align(wk) \
                    == _placed_reference(pres, wk, k)
                assert pres.twist(k) is pres.twist(k)


def _four_windows(hull: Window) -> tuple:
    lo, hi = hull.lo, hull.hi
    return Window(lo, hi), Window(lo - 1, hi), Window(lo, hi + 2), Window(lo - 3, hi + 1)


def _placed_reference(pres, w: Window, k: int) -> ModMap:
    """The map twisted by k on w, built as `reference_evaluate` builds it."""
    comps = {layer_vertex(v, n): pres.map.comps[layer_vertex(v, n - k)]
             for v in pres.source.vq.base.vertices for n in w.layers if n - k in pres.window}
    return ModMap(_fresh_align(pres.source.twist(k), w), _fresh_align(pres.target.twist(k), w),
                  comps, check=False)


# ---------------------------------------------------------------------------
# the dimension-only paths against the computations that build the spaces


@dataclass
class _Case:
    cover_functors: list
    cover_modules: list
    algebra_functors: list
    algebra_modules: list


@functools.cache
def _case(name: str, field: str) -> _Case:
    """On a cover over a field: the hom and simple functors of its battery
    modules and the battery and window modules; over the base, their
    push-downs and the hom and simple functors of the base's
    indecomposables, which are also test modules."""
    if name == "d4":
        vq = parse_quiver(D4_COVER_TEXT.replace("gf 32749", field.replace(":", " ")))
    else:
        vq = load_quiver(name, field)[2]
    battery, tests = default_battery(vq)
    targets = [t.pres.target for t in battery[:len(battery) // 2]]
    cover_functors = ([hom_functor(vq, m) for m in targets]
                      + [simple_functor_cover(vq, m) for m in targets])
    cover_modules = tests + window_indecomposables(vq, Window(-1, 1))
    enum = enumerate_indecomposables(vq.base)
    assert enum.complete
    algebra_functors = ([phi(t) for t in cover_functors]
                        + [hom_functor(vq.base, m) for m in enum.modules]
                        + [simple_functor(vq.base, m, enum) for m in enum.modules])
    algebra_modules = [push_down(x) for x in cover_modules] + enum.modules
    return _Case(cover_functors, cover_modules, algebra_functors, algebra_modules)


@st.composite
def _cases(draw) -> tuple[_Case, bool]:
    """A case over GF(101), GF(32749) or Q, and a side (True: covering)."""
    name = draw(st.sampled_from(["line-k2.vq", "nakayama2.vq", "trivial-a2.vq", "d4"]))
    return _case(name, draw(st.sampled_from(["gf:101", "gf:32749", "q"]))), draw(st.booleans())


@st.composite
def _functors(draw, case: _Case, cover: bool):
    if not cover:
        return draw(st.sampled_from(case.algebra_functors))
    return draw(st.sampled_from(case.cover_functors)).twist(draw(st.integers(-1, 1)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_evaluate_dim_is_the_dimension_of_the_value(data):
    case, cover = data.draw(_cases())
    t = data.draw(_functors(case, cover))
    if cover:
        x = data.draw(st.sampled_from(case.cover_modules)).twist(data.draw(st.integers(-2, 2)))
    else:
        x = data.draw(st.sampled_from(case.algebra_modules))
    assert evaluate_dim(t, x) == evaluate(t, x).dim


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_fp_hom_dim_is_the_dimension_of_fp_hom(data):
    case, cover = data.draw(_cases())
    t1, t2 = data.draw(_functors(case, cover)), data.draw(_functors(case, cover))
    assert fp_hom_dim(t1, t2) == fp_hom(t1, t2).dim


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_fp_hom_dim_of_random_presentations(data):
    t1 = data.draw(random_functors())
    t2 = data.draw(random_functors(t1.carrier))
    assert fp_hom_dim(t1, t2) == fp_hom(t1, t2).dim


def test_the_kernel_term_is_exercised():
    """The cases hold evaluations that read a nonzero Hom(X, ker f), on
    both sides: Hom(X, N) is nonzero there, so evaluate_dim reads all
    three terms, and it matches evaluate at each of them.  On the D4
    cover they are 8 of 546 pairs on the covering side and 68 of 1938
    over the base."""
    case = _case("d4", "q")
    for functors, mods, dim in ((case.cover_functors, case.cover_modules, layered_hom_dim),
                                (case.algebra_functors, case.algebra_modules, hom_dim)):
        read = [(t, x) for t in functors for x in mods
                if dim(x, t.pres.target) and dim(x, t.pres.kernel())]
        assert read
        assert all(evaluate_dim(t, x) == evaluate(t, x).dim for t, x in read)
