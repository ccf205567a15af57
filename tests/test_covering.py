import pytest

import fovea.covering
import fovea.modules
from fovea.covering import (
    CoveringError,
    LayeredModule,
    layered_hom,
    layered_hom_dim,
    layered_injective,
    layered_simple,
    lift_morphism,
    orbit_enumeration,
    push_down,
    push_down_map,
    twist_shift_range,
    verify_covering_axioms,
    verify_pushdown,
    window_enumeration,
)
from fovea.linalg import Matrix
from fovea.modules import (
    Enumeration,
    ModMap,
    enumerate_indecomposables,
    hom_dim,
    hom_space,
    is_indecomposable,
    is_isomorphic_indec,
    injective,
    map_factor,
    projective,
)
from fovea.functors import window_indecomposables
from fovea.naming import load_quiver
from fovea.quiver import (
    Window,
    format_quiver,
    layer_vertex,
    lift_window,
    parse_quiver,
    path_basis,
)
from fovea.repetitive import repetitive_voltage
from fovea.suites import run_suite

LINE_K2 = parse_quiver(
    "field gf 32749\nnilbound 2\nvertex v\narrow a: v -> v deg 1\nrelation a*a\n")
NAKAYAMA2 = parse_quiver(
    "field gf 32749\nnilbound 2\nvertex 1 2\n"
    "arrow a: 1 -> 2 deg 0\narrow b: 2 -> 1 deg 1\nrelation a*b\nrelation b*a\n")
TRIVIAL = parse_quiver(
    "field gf 32749\nnilbound 2\nvertex 1 2\narrow a: 1 -> 2 deg 0\n")
LOOP_COVER_TEXT = "field gf 32749\nnilbound 3\nvertex v\narrow a: v -> v deg 0\nrelation a*a*a\n"
LOOP_COVER = parse_quiver(LOOP_COVER_TEXT)
D4_COVER_TEXT = ("field gf 32749\nnilbound 2\nvertex 0 1 2 3\n"
                 "arrow a: 1 -> 0 deg 0\narrow b: 2 -> 0 deg 0\narrow c: 3 -> 0 deg 1\n")
D4_COVER = parse_quiver(D4_COVER_TEXT)
DEGREE_10_D4_TEXT = D4_COVER_TEXT.replace("c: 3 -> 0 deg 1", "c: 3 -> 0 deg 10")

S0 = layered_simple(LINE_K2, "v", 0)
M0 = layered_injective(LINE_K2, "v", 0)
A = push_down(M0)
K = push_down(S0)


def test_twist_zero_is_identity():
    assert M0.twist(0) == M0


def test_twist_shifts_the_interval():
    m1 = M0.twist(1)
    assert m1.support_layers() == [1, 2]
    assert m1 == layered_injective(LINE_K2, "v", 1)
    assert m1.twist(-1) == M0


def test_twist_of_simple_is_an_indicator():
    for k in (-2, 0, 3):
        t = S0.twist(k)
        assert t.support_layers() == [k]
        assert t.dim("v", k) == 1


def test_twist_preserves_hom_dimensions():
    for k in (-1, 1, 2):
        assert layered_hom_dim(S0, M0) == layered_hom_dim(S0.twist(k), M0.twist(k))
        assert layered_hom_dim(M0, M0) == layered_hom_dim(M0.twist(k), M0.twist(k))


def test_push_down_of_the_simple():
    assert K.dims == {"v": 1}
    assert K.mats["a"].is_zero()


def test_push_down_of_the_interval_is_the_algebra():
    assert A.dims == {"v": 2}
    m = A.mats["a"]
    assert not m.is_zero() and (m @ m).is_zero()


def test_push_down_of_zero():
    zero = LayeredModule.make(LINE_K2, Window(0, 0), {}, {})
    assert push_down(zero).is_zero()


def test_push_down_preserves_total_dimension():
    for m in (S0, M0, M0.twist(3)):
        assert push_down(m).total_dim == m.total_dim


def test_push_down_twist_invariance_is_exact():
    for k in (-2, -1, 0, 1, 5):
        assert push_down(M0.twist(k)) == A
        assert push_down(S0.twist(k)) == K


def test_push_down_map_of_identity():
    f = layered_hom(M0, M0)[0]
    ident = [lm for lm in layered_hom(M0, M0)]
    # the identity lives in the hom space; push it down and check blocks
    for lm in ident:
        pushed = push_down_map(lm)
        assert pushed.source == A and pushed.target == A


def test_push_down_map_of_the_socle_inclusion():
    incl = layered_hom(S0, M0)
    assert len(incl) == 1
    pushed = push_down_map(incl[0])
    assert pushed.source == push_down(S0) and pushed.target == A
    assert not pushed.is_zero()
    fac = map_factor(pushed)
    assert fac.kernel.is_zero()


def test_push_down_map_functoriality_and_twist_invariance():
    maps = layered_hom(S0, M0)
    lm = maps[0]
    assert push_down_map(lm.twist(2)) == push_down_map(lm)


def test_orbit_algebra_examples():
    assert path_basis(LINE_K2.base).total_dim == 2
    assert path_basis(NAKAYAMA2.base).total_dim == 4


def test_hom_sum_identity_on_the_line():
    assert hom_dim(A, A) == 2
    assert hom_dim(A, K) == 1
    assert hom_dim(K, K) == 1
    assert sum(layered_hom_dim(M0.twist(k), M0)
               for k in twist_shift_range(M0, M0)) == 2
    assert sum(layered_hom_dim(M0.twist(k), S0)
               for k in twist_shift_range(M0, S0)) == 1
    assert sum(layered_hom_dim(S0.twist(k), S0)
               for k in twist_shift_range(S0, S0)) == 1


def test_both_twist_sums_agree():
    for x in (S0, M0):
        for y in (S0, M0, M0.twist(-1)):
            left = sum(layered_hom_dim(x.twist(k), y) for k in twist_shift_range(x, y))
            right = sum(layered_hom_dim(x, y.twist(k)) for k in twist_shift_range(y, x))
            assert left == right == hom_dim(push_down(x), push_down(y))


def test_only_finitely_many_twists_are_nonzero():
    ks = [k for k in range(-10, 11) if layered_hom_dim(M0.twist(k), M0) > 0]
    assert ks == [-1, 0]
    assert all(k in twist_shift_range(M0, M0) for k in ks)


def reassemble(components):
    """The sum of the push-downs of a lifted family: lift_morphism's inverse."""
    total = None
    for k in sorted(components):
        pushed = push_down_map(components[k])
        total = pushed if total is None else total + pushed
    return total


def test_lift_morphism_of_a_pushed_down_map():
    lm = layered_hom(S0, M0)[0]
    alpha = push_down_map(lm)
    fam = lift_morphism(S0, M0, alpha)
    assert sorted(fam) == [0]
    assert reassemble(fam) == alpha


def test_lift_morphism_identity():
    fam = lift_morphism(M0, M0, ModMap.identity(A))
    assert sorted(fam) == [0]
    assert reassemble(fam) == ModMap.identity(A)


def test_lift_morphism_nilpotent_component():
    nil = ModMap(A, A, {"v": A.mats["a"]})
    fam = lift_morphism(M0, M0, nil)
    assert sorted(fam) == [-1]
    assert reassemble(fam) == nil


def test_lift_then_reassemble_is_the_identity_on_a_basis():
    for h in hom_space(A, A).maps:
        fam = lift_morphism(M0, M0, h)
        assert reassemble(fam) == h or (not fam and h.is_zero())


def test_lift_morphism_rejects_foreign_maps():
    with pytest.raises(CoveringError):
        lift_morphism(M0, S0, ModMap.identity(A))


def test_cover_axioms_line():
    rep = verify_covering_axioms(LINE_K2)
    assert rep.ok
    sums = {r.check: (r.expected, r.actual) for r in rep.records}
    assert sums["covering.dim-sum-left[v,v]"] == (2, 2)


def test_cover_axioms_nakayama_and_trivial():
    assert verify_covering_axioms(NAKAYAMA2).ok
    assert verify_covering_axioms(TRIVIAL).ok


def test_pushdown_exactness_bookkeeping():
    # pushing the kernel and cokernel of a layered map matches the
    # factorization of the pushed-down map, dimension by dimension
    lm = layered_hom(S0, M0)[0]
    pushed = push_down_map(lm)
    fac = map_factor(pushed)
    w = Window(0, 1)
    up = map_factor(lm.map)
    assert sum(up.kernel.dims.values()) == fac.kernel.total_dim
    assert sum(up.cokernel.dims.values()) == fac.cokernel.total_dim


def test_verify_pushdown_report():
    rep = verify_pushdown(LINE_K2, M0, S0, density_target=A)
    assert rep.ok
    rep2 = verify_pushdown(LINE_K2, S0, S0)
    assert rep2.ok


def test_pushdown_indecomposable_and_twist_iso():
    assert is_indecomposable(push_down(S0))
    assert is_indecomposable(A)
    rep = verify_pushdown(LINE_K2, M0, M0.twist(2))
    assert rep.ok
    checks = {r.check for r in rep.records}
    assert "pushdown.iso-implies-twist" in checks


@pytest.mark.parametrize("k", [-20, -5, 5, 20])
def test_iso_implies_twist_tests_the_one_candidate_shift(k):
    rep = verify_pushdown(LINE_K2, M0, M0.twist(k))
    witness = next(r for r in rep.records if r.check == "pushdown.iso-implies-twist")
    assert witness.ok and witness.actual == f"witness shift {k}"


def test_nakayama_orbit_algebra_is_selfinjective():
    from fovea.repetitive import is_selfinjective
    assert is_selfinjective(NAKAYAMA2.base)


@pytest.mark.parametrize("name", ["line-k2.vq", "nakayama2.vq", "trivial-a2.vq", "loop-cover"])
@pytest.mark.parametrize("window", [Window(-1, 1), Window(-2, 2)], ids=["w1", "w2"])
def test_light_closure_finds_every_window_class(monkeypatch, name, window):
    """These windows are Nakayama, so enumeration takes the light closure
    on them; it finds exactly the isomorphism classes of the verified full
    closure, forced here by patching the Nakayama test."""
    vq = LOOP_COVER if name == "loop-cover" else load_quiver(name)[2]
    bq = lift_window(vq, window)
    assert fovea.modules._is_nakayama(bq)
    light = enumerate_indecomposables(bq, dim_cap=64, count_cap=128)
    monkeypatch.setattr(fovea.modules, "_is_nakayama", lambda bq: False)
    full = enumerate_indecomposables(bq, dim_cap=64, count_cap=128)
    assert light.complete and full.complete
    assert len(light.modules) == len(full.modules)
    for x, y in zip(light.modules, full.modules):
        assert x.dims == y.dims and is_isomorphic_indec(x, y)


def test_window_enumeration_is_memoised_and_refuses_a_capped_window(monkeypatch):
    vq = parse_quiver(LOOP_COVER_TEXT)
    orbits = orbit_enumeration(vq)
    assert orbit_enumeration(vq) is orbits and orbits

    def capped(bq, *args, **kwargs):
        return Enumeration(bq, [], False, ["count cap 128 hit"])

    monkeypatch.setattr(fovea.covering, "enumerate_indecomposables", capped)
    assert orbit_enumeration(vq) is orbits
    # a Nakayama lift enumerates no window, so the capped one is the D4 cover's
    fresh = parse_quiver(D4_COVER_TEXT)
    with pytest.raises(CoveringError, match="count cap 128 hit"):
        orbit_enumeration(fresh)
    assert fresh._orbits is None


def test_branching_window_takes_the_full_closure(monkeypatch):
    """Over a branching lift the light closure, forced here by patching the
    Nakayama test, misses indecomposables (the D4 modules of dimension 3
    and (2;1,1,1)), so window_enumeration must list what the verified full
    closure lists."""
    w = Window(-1, 1)
    bq = lift_window(D4_COVER, w)
    assert not fovea.modules._is_nakayama(bq)
    full = enumerate_indecomposables(bq, dim_cap=64, count_cap=128)
    enum = window_enumeration(D4_COVER, w)
    with monkeypatch.context() as patch:
        patch.setattr(fovea.modules, "_is_nakayama", lambda bq: True)
        light = enumerate_indecomposables(bq, dim_cap=64, count_cap=128)
    assert full.complete and enum.complete
    assert len(light.modules) < len(full.modules) == len(enum.modules)
    assert not light.complete and light.notes[-1].startswith("light closure lists")
    for x, y in zip(enum.modules, full.modules):
        assert x.dims == y.dims and is_isomorphic_indec(x, y)
    assert any(m.total_dim == 5 for m in enum.modules)


def test_density_search_on_a_capped_window_reports_not_found(monkeypatch):
    vq = parse_quiver(D4_COVER_TEXT)
    x = layered_simple(vq, "0", 0)

    def capped(bq, *args, **kwargs):
        return Enumeration(bq, [], False, ["count cap 128 hit"])

    monkeypatch.setattr(fovea.covering, "enumerate_indecomposables", capped)
    report = verify_pushdown(vq, x, x, density_target=push_down(x))
    density = [r for r in report.records if r.check == "pushdown.density-spot-check"]
    assert [r.ok for r in density] == [False]


def _graded(name):
    from test_report_digests import REP_A3_PRIME_TEXT, REP_KD4_TEXT    # it imports this module
    texts = {"loop-cover": LOOP_COVER_TEXT, "d4": D4_COVER_TEXT, "d4-deg10": DEGREE_10_D4_TEXT,
             "rep-a3p": REP_A3_PRIME_TEXT, "rep-kd4": REP_KD4_TEXT}
    return parse_quiver(texts[name]) if name in texts else load_quiver(name)[2]


def _grown_standard(vq, v, n, kind):
    """A lifted projective or injective as it was once computed: lifts of
    radius nilbound, 2 nilbound, ... until two in a row trim to equal modules."""
    prev = None
    r = max(vq.base.nilbound, 1)
    while r <= 32:
        w = Window(n - r, n + r)
        bq = lift_window(vq, w)
        if kind == "projective":
            mod = projective(bq, layer_vertex(v, n))
        else:
            mod = injective(bq, layer_vertex(v, n))
        lm = LayeredModule(vq, w, mod).trim()
        if lm == prev:
            return lm
        prev = lm
        r *= 2
    raise AssertionError("did not stabilize")


@pytest.mark.parametrize("name", ["line-k2.vq", "nakayama2.vq", "trivial-a2.vq", "loop-cover", "d4"])
def test_one_lift_gives_the_grown_projectives_and_injectives(name):
    vq = _graded(name)
    for v in vq.base.vertices:
        for n in (-1, 0, 2):
            assert fovea.covering.layered_projective(vq, v, n) == _grown_standard(vq, v, n, "projective")
            assert layered_injective(vq, v, n) == _grown_standard(vq, v, n, "injective")


def _assert_one_to_one(xs, ys):
    assert len(xs) == len(ys)
    unmatched = list(ys)
    for x in xs:
        unmatched.remove(next(y for y in unmatched if is_isomorphic_indec(x, y)))


@pytest.mark.parametrize("name, window", [
    (name, w) for name in ("line-k2.vq", "nakayama2.vq", "trivial-a2.vq", "loop-cover")
    for w in (Window(-1, 1), Window(-2, 2))] + [("d4", Window(-1, 1))],
    ids=lambda v: f"w{v.hi}" if isinstance(v, Window) else v)
def test_window_lists_are_shifts_of_the_orbit_list(name, window):
    """The direct per-window enumeration is the reference for the list read
    off the orbit representatives."""
    vq = _graded(name)
    _assert_one_to_one([x.align(window) for x in window_indecomposables(vq, window)],
                       window_enumeration(vq, window).modules)


@pytest.mark.parametrize("name, count", [
    ("line-k2.vq", 2), ("nakayama2.vq", 4), ("trivial-a2.vq", 3), ("loop-cover", 3), ("d4", 12),
    ("rep-kd4", 24), ("d4-deg10", 12)])
def test_orbit_push_downs_biject_with_the_base_enumeration(name, count):
    """Gabriel's count: over a representation-finite base, push-down is a
    bijection from the orbit list onto the base's indecomposables.  The D4
    cover with c of degree 10 reaches it only on a window that holds a lift
    of c."""
    vq = _graded(name)
    base = enumerate_indecomposables(vq.base)
    assert base.complete and len(base.modules) == count
    _assert_one_to_one([push_down(r) for r in orbit_enumeration(vq)], base.modules)


def reference_orbit_enumeration(vq, count=None):
    """The orbit list read off whole windows by older stopping rules, the
    reference for the closed form and for Gabriel's count: windows [0, w]
    grow by nilbound from w = nilbound until two in a row give the same
    classes or, given a count, until their classes reach it; each class is
    trimmed and shifted to lowest layer 0."""
    step = max(vq.base.nilbound, 1)
    w, prev = step, None
    while True:
        enum = enumerate_indecomposables(lift_window(vq, Window(0, w)), dim_cap=64, count_cap=128)
        assert enum.complete
        reps = []
        for m in enum.modules:
            lm = LayeredModule(vq, Window(0, w), m).trim()
            lm = lm.twist(-lm.window.lo)
            if not any(r.window == lm.window and is_isomorphic_indec(r.module, lm.module)
                       for r in reps):
                reps.append(lm)
        if (len(reps) >= count) if count else (prev is not None and len(prev) == len(reps)):
            return reps
        w, prev = w + step, reps


@pytest.mark.parametrize("name", ["d4", "rep-a3p"])
def test_window_orbit_list_is_the_reference_list(name):
    """Gabriel's count stops on the first window that reaches the base's
    count, one window before the two-in-a-row rule; the lists are equal
    module for module and in the same order."""
    reps = orbit_enumeration(_graded(name))
    ref = reference_orbit_enumeration(_graded(name))
    assert len(reps) == len(ref) == 12
    for x, y in zip(reps, ref):
        assert x.window == y.window and x.module.dims == y.module.dims
        assert x.module.mats == y.module.mats


def _nakayama_cover(name):
    if name.startswith("rep-"):
        return repetitive_voltage(load_quiver(name[4:] + ".bq")[2])
    return _graded(name)


@pytest.mark.parametrize("name", ["line-k2.vq", "nakayama2.vq", "trivial-a2.vq", "loop-cover",
                                  "rep-a2", "rep-a3", "rep-point"])
def test_nakayama_orbit_list_is_the_window_list(name):
    """A Nakayama lift reads its orbit list off the lifted projectives; it
    is the windows' list, equal module for module and in the same order."""
    vq = _nakayama_cover(name)
    assert fovea.modules._is_nakayama(vq.base)
    reps = orbit_enumeration(vq)
    ref = reference_orbit_enumeration(_nakayama_cover(name))
    assert len(reps) == len(ref) == path_basis(vq.base).total_dim
    for x, y in zip(reps, ref):
        assert x.window == y.window and x.module.dims == y.module.dims
        assert x.module.mats == y.module.mats


def test_nakayama_orbit_list_on_a_degree_zero_cycle_lists_the_window_classes():
    """Arrows of degrees 1 and -1 around a 2-cycle lift to copies of the
    base, where a uniserial module has dimension 2 at a vertex: the closed
    form may take another basis of it than the window enumeration met
    first, but it lists the same classes on the same windows in the same
    order."""
    text = ("field gf 32749\nnilbound 4\nvertex 0 1\n"
            "arrow a0: 0 -> 1 deg 1\narrow a1: 1 -> 0 deg -1\nrelation a0*a1*a0\n")
    reps = orbit_enumeration(parse_quiver(text))
    ref = reference_orbit_enumeration(parse_quiver(text))
    assert len(reps) == len(ref) == 7
    for x, y in zip(reps, ref):
        assert x.window == y.window and x.module.dims == y.module.dims
        assert is_isomorphic_indec(x.module, y.module)
    assert any(max(x.module.dims.values()) == 2 for x in reps)


@pytest.mark.parametrize("suite", ["kg0", "pushdown", "phi-identities"])
def test_suites_pass_on_the_repetitive_cover_of_a3(suite, tmp_path):
    """Its orbit algebra is the trivial extension T(A3), with 12
    indecomposables; a window [-r, r] of the lift holds more than the
    enumeration's count cap, the list up to shift does not."""
    path = tmp_path / "repetitive-a3.vq"
    path.write_text(format_quiver(repetitive_voltage(load_quiver("a3.bq")[2])))
    assert run_suite(suite, str(path)).ok


def test_kg0_passes_on_the_d4_cover(tmp_path):
    path = tmp_path / "d4.vq"
    path.write_text(D4_COVER_TEXT)
    assert run_suite("kg0", str(path)).ok
