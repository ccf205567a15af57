import random
import subprocess
import sys

import pytest

import fovea.modules
from fovea.linalg import Field, Matrix
from fovea.modules import (
    AlmostSplitSequence,
    DecompPiece,
    ModMap,
    Module,
    ModuleError,
    ModuleParseError,
    decompose,
    direct_sum,
    dual_module,
    enumerate_indecomposables,
    format_module,
    hom_dim,
    hom_space,
    injective,
    is_indecomposable,
    is_isomorphic,
    map_factor,
    parse_module,
    projective,
    radical_hom,
    right_almost_split,
    simple,
    socle_submodule,
)
from fovea.quiver import parse_quiver, path_basis

from almost_split_reference import irr_space, left_almost_split, verify_right_almost_split
from oracles import naturality_hom_dim

A2 = parse_quiver("field gf 32749\nnilbound 2\nvertex 1 2\narrow a: 1 -> 2\n")
A3 = parse_quiver(
    "field gf 32749\nnilbound 3\nvertex 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\n")
LOOP = parse_quiver("field gf 32749\nnilbound 2\nvertex v\narrow a: v -> v\nrelation a*a\n")
D4 = parse_quiver(
    "field gf 32749\nnilbound 2\nvertex 0 1 2 3\n"
    "arrow a: 1 -> 0\narrow b: 2 -> 0\narrow c: 3 -> 0\n")
KRONECKER = parse_quiver(
    "field gf 32749\nnilbound 2\nvertex 1 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n")

S1, S2 = simple(A2, "1"), simple(A2, "2")
P2 = projective(A2, "2")


def oracle_hom(m, n):
    arrows = [(a.name, a.source, a.target) for a in m.bq.arrows]
    return naturality_hom_dim(
        m.bq.vertices, arrows, m.dims,
        {k: [list(r) for r in v.entries] for k, v in m.mats.items()},
        n.dims, {k: [list(r) for r in v.entries] for k, v in n.mats.items()},
        p=m.bq.field.p)


def test_module_must_satisfy_relations():
    with pytest.raises(ModuleError):
        Module(LOOP, {"v": 1}, {"a": Matrix(LOOP.field, [[1]])})
    Module(LOOP, {"v": 2}, {"a": Matrix(LOOP.field, [[0, 1], [0, 0]])})


def test_a_relation_through_a_zero_vertex_builds_no_square_matrix(monkeypatch):
    """A path through a vertex where M is 0 acts as 0, so the relation
    check multiplies nothing for it and builds no d x d accumulator."""
    cycle = parse_quiver("field gf 7\nnilbound 3\nvertex 1 2\narrow a: 1 -> 2\n"
                         "arrow b: 2 -> 1\nrelation a*b\n")
    shapes = []
    zeros, matmul = Matrix.zeros.__func__, Matrix.__matmul__

    def recording_zeros(cls, field, rows, cols):
        shapes.append((rows, cols))
        return zeros(cls, field, rows, cols)

    def recording_matmul(self, other):
        shapes.append((self.rows, other.cols))
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "zeros", classmethod(recording_zeros))
    monkeypatch.setattr(Matrix, "__matmul__", recording_matmul)
    m = parse_module(cycle, "dims 1=2000\n")
    assert m.dims == {"1": 2000, "2": 0}
    assert shapes and (2000, 2000) not in shapes
    # where the path meets no zero vertex the relation is still checked
    with pytest.raises(ModuleError):
        parse_module(cycle, "dims 1=1 2=1\nmat a = [[1]]\nmat b = [[1]]\n")


def test_projective_at_two_is_the_interval():
    assert P2.dims == {"1": 1, "2": 1}
    assert P2.mats["a"] == Matrix.identity(A2.field, 1)


def test_projective_at_one_is_simple():
    assert projective(A2, "1").dims == S1.dims


def test_simple_dims_are_indicators():
    assert S1.dims == {"1": 1, "2": 0}


def test_injectives_via_duality():
    # I_1 is the interval with socle S_1; I_2 is the simple at the sink
    i1 = injective(A2, "1")
    assert i1.dims == {"1": 1, "2": 1}
    assert socle_submodule(i1)[0].dims == S1.dims
    assert injective(A2, "2").dims == {"1": 0, "2": 1}


def test_hom_dims_on_the_a2_fixture():
    assert hom_dim(P2, P2) == oracle_hom(P2, P2) == 1
    assert hom_dim(S1, P2) == oracle_hom(S1, P2) == 1
    assert hom_dim(S2, P2) == oracle_hom(S2, P2) == 0
    assert hom_dim(P2, S2) == oracle_hom(P2, S2) == 1
    assert hom_dim(P2, Module.zero(A2)) == 0


def test_hom_bases_are_natural():
    for m in (S1, S2, P2):
        for n in (S1, S2, P2):
            for f in hom_space(m, n).maps:
                assert f.is_natural()


def test_hom_base_mismatch_raises():
    with pytest.raises(ModuleError):
        hom_space(S1, simple(A3, "1"))


def test_map_factor_identity():
    fac = map_factor(ModMap.identity(P2))
    assert fac.kernel.is_zero() and fac.cokernel.is_zero()
    assert fac.image.dims == P2.dims


def test_map_factor_epi_has_simple_kernel():
    g = hom_space(P2, S2).maps[0]
    fac = map_factor(g)
    assert fac.kernel.dims == S1.dims
    assert fac.cokernel.is_zero()
    assert fac.image.dims == S2.dims


def test_map_factor_zero_map():
    fac = map_factor(ModMap.zero(P2, S2))
    assert fac.kernel.dims == P2.dims and fac.cokernel.dims == S2.dims


def test_map_factor_rank_nullity_per_vertex():
    rng = random.Random(1)
    for f in hom_space(P2, P2).maps + hom_space(S1, P2).maps:
        fac = map_factor(f)
        for v in A2.vertices:
            assert fac.kernel.dims[v] + fac.image.dims[v] == f.source.dims[v]
            assert fac.image.dims[v] + fac.cokernel.dims[v] == f.target.dims[v]


def test_decompose_two_distinct_summands():
    m, _, _ = direct_sum([P2, S1])
    dec = decompose(m)
    assert sorted(x.total_dim for x, _ in dec.summands()) == [1, 2]
    assert all(c == 1 for _, c in dec.summands())


def test_decompose_multiplicity_two():
    m, _, _ = direct_sum([S1, S1])
    dec = decompose(m)
    assert len(dec.classes) == 1 and dec.summands()[0][1] == 2


def test_decompose_indecomposable_is_itself():
    dec = decompose(P2)
    assert dec.is_indecomposable


def test_decompose_witnesses_are_mutually_inverse():
    m, _, _ = direct_sum([P2, S1, S2])
    dec = decompose(m)
    total = None
    for piece in dec.pieces:
        assert (piece.project @ piece.include) == ModMap.identity(piece.module)
        term = piece.include @ piece.project
        total = term if total is None else total + term
    assert total == ModMap.identity(m)


def test_a_split_on_a_non_natural_map_is_refused():
    # the arrow sends M(2) onto M(1), so the kernel of a map that kills
    # M(2) and not M(1) is not a submodule
    m = Module(A2, {"1": 1, "2": 1}, {"a": Matrix(A2.field, [[1]])})
    psi = ModMap(m, m, {"1": Matrix(A2.field, [[1]]), "2": Matrix(A2.field, [[0]])}, check=False)
    assert not psi.is_natural()
    whole = DecompPiece(m, ModMap.identity(m), ModMap.identity(m))
    with pytest.raises(ModuleError, match="not closed"):
        fovea.modules._fitting_split(whole, psi)


def test_negative_power_of_a_module_map_is_an_error():
    phi = ModMap.identity(direct_sum([P2, S1])[0])
    assert phi.power(0) == phi
    with pytest.raises(ModuleError, match="negative"):
        phi.power(-1)


def test_is_indecomposable_examples():
    assert is_indecomposable(S1)
    assert not is_indecomposable(direct_sum([S1, S2])[0])
    assert is_indecomposable(P2)
    with pytest.raises(ModuleError):
        is_indecomposable(Module.zero(A2))


def test_local_endomorphism_algebra_of_dimension_two():
    reg = Module(LOOP, {"v": 2}, {"a": Matrix(LOOP.field, [[0, 1], [0, 0]])})
    assert hom_dim(reg, reg) == 2
    assert is_indecomposable(reg)


def test_radical_hom_examples():
    assert radical_hom(P2, P2).dim == 0
    assert radical_hom(S1, P2).dim == 1
    assert radical_hom(S1, S1).dim == 0


def test_radical_hom_agrees_with_decomposition_description():
    # between non-isomorphic indecomposables the radical is everything
    for x in (S1, S2, P2):
        for y in (S1, S2, P2):
            expected = hom_dim(x, y) if x.dims != y.dims else 0
            assert radical_hom(x, y).dim == expected


def test_irr_space_examples():
    ind = [S1, S2, P2]
    assert irr_space(S1, P2, ind).dim == 1
    assert irr_space(P2, S2, ind).dim == 1
    assert irr_space(S1, S2, ind).dim == 0


def test_right_almost_split_at_the_non_projective_simple():
    ind = enumerate_indecomposables(A2).modules
    g = right_almost_split(S2, ind)
    assert g.source.dims == P2.dims
    fac = map_factor(g)
    assert fac.kernel.dims == S1.dims and fac.cokernel.is_zero()


def test_right_almost_split_at_a_projective_is_the_radical():
    ind = enumerate_indecomposables(A2).modules
    g = right_almost_split(P2, ind)
    assert g.source.dims == S1.dims


def test_right_almost_split_at_a_simple_projective_is_zero():
    ind = enumerate_indecomposables(A2).modules
    g = right_almost_split(S1, ind)
    assert g.source.is_zero()


def test_a2_almost_split_sequence_is_exact():
    ind = enumerate_indecomposables(A2).modules
    g = right_almost_split(S2, ind)
    fac = map_factor(g)
    # 0 -> S1 -> P2 -> S2 -> 0
    assert fac.kernel.dims == S1.dims
    assert fac.image.dims == S2.dims
    assert fac.cokernel.is_zero()
    assert not g.is_zero()


@pytest.mark.parametrize("bq", [A2, A3])
def test_factorization_postcondition_over_complete_lists(bq):
    enum = enumerate_indecomposables(bq)
    assert enum.complete
    for n in enum.modules:
        g = right_almost_split(n, enum.modules, check=True)
        assert verify_right_almost_split(g, n, enum.modules) == []


def test_verifier_rejects_a_wrong_candidate():
    ind = enumerate_indecomposables(A2).modules
    bad = ModMap.zero(Module.zero(A2), S2)
    failures = verify_right_almost_split(bad, S2, ind)
    assert failures  # the map from P2 cannot factor through the zero module


def _split_sequence(seq, n):
    middle, incls, projs = direct_sum([seq.tau, n])
    return AlmostSplitSequence(seq.tau, middle, incls[0], projs[1])


def _doubled_middle(seq, n):
    middle, incls, projs = direct_sum([seq.middle, seq.middle])
    return AlmostSplitSequence(seq.tau, middle, incls[0] @ seq.f, seq.g @ projs[0])


@pytest.mark.parametrize("bq,wrong", [
    pytest.param(A3, _split_sequence, id="a3"),
    pytest.param(LOOP, _split_sequence, id="loop"),
    pytest.param(D4, _split_sequence, id="d4"),
    pytest.param(A3, _doubled_middle, id="a3-doubled"),
    pytest.param(LOOP, _doubled_middle, id="loop-doubled"),
    pytest.param(D4, _doubled_middle, id="d4-doubled"),
])
def test_enumeration_refuses_split_sequences(monkeypatch, bq, wrong):
    """The final check reads hom dimensions only; it must still refuse a
    knitting whose sequences split, here 0 -> tau N -> tau N + N -> N -> 0,
    or whose middle terms hold each summand twice (the same summands, so
    only their multiplicities tell).  A3 and LOOP are Nakayama and take
    the light closure, so the full one is forced on them; D4 takes it."""
    almost_split_sequence = fovea.modules.almost_split_sequence

    def replaced(n, *args, **kwargs):
        return wrong(almost_split_sequence(n, *args, **kwargs), n)

    monkeypatch.setattr(fovea.modules, "almost_split_sequence", replaced)
    if fovea.modules._is_nakayama(bq):
        monkeypatch.setattr(fovea.modules, "_is_nakayama", lambda bq: False)
    enum = enumerate_indecomposables(bq)
    assert not enum.complete
    assert len(enum.notes) == 1 and enum.notes[0].startswith("verification failed")


@pytest.mark.parametrize("wrong,message,almost_split", [
    pytest.param(_split_sequence, "the map is a split epimorphism", False, id="split"),
    pytest.param(_doubled_middle, "does not factor", True, id="doubled"),
])
def test_right_almost_split_refuses_a_wrong_sequence(monkeypatch, wrong, message, almost_split):
    """The certificate of right_almost_split(check=True) reads hom
    dimensions only; it must refuse the same wrong sequences as the
    enumeration's final check.  The map-level reference refuses the split
    one; the doubled middle term still gives an almost split map, only not
    a minimal one, and the reference accepts it."""
    enum = enumerate_indecomposables(D4)
    exceptional = next(m for m in enum.modules if m.total_dim == 5)
    right_almost_split(exceptional, enum.modules)
    almost_split_sequence = fovea.modules.almost_split_sequence

    def replaced(n, *args, **kwargs):
        return wrong(almost_split_sequence(n, *args, **kwargs), n)

    monkeypatch.setattr(fovea.modules, "almost_split_sequence", replaced)
    g = right_almost_split(exceptional, enum.modules, check=False)
    assert (verify_right_almost_split(g, exceptional, enum.modules) == []) == almost_split
    with pytest.raises(fovea.modules.AlmostSplitError, match=message):
        right_almost_split(exceptional, enum.modules)


LOOP3 = parse_quiver("field gf 32749\nnilbound 3\nvertex v\narrow a: v -> v\nrelation a*a*a\n")
A4 = parse_quiver("field gf 32749\nnilbound 4\nvertex 1 2 3 4\n"
                  "arrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 4\n")


@pytest.mark.parametrize("bq", [LOOP3, A4], ids=["loop3", "a4"])
def test_a_light_list_short_of_dim_a_classes_is_not_complete(monkeypatch, bq):
    """Over a Nakayama algebra every indecomposable is a radical power of
    an injective and a socle quotient power of a projective, so the light
    closure drops a class only when both steps skip it; the count dim A
    then certifies the list as incomplete."""
    enum = enumerate_indecomposables(bq)
    assert enum.complete and len(enum.modules) == path_basis(bq).total_dim
    # a class the closure reaches only as a radical or a socle quotient
    standard = [make(bq, v) for make in (simple, injective) for v in bq.vertices]
    standard += [projective(bq, v) for v in bq.vertices]
    dropped = next(m for m in enum.modules
                   if not any(is_isomorphic(m, s) for s in standard))

    def skipping(step):
        def patched(m):
            sub, proj = step(m)
            return (Module.zero(bq), None) if is_isomorphic(sub, dropped) else (sub, proj)
        return patched

    monkeypatch.setattr(fovea.modules, "socle_quotient", skipping(fovea.modules.socle_quotient))
    monkeypatch.setattr(fovea.modules, "radical_submodule",
                        skipping(fovea.modules.radical_submodule))
    short = enumerate_indecomposables(bq)
    assert len(short.modules) == len(enum.modules) - 1
    assert not short.complete
    assert short.notes == [f"light closure lists {len(short.modules)} classes, "
                           f"not dim A = {len(enum.modules)}"]


def test_left_almost_split_duality():
    ind = enumerate_indecomposables(A2).modules
    f = left_almost_split(S1, ind)
    assert f.target.dims == P2.dims  # 0 -> S1 -> P2 -> S2 -> 0 from the left


def test_enumerate_a2():
    enum = enumerate_indecomposables(A2)
    assert enum.complete and len(enum.modules) == 3


def test_enumerate_loop():
    enum = enumerate_indecomposables(LOOP)
    assert enum.complete
    assert sorted(m.total_dim for m in enum.modules) == [1, 2]


def test_enumerate_kronecker_hits_caps():
    enum = enumerate_indecomposables(KRONECKER, dim_cap=2, count_cap=24)
    assert not enum.complete
    # the notes and the list at a cap are part of the answer: a repeated
    # candidate must be skipped without adding or losing either
    assert enum.notes == ["dimension cap 2 hit"]
    assert enum.labels() == ["X0[0,1]", "X1[1,0]"]
    enum = enumerate_indecomposables(KRONECKER, dim_cap=6, count_cap=5)
    assert not enum.complete
    assert enum.notes == ["count cap 5 hit"]
    assert enum.labels() == ["X0[0,1]", "X1[1,0]", "X2[1,2]", "X3[2,1]", "X4[3,2]"]


# k[x,y]/(x^2, y^2): the trivial extension of k[x]/(x^2), and the base of
# its repetitive cover; representation-infinite (its rad^2 = 0 quotient is
# of Kronecker type)
KXY = parse_quiver("field gf 32749\nnilbound 3\nvertex v\narrow x: v -> v\n"
                   "arrow y: v -> v\nrelation x*x\nrelation y*y\nrelation x*y - y*x\n")


def test_a_representation_infinite_local_algebra_is_not_certified_finite():
    """The rad^2 closure stopped here with 6 modules (dimensions 1 to 4)
    and marked the list complete, so kg0 called the algebra finite; the
    syzygies of k have dimensions 1, 3, 5, ... and knitting keeps going."""
    enum = enumerate_indecomposables(KXY, dim_cap=6, count_cap=24)
    assert not enum.complete and enum.notes == ["dimension cap 6 hit"]
    assert sorted(m.total_dim for m in enum.modules) == [1, 3, 3, 4, 5, 5]
    assert all(is_indecomposable(m) for m in enum.modules)


def test_enumeration_over_the_rationals_on_a_local_algebra_is_quick():
    # the trace pairings of decompose multiplied every pair of entries as
    # Fractions, zeros included: about 3.8 s in-process
    code = ("from fovea.quiver import parse_quiver\n"
            "from fovea.modules import enumerate_indecomposables\n"
            "bq = parse_quiver('field q\\nnilbound 2\\nvertex v\\n"
            "arrow x: v -> v\\narrow y: v -> v\\n')\n"
            "enum = enumerate_indecomposables(bq, dim_cap=8, count_cap=24)\n"
            "print(len(enum.modules), enum.notes)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd="src", timeout=3)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "7 ['dimension cap 8 hit']\n"


def test_knitting_lists_every_indecomposable_of_a_repetitive_window():
    """The layers [0, 3] of the repetitive cover of k[x]/(x^2): the rad^2
    closure marked a list of 20 modules complete; there are 35."""
    from fovea.naming import load_quiver
    from fovea.quiver import Window, lift_window
    from fovea.repetitive import repetitive_voltage
    from fovea.modules import is_isomorphic_indec
    bq = lift_window(repetitive_voltage(load_quiver("loop2.bq")[2]), Window(0, 3))
    enum = enumerate_indecomposables(bq, dim_cap=12, count_cap=40)
    assert enum.complete and len(enum.modules) == 35
    mods = enum.modules
    assert max(m.total_dim for m in mods) == 8
    assert not any(x.dims == y.dims and is_isomorphic_indec(x, y)
                   for i, x in enumerate(mods) for y in mods[:i])


@pytest.mark.parametrize("n,count", [(2, 3), (3, 6), (4, 10)])
def test_line_quivers_have_triangular_counts(n, count):
    lines = [f"field gf 32749", f"nilbound {n}",
             "vertex " + " ".join(str(i) for i in range(1, n + 1))]
    for i in range(1, n):
        lines.append(f"arrow a{i}: {i} -> {i + 1}")
    bq = parse_quiver("\n".join(lines) + "\n")
    enum = enumerate_indecomposables(bq)
    assert enum.complete and len(enum.modules) == count


def test_hom_additivity_over_decompositions():
    m, _, _ = direct_sum([P2, S1])
    n, _, _ = direct_sum([S2, P2])
    total = hom_dim(m, n)
    parts = sum(hom_dim(x, y)
                for x in (P2, S1) for y in (S2, P2))
    assert total == parts


def test_is_isomorphic_full_modules():
    m1, _, _ = direct_sum([P2, S1])
    m2, _, _ = direct_sum([S1, P2])
    assert is_isomorphic(m1, m2)
    assert not is_isomorphic(m1, direct_sum([P2, S2])[0])


def test_dual_module_is_a_module_over_the_opposite():
    d = dual_module(P2)
    assert d.total_dim == P2.total_dim
    dd = dual_module(d)
    assert dd == P2


def test_socle_of_the_interval():
    soc, incl = socle_submodule(P2)
    assert soc.dims == S1.dims
    assert incl.is_natural()


def test_module_file_round_trip_is_bit_exact():
    text = format_module(P2)
    again = parse_module(A2, text)
    assert format_module(again) == text
    assert again == P2


def test_module_file_rejects_unknown_names():
    with pytest.raises(ModuleError):
        parse_module(A2, "dims 1=1 9=0\n")
    with pytest.raises(ModuleError):
        parse_module(A2, "dims 1=1 2=1\nmat zz = [[1]]\n")


@pytest.mark.parametrize("text,lineno,message", [
    ("dims 1=1 2=1\nmat a = [[1/0]]\n", 2, "zero denominator in '1/0'"),
    ("dims 1=1 2=1\nmat a = [[1/32749]]\n", 2, "denominator of 1/32749 vanishes mod 32749"),
    ("dims 1=1 2=1\n\nmat a = [[two]]\n", 3, "not a number: 'two'"),
    ("dims 1=-1\n", 1, "bad dimension '1=-1'"),
    ("dims 1\n", 1, "bad dimension '1'"),
    ("dims 1=\u0661\n", 1, "bad dimension '1=\u0661'"),
    ("dims 1=1 2=1\nmat a = [[1_0]]\n", 2, "not a number: '1_0'"),
    ("dims 1=1 2=1\nmat a = [[1],[2]]\n", 2, "matrix for a has shape (2, 1), expected (1, 1)"),
    ("dims 1=1 2=1\nmat a = [[1]]\ncols 2\n", 3, "unknown directive 'cols'"),
])
def test_module_file_errors_name_their_line(text, lineno, message):
    with pytest.raises(ModuleParseError) as info:
        parse_module(A2, text)
    assert info.value.lineno == lineno
    assert str(info.value) == f"line {lineno}: {message}"
    assert isinstance(info.value, ModuleError)


def test_decomposition_witnesses_invert_each_other():
    m, _, _ = direct_sum([P2, S1, S1])
    dec = decompose(m)
    total, to_sum, from_sum = dec.witnesses()
    assert (to_sum @ from_sum) == ModMap.identity(total)
    assert (from_sum @ to_sum) == ModMap.identity(m)


def test_decompose_recovers_multiplicities_after_a_change_of_basis():
    from fovea.linalg import Matrix, inverse
    rng = random.Random(29)
    f = A3.field
    pieces = [projective(A3, "3"), projective(A3, "2"),
              simple(A3, "2"), simple(A3, "2")]
    m, _, _ = direct_sum(pieces)
    # conjugate by a random invertible change of basis at every vertex
    change = {}
    for v in A3.vertices:
        d = m.dims[v]
        while True:
            cand = Matrix(f, [[f.sample(rng) for _ in range(d)] for _ in range(d)])
            if inverse(cand) is not None:
                change[v] = cand
                break
    mats = {}
    for a in A3.arrows:
        mats[a.name] = change[a.source] @ m.mats[a.name] @ inverse(change[a.target])
    scrambled = Module(A3, dict(m.dims), mats)
    dec = decompose(scrambled)
    got = sorted((x.total_dim, c) for x, c in dec.summands())
    assert got == [(1, 2), (2, 1), (3, 1)]


def test_irreducible_spaces_dualize():
    enum = enumerate_indecomposables(A3)
    duals = [dual_module(x) for x in enum.modules]
    for i, x in enumerate(enum.modules):
        for j, y in enumerate(enum.modules):
            up = irr_space(x, y, enum.modules).dim
            down = irr_space(duals[j], duals[i], duals).dim
            assert up == down
