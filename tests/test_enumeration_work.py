"""Operation-count gates on the enumeration and repetitive layers.

These count work instead of timing it, so they give the same answer on
every run: the full closure knits almost split sequences built from each
module alone, with no rad^2 search left in the package, each sequence built once from one of
its ends and certified by hom dimensions between listed modules; an
enumeration decomposes each candidate once; no call enumerates a quiver
twice, whatever the closure; the repetitive suite builds its repetitive
category once and each path basis once, checks its windows against the
truncations' presentations without a path basis of their own, extracts
only layer zero and the normal forms, exports T_1 and T_2 as the windows
-1..1 and -2..2 of its one voltage quiver, and builds for that quiver
only layers 0 and 1, where every product from layer 0 lands; kg0 and the
simple-functor verbs enumerate no base whose separated quiver is not
Dynkin, nor one that is the path algebra of a non-Dynkin quiver;
the radical filtration spans only the blocks where a product can land; a
path basis spans only the vertex pairs that hold a relation vector; a hom
space builds its maps only when they are read; a repeated pair of
modules runs one elimination; a decomposition reads
locality and its skip test off the trace form and builds the radical of
End(P) only for the residue-field fallback; a Fitting split tries the power of phi before factoring
and stops factoring at the first divisor that splits; a decomposition
builds only the endomorphisms it tries, raises each vertex to its own
dimension and reads both pieces of a split off one change of basis; a
kernel takes one elimination; a hom space takes no dense elimination;
a decomposition builds no End of a thin piece whose nonzero arrows
connect it and composes no witness that nobody reads; an enumeration
builds each hom space once; an isomorphism test reads one trace
pairing; a locally Nakayama cover's orbit list enumerates nothing, an
infinite cover's is refused before enumerating, and any other enumerates
its base and one window on the covers tested, the first window wide
enough for a lift of every arrow; a
layered module is pushed down once; a layered module or map builds each
nonzero twist once per shift, and a layered map is pushed down once; an evaluation builds no Hom(X, M)
where Hom(X, N) is zero, reads no hom basis, and on the covering side
aligns nothing where the supports of X and N are disjoint; a dimension of
functor maps builds no map of functors and no lift; a path basis reads every pair with relation
vectors off a sparse echelon form, with no dense elimination; a hom
dimension reads no canonical basis; window lifts of one width are
shifts of one template, checked by BoundQuiver once; the cover suites
build each quiver's path basis at most once, and on a cover of arrow degree
100 kg0 keys each path basis on at most twice its vertex count in pairs;
kg0, pushdown,
phi-identities and phi enumerate a cover's base once, at any seed; every enumeration
on a graded input runs at the cover caps and every one on an algebra
input at the cap flags; length on the Kronecker algebra and phi on an
infinite cover enumerate nothing; and an enumeration complete at smaller
caps is the same list at the cover caps.
"""

import hashlib
import inspect
import json
import random
import sys
from pathlib import Path

import pytest

import fovea.covering
import fovea.functors
import fovea.linalg
import fovea.modules
import fovea.quiver
import fovea.repetitive
import fovea.suites
from fovea.cli import main
from fovea.covering import (
    CoveringError,
    LayeredModMap,
    LayeredModule,
    layered_hom_dim,
    layered_injective,
    push_down,
)
from fovea.functors import default_battery
from fovea.linalg import Matrix, Subspace, inverse
from fovea.modules import (
    ModMap,
    Module,
    decompose,
    direct_sum,
    enumerate_indecomposables,
    hom_dim,
    hom_space,
    injective,
    parse_module,
    projective,
    simple,
    _enumerate_unless_infinite,
    _infinite_reason,
)
from fovea.naming import fixture_names, load_quiver
from fovea.quiver import (
    PathBasis,
    VoltageQuiver,
    Window,
    lift_window,
    parse_quiver,
    radical_filtration,
)
from fovea.repetitive import RepetitiveTruncation
from fovea.suites import run_suite
from test_quiver import dense_path_basis
from test_covering import D4_COVER_TEXT, DEGREE_10_D4_TEXT, reference_orbit_enumeration
from test_report_digests import (
    KG0_DIGESTS,
    REP_A3_PRIME_TEXT,
    REP_KD4_TEXT,
    _run_suite_on_text,
    _workloads,
)
from test_repetitive import dense_radical_filtration

D4 = parse_quiver(
    "field gf 32749\nnilbound 2\nvertex 0 1 2 3\n"
    "arrow a: 1 -> 0\narrow b: 2 -> 0\narrow c: 3 -> 0\n")
NAKAYAMA = parse_quiver(
    "field gf 32749\nnilbound 2\nvertex 1 2\narrow a: 1 -> 2\narrow b: 2 -> 1\n"
    "relation a*b\nrelation b*a\n")


def _nakayama2_window():
    _, _, vq = load_quiver("nakayama2.vq")
    return lift_window(vq, Window(-2, 2))


@pytest.mark.parametrize("make_bq", [lambda: NAKAYAMA, lambda: D4, _nakayama2_window],
                         ids=["nakayama", "d4", "nakayama2-window"])
def test_enumeration_decomposes_each_candidate_once(monkeypatch, make_bq):
    bq = make_bq()
    seen = []
    decompose = fovea.modules.decompose

    def recording(m, *args, **kwargs):
        seen.append(m)
        return decompose(m, *args, **kwargs)

    monkeypatch.setattr(fovea.modules, "decompose", recording)
    enum = enumerate_indecomposables(bq, dim_cap=64, count_cap=128)
    assert enum.complete and seen
    assert len(set(seen)) == len(seen)


# kg0 inputs of the algebra-suites workload: a fixture and the two
# generated algebras whose enumerations cost the most
STAR5 = ("field gf 32749\nnilbound 3\nvertex 1 2 3 4 5\n"
         "arrow a: 2 -> 1\narrow b: 3 -> 1\narrow c: 4 -> 1\narrow d: 1 -> 5\nrelation a*d\n")
TREE5 = ("field gf 32749\nnilbound 3\nvertex 1 2 3 4 5\n"
         "arrow a: 1 -> 2\narrow b: 1 -> 3\narrow c: 4 -> 2\narrow d: 2 -> 5\n")


# the rad^2 search, the map-level almost split certificate and the duals
# they needed; tests/almost_split_reference.py keeps them as cross-checks
RETIRED = ("irr_space", "IrrSpace", "verify_right_almost_split", "_factors_through",
           "left_almost_split", "dual_map")

# almost split sequences built while the final check rebuilt the incoming
# ones: 12, 22 and 22
SEQUENCE_BOUNDS = {"kronecker.bq": 9, "gen-star5-d11-v7.bq": 15, "gen-tree5-d11-v6.bq": 15}


# hom_space calls before knitting: 805, 998 and 1118; while the final
# check built Hom(X, E) on every middle term: 168, 586 and 617; while
# decompose, the isomorphism tests and the sequences each built their own
# (80, 51 and 59 of 168, 465 and 499 repeating a pair) and End of every
# thin piece: 168, 465 and 499; 88, 402 and 430 when recorded
HOM_BOUNDS = {"kronecker.bq": 88, "gen-star5-d11-v7.bq": 402, "gen-tree5-d11-v6.bq": 430}


@pytest.mark.parametrize("name,text", [
    ("kronecker.bq", None),
    ("gen-star5-d11-v7.bq", STAR5),
    ("gen-tree5-d11-v6.bq", TREE5),
])
def test_kg0_knits_local_almost_split_sequences(monkeypatch, tmp_path, name, text):
    sequence_bound, hom_bound = SEQUENCE_BOUNDS[name], HOM_BOUNDS[name]
    pairs = []
    sequences = []
    hom_space_ = fovea.modules.hom_space

    def counting(m, n):
        pairs.append((m, n))
        return hom_space_(m, n)

    monkeypatch.setattr(fovea.modules, "hom_space", counting)
    almost_split_sequence = fovea.modules.almost_split_sequence

    def recording(n, *args, **kwargs):
        seq = almost_split_sequence(n, *args, **kwargs)
        sequences.append((n, seq))
        return seq

    monkeypatch.setattr(fovea.modules, "almost_split_sequence", recording)
    if name == "kronecker.bq":
        # kg0 reads the Kronecker algebra's infinite type off its separated
        # quiver and enumerates nothing, so knit at kg0's caps directly
        enum = enumerate_indecomposables(load_quiver(name)[2], dim_cap=12, count_cap=24)
        assert not enum.complete
    else:
        (tmp_path / name).write_text(text)
        name = str(tmp_path / name)
        assert run_suite("kg0", name).ok
    # no rad^2 search and no map-level certificate is left to call
    assert not [name for name in RETIRED if hasattr(fovea.modules, name)]
    assert not hasattr(fovea.modules.PairCache, "radical")
    assert "cache" not in inspect.signature(fovea.modules.right_almost_split).parameters
    assert 0 < len(pairs) <= hom_bound
    # the enumeration's one PairCache builds each hom space once
    assert len(set(pairs)) == len(pairs)
    # a sequence ending at N is built over the quiver, one starting at N
    # from D N over the opposite quiver, so equal arguments mean a repeat
    ends = [n for n, _seq in sequences]
    assert ends and len(set(ends)) == len(ends)
    assert len(sequences) <= sequence_bound
    # and no sequence is built from both ends: over the opposite quiver,
    # the dual of tau N for a sequence built at N is never the argument D M
    # of a sequence built from its start M
    base = load_quiver(name)[2]
    starts = [fovea.modules.dual_module(seq.tau) for n, seq in sequences if n.bq == base]
    duals = [n for n, _seq in sequences if n.bq != base]
    assert starts and duals
    assert not any(s.dims == d.dims and fovea.modules.is_isomorphic_indec(s, d)
                   for s in starts for d in duals)


def _record(monkeypatch, module, name) -> list:
    """Record (args, result) of every call of module.name made through any
    fovea binding of it, so that no caller escapes the count."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("fovea") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, recording)
    return calls


def _record_enumerations(monkeypatch) -> list:
    calls = []
    enumerate_ = fovea.modules.enumerate_indecomposables

    def recording(bq, *args, **kwargs):
        calls.append(bq)
        return enumerate_(bq, *args, **kwargs)

    # every fovea binding of the function, so that no closure escapes the count
    for name, module in list(sys.modules.items()):
        if name.startswith("fovea") and getattr(module, "enumerate_indecomposables", None) is enumerate_:
            monkeypatch.setattr(module, "enumerate_indecomposables", recording)
    assert fovea.covering.enumerate_indecomposables is recording
    return calls


KG0_ENUMERATIONS = {"kronecker.bq": 0, "kronecker-cover.vq": 0, "rep-kronecker.vq": 0,
                    "rep-loop2.vq": 0, "a2.bq": 1, "a3.bq": 1, "loop2.bq": 1, "point.bq": 1}


@pytest.mark.parametrize("name", KG0_ENUMERATIONS)
def test_kg0_enumerates_only_a_base_with_a_dynkin_separated_quiver(monkeypatch, tmp_path, name):
    """A base whose separated quiver is not Dynkin is representation-infinite,
    so kg0 calls it undecidable without enumerating; any other base is
    enumerated once."""
    calls = _record(monkeypatch, fovea.modules, "enumerate_indecomposables")
    if name in KG0_DIGESTS:
        (tmp_path / name).write_text(KG0_DIGESTS[name][0])
        name = str(tmp_path / name)
    report = run_suite("kg0", name)
    assert report.ok
    assert len(calls) == KG0_ENUMERATIONS[Path(name).name]
    assert all(enum.complete for _args, enum in calls)


# the cover 1 -> 2 -> 3 -> 4, 1 -> 4 of degree 1: its base is the path
# algebra of the Euclidean square A~3, whose separated quiver is Dynkin
ATILDE3_COVER_TEXT = ("field gf 32749\nnilbound 6\nvertex 1 2 3 4\n"
                      "arrow a: 1 -> 2 deg 0\narrow b: 2 -> 3 deg 0\n"
                      "arrow c: 3 -> 4 deg 0\narrow d: 1 -> 4 deg 1\n")
# (exit code, report sha256, standard error); kg0's report is the one it
# gave after enumerating the base to its count cap
ATILDE3_SUITES = {
    "kg0": (0, "d361b87ddfdf142d3dabe426f604ef2cdb3ef0532c1dc29f54fe5c09ec596d12", ""),
    **{suite: (1, hashlib.sha256(b"").hexdigest(),
               "fovea: the base's algebra is the path algebra of a non-Dynkin quiver, so the "
               "cover has infinitely many orbits: no window list reaches Gabriel's count\n")
       for suite in ("pushdown", "phi-identities")},
}


@pytest.mark.parametrize("suite", sorted(ATILDE3_SUITES))
def test_a_euclidean_path_algebra_base_is_refused_before_enumerating(
        monkeypatch, tmp_path, suite):
    """KQ for a Euclidean Q is representation-infinite (Gabriel), so kg0
    calls it undecidable and the orbit list is refused, with no
    enumeration, where the count cap used to stop one after seconds."""
    calls = _record(monkeypatch, fovea.modules, "enumerate_indecomposables")
    got = _run_suite_on_text(monkeypatch, tmp_path, suite, "atilde3.vq", ATILDE3_COVER_TEXT)
    assert got == ATILDE3_SUITES[suite]
    assert calls == []


@pytest.mark.parametrize("argv", [["simple", "kronecker.bq", "--at", "S1"],
                                  ["eval", "kronecker.bq", "--functor", "S@S1", "--at", "S1"]],
                         ids=["simple", "eval"])
def test_a_simple_functor_on_a_representation_infinite_algebra_enumerates_nothing(
        monkeypatch, capsys, argv):
    calls = _record(monkeypatch, fovea.modules, "enumerate_indecomposables")
    assert main(argv) == 1
    assert capsys.readouterr().err == \
        "fovea: a simple functor's profile is undecidable from an incomplete list\n"
    assert calls == []


@pytest.mark.parametrize("functor", ["H@S1", "S@S1"])
def test_length_on_a_representation_infinite_algebra_enumerates_nothing(
        monkeypatch, capsys, functor):
    calls = _record(monkeypatch, fovea.modules, "enumerate_indecomposables")
    assert main(["length", "kronecker.bq", "--functor", functor]) == 1
    assert capsys.readouterr().err == \
        "fovea: finite length is undecidable from an incomplete list\n"
    assert calls == []


@pytest.mark.parametrize("name", sorted(KG0_DIGESTS))
def test_phi_on_an_infinite_cover_enumerates_nothing(monkeypatch, capsys, tmp_path, name):
    """The base's list is empty and incomplete, and phi prints it so."""
    calls = _record(monkeypatch, fovea.modules, "enumerate_indecomposables")
    cover = tmp_path / name
    cover.write_text(KG0_DIGESTS[name][0])
    vertex = parse_quiver(KG0_DIGESTS[name][0]).base.vertices[0]
    assert main(["phi", str(cover), "--functor", f"H@S@{vertex}@0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"complete": False, "profile": {}}
    assert calls == []


def _record_caps(monkeypatch) -> list:
    """(quiver, dim_cap, count_cap) of every enumeration made through any
    fovea binding of enumerate_indecomposables, as `_record` counts them."""
    caps = []
    original = fovea.modules.enumerate_indecomposables
    signature = inspect.signature(original)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        caps.append(tuple(bound.arguments[k] for k in ("bq", "dim_cap", "count_cap")))
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("fovea") and getattr(mod, original.__name__, None) is original:
            monkeypatch.setattr(mod, original.__name__, recording)
    return caps


# the covers whose orbit lists are certified by Gabriel's count
WINDOW_COVERS = {"d4.vq": D4_COVER_TEXT, "rep-a3p.vq": REP_A3_PRIME_TEXT,
                 "rep-kd4.vq": REP_KD4_TEXT, "d4-deg10.vq": DEGREE_10_D4_TEXT}
# every graded input that is not a packaged fixture, by file name
PINNED_COVERS = {**WINDOW_COVERS, **{name: text for name, (text, *_) in KG0_DIGESTS.items()}}
COVER_CAPS = (fovea.covering.COVER_DIM_CAP, fovea.covering.COVER_COUNT_CAP)


def _input(tmp_path, name) -> tuple[str, object]:
    """(argument, parsed quiver) of a packaged fixture or a pinned cover."""
    if name not in PINNED_COVERS:
        return name, load_quiver(name)[2]
    (tmp_path / name).write_text(PINNED_COVERS[name])
    return str(tmp_path / name), parse_quiver(PINNED_COVERS[name])


@pytest.mark.parametrize("verb", [["suite", "kg0"], ["suite", "pushdown"],
                                  ["suite", "phi-identities"], ["phi"]],
                         ids=["kg0", "pushdown", "phi-identities", "phi"])
@pytest.mark.parametrize("name", sorted(WINDOW_COVERS))
@pytest.mark.parametrize("seed", [[], ["--seed", "1"]], ids=["default-seed", "seed-1"])
def test_a_cover_verb_enumerates_its_base_once(monkeypatch, capsys, tmp_path, name, verb, seed):
    """The orbit count, kg0, pushdown and phi read the base's one list
    (`base_enumeration`), so each verb enumerates the base once, at the
    cover caps and at any seed; kg0 and pushdown used to enumerate it again
    at other caps."""
    caps = _record_caps(monkeypatch)
    path, vq = _input(tmp_path, name)
    functor = ["--functor", f"H@S@{vq.base.vertices[0]}@0"] if verb == ["phi"] else []
    assert main([*verb, path, *functor, *seed]) == 0
    capsys.readouterr()
    assert [c for c in caps if c[0] == vq.base] == [(vq.base, *COVER_CAPS)]


FLAG_CAPS = (20, 30)


def _verbs(q, graded: bool) -> list[tuple[list[str], list[str]]]:
    """(verb, options) of every verb that can enumerate on q."""
    at = f"S@{q.base.vertices[0]}@0" if graded else f"S@{q.vertices[0]}"
    verbs = [(["eval"], ["--functor", f"S@{at}", "--at", at]),
             (["length"], ["--functor", f"S@{at}"]),
             (["hom"], ["--from", at, "--to", at]),
             (["suite", "kg0"], [])]
    if graded:
        return verbs + [(["phi"], ["--functor", f"H@{at}"]), (["pushdown"], ["--module", at]),
                        (["suite", "pushdown"], []), (["suite", "phi-identities"], []),
                        (["suite", "cover-axioms"], [])]
    return verbs + [(["simple"], ["--at", at]), (["suite", "repetitive"], [])]


@pytest.mark.parametrize("name", sorted(fixture_names()) + sorted(PINNED_COVERS))
def test_every_enumeration_runs_at_the_caps_of_its_input(monkeypatch, capsys, tmp_path, name):
    """The cap flags bound the enumerations of an algebra input, and
    nothing on a graded input, whose base and windows are enumerated at
    the cover caps."""
    path, q = _input(tmp_path, name)
    graded = isinstance(q, VoltageQuiver)
    flags = ["--dim-cap", str(FLAG_CAPS[0]), "--count-cap", str(FLAG_CAPS[1])]
    caps = _record_caps(monkeypatch)
    seen = 0
    for verb, options in _verbs(q, graded):
        caps.clear()
        assert main([*verb, path, *options, *flags]) != 2, verb
        capsys.readouterr()
        assert {c[1:] for c in caps} <= {COVER_CAPS if graded else FLAG_CAPS}, verb
        seen += len(caps)
    # only an input proved representation-infinite enumerates nothing
    assert bool(seen) == (_infinite_reason(q.base if graded else q) is None)


def _algebras() -> dict:
    """Every packaged algebra and the base of every graded input, by name."""
    out = {}
    for name in fixture_names():
        q = load_quiver(name)[2]
        out[name] = q.base if isinstance(q, VoltageQuiver) else q
    for name, text in PINNED_COVERS.items():
        out[name] = parse_quiver(text).base
    return out


@pytest.mark.parametrize("name", sorted(_algebras()))
def test_a_complete_enumeration_is_the_same_list_at_any_caps(name):
    """Caps only abort a run, so a list complete at the flags' default or
    the library's default caps is, module for module and in order, the
    list at the cover caps: moving a list to the cover caps moves no byte."""
    bq = _algebras()[name]
    full = _enumerate_unless_infinite(bq, *COVER_CAPS)
    for caps in ((12, 24), (40, 80)):
        enum = _enumerate_unless_infinite(bq, *caps)
        if enum.complete:
            assert full.complete and enum.modules == full.modules, caps


def test_battery_enumerates_each_window_once(monkeypatch):
    calls = _record_enumerations(monkeypatch)
    # a Nakayama cover's orbit list enumerates no window, so only the base
    # is enumerated, and the battery needs not even that
    runs = {
        "battery trivial-a2.vq": (lambda: default_battery(load_quiver("trivial-a2.vq")[2]), 0),
        "pushdown nakayama2.vq": (lambda: run_suite("pushdown", "nakayama2.vq"), 1),
        "kg0 nakayama2.vq": (lambda: run_suite("kg0", "nakayama2.vq"), 1),
    }
    for label, (run, count) in runs.items():
        calls.clear()
        run()
        assert len(calls) == count, label
        assert all(not any("@" in v for v in bq.vertices) for bq in calls), label


def _record_windows(monkeypatch) -> list:
    windows = []
    window_enumeration = fovea.covering.window_enumeration

    def recording(vq, window):
        windows.append(window)
        return window_enumeration(vq, window)

    monkeypatch.setattr(fovea.covering, "window_enumeration", recording)
    return windows


@pytest.mark.parametrize("name", ["line-k2.vq", "nakayama2.vq", "trivial-a2.vq", "loop-cover"])
def test_nakayama_orbit_list_enumerates_no_window(monkeypatch, name):
    """A locally Nakayama cover's orbit list is read off its lifted
    projectives: inside orbit_enumeration nothing is enumerated."""
    calls = _record_enumerations(monkeypatch)
    windows = _record_windows(monkeypatch)
    if name == "loop-cover":
        vq = parse_quiver("field gf 32749\nnilbound 3\nvertex v\n"
                          "arrow a: v -> v deg 0\nrelation a*a*a\n")
    else:
        vq = load_quiver(name)[2]
    assert fovea.covering.orbit_enumeration(vq)
    assert calls == [] and windows == []


@pytest.mark.parametrize("name", sorted(KG0_DIGESTS))
def test_an_infinite_cover_orbit_list_enumerates_nothing(monkeypatch, name):
    """The base's separated quiver is not Dynkin, so the cover has
    infinitely many orbits (Gabriel's count): the list is refused before
    any enumeration."""
    calls = _record_enumerations(monkeypatch)
    with pytest.raises(CoveringError, match="separated quiver is not Dynkin"):
        fovea.covering.orbit_enumeration(parse_quiver(KG0_DIGESTS[name][0]))
    assert calls == []


@pytest.mark.parametrize("text", [D4_COVER_TEXT, REP_A3_PRIME_TEXT, REP_KD4_TEXT],
                         ids=["d4", "rep-a3p", "rep-kd4"])
def test_a_window_orbit_list_enumerates_one_window(monkeypatch, text):
    """The first window [0, nilbound] already reaches the base's count, so
    the base and that window are all that orbit_enumeration enumerates."""
    calls = _record_enumerations(monkeypatch)
    windows = _record_windows(monkeypatch)
    vq = parse_quiver(text)
    assert fovea.covering.orbit_enumeration(vq)
    assert windows == [Window(0, vq.base.nilbound)]
    assert calls[0] is vq.base and len(calls) == 2


def test_a_window_orbit_list_starts_at_the_largest_degree(monkeypatch):
    """Windows of the D4 cover with c of degree 10 narrower than [0, 10]
    hold no lift of c and cannot reach the base's 12 classes: [0, 10] is
    the one window enumerated, and its list is the one that windows grown
    from [0, nilbound] reach the count on."""
    windows = _record_windows(monkeypatch)
    reps = fovea.covering.orbit_enumeration(parse_quiver(DEGREE_10_D4_TEXT))
    assert windows == [Window(0, 10)]
    ref = reference_orbit_enumeration(parse_quiver(DEGREE_10_D4_TEXT), count=12)
    assert len(reps) == len(ref) == 12
    for x, y in zip(reps, ref):
        assert x.window == y.window and x.module.dims == y.module.dims
        assert x.module.mats == y.module.mats


def test_repetitive_suite_builds_the_repetitive_category_once(monkeypatch):
    calls = []
    repetitive_voltage = fovea.repetitive.repetitive_voltage

    def recording(bq, *args, **kwargs):
        calls.append(bq)
        return repetitive_voltage(bq, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("fovea") and getattr(module, "repetitive_voltage", None) is repetitive_voltage:
            monkeypatch.setattr(module, "repetitive_voltage", recording)
    assert fovea.suites.repetitive_voltage is recording
    truncations = _record(monkeypatch, fovea.repetitive, "RepetitiveTruncation")
    assert run_suite("repetitive", "a3.bq").ok
    assert len(calls) == 1
    # T_0, T_1 and T_2, and none for the repetitive category itself
    assert sorted(t.n for _args, t in truncations) == [0, 1, 2]


def test_repetitive_suite_extracts_only_layer_zero_and_the_normal_forms(monkeypatch):
    calls = []
    extract_presentation = fovea.quiver.extract_presentation

    def recording(cat, *args, **kwargs):
        calls.append(cat)
        return extract_presentation(cat, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("fovea") and \
                getattr(module, "extract_presentation", None) is extract_presentation:
            monkeypatch.setattr(module, "extract_presentation", recording)
    assert fovea.repetitive.extract_presentation is recording
    assert run_suite("repetitive", "a3.bq").ok
    # T_0 and the normal forms of the base and of the degree-0 window; T_1
    # and T_2 are lifted off the repetitive voltage quiver
    assert len(calls) <= 3


def test_repetitive_suite_exports_the_windows_of_its_voltage_quiver(monkeypatch):
    calls, lows = [], []

    def recording(vq, window):
        calls.append((vq, window))
        return lift_window(vq, window)

    shift_template = fovea.quiver._shift_template

    def shifting(template, lo):
        lows.append(lo)
        return shift_template(template, lo)

    monkeypatch.setattr(fovea.repetitive, "lift_window", recording)
    monkeypatch.setattr(fovea.quiver, "_shift_template", shifting)
    assert run_suite("repetitive", "a3.bq").ok
    # one lift of the graded quiver: T_1 and T_2 are its windows, renamed
    assert [w for _vq, w in calls] == [Window(-1, 1), Window(-2, 2)]
    assert calls[0][0] is calls[1][0]
    assert calls[0][0] == fovea.repetitive.repetitive_voltage(load_quiver("a3.bq")[2])
    # the suite holds the windows -1..1 and -2..2 for the exports and its
    # own checks, so each is shifted off its template once, then 0..0
    assert lows == [-1, -2, 0]


@pytest.mark.parametrize("name", ["a3.bq", "kronecker.bq", "loop2.bq"])
def test_repetitive_voltage_builds_only_layers_0_and_1(monkeypatch, name):
    bq = load_quiver(name)[2]
    sizes = []
    truncations = _record(monkeypatch, fovea.repetitive, "RepetitiveTruncation")

    def recording(cat):
        sizes.append(len(cat.objects))
        return radical_filtration(cat)

    monkeypatch.setattr(fovea.repetitive, "radical_filtration", recording)
    fovea.repetitive.repetitive_voltage(bq)
    # a nonzero product from layer 0 stays in layers 0 and 1, so those two
    # layers are all the filtration needs, and no truncation is built
    assert sizes == [2 * len(bq.vertices)]
    assert truncations == []


def test_radical_filtration_spans_only_nonzero_blocks(monkeypatch):
    cat = RepetitiveTruncation(load_quiver("a3.bq")[2], 3).category
    spans = []
    span = Subspace.span

    def recording(field, ambient, vectors):
        spans.append(ambient)
        return span(field, ambient, vectors)

    with monkeypatch.context() as patch:
        patch.setattr(Subspace, "span", staticmethod(recording))
        radical_filtration(cat)
    # every nonzero block of rad, rad^2, ..., rad^nildeg is spanned once, and
    # each ambient dimension needs at most one zero subspace on top
    _, _, _, powers = dense_radical_filtration(cat)
    nonzero = sum(1 for power in powers for s in power.values() if s.dim)
    bound = nonzero + len(set(cat.dims.values()))
    assert 0 < len(spans) <= bound


@pytest.mark.parametrize("make_bq", [
    _nakayama2_window,
    lambda: RepetitiveTruncation(load_quiver("a3.bq")[2], 2).export(),
], ids=["nakayama2-window", "a3-truncation2"])
def test_path_basis_spans_only_pairs_with_relation_vectors(monkeypatch, make_bq):
    bq = make_bq()
    spans = []
    span = Subspace.span

    def recording(field, ambient, vectors):
        spans.append(ambient)
        return span(field, ambient, vectors)

    with monkeypatch.context() as patch:
        patch.setattr(Subspace, "span", staticmethod(recording))
        PathBasis(bq)
    # one span per pair with a relation vector, and at most one zero ideal
    # per ambient dimension of a pair that holds paths on top
    paths, ideal_vectors, _, _ = dense_path_basis(bq)
    with_vectors = sum(1 for vecs in ideal_vectors.values() if vecs)
    bound = with_vectors + len({len(plist) for plist in paths.values() if plist})
    assert 0 < len(spans) <= bound


def test_repetitive_suite_builds_each_path_basis_once(monkeypatch):
    built = []
    init = PathBasis.__init__

    def recording(self, bq, *args, **kwargs):
        built.append(bq)
        init(self, bq, *args, **kwargs)

    monkeypatch.setattr(PathBasis, "__init__", recording)
    assert run_suite("repetitive", "a3.bq").ok
    # the base, three exports, the two normal forms' checks, the degree-0
    # window and the orbit algebra; the windows on layers -n..n present T_n
    # up to names and reuse its export's basis
    assert len(built) <= 8


def test_cover_suites_build_each_path_basis_once(monkeypatch, tmp_path):
    built = []
    init = PathBasis.__init__

    def recording(self, bq, *args, **kwargs):
        built.append(bq)
        init(self, bq, *args, **kwargs)

    monkeypatch.setattr(PathBasis, "__init__", recording)
    for suite in ("pushdown", "phi-identities", "kg0"):
        assert run_suite(suite, "nakayama2.vq").ok, suite
    (tmp_path / "d4.vq").write_text(D4_COVER_TEXT)
    assert run_suite("kg0", str(tmp_path / "d4.vq")).ok
    # every quiver stays alive in the records, so no id is reused; 48
    # bases of 31 quivers while callers passed bases along
    assert built and len({id(bq) for bq in built}) == len(built)



ARROW_100_TEXT = "field gf 32749\nnilbound 2\nvertex a b\narrow x: a -> b deg 100\n"


def test_kg0_keys_path_bases_linearly_on_a_high_degree_arrow(monkeypatch, tmp_path):
    """A lifted window of the arrow-100 cover has 2(width + 1) vertices and
    at most one arrow per vertex, so fewer pairs hold a path than there are
    vertices and arrows together; keying every ordered pair would key
    (2(width + 1))^2."""
    keyed = []
    init = PathBasis.__init__

    def recording(self, bq, *args, **kwargs):
        init(self, bq, *args, **kwargs)
        keyed.append((len(bq.vertices), len(self.quots)))

    monkeypatch.setattr(PathBasis, "__init__", recording)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "arrow-100.vq").write_text(ARROW_100_TEXT)
    assert run_suite("kg0", "arrow-100.vq").ok
    assert max(vertices for vertices, _ in keyed) > 200      # a window is lifted
    assert all(pairs <= 2 * vertices for vertices, pairs in keyed), keyed

def test_hom_dimension_builds_no_maps(monkeypatch):
    modules = [projective(D4, "0"), injective(D4, "1"), simple(D4, "0")]
    built = []
    from_vector = ModMap.from_vector.__func__

    def recording(cls, *args, **kwargs):
        built.append(args)
        return from_vector(cls, *args, **kwargs)

    monkeypatch.setattr(ModMap, "from_vector", classmethod(recording))
    dims = [hom_space(m, n).dim for m in modules for n in modules]
    assert sum(dims) > 0
    assert built == []
    # the maps are still there for a caller that reads them
    assert len(hom_space(modules[0], modules[0]).maps) == dims[0]
    assert len(built) == dims[0]


def test_a_repeated_hom_pair_runs_one_elimination(monkeypatch):
    """M keeps dim Hom(M, N) per partner object, so the same pair asked
    again, through hom_space or hom_dim, eliminates nothing; a repeated
    answer's basis is eliminated only when read."""
    rows = _record(monkeypatch, fovea.linalg, "_echelon_reduce")
    m, n = projective(D4, "0"), injective(D4, "1")
    first = hom_space(m, n).dim
    once = len(rows)
    assert first and once
    assert [hom_space(m, n).dim, hom_dim(m, n), len(hom_space(m, n))] == [first] * 3
    assert len(rows) == once
    # an equal module that is another object is another partner
    twin = Module(D4, dict(n.dims), dict(n.mats))
    assert twin == n and hom_dim(m, twin) == first
    assert len(rows) == 2 * once
    assert len(hom_space(m, n).maps) == first
    assert len(rows) == 3 * once


def _scrambled_d4():
    """P0 + P0 + S1 + S0 + I1 over D4 in a random basis."""
    f = D4.field
    pieces = [projective(D4, "0"), projective(D4, "0"), simple(D4, "1"),
              simple(D4, "0"), injective(D4, "1")]
    m, _, _ = direct_sum(pieces)
    rng = random.Random(8)
    change = {}
    for v in D4.vertices:
        while v not in change:
            cand = Matrix(f, [[f.sample(rng) for _ in range(m.dims[v])] for _ in range(m.dims[v])])
            if inverse(cand) is not None:
                change[v] = cand
    mats = {a.name: change[a.source] @ m.mats[a.name] @ inverse(change[a.target])
            for a in D4.arrows}
    return Module(D4, dict(m.dims), mats)


def _count_poly_pow_mod(monkeypatch):
    calls = []
    poly_pow_mod = fovea.linalg.poly_pow_mod

    def recording(*args):
        calls.append(args)
        return poly_pow_mod(*args)

    monkeypatch.setattr(fovea.linalg, "poly_pow_mod", recording)
    dec = decompose(_scrambled_d4())
    assert sorted(p.module.total_dim for p in dec.pieces) == [1, 1, 2, 4, 4]
    return len(calls)


def test_decompose_stops_factoring_at_the_first_split(monkeypatch):
    # 11 when recorded; factoring every minimal polynomial in full takes 36
    assert _count_poly_pow_mod(monkeypatch) <= 11


def test_decompose_splits_on_the_power_before_factoring(monkeypatch):
    # recorded when the power of phi was tried first and scalar-plus-radical
    # candidates were skipped; factoring from the first divisor takes 11
    assert _count_poly_pow_mod(monkeypatch) == 3


def test_decompose_builds_only_the_tried_endomorphisms(monkeypatch):
    tried, built, powers, eliminations = [], [], [], []
    try_split = fovea.modules._try_split
    from_vector = ModMap.from_vector.__func__
    power = Matrix.power
    rref = fovea.linalg.rref

    def recording_try(piece, phi):
        tried.append(phi)
        return try_split(piece, phi)

    def recording_vector(cls, *args, **kwargs):
        built.append(args)
        return from_vector(cls, *args, **kwargs)

    def recording_power(self, n):
        powers.append((self.rows, n))
        return power(self, n)

    def recording_rref(m):
        eliminations.append(m)
        return rref(m)

    monkeypatch.setattr(fovea.modules, "_try_split", recording_try)
    monkeypatch.setattr(ModMap, "from_vector", classmethod(recording_vector))
    monkeypatch.setattr(Matrix, "power", recording_power)
    monkeypatch.setattr(fovea.linalg, "rref", recording_rref)
    dec = decompose(_scrambled_d4())
    assert sorted(p.module.total_dim for p in dec.pieces) == [1, 1, 2, 4, 4]
    # no map of End(P) is built but the one tried
    assert tried and len(built) <= len(tried)
    # each vertex is raised to its own dimension, not to dim M
    assert powers and all(n <= size for size, n in powers)
    # 89 when each piece's arrow matrices were solved for, 80 while each hom
    # space was a dense elimination, 69 while 1-dimensional vertices were
    # eliminated too; 43 when recorded
    assert len(eliminations) <= 43


# Kronecker module of dimension vector (2, 2) whose pencil has the
# irreducible x^2 - 2 (2 is not a square mod 32749): End = GF(32749^2) is
# local with a residue field larger than K, so decompose takes its fallback
KRONECKER_PENCIL = ("dims 1=2 2=2\nmat a = [[1,0],[0,1]]\nmat b = [[0,2],[1,0]]\n")


def test_decompose_builds_the_radical_only_for_the_residue_field_fallback(monkeypatch):
    library = [call.args[0] for call in _workloads().library_session(1, None)
               if call.function == "decompose"]
    inputs = [_scrambled_d4()] + library
    kronecker = parse_quiver("field gf 32749\nnilbound 2\nvertex 1 2\n"
                             "arrow a: 1 -> 2\narrow b: 1 -> 2\n")
    pencil = parse_module(kronecker, KRONECKER_PENCIL)
    radicals, spans, fallbacks = [], [], []
    radical_hom = fovea.modules.radical_hom
    span = Subspace.span.__func__
    generates = fovea.modules._generates_a_residue_field

    def recording_radical(*args, **kwargs):
        radicals.append(args)
        return radical_hom(*args, **kwargs)

    def recording_span(cls, *args, **kwargs):
        spans.append(args)
        return span(cls, *args, **kwargs)

    def recording_generates(*args):
        fallbacks.append(args)
        return generates(*args)

    monkeypatch.setattr(fovea.modules, "radical_hom", recording_radical)
    monkeypatch.setattr(Subspace, "span", classmethod(recording_span))
    monkeypatch.setattr(fovea.modules, "_generates_a_residue_field", recording_generates)
    for m in inputs:
        decompose(m)
    # rad End(P) is the kernel of the trace form, which answers locality
    # and the skip test by itself
    assert fallbacks == [] and radicals == [] and spans == []
    assert decompose(pencil).is_indecomposable
    assert fallbacks and len(radicals) == 1


def test_decompose_builds_no_end_of_a_thin_piece_and_composes_no_unread_witness(monkeypatch):
    homs, composites = [], []
    hom_space_ = fovea.modules.hom_space
    matmul = ModMap.__matmul__

    def recording_hom(m, n):
        homs.append((m, n))
        return hom_space_(m, n)

    def recording_matmul(self, other):
        composites.append((other.source, self.target))
        return matmul(self, other)

    monkeypatch.setattr(fovea.modules, "hom_space", recording_hom)
    monkeypatch.setattr(ModMap, "__matmul__", recording_matmul)
    m = _scrambled_d4()
    dec = decompose(m)
    pieces = [p.module for p in dec.pieces]
    # P0, P0, S1, S0 and I1 are thin, each connected by its nonzero arrows
    assert sorted(p.total_dim for p in pieces) == [1, 1, 2, 4, 4]
    assert all(set(p.dims.values()) <= {0, 1} for p in pieces)
    assert not [p for p in pieces if (p, p) in homs]
    # the minimal polynomials compose endomorphisms of a piece; a witness
    # would map a piece into the whole
    assert all(s == t for s, t in composites)
    composites.clear()
    dec.witnesses()
    assert any(s != t for s, t in composites)


def test_kernel_basis_runs_one_elimination(monkeypatch):
    f = D4.field
    matrices = [Matrix(f, [[1, 2, 3], [2, 4, 6]]), Matrix(f, [[0, 1, 0, 5]]),
                Matrix(f, [[1, 0], [0, 1]]), Matrix.zeros(f, 2, 3)]
    calls = []
    rref = fovea.linalg.rref

    def recording(m):
        calls.append(m)
        return rref(m)

    monkeypatch.setattr(fovea.linalg, "rref", recording)
    for m in matrices:
        calls.clear()
        ker = fovea.linalg.kernel_basis(m)
        assert (m @ ker.transpose()).is_zero()
        assert len(calls) == 1


def test_hom_space_runs_no_dense_elimination(monkeypatch):
    scrambled = _scrambled_d4()
    modules = [projective(D4, "0"), injective(D4, "1"), simple(D4, "0"), scrambled,
               Module.zero(D4)]
    calls = []
    for name in ("rref", "kernel_basis"):
        original = getattr(fovea.linalg, name)

        def recording(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(fovea.linalg, name, recording)
        monkeypatch.setattr(fovea.modules, name, recording, raising=False)
    assert sum(hom_space(m, n).dim for m in modules for n in modules) > 0
    assert calls == []


def test_isomorphism_test_reads_one_trace_pairing(monkeypatch):
    p0 = projective(D4, "0")
    assert set(p0.dims.values()) == {1}
    f = D4.field
    change = {v: Matrix(f, [[k + 2]]) for k, v in enumerate(D4.vertices)}
    twin = Module(D4, dict(p0.dims),
                  {a.name: change[a.source] @ p0.mats[a.name] @ inverse(change[a.target])
                   for a in D4.arrows})
    assert twin != p0
    homs, radicals = [], []
    hom_space_ = fovea.modules.hom_space
    radical_hom = fovea.modules.radical_hom

    def recording_hom(m, n):
        homs.append((m, n))
        return hom_space_(m, n)

    def recording_radical(*args, **kwargs):
        radicals.append(args)
        return radical_hom(*args, **kwargs)

    monkeypatch.setattr(fovea.modules, "hom_space", recording_hom)
    monkeypatch.setattr(fovea.modules, "radical_hom", recording_radical)
    assert fovea.modules.is_isomorphic_indec(p0, twin)
    # Hom(P, Q) and Hom(Q, P); End(P) is not needed
    assert len(homs) == 2 and radicals == []


def test_push_down_is_built_once_per_layered_module(monkeypatch):
    x = layered_injective(load_quiver("nakayama2.vq")[2], "1", 0)
    assert push_down(x) is push_down(x)
    calls = _record(monkeypatch, fovea.covering, "push_down")
    assert run_suite("phi-identities", "nakayama2.vq").ok
    # 241 distinct push-downs of 20 layered modules while each call built one
    arguments = {id(args[0]): args[0] for args, _ in calls}
    pushed = {id(result): result for _, result in calls}
    assert calls and len(pushed) <= len(arguments)


def _record_method(monkeypatch, cls, name) -> list:
    """Record (args, result) of every call of the method cls.name, self
    first in args."""
    calls = []
    original = getattr(cls, name)

    def recording(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(cls, name, recording)
    return calls


@pytest.mark.parametrize("suite, twist_builds, push_builds", [
    ("kg0", 44, 8),
    ("phi-identities", 21, 17),
])
def test_twists_and_map_push_downs_are_built_once_per_instance(
        monkeypatch, suite, twist_builds, push_builds):
    twists = _record_method(monkeypatch, LayeredModule, "twist")
    map_twists = _record_method(monkeypatch, LayeredModMap, "twist")
    pushed = _record(monkeypatch, fovea.covering, "push_down_map")
    assert run_suite(suite, "nakayama2.vq").ok
    # every call's arguments stay alive in the records, so no id is reused
    for calls in (twists, map_twists, pushed):
        first = {}
        for args, result in calls:
            key = (id(args[0]), *args[1:])
            assert first.setdefault(key, result) is result
    # kg0 built 235 twists and phi-identities 84 map push-downs while each
    # call built its own
    assert len({id(result) for args, result in twists if args[1]}) <= twist_builds
    assert len({id(result) for _, result in pushed}) <= push_builds


def test_evaluate_builds_no_hom_into_the_source_where_the_target_has_none(monkeypatch):
    calls = _record(monkeypatch, fovea.modules, "hom_space")
    assert fovea.functors.hom_space is fovea.modules.hom_space
    assert run_suite("kg0", "nakayama2.vq").ok
    # 650 while every evaluation built Hom(X, M) and Hom(X, N)
    assert 0 < len(calls) <= 410


def test_hom_dimensions_read_no_basis(monkeypatch):
    """A dimension is read off the forward echelon form of the naturality
    system; the canonical basis is never back-substituted for it."""
    tests = []
    for name in ("line-k2.vq", "nakayama2.vq", "trivial-a2.vq"):
        _battery, test = default_battery(load_quiver(name)[2])
        tests.append([(x, push_down(x)) for x in test])
    readouts = _record(monkeypatch, fovea.linalg, "_echelon_kernel")
    dims = [layered_hom_dim(x.twist(k), y) + hom_dim(px, py)
            for test in tests for x, px in test for y, py in test for k in (-1, 0, 1)]
    assert sum(dims) > 0
    assert readouts == []
    # a basis that is read is counted
    px = tests[0][0][1]
    assert len(hom_space(px, px).maps) == 1
    assert len(readouts) == 1


def test_kg0_reads_few_hom_bases(monkeypatch):
    readouts = _record(monkeypatch, fovea.linalg, "_echelon_kernel")
    assert run_suite("kg0", "nakayama2.vq").ok
    # 410 while every hom space was solved to its canonical basis; 110
    # while each evaluation read the bases of Hom(X, M) and Hom(X, N)
    assert 0 < len(readouts) <= 6


def test_phi_identities_lifts_no_functor_map(monkeypatch):
    """fp_hom_dim counts the maps of functors without building them."""
    readouts = _record(monkeypatch, fovea.linalg, "_echelon_kernel")
    lifts = _record(monkeypatch, fovea.functors, "_solve_lift")
    assert run_suite("phi-identities", "line-k2.vq").ok
    # 22 lifts and 328 bases while fp_hom_dim built fp_hom's maps and
    # each evaluation read the bases of Hom(X, M) and Hom(X, N); 184 while
    # fp_hom_dim read the condition rows where their quotient space is 0;
    # 103 while phi_epi_cover evaluated both functors at every test module
    assert lifts == []
    assert 0 < len(readouts) <= 67


def test_a_cover_evaluation_off_the_target_aligns_nothing(monkeypatch):
    """Lifted vertex names carry their layer, so disjoint supports are seen
    on the names, and the value 0 is returned before any alignment."""
    vq = load_quiver("nakayama2.vq")[2]
    battery, _ = default_battery(vq)
    far = fovea.functors.window_indecomposables(vq, Window(6, 8))
    assert far and all(set(x.module.support).isdisjoint(t.pres.target.module.support)
                       for t in battery for x in far)
    aligns = _record_method(monkeypatch, LayeredModule, "align")
    assert all(fovea.functors.evaluate_dim(t, x) == 0 for t in battery for x in far)
    assert aligns == []


@pytest.mark.parametrize("make_bq", [
    lambda: RepetitiveTruncation(load_quiver("loop2.bq")[2], 2).export(),
    lambda: RepetitiveTruncation(load_quiver("kronecker.bq")[2], 1).export(),
    lambda: parse_quiver("field q\nnilbound 4\nvertex 1\narrow a: 1 -> 1\narrow b: 1 -> 1\n"
                         "relation a*a\nrelation b*b\nrelation 2 a*b - 3 b*a\n"),
    lambda: parse_quiver("field q\nnilbound 3\nvertex 1 2 3 4\narrow a: 1 -> 2\n"
                         "arrow b: 2 -> 3\narrow c: 1 -> 4\narrow d: 4 -> 3\n"
                         "relation 2 a*b - 3 c*d\n"),
], ids=["loop2-truncation2", "kronecker-truncation1", "exterior-like-q", "square-q"])
def test_path_basis_runs_no_dense_elimination(monkeypatch, make_bq):
    bq = make_bq()
    eliminations, spans = [], []
    rref = fovea.linalg.rref
    span = Subspace.span

    def recording_rref(m):
        eliminations.append(m)
        return rref(m)

    def recording_span(field, ambient, vectors):
        vectors = list(vectors)
        spans.append(vectors)
        return span(field, ambient, vectors)

    with monkeypatch.context() as patch:
        patch.setattr(fovea.linalg, "rref", recording_rref)
        patch.setattr(Subspace, "span", staticmethod(recording_span))
        pb = PathBasis(bq)
    # the pairs with relation vectors are read off their echelon forms;
    # a span is taken only of no vectors, for the shared zero ideals
    assert any(sub.dim for sub in pb.ideal.values())
    assert eliminations == []
    assert all(vectors == [] for vectors in spans)


def test_lifts_of_one_width_check_one_template(monkeypatch):
    # each of the 40 lifts was built and checked by BoundQuiver on its own
    _, _, vq = load_quiver("nakayama2.vq")
    checked = []
    init = fovea.quiver.BoundQuiver.__init__

    def counting(self, *args, **kwargs):
        checked.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(fovea.quiver.BoundQuiver, "__init__", counting)
    lifts = [lift_window(vq, Window(lo, lo + lo % 3)) for lo in range(-20, 20)]
    assert len(set(lifts)) == 40
    assert len(checked) <= 3
