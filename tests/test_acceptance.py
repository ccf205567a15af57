"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every check is exact (integer equality or structural equality); the timing
bounds are asserted on the criterion's own computation.  Run with -s to
see the per-criterion lines.
"""

import json
import subprocess
import sys
import time



from fovea.covering import (
    layered_injective,
    layered_simple,
    push_down,
    twist_shift_range,
    layered_hom_dim,
    verify_covering_axioms,
)
from fovea.functors import (
    Coinduction,
    common_window,
    default_battery,
    evaluate_dim,
    extend_functor,
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
    twist_functor,
)
from fovea.modules import (
    ModMap,
    enumerate_indecomposables,
    hom_dim,
    hom_space,
    is_indecomposable,
    is_isomorphic_indec,
    map_factor,
    projective,
    right_almost_split,
    simple,
)
from fovea.quiver import (
    Window,
    format_quiver,
    lift_window,
    normalize_presentation,
    parse_quiver,
    path_basis,
    rename_vertices,
    sub_quiver,
)
from fovea.repetitive import (
    is_selfinjective,
    repetitive_truncation,
    selfinjective_orbit,
)

from almost_split_reference import verify_right_almost_split

LINE_K2 = parse_quiver(
    "field gf 32749\nnilbound 2\nvertex v\narrow a: v -> v deg 1\nrelation a*a\n")
NAKAYAMA2 = parse_quiver(
    "field gf 32749\nnilbound 2\nvertex 1 2\n"
    "arrow a: 1 -> 2 deg 0\narrow b: 2 -> 1 deg 1\nrelation a*b\nrelation b*a\n")
A2 = parse_quiver("field gf 32749\nnilbound 2\nvertex 1 2\narrow a: 1 -> 2\n")
A3 = parse_quiver(
    "field gf 32749\nnilbound 3\nvertex 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\n")
LOOP2 = parse_quiver("field gf 32749\nnilbound 2\nvertex v\narrow a: v -> v\nrelation a*a\n")
KRONECKER = parse_quiver(
    "field gf 32749\nnilbound 2\nvertex 1 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n")

S0 = layered_simple(LINE_K2, "v", 0)
M0 = layered_injective(LINE_K2, "v", 0)
Mm1 = M0.twist(-1)


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def announce(number: int, label: str, ok: bool, elapsed: float, bound: float):
    status = "PASS" if ok and elapsed < bound else "FAIL"
    print(f"{status} criterion {number:2d} [{elapsed:6.3f}s < {bound}s] {label}")
    assert ok
    assert elapsed < bound, f"criterion {number} exceeded {bound}s ({elapsed:.3f}s)"


def test_criterion_01_covering_axioms():
    with Timer() as t:
        ok = True
        rep_line = verify_covering_axioms(LINE_K2)
        ok &= rep_line.ok
        spot = {r.check: r for r in rep_line.records}
        ok &= spot["covering.dim-sum-left[v,v]"].expected == 2
        ok &= spot["covering.dim-sum-left[v,v]"].actual == 2
        rep_nak = verify_covering_axioms(NAKAYAMA2)
        ok &= rep_nak.ok
    announce(1, "covering layer sums on line-k2 and nakayama2", ok, t.elapsed, 1.0)


def test_criterion_02_hom_sums_over_the_covering():
    with Timer() as t:
        ok = True
        mods = {"S0": S0, "M0": M0, "M-1": Mm1}
        for x in mods.values():
            for y in mods.values():
                lhs = hom_dim(push_down(x), push_down(y))
                rhs = sum(layered_hom_dim(x.twist(k), y)
                          for k in twist_shift_range(x, y))
                ok &= lhs == rhs
        a, k = push_down(M0), push_down(S0)
        ok &= hom_dim(a, a) == 2
        ok &= hom_dim(a, k) == 1
        ok &= hom_dim(k, k) == 1
    announce(2, "hom dimensions split into twist sums, spot values 2/1/1", ok, t.elapsed, 1.0)


def test_criterion_03_twist_invariance_and_exhaustion():
    with Timer() as t:
        ok = True
        for k in (-2, -1, 0, 1, 3):
            ok &= push_down(M0.twist(k)) == push_down(M0)
            ok &= push_down(S0.twist(k)) == push_down(S0)
        pushed = [push_down(S0), push_down(M0)]
        ok &= all(is_indecomposable(p) for p in pushed)
        base_enum = enumerate_indecomposables(LINE_K2.base)
        ok &= base_enum.complete and len(base_enum.modules) == 2
        matched = set()
        for p in pushed:
            for i, m in enumerate(base_enum.modules):
                if i not in matched and p.dims == m.dims and is_isomorphic_indec(p, m):
                    matched.add(i)
                    break
        ok &= len(matched) == 2
    announce(3, "push-down is twist invariant and exhausts the base classes", ok, t.elapsed, 1.0)


def test_criterion_04_almost_split_suites():
    with Timer() as t:
        ok = True
        for bq, count in ((A2, 3), (A3, 6)):
            enum = enumerate_indecomposables(bq)
            ok &= enum.complete and len(enum.modules) == count
            for n in enum.modules:
                g = right_almost_split(n, enum.modules, check=False)
                ok &= verify_right_almost_split(g, n, enum.modules) == []
        s1, s2 = simple(A2, "1"), simple(A2, "2")
        p2 = projective(A2, "2")
        enum2 = enumerate_indecomposables(A2)
        g = right_almost_split(s2, enum2.modules)
        fac = map_factor(g)
        ok &= g.source.dims == p2.dims
        ok &= fac.kernel.dims == s1.dims
        ok &= fac.cokernel.is_zero()
        ok &= fac.image.dims == s2.dims
    announce(4, "factorization postcondition on A2/A3; the A2 sequence", ok, t.elapsed, 1.0)


def test_criterion_05_pull_back_of_the_push_down():
    with Timer() as t:
        battery, tests = default_battery(LINE_K2)
        ok = len(battery) >= 5 and len(tests) >= 3
        for f in battery:
            hull = common_window(f.pres.source, f.pres.target)
            for x in tests:
                lhs = psi_evaluate(phi(f), x)
                rhs = sum(evaluate_dim(f, x.twist(k))
                          for k in range(hull.lo - x.window.hi, hull.hi - x.window.lo + 1))
                ok &= lhs == rhs
    announce(5, "pulled-back push-down equals the twist sum on the battery", ok, t.elapsed, 2.0)


def test_criterion_06_hom_identity_on_the_battery():
    with Timer() as t:
        battery, _ = default_battery(LINE_K2)
        ok = True
        spot_checked = False
        for f1 in battery[:4]:
            for f2 in battery[:4]:
                rep = phi_hom_identity(f1, f2)
                ok &= rep.ok
        from fovea.functors import simple_functor_cover
        s = simple_functor_cover(LINE_K2, M0)
        rep = phi_hom_identity(s, s)
        ok &= rep.ok and rep.records[0].expected == 1 and rep.records[0].actual == 1
        spot_checked = True
        ok &= spot_checked
    announce(6, "hom dimensions agree across the comparison, spot 1 = 1", ok, t.elapsed, 2.0)


def test_criterion_07_epi_covers():
    with Timer() as t:
        tests = [S0, M0, Mm1]
        ok = True
        presented = 0
        for x in (S0, M0):
            for y in (S0, M0):
                fx, fy = push_down(x), push_down(y)
                for alpha in hom_space(fx, fy).maps:
                    res = phi_epi_cover(x, y, alpha, tests)
                    ok &= res.report.ok
                    presented += 1
                zero = ModMap.zero(fx, fy)
                res = phi_epi_cover(x, y, zero, tests)
                ok &= res.report.ok
                presented += 1
        ok &= presented >= 5
    announce(7, "every presented functor admits a surjective image cover", ok, t.elapsed, 2.0)


def test_criterion_08_length_preservation_and_twists():
    with Timer() as t:
        base_enum = enumerate_indecomposables(LINE_K2.base)
        battery, tests = default_battery(LINE_K2)
        ok = True
        for f in battery:
            up = functor_length_cover(f)
            down = functor_length(phi(f), base_enum)
            ok &= up.length == down.length
            for k in (1, -1):
                ok &= functor_length_cover(twist_functor(f, k)).length == up.length
            if up.length > 0:
                for k in (1, -1):
                    tk = twist_functor(f, k)
                    same = all(evaluate_dim(tk, x) == evaluate_dim(f, x) for x in tests)
                    ok &= not same
        h = hom_functor(LINE_K2, M0)
        ok &= functor_length_cover(h).length == 3
        ok &= functor_length(phi(h), base_enum).length == 3
    announce(8, "lengths preserved (spot 3 = 3), twist invariant, profiles move", ok, t.elapsed, 2.0)


def test_criterion_09_level_zero_verdicts():
    with Timer() as t:
        ok = True
        for bq in (A2, A3, LOOP2):
            ok &= kg_level0_report(bq).verdicts["algebra"].startswith("KG = 0")
        ok &= kg_level0_report(KRONECKER).verdicts["algebra"] == "undecidable at desk scale"
    announce(9, "finite-type verdicts for A2/A3/dual numbers; Kronecker undecidable",
             ok, t.elapsed, 5.0)


def test_criterion_10_repetitive_suite():
    with Timer() as t:
        ok = True
        point = parse_quiver("field gf 32749\nnilbound 1\nvertex v\n")
        t_point = repetitive_truncation(point, 1)
        ok &= t_point.total_dim == 5
        exported = t_point.export()
        pb = path_basis(exported)
        ok &= pb.dim("v@-1", "v@1") == 0  # the radical squares to zero
        ok &= repetitive_truncation(A2, 1).total_dim == 15
        orb_point = selfinjective_orbit(point, 1)
        ok &= path_basis(orb_point).total_dim == 2
        ok &= len(orb_point.arrows) == 1 and len(orb_point.relations) >= 1
        ok &= is_selfinjective(orb_point)
        orb_a2 = selfinjective_orbit(A2, 1)
        ok &= path_basis(orb_a2).total_dim == 6
        ok &= is_selfinjective(orb_a2)
        norm = format_quiver(normalize_presentation(A2))
        exported0 = repetitive_truncation(A2, 0).export()
        renamed = rename_vertices(exported0, {f"{v}@0": v for v in A2.vertices})
        ok &= format_quiver(renamed) == norm
    announce(10, "repetitive dims 5/15, orbit algebras, byte-exact layer zero",
             ok, t.elapsed, 2.0)


def test_criterion_11_restriction_extension():
    with Timer() as t:
        w2 = lift_window(LINE_K2, Window(0, 2))
        subset = ["v@0", "v@1"]
        sub = sub_quiver(w2, subset)
        sub_enum = enumerate_indecomposables(sub)
        co = Coinduction(w2, subset)
        functors = [hom_functor(sub, projective(sub, "v@1")),
                    hom_functor(sub, simple(sub, "v@0")),
                    hom_functor(sub, simple(sub, "v@1"))]
        extended = [extend_functor(s, w2, subset, co) for s in functors]
        ok = True
        for s, e in zip(functors, extended):
            back = restrict_functor(e, subset)
            for x in sub_enum.modules:
                ok &= evaluate_dim(back, x) == evaluate_dim(s, x)
        for i, s in enumerate(functors):
            for j, u in enumerate(functors):
                ok &= fp_hom_dim(s, u) == fp_hom_dim(extended[i], extended[j])
    announce(11, "restriction after extension is the identity; extension is fully faithful",
             ok, t.elapsed, 1.0)


def test_criterion_12_deterministic_reports():
    suites = [("cover-axioms", "line-k2.vq"), ("pushdown", "line-k2.vq"),
              ("phi-identities", "line-k2.vq"), ("kg0", "line-k2.vq"),
              ("repetitive", "a2.bq")]
    with Timer() as t:
        ok = True
        for name, fixture in suites:
            runs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "fovea.cli", "suite", name, fixture,
                     "--json", "--seed", "11"],
                    capture_output=True, text=True, cwd="src")
                assert proc.returncode == 0, proc.stderr
                runs.append(proc.stdout)
            ok &= runs[0] == runs[1] and len(runs[0]) > 0
            ok &= json.loads(runs[0])["pass"] is True
    announce(12, "every suite report is byte-identical across consecutive runs",
             ok, t.elapsed, 60.0)
