"""The same core flows over the rationals instead of the prime field."""

import random

import pytest

from fovea.covering import layered_injective, layered_simple, push_down, verify_covering_axioms
from fovea.functors import evaluate_dim, functor_length, hom_functor, phi, simple_functor
from fovea.linalg import Matrix
from fovea.modules import (
    Module,
    decompose,
    direct_sum,
    enumerate_indecomposables,
    hom_dim,
    hom_space,
    is_indecomposable,
    projective,
    simple,
)
from fovea.quiver import parse_quiver, path_basis
from fovea.suites import run_suite

from oracles import naturality_hom_dim
from test_covering import D4_COVER_TEXT
from test_report_digests import REP_A2_TEXT, REP_A3_PRIME_TEXT, REP_A3_TEXT, REP_KD4_TEXT

A2Q = parse_quiver("field q\nnilbound 2\nvertex 1 2\narrow a: 1 -> 2\n")
LOOPQ = parse_quiver("field q\nnilbound 2\nvertex v\narrow a: v -> v\nrelation a*a\n")
LINEQ = parse_quiver("field q\nnilbound 2\nvertex v\narrow a: v -> v deg 1\nrelation a*a\n")


def test_path_basis_over_q():
    assert path_basis(A2Q).total_dim == 3
    assert path_basis(LOOPQ).total_dim == 2


def test_hom_dims_over_q():
    p2 = projective(A2Q, "2")
    assert hom_dim(p2, p2) == 1
    assert hom_dim(simple(A2Q, "1"), p2) == 1


def test_decompose_repeated_summand_over_q():
    s1 = simple(A2Q, "1")
    m, _, _ = direct_sum([s1, s1])
    dec = decompose(m)
    assert dec.summands()[0][1] == 2


def test_decompose_mixed_sum_over_q():
    m, _, _ = direct_sum([projective(A2Q, "2"), simple(A2Q, "1")])
    assert sorted(x.total_dim for x, _ in decompose(m).summands()) == [1, 2]


def test_indecomposability_over_q():
    reg = Module(LOOPQ, {"v": 2}, {"a": Matrix(LOOPQ.field, [[0, 1], [0, 0]])})
    assert is_indecomposable(reg)


def test_enumeration_and_simple_functors_over_q():
    enum = enumerate_indecomposables(A2Q)
    assert enum.complete and len(enum.modules) == 3
    s2 = simple(A2Q, "2")
    t = simple_functor(A2Q, s2, enum)
    assert sorted(evaluate_dim(t, x) for x in enum.modules) == [0, 0, 1]
    assert functor_length(hom_functor(A2Q, projective(A2Q, "2")), enum).length == 2


def test_covering_over_q():
    assert verify_covering_axioms(LINEQ).ok
    m0 = layered_injective(LINEQ, "v", 0)
    s0 = layered_simple(LINEQ, "v", 0)
    a = push_down(m0)
    assert hom_dim(a, a) == 2
    assert hom_dim(a, push_down(s0)) == 1
    base_enum = enumerate_indecomposables(LINEQ.base)
    u = phi(hom_functor(LINEQ, m0))
    assert sum(evaluate_dim(u, x) for x in base_enum.modules) == 3


def test_random_hom_dims_agree_with_the_oracle_over_both_fields():
    for text in ("field q\nnilbound 2\nvertex 1 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n",
                 "field gf 32749\nnilbound 2\nvertex 1 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n"):
        bq = parse_quiver(text)
        f = bq.field
        rng = random.Random(17)
        arrows = [(a.name, a.source, a.target) for a in bq.arrows]
        for _ in range(6):
            dims_m = {"1": rng.randrange(3), "2": rng.randrange(3)}
            dims_n = {"1": rng.randrange(3), "2": rng.randrange(3)}
            def rand_mats(dims):
                return {a.name: Matrix.from_rows(
                    f, dims[a.source], dims[a.target],
                    [[f.sample(rng) for _ in range(dims[a.target])]
                     for _ in range(dims[a.source])])
                    for a in bq.arrows}
            m = Module(bq, dims_m, rand_mats(dims_m))
            n = Module(bq, dims_n, rand_mats(dims_n))
            expected = naturality_hom_dim(
                bq.vertices, arrows, m.dims,
                {k: [list(r) for r in v.entries] for k, v in m.mats.items()},
                n.dims, {k: [list(r) for r in v.entries] for k, v in n.mats.items()},
                p=f.p)
            assert hom_space(m, n).dim == expected


def test_all_suites_pass_over_the_rationals():
    for name, fixture in (("cover-axioms", "line-k2.vq"), ("pushdown", "line-k2.vq"),
                          ("kg0", "line-k2.vq"), ("repetitive", "a2.bq")):
        assert run_suite(name, fixture, field_override="q").ok


# the covers written as text in tests/test_report_digests.py and tests/test_covering.py
COVER_TEXTS = {"d4.vq": D4_COVER_TEXT, "rep-a3p.vq": REP_A3_PRIME_TEXT,
               "rep-a2.vq": REP_A2_TEXT, "rep-a3.vq": REP_A3_TEXT, "rep-kd4.vq": REP_KD4_TEXT}
CROSS_FIELD_CALLS = [
    *(("kg0", name) for name in ("a2.bq", "a3.bq", "kronecker.bq", "loop2.bq", "point.bq")),
    *(("repetitive", name) for name in ("a2.bq", "a3.bq", "kronecker.bq", "loop2.bq")),
    *((suite, "trivial-a2.vq") for suite in ("cover-axioms", "pushdown", "phi-identities", "kg0")),
    *((suite, "nakayama2.vq") for suite in ("kg0", "cover-axioms", "phi-identities", "pushdown")),
    *((suite, "line-k2.vq") for suite in ("pushdown", "cover-axioms", "phi-identities", "kg0")),
    *(("cover-axioms", name) for name in COVER_TEXTS),
    # of the other cover suites on these covers, a subset that takes about
    # 7 s: all three on rep-a2 and rep-a3, pushdown on D4, and pushdown and
    # phi-identities on rep-kD4, whose orbit lists stop on the base's count;
    # phi-identities and kg0 on D4, kg0 on rep-kD4 and all three on rep-A3'
    # (8 s more) are left out
    *((suite, name) for name in ("rep-a2.vq", "rep-a3.vq")
      for suite in ("pushdown", "phi-identities", "kg0")),
    ("pushdown", "d4.vq"),
    ("pushdown", "rep-kd4.vq"),
    ("phi-identities", "rep-kd4.vq"),
]


@pytest.mark.parametrize("suite,name", CROSS_FIELD_CALLS,
                         ids=[f"{s} {n}" for s, n in CROSS_FIELD_CALLS])
def test_suite_reports_agree_over_both_prime_fields_and_the_rationals(monkeypatch, tmp_path,
                                                                      suite, name):
    """Only the field line of a report may depend on the field: every
    verdict and every check record (id, expected, actual, pass) is the
    same over GF(32749), GF(101) and Q."""
    if name in COVER_TEXTS:
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(COVER_TEXTS[name])
    reports = [run_suite(suite, name, field_override=field).to_dict()
               for field in ("gf:32749", "gf:101", "q")]
    assert len({report.pop("field") for report in reports}) == 3
    assert reports[0] == reports[1] == reports[2]
