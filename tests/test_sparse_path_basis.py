"""The sparse path-basis contract on random small bound quivers.

PathBasis keys only the ordered vertex pairs that hold a path of length <
nilbound; on every pair it must answer as the dense reference of
tests/test_quiver.py.  The quivers come from two strategies: graded quivers
with monomial and binomial relations (their bases, nilbound 1..4), and
relation-free quivers on up to five vertices with loops and parallel arrows
(nilbound 2).  This module stands alone because the two strategies' modules
import each other's dependencies.
"""

from hypothesis import given, settings, strategies as st

from fovea.quiver import path_basis
from test_hom_space import quivers
from test_quiver import (
    assert_sparse_path_basis_matches_the_dense_reference,
    dense_path_basis,
    graded_quivers,
)

BOUND_QUIVERS = st.one_of(graded_quivers().map(lambda vq: vq.base),
                          quivers(max_vertices=5, max_arrows=6))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(BOUND_QUIVERS)
def test_sparse_path_basis_matches_the_dense_reference_on_random_bound_quivers(bq):
    assert_sparse_path_basis_matches_the_dense_reference(bq)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(BOUND_QUIVERS)
def test_sparse_composition_matches_the_dense_reference_on_random_bound_quivers(bq):
    """The class of p then q, for basis paths p: x -> y and q: y -> z, is the
    dense reference's class of the path p q, the zero-length tuple where no
    path runs from x to z."""
    f, pb = bq.field, path_basis(bq)
    paths, _, _, quots = dense_path_basis(bq)
    for x in bq.vertices:
        for y in bq.vertices:
            for z in bq.vertices:
                for i, p in enumerate(pb.representatives(x, y)):
                    for j, q in enumerate(pb.representatives(y, z)):
                        a = tuple(f.one if k == i else f.zero for k in range(pb.dim(x, y)))
                        b = tuple(f.one if k == j else f.zero for k in range(pb.dim(y, z)))
                        unit = [f.one if r == p + q else f.zero for r in paths[(x, z)]]
                        assert pb.compose(x, y, z, a, b) == quots[(x, z)].apply(unit)
