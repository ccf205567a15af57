import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fovea.linalg import (
    Field,
    LinAlgError,
    Matrix,
    Subspace,
    _is_prime,
    inverse,
    kernel_basis,
    parse_field_spec,
    rank,
    rref,
    solve,
)

from oracles import dumb_rref

GF = Field.gf(32749)
QQ = Field.rationals()
FIELDS = [GF, QQ]


def test_field_spec_round_trip():
    assert parse_field_spec("q") == QQ
    assert parse_field_spec("gf:7") == Field.gf(7)
    assert parse_field_spec("gf 32749") == GF
    with pytest.raises(LinAlgError):
        parse_field_spec("gf:6")
    for order in ("1_0_1", "\u0661\u0660\u0661"):
        with pytest.raises(ValueError, match="not an integer"):
            parse_field_spec("gf:" + order)


def test_field_parse_format():
    assert QQ.parse("-3/4") == Fraction(-3, 4)
    assert QQ.format(Fraction(5, 2)) == "5/2"
    assert GF.parse("-1") == 32748
    assert GF.parse("1/2") == GF.inv(2)


@pytest.mark.parametrize("field", [QQ, GF], ids=["q", "gf"])
@pytest.mark.parametrize("token,message", [
    ("1/0", "zero denominator in '1/0'"),
    ("x", "not a number: 'x'"),
    ("1/y", "not a number: '1/y'"),
    ("", "not a number: ''"),
    ("1/2/3", "not a number: '1/2/3'"),
    ("1_0", "not a number: '1_0'"),
    ("\u0661/2", "not a number: '\u0661/2'"),
])
def test_field_parse_rejects_non_numbers(field, token, message):
    with pytest.raises(LinAlgError) as info:
        field.parse(token)
    assert str(info.value) == message


@pytest.mark.parametrize("field", FIELDS)
def test_rref_identity(field):
    m = Matrix.identity(field, 2)
    red = rref(m)
    assert red.rank == 2
    assert red.matrix == m


@pytest.mark.parametrize("field", FIELDS)
def test_rref_proportional_rows(field):
    red = rref(Matrix(field, [[2, 4], [1, 2]]))
    assert red.rank == 1
    assert red.pivots == (0,)


@pytest.mark.parametrize("field", FIELDS)
def test_rref_zero(field):
    red = rref(Matrix.zeros(field, 3, 3))
    assert red.rank == 0
    assert red.matrix.is_zero()


@pytest.mark.parametrize("field", FIELDS)
def test_rref_is_idempotent(field):
    rng = random.Random(11)
    for _ in range(25):
        m = Matrix(field, [[field.sample(rng) for _ in range(4)] for _ in range(3)])
        once = rref(m).matrix
        assert rref(once).matrix == once


@pytest.mark.parametrize("field", FIELDS)
def test_rank_equals_rank_of_transpose(field):
    rng = random.Random(7)
    for _ in range(25):
        m = Matrix(field, [[field.sample(rng) for _ in range(5)] for _ in range(3)])
        assert rank(m) == rank(m.transpose())


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(GF, 2)).rows == 0


def test_kernel_one_equation():
    # the null space of (1 2) is spanned by (-2, 1), canonicalized
    ker = kernel_basis(Matrix(QQ, [[1, 2]]))
    assert ker.rows == 1
    v = ker.entries[0]
    assert v[0] + 2 * v[1] == 0 and any(v)


def test_kernel_rank_nullity_against_oracle():
    rows = [[2, 4], [1, 2]]
    oracle_rank = dumb_rref(rows)[0]
    ker = kernel_basis(Matrix(QQ, rows))
    assert ker.rows == 2 - oracle_rank == 1


@pytest.mark.parametrize("field", FIELDS)
def test_kernel_vectors_annihilate_and_are_independent(field):
    rng = random.Random(23)
    for _ in range(20):
        m = Matrix(field, [[field.sample(rng) for _ in range(5)] for _ in range(3)])
        ker = kernel_basis(m)
        for v in ker.entries:
            col = Matrix(field, [[x] for x in v])
            assert (m @ col).is_zero()
        assert rank(ker) == ker.rows
        assert rank(m) + ker.rows == m.cols


def _intersection_dim(a: Subspace, b: Subspace) -> int:
    """dim(A meet B) as the number of independent relations x A = y B
    between the canonical rows, found without `Subspace.sum`."""
    rows = [*a.rows.entries, *b.rows.entries]
    return kernel_basis(Matrix(a.field, rows).transpose()).rows if rows else 0


def test_subspace_ops_trivial_cases():
    a = Subspace.span(GF, 2, [[1, 0]])
    b = Subspace.span(GF, 2, [[1, 0]])
    assert (a.sum(b).dim, _intersection_dim(a, b)) == (1, 1)
    b = Subspace.span(GF, 2, [[0, 1]])
    assert (a.sum(b).dim, _intersection_dim(a, b)) == (2, 0)
    assert a.sum(b).dim - b.dim == 1


@pytest.mark.parametrize("field", FIELDS)
def test_subspace_dimension_identities_random(field):
    rng = random.Random(5)
    for _ in range(20):
        gens_a = [[field.sample(rng) for _ in range(4)] for _ in range(3)]
        gens_b = [[field.sample(rng) for _ in range(4)] for _ in range(2)]
        a, b = Subspace.span(field, 4, gens_a), Subspace.span(field, 4, gens_b)
        s = a.sum(b)
        assert a.dim + b.dim == s.dim + _intersection_dim(a, b)
        assert s.dim == rank(Matrix(field, gens_a + gens_b))
        for g in gens_a:
            assert a.contains(g) and s.contains(g)


def test_subspace_canonical_bases_are_equal_for_equal_spaces():
    a = Subspace.span(QQ, 3, [[1, 1, 0], [0, 2, 2]])
    b = Subspace.span(QQ, 3, [[2, 2, 0], [1, 3, 2], [3, 5, 2]])
    assert a == b and a.rows == b.rows


def test_mismatched_ambient_dimension_is_an_error():
    with pytest.raises(LinAlgError):
        Subspace.span(QQ, 3, [[1, 0]])
    with pytest.raises(LinAlgError):
        Subspace.span(QQ, 3, [[1, 0, 0]]).sum(Subspace.span(QQ, 2, [[1, 0]]))


@pytest.mark.parametrize("field", FIELDS)
def test_solve_and_inverse(field):
    rng = random.Random(3)
    for _ in range(10):
        m = Matrix(field, [[field.sample(rng) for _ in range(3)] for _ in range(3)])
        inv = inverse(m)
        if inv is not None:
            assert m @ inv == Matrix.identity(field, 3)
        b = Matrix(field, [[field.sample(rng)] for _ in range(3)])
        sol = solve(m, b)
        if sol is not None:
            assert m @ sol == b


@pytest.mark.parametrize("field", FIELDS)
def test_power_is_repeated_multiplication(field):
    rng = random.Random(5)
    m = Matrix(field, [[field.sample(rng) for _ in range(3)] for _ in range(3)])
    product = Matrix.identity(field, 3)
    for n in range(10):
        assert m.power(n) == product
        product = product @ m
    assert Matrix.zeros(field, 0, 0).power(3) == Matrix.zeros(field, 0, 0)


def test_negative_power_is_an_error():
    with pytest.raises(LinAlgError, match="negative"):
        Matrix(GF, [[1, 1], [0, 1]]).power(-1)
    with pytest.raises(LinAlgError, match="non-square"):
        Matrix(GF, [[1, 1]]).power(2)


@pytest.mark.parametrize("make", [
    lambda: Matrix._raw(GF, 1, 2, ((1, 2),)),
    lambda: Matrix.zeros(QQ, 2, 3),
    lambda: Matrix.identity(GF, 2),
    lambda: Matrix.from_rows(QQ, 0, 2, []),
    lambda: Matrix(GF, [[1, 2], [3, 4]]),
    lambda: Subspace.span(GF, 3, [[1, 2, 3], [2, 4, 6]]),
    lambda: Subspace.coordinate(QQ, 3, [0, 2]),
], ids=["raw", "zeros", "identity", "from-rows", "init", "span", "coordinate"])
@pytest.mark.parametrize("name", ["field", "rows", "cols", "entries", "ambient", "_pivots", "other"])
def test_kernel_objects_refuse_assignment(make, name):
    obj = make()
    before = {slot: getattr(obj, slot) for slot in type(obj).__slots__}
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    assert {slot: getattr(obj, slot) for slot in type(obj).__slots__} == before


def naive_product(a: Matrix, b: Matrix) -> Matrix:
    f = a.field
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = f.zero
            for k in range(a.cols):
                acc = f.add(acc, f.mul(a.entries[i][k], b.entries[k][j]))
            row.append(acc)
        rows.append(row)
    return Matrix.from_rows(f, a.rows, b.cols, rows)


@st.composite
def product_pairs(draw):
    field = draw(st.sampled_from([Field.gf(7), GF, QQ]))
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    if field.p is None:
        entry = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    else:
        entry = st.integers(0, field.p - 1)

    def matrix(rows, cols):
        return Matrix.from_rows(field, rows, cols, [[draw(entry) for _ in range(cols)]
                                                    for _ in range(rows)])
    return matrix(n, k), matrix(k, m)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(product_pairs())
def test_product_equals_the_naive_triple_loop(pair):
    a, b = pair
    product = a @ b
    assert product == naive_product(a, b)
    assert product.shape == (a.rows, b.cols)
    assert all(type(x) is type(a.field.zero) for row in product.entries for x in row)


def test_quotient_projection_kernel_is_the_subspace():
    w = Subspace.span(QQ, 4, [[1, 0, 2, 0], [0, 1, 1, 1]])
    quot = w.quotient()
    assert quot.dim == 2
    for row in w.rows.entries:
        assert all(x == 0 for x in quot.apply(row))
    assert (quot.projection @ quot.section()) == Matrix.identity(QQ, 2)


def test_candidate_factors_split_products():
    import random as _random
    from fovea.linalg import candidate_factors, poly_divmod, poly_mul
    rng = _random.Random(3)
    g7 = Field.gf(7)
    # (x^2 + 1)(x - 3) over GF(7); x^2 + 1 is irreducible there
    quad = [g7.one, g7.zero, g7.one]
    lin = [g7.neg(g7.coerce(3)), g7.one]
    poly = poly_mul(g7, quad, lin)
    factors = list(candidate_factors(g7, poly, rng))
    assert factors
    for fac in factors:
        assert poly_divmod(g7, poly, fac)[1] == []
    assert any(len(fac) == 2 for fac in factors)  # a linear divisor shows up

    # a squareful polynomial: (x - 2)^2 (x - 5)
    sq = poly_mul(g7, poly_mul(g7, [g7.coerce(-2), g7.one], [g7.coerce(-2), g7.one]),
                  [g7.coerce(-5), g7.one])
    factors = list(candidate_factors(g7, sq, rng))
    assert factors and all(poly_divmod(g7, sq, fac)[1] == [] for fac in factors)

    # over the rationals: x^2 - 1 splits at its rational roots
    qq = Field.rationals()
    poly_q = [qq.coerce(-1), qq.zero, qq.one]
    factors = list(candidate_factors(qq, poly_q, rng))
    assert any(len(fac) == 2 for fac in factors)


def test_is_prime_agrees_with_a_sieve_below_200000():
    n = 200_000
    sieve = [False, False] + [True] * (n - 2)
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, n, p))
    assert [_is_prime(k) for k in range(n)] == sieve


@pytest.mark.parametrize("p", [10**18 + 3, 2**61 - 1])
def test_is_prime_accepts_large_primes(p):
    assert _is_prime(p) and Field.gf(p).p == p


@pytest.mark.parametrize("n", [561, 3_215_031_751, 3_825_123_056_546_413_051])
def test_is_prime_rejects_pseudoprimes(n):
    # a Carmichael number, and the least strong pseudoprimes to the bases
    # 2, 3, 5, 7 and to the primes up to 23
    assert not _is_prime(n)
    with pytest.raises(LinAlgError, match="is not prime"):
        Field.gf(n)


def test_is_prime_refuses_an_order_it_cannot_decide_exactly():
    bound = 3_317_044_064_679_887_385_961_981
    assert not _is_prime(bound - 1)       # decided: it is even
    with pytest.raises(LinAlgError, match=str(bound)):
        Field.gf(bound + 2)


def test_a_quiver_over_a_large_prime_field_parses_at_once():
    # trial division up to the square root takes 5 * 10^8 steps on this order
    code = ("from fovea.quiver import parse_quiver\n"
            "q = parse_quiver('field gf 1000000000000000003\\nnilbound 2\\nvertex 1 2\\n'\n"
            "                 'arrow a: 1 -> 2\\n')\n"
            "print(q.field.spec())\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd="src", timeout=5)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "gf:1000000000000000003\n"
