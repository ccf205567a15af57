"""Exact linear algebra over the rationals and over prime fields.

Scalars are `fractions.Fraction` (rationals) or plain ints reduced mod p.
Matrices are immutable, and every reduction routine returns a unique
canonical form, so two equal subspaces always produce literally equal
bases.  Nothing in here is floating point.

The hot loops (`rref`, `poly_mul`, `poly_divmod`) branch once on the
field and do the arithmetic inline, `(x - c*y) % p` over GF(p) and
`x - c*y` over Q, instead of calling the `Field` methods per entry.  The
GF(p) branches return the residues the `Field` methods would (`poly_mul`
reduces once, after summing), so they compute the same canonical forms
entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd

DEFAULT_PRIME = 32749


class LinAlgError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """GF(p) for a prime p, or the rationals when p is None."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise LinAlgError(f"field order {p} is not prime")
        object.__setattr__(self, "p", p)

    @classmethod
    def rationals(cls) -> "Field":
        return cls(None)

    @classmethod
    def gf(cls, p: int) -> "Field":
        return cls(p)

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def coerce(self, v):
        if self.p is None:
            return Fraction(v)
        if type(v) is int:
            return v % self.p
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise LinAlgError(f"denominator of {v} vanishes mod {self.p}")
            return v.numerator * pow(v.denominator, -1, self.p) % self.p
        return int(v) % self.p

    def add(self, a, b):
        return (a + b) if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return (a - b) if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return (a * b) if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return 1 / a if self.p is None else pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def sample(self, rng):
        """Draw a pseudo-random element; small integers over the rationals."""
        if self.p is None:
            return Fraction(rng.randrange(-19, 20))
        return rng.randrange(self.p)

    def parse(self, token: str):
        """An integer or a fraction num/den; LinAlgError if it is neither."""
        token = token.strip()
        num, slash, den = token.partition("/")
        try:
            value = Fraction(int(num), int(den)) if slash else int(num)
        except ValueError:
            raise LinAlgError(f"not a number: {token!r}") from None
        except ZeroDivisionError:
            raise LinAlgError(f"zero denominator in {token!r}") from None
        return self.coerce(value)

    def format(self, x) -> str:
        if self.p is None:
            x = Fraction(x)
            if x.denominator == 1:
                return str(x.numerator)
            return f"{x.numerator}/{x.denominator}"
        return str(x % self.p)

    def spec(self) -> str:
        return "q" if self.p is None else f"gf:{self.p}"

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Field(Q)" if self.p is None else f"Field(GF({self.p}))"


def parse_field_spec(spec: str) -> Field:
    """Accepts "q", "gf:<p>" or "gf <p>" (as written in quiver files)."""
    s = spec.strip().lower().replace(" ", ":")
    if s in ("q", "qq", "rationals"):
        return Field.rationals()
    if s.startswith("gf:"):
        return Field.gf(int(s[3:]))
    raise LinAlgError(f"unknown field spec {spec!r}")


class Matrix:
    """Immutable dense matrix over a Field, row-major."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries):
        data = tuple(tuple(field.coerce(x) for x in row) for row in entries)
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise LinAlgError("ragged matrix rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _raw(cls, field, rows, cols, entries) -> "Matrix":
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return cls._raw(field, rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls._raw(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @classmethod
    def from_rows(cls, field: Field, rows: int, cols: int, entries) -> "Matrix":
        """Build with an explicit shape; needed for 0 x k and k x 0 shapes."""
        data = tuple(tuple(field.coerce(x) for x in row) for row in entries)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise LinAlgError(f"expected shape {(rows, cols)}")
        return cls._raw(field, rows, cols, data)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.entries for x in row)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise LinAlgError(f"shape mismatch {self.shape} @ {other.shape}")
        f = self.field
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Matrix.zeros(f, self.rows, other.cols)
        cols = tuple(zip(*other.entries))
        if f.p is None:
            out = tuple(
                tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols)
                for row in self.entries
            )
        else:
            p = f.p
            out = tuple(
                tuple(sum(a * b for a, b in zip(row, col)) % p for col in cols)
                for row in self.entries
            )
        return Matrix._raw(f, self.rows, other.cols, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise LinAlgError("shape mismatch in +")
        f = self.field
        return Matrix._raw(
            f, self.rows, self.cols,
            tuple(tuple(f.add(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix._raw(f, self.rows, self.cols, tuple(tuple(f.neg(a) for a in r) for r in self.entries))

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c)
        return Matrix._raw(f, self.rows, self.cols, tuple(tuple(f.mul(c, a) for a in r) for r in self.entries))

    def transpose(self) -> "Matrix":
        if self.rows == 0 or self.cols == 0:
            return Matrix.zeros(self.field, self.cols, self.rows)
        return Matrix._raw(self.field, self.cols, self.rows, tuple(zip(*self.entries)))

    def row(self, i):
        return self.entries[i]

    def trace(self):
        f = self.field
        t = f.zero
        for i in range(min(self.rows, self.cols)):
            t = f.add(t, self.entries[i][i])
        return t

    def power(self, n: int) -> "Matrix":
        if self.rows != self.cols:
            raise LinAlgError("power of non-square matrix")
        result = Matrix.identity(self.field, self.rows)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.entries!r})"


def hstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise LinAlgError("hstack of nothing")
    f, r = mats[0].field, mats[0].rows
    if any(m.rows != r for m in mats):
        raise LinAlgError("row mismatch in hstack")
    entries = tuple(tuple(x for m in mats for x in m.entries[i]) for i in range(r))
    return Matrix._raw(f, r, sum(m.cols for m in mats), entries)


def vstack(mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise LinAlgError("vstack of nothing")
    f, c = mats[0].field, mats[0].cols
    if any(m.cols != c for m in mats):
        raise LinAlgError("col mismatch in vstack")
    entries = tuple(row for m in mats for row in m.entries)
    return Matrix._raw(f, sum(m.rows for m in mats), c, entries)


def block_diag(field: Field, mats) -> Matrix:
    mats = list(mats)
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    z = field.zero
    grid = [[z] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            grid[r0 + i][c0:c0 + m.cols] = list(m.entries[i])
        r0 += m.rows
        c0 += m.cols
    return Matrix._raw(field, rows, cols, tuple(tuple(r) for r in grid))


@dataclass(frozen=True)
class RREF:
    rank: int
    matrix: Matrix
    pivots: tuple[int, ...]


def rref(m: Matrix) -> RREF:
    """Unique reduced row echelon form (Gauss-Jordan, exact)."""
    f = m.field
    p = f.p
    rows = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        # the pivot row is zero left of c, so only columns c.. change
        row = rows[r]
        if p is None:
            inv = 1 / row[c]
            top = [inv * x for x in row[c:]]
        else:
            inv = pow(row[c], -1, p)
            top = [inv * x % p for x in row[c:]]
        rows[r] = row[:c] + top
        for i in range(nrows):
            row = rows[i]
            factor = row[c]
            if factor and i != r:
                if p is None:
                    rows[i] = row[:c] + [x - factor * y for x, y in zip(row[c:], top)]
                else:
                    rows[i] = row[:c] + [(x - factor * y) % p for x, y in zip(row[c:], top)]
        pivots.append(c)
        r += 1
    out = Matrix._raw(f, nrows, ncols, tuple(tuple(row) for row in rows))
    return RREF(r, out, tuple(pivots))


def rank(m: Matrix) -> int:
    return rref(m).rank


def row_space(m: Matrix) -> Matrix:
    """Canonical basis of the row space: the nonzero rows of the rref."""
    red = rref(m)
    return Matrix._raw(m.field, red.rank, m.cols, red.matrix.entries[:red.rank])


def kernel_basis(m: Matrix) -> Matrix:
    """Canonical basis (as rows) of the right null space of m.

    One elimination of m with its columns reversed: the kernel vector of
    each free column, read back in the original order, has its leading 1
    at that column and zeros at every other free column, so the vectors
    are already the reduced row echelon form of the null space.
    """
    f = m.field
    n = m.cols
    red = rref(Matrix._raw(f, m.rows, n, tuple(row[::-1] for row in m.entries)))
    pivots = set(red.pivots)
    vecs = []
    for fc in reversed(range(n)):
        if fc in pivots:
            continue
        v = [f.zero] * n
        v[n - 1 - fc] = f.one
        for i, pc in enumerate(red.pivots):
            v[n - 1 - pc] = f.neg(red.matrix.entries[i][fc])
        vecs.append(tuple(v))
    return Matrix._raw(f, len(vecs), n, tuple(vecs))


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution X of a @ X = b, or None if inconsistent."""
    if a.rows != b.rows:
        raise LinAlgError("shape mismatch in solve")
    f = a.field
    if a.cols == 0:
        return Matrix.zeros(f, 0, b.cols) if b.is_zero() else None
    if b.cols == 0:
        return Matrix.zeros(f, a.cols, 0)
    red = rref(hstack([a, b]))
    n = a.cols
    x = [[f.zero] * b.cols for _ in range(n)]
    for i, p in enumerate(red.pivots):
        if p >= n:
            return None
        x[p] = list(red.matrix.entries[i][n:])
    return Matrix(f, x)


def inverse(m: Matrix) -> Matrix | None:
    if m.rows != m.cols:
        return None
    if m.rows == 0:
        return Matrix.zeros(m.field, 0, 0)
    return solve(m, Matrix.identity(m.field, m.rows))


class Subspace:
    """A subspace of K^n held in canonical (rref-row) form."""

    __slots__ = ("field", "ambient", "rows", "_pivots")

    def __init__(self, field: Field, ambient: int, rows: Matrix):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "rows", rows)
        f = field
        pivots = []
        for row in rows.entries:
            pivots.append(next(i for i, x in enumerate(row) if x == f.one))
        object.__setattr__(self, "_pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, field: Field, ambient: int, vectors) -> "Subspace":
        vecs = [list(v) for v in vectors]
        if not vecs:
            return cls(field, ambient, Matrix.zeros(field, 0, ambient))
        m = Matrix(field, vecs)
        if m.cols != ambient:
            raise LinAlgError("generator length does not match ambient dimension")
        return cls(field, ambient, row_space(m))

    @property
    def dim(self) -> int:
        return self.rows.rows

    def reduce(self, v) -> tuple:
        """Remainder of v after elimination by the canonical basis rows."""
        f = self.field
        v = [f.coerce(x) for x in v]
        for row, pivot in zip(self.rows.entries, self._pivots):
            c = v[pivot]
            if c:
                v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, v) -> bool:
        z = self.field.zero
        return all(x == z for x in self.reduce(v))

    def coords(self, v):
        """Coefficients of v in the canonical basis, or None if outside."""
        f = self.field
        v = [f.coerce(x) for x in v]
        out = []
        for row, pivot in zip(self.rows.entries, self._pivots):
            c = v[pivot]
            out.append(c)
            if c:
                v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
        if any(x != f.zero for x in v):
            return None
        return tuple(out)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace.span(self.field, self.ambient, list(self.rows.entries) + list(other.rows.entries))

    def quotient(self) -> "QuotientMap":
        f = self.field
        reps = tuple(i for i in range(self.ambient) if i not in set(self._pivots))
        cols = []
        for j in range(self.ambient):
            e = [f.zero] * self.ambient
            e[j] = f.one
            red = self.reduce(e)
            cols.append([red[i] for i in reps])
        if self.ambient and reps:
            proj = Matrix(f, cols).transpose()
        else:
            proj = Matrix.zeros(f, len(reps), self.ambient)
        return QuotientMap(f, self, proj, reps)

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.ambient == other.ambient and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.ambient})"


@dataclass(frozen=True)
class QuotientMap:
    """Canonical projection K^n -> K^(n-d) whose kernel is the subspace."""

    field: Field
    subspace: Subspace
    projection: Matrix                  # (n - d) x n
    representatives: tuple[int, ...]    # ambient coordinates giving a section

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def apply(self, v) -> tuple:
        red = self.subspace.reduce(v)
        return tuple(red[i] for i in self.representatives)

    def section(self) -> Matrix:
        f = self.field
        n = self.subspace.ambient
        if not self.representatives:
            return Matrix.zeros(f, n, 0)
        cols = []
        for r in self.representatives:
            e = [f.zero] * n
            e[r] = f.one
            cols.append(e)
        return Matrix(f, cols).transpose()


@dataclass(frozen=True)
class SubspaceOps:
    """Dimension bookkeeping for a pair of subspaces of a shared ambient."""

    a: Subspace
    b: Subspace
    sum_dim: int
    intersection_dim: int
    quotient_dim: int

    def in_a(self, v) -> bool:
        return self.a.contains(v)

    def in_b(self, v) -> bool:
        return self.b.contains(v)

    def in_sum(self, v) -> bool:
        return self.a.sum(self.b).contains(v)


def subspace_ops(field: Field, ambient: int, gens_a, gens_b) -> SubspaceOps:
    a = Subspace.span(field, ambient, gens_a)
    b = Subspace.span(field, ambient, gens_b)
    s = a.sum(b)
    inter = a.dim + b.dim - s.dim
    return SubspaceOps(a, b, s.dim, inter, s.dim - b.dim)


# ---------------------------------------------------------------------------
# dense polynomial helpers (ascending coefficients); used for module splitting


def poly_trim(p: list) -> list:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def poly_deg(p) -> int:
    return len(p) - 1


def poly_mul(f: Field, a, b):
    if not a or not b:
        return []
    out = [f.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    if f.p is not None:
        p = f.p
        out = [c % p for c in out]
    return poly_trim(out)


def poly_divmod(f: Field, a, b):
    a = poly_trim(a)
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    p = f.p
    q = [f.zero] * max(0, len(a) - len(b) + 1)
    r = a
    inv_lead = f.inv(b[-1])
    while len(r) >= len(b):
        shift = len(r) - len(b)
        if p is None:
            c = r[-1] * inv_lead
            for i, y in enumerate(b, shift):
                r[i] = r[i] - c * y
        else:
            c = r[-1] * inv_lead % p
            for i, y in enumerate(b, shift):
                r[i] = (r[i] - c * y) % p
        q[shift] = c
        while r and not r[-1]:
            r.pop()
    return poly_trim(q), r


def poly_monic(f: Field, a):
    a = poly_trim(a)
    if not a:
        return a
    inv = f.inv(a[-1])
    return [f.mul(inv, x) for x in a]


def poly_gcd(f: Field, a, b):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, r = poly_divmod(f, a, b)
        a, b = b, r
    return poly_monic(f, a)


def poly_deriv(f: Field, a):
    return poly_trim([f.mul(f.coerce(i), a[i]) for i in range(1, len(a))])


def poly_pow_mod(f: Field, base, e: int, mod):
    result = [f.one]
    base = poly_divmod(f, base, mod)[1]
    while e:
        if e & 1:
            result = poly_divmod(f, poly_mul(f, result, base), mod)[1]
        base = poly_divmod(f, poly_mul(f, base, base), mod)[1]
        e >>= 1
    return result


def _divisors(n: int):
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _rational_roots(poly):
    """All rational roots of a polynomial with rational coefficients."""
    fracs = [Fraction(c) for c in poly_trim(list(poly))]
    if not fracs:
        return set()
    den = 1
    for c in fracs:
        den = den * c.denominator // _int_gcd(den, c.denominator)
    ints = [int(c * den) for c in fracs]
    roots = set()
    while ints and ints[0] == 0:
        roots.add(Fraction(0))
        ints = ints[1:]
    if len(ints) > 1:
        a0, an = abs(ints[0]), abs(ints[-1])
        for num in _divisors(a0):
            for den2 in _divisors(an):
                for cand in (Fraction(num, den2), Fraction(-num, den2)):
                    val = Fraction(0)
                    for c in reversed(ints):
                        val = val * cand + c
                    if val == 0:
                        roots.add(cand)
    return roots


def candidate_factors(f: Field, poly, rng, tries: int = 8) -> list:
    """Proper monic divisors of poly, best effort.

    Over GF(p): square-free split, distinct-degree gcds, and a few
    equal-degree splitting rounds.  Over Q: square-free split plus
    rational roots.  Completeness is not needed; callers just try each
    returned divisor as a Fitting-split candidate.
    """
    return list(_candidate_factors(f, poly, rng, tries))


def _candidate_factors(f: Field, poly, rng, tries: int = 8):
    """The divisors of `candidate_factors`, in its order and with its rng
    draws, computed only as far as the caller reads."""
    poly = poly_monic(f, poly_trim(list(poly)))
    n = poly_deg(poly)
    seen: set[tuple] = set()

    def emit(g):
        g = poly_monic(f, poly_trim(list(g)))
        key = tuple(g)
        if 0 < poly_deg(g) < n and key not in seen:
            seen.add(key)
            yield g

    if n <= 1:
        return
    d = poly_gcd(f, poly, poly_deriv(f, poly))
    if poly_deg(d) > 0:
        yield from emit(d)
        square_free = poly_divmod(f, poly, d)[0]
        yield from emit(square_free)
    else:
        square_free = poly

    if f.p is None:
        for root in _rational_roots(square_free):
            yield from emit([f.neg(f.coerce(root)), f.one])
        return

    p = f.p
    x = [f.zero, f.one]
    remaining = poly_monic(f, square_free)
    xq = poly_divmod(f, x, remaining)[1]
    degree = 1
    while poly_deg(remaining) >= 1 and degree <= poly_deg(remaining):
        xq = poly_pow_mod(f, xq, p, remaining)
        diff = poly_trim([f.sub(a, b) for a, b in
                          zip(xq + [f.zero] * (len(x) + 1), x + [f.zero] * (len(xq) + 1))])
        part = poly_gcd(f, diff, remaining) if diff else remaining
        if 0 < poly_deg(part):
            yield from emit(part)
            yield from emit(poly_divmod(f, poly, part)[0])
            if poly_deg(part) > degree and p % 2 == 1:
                # equal-degree splits inside `part` (Cantor-Zassenhaus)
                for _ in range(tries):
                    r = [f.sample(rng) for _ in range(poly_deg(part))] + [f.one]
                    h = poly_pow_mod(f, r, (p ** degree - 1) // 2, part)
                    h = poly_trim([f.sub(a, b) for a, b in
                                   zip(h + [f.zero] * 2, [f.one] + [f.zero] * (len(h) + 1))])
                    if not h:
                        continue
                    g = poly_gcd(f, h, part)
                    if 0 < poly_deg(g) < poly_deg(part):
                        yield from emit(g)
                        yield from emit(poly_divmod(f, part, g)[0])
            remaining = poly_divmod(f, remaining, part)[0]
            if poly_deg(remaining) >= 1:
                xq = poly_divmod(f, xq, remaining)[1]
        degree += 1
