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
entry for entry.  `Subspace.reduce`, `coords` and `contains` do the same.

Two kernel routines give the same canonical basis.  `kernel_basis` takes
a dense `Matrix` through `rref`; trace pairings and presentations are
dense, and sending them through the sparse routine made no run faster.
A Fitting split runs the elimination of `rref`, `_gauss_jordan`, on plain
rows.  A hom space's naturality system has a few entries per row, often
no row at all: `_echelon_reduce` files its rows as `{column: entry}`
dicts into an echelon form whose size gives the dimension, and
`_echelon_kernel`, run only once the basis is read, reads the canonical
basis and its pivots off it, with no dense row written.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd as _int_gcd
from operator import mul as _mul


class LinAlgError(ValueError):
    pass


def parse_int(token: str) -> int:
    """An optional sign, then ASCII digits; anything else, such as the
    underscores and non-ASCII digits that int() accepts, is a ValueError."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson-Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; an order not below `_MR_BOUND` is
    refused, not guessed."""
    if n >= _MR_BOUND:
        raise LinAlgError(f"field order {n} is not below {_MR_BOUND}, "
                          "the bound up to which primality is decided exactly")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1    # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        # a witnesses that n is composite unless a^d = 1 or some a^(d 2^r) = -1
        xs = [pow(a, d << r, n) for r in range(s)]
        if xs[0] != 1 and n - 1 not in xs:
            return False
    return True


class Field:
    """GF(p) for a prime p, or the rationals when p is None."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise LinAlgError(f"field order {p} is not prime")
        object.__setattr__(self, "p", p)
        # field elements are immutable, so every read can share these
        object.__setattr__(self, "zero", Fraction(0) if p is None else 0)
        object.__setattr__(self, "one", Fraction(1) if p is None else 1)

    @classmethod
    def rationals(cls) -> "Field":
        return cls(None)

    @classmethod
    def gf(cls, p: int) -> "Field":
        return cls(p)

    @property
    def is_rational(self) -> bool:
        return self.p is None

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
            value = Fraction(parse_int(num), parse_int(den)) if slash else parse_int(num)
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
        return Field.gf(parse_int(s[3:]))
    raise LinAlgError(f"unknown field spec {spec!r}")


class Matrix:
    """Immutable dense matrix over a Field, row-major."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries):
        data = tuple(tuple(field.coerce(x) for x in row) for row in entries)
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise LinAlgError("ragged matrix rows")
        _matrix_field(self, field)
        _matrix_rows(self, len(data))
        _matrix_cols(self, ncols)
        _matrix_entries(self, data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _raw(cls, field, rows, cols, entries) -> "Matrix":
        m = _new(cls)
        _matrix_field(m, field)
        _matrix_rows(m, rows)
        _matrix_cols(m, cols)
        _matrix_entries(m, entries)
        return m

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        # rows are immutable tuples, so every row can be the same one
        return cls._raw(field, rows, cols, ((field.zero,) * cols,) * rows)

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
            zero = Fraction(0)
            out = tuple([tuple([sum(map(_mul, row, col), zero) for col in cols])
                         for row in self.entries])
        else:
            p = f.p
            out = tuple([tuple([sum(map(_mul, row, col)) % p for col in cols])
                         for row in self.entries])
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
        if self.shape != other.shape:
            raise LinAlgError("shape mismatch in -")
        f, p = self.field, self.field.p
        return Matrix._raw(
            f, self.rows, self.cols,
            tuple(tuple([a - b for a, b in zip(r1, r2)] if p is None else
                        [(a - b) % p for a, b in zip(r1, r2)])
                  for r1, r2 in zip(self.entries, other.entries)))

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

    def trace(self):
        return self.field.coerce(sum((self.entries[i][i] for i in range(min(self.rows, self.cols))),
                                     self.field.zero))

    def power(self, n: int) -> "Matrix":
        """self^n for n >= 0, by squaring; the last square is never formed."""
        if self.rows != self.cols:
            raise LinAlgError("power of non-square matrix")
        if n < 0:
            raise LinAlgError(f"negative matrix power {n}")
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result @ base
            n >>= 1
            if not n:
                return Matrix.identity(self.field, self.rows) if result is None else result
            base = base @ base

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


# an immutable object's slots are set through their descriptors, which skip
# the __setattr__ that refuses assignment and cost less than object.__setattr__
_new = object.__new__
_matrix_field, _matrix_rows, _matrix_cols, _matrix_entries = (
    getattr(Matrix, name).__set__ for name in Matrix.__slots__)


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


def _place_blocks(field: Field, rows: int, cols: int, blocks) -> Matrix:
    """The rows x cols matrix that is zero but for each (r0, c0, m) of
    blocks, with m's top left entry at (r0, c0)."""
    grid = [[field.zero] * cols for _ in range(rows)]
    for r0, c0, m in blocks:
        for i, row in enumerate(m.entries):
            grid[r0 + i][c0:c0 + m.cols] = row
    return Matrix._raw(field, rows, cols, tuple(tuple(r) for r in grid))


def block_diag(field: Field, mats) -> Matrix:
    mats = list(mats)
    corners = zip(accumulate((m.rows for m in mats), initial=0),
                  accumulate((m.cols for m in mats), initial=0), mats)
    return _place_blocks(field, sum(m.rows for m in mats), sum(m.cols for m in mats), corners)


@dataclass(frozen=True)
class RREF:
    rank: int
    matrix: Matrix
    pivots: tuple[int, ...]


def rref(m: Matrix) -> RREF:
    """Unique reduced row echelon form (Gauss-Jordan, exact)."""
    rows = [list(r) for r in m.entries]
    pivots = _gauss_jordan(rows, m.cols, m.field.p)
    out = Matrix._raw(m.field, m.rows, m.cols, tuple(tuple(row) for row in rows))
    return RREF(len(pivots), out, tuple(pivots))


def _gauss_jordan(rows: list, ncols: int, p) -> list:
    """Reduce a list of row lists to its rref in place; returns the pivots."""
    nrows = len(rows)
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
    return pivots


def rank(m: Matrix) -> int:
    return len(_gauss_jordan([list(r) for r in m.entries], m.cols, m.field.p))


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


def _echelon_reduce(echelon: dict, row: dict, p, insert: bool = True) -> bool:
    """Reduce a sparse row {column: nonzero entry} in place by an echelon
    form keyed by leading column, and say whether it lay in its span.

    p is the characteristic, None over Q.  An echelon row is held without
    its leading 1, as the entries right of it.  A row left nonzero is
    filed at its leading column, scaled to a leading 1, when insert holds.
    """
    while row:
        c = min(row)
        tail = echelon.get(c)
        if tail is None:
            if insert:
                lead = row.pop(c)
                if p is None:
                    inv = 1 / lead
                    echelon[c] = {k: inv * x for k, x in row.items()}
                elif lead != 1:
                    inv = pow(lead, -1, p)
                    echelon[c] = {k: inv * x % p for k, x in row.items()}
                else:
                    echelon[c] = row
            return False
        _axpy(row, row.pop(c), tail, p)
    return True


def _back_substitute(echelon: dict, p) -> None:
    """Clear every pivot column from the other rows of an echelon form
    kept by `_echelon_reduce`, which makes it the reduced row echelon form.

    Rows are reduced from the last pivot, so that every tail used is
    already reduced."""
    for c in sorted(echelon, reverse=True):
        row = echelon[c]
        for k in [k for k in row if k in echelon]:
            _axpy(row, row.pop(k), echelon[k], p)


def _echelon_subspace(field: Field, n: int, echelon: dict) -> "Subspace":
    """The subspace of K^n spanned by an echelon form kept by
    `_echelon_reduce`, read off in canonical form (the form is consumed)."""
    _back_substitute(echelon, field.p)
    zero, one = field.zero, field.one
    pivots = sorted(echelon)
    rows = []
    for c in pivots:
        row = [zero] * n
        row[c] = one
        for k, x in echelon[c].items():
            row[k] = x
        rows.append(tuple(row))
    return Subspace(field, n, Matrix._raw(field, len(rows), n, tuple(rows)), tuple(pivots))


def _echelon_kernel(field: Field, n: int, echelon: dict) -> "Subspace":
    """The canonical null space in K^n of a system whose column n-1-u holds
    unknown u, from its echelon form kept by `_echelon_reduce` (consumed).

    Back-substituted once and read off as in `kernel_basis`: the vector of
    free column fc has its leading 1, its pivot, at n-1-fc."""
    p = field.p
    _back_substitute(echelon, p)
    zero, one = field.zero, field.one
    vecs = {fc: [zero] * n for fc in range(n - 1, -1, -1) if fc not in echelon}
    for fc, v in vecs.items():
        v[n - 1 - fc] = one
    for c, row in echelon.items():
        i = n - 1 - c
        for fc, x in row.items():
            vecs[fc][i] = -x if p is None else p - x
    return Subspace(field, n, Matrix._raw(field, len(vecs), n, tuple(map(tuple, vecs.values()))),
                    tuple(n - 1 - fc for fc in vecs))


def _axpy(row: dict, factor, tail: dict, p) -> None:
    """row -= factor * tail in place, dropping the entries that vanish."""
    get = row.get
    if p is None:
        for k, y in tail.items():
            x = get(k, 0) - factor * y
            if x:
                row[k] = x
            else:
                del row[k]
    else:
        for k, y in tail.items():
            x = (get(k, 0) - factor * y) % p
            if x:
                row[k] = x
            else:
                del row[k]


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution X of a @ X = b, or None if inconsistent."""
    if a.rows != b.rows:
        raise LinAlgError("shape mismatch in solve")
    f = a.field
    if a.cols == 0:
        return Matrix.zeros(f, 0, b.cols) if b.is_zero() else None
    if b.cols == 0:
        return Matrix.zeros(f, a.cols, 0)
    rows = [[*ra, *rb] for ra, rb in zip(a.entries, b.entries)]
    n = a.cols
    x = [(f.zero,) * b.cols] * n
    for row, p in zip(rows, _gauss_jordan(rows, n + b.cols, f.p)):
        if p >= n:
            return None
        x[p] = tuple(row[n:])
    return Matrix._raw(f, n, b.cols, tuple(x))


def inverse(m: Matrix) -> Matrix | None:
    if m.rows != m.cols:
        return None
    return solve(m, Matrix.identity(m.field, m.rows))


class Subspace:
    """A subspace of K^n held in canonical (rref-row) form."""

    __slots__ = ("field", "ambient", "rows", "_pivots")

    def __init__(self, field: Field, ambient: int, rows: Matrix, pivots=None):
        """rows must be in canonical form; pivots, if given, are their
        leading columns, which are otherwise scanned for."""
        _subspace_field(self, field)
        _subspace_ambient(self, ambient)
        _subspace_rows(self, rows)
        if pivots is None:
            one = field.one
            pivots = tuple(next(i for i, x in enumerate(row) if x == one) for row in rows.entries)
        _subspace_pivots(self, pivots)

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

    @classmethod
    def coordinate(cls, field: Field, ambient: int, indices) -> "Subspace":
        """Span of the unit vectors e_i for increasing indices i.

        Those rows are already in canonical form, so nothing is reduced.
        """
        z, o = field.zero, field.one
        rows = tuple(tuple(o if j == i else z for j in range(ambient)) for i in indices)
        return cls(field, ambient, Matrix._raw(field, len(rows), ambient, rows))

    @property
    def dim(self) -> int:
        return self.rows.rows

    @property
    def pivots(self) -> tuple[int, ...]:
        """The leading column of each canonical row: the coordinates of a
        vector of the subspace are its entries there."""
        return self._pivots

    def reduce(self, v) -> tuple:
        """Remainder of v after elimination by the canonical basis rows."""
        return tuple(self._eliminate(v, None))

    def contains(self, v) -> bool:
        return not any(self._eliminate(v, None))

    def coords(self, v):
        """Coefficients of v in the canonical basis, or None if outside."""
        out = []
        if any(self._eliminate(v, out)):
            return None
        return tuple(out)

    def _eliminate(self, v, out):
        """Eliminate v by each basis row in turn, appending the
        coefficient used to out (unless None); returns the remainder.

        A row is zero left of its pivot and 1 there, so only the columns
        from the pivot on change."""
        f = self.field
        p = f.p
        v = [f.coerce(x) for x in v]
        for row, c in zip(self.rows.entries, self._pivots):
            factor = v[c]
            if out is not None:
                out.append(factor)
            if factor:
                if p is None:
                    v[c:] = [x - factor * y for x, y in zip(v[c:], row[c:])]
                else:
                    v[c:] = [(x - factor * y) % p for x, y in zip(v[c:], row[c:])]
        return v

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace.span(self.field, self.ambient, list(self.rows.entries) + list(other.rows.entries))

    def quotient(self) -> "QuotientMap":
        """The canonical projection onto the non-pivot coordinates, read
        off the rows: reducing the unit vector of a pivot column j takes
        away exactly the row with pivot j, so column j projects to minus
        that row on the representatives."""
        f = self.field
        n = self.ambient
        pivots = set(self._pivots)
        reps = tuple(i for i in range(n) if i not in pivots)
        proj = [[f.zero] * n for _ in reps]
        for i, r in enumerate(reps):
            proj[i][r] = f.one
        for c, row in zip(self._pivots, self.rows.entries):
            for i, r in enumerate(reps):
                if row[r]:
                    proj[i][c] = f.neg(row[r])
        return QuotientMap(f, self, Matrix._raw(f, len(reps), n, tuple(map(tuple, proj))), reps)

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.ambient == other.ambient and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.ambient})"


_subspace_field, _subspace_ambient, _subspace_rows, _subspace_pivots = (
    getattr(Subspace, name).__set__ for name in Subspace.__slots__)


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
        f, n, reps = self.field, self.subspace.ambient, self.representatives
        return Matrix._raw(f, n, len(reps), tuple(tuple(f.one if i == r else f.zero for r in reps)
                                                  for i in range(n)))


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
    a, b = poly_trim(a), poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [f.zero] * max(0, len(a) - len(b) + 1)
    r = _poly_reduce(a, b, f.inv(b[-1]), f.p, q)
    return poly_trim(q), r


def _poly_reduce(r: list, b: list, inv_lead, p, q: list | None = None) -> list:
    """r modulo b in place, with inv_lead = 1 / lead(b); the quotient goes into q if given."""
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
        if q is not None:
            q[shift] = c
        while r and not r[-1]:
            r.pop()
    return r


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
    """base^e modulo mod by squaring, inverting lead(mod) once and reducing
    each product in place; the square after the last bit is not formed."""
    mod = poly_trim(mod)
    if not mod:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead, p = f.inv(mod[-1]), f.p
    result, base = [f.one], _poly_reduce(poly_trim(base), mod, inv_lead, p)
    while e:
        if e & 1:
            result = _poly_reduce(poly_mul(f, result, base), mod, inv_lead, p)
        e >>= 1
        if e:
            base = _poly_reduce(poly_mul(f, base, base), mod, inv_lead, p)
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


def poly_is_irreducible(f: Field, poly) -> bool:
    """Irreducibility of a nonconstant polynomial.

    Over GF(p), poly of degree n is irreducible iff it has no factor of
    degree k <= n/2, that is iff gcd(x^(p^k) - x, poly) = 1 for each such
    k.  Over Q only degrees up to 3 are decided (no rational root); a
    larger rational polynomial is reported reducible.
    """
    poly = poly_monic(f, poly_trim(list(poly)))
    n = poly_deg(poly)
    if n < 1:
        return False
    if f.p is None:
        return n <= 3 and not _rational_roots(poly)
    x = [f.zero, f.one]
    xq = x
    for _ in range(n // 2):
        xq = poly_pow_mod(f, xq, f.p, poly)
        diff = poly_trim([f.sub(a, b) for a, b in
                          zip(xq + [f.zero] * 2, x + [f.zero] * len(xq))])
        if not diff or poly_deg(poly_gcd(f, diff, poly)) > 0:
            return False
    return True


def candidate_factors(f: Field, poly, rng, tries: int = 8):
    """Proper monic divisors of poly, best effort, each computed only
    when the caller reads it.

    Over GF(p): square-free split, distinct-degree gcds, and a few
    equal-degree splitting rounds.  Over Q: square-free split plus
    rational roots.  Completeness is not needed; callers just try each
    divisor as a Fitting-split candidate.
    """
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
