"""Finite-dimensional modules over a bound quiver.

A module assigns a space to each vertex and a matrix to each arrow; for
an arrow a: x -> y the matrix has shape dims(x) x dims(y) and represents
the structure map M(y) -> M(x) on column vectors (modules are
contravariant).  All hom computations are exact kernel computations, so
bases are canonical and runs are reproducible.
"""

from __future__ import annotations

import random
import weakref
from itertools import islice
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from operator import mul as _mul

from .linalg import (
    LinAlgError,
    Matrix,
    Subspace,
    block_diag,
    candidate_factors,
    hstack,
    kernel_basis,
    parse_int,
    poly_is_irreducible,
    rank,
    row_space,
    solve,
    vstack,
    _axpy,
    _echelon_kernel,
    _echelon_reduce,
    _gauss_jordan,
)
from .quiver import BoundQuiver, opposite_quiver, path_basis

DEFAULT_SEED = 0
MAX_TRIES = 64      # endomorphisms `decompose` tries on one piece before it gives up


class ModuleError(ValueError):
    pass


class ModuleParseError(ModuleError):
    """A malformed module file; names the offending line."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class DecompositionError(ModuleError):
    pass


class AlmostSplitError(ModuleError):
    pass


class Module:
    """A representation of a bound quiver satisfying its relations.

    It is never changed after construction, so it memoises dim Hom(M, N)
    per partner N (`hom_space`); the memo takes no part in equality,
    hashing, `repr` or `sort_key`.
    """

    _hom_dims: "dict | None" = None     # set on the instance by `hom_space`

    def __init__(self, bq: BoundQuiver, dims: dict, mats: dict, check: bool = True):
        self.bq = bq
        self.dims = {v: int(dims.get(v, 0)) for v in bq.vertices}
        if any(d < 0 for d in self.dims.values()):
            raise ModuleError("negative dimension")
        f = bq.field
        self.mats = {}
        for a in bq.arrows:
            m = mats.get(a.name)
            rows, cols = self.dims[a.source], self.dims[a.target]
            if m is None:
                m = Matrix.zeros(f, rows, cols)
            elif m.rows != rows or m.cols != cols:
                raise ModuleError(f"matrix for {a.name} has shape {m.shape}, "
                                  f"expected {(rows, cols)}")
            self.mats[a.name] = m
        if check:
            self._check_relations()

    def _check_relations(self):
        for rel in self.bq.relations:
            x = self.bq.relation_endpoints(rel)[0]
            acc = None
            for coeff, p in rel:
                # a path through a zero-dimensional vertex acts as 0: the
                # vertices of p are x and the arrows' targets, whose
                # dimensions are the matrices' column counts
                if self.dims[x] and all(self.mats[a].cols for a in p):
                    term = self.path_matrix(p, x).scale(coeff)
                    acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                raise ModuleError("module violates a relation")

    def path_matrix(self, path, source=None) -> Matrix:
        """Matrix of the path class: for p: x -> y this maps M(y) -> M(x)."""
        if not path:
            if source is None:
                raise ModuleError("stationary path needs an explicit vertex")
            return Matrix.identity(self.bq.field, self.dims[source])
        out = self.mats[path[0]]
        for a in path[1:]:
            out = out @ self.mats[a]
        return out

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    @cached_property
    def support(self):
        return tuple(v for v in self.bq.vertices if self.dims[v] > 0)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    @classmethod
    def zero(cls, bq: BoundQuiver) -> "Module":
        return cls(bq, {}, {}, check=False)

    def __eq__(self, other):
        return (
            isinstance(other, Module)
            and self.bq == other.bq
            and self.dims == other.dims
            and self.mats == other.mats
        )

    @cached_property
    def _hash(self) -> int:
        return hash((self.bq, tuple(sorted(self.dims.items())),
                     tuple(sorted(self.mats.items()))))

    def __hash__(self):
        # a module is never changed after construction
        return self._hash

    @cached_property
    def _naturality_parts(self) -> tuple[tuple, tuple]:
        """What `hom_space` reads of M, per arrow a: x -> y in quiver
        order.  As source: (a's index, x, y, the nonzero (row, entry)
        pairs of each column of M(a)) for each a with M(y) nonzero.  As
        target: the nonzero (column, -entry) pairs of each row of M(a)."""
        p = self.bq.field.p
        source, target = [], []
        for index, a in enumerate(self.bq.arrows):
            mat = self.mats[a.name]
            ma = mat.entries
            if self.dims[a.target]:
                source.append((index, a.source, a.target,
                               tuple(tuple((k, row[j]) for k, row in enumerate(ma) if row[j])
                                     for j in range(mat.cols))))
            target.append(tuple(tuple((l, -c if p is None else -c % p)
                                      for l, c in enumerate(row) if c) for row in ma))
        return tuple(source), tuple(target)

    def sort_key(self):
        return (self.total_dim,
                tuple(self.dims[v] for v in self.bq.vertices),
                tuple(self.mats[a.name].entries for a in self.bq.arrows))

    def __repr__(self):
        dims = ",".join(f"{v}:{d}" for v, d in self.dims.items() if d)
        return f"Module({dims or '0'})"


class ModMap:
    """A homomorphism of modules: one matrix per vertex, natural in arrows.

    It memoises its kernel (`kernel`), made on first use; the memo takes no
    part in equality or hashing.
    """

    _kernel: "Module | None" = None     # set on the instance by `kernel`

    def __init__(self, source: Module, target: Module, comps: dict, check: bool = True):
        if source.bq != target.bq:
            raise ModuleError("module base mismatch")
        self.source = source
        self.target = target
        f = source.bq.field
        self.comps = {}
        for v in source.bq.vertices:
            m = comps.get(v)
            rows, cols = target.dims[v], source.dims[v]
            if m is None:
                m = Matrix.zeros(f, rows, cols)
            elif m.rows != rows or m.cols != cols:
                raise ModuleError(f"component at {v} has shape {m.shape}, "
                                  f"expected {(rows, cols)}")
            self.comps[v] = m
        if check and not self.is_natural():
            raise ModuleError("components do not commute with the arrow actions")

    def is_natural(self) -> bool:
        for a in self.source.bq.arrows:
            left = self.comps[a.source] @ self.source.mats[a.name]
            right = self.target.mats[a.name] @ self.comps[a.target]
            if left != right:
                return False
        return True

    @classmethod
    def identity(cls, m: Module) -> "ModMap":
        f = m.bq.field
        return cls(m, m, {v: Matrix.identity(f, m.dims[v]) for v in m.bq.vertices}, check=False)

    @classmethod
    def zero(cls, source: Module, target: Module) -> "ModMap":
        return cls(source, target, {}, check=False)

    def __matmul__(self, other: "ModMap") -> "ModMap":
        """Composition (self after other): (g @ f)(v) = g_v f_v."""
        if other.target is not self.source and other.target != self.source:
            raise ModuleError("composition mismatch")
        comps = {v: self.comps[v] @ other.comps[v] for v in self.source.bq.vertices}
        return ModMap(other.source, self.target, comps, check=False)

    def __add__(self, other: "ModMap") -> "ModMap":
        comps = {v: self.comps[v] + other.comps[v] for v in self.source.bq.vertices}
        return ModMap(self.source, self.target, comps, check=False)

    def __sub__(self, other: "ModMap") -> "ModMap":
        comps = {v: self.comps[v] - other.comps[v] for v in self.source.bq.vertices}
        return ModMap(self.source, self.target, comps, check=False)

    def __neg__(self) -> "ModMap":
        return ModMap(self.source, self.target, {v: -m for v, m in self.comps.items()}, check=False)

    def scale(self, c) -> "ModMap":
        return ModMap(self.source, self.target,
                      {v: m.scale(c) for v, m in self.comps.items()}, check=False)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.comps.values())

    def kernel(self) -> "Module":
        """ker f as a submodule of the source (`kernel_submodule`), built
        once and kept on self."""
        if self._kernel is None:
            self._kernel = kernel_submodule(self)[0]
        return self._kernel

    def power(self, n: int) -> "ModMap":
        if self.source is not self.target and self.source != self.target:
            raise ModuleError("power of a non-endomorphism")
        if n < 0:
            raise ModuleError(f"negative power {n} of a module map")
        comps = {v: m.power(n) for v, m in self.comps.items()}
        return ModMap(self.source, self.target, comps, check=False)

    def vectorize(self) -> tuple:
        out = []
        for v in self.source.bq.vertices:
            for row in self.comps[v].entries:
                out.extend(row)
        return tuple(out)

    @classmethod
    def from_vector(cls, source: Module, target: Module, vec, check: bool = False) -> "ModMap":
        """The map whose `vectorize` is vec; its entries are field elements
        already (a hom-basis row or a sum of them), so none is coerced."""
        f = source.bq.field
        comps = {}
        i = 0
        vec = tuple(vec)
        for v in source.bq.vertices:
            r, c = target.dims[v], source.dims[v]
            comps[v] = Matrix._raw(f, r, c, tuple(vec[i + j * c: i + (j + 1) * c] for j in range(r)))
            i += r * c
        return cls(source, target, comps, check=check)

    def __eq__(self, other):
        return (isinstance(other, ModMap) and self.source == other.source
                and self.target == other.target and self.comps == other.comps)

    def __hash__(self):
        return hash((self.source, self.target, tuple(sorted(self.comps.items()))))

    def __repr__(self):
        return f"ModMap({self.source!r} -> {self.target!r})"


# ---------------------------------------------------------------------------
# hom spaces


class HomBasis:
    """Hom(M, N): its dimension, and its canonical basis with coordinate
    helpers.  From `hom_space` it holds the forward echelon form of the
    naturality system, whose size gives the dimension; the first read of
    `space`, `rows`, `maps`, `coords` or `from_coords` back-substitutes it
    and drops it.  A repeated `hom_space` answer holds only the dimension,
    and that first read eliminates the system again.  Every answer, pivots
    included, is unchanged by either."""

    def __init__(self, source: Module, target: Module, space: Subspace):
        self.source, self.target = source, target
        self.space, self.dim = space, space.dim

    @classmethod
    def _deferred(cls, source: Module, target: Module, dim: int,
                  echelon: tuple | None = None) -> "HomBasis":
        hom = cls.__new__(cls)
        hom.source, hom.target, hom.dim = source, target, dim
        if echelon is not None:
            hom._echelon = echelon
        return hom

    @cached_property
    def space(self) -> Subspace:
        echelon = self.__dict__.pop("_echelon", None)
        if echelon is None:
            # a repeated pair: the memo gave the dimension, not the system
            echelon = _naturality_echelon(self.source, self.target)
        return _echelon_kernel(self.source.bq.field, *echelon)

    @property
    def rows(self) -> Matrix:
        return self.space.rows

    @cached_property
    def maps(self) -> list[ModMap]:
        return [ModMap.from_vector(self.source, self.target, r) for r in self.rows.entries]

    def coords(self, f: ModMap):
        return self.space.coords(f.vectorize())

    def from_coords(self, coeffs) -> ModMap:
        fld = self.source.bq.field
        p = fld.p
        vec = [fld.zero] * self.rows.cols
        for c, row in zip(coeffs, self.rows.entries):
            if c:
                vec = ([a + c * b for a, b in zip(vec, row)] if p is None else
                       [(a + c * b) % p for a, b in zip(vec, row)])
        return ModMap.from_vector(self.source, self.target, vec)

    def __iter__(self):
        return iter(self.maps)

    def __len__(self):
        return self.dim


def hom_space(m: Module, n: Module) -> HomBasis:
    """Hom(M, N) as the solutions of all naturality squares.

    M keeps dim Hom(M, N) in `_hom_dims`, keyed by id(N) beside a weak
    reference to N, and a repeated pair is answered from it when that
    reference still returns N itself: then no system is solved unless the
    basis is read.  The weak reference keeps N alive in no case, M = N
    included, and a dead partner's id, when reused, answers for nobody.
    """
    if n.bq is not m.bq and m.bq != n.bq:
        raise ModuleError("hom between modules over different quivers")
    dim = _memo_dim(m, n)
    if dim is not None:
        return HomBasis._deferred(m, n, dim)
    hom = _solved_hom(m, n)
    _remember_dim(m, n, hom.dim)
    return hom


def _memo_dim(m: Module, n: Module) -> int | None:
    """dim Hom(M, N) from M's memo, or None if the memo does not know N."""
    memo = m._hom_dims
    known = memo.get(id(n)) if memo is not None else None
    return known[1] if known is not None and known[0]() is n else None


def _remember_dim(m: Module, n: Module, dim: int) -> None:
    """File dim Hom(M, N) in M's memo."""
    if m._hom_dims is None:
        m._hom_dims = {}
    m._hom_dims[id(n)] = (weakref.ref(n), dim)


def _solved_hom(m: Module, n: Module) -> HomBasis:
    """Hom(M, N) from a new elimination, filed in no memo."""
    unknowns, echelon = _naturality_echelon(m, n)
    return HomBasis._deferred(m, n, unknowns - len(echelon), (unknowns, echelon))


def _naturality_echelon(m: Module, n: Module) -> tuple[int, dict]:
    """The number of unknowns of Hom(M, N) and the forward echelon form of
    its naturality squares.

    Unknown u = offset(v) + i dim M(v) + k is the entry (i, k) of the
    component f_v.  Each entry (i, j) of each square f_x M(a) = N(a) f_y
    gives one sparse equation, with unknown u at column last - u, the
    reversed order `linalg._echelon_kernel` reads the null space in.
    """
    mdims, ndims = m.dims, n.dims
    offsets = {}
    total = 0
    for v in m.bq.vertices:
        offsets[v] = total
        total += ndims[v] * mdims[v]
    echelon = {}
    if not total:
        return 0, echelon
    p = m.bq.field.p
    last = total - 1
    target = n._naturality_parts[1]
    for index, x, y, m_cols in m._naturality_parts[0]:
        # equation (i, j), for i < dim N(x) and j < dim M(y), reads column
        # j of M(a) (dim M(x) entries) and row i of N(a) (dim N(y) entries)
        n_rows = target[index]
        if not n_rows or not (mdims[x] or ndims[y]):
            continue
        mx, my = mdims[x], len(m_cols)
        ox, oy = last - offsets[x], last - offsets[y]
        for i, n_row in enumerate(n_rows):
            base = ox - i * mx
            for j, m_col in enumerate(m_cols):
                row = {base - k: c for k, c in m_col}
                base_y = oy - j
                for l, c in n_row:
                    col = base_y - l * my
                    if col in row:
                        # a loop at x = y: both sides read this unknown
                        c = row.pop(col) + c if p is None else (row.pop(col) + c) % p
                        if not c:
                            continue
                    row[col] = c
                if row:
                    _echelon_reduce(echelon, row, p)
    return total, echelon


def hom_dim(m: Module, n: Module) -> int:
    return hom_space(m, n).dim


# ---------------------------------------------------------------------------
# kernels, images, cokernels


def column_space_basis(m: Matrix) -> Matrix:
    """Canonical basis of the column space, returned as columns."""
    return row_space(m.transpose()).transpose()


def _leads(cols: Matrix) -> list[int] | None:
    """The row of each column's leading 1 when every other column is 0 in
    that row, as in the canonical bases of `kernel_basis` and `row_space`
    read as columns; None otherwise.  Such columns are independent, and a
    vector of their span has its coordinates at the leads."""
    entries, one = cols.entries, cols.field.one
    leads = []
    for col in zip(*entries):
        i = next((i for i, x in enumerate(col) if x), None)
        if i is None or col[i] != one or sum(map(bool, entries[i])) != 1:
            return None
        leads.append(i)
    return leads if len(leads) == cols.cols else None


def _solve_in_basis(cols: Matrix, b: Matrix) -> Matrix | None:
    """solve(cols, b) for independent columns: b's rows at the `_leads`
    of cols, checked by one product, when they have leads."""
    leads = _leads(cols)
    if leads is None:
        return solve(cols, b)
    x = Matrix._raw(cols.field, cols.cols, b.cols, tuple(b.entries[i] for i in leads))
    return x if cols @ x == b else None


def submodule(m: Module, columns: dict) -> tuple[Module, ModMap]:
    """Module structure on per-vertex column spans closed under the action."""
    f = m.bq.field
    dims = {v: columns[v].cols for v in m.bq.vertices}
    mats = {}
    for a in m.bq.arrows:
        x, y = a.source, a.target
        image = m.mats[a.name] @ columns[y]
        coords = _solve_in_basis(columns[x], image)
        if coords is None:
            raise ModuleError("columns are not closed under the arrow action")
        mats[a.name] = coords
    sub = Module(m.bq, dims, mats, check=False)
    incl = ModMap(sub, m, {v: columns[v] for v in m.bq.vertices}, check=False)
    return sub, incl


def quotient_module(m: Module, row_spans: dict) -> tuple[Module, ModMap]:
    """Quotient by per-vertex subspaces (rows) closed under the action."""
    f = m.bq.field
    quots = {v: Subspace.span(f, m.dims[v], row_spans[v]).quotient() for v in m.bq.vertices}
    dims = {v: quots[v].dim for v in m.bq.vertices}
    mats = {}
    for a in m.bq.arrows:
        x, y = a.source, a.target
        mats[a.name] = quots[x].projection @ m.mats[a.name] @ quots[y].section()
    quo = Module(m.bq, dims, mats, check=False)
    proj = ModMap(m, quo, {v: quots[v].projection for v in m.bq.vertices}, check=False)
    return quo, proj


@dataclass
class Factorization:
    kernel: Module
    kernel_incl: ModMap
    image: Module
    image_incl: ModMap      # image -> target
    image_epi: ModMap       # source -> image
    cokernel: Module
    cokernel_proj: ModMap   # target -> cokernel


def image_submodule(f: ModMap) -> tuple[Module, ModMap]:
    """The image of a module map as a submodule of its target."""
    return submodule(f.target, {v: column_space_basis(f.comps[v]) for v in f.target.bq.vertices})


def kernel_submodule(f: ModMap) -> tuple[Module, ModMap]:
    """The kernel of a module map as a submodule of its source."""
    return submodule(f.source, {v: kernel_basis(f.comps[v]).transpose()
                                for v in f.source.bq.vertices})


def map_factor(f: ModMap) -> Factorization:
    """Kernel, image and cokernel of a module map, with exactness witnesses."""
    m, n = f.source, f.target
    kernel, kernel_incl = kernel_submodule(f)

    image, image_incl = image_submodule(f)
    epi_comps = {v: solve(image_incl.comps[v], f.comps[v]) for v in m.bq.vertices}
    image_epi = ModMap(m, image, epi_comps, check=False)

    coker, coker_proj = quotient_module(
        n, {v: [list(r) for r in f.comps[v].transpose().entries] for v in n.bq.vertices})
    return Factorization(kernel, kernel_incl, image, image_incl, image_epi, coker, coker_proj)


def _out_block(m: Module, v: str) -> Matrix | None:
    """The out-arrow matrices at v side by side; their columns span rad M at v."""
    parts = [m.mats[a.name] for a in m.bq.out_arrows[v] if m.dims[a.target] > 0]
    return hstack(parts) if parts and m.dims[v] > 0 else None


def radical_submodule(m: Module) -> tuple[Module, ModMap]:
    """The submodule generated by all arrow images."""
    f = m.bq.field
    cols = {}
    for v in m.bq.vertices:
        block = _out_block(m, v)
        cols[v] = Matrix.zeros(f, m.dims[v], 0) if block is None else column_space_basis(block)
    return submodule(m, cols)


def socle_submodule(m: Module) -> tuple[Module, ModMap]:
    """The largest semisimple submodule (joint kernel of the arrow actions)."""
    f = m.bq.field
    cols = {}
    for v in m.bq.vertices:
        parts = [m.mats[a.name] for a in m.bq.in_arrows[v] if m.dims[a.source] > 0]
        if parts and m.dims[v] > 0:
            cols[v] = kernel_basis(vstack(parts)).transpose()
        else:
            cols[v] = Matrix.identity(f, m.dims[v])
    return submodule(m, cols)


def socle_quotient(m: Module) -> tuple[Module, ModMap]:
    soc, incl = socle_submodule(m)
    rows = {v: [list(r) for r in incl.comps[v].transpose().entries] for v in m.bq.vertices}
    return quotient_module(m, rows)


def _sum_module(bq: BoundQuiver, modules: list[Module]) -> Module:
    """The direct sum as a module, block diagonal, without its maps."""
    if len(modules) == 1:
        return modules[0]
    dims = {v: sum(m.dims[v] for m in modules) for v in bq.vertices}
    mats = {a.name: block_diag(bq.field, [m.mats[a.name] for m in modules]) for a in bq.arrows}
    return Module(bq, dims, mats, check=False)


def direct_sum(modules: list[Module]) -> tuple[Module, list[ModMap], list[ModMap]]:
    """Direct sum with the canonical inclusions and projections."""
    if not modules:
        raise ModuleError("direct sum of nothing")
    bq = modules[0].bq
    f = bq.field
    total = _sum_module(bq, modules)
    dims = total.dims
    incls, projs = [], []
    for i, m in enumerate(modules):
        comps_in, comps_pr = {}, {}
        for v in bq.vertices:
            before = sum(modules[j].dims[v] for j in range(i))
            blocks_in = []
            if before:
                blocks_in.append(Matrix.zeros(f, before, m.dims[v]))
            blocks_in.append(Matrix.identity(f, m.dims[v]))
            after = dims[v] - before - m.dims[v]
            if after:
                blocks_in.append(Matrix.zeros(f, after, m.dims[v]))
            comps_in[v] = vstack(blocks_in) if m.dims[v] or dims[v] else Matrix.zeros(f, dims[v], 0)
            comps_pr[v] = comps_in[v].transpose()
        incls.append(ModMap(m, total, comps_in, check=False))
        projs.append(ModMap(total, m, comps_pr, check=False))
    return total, incls, projs


# ---------------------------------------------------------------------------
# standard modules


def simple(bq: BoundQuiver, x: str) -> Module:
    return Module(bq, {x: 1}, {}, check=False)


def projective(bq: BoundQuiver, x: str) -> Module:
    """P_x(z) is the path space from z to x, acting by precomposition."""
    basis = path_basis(bq)
    f = bq.field
    dims = {z: basis.dim(z, x) for z in bq.vertices}
    mats = {}
    for a in bq.arrows:
        z, w = a.source, a.target
        cols = []
        a_class = basis.reduce_path(z, w, (a.name,))
        for rep in basis.representatives(w, x):
            cols.append(basis.compose(z, w, x, a_class, basis.reduce_path(w, x, rep)))
        if cols and dims[z]:
            mats[a.name] = Matrix(f, cols).transpose()
        else:
            mats[a.name] = Matrix.zeros(f, dims[z], dims[w])
    return Module(bq, dims, mats, check=False)


def dual_module(m: Module) -> Module:
    """Vector-space dual, a module over the opposite presentation."""
    dims = dict(m.dims)
    mats = {a.name: m.mats[a.name].transpose() for a in m.bq.arrows}
    return Module(opposite_quiver(m.bq), dims, mats, check=False)


def injective(bq: BoundQuiver, x: str) -> Module:
    """I_x = D P(x, -), in the basis dual to the path classes x -> z; an
    arrow a: z -> w acts as the dual of q -> q a."""
    basis = path_basis(bq)
    f = bq.field
    dims = {z: basis.dim(x, z) for z in bq.vertices}
    mats = {}
    for a in bq.arrows:
        z, w = a.source, a.target
        a_class = basis.reduce_path(z, w, (a.name,))
        rows = [basis.compose(x, z, w, unit, a_class)
                for unit in Matrix.identity(f, dims[z]).entries]
        mats[a.name] = Matrix.from_rows(f, dims[z], dims[w], rows)
    return Module(bq, dims, mats, check=False)


# ---------------------------------------------------------------------------
# radicals of hom spaces


def _trace_rows(hom: HomBasis, back: HomBasis):
    """The rows of [tr(g_j f_i)] for f_i in Hom(M, N) and g_j in Hom(N, M),
    each built when the caller asks for it.

    Row j belongs to g_j and column i to f_i.  tr(g f) is the sum over v
    of g_v[a][b] f_v[b][a], so each entry is the dot product of a basis
    vector of Hom(M, N) with one of Hom(N, M) whose vertex blocks are
    transposed; no composite is formed.  On End(M) the matrix is the
    symmetric trace form.
    """
    m, n = hom.source, hom.target
    f = m.bq.field
    if hom.dim and back.dim and f.p is not None and f.p <= m.total_dim:
        raise ModuleError(
            f"prime {f.p} is too small for a {m.total_dim}-dimensional module; "
            "use a larger prime field")
    blocks = []
    offset = 0
    for v in m.bq.vertices:
        rows, cols = m.dims[v], n.dims[v]
        blocks.append((offset, rows, cols))
        offset += rows * cols
    vecs, zero, p = hom.rows.entries, f.zero, f.p
    if p is None:   # a Fraction product costs far more than a zero test
        vecs = [[(k, x) for k, x in enumerate(v) if x] for v in vecs]
    for vec in back.rows.entries:
        g = [vec[o + i * c + j] for o, r, c in blocks for j in range(c) for i in range(r)]
        if p is None:
            yield tuple(sum([x * g[k] for k, x in v if g[k]], zero) for v in vecs)
        else:
            yield tuple(sum(map(_mul, v, g)) % p for v in vecs)


def _trace_pairing(hom: HomBasis, back: HomBasis) -> Matrix:
    """The whole matrix of `_trace_rows`."""
    return Matrix._raw(hom.source.bq.field, back.dim, hom.dim, tuple(_trace_rows(hom, back)))


class RadicalHom:
    """The radical subspace of Hom(M, N) in hom-basis coordinates."""

    def __init__(self, hom: HomBasis, coords: Subspace):
        self.hom = hom
        self.coords = coords

    @property
    def dim(self) -> int:
        return self.coords.dim


def radical_hom(m: Module, n: Module,
                hom: HomBasis | None = None,
                back: HomBasis | None = None) -> RadicalHom:
    """rad(M, N): the maps f with tr(g f) = 0 for every g: N -> M.

    That is the rule "g f lies in rad End(M) for every g", because the
    radical of End(M) is the kernel of its trace form, tr(g f psi) =
    tr(psi g f) by cyclicity of the trace, and End(M) Hom(N, M) = Hom(N, M).
    With N = M it is rad End(M).  Exact for the rationals and for GF(p)
    with p > dim M, which is the operating regime of this toolkit (the
    default prime is far larger than any fixture dimension).
    """
    f = m.bq.field
    hom = hom if hom is not None else hom_space(m, n)
    if hom.dim == 0:
        return RadicalHom(hom, Subspace.span(f, 0, []))
    back = back if back is not None else hom_space(n, m)
    return RadicalHom(hom, Subspace(f, hom.dim, kernel_basis(_trace_pairing(hom, back))))


class PairCache:
    """Memo for hom spaces over a stable set of modules, keyed on the
    modules themselves (they are immutable and hashable), and for the
    modules a builder such as `projective` makes at a vertex."""

    def __init__(self):
        self._hom: dict = {}
        self._built: dict = {}

    def hom(self, m: Module, n: Module) -> HomBasis:
        out = self._hom.get((m, n))
        if out is None:
            out = self._hom[(m, n)] = hom_space(m, n)
        return out

    def built(self, build, bq: BoundQuiver, x: str) -> Module:
        """build(bq, x), made once per builder, quiver and vertex."""
        key = (build, bq, x)
        out = self._built.get(key)
        if out is None:
            out = self._built[key] = build(bq, x)
        return out


def is_isomorphic_indec(m: Module, n: Module, cache: PairCache | None = None) -> bool:
    """Isomorphism test for modules assumed indecomposable."""
    if m.dims != n.dims:
        return False
    if m.is_zero():
        return True
    cache = cache or PairCache()
    hom = cache.hom(m, n)
    if hom.dim == 0:
        return False
    # some f with tr(g f) != 0 is outside rad(M, N): stop at the first row holding one
    return any(map(any, _trace_rows(hom, cache.hom(n, m))))


# ---------------------------------------------------------------------------
# decomposition


class DecompPiece:
    """A summand of a module with its witnesses include (piece -> whole) and
    project (whole -> piece).  A split piece keeps its parent and a step
    that builds the maps between it and the parent.  When first read, the
    parent's witnesses are read, then the step runs, and the two are
    composed as parent.include @ step and step @ parent.project.  A step
    off the whole DecompPiece(m), not yet read, is its own witness."""

    def __init__(self, module: Module, include: ModMap | None = None,
                 project: ModMap | None = None, parent: DecompPiece | None = None,
                 step=None):
        self.module = module
        self._include, self._project, self._parent, self._step = include, project, parent, step

    include = property(lambda self: self._witnesses()[0])
    project = property(lambda self: self._witnesses()[1])

    def _witnesses(self) -> tuple[ModMap, ModMap]:
        if self._step is not None:
            parent, step = self._parent, self._step
            self._parent = self._step = None
            if parent._step is None and parent._include is None:
                self._include, self._project = step()
            else:
                include, project = parent._witnesses()
                down, up = step()
                self._include, self._project = include @ down, up @ project
        elif self._include is None:
            self._include = self._project = ModMap.identity(self.module)
        return self._include, self._project


class Decomposition:
    """M as the direct sum of its pieces, sorted by `Module.sort_key`.  The
    isomorphism classes are grouped when first read, through the pair cache
    the decomposition was made with."""

    def __init__(self, module: Module, pieces: list[DecompPiece],
                 classes: list[list[int]] | None = None, cache: PairCache | None = None):
        self.module, self.pieces = module, pieces
        self._classes, self._cache = classes, cache

    @property
    def classes(self) -> list[list[int]]:
        """Piece indices grouped by isomorphism, each group in piece order."""
        if self._classes is None:
            pieces, cache, classes = self.pieces, self._cache or PairCache(), []
            for i, piece in enumerate(pieces):
                for group in classes:
                    if is_isomorphic_indec(pieces[group[0]].module, piece.module, cache):
                        group.append(i)
                        break
                else:
                    classes.append([i])
            self._classes, self._cache = classes, None
        return self._classes

    def summands(self) -> list[tuple[Module, int]]:
        return [(self.pieces[group[0]].module, len(group)) for group in self.classes]

    @property
    def is_indecomposable(self) -> bool:
        return len(self.pieces) == 1

    def witnesses(self) -> tuple[Module, ModMap, ModMap]:
        """(direct sum of the pieces, to_sum, from_sum), mutually inverse."""
        total, incls, projs = direct_sum([p.module for p in self.pieces])
        to_sum = from_sum = None
        for piece, incl, proj in zip(self.pieces, incls, projs):
            up = incl @ piece.project        # module -> total through one piece
            down = piece.include @ proj      # total -> module through one piece
            to_sum = up if to_sum is None else to_sum + up
            from_sum = down if from_sum is None else from_sum + down
        return total, to_sum, from_sum


def _minimal_polynomial(phi: ModMap):
    """The minimal polynomial of phi from one echelon form of its powers,
    each row carrying the powers it combines in columns n, n + 1, ..."""
    m, f = phi.source, phi.source.bq.field
    n, echelon, power = sum(d * d for d in m.dims.values()), {}, ModMap.identity(m)
    for k in range(m.total_dim + 2):
        row = {i: x for i, x in enumerate(power.vectorize()) if x}
        row[n + k] = f.one
        while (c := min(row)) < n and c in echelon:
            _axpy(row, row.pop(c), echelon[c], f.p)
        if c >= n:      # phi^k + sum of row[n + i] phi^i = 0
            return [row.get(n + i, f.zero) for i in range(k)] + [f.one]
        _echelon_reduce(echelon, row, f.p)
        power = phi @ power
    raise DecompositionError("minimal polynomial did not terminate")


def _poly_of_map(poly, phi: ModMap) -> ModMap:
    """g(phi) by Horner's rule at each vertex."""
    f = phi.source.bq.field
    comps = {}
    for v, a in phi.comps.items():
        acc = Matrix.zeros(f, a.rows, a.cols)
        for c in reversed(poly):
            acc = tuple(tuple(f.add(x, c) if i == j else x for j, x in enumerate(row))
                        for i, row in enumerate((acc @ a).entries))
            acc = Matrix._raw(f, a.rows, a.cols, acc)
        comps[v] = acc
    return ModMap(phi.source, phi.target, comps, check=False)


def _fitting_split(piece: DecompPiece, psi: ModMap) -> tuple[DecompPiece, DecompPiece] | None:
    """The pieces ker psi and im psi of M, or None when one of them is zero.

    When each psi_v is a power of an endomorphism to at least dim M(v),
    Fitting's lemma makes M the direct sum of the two.  Both pieces are
    read off one change of basis: with U_v = [ker psi_v | im psi_v], the
    matrix U_x^-1 M_a U_y of an arrow a: x -> y is block diagonal, its
    diagonal blocks act on the kernel and on the image, and the rows of
    U_v^-1 are the two projections; U_v = [1] where dim M(v) = 1.  Reducing
    the rows of [psi_v^T | 1] leaves the canonical bases of the image (the
    first rank rows, left of the bar) and of the kernel (the others, right
    of it); reducing [U_v | 1] leaves U_v^-1.  The columns of U_v and the
    rows of U_v^-1 become the pieces' witnesses only when those are read.
    """
    m = piece.module
    f = m.bq.field
    p, one, unit = f.p, f.one, Matrix.identity(f, 1)
    kernels, images, u, u_inv = {}, {}, {}, {}
    for v in m.support:
        d, entries = m.dims[v], psi.comps[v].entries
        if d == 1:
            kernels[v], images[v] = ((), unit.entries) if entries[0][0] else (unit.entries, ())
            continue
        rows = [[*col, *(one if i == j else f.zero for j in range(d))]
                for i, col in enumerate(zip(*entries))]
        r = sum(c < d for c in _gauss_jordan(rows, 2 * d, p))
        images[v] = tuple(tuple(row[:d]) for row in rows[:r])
        kernels[v] = tuple(tuple(row[d:]) for row in rows[r:])
    kd = {v: len(k) for v, k in kernels.items()}
    if not 0 < sum(kd.values()) < m.total_dim:
        return None
    for v, d in ((v, m.dims[v]) for v in m.support if m.dims[v] > 1):
        u[v] = Matrix._raw(f, d, d, tuple(zip(*kernels[v], *images[v])))
        rows = [[*row, *(one if i == j else f.zero for j in range(d))]
                for i, row in enumerate(u[v].entries)]
        if _gauss_jordan(rows, 2 * d, p)[-1] >= d:
            return None
        u_inv[v] = Matrix._raw(f, d, d, tuple(tuple(row[d:]) for row in rows))
    ker_mats, im_mats = {}, {}
    for a in m.bq.arrows:
        x, y = a.source, a.target
        # the columns of the kernel (image) at y go to the kernel (image) at x
        block = u_inv[x] @ m.mats[a.name] if x in u else m.mats[a.name]
        block = (block @ u[y] if y in u else block).entries
        kx, ky = kd.get(x, 0), kd.get(y, 0)
        if any(any(row[ky:]) for row in block[:kx]) or any(any(row[:ky]) for row in block[kx:]):
            raise ModuleError("columns are not closed under the arrow action")
        ker_mats[a.name] = Matrix._raw(f, kx, ky, tuple(row[:ky] for row in block[:kx]))
        im_mats[a.name] = Matrix._raw(f, m.dims[x] - kx, m.dims[y] - ky,
                                      tuple(row[ky:] for row in block[kx:]))
    ker = Module(m.bq, kd, ker_mats, check=False)
    im = Module(m.bq, {v: len(c) for v, c in images.items()}, im_mats, check=False)

    def step(sub: Module, vecs: dict, kernel: bool) -> DecompPiece:
        # sub -> M by its basis columns, M -> sub by its rows of U_v^-1
        def maps() -> tuple[ModMap, ModMap]:
            cols = {v: Matrix._raw(f, len(vecs[v]), m.dims[v], vecs[v]).transpose()
                    for v in m.support}
            rows = {v: u_inv.get(v, unit).entries for v in m.support}
            rows = {v: Matrix._raw(f, sub.dims[v], m.dims[v], r[:kd[v]] if kernel else r[kd[v]:])
                    for v, r in rows.items()}
            return ModMap(sub, m, cols, check=False), ModMap(m, sub, rows, check=False)
        return DecompPiece(sub, parent=piece, step=maps)

    return step(ker, kernels, True), step(im, images, False)


def _fitting_power(phi: ModMap) -> ModMap:
    """phi_v to the power dim M(v) at each vertex v: from that power on,
    ker phi_v^k and im phi_v^k no longer change."""
    m = phi.source
    return ModMap(m, m, {v: c.power(m.dims[v]) for v, c in phi.comps.items()}, check=False)


def _try_split(piece: DecompPiece, phi: ModMap) -> tuple[DecompPiece, DecompPiece] | None:
    """Split on the Fitting power of phi when phi has eigenvalue 0 and
    another one; otherwise on that of g(phi) for the divisors g of the
    minimal polynomial."""
    split = _fitting_split(piece, _fitting_power(phi))
    if split is not None:
        return split
    f = piece.module.bq.field
    rng = random.Random(0xF17)
    for g in candidate_factors(f, _minimal_polynomial(phi), rng):
        split = _fitting_split(piece, _fitting_power(_poly_of_map(g, phi)))
        if split is not None:
            return split
    return None


def _generates_a_residue_field(end: HomBasis, rad: Subspace, rng: random.Random) -> bool:
    """Does a random phi in End(M) have, modulo rad, an irreducible minimal
    polynomial of degree dim End(M)/rad?  Then K[phi] is a field filling
    End(M)/rad, so End(M) is local.  No phi passes when End(M) is not."""
    f = end.source.bq.field
    phi = end.from_coords([f.sample(rng) for _ in range(end.dim)])
    quot = rad.quotient()
    d = quot.dim
    power = ModMap.identity(end.source)
    vecs = []
    for _ in range(d):
        vecs.append(quot.apply(end.coords(power)))
        power = phi @ power
    stack = Matrix(f, vecs).transpose()
    if rank(stack) < d:
        return False
    last = quot.apply(end.coords(power))
    coeffs = solve(stack, Matrix(f, [[c] for c in last]))
    return poly_is_irreducible(f, [f.neg(row[0]) for row in coeffs.entries] + [f.one])


def _traces(end: HomBasis) -> list:
    """The trace of each canonical basis map of End(M): T 1 for the trace
    form T, as T_ji = tr(f_j f_i)."""
    m, f = end.source, end.source.bq.field
    diagonal, offset = [], 0
    for v in m.bq.vertices:
        d = m.dims[v]
        diagonal += range(offset, offset + d * d, d + 1)
        offset += d * d
    return [f.coerce(sum(row[c] for c in diagonal)) for row in end.rows.entries]


def _is_multiple(v, t, p) -> bool:
    """Is v a multiple of the nonzero vector t?"""
    k = next(j for j, y in enumerate(t) if y)
    return not any((x * t[k] - v[k] * y) % p if p else x * t[k] - v[k] * y for x, y in zip(v, t))


def _is_thin_brick(m: Module) -> bool:
    """Is every dim of M at most 1, its support connected by nonzero arrows?"""
    if any(d > 1 for d in m.dims.values()):
        return False
    links = [(a.source, a.target) for a in m.bq.arrows if any(map(any, m.mats[a.name].entries))]
    reached = set(m.support[:1])
    for _ in m.support:
        reached.update(v for x, y in links if x in reached or y in reached for v in (x, y))
    return 0 < len(reached) == len(m.support)


def decompose(m: Module, seed: int = DEFAULT_SEED, cache: PairCache | None = None) -> Decomposition:
    """Full direct-sum decomposition.  Each piece's inclusion/projection
    witnesses are built and composed when first read (`DecompPiece`), and
    the isomorphism classes are grouped when first read (`Decomposition`),
    so a caller that reads only the pieces' modules pays for neither.  A
    thin piece whose nonzero arrows connect its support (`_is_thin_brick`)
    needs no End(P): its endomorphisms are one scalar per vertex, equal at
    the two ends of a nonzero arrow (a loop asks nothing), so End(P) = K
    over any field.  Any other piece's End(P) is filed, in the cache and in
    P's memo of hom dimensions, only if the piece is kept: nothing reads
    the End(P) of a piece that splits."""
    if m.is_zero():
        return Decomposition(m, [], [])
    cache = cache or PairCache()
    rng = random.Random(seed)
    done: list[DecompPiece] = []
    stack = [DecompPiece(m)]
    while stack:
        piece = stack.pop()
        p = piece.module
        if _is_thin_brick(p):
            done.append(piece)
            continue
        end = cache._hom.get((p, p))
        if end is None:
            known = _memo_dim(p, p)
            end = _solved_hom(p, p) if known is None else HomBasis._deferred(p, p, known)
        split = None if end.dim == 1 else _split(piece, end, rng)
        if split is None:
            cache._hom[(p, p)] = end
            _remember_dim(p, p, end.dim)
            done.append(piece)
        else:
            stack.extend(split)

    done.sort(key=lambda piece: piece.module.sort_key())
    return Decomposition(m, done, cache=cache)


def _split(piece: DecompPiece, end: HomBasis, rng: random.Random):
    """Two summands of the piece from an endomorphism that splits it, or
    None when End(P) is local."""
    # rad End(P) is the kernel of the trace form T, so phi lies in K 1 + rad
    # exactly when T phi is a multiple of T 1, and End(P) is local with
    # residue field K when every column of T is; row i of T is T e_i, and
    # T is read row by row only as far as the first that is not
    p = piece.module
    f = p.bq.field
    rows, form, one = _trace_rows(end, end), [], _traces(end)
    for row in rows:
        form.append(row)
        if not _is_multiple(row, one, f.p):
            break
    else:
        return None
    # a map in K 1 + rad End(P) has a single eigenvalue, so it cannot
    # split: the unit attempts before the row that ended the scan are skipped
    for attempt in range(len(form) - 1, MAX_TRIES):
        unit = attempt < end.dim
        form.extend(islice(rows, attempt + 1 - len(form)) if unit else rows)
        coords = None if unit else [f.sample(rng) for _ in range(end.dim)]
        image = form[attempt] if unit else [f.coerce(sum(map(_mul, row, coords)))
                                            for row in form]
        if _is_multiple(image, one, f.p):
            continue
        phi = (ModMap.from_vector(p, p, end.rows.entries[attempt]) if unit
               else end.from_coords(coords))
        split = _try_split(piece, phi)
        if split is not None:
            return split
    # End(P) is local iff End(P)/rad is a field; over a residue field larger
    # than K nothing above splits, and some element then generates End(P)/rad
    rad = radical_hom(p, p, end, end).coords
    if not any(_generates_a_residue_field(end, rad, rng) for _ in range(MAX_TRIES)):
        raise DecompositionError(
            "could not split a module with non-local endomorphism algebra; "
            "the field may be too small")
    return None


def is_indecomposable(m: Module) -> bool:
    """True iff End(M) is local."""
    if m.is_zero():
        raise ModuleError("the zero module is neither decomposable nor indecomposable")
    return decompose(m).is_indecomposable


def is_isomorphic(m: Module, n: Module) -> bool:
    """General isomorphism test via full decompositions."""
    if m.dims != n.dims:
        return False
    if m.is_zero():
        return True
    dm, dn = decompose(m), decompose(n)
    groups_n = [list(g) for g in dn.classes]
    for g in dm.classes:
        rep = dm.pieces[g[0]].module
        for h in groups_n:
            if len(h) == len(g) and is_isomorphic_indec(rep, dn.pieces[h[0]].module):
                groups_n.remove(h)
                break
        else:
            return False
    return not groups_n


# ---------------------------------------------------------------------------
# almost split maps


def _is_projective_vertex(n: Module) -> str | None:
    """The vertex x with N isomorphic to P_x, or None.

    That holds iff N has top S_x and the dimension vector of P_x, since the
    projective cover P_x -> N is onto.  The arrow images span the radical
    because relation terms are never stationary, so the top at v has
    dimension dims[v] minus the rank of the out-arrow block, and no
    submodule needs to be built.
    """
    vertices, basis = n.bq.vertices, path_basis(n.bq)
    dims_of_p = {x: {} for x in vertices}      # P_x's nonzero dimensions
    for z, x in basis.paths:
        if basis.dim(z, x):
            dims_of_p[x][z] = basis.dim(z, x)
    support = {v: d for v, d in n.dims.items() if d}
    if support not in dims_of_p.values():
        return None
    top = {}
    for v in vertices:
        block = _out_block(n, v)
        top[v] = n.dims[v] - (0 if block is None else rank(block))
    if sum(top.values()) != 1:
        return None
    x = next(v for v in vertices if top[v])
    return x if support == dims_of_p[x] else None


def right_almost_split(n: Module, ind_list: list[Module], check: bool = True) -> ModMap:
    """The right minimal almost split map into an indecomposable N.

    For a projective N this is the inclusion of its radical; otherwise it
    is the map E -> N of the almost split sequence built from N alone,
    with E(z) = tau N(z) + N(z) and g the projection onto N(z).  The list
    is read only with check=True, which certifies with hom dimensions
    (`_sequence_failures`) that g does not split and that every radical
    map into N from N or from a listed module factors through g.
    """
    if n.is_zero():
        raise AlmostSplitError("almost split map into the zero module")
    if _is_projective_vertex(n) is not None:
        tau, g = None, radical_submodule(n)[1]
    else:
        seq = almost_split_sequence(n)
        tau, g = seq.tau, seq.g
    if check:
        others = [x for x in ind_list if not (x.dims == n.dims and is_isomorphic_indec(x, n))]
        failures = _sequence_failures(n, tau, [(g.source, 1)], others, PairCache())
        if failures:
            raise AlmostSplitError("; ".join(failures))
    return g


def _sequence_failures(n: Module, tau: Module | None, e_parts: list[tuple[Module, int]],
                       ind_list: list[Module], cache: PairCache) -> list[str]:
    """Why the map g: E -> N of an exact sequence 0 -> tau N -> E -> N -> 0
    is not right almost split against the list (tau N None for the
    radical inclusion of a projective N), with E given as modules whose
    direct sum is isomorphic to it and their multiplicities.

    Hom(X, -) is left exact, so the maps X -> N through E span a space of
    dimension dim Hom(X, E) - dim Hom(X, tau N).  For X other than N every
    map must factor, so that is dim Hom(X, N).  For X = N the maps form a
    right ideal of the local ring End(N); a proper one lies in rad End(N),
    so it is rad End(N) exactly when its dimension is dim rad End(N).
    """
    def through(x: Module) -> int:
        into_e = sum(count * cache.hom(x, part).dim for part, count in e_parts)
        return into_e - (0 if tau is None else cache.hom(x, tau).dim)

    failures = []
    end = cache.hom(n, n)
    own = through(n)
    # rad End(N) is the kernel of the trace form T, of dimension dim End(N) -
    # rank T.  End(N) = K 1 has radical 0: T is [dim N], nonzero when the
    # prime exceeds dim N (the trace form refuses a smaller one)
    p = n.bq.field.p
    trivial = end.dim == 1 and (p is None or p > n.total_dim)
    if own == end.dim:
        failures.append("the map is a split epimorphism")
    elif own != (0 if trivial else end.dim - rank(_trace_pairing(end, end))):
        failures.append("a radical endomorphism does not factor")
    support = set(n.support)
    for x in ind_list:
        if x is n or support.isdisjoint(x.support):
            continue    # disjoint supports: Hom(X, N) = 0
        dim = cache.hom(x, n).dim
        if dim and through(x) != dim:
            failures.append(f"a map from {x!r} does not factor (list incomplete?)")
    return failures


# ---------------------------------------------------------------------------
# almost split sequences from projective presentations


@dataclass
class AlmostSplitSequence:
    """0 -> tau N -> E -> N -> 0, with f: tau N -> E and g: E -> N."""
    tau: Module
    middle: Module
    f: ModMap
    g: ModMap


def _top_generators(m: Module) -> list[tuple[str, Matrix]]:
    """A minimal generating set of M as (vertex, column) pairs: at each v,
    the unit vectors of M(v) off the pivots of rad M(v)."""
    f = m.bq.field
    gens = []
    for v in m.bq.vertices:
        d = m.dims[v]
        block = _out_block(m, v)
        pivots = () if block is None else _gauss_jordan(list(map(list, zip(*block.entries))), d, f.p)
        for r in (r for r in range(d) if r not in pivots):
            gens.append((v, Matrix._raw(f, d, 1, tuple((f.one if i == r else f.zero,)
                                                      for i in range(d)))))
    return gens


def _induced(m: Module, gens: list[tuple[str, Matrix]]) -> dict[str, Matrix]:
    """Components of the map to M from the sum of one P_x per (x, column)
    in gens that sends the top of that summand to the column: the path
    class q: z -> x goes to M(q) applied to it (Hom(P_x, M) = M(x))."""
    f, basis = m.bq.field, path_basis(m.bq)
    p, zero = f.p, f.zero
    vecs = [(x, [row[0] for row in col.entries]) for x, col in gens]
    comps = {}
    for z in m.bq.vertices:
        paths = {x: [m.path_matrix(q, z).entries for q in basis.representatives(z, x)]
                 for x, _ in gens}
        # the image of each class, M(q) col, is one column of the component
        cols = [tuple(sum(map(_mul, row, vec), zero) if p is None else sum(map(_mul, row, vec)) % p
                      for row in q)
                for x, vec in vecs for q in paths[x]]
        comps[z] = Matrix._raw(f, m.dims[z], len(cols),
                               tuple(zip(*cols)) if cols else ((),) * m.dims[z])
    return comps


def almost_split_sequence(n: Module, cache: PairCache | None = None) -> AlmostSplitSequence:
    """The almost split sequence ending at an indecomposable non-projective
    N, built from N alone (Auslander-Reiten-Smalo, ch. IV-V).

    Take a minimal projective presentation P1 -> P0 -> N with K the kernel
    of P0 -> N.  Then tau N = D Tr N is the kernel of nu P1 -> nu P0, where
    the Nakayama functor takes P_x to I_x.  Ext^1(N, tau N) is Hom(K, tau N)
    modulo the maps through P0; a class killed by rad End(N) lies in its
    socle as an End(N)-module, and pushing K -> P0 out along it gives E.
    """
    cache = cache or PairCache()
    bq = n.bq
    f = bq.field
    basis = path_basis(bq)
    vertices = bq.vertices
    gens0 = _top_generators(n)
    xs0 = [x for x, _ in gens0]
    p0 = _sum_module(bq, [cache.built(projective, bq, x) for x in xs0])
    pi = ModMap(p0, n, _induced(n, gens0), check=False)
    k, iota = kernel_submodule(pi)
    if k.is_zero():
        raise AlmostSplitError("no almost split sequence ends at a projective module")
    # rows of the i-th summand P_(x0_i)(z) inside P0(z)
    starts = {z: [0] for z in vertices}
    for z in vertices:
        for x0 in xs0:
            starts[z].append(starts[z][-1] + basis.dim(z, x0))

    # the map P1 -> P0 as path classes: the image of the j-th generator of
    # K, cut into one class x1_j -> x0_i per summand of P0
    gens1 = _top_generators(k)
    xs1 = [x for x, _ in gens1]
    classes = []
    for x1, col in gens1:
        image = [row[0] for row in (iota.comps[x1] @ col).entries]
        cuts = starts[x1]
        classes.append([image[cuts[i]:cuts[i + 1]] for i in range(len(xs0))])
    # tau N(y) is the kernel of the transpose of Hom(P0, P_y) -> Hom(P1, P_y)
    nu_p1 = _sum_module(bq, [cache.built(injective, bq, x) for x in xs1])
    cols = {}
    for y in vertices:
        rows = []
        for i, x0 in enumerate(xs0):
            for unit in Matrix.identity(f, basis.dim(x0, y)).entries:
                rows.append([c for j, x1 in enumerate(xs1)
                             for c in basis.compose(x1, x0, y, classes[j][i], unit)])
        nu_f = Matrix.from_rows(f, len(rows), nu_p1.dims[y], rows)
        cols[y] = kernel_basis(nu_f).transpose()
    tau, _ = submodule(nu_p1, cols)

    # Ext^1(N, tau N) is Hom(K, tau N) modulo the maps through P0.  Those
    # are spanned by the maps P0 -> tau N sending the top of one summand
    # P_x to a unit vector t of tau N(x), which take the class q: z -> x
    # of that summand to column t of tau N(q)
    hom = cache.hom(k, tau)
    through = []
    for i, x0 in enumerate(xs0):
        images = {z: [tau.path_matrix(q, z).entries for q in basis.representatives(z, x0)]
                  for z in vertices}
        blocks = {z: Matrix._raw(f, starts[z][i + 1] - starts[z][i], k.dims[z],
                                 iota.comps[z].entries[starts[z][i]:starts[z][i + 1]])
                  for z in vertices}
        for t in range(tau.dims[x0]):
            comps = {}
            for z in vertices:
                columns = [tuple(row[t] for row in pm) for pm in images[z]]
                rows = tuple(zip(*columns)) if columns else ((),) * tau.dims[z]
                comps[z] = Matrix._raw(f, tau.dims[z], len(columns), rows) @ blocks[z]
            through.append(hom.coords(ModMap(k, tau, comps, check=False)))
    inner = Subspace.span(f, hom.dim, through)
    # its socle over End(N): the classes xi with xi r through P0 for every
    # r in rad End(N), where r acts on K through a lift P0 -> P0 of r pi
    end = cache.hom(n, n)
    conditions = []
    if end.dim > 1:
        quot = inner.quotient().projection
        for coords in radical_hom(n, n, end, end).coords.rows.entries:
            r = end.from_coords(coords)
            r0 = _induced(p0, [(x, solve(pi.comps[x], r.comps[x] @ v)) for x, v in gens0])
            r_k = ModMap(k, k, {z: _solve_in_basis(iota.comps[z], r0[z] @ iota.comps[z])
                                for z in vertices}, check=False)
            action = Matrix(f, [hom.coords(h @ r_k) for h in hom.maps]).transpose()
            conditions.extend((quot @ action).entries)
    socle = kernel_basis(Matrix.from_rows(f, len(conditions), hom.dim, conditions))
    xi_coords = next((c for c in socle.entries if not inner.contains(c)), None)
    if xi_coords is None:
        raise AlmostSplitError("Ext^1(N, tau N) has no socle class; N is not indecomposable")
    xi = hom.from_coords(xi_coords)

    # E is the pushout of P0 along xi, in coordinates tau N(z) + N(z): with
    # s a section of pi, an arrow moves s(n) to s(N(a) n) plus iota(k),
    # and iota(k) is -xi(k) in E.  As iota(k) = P0(a) s(n) - s(N(a) n) is
    # killed by pi, k is read off at the `_leads` of the kernel basis iota,
    # so -xi(k) is push(iota(k)) for push = -xi placed at the leads
    section = {z: solve(pi.comps[z], Matrix.identity(f, n.dims[z])) for z in vertices}
    push = {}
    for z in vertices:
        leads, xz = _leads(iota.comps[z]), xi.comps[z].entries
        rows = []
        for r in xz:
            row = [f.zero] * p0.dims[z]
            for i, c in zip(leads, r):
                row[i] = f.neg(c)
            rows.append(tuple(row))
        push[z] = Matrix._raw(f, tau.dims[z], p0.dims[z], tuple(rows))
    mats = {}
    for a in bq.arrows:
        z, w = a.source, a.target
        corner = push[z] @ (p0.mats[a.name] @ section[w] - section[z] @ n.mats[a.name])
        top = [r + c for r, c in zip(tau.mats[a.name].entries, corner.entries)]
        bottom = [(f.zero,) * tau.dims[w] + r for r in n.mats[a.name].entries]
        mats[a.name] = Matrix._raw(f, tau.dims[z] + n.dims[z], tau.dims[w] + n.dims[w],
                                   tuple(top + bottom))
    e = Module(bq, {z: tau.dims[z] + n.dims[z] for z in vertices}, mats, check=False)
    f_comps, g_comps = {}, {}
    for z in vertices:
        dt, dn = tau.dims[z], n.dims[z]
        ident = Matrix.identity(f, dt + dn).entries
        f_comps[z] = Matrix._raw(f, dt + dn, dt, tuple(row[:dt] for row in ident))
        g_comps[z] = Matrix._raw(f, dn, dt + dn, ident[dt:])
    return AlmostSplitSequence(tau, e, ModMap(tau, e, f_comps, check=False),
                               ModMap(e, n, g_comps, check=False))


# ---------------------------------------------------------------------------
# enumeration of indecomposables


@dataclass
class Enumeration:
    bq: BoundQuiver
    modules: list[Module]
    complete: bool
    notes: list[str] = dc_field(default_factory=list)

    def labels(self) -> list[str]:
        out = []
        for i, m in enumerate(self.modules):
            dims = ",".join(str(m.dims[v]) for v in self.bq.vertices)
            out.append(f"X{i}[{dims}]")
        return out


def _is_nakayama(bq: BoundQuiver) -> bool:
    """No vertex has two arrows in or two arrows out: then the algebra is
    Nakayama, and its indecomposables are the P_x / rad^k P_x for
    1 <= k <= dim P_x, dim A of them."""
    return all(len(bq.in_arrows[v]) <= 1 and len(bq.out_arrows[v]) <= 1 for v in bq.vertices)


def _separated_quiver_is_dynkin(bq: BoundQuiver) -> bool:
    """Whether the separated quiver of the Gabriel quiver of A is a union
    of Dynkin diagrams (`_is_dynkin_graph`).

    When it is not, A/rad^2 A is representation-infinite (Gabriel 1972;
    Auslander-Reiten-Smalo ch. X, Thm 2.6), hence so is A, over any field:
    no caps can make `enumerate_indecomposables` complete.  The Gabriel
    quiver keeps the arrows outside the pivots of an echelon form of the
    relations' length-1 parts, whose span is (I + rad^2)/rad^2; nilbound 1
    kills every arrow.  The separated quiver has a vertex v+ and v- for
    each vertex v and an edge s+ -- t- for each Gabriel arrow s -> t.
    """
    if bq.nilbound == 1:
        return True             # no Gabriel arrow: A is semisimple
    f = bq.field
    column = {a.name: k for k, a in enumerate(bq.arrows)}
    echelon: dict = {}
    for rel in bq.relations:
        row: dict = {}
        for c, path in rel:
            if len(path) == 1:
                k = column[path[0]]
                row[k] = f.add(row.get(k, f.zero), c)
        _echelon_reduce(echelon, {k: c for k, c in row.items() if c}, f.p)
    return _is_dynkin_graph([((a.source, "+"), (a.target, "-"))
                             for k, a in enumerate(bq.arrows) if k not in echelon])


def _is_dynkin_graph(edges) -> bool:
    """Whether the graph with these edges (pairs of ends, a repeated pair
    a double edge) is a union of Dynkin diagrams of types A, D, E: each
    component is a tree with at most one branch vertex, of degree 3, whose
    arms of p, q, r vertices (the branch counted in each) have
    1/p + 1/q + 1/r > 1."""
    adjacent: dict = {}
    for s, t in edges:
        adjacent.setdefault(s, []).append(t)
        adjacent.setdefault(t, []).append(s)
    seen = set()
    for start in adjacent:
        if start in seen:
            continue
        component = [start]
        seen.add(start)
        for u in component:
            for w in adjacent[u]:
                if w not in seen:
                    seen.add(w)
                    component.append(w)
        if sum(len(adjacent[u]) for u in component) != 2 * (len(component) - 1):
            return False        # a cycle or a double edge
        branches = [u for u in component if len(adjacent[u]) > 2]
        if not branches:
            continue            # type A
        if len(branches) > 1 or len(adjacent[branches[0]]) > 3:
            return False
        arms = []
        for w in adjacent[branches[0]]:
            prev, cur, length = branches[0], w, 2
            while len(adjacent[cur]) == 2:
                prev, cur = cur, next(x for x in adjacent[cur] if x != prev)
                length += 1
            arms.append(length)
        p, q, r = arms
        if q * r + p * r + p * q <= p * q * r:
            return False
    return True


def _is_path_algebra(bq: BoundQuiver) -> bool:
    """Whether A is the path algebra KQ: no relation, and no path of
    length nilbound, so no oriented cycle either (a loop included)."""
    if bq.relations:
        return False
    ends = set(bq.vertices)     # the ends of the paths of length k, k = 0, 1, ...
    for _ in range(bq.nilbound):
        ends = {a.target for a in bq.arrows if a.source in ends}
    return not ends


def _infinite_reason(bq: BoundQuiver) -> str | None:
    """Why A is representation-infinite over any field, when it is proved
    without enumerating: its separated quiver is not Dynkin
    (`_separated_quiver_is_dynkin`), or A is the path algebra KQ of a
    quiver whose graph is not a union of Dynkin diagrams (Gabriel 1972).
    None when neither holds."""
    if not _separated_quiver_is_dynkin(bq):
        return "separated quiver is not Dynkin"
    if _is_path_algebra(bq) and not _is_dynkin_graph((a.source, a.target)
                                                     for a in bq.arrows):
        return "algebra is the path algebra of a non-Dynkin quiver"
    return None


def enumerate_indecomposables(bq: BoundQuiver, dim_cap: int = 40, count_cap: int = 80,
                              seed: int = DEFAULT_SEED) -> Enumeration:
    """Close the simples, projectives and injectives under the module
    operations that generate the AR quiver at desk scale.

    Over a Nakayama algebra (`_is_nakayama`) the light closure adds, for
    each listed N, the radical and the socle quotient; every indecomposable
    is a radical power of an injective, so this reaches them all, and a
    list that stabilizes within the caps is marked complete exactly when
    it holds dim A classes.
    Over any other algebra the full closure knits the AR-quiver
    neighbours of each listed N instead (Auslander-Reiten-Smalo
    ch. V-VII): the predecessors of N are the summands of rad N when N is
    projective and of the middle term of the almost split sequence ending
    at N otherwise, and dually its successors are the summands of N/soc N
    when N is injective and of the middle term of the sequence starting
    at N otherwise.  So it adds rad N only for a projective N, N/soc N
    only for an injective N, and otherwise tau N or tau^-1 N and the
    middle term, each sequence built from N alone.  A list that
    stabilizes within the caps is closed under AR-quiver neighbours, so
    it is a union of AR components holding every simple, which is every
    indecomposable (Auslander); it is marked complete once hom dimensions
    certify, for each N, that every radical map from a listed module into
    N factors through the almost split sequence ending at N
    (`_sequence_failures`).  Each sequence is built once, from whichever
    end the knitting reaches first.
    """
    light = _is_nakayama(bq)
    notes: list[str] = []
    found: list[Module] = []
    # while complete, every module in seen is found or a direct sum of
    # modules isomorphic to found ones, so a repeat adds nothing; a
    # candidate joins seen only after its pieces, since an indecomposable
    # candidate is its own piece
    seen: set[Module] = set()
    # the listed module isomorphic to each piece met so far
    known: dict[Module, Module] = {}
    # the listed modules isomorphic to the summands of each candidate
    # decomposed while the list was complete, with their multiplicities
    parts: dict[Module, list[tuple[Module, int]]] = {}
    # (tau N, E) of the almost split sequence ending at each found N
    ending: dict[Module, tuple[Module, Module]] = {}
    # the sequence ending at N is the one starting at tau N: the listed
    # modules whose incoming (outgoing) sequence was knitted from the other end
    knit_in: set[Module] = set()
    knit_out: set[Module] = set()
    cache = PairCache()     # every hom space of the run, each built once
    complete = True

    def add(candidate: Module) -> list[Module]:
        nonlocal complete
        new = []
        if candidate.is_zero() or not complete or candidate in seen:
            return new
        if candidate.total_dim > 4 * dim_cap:
            # decomposing runaway middle terms would dominate the runtime
            complete = False
            notes.append(f"candidate of dimension {candidate.total_dim} abandoned")
            return new
        try:
            dec = decompose(candidate, seed=seed, cache=cache)
        except DecompositionError as e:
            complete = False
            notes.append(str(e))
            return new
        listed = []
        for piece, count in dec.summands():
            if piece.total_dim > dim_cap:
                complete = False
                notes.append(f"dimension cap {dim_cap} hit")
                continue
            if piece not in known:
                match = next((m for m in found if is_isomorphic_indec(piece, m, cache)), None)
                if match is None:
                    if len(found) >= count_cap:
                        complete = False
                        notes.append(f"count cap {count_cap} hit")
                        continue
                    match = piece
                    found.append(piece)
                    seen.add(piece)
                    new.append(piece)
                known[piece] = match
            listed.append((known[piece], count))
        if complete:
            parts[candidate] = listed
        seen.add(candidate)
        return new

    queue: list[Module] = []
    for v in bq.vertices:
        queue.extend(add(simple(bq, v)))
    for v in bq.vertices:
        queue.extend(add(projective(bq, v)))
    for v in bq.vertices:
        queue.extend(add(injective(bq, v)))

    processed = 0
    while queue and complete:
        n = queue.pop(0)
        processed += 1
        if light:
            queue.extend(add(radical_submodule(n)[0]))
            queue.extend(add(socle_quotient(n)[0]))
        else:
            # knit the AR-quiver neighbours of N; a module in knit_in is
            # some tau^-1 M, so not projective, and one in knit_out is some
            # tau M, so not injective
            if n not in knit_in:
                if _is_projective_vertex(n) is not None:
                    queue.extend(add(radical_submodule(n)[0]))
                else:
                    seq = almost_split_sequence(n, cache)
                    queue.extend(add(seq.middle))
                    queue.extend(add(seq.tau))
                    ending[n] = (known.get(seq.tau, seq.tau), seq.middle)
                    if seq.tau in known:
                        knit_out.add(known[seq.tau])
            if complete and n not in knit_out:
                dual_n = dual_module(n)
                if _is_projective_vertex(dual_n) is not None:
                    queue.extend(add(socle_quotient(n)[0]))
                else:
                    # D of the sequence ending at D N: 0 -> N -> E -> tau^-1 N -> 0
                    seq = almost_split_sequence(dual_n, cache)
                    tau_inv = dual_module(seq.tau)
                    middle = dual_module(seq.middle)
                    queue.extend(add(middle))
                    queue.extend(add(tau_inv))
                    if tau_inv in known:
                        knit_in.add(known[tau_inv])
                        ending.setdefault(known[tau_inv], (n, middle))
        if processed > 4 * count_cap:
            complete = False
            notes.append("closure did not stabilize")
            break

    def listed_parts(m: Module) -> list[tuple[Module, int]]:
        # every middle term and radical went through add(); one met
        # earlier as a listed piece was not decomposed again
        if m.is_zero():
            return []
        return parts[m] if m in parts else [(known[m], 1)]

    if complete and light and len(found) != path_basis(bq).total_dim:
        complete = False
        notes.append(f"light closure lists {len(found)} classes, "
                     f"not dim A = {path_basis(bq).total_dim}")
    if complete and not light:
        for n in found:
            tau, e = ending[n] if n in ending else (None, radical_submodule(n)[0])
            failures = _sequence_failures(n, tau, listed_parts(e), found, cache)
            if failures:
                complete = False
                notes.append("verification failed: " + "; ".join(failures))
                break

    found.sort(key=lambda m: m.sort_key())
    return Enumeration(bq, found, complete, notes)


def _enumerate_unless_infinite(bq: BoundQuiver, dim_cap: int, count_cap: int,
                               seed: int = DEFAULT_SEED) -> Enumeration:
    """The enumeration of an algebra input or a cover's base that a verb
    reads: `enumerate_indecomposables` at the caps given, unless A is
    proved representation-infinite (`_infinite_reason`; no caps could
    complete it); then an empty, incomplete list, and nothing is enumerated."""
    reason = _infinite_reason(bq)
    if reason is None:
        return enumerate_indecomposables(bq, dim_cap=dim_cap, count_cap=count_cap, seed=seed)
    return Enumeration(bq, [], False, [f"{reason}: nothing enumerated"])


# ---------------------------------------------------------------------------
# module file format


def format_module(m: Module) -> str:
    f = m.bq.field
    lines = ["dims " + " ".join(f"{v}={m.dims[v]}" for v in m.bq.vertices)]
    for a in m.bq.arrows:
        mat = m.mats[a.name]
        if mat.rows == 0 or mat.cols == 0:
            continue
        rows = ",".join("[" + ",".join(f.format(x) for x in row) + "]" for row in mat.entries)
        lines.append(f"mat {a.name} = [{rows}]")
    return "\n".join(lines) + "\n"


def parse_module(bq: BoundQuiver, text: str, check: bool = True) -> Module:
    """Read the module file format; ModuleParseError names a malformed line."""
    f = bq.field
    dims: dict[str, int] = {}
    mats: dict[str, Matrix] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "dims":
            for part in rest.split():
                v, _, d = part.partition("=")
                if v not in bq.vertex_index:
                    raise ModuleParseError(lineno, f"unknown vertex {v!r}")
                try:
                    dims[v] = parse_int(d)
                except ValueError:
                    dims[v] = -1
                if dims[v] < 0:
                    raise ModuleParseError(lineno, f"bad dimension {part!r}")
        elif head == "mat":
            name, _, body = rest.partition("=")
            name = name.strip()
            if name not in bq.arrow_map:
                raise ModuleParseError(lineno, f"unknown arrow {name!r}")
            body = body.strip()
            if not (body.startswith("[[") and body.endswith("]]")):
                raise ModuleParseError(lineno, "matrix must look like [[...],[...]]")
            try:
                rows = [[f.parse(tok) for tok in chunk.split(",") if tok.strip()]
                        for chunk in body[2:-2].split("],[")]
            except LinAlgError as e:
                raise ModuleParseError(lineno, str(e)) from None
            a = bq.arrow_map[name]
            shape = (dims.get(a.source, 0), dims.get(a.target, 0))
            widths = {len(r) for r in rows}
            if len(widths) > 1:
                raise ModuleParseError(lineno, f"matrix for {name} has rows of unequal length")
            got = (len(rows), widths.pop())
            if got != shape:
                raise ModuleParseError(lineno, f"matrix for {name} has shape {got}, expected {shape}")
            mats[name] = Matrix.from_rows(f, *shape, rows)
        else:
            raise ModuleParseError(lineno, f"unknown directive {head!r}")
    return Module(bq, dims, mats, check=check)
