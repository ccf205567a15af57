"""Finite-dimensional modules over a bound quiver.

A module assigns a space to each vertex and a matrix to each arrow; for
an arrow a: x -> y the matrix has shape dims(x) x dims(y) and represents
the structure map M(y) -> M(x) on column vectors (modules are
contravariant).  All hom computations are exact kernel computations, so
bases are canonical and runs are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .linalg import (
    LinAlgError,
    Matrix,
    Subspace,
    block_diag,
    hstack,
    inverse,
    kernel_basis,
    poly_trim,
    _candidate_factors,
    rank,
    row_space,
    solve,
    vstack,
)
from .quiver import BoundQuiver, PathBasis, opposite_quiver, path_basis

DEFAULT_SEED = 0


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
    """A representation of a bound quiver satisfying its relations."""

    def __init__(self, bq: BoundQuiver, dims: dict, mats: dict, check: bool = True):
        self.bq = bq
        self.dims = {v: int(dims.get(v, 0)) for v in bq.vertices}
        if any(d < 0 for d in self.dims.values()):
            raise ModuleError("negative dimension")
        f = bq.field
        self.mats = {}
        for a in bq.arrows:
            m = mats.get(a.name)
            shape = (self.dims[a.source], self.dims[a.target])
            if m is None:
                m = Matrix.zeros(f, *shape)
            if m.shape != shape:
                raise ModuleError(f"matrix for {a.name} has shape {m.shape}, expected {shape}")
            self.mats[a.name] = m
        if check:
            self._check_relations()

    def _check_relations(self):
        for rel in self.bq.relations:
            x, y = self.bq.relation_endpoints(rel)
            acc = Matrix.zeros(self.bq.field, self.dims[x], self.dims[y])
            for coeff, p in rel:
                acc = acc + self.path_matrix(p, x).scale(coeff)
            if not acc.is_zero():
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

    @property
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

    def __hash__(self):
        return hash((self.bq, tuple(sorted(self.dims.items())),
                     tuple(sorted(self.mats.items()))))

    def sort_key(self):
        return (self.total_dim,
                tuple(self.dims[v] for v in self.bq.vertices),
                tuple(self.mats[a.name].entries for a in self.bq.arrows))

    def __repr__(self):
        dims = ",".join(f"{v}:{d}" for v, d in self.dims.items() if d)
        return f"Module({dims or '0'})"


class ModMap:
    """A homomorphism of modules: one matrix per vertex, natural in arrows."""

    def __init__(self, source: Module, target: Module, comps: dict, check: bool = True):
        if source.bq != target.bq:
            raise ModuleError("module base mismatch")
        self.source = source
        self.target = target
        f = source.bq.field
        self.comps = {}
        for v in source.bq.vertices:
            m = comps.get(v)
            shape = (target.dims[v], source.dims[v])
            if m is None:
                m = Matrix.zeros(f, *shape)
            if m.shape != shape:
                raise ModuleError(f"component at {v} has shape {m.shape}, expected {shape}")
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

    def power(self, n: int) -> "ModMap":
        if self.source is not self.target and self.source != self.target:
            raise ModuleError("power of a non-endomorphism")
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
        f = source.bq.field
        comps = {}
        i = 0
        vec = list(vec)
        for v in source.bq.vertices:
            r, c = target.dims[v], source.dims[v]
            block = [vec[i + j * c: i + (j + 1) * c] for j in range(r)]
            comps[v] = Matrix.from_rows(f, r, c, block)
            i += r * c
        return cls(source, target, comps, check=check)

    def rank(self) -> int:
        return sum(rank(m) for m in self.comps.values())

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
    """Canonical basis of Hom(M, N) with coordinate helpers."""

    def __init__(self, source: Module, target: Module, rows: Matrix):
        self.source = source
        self.target = target
        self.rows = rows
        self.space = Subspace(source.bq.field, rows.cols, rows)

    @cached_property
    def maps(self) -> list[ModMap]:
        return [ModMap.from_vector(self.source, self.target, r) for r in self.rows.entries]

    @property
    def dim(self) -> int:
        return self.rows.rows

    def coords(self, f: ModMap):
        return self.space.coords(f.vectorize())

    def from_coords(self, coeffs) -> ModMap:
        fld = self.source.bq.field
        vec = [fld.zero] * self.rows.cols
        for c, row in zip(coeffs, self.rows.entries):
            if c:
                vec = [fld.add(a, fld.mul(c, b)) for a, b in zip(vec, row)]
        return ModMap.from_vector(self.source, self.target, vec)

    def __iter__(self):
        return iter(self.maps)

    def __len__(self):
        return self.dim


def hom_space(m: Module, n: Module) -> HomBasis:
    """Solve all naturality squares; canonical basis of the solution space."""
    if m.bq != n.bq:
        raise ModuleError("hom between modules over different quivers")
    f = m.bq.field
    p, zero = f.p, f.zero
    offsets = {}
    total = 0
    for v in m.bq.vertices:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]

    # unknown (v, i, j) is the entry (i, j) of the component at v
    rows = []
    for a in m.bq.arrows:
        x, y = a.source, a.target
        ma, na = m.mats[a.name].entries, n.mats[a.name].entries
        mx, my, ny = m.dims[x], m.dims[y], n.dims[y]
        ox, oy = offsets[x], offsets[y]
        for i in range(n.dims[x]):
            for j in range(my):
                row = [zero] * total
                for k in range(mx):
                    c = ma[k][j]
                    if c:
                        u = ox + i * mx + k
                        row[u] = row[u] + c if p is None else (row[u] + c) % p
                for l in range(ny):
                    c = na[i][l]
                    if c:
                        u = oy + l * my + j
                        row[u] = row[u] - c if p is None else (row[u] - c) % p
                if any(row):
                    rows.append(tuple(row))
    system = Matrix._raw(f, len(rows), total, tuple(rows))
    return HomBasis(m, n, kernel_basis(system))


def hom_dim(m: Module, n: Module) -> int:
    return hom_space(m, n).dim


# ---------------------------------------------------------------------------
# kernels, images, cokernels


def column_space_basis(m: Matrix) -> Matrix:
    """Canonical basis of the column space, returned as columns."""
    return row_space(m.transpose()).transpose()


def submodule(m: Module, columns: dict) -> tuple[Module, ModMap]:
    """Module structure on per-vertex column spans closed under the action."""
    f = m.bq.field
    dims = {v: columns[v].cols for v in m.bq.vertices}
    mats = {}
    for a in m.bq.arrows:
        x, y = a.source, a.target
        image = m.mats[a.name] @ columns[y]
        coords = solve(columns[x], image)
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


def map_factor(f: ModMap) -> Factorization:
    """Kernel, image and cokernel of a module map, with exactness witnesses."""
    m, n = f.source, f.target
    ker_cols = {v: kernel_basis(f.comps[v]).transpose() for v in m.bq.vertices}
    kernel, kernel_incl = submodule(m, ker_cols)

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


def direct_sum(modules: list[Module]) -> tuple[Module, list[ModMap], list[ModMap]]:
    """Direct sum with the canonical inclusions and projections."""
    if not modules:
        raise ModuleError("direct sum of nothing")
    bq = modules[0].bq
    f = bq.field
    dims = {v: sum(m.dims[v] for m in modules) for v in bq.vertices}
    mats = {a.name: block_diag(f, [m.mats[a.name] for m in modules]) for a in bq.arrows}
    total = Module(bq, dims, mats, check=False)
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


def projective(bq: BoundQuiver, x: str, basis: PathBasis | None = None) -> Module:
    """P_x(z) is the path space from z to x, acting by precomposition."""
    basis = basis or path_basis(bq)
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


def dual_module(m: Module, op: BoundQuiver | None = None) -> Module:
    """Vector-space dual, a module over the opposite presentation."""
    op = op or opposite_quiver(m.bq)
    dims = dict(m.dims)
    mats = {a.name: m.mats[a.name].transpose() for a in m.bq.arrows}
    return Module(op, dims, mats, check=False)


def dual_map(f: ModMap, op: BoundQuiver | None = None) -> ModMap:
    op = op or opposite_quiver(f.source.bq)
    src = dual_module(f.target, op)
    tgt = dual_module(f.source, op)
    return ModMap(src, tgt, {v: c.transpose() for v, c in f.comps.items()}, check=False)


def injective(bq: BoundQuiver, x: str, op_basis: PathBasis | None = None) -> Module:
    """I_x, computed as the dual of the projective over the opposite quiver."""
    op = opposite_quiver(bq)
    op_basis = op_basis or path_basis(op)
    p = projective(op, x, op_basis)
    return dual_module(p, bq)


# ---------------------------------------------------------------------------
# radicals of hom spaces


def end_radical(m: Module, end: HomBasis | None = None) -> Subspace:
    """Radical of End(M) via the trace form of the action on M.

    Exact for the rationals and for GF(p) with p > dim M, which is the
    operating regime of this toolkit (the default prime is far larger
    than any fixture dimension).
    """
    end = end or hom_space(m, m)
    return Subspace(m.bq.field, end.dim, kernel_basis(_trace_pairing(end, end)))


def _trace_pairing(hom: HomBasis, back: HomBasis) -> Matrix:
    """The matrix [tr(g_j f_i)] for f_i in Hom(M, N) and g_j in Hom(N, M).

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
    flipped = [[vec[o + i * c + j] for o, r, c in blocks for j in range(c) for i in range(r)]
               for vec in back.rows.entries]
    vecs = hom.rows.entries
    return Matrix.from_rows(f, back.dim, hom.dim,
                            [[sum(a * b for a, b in zip(vec, g)) for vec in vecs] for g in flipped])


class RadicalHom:
    """The radical subspace of Hom(M, N) in hom-basis coordinates."""

    def __init__(self, hom: HomBasis, coords: Subspace):
        self.hom = hom
        self.coords = coords

    @cached_property
    def maps(self) -> list[ModMap]:
        return [self.hom.from_coords(row) for row in self.coords.rows.entries]

    @property
    def dim(self) -> int:
        return self.coords.dim

    def contains(self, f: ModMap) -> bool:
        c = self.hom.coords(f)
        return c is not None and self.coords.contains(c)


def radical_hom(m: Module, n: Module,
                hom: HomBasis | None = None,
                back: HomBasis | None = None) -> RadicalHom:
    """rad(M, N): the maps f with tr(g f) = 0 for every g: N -> M.

    That is the rule "g f lies in rad End(M) for every g", because the
    radical of End(M) is the kernel of its trace form, tr(g f psi) =
    tr(psi g f) by cyclicity of the trace, and End(M) Hom(N, M) = Hom(N, M).
    """
    f = m.bq.field
    hom = hom if hom is not None else hom_space(m, n)
    if hom.dim == 0:
        return RadicalHom(hom, Subspace.span(f, 0, []))
    back = back if back is not None else hom_space(n, m)
    return RadicalHom(hom, Subspace(f, hom.dim, kernel_basis(_trace_pairing(hom, back))))


class PairCache:
    """Memo for hom/radical computations over a stable set of modules.

    Keys are object identities, so this is only safe while the modules it
    has seen stay alive; enumeration keeps them in its working list.
    """

    def __init__(self):
        self._hom: dict = {}
        self._rad: dict = {}
        self._keep: list = []

    def hom(self, m: Module, n: Module) -> HomBasis:
        key = (id(m), id(n))
        out = self._hom.get(key)
        if out is None:
            out = hom_space(m, n)
            self._hom[key] = out
            self._keep.append((m, n))
        return out

    def radical(self, m: Module, n: Module) -> RadicalHom:
        key = (id(m), id(n))
        out = self._rad.get(key)
        if out is None:
            out = radical_hom(m, n, hom=self.hom(m, n), back=self.hom(n, m))
            self._rad[key] = out
        return out


def is_isomorphic_indec(m: Module, n: Module) -> bool:
    """Isomorphism test for modules assumed indecomposable."""
    if m.dims != n.dims:
        return False
    if m.is_zero():
        return True
    hom = hom_space(m, n)
    if hom.dim == 0:
        return False
    # some f with tr(g f) != 0 is outside rad(M, N)
    return not _trace_pairing(hom, hom_space(n, m)).is_zero()


def find_iso(m: Module, n: Module) -> ModMap | None:
    """An explicit isomorphism between isomorphic indecomposables."""
    if m.dims != n.dims:
        return None
    if m.is_zero():
        return ModMap.zero(m, n)
    hom = hom_space(m, n)
    rad = radical_hom(m, n, hom=hom)
    if hom.dim == rad.dim:
        return None
    reps = rad.coords.quotient().representatives
    cand = hom.maps[reps[0]]
    if all(inverse(cand.comps[v]) is not None for v in m.bq.vertices):
        return cand
    # a non-radical map between isomorphic indecomposables is invertible,
    # so reaching this point means the inputs were not indecomposable
    raise ModuleError("find_iso applied to a decomposable module")


# ---------------------------------------------------------------------------
# decomposition


@dataclass
class DecompPiece:
    module: Module
    include: ModMap   # piece -> whole
    project: ModMap   # whole -> piece


@dataclass
class Decomposition:
    module: Module
    pieces: list[DecompPiece]
    classes: list[list[int]]   # piece indices grouped by isomorphism

    def summands(self) -> list[tuple[Module, int]]:
        return [(self.pieces[group[0]].module, len(group)) for group in self.classes]

    @property
    def is_indecomposable(self) -> bool:
        return len(self.pieces) == 1

    def witnesses(self) -> tuple[Module, ModMap, ModMap]:
        """(direct sum of the pieces, to_sum, from_sum), mutually inverse."""
        total, incls, projs = direct_sum([p.module for p in self.pieces])
        to_sum = None
        from_sum = None
        for piece, incl, proj in zip(self.pieces, incls, projs):
            up = incl @ piece.project        # module -> total through one piece
            down = piece.include @ proj      # total -> module through one piece
            to_sum = up if to_sum is None else to_sum + up
            from_sum = down if from_sum is None else from_sum + down
        return total, to_sum, from_sum


def _minimal_polynomial(phi: ModMap):
    f = phi.source.bq.field
    vecs = [ModMap.identity(phi.source).vectorize()]
    power = ModMap.identity(phi.source)
    bound = phi.source.total_dim
    for _ in range(bound + 1):
        power = phi @ power
        target = Matrix(f, [list(power.vectorize())]).transpose()
        stack = Matrix(f, [list(v) for v in vecs]).transpose()
        sol = solve(stack, target)
        if sol is not None:
            coeffs = [f.neg(sol.entries[i][0]) for i in range(len(vecs))]
            return poly_trim(coeffs + [f.one])
        vecs.append(power.vectorize())
    raise DecompositionError("minimal polynomial did not terminate")


def _poly_of_map(poly, phi: ModMap) -> ModMap:
    f = phi.source.bq.field
    acc = ModMap.zero(phi.source, phi.source)
    power = ModMap.identity(phi.source)
    for c in poly:
        if c:
            acc = acc + power.scale(c)
        power = phi @ power
    return acc


def _fitting_split(piece: DecompPiece, psi: ModMap) -> tuple[DecompPiece, DecompPiece] | None:
    """The pieces ker psi and im psi of M, or None when one of them is zero.

    For psi = g(phi)^N with N >= dim M, Fitting's lemma makes M the
    direct sum of the two.
    """
    m = piece.module
    f = m.bq.field
    ker_cols = {v: kernel_basis(psi.comps[v]).transpose() for v in m.bq.vertices}
    if not 0 < sum(c.cols for c in ker_cols.values()) < m.total_dim:
        return None
    ker, ker_incl = submodule(m, ker_cols)
    im, im_incl = image_submodule(psi)
    proj_k, proj_i = {}, {}
    for v in m.bq.vertices:
        u_inv = inverse(hstack([ker_incl.comps[v], im_incl.comps[v]]))
        if u_inv is None:
            return None
        kd = ker.dims[v]
        proj_k[v] = Matrix.from_rows(f, kd, m.dims[v], u_inv.entries[:kd])
        proj_i[v] = Matrix.from_rows(f, im.dims[v], m.dims[v], u_inv.entries[kd:])
    pk = ModMap(m, ker, proj_k, check=False)
    pi = ModMap(m, im, proj_i, check=False)
    return (
        DecompPiece(ker, piece.include @ ker_incl, pk @ piece.project),
        DecompPiece(im, piece.include @ im_incl, pi @ piece.project),
    )


def _try_split(piece: DecompPiece, phi: ModMap) -> tuple[DecompPiece, DecompPiece] | None:
    """Split on phi^N when phi has eigenvalue 0 and another one; otherwise
    on g(phi)^N for the divisors g of the minimal polynomial."""
    n = max(piece.module.total_dim, 1)
    split = _fitting_split(piece, phi.power(n))
    if split is not None:
        return split
    f = piece.module.bq.field
    rng = random.Random(0xF17)
    for g in _candidate_factors(f, _minimal_polynomial(phi), rng):
        split = _fitting_split(piece, _poly_of_map(g, phi).power(n))
        if split is not None:
            return split
    return None


def decompose(m: Module, seed: int = DEFAULT_SEED, max_tries: int = 64) -> Decomposition:
    """Full direct-sum decomposition with inclusion/projection witnesses."""
    if m.is_zero():
        return Decomposition(m, [], [])
    rng = random.Random(seed)
    done: list[DecompPiece] = []
    stack = [DecompPiece(m, ModMap.identity(m), ModMap.identity(m))]
    while stack:
        piece = stack.pop()
        p = piece.module
        end = hom_space(p, p)
        if end.dim == 1:
            done.append(piece)
            continue
        rad = end_radical(p, end)
        if end.dim - rad.dim == 1:
            done.append(piece)
            continue
        # a map in K 1 + rad End(P) has a single eigenvalue, so it cannot split
        f = p.bq.field
        local = Subspace.span(f, end.dim, [*rad.rows.entries, end.coords(ModMap.identity(p))])
        split = None
        for attempt in range(max_tries):
            if attempt < end.dim:
                coords = [f.zero] * end.dim
                coords[attempt] = f.one
            else:
                coords = [f.sample(rng) for _ in range(end.dim)]
            if local.contains(coords):
                continue
            phi = end.maps[attempt] if attempt < end.dim else end.from_coords(coords)
            split = _try_split(piece, phi)
            if split is not None:
                break
        if split is None:
            raise DecompositionError(
                "could not split a module with non-local endomorphism algebra; "
                "the field may be too small")
        stack.extend(split)

    order = sorted(range(len(done)), key=lambda i: done[i].module.sort_key())
    done = [done[i] for i in order]
    classes: list[list[int]] = []
    for i, piece in enumerate(done):
        for group in classes:
            if is_isomorphic_indec(done[group[0]].module, piece.module):
                group.append(i)
                break
        else:
            classes.append([i])
    return Decomposition(m, done, classes)


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
# irreducible maps and almost split maps


@dataclass
class IrrSpace:
    dim: int
    lifted: list[ModMap]   # maps X -> N spanning rad modulo rad^2


def irr_space(x: Module, n: Module, ind_list: list[Module],
              cache: PairCache | None = None) -> IrrSpace:
    """rad(X, N)/rad^2(X, N) with rad^2 spanned through the given list."""
    f = x.bq.field
    cache = cache or PairCache()
    hom = cache.hom(x, n)
    rad = cache.radical(x, n)
    if rad.dim == 0:
        return IrrSpace(0, [])
    rad2_rows = []
    for y in ind_list:
        first = cache.radical(x, y)
        if first.dim == 0:
            continue
        second = cache.radical(y, n)
        if second.dim == 0:
            continue
        for a in first.maps:
            for b in second.maps:
                comp = b @ a
                coords = hom.coords(comp)
                in_rad = rad.coords.coords(coords)
                if in_rad is None:
                    raise ModuleError("rad^2 escaped rad; the list is inconsistent")
                rad2_rows.append(in_rad)
    rad2 = Subspace.span(f, rad.dim, rad2_rows)
    reps = rad2.quotient().representatives
    return IrrSpace(rad.dim - rad2.dim, [rad.maps[i] for i in reps])


def _is_projective_vertex(n: Module, basis: PathBasis) -> str | None:
    """The vertex x with N isomorphic to P_x, or None.

    That holds iff N has top S_x and the dimension vector of P_x, since the
    projective cover P_x -> N is onto.  The arrow images span the radical
    because relation terms are never stationary, so the top at v has
    dimension dims[v] minus the rank of the out-arrow block, and no
    submodule needs to be built.
    """
    vertices = n.bq.vertices
    dims_of_p = {x: {z: basis.dim(z, x) for z in vertices} for x in vertices}
    if n.dims not in dims_of_p.values():
        return None
    top = {}
    for v in vertices:
        block = _out_block(n, v)
        top[v] = n.dims[v] - (0 if block is None else rank(block))
    if sum(top.values()) != 1:
        return None
    x = next(v for v in vertices if top[v])
    return x if n.dims == dims_of_p[x] else None


def right_almost_split(n: Module, ind_list: list[Module],
                       basis: PathBasis | None = None,
                       check: bool = True,
                       cache: PairCache | None = None) -> ModMap:
    """The right minimal almost split map into an indecomposable N.

    For a projective N this is the inclusion of its radical; otherwise the
    source is assembled from the irreducible-map spaces over the supplied
    indecomposable list.  With check=True the defining factorization
    property is verified against the whole list, so an incomplete list is
    detected rather than silently accepted.
    """
    if n.is_zero():
        raise AlmostSplitError("almost split map into the zero module")
    basis = basis or path_basis(n.bq)
    cache = cache or PairCache()
    if _is_projective_vertex(n, basis) is not None:
        rad, incl = radical_submodule(n)
        g = incl
    else:
        parts: list[Module] = []
        comps: list[ModMap] = []
        for x in ind_list:
            irr = irr_space(x, n, ind_list, cache=cache)
            for lifted in irr.lifted:
                parts.append(x)
                comps.append(lifted)
        if parts:
            e, incls, _ = direct_sum(parts)
            sum_comps = {v: hstack([c.comps[v] for c in comps]) for v in n.bq.vertices}
            g = ModMap(e, n, sum_comps, check=False)
        else:
            g = ModMap.zero(Module.zero(n.bq), n)
    if check:
        failures = verify_right_almost_split(g, n, ind_list, cache=cache)
        if failures:
            raise AlmostSplitError("; ".join(failures))
    return g


def _factors_through(h: ModMap, g: ModMap) -> bool:
    """Does h: X -> N factor as g u for some u: X -> E (g: E -> N)?"""
    e = g.source
    x = h.source
    candidates = hom_space(x, e)
    if candidates.dim == 0:
        return h.is_zero()
    f = x.bq.field
    cols = []
    for u in candidates.maps:
        cols.append(list((g @ u).vectorize()))
    a = Matrix(f, cols).transpose()
    b = Matrix(f, [list(h.vectorize())]).transpose()
    return solve(a, b) is not None


def verify_right_almost_split(g: ModMap, n: Module, ind_list: list[Module],
                              cache: PairCache | None = None) -> list[str]:
    """Constructive postcondition: non-split, and every radical map factors."""
    cache = cache or PairCache()
    failures = []
    if not n.is_zero() and _factors_through(ModMap.identity(n), g):
        failures.append("the map is a split epimorphism")
    for x in ind_list:
        if x.dims == n.dims and is_isomorphic_indec(x, n):
            continue
        for h in cache.hom(x, n).maps:
            if not _factors_through(h, g):
                failures.append(f"a map from {x!r} does not factor (list incomplete?)")
                break
    for r in cache.radical(n, n).maps:
        if not _factors_through(r, g):
            failures.append("a radical endomorphism does not factor")
            break
    return failures


def left_almost_split(n: Module, ind_list: list[Module],
                      op: BoundQuiver | None = None,
                      op_basis: PathBasis | None = None,
                      check: bool = True,
                      dual_n: Module | None = None,
                      dual_list: list[Module] | None = None,
                      cache: PairCache | None = None) -> ModMap:
    """The left minimal almost split map out of N, via duality."""
    op = op or opposite_quiver(n.bq)
    op_basis = op_basis or path_basis(op)
    dual_n = dual_n if dual_n is not None else dual_module(n, op)
    dual_list = dual_list if dual_list is not None else [dual_module(x, op) for x in ind_list]
    g = right_almost_split(dual_n, dual_list, basis=op_basis, check=check, cache=cache)
    return dual_map(g, n.bq)


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


def enumerate_indecomposables(bq: BoundQuiver, dim_cap: int = 40, count_cap: int = 80,
                              seed: int = DEFAULT_SEED,
                              basis: PathBasis | None = None,
                              closure: str = "full") -> Enumeration:
    """Close the simples, projectives and injectives under the module
    operations that generate the AR quiver at desk scale.

    The full closure adds radical submodules, socle quotients, summands
    and kernels/cokernels of (candidate) almost split maps, and images of
    radical maps between listed modules; stabilizing within the caps and
    passing the factorization check of every almost split map marks the
    list complete.  closure="light" keeps only the radical/socle steps and
    skips the factorization check, so stabilizing within the caps marks
    the list complete; that is sound only over a Nakayama algebra (no
    vertex with two arrows in or two arrows out), whose indecomposables
    are quotients of projectives.
    """
    basis = basis or path_basis(bq)
    op = opposite_quiver(bq)
    op_basis = path_basis(op)
    notes: list[str] = []
    found: list[Module] = []
    # while complete, every module in seen is found or a direct sum of
    # modules isomorphic to found ones, so a repeat adds nothing; a
    # candidate joins seen only after its pieces, since an indecomposable
    # candidate is its own piece
    seen: set[Module] = set()
    duals: dict[int, Module] = {}
    cache = PairCache()
    op_cache = PairCache()
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
            dec = decompose(candidate, seed=seed)
        except DecompositionError as e:
            complete = False
            notes.append(str(e))
            return new
        for piece, _count in dec.summands():
            if piece.total_dim > dim_cap:
                complete = False
                notes.append(f"dimension cap {dim_cap} hit")
                continue
            if piece in seen or any(is_isomorphic_indec(piece, m) for m in found):
                continue
            if len(found) >= count_cap:
                complete = False
                notes.append(f"count cap {count_cap} hit")
                continue
            found.append(piece)
            seen.add(piece)
            duals[id(piece)] = dual_module(piece, op)
            new.append(piece)
        seen.add(candidate)
        return new

    queue: list[Module] = []
    for v in bq.vertices:
        queue.extend(add(simple(bq, v)))
    for v in bq.vertices:
        queue.extend(add(projective(bq, v, basis)))
    for v in bq.vertices:
        queue.extend(add(injective(bq, v, op_basis)))

    processed = 0
    while queue and complete:
        n = queue.pop(0)
        processed += 1
        rad, _ = radical_submodule(n)
        queue.extend(add(rad))
        socq, _ = socle_quotient(n)
        queue.extend(add(socq))
        if closure == "full" and complete:
            if _is_projective_vertex(n, basis) is None:
                g = right_almost_split(n, found, basis=basis, check=False, cache=cache)
                queue.extend(add(g.source))
                if complete:
                    fac = map_factor(g)
                    if fac.cokernel.is_zero():
                        queue.extend(add(fac.kernel))
            dual_n = duals[id(n)]
            if complete and _is_projective_vertex(dual_n, op_basis) is None:
                gl = left_almost_split(n, found, op=op, op_basis=op_basis, check=False,
                                       dual_n=dual_n,
                                       dual_list=[duals[id(x)] for x in found],
                                       cache=op_cache)
                queue.extend(add(gl.target))
                if complete:
                    fac = map_factor(gl)
                    if fac.kernel.is_zero():
                        queue.extend(add(fac.cokernel))
            for x in list(found):
                if not complete:
                    break
                for h in cache.radical(x, n).maps:
                    queue.extend(add(image_submodule(h)[0]))
                if x is not n:
                    for h in cache.radical(n, x).maps:
                        queue.extend(add(image_submodule(h)[0]))
        if processed > 4 * count_cap:
            complete = False
            notes.append("closure did not stabilize")
            break

    if complete and closure == "full":
        for n in found:
            try:
                right_almost_split(n, found, basis=basis, check=True, cache=cache)
            except AlmostSplitError as e:
                complete = False
                notes.append(f"verification failed: {e}")
                break

    found.sort(key=lambda m: m.sort_key())
    return Enumeration(bq, found, complete, notes)


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
                if not d.isdigit():
                    raise ModuleParseError(lineno, f"bad dimension {part!r}")
                dims[v] = int(d)
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
