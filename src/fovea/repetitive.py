"""Truncated repetitive categories and orbit selfinjective algebras.

The repetitive category doubles a finite-dimensional algebra into an
infinite stack of layers: morphisms inside a layer are the algebra's own,
morphisms one layer up are functionals on morphisms the other way, and
nothing reaches farther.  Finite truncations are honest structure-constant
categories; the shift-by-one grading packages the whole stack as a
VoltageQuiver, and quotients by k-fold shifts produce selfinjective
algebras (the trivial extension at k = 1).
"""

from __future__ import annotations

from .linalg import Matrix, kernel_basis
from .modules import injective, is_isomorphic_indec, projective
from .quiver import (
    BoundQuiver,
    QuiverError,
    StructureCategory,
    VoltageQuiver,
    Window,
    arrow_elements,
    extract_presentation,
    lift_window,
    path_basis,
    presentation_basis,
    radical_filtration,
)


class RepetitiveTruncation:
    """The layers -n..n of the repetitive category of an algebra."""

    def __init__(self, bq: BoundQuiver, n: int):
        if n < 0:
            raise QuiverError("truncation radius must be nonnegative")
        self.base = bq
        self.n = n
        self.category = _repetitive_category(bq, range(-n, n + 1))

    @property
    def total_dim(self) -> int:
        return self.category.total_dim

    def export(self, rv: VoltageQuiver | None = None) -> BoundQuiver:
        """A bound quiver presentation with vertices named vertex@layer,
        whose path basis is checked against the category's dimensions.

        Layer 0 alone is extracted from the category.  For n >= 1 the
        presentation is the window -n..n of the repetitive voltage quiver rv
        (built from the base when not given), renamed: byte for byte the one
        extract_presentation would give.

        - Hom and composition depend only on r - m.
        - Every nonzero product x -> y -> z has y in a layer between those
          of x and z.  So the rad and rad^2 blocks, the canonical arrow
          representatives and the nilpotency degree of T_n equal those of
          T_1 at ((0, i), (d, j)), which are rv's.
        - A path from (m, i) to (m + d, j) visits only layers m..m + d, so
          for d <= 1 its evaluation matrix and canonical kernel are the
          shifted ones.
        - For d >= 2 the hom is zero, so each path of length <= nilbound is
          its own relation, listed in path order, in T_n as in rv.
        - The identity column at (x, x) never enters a kernel vector: every
          other column lies in the radical.
        - The window lists its arrows by layer, then in rv's order, which
          runs by source, and its relations per rv relation, which a stable
          sort by endpoints puts in extract_presentation's order.  Arrows
          are renamed a0, a1, ... one to one, which keeps every check.
        """
        def name(o):
            return f"{o[1]}@{o[0]}"

        if self.n == 0:
            return extract_presentation(self.category, vertex_name=name)
        window = lift_window(rv or repetitive_voltage(self.base), Window(-self.n, self.n))
        names = {a.name: f"a{k}" for k, a in enumerate(window.arrows)}
        relations = sorted(window.relations, key=lambda rel: [
            window.vertex_index[v] for v in window.relation_endpoints(rel)])
        out = BoundQuiver._unchecked(
            window.vertices, tuple(a._replace(name=names[a.name]) for a in window.arrows),
            tuple(tuple((c, tuple(names[x] for x in p)) for c, p in rel) for rel in relations),
            window.field, window.nilbound)
        presentation_basis(self.category, out)
        return out


def _repetitive_category(bq: BoundQuiver, layers) -> StructureCategory:
    """The full subcategory of the repetitive category on consecutive layers.

    Objects are (layer, vertex).  Hom bases: within a layer the path
    classes of the algebra; one layer up the dual basis of the path
    classes the other way; the compositions (u then phi)(b) = phi(b u) and
    (phi then w)(c) = phi(w c) wire the dual layer to the algebra action.
    """
    basis, f = path_basis(bq), bq.field
    objs = [(m, i) for m in layers for i in bq.vertices]
    # a block is nonzero only on pairs that hold paths
    dims = {}
    for i, j in basis.paths:
        for m in layers:
            dims[((m, i), (m, j))] = basis.dim(i, j)
            if m + 1 in layers:
                dims[((m, j), (m + 1, i))] = basis.dim(i, j)
    identity_index = {}
    for (m, i) in objs:
        coords = basis.identity_coords(i)
        identity_index[(m, i)] = next(k for k, c in enumerate(coords) if c)

    def compose(x, y, z, u, v):
        (m, i), (r, j), (s, k) = x, y, z
        if r == m and s == m:
            return basis.compose(i, j, k, u, v)
        if r == m and s == m + 1:
            # u in A(i,j), v a functional on A(k,j); result functional on A(k,i)
            out = []
            for c in _unit_vectors(f, basis.dim(k, i)):
                w = basis.compose(k, i, j, c, u)
                out.append(_pair(f, w, v))
            return tuple(out)
        if r == m + 1 and s == m + 1:
            # u a functional on A(j,i), v in A(j,k); result functional on A(k,i)
            out = []
            for c in _unit_vectors(f, basis.dim(k, i)):
                w = basis.compose(j, k, i, v, c)
                out.append(_pair(f, w, u))
            return tuple(out)
        # anything spanning two or more connecting layers vanishes
        return (f.zero,) * dims.get((x, z), 0)

    return StructureCategory(f, objs, dims, compose, identity_index)


def _unit_vectors(f, n):
    for i in range(n):
        v = [f.zero] * n
        v[i] = f.one
        yield tuple(v)


def _pair(f, coords, functional):
    acc = f.zero
    for a, b in zip(coords, functional):
        if a and b:
            acc = f.add(acc, f.mul(a, b))
    return acc


def repetitive_truncation(bq: BoundQuiver, n: int) -> RepetitiveTruncation:
    return RepetitiveTruncation(bq, n)


def repetitive_voltage(bq: BoundQuiver) -> VoltageQuiver:
    """The repetitive category as a graded presentation with shift degree 1.

    A nonzero morphism moves up at most one layer, and the composite of two
    layer-raising maps is zero, so a nonzero product that starts at layer
    zero stays inside layers 0 and 1; by shift invariance every nonzero
    product is a shift of such a one.  Nothing maps down a layer, so the
    full subcategory on layers 0 and 1 holds every such product: its rad
    and rad^2 blocks from layer 0 and its nilpotency degree are those of
    the whole category.  Arrows are a rad/rad^2 basis taken at
    layer zero (shift invariance makes that choice global); relations are
    the canonical kernel of path evaluation, where a path that reaches
    layer 2 or beyond is zero because Hom((0, i), (m, j)) = 0 for m >= 2.
    """
    cat = _repetitive_category(bq, (0, 1))
    rad, rad2, nildeg = radical_filtration(cat)
    nilbound = nildeg + 1

    reps = arrow_elements(cat, rad, rad2)
    arrows = []
    degrees = {}
    elems = {}
    counter = 0
    for i in bq.vertices:
        for d in (0, 1):
            for j in bq.vertices:
                for elem in reps.get(((0, i), (d, j)), []):
                    name = f"a{counter}"
                    counter += 1
                    arrows.append((name, i, j))
                    degrees[name] = d
                    elems[name] = elem

    out_arrows: dict[str, list[str]] = {i: [] for i in bq.vertices}
    for name, src, _tgt in arrows:
        out_arrows[src].append(name)
    arrow_target = {name: tgt for name, _src, tgt in arrows}

    # evaluate orbit paths inside the truncation, tracking layers
    relations = []
    for i in bq.vertices:
        paths: dict[tuple[str, int], list] = {}
        frontier = [((), i, 0, cat.unit((0, i)))]
        for _ in range(nilbound):
            nxt = []
            for path, end, layer, val in frontier:
                for name in out_arrows[end]:
                    d = degrees[name]
                    tgt = arrow_target[name]
                    if layer + d > 1:
                        new_val = ()    # Hom((0, i), (m, j)) = 0 for m >= 2
                    else:
                        new_val = cat.compose((0, i), (layer, end), (layer + d, tgt),
                                              val, elems[name])
                    p = path + (name,)
                    paths.setdefault((tgt, layer + d), []).append((p, new_val))
                    nxt.append((p, tgt, layer + d, new_val))
            frontier = nxt
        for (j, layer), plist in sorted(paths.items()):
            ev = Matrix(bq.field, [list(val) for _p, val in plist]).transpose() \
                if cat.dim((0, i), (layer, j)) else Matrix.zeros(bq.field, 0, len(plist))
            for row in kernel_basis(ev).entries:
                terms = tuple((c, p) for c, (p, _v) in zip(row, plist) if c)
                if terms:
                    relations.append(terms)

    lifted = BoundQuiver(bq.vertices, arrows, relations, bq.field, nilbound)
    return VoltageQuiver(lifted, degrees)


def selfinjective_orbit(bq: BoundQuiver, k: int = 1) -> BoundQuiver:
    """Quotient of the repetitive category by the k-fold shift subgroup."""
    if k < 1:
        raise QuiverError("orbit exponent must be at least 1")
    return _orbit_quotient(repetitive_voltage(bq), k)


def _orbit_quotient(rv: VoltageQuiver, k: int) -> BoundQuiver:
    """The orbit algebra of a repetitive voltage quiver under the k-fold shift."""
    base = rv.base
    if k == 1:
        return BoundQuiver(base.vertices, [tuple(a) for a in base.arrows],
                           base.relations, base.field, base.nilbound)
    vertices = [f"{v}%{c}" for c in range(k) for v in base.vertices]
    arrows = []
    for c in range(k):
        for a in base.arrows:
            arrows.append((f"{a.name}%{c}", f"{a.source}%{c}",
                           f"{a.target}%{(c + rv.degree[a.name]) % k}"))
    relations = []
    seen = set()
    for rel in base.relations:
        for c in range(k):
            terms = []
            for coeff, p in rel:
                lifted = []
                layer = c
                for arr in p:
                    lifted.append(f"{arr}%{layer % k}")
                    layer += rv.degree[arr]
                terms.append((coeff, tuple(lifted)))
            key = tuple(terms)
            if key not in seen:
                seen.add(key)
                relations.append(key)
    return BoundQuiver(vertices, arrows, relations, base.field, base.nilbound)


def is_selfinjective(bq: BoundQuiver) -> bool:
    """Each indecomposable projective is injective (and conversely); I_x = D A(x, -)."""
    projs = {v: projective(bq, v) for v in bq.vertices}
    injs = {v: injective(bq, v) for v in bq.vertices}
    remaining = list(bq.vertices)
    for v, p in projs.items():
        match = None
        for w in remaining:
            if p.dims == injs[w].dims and is_isomorphic_indec(p, injs[w]):
                match = w
                break
        if match is None:
            return False
        remaining.remove(match)
    return not remaining
