"""Bound quiver presentations and their graded (voltage) refinements.

A BoundQuiver is a finite quiver with scalar relations and a nilpotency
bound m: every path of length >= m is declared zero, which keeps all path
spaces finite and admissibility decidable.  A VoltageQuiver attaches an
integer degree to each arrow; its graded lift presents an infinite
category on which the integers act by shifting layers, and finite windows
of that lift are again BoundQuivers.
"""

from __future__ import annotations

import weakref
from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate

from .linalg import (
    Field,
    Matrix,
    QuotientMap,
    Subspace,
    _echelon_reduce,
    _echelon_subspace,
    kernel_basis,
    parse_field_spec,
    parse_int,
)

Arrow = namedtuple("Arrow", ["name", "source", "target"])


class QuiverError(ValueError):
    pass


class ParseError(QuiverError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class PathExplosionError(QuiverError):
    pass


class BoundQuiver:
    """A finite quiver with relations and a nilpotency bound.

    Relations are tuples of (coefficient, path) terms; a path is a tuple
    of arrow names in traversal order, so in "a*b" the arrow a is walked
    first and t(a) = s(b).

    It owns two memos, which take no part in equality or hashing: its path
    basis (`path_basis`) and its opposite (`opposite_quiver`).  Neither
    holds this quiver strongly, so both die with it, cycle collector or no.
    """

    _basis = None
    _opposite = None    # the opposite quiver, or a weakref to the quiver it is the opposite of

    def __init__(self, vertices, arrows, relations, field: Field, nilbound: int):
        self.vertices = tuple(vertices)
        self.arrows = tuple(Arrow(*a) for a in arrows)
        self.field = field
        self.nilbound = int(nilbound)
        if self.nilbound < 1:
            raise QuiverError("nilbound must be at least 1")
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise QuiverError("duplicate arrow names")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise QuiverError(f"arrow {a.name} has a dangling endpoint")
        self._index()
        rels = []
        for rel in relations:
            terms = tuple((field.coerce(c), tuple(p)) for c, p in rel)
            if not terms:
                continue
            src = tgt = None
            for _, p in terms:
                if not p:
                    raise QuiverError("relation term is a stationary path")
                for name in p:
                    if name not in self.arrow_map:
                        raise QuiverError(f"unknown arrow {name} in relation")
                for step, nxt in zip(p, p[1:]):
                    if self.arrow_map[step].target != self.arrow_map[nxt].source:
                        raise QuiverError(
                            f"relation path {'*'.join(p)} is not composable "
                            f"(t({step}) != s({nxt}))")
                s, t = self.arrow_map[p[0]].source, self.arrow_map[p[-1]].target
                if src is None:
                    src, tgt = s, t
                elif (s, t) != (src, tgt):
                    raise QuiverError("relation terms are not parallel")
            rels.append(terms)
        self.relations = tuple(rels)

    @classmethod
    def _unchecked(cls, vertices, arrows, relations, field, nilbound):
        """A quiver from parts already known to pass __init__'s checks
        (tuples of Arrows, relations with coerced coefficients), set up as
        __init__ sets it up."""
        out = cls.__new__(cls)
        out.vertices, out.arrows, out.field, out.nilbound = vertices, arrows, field, nilbound
        out._index()
        out.relations = relations
        return out

    def _index(self):
        self.arrow_map = {a.name: a for a in self.arrows}
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.out_arrows = {v: [] for v in self.vertices}
        self.in_arrows = {v: [] for v in self.vertices}
        for a in self.arrows:
            self.out_arrows[a.source].append(a)
            self.in_arrows[a.target].append(a)

    def relation_endpoints(self, rel):
        _, p = rel[0]
        return self.arrow_map[p[0]].source, self.arrow_map[p[-1]].target

    def __eq__(self, other):
        return self is other or (
            isinstance(other, BoundQuiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
            and self.relations == other.relations
            and self.field == other.field
            and self.nilbound == other.nilbound
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows, self.relations, self.field, self.nilbound))

    def __repr__(self):
        return (f"BoundQuiver({len(self.vertices)} vertices, {len(self.arrows)} arrows, "
                f"{len(self.relations)} relations, nilbound {self.nilbound})")


class VoltageQuiver:
    """A bound quiver with integer arrow degrees and homogeneous relations.

    It owns four memos, which take no part in equality or hashing: its
    window lifts (`_lifts`, weak), the lift of [0, w] for each width w as
    (name, layer) parts (`_templates`, which `lift_window` shifts onto
    every window of that width), its orbit list of indecomposables up to
    shift (`_orbits`), and the enumeration of its base at the cover caps
    per seed (`_base_enums`, which `covering.base_enumeration` fills).
    """

    def __init__(self, base: BoundQuiver, degree: dict[str, int]):
        self.base = base
        self.degree = {a.name: int(degree.get(a.name, 0)) for a in base.arrows}
        for rel in base.relations:
            degs = {sum(self.degree[a] for a in p) for _, p in rel}
            if len(degs) != 1:
                raise QuiverError("relation is not homogeneous in total degree")
        self.field = base.field
        self._lifts = weakref.WeakValueDictionary()
        self._templates = {}
        self._orbits = None
        self._base_enums = {}

    def __eq__(self, other):
        return isinstance(other, VoltageQuiver) and self.base == other.base and self.degree == other.degree

    def __hash__(self):
        return hash((self.base, tuple(sorted(self.degree.items()))))

    def __repr__(self):
        return f"VoltageQuiver({self.base!r})"


@dataclass(frozen=True)
class Window:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise QuiverError(f"empty window [{self.lo}, {self.hi}]")

    @property
    def layers(self):
        return range(self.lo, self.hi + 1)

    def __contains__(self, n: int) -> bool:
        return self.lo <= n <= self.hi


# ---------------------------------------------------------------------------
# file format


_COEFF_CHARS = frozenset("0123456789/-+")


def _looks_like_coeff(tok: str) -> bool:
    return bool(tok) and all(c in _COEFF_CHARS for c in tok) and any(c.isdigit() for c in tok)


def parse_quiver(text: str):
    """Parse the line-oriented quiver format.

    Returns a BoundQuiver, or a VoltageQuiver when any arrow carries a
    `deg` marker.  Raises ParseError with the offending line number.
    """
    field = None
    nilbound = None
    vertices: list[str] = []
    arrows: list[tuple] = []
    arrow_lines: dict[str, int] = {}
    degrees: dict[str, int] = {}
    saw_degree = False
    relation_lines: list[tuple[int, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "field":
            try:
                field = parse_field_spec(rest)
            except ValueError as e:
                raise ParseError(lineno, str(e))
        elif head == "nilbound":
            try:
                nilbound = parse_int(rest)
            except ValueError:
                raise ParseError(lineno, f"bad nilbound {rest!r}")
            if nilbound < 1:
                raise ParseError(lineno, "nilbound must be at least 1")
        elif head == "vertex":
            if not rest:
                raise ParseError(lineno, "vertex line without names")
            for v in rest.split():
                if v in vertices:
                    raise ParseError(lineno, f"duplicate vertex {v!r}")
                vertices.append(v)
        elif head == "arrow":
            if ":" not in rest:
                raise ParseError(lineno, "arrow line needs 'name: src -> tgt'")
            name, _, spec = rest.partition(":")
            name = name.strip()
            if name in arrow_lines:
                raise ParseError(lineno, f"duplicate arrow {name!r}")
            parts = spec.split()
            if "->" not in parts:
                raise ParseError(lineno, "arrow line needs '->'")
            i = parts.index("->")
            if i != 1 or len(parts) not in (3, 5):
                raise ParseError(lineno, "arrow line needs 'name: src -> tgt [deg k]'")
            src, tgt = parts[0], parts[2]
            if len(parts) == 5:
                if parts[3] != "deg":
                    raise ParseError(lineno, f"expected 'deg', got {parts[3]!r}")
                try:
                    degrees[name] = parse_int(parts[4])
                except ValueError:
                    raise ParseError(lineno, f"bad degree {parts[4]!r}")
                saw_degree = True
            arrows.append((name, src, tgt))
            arrow_lines[name] = lineno
        elif head == "relation":
            relation_lines.append((lineno, rest))
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")

    if field is None:
        field = Field.gf(32749)
    if nilbound is None:
        raise ParseError(0, "missing nilbound line")
    vset = set(vertices)
    for name, src, tgt in arrows:
        for v in (src, tgt):
            if v not in vset:
                raise ParseError(arrow_lines[name], f"arrow {name}: unknown vertex {v!r}")

    relations = []
    for lineno, rest in relation_lines:
        if not rest:
            raise ParseError(lineno, "empty relation")
        toks = rest.split()
        terms = []
        sign = 1
        i = 0
        while i < len(toks):
            tok = toks[i]
            if tok == "+":
                sign = 1
                i += 1
                continue
            if tok == "-":
                sign = -1
                i += 1
                continue
            coeff = field.one
            if _looks_like_coeff(tok) and i + 1 < len(toks) and not _looks_like_coeff(toks[i + 1]):
                try:
                    coeff = field.parse(tok)
                except ValueError:
                    raise ParseError(lineno, f"bad coefficient {tok!r}")
                i += 1
                tok = toks[i]
            path = tuple(tok.split("*"))
            if sign < 0:
                coeff = field.neg(coeff)
            terms.append((coeff, path))
            sign = 1
            i += 1
        relations.append(tuple(terms))
        try:  # alone, so that an error names this relation's line
            alone = BoundQuiver(vertices, arrows, relations[-1:], field, nilbound)
            if saw_degree:
                VoltageQuiver(alone, degrees)
        except QuiverError as e:
            raise ParseError(lineno, str(e))

    try:
        bq = BoundQuiver(vertices, arrows, relations, field, nilbound)
        if saw_degree:
            return VoltageQuiver(bq, degrees)
    except QuiverError as e:
        raise ParseError(0, str(e))
    return bq


def format_quiver(q) -> str:
    """Canonical serialization; parse(format(q)) reproduces q."""
    vq = q if isinstance(q, VoltageQuiver) else None
    bq = vq.base if vq else q
    f = bq.field
    lines = []
    lines.append("field q" if f.is_rational else f"field gf {f.p}")
    lines.append(f"nilbound {bq.nilbound}")
    if bq.vertices:
        lines.append("vertex " + " ".join(bq.vertices))
    for a in bq.arrows:
        deg = f" deg {vq.degree[a.name]}" if vq else ""
        lines.append(f"arrow {a.name}: {a.source} -> {a.target}{deg}")
    for rel in bq.relations:
        parts = []
        for c, p in rel:
            text = "*".join(p)
            if c != f.one:
                text = f"{f.format(c)} {text}"
            parts.append(text)
        lines.append("relation " + " + ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# path spaces


def _paths_by_pair(bq: BoundQuiver, max_len: int, path_cap: int):
    """All paths of length <= max_len, keyed only on the ordered vertex pairs
    that hold one, by source and then target in vertex order.

    Each list is sorted by (length, arrow index sequence), the order in
    which the walk extends each sorted frontier by out-arrows in arrow
    order, and comes with a path -> position index.  Also returns, per
    vertex v, the x of the keys (x, v) and the y of the keys (v, y), in
    vertex order.  Raises PathExplosionError once more than path_cap paths,
    stationary ones included, have been walked.
    """
    paths: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    into = {v: [] for v in bq.vertices}
    out_of = {v: [] for v in bq.vertices}
    total = 0
    for x in bq.vertices:
        frontier = [((), x)]
        reached = {x: [()]}
        total += 1
        for _ in range(max_len):
            nxt = []
            for path, end in frontier:
                for a in bq.out_arrows[end]:
                    p = path + (a.name,)
                    reached.setdefault(a.target, []).append(p)
                    nxt.append((p, a.target))
                    total += 1
                    if total > path_cap:
                        raise PathExplosionError(
                            f"more than {path_cap} paths of length <= {max_len}; "
                            "the bound is probably too large for this quiver")
            frontier = nxt
        for y in sorted(reached, key=bq.vertex_index.__getitem__):
            paths[(x, y)] = reached[y]
            into[y].append(x)
            out_of[x].append(y)
    index = {key: {p: i for i, p in enumerate(plist)} for key, plist in paths.items()}
    return paths, index, into, out_of


class PathBasis:
    """Bases of all hom spaces of the category presented by a BoundQuiver.

    Paths of length < nilbound are enumerated per ordered vertex pair and
    reduced modulo the span of all shifted relations, each kept as one
    sparse echelon form per pair and read off once back-substituted; the
    surviving (non-pivot) paths are the canonical basis representatives.
    A pair with no relation vector shares the one zero ideal and identity
    quotient of its ambient dimension (both are immutable).  `paths`,
    `path_index`, `ideal` and `quots` key only the pairs that hold a path of
    length < nilbound; on every other pair the hom space is zero, and `dim`,
    `representatives`, `reduce_path` and `compose` answer 0, [], () and ().
    """

    def __init__(self, bq: BoundQuiver, path_cap: int = 200_000):
        f = self.field = bq.field
        m = self.nilbound = bq.nilbound
        paths, self.path_index, into, out_of = _paths_by_pair(bq, m - 1, path_cap)
        self.paths = paths

        # the shifted relations, projected onto paths of length < m, reduced
        # as sparse rows into one echelon form per vertex pair; a shift
        # c * rel * d has a term below m only if its shortest does, the path
        # lists are sorted by length, and only pairs that hold paths are walked
        echelons: dict[tuple[str, str], dict] = {}
        for rel in bq.relations:
            u, v = bq.relation_endpoints(rel)
            shortest = min(len(p) for _, p in rel)
            for x in into[u]:
                for c_path in paths[(x, u)]:
                    room = m - shortest - len(c_path)
                    if room <= 0:
                        break
                    for y in out_of[v]:
                        key = (x, y)
                        index = self.path_index.get(key)
                        for d_path in paths[(v, y)]:
                            if len(d_path) >= room:
                                break
                            row = {}
                            for coeff, p in rel:
                                full = c_path + p + d_path
                                if len(full) < m:
                                    idx = index[full]
                                    val = f.add(row.pop(idx, f.zero), coeff)
                                    if val:
                                        row[idx] = val
                            if row:
                                _echelon_reduce(echelons.setdefault(key, {}), row, f.p)
        zeros: dict[int, QuotientMap] = {}
        self.ideal: dict[tuple[str, str], Subspace] = {}
        self.quots: dict[tuple[str, str], QuotientMap] = {}
        for key, plist in paths.items():
            n = len(plist)
            if key in echelons:
                quot = _echelon_subspace(f, n, echelons[key]).quotient()
            else:
                if n not in zeros:
                    zeros[n] = Subspace.span(f, n, ()).quotient()
                quot = zeros[n]
            self.ideal[key] = quot.subspace
            self.quots[key] = quot
        self._compose_cache: dict = {}

    def dim(self, x: str, y: str) -> int:
        quot = self.quots.get((x, y))
        return 0 if quot is None else quot.dim

    @property
    def total_dim(self) -> int:
        return sum(q.dim for q in self.quots.values())

    def representatives(self, x: str, y: str) -> list[tuple[str, ...]]:
        plist = self.paths.get((x, y), ())
        return [plist[i] for i in self.quots[(x, y)].representatives] if plist else []

    def reduce_path(self, x: str, y: str, path: tuple[str, ...]) -> tuple:
        """Coordinates of a path's class in the representative basis."""
        f = self.field
        plist = self.paths.get((x, y), ())
        if len(path) >= self.nilbound or not plist:
            return tuple(f.zero for _ in range(self.dim(x, y)))
        vec = [f.zero] * len(plist)
        vec[self.path_index[(x, y)][path]] = f.one
        return self.quots[(x, y)].apply(vec)

    def compose(self, x: str, y: str, z: str, a_coords, b_coords) -> tuple:
        """Class of (a then b) for a in hom(x,y), b in hom(y,z) coordinates."""
        f = self.field
        out = [f.zero] * self.dim(x, z)
        reps_xy = self.representatives(x, y)
        reps_yz = self.representatives(y, z)
        for i, ca in enumerate(a_coords):
            if not ca:
                continue
            for j, cb in enumerate(b_coords):
                if not cb:
                    continue
                key = (x, y, z, i, j)
                cls = self._compose_cache.get(key)
                if cls is None:
                    cls = self.reduce_path(x, z, reps_xy[i] + reps_yz[j])
                    self._compose_cache[key] = cls
                c = f.mul(ca, cb)
                for k, val in enumerate(cls):
                    if val:
                        out[k] = f.add(out[k], f.mul(c, val))
        return tuple(out)

    def identity_coords(self, x: str) -> tuple:
        return self.reduce_path(x, x, ())


def path_basis(bq: BoundQuiver) -> PathBasis:
    """bq's PathBasis, built on first call and kept on bq."""
    if bq._basis is None:
        bq._basis = PathBasis(bq)
    return bq._basis


def check_admissible(bq: BoundQuiver, path_cap: int = 200_000):
    """Verify the relation ideal is admissible for the declared bound.

    Checks that every relation term has length >= 2 and that every path of
    length nilbound lies in the ideal generated by the relations alone
    (membership is tested inside the span of relation shifts whose terms
    fit below nilbound + the longest relation term; at desk scale this is
    exact for every shipped presentation).  Returns a Report with one
    failing record per violation, its text the record's actual value.
    """
    # imported here: reports renders modules, and modules import this module
    from .reports import Report
    f = bq.field
    report = Report("admissible")
    max_term = 0
    for rel in bq.relations:
        for _, p in rel:
            max_term = max(max_term, len(p))
            if len(p) < 2:
                report.assert_true("admissible.term-length", False,
                                   f"relation term {'*'.join(p)} has length < 2")
    m = bq.nilbound
    cap_len = m + max_term
    paths, index, into, out_of = _paths_by_pair(bq, cap_len, path_cap)

    # only the ideals of pairs that hold a path of length m are read; each
    # is kept as a sparse echelon form, one relation shift at a time
    needed = {key for key, plist in paths.items() if any(len(p) == m for p in plist)}
    ideals: dict[tuple[str, str], dict] = {key: {} for key in needed}
    for rel in bq.relations:
        u, v = bq.relation_endpoints(rel)
        for x in into[u]:
            for c_path in paths[(x, u)]:
                room = cap_len - max_term - len(c_path)
                if room < 0:
                    break
                for y in out_of[v]:
                    key = (x, y)
                    if key not in needed:
                        continue
                    for d_path in paths[(v, y)]:
                        if len(d_path) > room:
                            break
                        # every term fits: no term is longer than max_term
                        row = {}
                        for coeff, p in rel:
                            idx = index[key][c_path + p + d_path]
                            val = f.add(row.pop(idx, f.zero), coeff)
                            if val:
                                row[idx] = val
                        _echelon_reduce(ideals[key], row, f.p)

    for (x, y), plist in sorted(paths.items()):
        for p in plist:
            if len(p) != m:
                continue
            if not _echelon_reduce(ideals[(x, y)], {index[(x, y)][p]: f.one}, f.p, insert=False):
                text = f"path {'*'.join(p)} of length {m} is not in the relation ideal"
                report.assert_true("admissible.nilbound-path", False, text)
    return report


# ---------------------------------------------------------------------------
# graded lifts and windows


def layer_vertex(v: str, n: int) -> str:
    return f"{v}@{n}"


def layer_arrow(a: str, n: int) -> str:
    return f"{a}@{n}"


def lift_window(vq: VoltageQuiver, window: Window) -> BoundQuiver:
    """The finite convex piece of the graded lift over the given layers.

    The integers act freely on the lift by shifting layers, so [lo, hi] is
    the shift by lo of [0, hi - lo], whose parts are built once per width
    and kept as (name, layer) pairs.  The first window of a width is
    checked by BoundQuiver and no later one is: (name, layer) -> name@layer
    is injective (a layer's digits hold no "@"), and a shift keeps arrow
    endpoints, composable relation paths and parallel relation terms.  The
    order is that of a direct construction: by layer, then base order.
    """
    cached = vq._lifts.get(window)
    if cached is not None:
        return cached
    bq, width = vq.base, window.hi - window.lo
    if width in vq._templates:
        out = BoundQuiver._unchecked(*_shift_template(vq._templates[width], window.lo),
                                     bq.field, bq.nilbound)
    else:
        vq._templates[width] = _lift_template(vq, width)
        out = BoundQuiver(*_shift_template(vq._templates[width], window.lo), bq.field, bq.nilbound)
    vq._lifts[window] = out
    return out


def _lift_template(vq: VoltageQuiver, width: int):
    """The lift of [0, width] as parts: vertices (vertex, layer), arrows
    (arrow, layer, source and target positions), and relations whose terms
    are (coefficient, arrow positions).  A relation lifts to layer n exactly
    when every layer its terms pass through, n plus a partial degree sum,
    lies in [0, width]."""
    bq, deg, layers = vq.base, vq.degree, range(width + 1)
    vertices = tuple((v, n) for n in layers for v in bq.vertices)
    at = {part: i for i, part in enumerate(vertices)}
    arrows = tuple((a.name, n, at[(a.source, n)], at[(a.target, n + deg[a.name])])
                   for n in layers for a in bq.arrows if 0 <= n + deg[a.name] <= width)
    arrow_at = {(a, n): i for i, (a, n, _, _) in enumerate(arrows)}
    relations = []
    for rel in bq.relations:
        walks = [(c, p, tuple(accumulate((deg[a] for a in p), initial=0))) for c, p in rel]
        sums = [o for _, _, offsets in walks for o in offsets]
        for n in range(-min(sums), width - max(sums) + 1):
            relations.append(tuple((c, tuple([arrow_at[(a, n + o)] for a, o in zip(p, offsets)]))
                                   for c, p, offsets in walks))
    return vertices, arrows, tuple(relations)


def _shift_template(template, lo: int):
    """Vertices, arrows and relations of the template's lift, every layer
    moved up by lo."""
    vparts, aparts, rparts = template
    vertices = tuple([f"{v}@{n + lo}" for v, n in vparts])
    arrows = tuple([Arrow(f"{a}@{n + lo}", vertices[s], vertices[t]) for a, n, s, t in aparts])
    names = [a.name for a in arrows]
    relations = tuple([tuple([(c, tuple([names[j] for j in p])) for c, p in rel])
                       for rel in rparts])
    return vertices, arrows, relations


def is_convex(bq: BoundQuiver, subset) -> bool:
    """True iff no nonzero hom chain leaves the subset and re-enters it."""
    subset = set(subset)
    unknown = subset - set(bq.vertices)
    if unknown:
        raise QuiverError(f"unknown vertices {sorted(unknown)}")
    basis = path_basis(bq)
    edges = {v: set() for v in bq.vertices}
    for v, w in basis.paths:
        if w != v and basis.dim(v, w) > 0:
            edges[v].add(w)

    def reachable(src):
        seen = set()
        stack = list(edges[src])
        while stack:
            w = stack.pop()
            if w in seen:
                continue
            seen.add(w)
            stack.extend(edges[w] - seen)
        return seen

    reach = {v: reachable(v) for v in bq.vertices}
    outside = [z for z in bq.vertices if z not in subset]
    for x in subset:
        for z in reach[x]:
            if z in subset or z not in outside:
                continue
            if any(y in subset for y in reach[z]):
                return False
    return True


def sub_quiver(bq: BoundQuiver, subset) -> BoundQuiver:
    """Full subquiver on a vertex subset, keeping relations that fit inside."""
    subset = set(subset)
    vertices = [v for v in bq.vertices if v in subset]
    arrows = [a for a in bq.arrows if a.source in subset and a.target in subset]
    kept_arrows = {a.name for a in arrows}
    relations = []
    for rel in bq.relations:
        if all(all(arr in kept_arrows for arr in p) for _, p in rel):
            relations.append(rel)
    return BoundQuiver(vertices, arrows, relations, bq.field, bq.nilbound)


def opposite_quiver(bq: BoundQuiver) -> BoundQuiver:
    """bq with every arrow and relation path reversed, built once and kept
    on bq; its own opposite is bq itself while bq lives, held weakly."""
    op = bq._opposite
    if isinstance(op, weakref.ref):
        op = op()
    if op is None:
        arrows = tuple(Arrow(a.name, a.target, a.source) for a in bq.arrows)
        relations = tuple(tuple((c, p[::-1]) for c, p in rel) for rel in bq.relations)
        op = BoundQuiver._unchecked(bq.vertices, arrows, relations, bq.field, bq.nilbound)
        bq._opposite, op._opposite = op, weakref.ref(bq)
    return op


def rename_vertices(bq: BoundQuiver, mapping: dict[str, str]) -> BoundQuiver:
    def nm(v):
        return mapping.get(v, v)

    vertices = [nm(v) for v in bq.vertices]
    arrows = [(a.name, nm(a.source), nm(a.target)) for a in bq.arrows]
    return BoundQuiver(vertices, arrows, bq.relations, bq.field, bq.nilbound)


# ---------------------------------------------------------------------------
# structure-constant categories and presentation extraction


class StructureCategory:
    """A finite basic K-category given by hom bases and composition tables.

    Each End(x) basis must consist of the identity plus radical elements,
    with the identity's position recorded in identity_index; this holds
    for path-class bases and for the repetitive constructions built here.
    """

    def __init__(self, field: Field, objects, dims, compose_fn, identity_index):
        self.field = field
        self.objects = tuple(objects)
        self.dims = dict(dims)
        for x in self.objects:
            for y in self.objects:
                self.dims.setdefault((x, y), 0)
        self._compose = compose_fn
        self.identity_index = dict(identity_index)

    def dim(self, x, y) -> int:
        return self.dims[(x, y)]

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def compose(self, x, y, z, a_coords, b_coords) -> tuple:
        return self._compose(x, y, z, a_coords, b_coords)

    def unit(self, x) -> tuple:
        f = self.field
        v = [f.zero] * self.dim(x, x)
        v[self.identity_index[x]] = f.one
        return tuple(v)

    def radical(self, x, y) -> Subspace:
        n = self.dim(x, y)
        skip = self.identity_index[x] if x == y else None
        return Subspace.coordinate(self.field, n, (i for i in range(n) if i != skip))


def structure_category(bq: BoundQuiver) -> StructureCategory:
    basis = path_basis(bq)
    dims = {key: basis.dim(*key) for key in basis.paths}
    identity_index = {}
    for x in bq.vertices:
        coords = basis.identity_coords(x)
        identity_index[x] = next(i for i, c in enumerate(coords) if c)
    return StructureCategory(bq.field, bq.vertices, dims, basis.compose, identity_index)


def radical_filtration(cat: StructureCategory):
    """(rad, rad^2, nilpotency degree) of the radical of the category.

    Products run only along chains x -> y -> z of nonzero radical blocks,
    since a power of the radical vanishes wherever the radical does.  Every
    key is kept; a block with no nonzero product shares the one zero
    subspace of its ambient dimension (subspaces are immutable).
    """
    f = cat.field
    objs = cat.objects
    zeros: dict[int, Subspace] = {}

    def block(n: int, vecs) -> Subspace:
        if vecs:
            return Subspace.span(f, n, vecs)
        if n not in zeros:
            zeros[n] = Subspace.span(f, n, ())
        return zeros[n]

    rad = {}
    for x in objs:
        for y in objs:
            n = cat.dim(x, y)
            radical_dim = n - 1 if x == y else n  # End(x) drops its identity
            rad[(x, y)] = cat.radical(x, y) if radical_dim else block(n, ())
    nonzero = {x: [y for y in objs if rad[(x, y)].dim] for x in objs}

    def times_rad(left: dict) -> dict:
        out = {}
        for x in objs:
            vecs: dict = {}
            for y in nonzero[x]:
                for u in left[(x, y)].rows.entries:
                    for z in nonzero[y]:
                        for v in rad[(y, z)].rows.entries:
                            w = cat.compose(x, y, z, u, v)
                            if any(w):
                                vecs.setdefault(z, []).append(w)
            for z in objs:
                out[(x, z)] = block(cat.dim(x, z), vecs.get(z))
        return out

    rad2 = power = times_rad(rad)
    nildeg = 1 if any(nonzero.values()) else 0
    while any(s.dim for s in power.values()):
        nildeg += 1
        power = times_rad(power)
        if nildeg > cat.total_dim + 1:
            raise QuiverError("radical does not look nilpotent")
    return rad, rad2, nildeg


def arrow_elements(cat: StructureCategory, rad: dict, rad2: dict):
    """Deterministic rad/rad^2 complement representatives per object pair."""
    f = cat.field
    out = {}
    for x in cat.objects:
        for y in cat.objects:
            r = rad[(x, y)]
            if r.dim == 0:
                continue
            inside = []
            for w in rad2[(x, y)].rows.entries:
                coords = r.coords(w)
                if coords is None:
                    raise QuiverError("rad^2 not inside rad")
                inside.append(coords)
            quot = Subspace.span(f, r.dim, inside).quotient()
            reps = [tuple(r.rows.entries[i]) for i in quot.representatives]
            if reps:
                out[(x, y)] = reps
    return out


def extract_presentation(cat: StructureCategory, vertex_name=None,
                         verify: bool = True) -> BoundQuiver:
    """Turn a structure-constant category into a bound quiver presentation.

    Arrows are a deterministic basis of rad/rad^2, the nilpotency bound is
    one more than the nilpotency degree of the radical, and the relations
    are a canonical kernel basis of the path evaluation map.
    """
    f = cat.field
    objs = cat.objects
    vertex_name = vertex_name or (lambda o: str(o))

    rad, rad2, nildeg = radical_filtration(cat)
    nilbound = max(nildeg + 1, 1)

    vertices = [vertex_name(o) for o in objs]
    vmap = dict(zip(objs, vertices))
    arrows = []
    arrow_elems = {}
    counter = 0
    reps_by_pair = arrow_elements(cat, rad, rad2)
    for x in objs:
        for y in objs:
            for elem in reps_by_pair.get((x, y), []):
                name = f"a{counter}"
                counter += 1
                arrows.append((name, vmap[x], vmap[y]))
                arrow_elems[name] = (x, y, elem)

    # evaluate all composable arrow paths of length <= nilbound
    out_by_vertex: dict[str, list[str]] = {vmap[o]: [] for o in objs}
    for name, (x, y, _) in arrow_elems.items():
        out_by_vertex[vmap[x]].append(name)
    obj_of = {vmap[o]: o for o in objs}

    path_lists: dict[tuple, list] = {(x, y): [] for x in objs for y in objs}
    path_evals: dict[tuple, list] = {(x, y): [] for x in objs for y in objs}
    for o in objs:
        frontier = [((), o, cat.unit(o))]
        path_lists[(o, o)].append(())
        path_evals[(o, o)].append(cat.unit(o))
        for _ in range(nilbound):
            nxt = []
            for path, end, val in frontier:
                for name in out_by_vertex[vmap[end]]:
                    ax, ay, elem = arrow_elems[name]
                    new_val = cat.compose(o, end, ay, val, elem)
                    p = path + (name,)
                    path_lists[(o, ay)].append(p)
                    path_evals[(o, ay)].append(new_val)
                    nxt.append((p, ay, new_val))
            frontier = nxt

    relations = []
    for x in objs:
        for y in objs:
            plist = path_lists[(x, y)]
            if not plist:
                continue
            ev = Matrix(f, path_evals[(x, y)]).transpose() if cat.dim(x, y) else \
                Matrix.zeros(f, 0, len(plist))
            for row in kernel_basis(ev).entries:
                terms = tuple((c, p) for c, p in zip(row, plist) if c)
                if any(len(p) < 2 for _, p in terms):
                    raise QuiverError("extraction produced a non-admissible relation")
                relations.append(terms)

    out = BoundQuiver(vertices, arrows, relations, f, nilbound)
    if verify:
        presentation_basis(cat, out)
    return out


def presentation_basis(cat: StructureCategory, bq: BoundQuiver) -> PathBasis:
    """The path basis of a presentation of cat, checked against its dimensions.

    bq's vertices must list cat's objects in order, as extract_presentation
    names them.
    """
    got = path_basis(bq)
    # dimensions are nonnegative, so equal sums and equal dimensions on the
    # pairs that hold paths leave only zeros elsewhere; a mismatch is named
    # by scanning every pair
    obj = dict(zip(bq.vertices, cat.objects))
    if got.total_dim == cat.total_dim and all(
            got.dim(x, y) == cat.dim(obj[x], obj[y]) for x, y in got.paths):
        return got
    vmap = dict(zip(cat.objects, bq.vertices))
    for x in cat.objects:
        for y in cat.objects:
            if got.dim(vmap[x], vmap[y]) != cat.dim(x, y):
                raise QuiverError(
                    f"extracted presentation has wrong dimension at ({x}, {y}): "
                    f"{got.dim(vmap[x], vmap[y])} != {cat.dim(x, y)}")
    return got


def normalize_presentation(bq: BoundQuiver) -> BoundQuiver:
    """Canonical presentation of the algebra presented by bq."""
    return extract_presentation(structure_category(bq))
