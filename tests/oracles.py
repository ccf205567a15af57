"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and shares no code with the package:
a textbook Gaussian elimination over Fraction/ints-mod-p, a breadth-first
path enumerator, and a naturality-equation counter.  Derived expectations
in the tests come from these, not from the code under test.
"""

from fractions import Fraction


def gf_inv(a, p):
    return pow(a % p, p - 2, p)


def dumb_rref(rows, p=None):
    """(rank, rref rows, pivot columns) by plain Gaussian elimination."""
    rows = [[Fraction(x) if p is None else x % p for x in r] for r in rows]
    if not rows:
        return 0, rows, []
    ncols = len(rows[0])
    rank = 0
    pivots = []
    for c in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = (1 / rows[rank][c]) if p is None else gf_inv(rows[rank][c], p)
        rows[rank] = [x * inv if p is None else (x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                factor = rows[r][c]
                if p is None:
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
                else:
                    rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
        pivots.append(c)
        rank += 1
        if rank == len(rows):
            break
    return rank, rows, pivots


def dumb_rank(rows, p=None):
    return dumb_rref(rows, p)[0]


def brute_paths(arrows, start, max_len):
    """All paths (tuples of arrow names) from start, grouped by endpoint."""
    out = {start: [()]}
    frontier = [((), start)]
    for _ in range(max_len):
        nxt = []
        for path, end in frontier:
            for name, src, tgt in arrows:
                if src == end:
                    p = path + (name,)
                    out.setdefault(tgt, []).append(p)
                    nxt.append((p, tgt))
        frontier = nxt
    return out


def naturality_hom_dim(vertices, arrows, m_dims, m_mats, n_dims, n_mats, p=None):
    """dim Hom(M, N) by counting solutions of all naturality squares.

    Matrices are lists of lists; the matrix of an arrow x -> y has shape
    dims(x) x dims(y) and acts M(y) -> M(x) on columns.
    """
    offsets = {}
    total = 0
    for v in vertices:
        offsets[v] = total
        total += n_dims[v] * m_dims[v]
    rows = []
    for name, x, y in arrows:
        ma = m_mats[name]
        na = n_mats[name]
        for i in range(n_dims[x]):
            for j in range(m_dims[y]):
                row = [0] * total
                for k in range(m_dims[x]):
                    row[offsets[x] + i * m_dims[x] + k] += ma[k][j]
                for l in range(n_dims[y]):
                    row[offsets[y] + l * m_dims[y] + j] -= na[i][l]
                rows.append(row)
    if not rows:
        return total
    return total - dumb_rank(rows, p)


def separated_tits_form_is_positive_definite(vertices, arrows, relations, nilbound, p=None):
    """Whether the Tits form of the separated quiver of the Gabriel quiver
    is positive definite, which holds exactly for unions of Dynkin diagrams.

    arrows are (name, source, target) and relations lists of (coefficient,
    path) terms.  Between x and y there are as many Gabriel arrows as
    arrows x -> y minus the rank of the relations' length-1 parts there;
    none when nilbound is 1.  Definiteness is read off the leading
    principal minors of 2 I - adjacency on the vertices (v, out), (v, in).
    """
    gabriel = {}
    for x in vertices:
        for y in vertices:
            names = [name for name, s, t in arrows if (s, t) == (x, y)]
            rows = []
            for rel in relations:
                row = [0] * len(names)
                for c, path in rel:
                    if len(path) == 1 and path[0] in names:
                        row[names.index(path[0])] += c
                rows.append(row)
            rank = dumb_rank(rows, p) if names and rows else 0
            gabriel[(x, y)] = 0 if nilbound == 1 else len(names) - rank
    nodes = [(v, side) for v in vertices for side in ("out", "in")]
    edges = [((x, "out"), (y, "in")) for (x, y), count in gabriel.items() for _ in range(count)]
    return tits_form_is_positive_definite(nodes, edges)


def tits_form_is_positive_definite(vertices, edges):
    """Whether the Tits form of a graph, sum x_v^2 minus x_s x_t for each
    edge (s, t), a repeated pair a double edge, is positive definite,
    which holds exactly for unions of Dynkin diagrams.  Read off the
    leading principal minors of 2 I - adjacency."""
    form = [[Fraction(2 if a == b else 0) for b in vertices] for a in vertices]
    for x, y in edges:
        i, j = vertices.index(x), vertices.index(y)
        form[i][j] -= 1
        form[j][i] -= 1
    for k in range(1, len(vertices) + 1):
        minor = [row[:k] for row in form[:k]]
        det = Fraction(1)
        for c in range(k):
            pivot = next((r for r in range(c, k) if minor[r][c]), None)
            if pivot is None:
                return False
            if pivot != c:
                minor[c], minor[pivot] = minor[pivot], minor[c]
                det = -det
            det *= minor[c][c]
            for r in range(c + 1, k):
                factor = minor[r][c] / minor[c][c]
                minor[r] = [a - factor * b for a, b in zip(minor[r], minor[c])]
        if det <= 0:
            return False
    return True


def doubling_covering_sums(vq, max_radius=64):
    """The layer sums (left, right) of cover-axioms, read off windows
    [-radius, radius] that double from nilbound until three in a row give
    the same sums: the reference for the one exact radius
    (`covering._radius`).  Unlike the rest of this module it reads the
    package's path bases, since what it checks is the choice of window."""
    from fovea.quiver import Window, layer_vertex, lift_window, path_basis

    pairs = [(u, v) for u in vq.base.vertices for v in vq.base.vertices]

    def sums(radius):
        w = Window(-radius, radius)
        pb = path_basis(lift_window(vq, w))
        left = {(u, v): sum(pb.dim(layer_vertex(u, k), layer_vertex(v, 0)) for k in w.layers)
                for u, v in pairs}
        right = {(u, v): sum(pb.dim(layer_vertex(u, 0), layer_vertex(v, k)) for k in w.layers)
                 for u, v in pairs}
        return left, right

    radius, history = max(vq.base.nilbound, 1), []
    while radius <= max_radius:
        history.append(sums(radius))
        if len(history) >= 3 and history[-1] == history[-2] == history[-3]:
            return history[-1]
        radius *= 2
    raise AssertionError("hom dimensions failed to stabilize")
