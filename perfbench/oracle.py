"""The benchmark's own exact arithmetic and its naive oracles.

Nothing here imports fovea.  A representation is kept as plain data: a
dict of dimensions per vertex and a dict of integer matrices (lists of
rows) per arrow.  The matrix of an arrow a: x -> y has shape
dims[x] x dims[y], the same layout fovea's module files use, and a path
a*b acts by the product M_a M_b.
"""

from __future__ import annotations

P = 32749


def null_columns(rows: list[list[int]], ncols: int, p: int = P) -> list[list[int]]:
    """A basis of {c : rows . c = 0}, each vector as a list of ncols entries."""
    work = [[x % p for x in r] for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][c], p - 2, p)
        work[r] = [x * inv % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-work[i][free]) % p
        basis.append(v)
    return basis


def matmul(a: list[list[int]], b: list[list[int]], inner: int, ncols: int,
           p: int = P) -> list[list[int]]:
    return [[sum(row[k] * b[k][j] for k in range(inner)) % p for j in range(ncols)]
            for row in a]


def inverse(m: list[list[int]], p: int = P) -> list[list[int]] | None:
    n = len(m)
    work = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] % p), None)
        if pivot is None:
            return None
        work[c], work[pivot] = work[pivot], work[c]
        inv = pow(work[c][c], p - 2, p)
        work[c] = [x * inv % p for x in work[c]]
        for i in range(n):
            if i != c and work[i][c] % p:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[c])]
    return [r[n:] for r in work]


def hom_dim(arrows, dims_m: dict, mats_m: dict, dims_n: dict, mats_n: dict,
            p: int = P) -> int:
    """dim Hom(M, N), counted as the solutions of the naturality squares.

    The unknown at a vertex v is phi_v of shape dims_n[v] x dims_m[v]; an
    arrow a: x -> y contributes the square phi_x M_a = N_a phi_y.  The
    answer is the dimension of the solution space of that system.
    """
    index: dict[tuple, int] = {}
    for v in dims_m:
        for i in range(dims_n.get(v, 0)):
            for k in range(dims_m[v]):
                index[(v, i, k)] = len(index)
    equations = []
    for name, x, y in arrows:
        mx, my, nx, ny = dims_m.get(x, 0), dims_m.get(y, 0), dims_n.get(x, 0), dims_n.get(y, 0)
        ma, na = mats_m.get(name), mats_n.get(name)
        for i in range(nx):
            for j in range(my):
                eq: dict[int, int] = {}
                for k in range(mx):
                    c = ma[k][j]
                    if c:
                        col = index[(x, i, k)]
                        eq[col] = eq.get(col, 0) + c
                for l in range(ny):
                    c = na[i][l]
                    if c:
                        col = index[(y, l, j)]
                        eq[col] = eq.get(col, 0) - c
                if eq:
                    row = [0] * len(index)
                    for col, c in eq.items():
                        row[col] = c
                    equations.append(row)
    return len(null_columns(equations, len(index), p))


def lift(base_vertices, base_arrows, relations, lo: int, hi: int):
    """The window [lo, hi] of the graded lift, by its definition.

    Returns (vertices, arrows, relations) with vertex names v@n, arrows
    (a@n, s@n, t@(n + deg a)) and each relation path lifted at every layer
    where all of it fits inside the window.
    """
    layers = range(lo, hi + 1)
    deg = {name: d for name, _s, _t, d in base_arrows}
    vertices = [f"{v}@{n}" for n in layers for v in base_vertices]
    arrows = [(f"{a}@{n}", f"{s}@{n}", f"{t}@{n + d}")
              for n in layers for a, s, t, d in base_arrows if lo <= n + d <= hi]
    lifted = []
    for path in relations:
        for n in layers:
            names, layer = [], n
            for a in path:
                if not (lo <= layer + deg[a] <= hi):
                    break
                names.append(f"{a}@{layer}")
                layer += deg[a]
            else:
                lifted.append(tuple(names))
    return vertices, arrows, lifted
