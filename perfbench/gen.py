"""Seeded input generator: bound quivers, graded quivers and modules as text.

Every input the benchmark hands to fovea is produced here from a
random.Random, so the same seed gives the same bytes.  Quivers carry only
monomial relations, which keeps the relation ideal easy to respect when
drawing random modules.  Nothing here imports fovea.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import P, inverse, matmul, null_columns

ARROW_NAMES = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Quiver:
    vertices: list[str]
    arrows: list[tuple[str, str, str, int]]      # (name, source, target, degree)
    relations: list[tuple[str, ...]]             # monomial paths
    nilbound: int
    graded: bool = False

    def text(self) -> str:
        lines = [f"field gf {P}", f"nilbound {self.nilbound}",
                 "vertex " + " ".join(self.vertices)]
        for name, s, t, d in self.arrows:
            lines.append(f"arrow {name}: {s} -> {t}" + (f" deg {d}" if self.graded else ""))
        lines.extend("relation " + "*".join(p) for p in self.relations)
        return "\n".join(lines) + "\n"

    @property
    def plain_arrows(self):
        return [(name, s, t) for name, s, t, _d in self.arrows]


@dataclass
class Rep:
    """A representation as plain data; see oracle.py for the layout."""
    dims: dict[str, int]
    mats: dict[str, list[list[int]]]

    def text(self, vertices, arrows) -> str:
        lines = ["dims " + " ".join(f"{v}={self.dims[v]}" for v in vertices)]
        for name, s, t in arrows:
            m = self.mats[name]
            if self.dims[s] and self.dims[t]:
                rows = ",".join("[" + ",".join(str(x) for x in r) + "]" for r in m)
                lines.append(f"mat {name} = [{rows}]")
        return "\n".join(lines) + "\n"


def paths(arrows, length: int) -> list[tuple[str, ...]]:
    """All composable arrow sequences of the given length."""
    out = [(a[0],) for a in arrows]
    by_source: dict[str, list] = {}
    for a in arrows:
        by_source.setdefault(a[1], []).append(a)
    target = {a[0]: a[2] for a in arrows}
    for _ in range(length - 1):
        out = [p + (a[0],) for p in out for a in by_source.get(target[p[-1]], [])]
    return out


def longest_path(arrows) -> int:
    n = 0
    while paths(arrows, n + 1):
        n += 1
    return n


def acyclic_quiver(rng: random.Random, shape: str, n: int) -> Quiver:
    """A line, star or random tree on n vertices, randomly oriented, with a
    random set of monomial relations of length two or three."""
    vertices = [str(i) for i in range(1, n + 1)]
    if shape == "line":
        edges = [(i, i + 1) for i in range(1, n)]
    elif shape == "star":
        edges = [(1, i) for i in range(2, n + 1)]
    elif shape == "tree":
        edges = [(rng.randrange(1, i), i) for i in range(2, n + 1)]
    else:
        raise ValueError(f"unknown shape {shape!r}")
    arrows = []
    for k, (i, j) in enumerate(edges):
        s, t = (i, j) if rng.random() < 0.5 else (j, i)
        arrows.append((ARROW_NAMES[k], str(s), str(t), 0))
    candidates = paths(arrows, 2) + paths(arrows, 3)
    relations = []
    for p in candidates:
        if rng.random() < 0.4 and not any(contains(p, r) for r in relations):
            relations.append(p)
    return Quiver(vertices, arrows, relations, longest_path(arrows) + 1)


def contains(path, sub) -> bool:
    k = len(sub)
    return any(path[i:i + k] == sub for i in range(len(path) - k + 1))


def graded_quiver(rng: random.Random, n: int) -> Quiver:
    """n (one to three) vertices; forward arrows of degree 0 or 1, loops and
    backward arrows of degree 1 or 2, so every cycle has positive degree and
    every window of the lift is acyclic.  All paths of length nilbound are
    relations, which makes the presentation admissible."""
    vertices = ["uvw"[i] for i in range(n)]
    arrows = []
    for i in range(n):
        for j in range(n):
            if i < j and rng.random() < 0.7:
                arrows.append((i, j, rng.randint(0, 1)))
            elif i >= j and rng.random() < (0.7 if i == j and n == 1 else 0.3):
                arrows.append((i, j, rng.randint(1, 2)))
    if not arrows:
        arrows.append((0, 0, 1))
    named = [(ARROW_NAMES[k], vertices[i], vertices[j], d)
             for k, (i, j, d) in enumerate(arrows)]
    m = rng.randint(2, 3)
    relations = paths(named, m)
    for p in paths(named, 2) if m == 3 else []:
        if rng.random() < 0.3:
            relations = [r for r in relations if not contains(r, p)] + [p]
    return Quiver(vertices, named, relations, m, graded=True)


def _topological(vertices, arrows) -> dict[str, int]:
    indeg = {v: 0 for v in vertices}
    for _n, _s, t in arrows:
        indeg[t] += 1
    order, ready = [], [v for v in vertices if indeg[v] == 0]
    while ready:
        v = ready.pop(0)
        order.append(v)
        for _n, s, t in arrows:
            if s == v:
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
    if len(order) != len(vertices):
        raise ValueError("quiver has an oriented cycle")
    return {v: i for i, v in enumerate(order)}


def random_dims(rng: random.Random, vertices, max_dim: int = 3) -> dict[str, int]:
    dims = {v: rng.randint(0, max_dim) for v in vertices}
    if not any(dims.values()):
        dims[rng.choice(list(vertices))] = 1
    return dims


def random_rep(rng: random.Random, vertices, arrows, relations, dims: dict[str, int]) -> Rep:
    """A random representation of an acyclic quiver killing every relation.

    Arrows are drawn in topological order of their source, so for a
    relation q*a the product along q is known when a is drawn; the columns
    of M_a are then taken from the common null space of those products.
    """
    pos = _topological(vertices, arrows)
    ends: dict[str, list[tuple[str, ...]]] = {}
    for r in relations:
        ends.setdefault(r[-1], []).append(r[:-1])
    src = {n: s for n, s, _t in arrows}
    tgt = {n: t for n, _s, t in arrows}
    mats: dict[str, list[list[int]]] = {}
    for name, s, t in sorted(arrows, key=lambda a: pos[a[1]]):
        ds, dt = dims[s], dims[t]
        block = []
        for prefix in ends.get(name, []):
            prod = mats[prefix[0]]
            for a in prefix[1:]:
                prod = matmul(prod, mats[a], dims[src[a]], dims[tgt[a]])
            block.extend(prod)
        basis = null_columns(block, ds) if block else [
            [int(i == j) for i in range(ds)] for j in range(ds)]
        coeffs = [[rng.randrange(P) for _ in range(dt)] for _ in basis]
        mats[name] = [[sum(basis[k][i] * coeffs[k][j] for k in range(len(basis))) % P
                       for j in range(dt)] for i in range(ds)]
    return Rep(dims, mats)


def thin_rep(rng: random.Random, q: Quiver, size: int) -> Rep | None:
    """An indecomposable thin module: one dimension on a connected support
    of at most size vertices of a tree, nonzero scalars on its arrows, and
    no relation inside it (None when the drawn support holds a relation)."""
    adj: dict[str, list[str]] = {v: [] for v in q.vertices}
    for _n, s, t, _d in q.arrows:
        adj[s].append(t)
        adj[t].append(s)
    support = {rng.choice(q.vertices)}
    for _ in range(size - 1):
        frontier = sorted({w for v in support for w in adj[v]} - support)
        if frontier:
            support.add(rng.choice(frontier))
    src = {n: s for n, s, _t, _d in q.arrows}
    tgt = {n: t for n, _s, t, _d in q.arrows}
    for r in q.relations:
        if all(src[a] in support and tgt[a] in support for a in r):
            return None
    dims = {v: int(v in support) for v in q.vertices}
    mats = {n: [[rng.randrange(1, P)] for _ in range(dims[s])] if dims[t] else
            [[] for _ in range(dims[s])] for n, s, t, _d in q.arrows}
    return Rep(dims, mats)


def direct_sum(parts: list[Rep], arrows, rng: random.Random) -> Rep:
    """The direct sum of the parts, conjugated by a random automorphism at
    every vertex so that the block structure is hidden."""
    vertices = list(parts[0].dims)
    dims = {v: sum(p.dims[v] for p in parts) for v in vertices}
    offs = {v: [] for v in vertices}
    for v in vertices:
        acc = 0
        for p in parts:
            offs[v].append(acc)
            acc += p.dims[v]
    mats = {}
    for name, s, t in arrows:
        m = [[0] * dims[t] for _ in range(dims[s])]
        for k, p in enumerate(parts):
            for i, row in enumerate(p.mats[name]):
                for j, x in enumerate(row):
                    m[offs[s][k] + i][offs[t][k] + j] = x
        mats[name] = m
    g, g_inv = {}, {}
    for v in vertices:
        while True:
            cand = [[rng.randrange(P) for _ in range(dims[v])] for _ in range(dims[v])]
            inv = inverse(cand)
            if inv is not None:
                g[v], g_inv[v] = cand, inv
                break
    for name, s, t in arrows:
        m = matmul(g[s], mats[name], dims[s], dims[t])
        mats[name] = matmul(m, g_inv[t], dims[t], dims[t])
    return Rep(dims, mats)
