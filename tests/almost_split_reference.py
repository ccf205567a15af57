"""Map-level references for almost split maps, used only by the tests.

fovea certifies an almost split map with hom dimensions alone
(`fovea.modules._sequence_failures`).  The functions here are the older
constructions it replaced, kept as cross-checks built on the package's
own hom spaces and radicals:

- `verify_right_almost_split` solves for a factorization of every map
  from a listed module through g: E -> N;
- `irr_space` computes rad(X, N)/rad^2(X, N) with rad^2 spanned through
  a list of indecomposables;
- `left_almost_split` dualizes the right almost split map over the
  opposite quiver.

Unlike tests/oracles.py, which shares no code with fovea, these reuse
fovea's kernels and check its higher-level constructions against them.
"""

from __future__ import annotations

from dataclasses import dataclass

from fovea.linalg import Matrix, Subspace, solve
from fovea.modules import (
    HomBasis,
    ModMap,
    Module,
    ModuleError,
    PairCache,
    RadicalHom,
    dual_module,
    hom_space,
    is_isomorphic_indec,
    radical_hom,
    right_almost_split,
)


class RadicalCache(PairCache):
    """A PairCache that also memoises rad(M, N)."""

    def __init__(self):
        super().__init__()
        self._rad: dict = {}

    def radical(self, m: Module, n: Module) -> RadicalHom:
        out = self._rad.get((m, n))
        if out is None:
            out = self._rad[(m, n)] = radical_hom(m, n, hom=self.hom(m, n), back=self.hom(n, m))
        return out


def radical_maps(rad: RadicalHom) -> list[ModMap]:
    """The maps spanning rad(M, N)."""
    return [rad.hom.from_coords(row) for row in rad.coords.rows.entries]


@dataclass
class IrrSpace:
    dim: int
    lifted: list[ModMap]   # maps X -> N spanning rad modulo rad^2


def irr_space(x: Module, n: Module, ind_list: list[Module],
              cache: RadicalCache | None = None) -> IrrSpace:
    """rad(X, N)/rad^2(X, N) with rad^2 spanned through the given list."""
    f = x.bq.field
    cache = cache or RadicalCache()
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
        for a in radical_maps(first):
            for b in radical_maps(second):
                comp = b @ a
                coords = hom.coords(comp)
                in_rad = rad.coords.coords(coords)
                if in_rad is None:
                    raise ModuleError("rad^2 escaped rad; the list is inconsistent")
                rad2_rows.append(in_rad)
    rad2 = Subspace.span(f, rad.dim, rad2_rows)
    reps = rad2.quotient().representatives
    rad_maps = radical_maps(rad)
    return IrrSpace(rad.dim - rad2.dim, [rad_maps[i] for i in reps])


def _factors_through(hs: list[ModMap], g: ModMap, candidates: HomBasis | None = None) -> bool:
    """Does every h: X -> N in hs factor as g u for some u in Hom(X, E)
    (g: E -> N), with that hom space given or computed?"""
    x = hs[0].source
    if candidates is None:
        candidates = hom_space(x, g.source)
    if candidates.dim == 0:
        return all(h.is_zero() for h in hs)
    f = x.bq.field
    a = Matrix(f, [list((g @ u).vectorize()) for u in candidates.maps]).transpose()
    b = Matrix(f, [list(h.vectorize()) for h in hs]).transpose()
    return solve(a, b) is not None


def verify_right_almost_split(g: ModMap, n: Module, ind_list: list[Module],
                              cache: PairCache | None = None) -> list[str]:
    """Constructive postcondition: non-split, and every radical map factors."""
    cache = cache or PairCache()
    failures = []
    back = None if n.is_zero() else hom_space(n, g.source)
    if back is not None and _factors_through([ModMap.identity(n)], g, back):
        failures.append("the map is a split epimorphism")
    for x in ind_list:
        if x is n or (x.dims == n.dims and is_isomorphic_indec(x, n)):
            continue
        if not any(x.dims[v] and n.dims[v] for v in n.bq.vertices):
            continue    # disjoint supports: Hom(X, N) = 0
        hom = cache.hom(x, n)
        if hom.dim and not _factors_through(hom.maps, g):
            failures.append(f"a map from {x!r} does not factor (list incomplete?)")
    if back is not None:
        end = cache.hom(n, n)
        rad = [end.from_coords(r) for r in radical_hom(n, n, end, end).coords.rows.entries]
        if rad and not _factors_through(rad, g, back):
            failures.append("a radical endomorphism does not factor")
    return failures


def dual_map(f: ModMap) -> ModMap:
    src = dual_module(f.target)
    tgt = dual_module(f.source)
    return ModMap(src, tgt, {v: c.transpose() for v, c in f.comps.items()}, check=False)


def left_almost_split(n: Module, ind_list: list[Module], check: bool = True) -> ModMap:
    """The left minimal almost split map out of N: the dual of the right
    one into D N over the opposite quiver.  The list is read only with
    check=True."""
    dual_list = [dual_module(x) for x in ind_list] if check else []
    g = right_almost_split(dual_module(n), dual_list, check=check)
    return dual_map(g)
