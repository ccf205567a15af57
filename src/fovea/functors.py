"""Finitely presented functor categories on module categories.

A finitely presented functor is stored by a presentation morphism f: M -> N
and stands for the cokernel of postcomposition with f on hom spaces.  The
same wrapper covers functors on modules over a finite algebra and functors
on finite-support modules over a graded lift; the comparison functor sends
the latter to the former by pushing the presentation down.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, Subspace, kernel_basis, rank, solve, vstack
from .modules import (
    Enumeration,
    HomBasis,
    ModMap,
    Module,
    direct_sum,
    hom_space,
    is_isomorphic_indec,
    projective,
    right_almost_split,
    _enumerate_unless_infinite,
)
from .covering import (
    LayeredModMap,
    LayeredModule,
    base_enumeration,
    common_window,
    layered_hom_dim,
    layered_injective,
    layered_simple,
    lift_morphism,
    orbit_enumeration,
    push_down,
    push_down_map,
)
from .quiver import (
    BoundQuiver,
    VoltageQuiver,
    Window,
    is_convex,
    path_basis,
    sub_quiver,
)
from .reports import Report


class FunctorError(ValueError):
    pass


ALGEBRA = "algebra"
COVER = "cover"


class FpFunctor:
    """Coker Hom(-, f) for a presentation morphism f: M -> N, which fixes
    the side and the carrier: a `LayeredModMap` is on the covering side of
    its voltage quiver, a `ModMap` on the algebra side of its bound quiver."""

    def __init__(self, pres):
        self.pres = pres
        self.side = COVER if isinstance(pres, LayeredModMap) else ALGEBRA
        self.carrier = pres.source.vq if self.side == COVER else pres.source.bq

    def twist(self, k: int) -> "FpFunctor":
        if self.side != COVER:
            raise FunctorError("twist only acts on the covering side")
        return FpFunctor(self.pres.twist(k))

    def __repr__(self):
        return f"FpFunctor({self.side}, pres {self.pres.source!r} -> {self.pres.target!r})"


def _zero(carrier):
    """The zero module over a voltage quiver's lift or over a bound quiver."""
    if isinstance(carrier, VoltageQuiver):
        return LayeredModule.make(carrier, Window(0, 0), {}, {})
    return Module.zero(carrier)


def fp_functor(carrier, pres) -> FpFunctor:
    """Wrap a presentation morphism, collapsing degenerate shapes."""
    if pres.target.is_zero():
        return hom_functor(carrier, _zero(carrier))
    return FpFunctor(pres)


def hom_functor(carrier, target) -> FpFunctor:
    """The representable functor Hom(-, target) with zero presentation kernel."""
    zero = _zero(carrier)
    if isinstance(target, LayeredModule):
        w = common_window(zero, target)
        mm = ModMap.zero(zero.align(w), target.align(w))
        return FpFunctor(LayeredModMap(zero, target, w, mm))
    return FpFunctor(ModMap.zero(zero, target))


@dataclass
class EvalResult:
    dim: int
    hom_target: HomBasis
    image_coords: Subspace

    def classes(self):
        return self.image_coords.quotient()


def evaluate(t: FpFunctor, x) -> EvalResult:
    """Value of the functor at a module: coker of Hom(x, f).

    Hom(x, N) is built first; when it is 0 so is the value, and neither
    Hom(x, M) nor (on the covering side) the aligned presentation is built.
    """
    if t.side == COVER:
        if not isinstance(x, LayeredModule):
            raise FunctorError("covering-side functor evaluated at a non-layered module")
        w = common_window(t.pres.source, t.pres.target, x)
        xm, target = x.align(w), t.pres.target.align(w)
    else:
        if isinstance(x, LayeredModule):
            raise FunctorError("algebra-side functor evaluated at a layered module")
        xm, target = x, t.pres.target
    hom_n = hom_space(xm, target)
    if hom_n.dim == 0:
        return EvalResult(0, hom_n, Subspace.span(xm.bq.field, 0, ()))
    f = t.pres.align(w) if t.side == COVER else t.pres
    hom_m = hom_space(xm, f.source)
    rows = []
    for h in hom_m.maps:
        coords = hom_n.coords(f @ h)
        rows.append(list(coords))
    image = Subspace.span(xm.bq.field, hom_n.dim, rows)
    return EvalResult(hom_n.dim - image.dim, hom_n, image)


def _hom_dim(x, y) -> int:
    """dim Hom(X, Y) off a forward elimination, on either side."""
    return layered_hom_dim(x, y) if isinstance(x, LayeredModule) else hom_space(x, y).dim


def evaluate_dim(t: FpFunctor, x) -> int:
    """dim F(X) for F = coker Hom(-, f), f: M -> N, from hom dimensions.

    Hom(X, -) is left exact (Auslander-Reiten-Smalo IV), so with K = ker f
    the sequence 0 -> Hom(X, K) -> Hom(X, M) -> Hom(X, N) -> F(X) -> 0 is
    exact and dim F(X) = dim Hom(X, N) - dim Hom(X, M) + dim Hom(X, K).
    Each dimension is read off a forward elimination: no basis is solved
    for and no map is composed or coordinatised.  K is built on first use
    and kept on the presentation map (`ModMap.kernel`,
    `LayeredModMap.kernel`).  On the covering side a dimension is 0
    without any alignment where the supports are disjoint
    (`layered_hom_dim`).  `evaluate` computes the same value from the
    cokernel itself.
    """
    if t.side == COVER:
        if not isinstance(x, LayeredModule):
            raise FunctorError("covering-side functor evaluated at a non-layered module")
    elif isinstance(x, LayeredModule):
        raise FunctorError("algebra-side functor evaluated at a layered module")
    n = _hom_dim(x, t.pres.target)
    if n == 0:
        return 0
    m = _hom_dim(x, t.pres.source)
    return n - m + _hom_dim(x, t.pres.kernel()) if m else n


@dataclass
class FunctorMap:
    """A map of presented functors: h on presentation targets, lift witness k."""

    h: ModMap
    lift: ModMap | None


@dataclass
class FpHomResult:
    dim: int
    maps: list[FunctorMap]
    hom_targets: HomBasis          # Hom(N1, N2)
    good_coords: Subspace          # subspace inducing functor maps
    trivial_coords: Subspace       # subspace inducing the zero map


def _on_one_window(t1: FpFunctor, t2: FpFunctor) -> tuple[ModMap, ModMap]:
    """The two presentation morphisms, over one window on the covering side."""
    if t1.side != t2.side:
        raise FunctorError("functor sides differ")
    if t1.side == COVER:
        w = common_window(t1.pres.source, t1.pres.target, t2.pres.source, t2.pres.target)
        return t1.pres.align(w), t2.pres.align(w)
    return t1.pres, t2.pres


def _condition_rows(f1: ModMap, f2: ModMap, hom_n1n2: HomBasis, hom_m1m2: HomBasis) -> list:
    """For each basis map h of Hom(N1, N2), the class of h f1 in
    Hom(M1, N2) / f2 Hom(M1, M2): a combination of them induces a map of
    functors exactly when its class is 0."""
    hom_m1n2 = hom_space(f1.source, f2.target)
    w_rows = [list(hom_m1n2.coords(f2 @ k)) for k in hom_m1m2.maps]
    quot = Subspace.span(f1.source.bq.field, hom_m1n2.dim, w_rows).quotient()
    return [list(quot.apply(hom_m1n2.coords(h @ f1))) for h in hom_n1n2.maps]


def fp_hom(t1: FpFunctor, t2: FpFunctor) -> FpHomResult:
    """Natural transformations between presented functors.

    A map is an h: N1 -> N2 with h f1 factoring through f2; it is zero
    exactly when h itself factors through f2.  Both conditions are linear.
    """
    f1, f2 = _on_one_window(t1, t2)
    m1, n1 = f1.source, f1.target
    m2, n2 = f2.source, f2.target
    fld = n1.bq.field

    hom_n1n2 = hom_space(n1, n2)
    if hom_n1n2.dim == 0:
        zero = Subspace.span(fld, 0, [])
        return FpHomResult(0, [], hom_n1n2, zero, zero)
    hom_m1m2 = hom_space(m1, m2)
    cond_rows = _condition_rows(f1, f2, hom_n1n2, hom_m1m2)
    if not cond_rows[0]:
        good = Subspace.span(fld, hom_n1n2.dim, Matrix.identity(fld, hom_n1n2.dim).entries)
    else:
        good = Subspace(fld, hom_n1n2.dim, kernel_basis(Matrix(fld, cond_rows).transpose()))

    trivial_rows = [list(hom_n1n2.coords(f2 @ u)) for u in hom_space(n1, m2).maps]
    trivial = Subspace.span(fld, hom_n1n2.dim, trivial_rows)

    dim = good.dim - trivial.dim
    maps = []
    inside = [good.coords(row) for row in trivial.rows.entries]
    rel = Subspace.span(fld, good.dim, inside)
    for rep in rel.quotient().representatives:
        coeffs = good.rows.entries[rep]
        h = hom_n1n2.from_coords(coeffs)
        lift = _solve_lift(f1, f2, h, hom_m1m2)
        maps.append(FunctorMap(h, lift))
    return FpHomResult(dim, maps, hom_n1n2, good, trivial)


def _solve_lift(f1: ModMap, f2: ModMap, h: ModMap, hom_m1m2: HomBasis) -> ModMap | None:
    fld = f1.source.bq.field
    target = h @ f1
    cols = [list((f2 @ k).vectorize()) for k in hom_m1m2.maps]
    if not cols:
        return None if not target.is_zero() else ModMap.zero(f1.source, f2.source)
    a = Matrix(fld, cols).transpose()
    b = Matrix(fld, [list(target.vectorize())]).transpose()
    sol = solve(a, b)
    if sol is None:
        return None
    return hom_m1m2.from_coords([row[0] for row in sol.entries])


def fp_hom_dim(t1: FpFunctor, t2: FpFunctor) -> int:
    """dim Hom(F1, F2), as `fp_hom` counts it, without its maps.

    Hom(N1, -) and Hom(M1, -) are left exact, so with K2 = ker f2 the maps
    N1 -> N2 inducing zero, f2 Hom(N1, M2), have dimension
    dim Hom(N1, M2) - dim Hom(N1, K2), and the quotient of Hom(M1, N2) by
    f2 Hom(M1, M2), where `_condition_rows` lie, has dimension
    dim Hom(M1, N2) - dim Hom(M1, M2) + dim Hom(M1, K2).  These are read
    off forward eliminations as in `evaluate_dim`; K2 is kept on t2's
    presentation map.  Where that quotient is 0 every map N1 -> N2
    induces a map of functors; otherwise the ones that do are the kernel
    of the condition rows, whose rank is taken.  No quotient
    representative and no lift is built.
    """
    f1, f2 = _on_one_window(t1, t2)
    hom_n1n2 = hom_space(f1.target, f2.target)
    if hom_n1n2.dim == 0:
        return 0
    m1, n1 = t1.pres.source, t1.pres.target
    m2, n2 = t2.pres.source, t2.pres.target
    hom_m1m2 = _hom_dim(m1, m2)
    good = hom_n1n2.dim
    if _hom_dim(m1, n2) - hom_m1m2 + (_hom_dim(m1, t2.pres.kernel()) if hom_m1m2 else 0):
        cond_rows = _condition_rows(f1, f2, hom_n1n2, hom_space(f1.source, f2.source))
        good -= rank(Matrix(f1.source.bq.field, cond_rows))
    hom_n1m2 = _hom_dim(n1, m2)
    return good - (hom_n1m2 - _hom_dim(n1, t2.pres.kernel()) if hom_n1m2 else 0)


# ---------------------------------------------------------------------------
# simple functors and lengths


def simple_functor(bq: BoundQuiver, n: Module, enum: Enumeration) -> FpFunctor:
    """Hom(-, N) modulo its radical, presented by the almost split map and
    certified by its indicator profile on the list of indecomposables."""
    t = fp_functor(bq, right_almost_split(n, enum.modules))
    for x in enum.modules:
        expected = 1 if (x.dims == n.dims and is_isomorphic_indec(x, n)) else 0
        if evaluate_dim(t, x) != expected:
            raise FunctorError("simple functor has a non-indicator profile; "
                               "the indecomposable list looks incomplete")
    return t


def _widened(vq: VoltageQuiver, w: Window) -> Window:
    """The window holding every indecomposable whose support meets w."""
    reach = max(r.window.hi for r in orbit_enumeration(vq))
    return Window(w.lo - reach, w.hi + reach)


def simple_functor_cover(vq: VoltageQuiver, n: LayeredModule) -> FpFunctor:
    """Hom(-, N) modulo its radical for a lifted module N, presented by the
    right minimal almost split map into N.

    Every summand of the middle term E of the almost split sequence ending
    at N maps to N, so its support meets N's, and tau N embeds in E; so
    N's window widened by the orbit reach holds the whole sequence, which
    is then the sequence over the window algebra.
    """
    w = _widened(vq, n.window)
    g = right_almost_split(n.align(w), [], check=False)
    src = LayeredModule(vq, w, g.source).trim()
    return FpFunctor(LayeredModMap(src, n, w, ModMap(src.align(w), n.align(w), g.comps,
                                                     check=False)))


@dataclass
class LengthCertificate:
    labels: list[str]
    profile: dict[str, int]
    length: int


def functor_length(t: FpFunctor, enum: Enumeration) -> LengthCertificate:
    """Composition length via evaluation over a complete indecomposable list."""
    if t.side != ALGEBRA:
        raise FunctorError("use functor_length_cover on the covering side")
    if not enum.complete:
        raise FunctorError("finite length is undecidable from an incomplete list")
    labels = enum.labels()
    profile = {}
    for label, x in zip(labels, enum.modules):
        d = evaluate_dim(t, x)
        if d:
            profile[label] = d
    return LengthCertificate(labels, profile, sum(profile.values()))


def _layered_label(vq: VoltageQuiver, lm: LayeredModule) -> str:
    dims = ";".join(
        f"{n}:" + ",".join(str(lm.dim(v, n)) for v in vq.base.vertices)
        for n in lm.window.layers)
    return f"[{dims}]"


def window_indecomposables(vq: VoltageQuiver, window: Window) -> list[LayeredModule]:
    """The indecomposables over a window of the lift: the shifts of the
    orbit representatives that fit in it, trimmed to their support."""
    return [r.twist(k) for r in orbit_enumeration(vq)
            for k in range(window.lo, window.hi - r.window.hi + 1)]


def functor_length_cover(t: FpFunctor) -> LengthCertificate:
    """Length of a covering-side functor by evaluation over a window.

    The functor vanishes at every X whose support misses the presentation's
    target, so the target's window widened by the orbit reach holds the
    whole profile.
    """
    if t.side != COVER:
        raise FunctorError("functor_length_cover needs a covering-side functor")
    vq = t.carrier
    profile = {}
    for lm in window_indecomposables(vq, _widened(vq, t.pres.target.window)):
        d = evaluate_dim(t, lm)
        if d:
            profile[_layered_label(vq, lm)] = d
    return LengthCertificate(sorted(profile), profile, sum(profile.values()))


# ---------------------------------------------------------------------------
# the comparison functor and its identities


def phi(t: FpFunctor) -> FpFunctor:
    """Push the presentation down to the base algebra."""
    if t.side != COVER:
        raise FunctorError("phi applies to covering-side functors")
    return FpFunctor(push_down_map(t.pres))


def psi_evaluate(u: FpFunctor, x: LayeredModule) -> int:
    """Value of the pulled-back functor: evaluate at the push-down."""
    if u.side != ALGEBRA:
        raise FunctorError("psi pulls back algebra-side functors")
    return evaluate_dim(u, push_down(x))


def twist_functor(t: FpFunctor, k: int) -> FpFunctor:
    return t.twist(k)


def functor_shift_range(t1: FpFunctor, t2: FpFunctor) -> range:
    h1 = common_window(t1.pres.source, t1.pres.target)
    h2 = common_window(t2.pres.source, t2.pres.target)
    return range(h2.lo - h1.hi, h2.hi - h1.lo + 1)


def phi_hom_identity(t1: FpFunctor, t2: FpFunctor) -> Report:
    """Hom over the base equals the sum of twisted homs over the lift."""
    report = Report("phi-hom")
    lhs = fp_hom_dim(phi(t1), phi(t2))
    rhs = sum(fp_hom_dim(twist_functor(t1, k), t2) for k in functor_shift_range(t1, t2))
    report.add("comparison.hom-sum", lhs, rhs)
    return report


@dataclass
class EpiCoverResult:
    functor: FpFunctor             # covering-side functor T
    shifts: list[int]              # the contributing twist components
    epi: ModMap | None             # pi, summing the pushed-down columns
    report: Report


def layered_direct_sum(parts: list[LayeredModule]):
    vq = parts[0].vq
    w = common_window(*parts)
    aligned = [p.align(w) for p in parts]
    total, incls, projs = direct_sum(aligned)
    lm_total = LayeredModule(vq, w, total)
    lm_incls = [LayeredModMap(p, lm_total, w, i) for p, i in zip(parts, incls)]
    lm_projs = [LayeredModMap(lm_total, p, w, q) for p, q in zip(parts, projs)]
    return lm_total, lm_incls, lm_projs


def phi_epi_cover(x: LayeredModule, y: LayeredModule, alpha: ModMap,
                  test_modules: list[LayeredModule]) -> EpiCoverResult:
    """Cover a presented base-side functor by the image of the comparison.

    The presentation morphism alpha is split into lifted components; the
    column of their twists presents a covering-side functor whose image
    surjects onto the given functor via the block summation map.  The
    report checks the factorization and pointwise surjectivity (hence
    evaluation dominance) at the test modules; no isomorphism is claimed.
    """
    vq = x.vq
    report = Report("phi-epi-cover")
    u = fp_functor(vq.base, alpha)
    components = lift_morphism(x, y, alpha)
    if not components:
        t = hom_functor(vq, y)
        pi = ModMap.identity(push_down(y))
        report.assert_true("comparison.epi-factorization", True,
                           "zero presentation; the representable functor covers")
    else:
        shifts = sorted(components)
        targets = [y.twist(-k) for k in shifts]
        col_maps = [components[k].twist(-k) for k in shifts]
        total, _incls, projs = layered_direct_sum(targets)
        w = common_window(total, x, *[c.source for c in col_maps])
        placed = [c.align(w) for c in col_maps]
        comps = {v: vstack([p.comps[v] for p in placed]) for v in placed[0].comps}
        fbar_map = ModMap(x.align(w), total.align(w), comps, check=True)
        fbar = LayeredModMap(x, total, w, fbar_map)
        t = FpFunctor(fbar)
        pi = None
        for p in projs:
            pushed = push_down_map(p)
            pi = pushed if pi is None else pi + pushed
        report.add("comparison.epi-factorization", alpha, pi @ push_down_map(fbar))
    phit = phi(t)
    for z in test_modules:
        fz = push_down(z)
        top = evaluate_dim(phit, fz)
        bottom = evaluate_dim(u, fz)
        report.assert_true(
            f"comparison.dominance[{_layered_label(vq, z)}]",
            top >= bottom,
            f"{top} >= {bottom}")
        # onto a zero value every map is surjective
        surj = bottom == 0 or _induced_surjective(phit, u, pi, fz)
        report.assert_true(f"comparison.image-covers[{_layered_label(vq, z)}]", surj)
    return EpiCoverResult(t, sorted(components), pi, report)


def _induced_surjective(phit: FpFunctor, u: FpFunctor, pi: ModMap | None, z: Module) -> bool:
    """Surjectivity of the induced map coker Hom(z, F fbar) -> coker Hom(z, alpha)."""
    top, bottom = evaluate(phit, z), evaluate(u, z)
    fld = z.bq.field
    quot = bottom.classes()
    rows = []
    for h in top.hom_target.maps:
        composed = (pi @ h) if pi is not None else h
        coords = bottom.hom_target.coords(composed)
        rows.append(list(quot.apply(coords)))
    return rank(Matrix(fld, rows)) == bottom.dim


# ---------------------------------------------------------------------------
# restriction and extension along a convex subcategory


def restrict_module(m: Module, sub: BoundQuiver) -> Module:
    dims = {v: m.dims[v] for v in sub.vertices}
    mats = {a.name: m.mats[a.name] for a in sub.arrows}
    return Module(sub, dims, mats, check=False)


def restrict_map(f: ModMap, sub: BoundQuiver) -> ModMap:
    return ModMap(restrict_module(f.source, sub), restrict_module(f.target, sub),
                  {v: f.comps[v] for v in sub.vertices}, check=False)


def restrict_functor(t: FpFunctor, subset) -> FpFunctor:
    """Restrict a presented functor to the modules of a convex subcategory."""
    if t.side != ALGEBRA:
        raise FunctorError("restriction acts on algebra-side functors")
    bq = t.carrier
    if not is_convex(bq, subset):
        raise FunctorError("subset is not convex")
    sub = sub_quiver(bq, subset)
    return FpFunctor(restrict_map(t.pres, sub))


class Coinduction:
    """Hom_B(restricted projectives, -): the right adjoint of restriction."""

    def __init__(self, bq: BoundQuiver, subset):
        if not is_convex(bq, subset):
            raise FunctorError("subset is not convex")
        self.bq = bq
        self.sub = sub_quiver(bq, subset)
        basis = path_basis(bq)
        self._proj = {z: projective(bq, z) for z in bq.vertices}
        self._res_proj = {z: restrict_module(self._proj[z], self.sub) for z in bq.vertices}
        self._res_proj_arrow = {}
        for a in bq.arrows:
            comps = {}
            for u in self.sub.vertices:
                cols = []
                for rep in basis.representatives(u, a.source):
                    rho = basis.reduce_path(u, a.source, rep)
                    cols.append(basis.compose(u, a.source, a.target, rho,
                                              basis.reduce_path(a.source, a.target, (a.name,))))
                if cols and self._res_proj[a.source].dims[u]:
                    comps[u] = Matrix(bq.field, cols).transpose()
                else:
                    comps[u] = Matrix.zeros(bq.field,
                                            self._res_proj[a.target].dims[u],
                                            self._res_proj[a.source].dims[u])
            self._res_proj_arrow[a.name] = ModMap(self._res_proj[a.source],
                                                  self._res_proj[a.target], comps, check=False)

    def module(self, x: Module) -> tuple[Module, dict[str, HomBasis]]:
        homs = {z: hom_space(self._res_proj[z], x) for z in self.bq.vertices}
        dims = {z: homs[z].dim for z in self.bq.vertices}
        mats = {}
        for a in self.bq.arrows:
            cols = []
            for h in homs[a.target].maps:
                cols.append(list(homs[a.source].coords(h @ self._res_proj_arrow[a.name])))
            if cols and dims[a.source]:
                mats[a.name] = Matrix(self.bq.field, cols).transpose()
            else:
                mats[a.name] = Matrix.zeros(self.bq.field, dims[a.source], dims[a.target])
        return Module(self.bq, dims, mats, check=True), homs

    def map(self, g: ModMap) -> ModMap:
        src, hom_src = self.module(g.source)
        tgt, hom_tgt = self.module(g.target)
        comps = {}
        for z in self.bq.vertices:
            cols = [list(hom_tgt[z].coords(g @ h)) for h in hom_src[z].maps]
            if cols and tgt.dims[z]:
                comps[z] = Matrix(self.bq.field, cols).transpose()
            else:
                comps[z] = Matrix.zeros(self.bq.field, tgt.dims[z], src.dims[z])
        return ModMap(src, tgt, comps, check=True)


def extend_functor(s: FpFunctor, ambient: BoundQuiver, subset,
                   coind: Coinduction | None = None) -> FpFunctor:
    """Extend a functor on a convex subcategory, presented by coinduction."""
    if s.side != ALGEBRA:
        raise FunctorError("extension acts on algebra-side functors")
    coind = coind or Coinduction(ambient, subset)
    return FpFunctor(coind.map(s.pres))


# ---------------------------------------------------------------------------
# the level-0 report


UNDECIDABLE = "undecidable at desk scale"
LEVEL_ZERO = "KG = 0 (finite representation type)"


def kg_level0_report(subject, dim_cap: int = 12, count_cap: int = 24,
                     seed: int = 0) -> Report:
    """Level-0 statements checked numerically.

    For a plain algebra this reports the finite-type verdict from the
    enumeration closure at the caps given.  A graded cover reads its base's
    one enumeration at the cover caps (`base_enumeration`), and the caps
    given bound nothing there.  A base whose separated quiver is not Dynkin,
    or that is the path algebra of a non-Dynkin quiver, is
    representation-infinite (`_infinite_reason`), so no closure can
    complete: it stays undecidable without enumerating.  For a graded
    cover it additionally checks, over a functor battery: equality of
    lengths with the pushed-down functor, twist invariance of lengths, and
    that nonzero twists move length profiles, whose labels carry layers.
    """
    report = Report("kg0")
    algebra = isinstance(subject, BoundQuiver)
    base_enum = (_enumerate_unless_infinite(subject, dim_cap, count_cap, seed) if algebra
                 else base_enumeration(subject, seed))
    verdict = LEVEL_ZERO if base_enum.complete else UNDECIDABLE
    if algebra:
        report.verdicts["algebra"] = verdict
    else:
        report.verdicts.update(base=verdict, cover=verdict)
    if algebra or verdict == UNDECIDABLE:
        report.assert_true("kg0.verdict-computed", True, verdict)
        return report

    for i, t in enumerate(default_battery(subject)[0]):
        cert_r = functor_length_cover(t)
        cert_a = functor_length(phi(t), base_enum)
        report.add(f"kg0.length-preserved[{i}]", cert_r.length, cert_a.length)
        twisted = {k: functor_length_cover(twist_functor(t, k)) for k in (1, -1)}
        for k, cert_k in twisted.items():
            report.add(f"kg0.twist-length[{i},k={k}]", cert_r.length, cert_k.length)
        if cert_r.length > 0:
            for k, cert_k in twisted.items():
                report.assert_true(f"kg0.twist-moves-profile[{i},k={k}]",
                                   cert_k.profile != cert_r.profile)
    return report


def default_battery(vq: VoltageQuiver) -> tuple[list[FpFunctor], list[LayeredModule]]:
    """A small standard battery of functors and test modules at layer 0."""
    mods: list[LayeredModule] = []
    for v in vq.base.vertices:
        mods.append(layered_simple(vq, v, 0))
        inj = layered_injective(vq, v, 0)
        if inj not in mods:
            mods.append(inj)
    battery: list[FpFunctor] = []
    for m in mods:
        battery.append(hom_functor(vq, m))
    for m in mods:
        battery.append(simple_functor_cover(vq, m))
    while len(battery) < 5:
        battery.append(twist_functor(battery[1], 1))
    test = list(mods)
    test.append(mods[-1].twist(-1))
    while len(test) < 3:
        test.append(test[-1].twist(-1))
    return battery, test
