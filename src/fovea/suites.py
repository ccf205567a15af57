"""Named verification suites bundling the covering identities.

Each suite loads one quiver input, runs a fixed battery of checks and
returns a Report whose pass/fail feeds the CLI exit code.  Check ids are
stable strings so CI diffs stay readable.
"""

from __future__ import annotations

from .covering import (
    base_enumeration,
    orbit_enumeration,
    push_down,
    verify_covering_axioms,
    verify_pushdown,
)
from .naming import load_quiver
from .functors import (
    common_window,
    default_battery,
    evaluate_dim,
    kg_level0_report,
    phi,
    phi_epi_cover,
    phi_hom_identity,
    psi_evaluate,
)
from .modules import (
    hom_space,
    is_indecomposable,
    is_isomorphic_indec,
)
from .quiver import (
    BoundQuiver,
    VoltageQuiver,
    Window,
    check_admissible,
    format_quiver,
    is_convex,
    lift_window,
    normalize_presentation,
    path_basis,
    rename_vertices,
)
from .repetitive import (
    _orbit_quotient,
    is_selfinjective,
    repetitive_truncation,
    repetitive_voltage,
)
from .reports import Report

SUITES = ("cover-axioms", "pushdown", "phi-identities", "kg0", "repetitive")


class SuiteError(ValueError):
    pass


def run_suite(name: str, input_spec: str, field_override: str | None = None,
              seed: int = 0, dim_cap: int = 12, count_cap: int = 24) -> Report:
    if name not in SUITES:
        raise SuiteError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    display, digest, q = load_quiver(input_spec, field_override)
    report = Report(name, field=q.field.spec() if isinstance(q, BoundQuiver)
                    else q.base.field.spec(), seed=seed,
                    inputs=[{"path": display, "sha256": digest}])
    if name == "cover-axioms":
        report.absorb(verify_covering_axioms(_require_voltage(q, name)))
    elif name == "pushdown":
        _suite_pushdown(report, q, seed)
    elif name == "phi-identities":
        _suite_phi_identities(report, q)
    elif name == "kg0":
        report.absorb(kg_level0_report(q, dim_cap=dim_cap, count_cap=count_cap, seed=seed))
    elif name == "repetitive":
        _suite_repetitive(report, q)
    return report


def _require_voltage(q, name):
    if not isinstance(q, VoltageQuiver):
        raise SuiteError(f"suite {name} needs a graded (voltage) input")
    return q


def _suite_pushdown(report: Report, q, seed: int = 0):
    vq = _require_voltage(q, "pushdown")
    # read first, so that the orbit count below reads this seed's list
    base_enum = base_enumeration(vq, seed)
    battery, _tests = default_battery(vq)
    mods = []
    for t in battery:
        target = t.pres.target
        if not target.is_zero() and target not in mods:
            mods.append(target)
    mods = mods[:3]
    for i, x in enumerate(mods):
        for j, y in enumerate(mods):
            vr = verify_pushdown(vq, x, y,
                                 density_target=push_down(x) if (i, j) == (0, 0) else None)
            report.absorb(vr, prefix=f"pair[{i},{j}].")
    # the pushed-down twist classes exhaust the indecomposables of the base
    if base_enum.complete:
        pushed = [push_down(c) for c in orbit_enumeration(vq)]
        for k, p in enumerate(pushed):
            report.add(f"pushdown.class-indecomposable[{k}]", True, is_indecomposable(p))
        matched = set()
        for p in pushed:
            for idx, m in enumerate(base_enum.modules):
                if idx not in matched and p.dims == m.dims and is_isomorphic_indec(p, m):
                    matched.add(idx)
                    break
        report.add("pushdown.classes-exhaust-base", len(base_enum.modules), len(matched))


def _suite_phi_identities(report: Report, q):
    vq = _require_voltage(q, "phi-identities")
    battery, tests = default_battery(vq)
    for i, t in enumerate(battery):
        hull = common_window(t.pres.source, t.pres.target)
        for j, x in enumerate(tests):
            lhs = psi_evaluate(phi(t), x)
            lo = hull.lo - x.window.hi
            hi = hull.hi - x.window.lo
            rhs = sum(evaluate_dim(t, x.twist(k)) for k in range(lo, hi + 1))
            report.add(f"comparison.pull-back-sum[{i},{j}]", lhs, rhs)
    for i, t1 in enumerate(battery[:4]):
        for j, t2 in enumerate(battery[:4]):
            report.absorb(phi_hom_identity(t1, t2), prefix=f"hom[{i},{j}].")
    mods = []
    for t in battery:
        target = t.pres.target
        if not target.is_zero() and target not in mods:
            mods.append(target)
    mods = mods[:2]
    count = 0
    for x in mods:
        for y in mods:
            fx, fy = push_down(x), push_down(y)
            for alpha in hom_space(fx, fy).maps:
                res = phi_epi_cover(x, y, alpha, tests)
                report.absorb(res.report, prefix=f"epi[{count}].")
                count += 1
    report.add("comparison.epi-batch-size", True, count > 0)


def _suite_repetitive(report: Report, q):
    if isinstance(q, VoltageQuiver):
        raise SuiteError("suite repetitive needs a finite-dimensional algebra input")
    bq: BoundQuiver = q
    base_dim = path_basis(bq).total_dim
    trunc0 = repetitive_truncation(bq, 0)
    trunc1 = repetitive_truncation(bq, 1)
    trunc2 = repetitive_truncation(bq, 2)
    report.add("repetitive.dim-n0", base_dim, trunc0.total_dim)
    report.add("repetitive.dim-n1", 5 * base_dim, trunc1.total_dim)
    report.add("repetitive.dim-n2", 9 * base_dim, trunc2.total_dim)

    # the exports for n >= 1 are the windows -n..n of the one repetitive
    # voltage quiver, which keeps its windows only while they are held
    rv = repetitive_voltage(bq)
    windows = {n: lift_window(rv, Window(-n, n)) for n in (1, 2)}
    exported1 = trunc1.export(rv)
    report.add("repetitive.export-admissible", True, check_admissible(exported1).ok)

    exported2 = trunc2.export(rv)
    inner = {v for v in exported2.vertices if v.endswith(("@-1", "@0", "@1"))}
    report.add("repetitive.truncation-convex", True, is_convex(exported2, inner))
    pb1, pb2 = path_basis(exported1), path_basis(exported2)
    # a pair that holds no path in either basis has dimension 0 in both
    held = {(x, y) for pb in (pb1, pb2) for x, y in pb.paths if x in inner and y in inner}
    agree = all(pb1.dim(x, y) == pb2.dim(x, y) for x, y in held)
    report.add("repetitive.truncation-hom-dims-agree", True, agree)

    norm = format_quiver(normalize_presentation(bq))
    renamed = rename_vertices(trunc0.export(), {f"{v}@0": v for v in bq.vertices})
    report.add("repetitive.n0-byte-exact", True, format_quiver(renamed) == norm)

    for n, trunc, exported in ((1, trunc1, exported1), (2, trunc2, exported2)):
        # a window with T_n's presentation, up to names, presents T_n, whose
        # basis the export already checked against T_n's category
        window = windows[n]
        same = _presentation_key(window) == _presentation_key(exported)
        wdim = path_basis(exported if same else window).total_dim
        report.add(f"repetitive.window-matches-truncation[n={n}]", trunc.total_dim, wdim)
    w0 = lift_window(rv, Window(0, 0))
    w0_renamed = rename_vertices(w0, {f"{v}@0": v for v in bq.vertices})
    w0_norm = format_quiver(normalize_presentation(w0_renamed))
    report.add("repetitive.window0-is-base", True, w0_norm == norm)

    orbit = _orbit_quotient(rv, 1)
    report.add("repetitive.orbit-dim", 2 * base_dim, path_basis(orbit).total_dim)
    report.add("repetitive.orbit-selfinjective", True, is_selfinjective(orbit))


def _presentation_key(bq: BoundQuiver) -> tuple:
    """bq up to arrow names and the order of its relations: each arrow is
    named by its endpoints and its rank among the arrows parallel to it."""
    names = {}
    parallel: dict[tuple[str, str], int] = {}
    for a in bq.arrows:
        ends = (a.source, a.target)
        names[a.name] = (*ends, parallel.get(ends, 0))
        parallel[ends] = parallel.get(ends, 0) + 1
    relations = sorted(tuple((c, tuple(names[x] for x in path)) for c, path in rel)
                       for rel in bq.relations)
    return (bq.field.p, bq.nilbound, bq.vertices, sorted(names.values()), relations)
