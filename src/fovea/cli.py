"""Command line front end.

Exit codes follow the CI contract: 0 all checks passed, 1 a check failed,
2 usage or input errors.  All numeric output is exact; --json switches
every verb to deterministic JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .covering import COVER_COUNT_CAP, COVER_DIM_CAP, base_enumeration, layered_hom_dim, push_down
from .naming import (
    FixtureError,
    fixture_names,
    load_quiver,
    read_input,
    resolve_functor,
    resolve_layered,
    resolve_module,
)
from .functors import (
    FunctorError,
    evaluate_dim,
    functor_length,
    functor_length_cover,
    phi,
    simple_functor,
)
from .linalg import LinAlgError
from .modules import (
    ModuleError,
    ModuleParseError,
    format_module,
    hom_dim,
    parse_module,
    _enumerate_unless_infinite,
)
from .quiver import ParseError, QuiverError, VoltageQuiver, format_quiver
from .repetitive import repetitive_truncation, selfinjective_orbit
from .reports import jsonable
from .suites import SuiteError, run_suite

USAGE_EXIT = 2
CHECK_FAIL_EXIT = 1


def _common(p: argparse.ArgumentParser):
    p.add_argument("--json", action="store_true", help="emit deterministic JSON")
    p.add_argument("--field", default=None,
                   help="field override: gf:<p> or q (default from FOVEA_FIELD)")
    p.add_argument("--seed", type=int, default=0, help="seed for decompositions")
    p.add_argument("--dim-cap", type=int, default=12,
                   help="dimension cap for the enumerations of an algebra input; none on a "
                        f"graded input (its base and windows: fixed {COVER_DIM_CAP})")
    p.add_argument("--count-cap", type=int, default=24,
                   help="count cap for the enumerations of an algebra input; none on a "
                        f"graded input (its base and windows: fixed {COVER_COUNT_CAP})")


# the verbs in help order
_VERBS = ("hom", "pushdown", "eval", "simple", "phi", "length", "rep", "cover", "suite",
         "fun", "mod", "fixtures")


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The command line parser; given a verb, only that verb's subparser.

    The subparser list's usage names every verb either way, so a one-verb
    parser prints the full parser's messages; the full parser is needed
    only for --help, --version, a missing verb or an unknown one.
    """
    parser = argparse.ArgumentParser(prog="fovea",
                                     description="exact covering computations on bound quivers")
    parser.add_argument("--version", action="version", version=f"fovea {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if verb is None else "{" + ",".join(_VERBS) + "}")

    if verb in (None, "hom"):
        p = sub.add_parser("hom", help="dimension of a hom space")
        p.add_argument("input")
        p.add_argument("--from", dest="src", required=True, metavar="MODULE")
        p.add_argument("--to", dest="dst", required=True, metavar="MODULE")
        _common(p)

    if verb in (None, "pushdown"):
        p = sub.add_parser("pushdown", help="push a lifted module down to the base algebra")
        p.add_argument("input")
        p.add_argument("--module", required=True)
        _common(p)

    if verb in (None, "eval"):
        p = sub.add_parser("eval", help="evaluate a presented functor at a module")
        p.add_argument("input")
        p.add_argument("--functor", required=True)
        p.add_argument("--at", required=True)
        _common(p)

    if verb in (None, "simple"):
        p = sub.add_parser("simple", help="evaluation profile of a simple functor")
        p.add_argument("input")
        p.add_argument("--at", required=True)
        _common(p)

    if verb in (None, "phi"):
        p = sub.add_parser("phi", help="profile of the pushed-down functor over the base")
        p.add_argument("input")
        p.add_argument("--functor", required=True)
        _common(p)

    if verb in (None, "length"):
        p = sub.add_parser("length", help="composition length of a presented functor")
        p.add_argument("input")
        p.add_argument("--functor", required=True)
        _common(p)

    if verb in (None, "rep"):
        p = sub.add_parser("rep", help="repetitive constructions")
        rep_sub = p.add_subparsers(dest="rep_command", required=True)
        pb = rep_sub.add_parser("build", help="truncated repetitive category as a quiver file")
        pb.add_argument("input")
        pb.add_argument("--n", type=int, required=True)
        pb.add_argument("-o", "--output", default=None)
        _common(pb)
        po = rep_sub.add_parser("orbit", help="orbit algebra of the k-fold shift")
        po.add_argument("input")
        po.add_argument("--k", type=int, default=1)
        po.add_argument("-o", "--output", default=None)
        _common(po)

    if verb in (None, "cover"):
        p = sub.add_parser("cover", help="covering verifications")
        cov_sub = p.add_subparsers(dest="cover_command", required=True)
        pv = cov_sub.add_parser("verify", help="check the covering identities on a graded input")
        pv.add_argument("input")
        pv.set_defaults(name="cover-axioms")
        _common(pv)

    if verb in (None, "suite"):
        p = sub.add_parser("suite", help="run a named verification suite")
        p.add_argument("name", help="one of: cover-axioms, pushdown, phi-identities, kg0, repetitive")
        p.add_argument("input")
        _common(p)

    if verb in (None, "fun"):
        p = sub.add_parser("fun", help="functor-category verbs")
        fun_sub = p.add_subparsers(dest="fun_command", required=True)
        for name, args in (("eval", ("--functor", "--at")), ("hom", ("--from", "--to")),
                           ("simple", ("--at",)), ("phi", ("--functor",)),
                           ("kg0", ())):
            pf = fun_sub.add_parser(name)
            pf.add_argument("input")
            if name == "kg0":
                pf.set_defaults(name="kg0")
            for a in args:
                dest = {"--from": "src", "--to": "dst"}.get(a)
                if dest:
                    pf.add_argument(a, dest=dest, required=True)
                else:
                    pf.add_argument(a, required=True)
            _common(pf)

    if verb in (None, "mod"):
        p = sub.add_parser("mod", help="round-trip a module file to canonical form")
        p.add_argument("input")
        p.add_argument("modfile")
        _common(p)

    if verb in (None, "fixtures"):
        p = sub.add_parser("fixtures", help="list packaged fixture inputs")
        _common(p)

    return parser


@functools.cache
def _parser(verb: str | None) -> argparse.ArgumentParser:
    """The parser of one verb (None: the full parser), built on first use
    and kept for the process: at most 13 of them.  A parser holds no
    computed result, and `main` reads --field's default from the
    environment on each call."""
    return build_parser(verb)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        sys.stdout.write(json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load(args):
    return load_quiver(args.input, args.field)


def _fun_hom(args) -> int:
    _name, _digest, q = _load(args)
    if isinstance(q, VoltageQuiver):
        a = resolve_layered(q, args.src)
        b = resolve_layered(q, args.dst)
        d = layered_hom_dim(a, b)
    else:
        a = resolve_module(q, args.src)
        b = resolve_module(q, args.dst)
        d = hom_dim(a, b)
    _emit(args, {"dim": d}, f"dim = {d}")
    return 0


def _fun_pushdown(args) -> int:
    _name, _digest, q = _load(args)
    if not isinstance(q, VoltageQuiver):
        raise FixtureError("pushdown needs a graded (voltage) input")
    m = resolve_layered(q, args.module)
    pd = push_down(m)
    dims = {v: pd.dims[v] for v in pd.bq.vertices}
    text = "dims " + " ".join(f"{v}={d}" for v, d in dims.items()) + f"  total {pd.total_dim}"
    _emit(args, {"dims": dims, "total": pd.total_dim}, text)
    return 0


def _complete_list(q, args):
    """The one enumeration a verb reads, at the CLI's caps; an incomplete
    list is refused, since a simple functor built on it is not simple.  A
    representation-infinite q, read off its separated quiver or, for a path
    algebra, off its quiver (`_infinite_reason`), is refused without
    enumerating."""
    enum = _enumerate_unless_infinite(q, args.dim_cap, args.count_cap, args.seed)
    if not enum.complete:
        raise FunctorError("a simple functor's profile is undecidable from an incomplete list")
    return enum


def _fun_eval(args) -> int:
    _name, _digest, q = _load(args)
    if isinstance(q, VoltageQuiver):
        t = resolve_functor(q, args.functor)
        x = resolve_layered(q, args.at)
    else:
        # only a simple functor reads the list of indecomposables
        simple_spec = args.functor.strip().partition("@")[0].upper() == "S"
        t = resolve_functor(q, args.functor, _complete_list(q, args) if simple_spec else None)
        x = resolve_module(q, args.at)
    d = evaluate_dim(t, x)
    _emit(args, {"dim": d}, str(d))
    return 0


def _fun_simple(args) -> int:
    _name, _digest, q = _load(args)
    if isinstance(q, VoltageQuiver):
        raise FixtureError("profiles over a graded input are infinite; use eval")
    n = resolve_module(q, args.at)
    enum = _complete_list(q, args)
    t = simple_functor(q, n, enum)
    profile = {label: evaluate_dim(t, x) for label, x in zip(enum.labels(), enum.modules)}
    text = "  ".join(f"{k}:{v}" for k, v in sorted(profile.items()))
    _emit(args, {"profile": profile}, text)
    return 0


def _fun_phi(args) -> int:
    _name, _digest, q = _load(args)
    if not isinstance(q, VoltageQuiver):
        raise FixtureError("phi needs a graded (voltage) input")
    t = resolve_functor(q, args.functor)
    u = phi(t)
    enum = base_enumeration(q, args.seed)
    profile = {label: evaluate_dim(u, x) for label, x in zip(enum.labels(), enum.modules)}
    text = "  ".join(f"{k}:{v}" for k, v in sorted(profile.items()))
    _emit(args, {"profile": profile, "complete": enum.complete}, text)
    return 0


def _fun_length(args) -> int:
    _name, _digest, q = _load(args)
    if isinstance(q, VoltageQuiver):
        cert = functor_length_cover(resolve_functor(q, args.functor))
    else:
        # one enumeration, with the caps given, serves the functor and its length
        enum = _enumerate_unless_infinite(q, args.dim_cap, args.count_cap, args.seed)
        cert = functor_length(resolve_functor(q, args.functor, enum), enum)
    _emit(args, {"length": cert.length, "profile": cert.profile},
          f"length = {cert.length}")
    return 0


def _rep(args) -> int:
    usage = None
    if args.rep_command == "build" and args.n < 0:
        usage = "truncation radius must be nonnegative"
    elif args.rep_command == "orbit" and args.k < 1:
        usage = "orbit exponent must be at least 1"
    if usage:
        sys.stderr.write(f"fovea: {usage}\n")
        return USAGE_EXIT
    _name, _digest, q = _load(args)
    if isinstance(q, VoltageQuiver):
        raise FixtureError("repetitive constructions need an algebra input")
    if args.rep_command == "build":
        out = repetitive_truncation(q, args.n).export()
    else:
        out = selfinjective_orbit(q, args.k)
    text = format_quiver(out)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        sys.stdout.write(f"wrote {args.output}\n")
    else:
        sys.stdout.write(text)
    return 0


def _suite(args) -> int:
    try:
        report = run_suite(args.name, args.input, field_override=args.field,
                           seed=args.seed, dim_cap=args.dim_cap, count_cap=args.count_cap)
    except SuiteError as e:
        sys.stderr.write(f"fovea: {e}\n")
        return USAGE_EXIT
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.ok else CHECK_FAIL_EXIT


def _mod(args) -> int:
    _name, _digest, q = _load(args)
    if isinstance(q, VoltageQuiver):
        raise FixtureError("module files live over algebra inputs")
    _disp, raw = read_input(args.modfile)
    m = parse_module(q, raw.decode("utf-8"))
    sys.stdout.write(format_module(m))
    return 0


def _fixtures(args) -> int:
    names = fixture_names()
    _emit(args, {"fixtures": names}, "\n".join(names))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    verb = argv[0] if argv and argv[0] in _VERBS else None
    args = _parser(verb).parse_args(argv)
    if args.field is None:
        args.field = os.environ.get("FOVEA_FIELD")
    for cap, what in ((args.dim_cap, "dimension cap"), (args.count_cap, "count cap")):
        if cap < 0:
            sys.stderr.write(f"fovea: {what} must be nonnegative\n")
            return USAGE_EXIT
    handlers = {
        "hom": _fun_hom,
        "pushdown": _fun_pushdown,
        "eval": _fun_eval,
        "simple": _fun_simple,
        "phi": _fun_phi,
        "length": _fun_length,
        "rep": _rep,
        "suite": _suite,
        "mod": _mod,
        "fixtures": _fixtures,
    }
    try:
        if args.command == "cover":
            return _suite(args)
        if args.command == "fun":
            fun_handlers = {"eval": _fun_eval, "hom": _fun_hom, "simple": _fun_simple,
                            "phi": _fun_phi, "kg0": _suite}
            return fun_handlers[args.fun_command](args)
        return handlers[args.command](args)
    except (FixtureError, ParseError, ModuleParseError, OSError) as e:
        sys.stderr.write(f"fovea: {e}\n")
        return USAGE_EXIT
    except (QuiverError, ModuleError, LinAlgError, ValueError) as e:
        sys.stderr.write(f"fovea: {e}\n")
        return CHECK_FAIL_EXIT


if __name__ == "__main__":
    sys.exit(main())
