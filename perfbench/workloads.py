"""The benchmark's three workloads: their inputs, calls and checks.

A workload function builds every input from the seed and returns the list
of its calls.  A call names the fovea function it makes by module and
attribute, and the worker looks the function up only when the timed phase
starts, so a traced run goes through the tracer's wrappers.  Each call has
a summary taken from its result outside the timed region, and a check that
runs after the timed phase:

- a suite call is compared with the exit code and the report digest
  recorded in digests.json at the commit that defined the benchmark;
- a library call is compared with the naive oracles in oracle.py, which
  share no code with fovea.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import gen
import oracle

OK, KNOWN_FAIL, FAIL = "ok", "known-fail", "fail"

COVER_SUITES = ("cover-axioms", "pushdown", "phi-identities", "kg0")
COVER_FIXTURES = ("line-k2.vq", "nakayama2.vq", "trivial-a2.vq")
ALGEBRA_FIXTURES = ("a2.bq", "a3.bq", "kronecker.bq", "loop2.bq", "point.bq")

# The one-vertex trivial cover of k[a]/(a^3).  kg0 reports a false FAIL on
# it at the commit that defined the benchmark; the call stays in the
# workload and counts as failed until the program is fixed.
LOOP_COVER = ("loop-a3.vq",
              "field gf 32749\nnilbound 3\nvertex v\narrow a: v -> v deg 0\nrelation a*a*a\n")

# Generated algebras for algebra-suites: (shape, vertices, algebra dimension).
# Pinning the dimension keeps the cost of a round close across seeds; the
# seed picks one of VARIANTS catalogued quivers in every stratum.
ALGEBRA_STRATA = (("line", 3, 5), ("line", 4, 8), ("line", 5, 10), ("star", 4, 8),
                  ("star", 5, 11), ("tree", 4, 8), ("tree", 5, 10), ("tree", 5, 11))
VARIANTS = 8


@dataclass
class Call:
    label: str
    module: str                      # e.g. "fovea.modules"
    function: str                    # e.g. "hom_space"
    args: tuple
    summarize: Callable[[Any], Any]  # result -> compact answer, untimed
    check: Callable[[Any], str]      # answer -> OK / KNOWN_FAIL / FAIL


def cli_main(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI run with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = sys.modules["fovea.cli"].main(argv)
    return rc, buf.getvalue()


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def algebra_dim(q: gen.Quiver) -> int:
    """Dimension of a monomial path algebra: the paths containing no relation."""
    total = len(q.vertices)
    for length in range(1, q.nilbound):
        total += sum(1 for p in gen.paths(q.plain_arrows, length)
                     if not any(gen.contains(p, r) for r in q.relations))
    return total


def catalogued_algebra(shape: str, n: int, dim: int, variant: int) -> gen.Quiver:
    rng = random.Random(f"algebra/{shape}/{n}/{dim}/{variant}")
    while True:
        q = gen.acyclic_quiver(rng, shape, n)
        if algebra_dim(q) == dim:
            return q


# ---------------------------------------------------------------------------
# suite workloads


class SuiteCalls:
    """Suite calls checked against the recorded digests."""

    def __init__(self, digests: dict, fixture_dir: Path, work: Path):
        self.digests = digests
        self.fixture_dir = fixture_dir
        self.work = work

    def call(self, suite: str, name: str, text: str | None = None) -> Call:
        """A suite call on a packaged fixture, or on generated text that is
        written into the work directory first.  The CLI gets the bare name,
        so the input path in the report is the same on every run."""
        key = f"{suite} {name}"
        raw = text.encode() if text is not None else (self.fixture_dir / name).read_bytes()
        record = self.digests.get(key)
        if record is not None and record["input_sha256"] != _sha(raw):
            raise RuntimeError(f"input of {key} differs from the recorded one")
        if text is not None:
            (self.work / name).write_text(text)

        def check(answer) -> str:
            rc, report_sha = answer
            if record is None:
                return FAIL
            if rc == 0:
                # a call that failed when the digests were recorded has no
                # passing digest; once it passes it counts as passed
                ok = record["exit"] != 0 or report_sha == record["report_sha256"]
                return OK if ok else FAIL
            return KNOWN_FAIL if rc == record["exit"] else FAIL

        return Call(key, "workloads", "cli_main", (["suite", suite, name],),
                    lambda res: (res[0], _sha(res[1])), check)


def cover_suites(seed: int, suites: SuiteCalls) -> list[Call]:
    """Every cover suite on the graded fixtures, then kg0 on LOOP_COVER.
    The inputs are fixed, so the seed does not change them."""
    calls = [suites.call(s, f) for s in COVER_SUITES for f in COVER_FIXTURES]
    calls.append(suites.call("kg0", LOOP_COVER[0], LOOP_COVER[1]))
    return calls


def _algebra_input(shape: str, n: int, dim: int, variant: int) -> tuple[str, str]:
    return (f"gen-{shape}{n}-d{dim}-v{variant}.bq",
            catalogued_algebra(shape, n, dim, variant).text())


def algebra_inputs(seed: int) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    return [_algebra_input(*stratum, rng.randrange(VARIANTS)) for stratum in ALGEBRA_STRATA]


def recorded_calls() -> list[tuple[str, str, str | None]]:
    """(suite, input name, generated text or None for a fixture) for every
    suite call any seed can make; record_digests.py records each one."""
    out = [(s, f, None) for s in COVER_SUITES for f in COVER_FIXTURES]
    out.append(("kg0", *LOOP_COVER))
    for suite in ("kg0", "repetitive"):
        out += [(suite, f, None) for f in ALGEBRA_FIXTURES]
        out += [(suite, *_algebra_input(*stratum, v))
                for stratum in ALGEBRA_STRATA for v in range(VARIANTS)]
    return out


def algebra_suites(seed: int, suites: SuiteCalls) -> list[Call]:
    """kg0 and repetitive on the ungraded fixtures and on one catalogued
    generated algebra per stratum, picked by the seed."""
    calls = []
    for suite in ("kg0", "repetitive"):
        calls += [suites.call(suite, f) for f in ALGEBRA_FIXTURES]
        calls += [suites.call(suite, name, text) for name, text in algebra_inputs(seed)]
    return calls


# ---------------------------------------------------------------------------
# library session

# hom_space calls are half of the session, so its median latency falls well
# inside their distribution rather than on the edge between two call kinds
HOM_CALLS, EVAL_CALLS, DECOMPOSE_CALLS = 5000, 1000, 300
LIFT_CALLS, PUSH_CALLS, LAYERED_HOM_CALLS = 2500, 700, 700
SHAPES = ("line", "star", "tree")


def _verdict(ok: bool) -> str:
    return OK if ok else FAIL


def _sizes(tag) -> random.Random:
    """Sizes (vertex counts, dimension vectors, summand counts) come from a
    schedule that is the same for every seed; the seed draws everything
    else.  Every seed then asks for the same amount of work, so the
    latency percentiles move with the program and not with the seed."""
    return random.Random(f"library-session/{tag}")


def library_session(seed: int, suites: SuiteCalls) -> list[Call]:
    """At least 10k small calls to the public API, in a seeded random order."""
    fovea = sys.modules["fovea"]
    rng = random.Random(seed)
    calls: list[Call] = []

    # representations of generated acyclic quivers
    algebras = []
    for k in range(48):
        q = gen.acyclic_quiver(rng, SHAPES[k % 3], 3 + k // 3 % 3)
        bq = fovea.parse_quiver(q.text())
        sizes = _sizes(f"algebra/{k}")
        reps = [gen.random_rep(rng, q.vertices, q.plain_arrows, q.relations,
                               gen.random_dims(sizes, q.vertices)) for _ in range(8)]
        mods = [fovea.parse_module(bq, r.text(q.vertices, q.plain_arrows)) for r in reps]
        algebras.append((q, bq, reps, mods))

    def hom_check(q, rm, rn):
        return lambda d: _verdict(d == oracle.hom_dim(q.plain_arrows, rm.dims, rm.mats,
                                                      rn.dims, rn.mats))

    for _ in range(HOM_CALLS):
        q, _bq, reps, mods = rng.choice(algebras)
        i, j = rng.randrange(len(mods)), rng.randrange(len(mods))
        calls.append(Call("hom_space", "fovea.modules", "hom_space", (mods[i], mods[j]),
                          lambda h: h.dim, hom_check(q, reps[i], reps[j])))

    functors = []
    for q, bq, reps, mods in algebras:
        for i in rng.sample(range(len(mods)), 3):
            functors.append((q, fovea.hom_functor(bq, mods[i]), reps[i], reps, mods))
    for _ in range(EVAL_CALLS):
        q, t, rx, reps, mods = rng.choice(functors)
        j = rng.randrange(len(mods))
        # Hom(-, X) evaluated at Y is Hom(Y, X)
        calls.append(Call("evaluate", "fovea.functors", "evaluate", (t, mods[j]),
                          lambda e: e.dim, hom_check(q, reps[j], rx)))

    for k in range(DECOMPOSE_CALLS):
        q, bq, _reps, _mods = algebras[k % len(algebras)]
        sizes = _sizes(f"decompose/{k}")
        parts = []
        for size in [sizes.randint(1, len(q.vertices)) for _ in range(2 + k % 2)]:
            part = gen.thin_rep(rng, q, size)
            while part is None:     # the support held a relation: shrink it
                size = max(1, size - 1)
                part = gen.thin_rep(rng, q, size)
            parts.append(part)
        total = gen.direct_sum(parts, q.plain_arrows, rng)
        m = fovea.parse_module(bq, total.text(q.vertices, q.plain_arrows))
        expected = sorted(tuple(p.dims[v] for v in q.vertices) for p in parts)
        calls.append(Call("decompose", "fovea.modules", "decompose", (m,),
                          lambda d, vs=q.vertices: sorted(
                              tuple(p.module.dims[v] for v in vs) for p in d.pieces),
                          lambda got, e=expected: _verdict(got == e)))

    # windows of graded lifts: more distinct (quiver, window) keys than the
    # 512 entries of fovea's lift cache
    lifts = []
    for k in range(16):
        g = gen.graded_quiver(rng, 1 + k % 3)
        lifts.append((g, fovea.parse_quiver(g.text())))
    for _ in range(LIFT_CALLS):
        g, vq = rng.choice(lifts)
        lo = rng.randint(-30, 30)
        hi = lo + rng.randint(0, 4)

        def lift_check(got, g=g, lo=lo, hi=hi):
            vertices, arrows, rels = oracle.lift(g.vertices, g.arrows, g.relations, lo, hi)
            return _verdict(got == (sorted(vertices), sorted(arrows), sorted((p,) for p in rels)))

        calls.append(Call("lift_window", "fovea.quiver", "lift_window", (vq, fovea.Window(lo, hi)),
                          lambda b: (sorted(b.vertices), sorted(tuple(a) for a in b.arrows),
                                     sorted(tuple(p for _c, p in r) for r in b.relations)),
                          lift_check))

    # modules over windows, pushed down and compared across windows
    layered = []
    for k in range(16):
        g = gen.graded_quiver(rng, 1 + k % 3)
        vq = fovea.parse_quiver(g.text())
        sizes = _sizes(f"layered/{k}")
        mods = []
        for _w in range(3):
            lo = rng.randint(-3, 3)
            hi = lo + sizes.randint(0, 2)
            w = fovea.Window(lo, hi)
            vertices, arrows, rels = oracle.lift(g.vertices, g.arrows, g.relations, lo, hi)
            wbq = fovea.lift_window(vq, w)
            for _m in range(4):
                r = gen.random_rep(rng, vertices, arrows, rels, gen.random_dims(sizes, vertices, 2))
                lm = fovea.covering.LayeredModule(vq, w, fovea.parse_module(wbq, r.text(vertices, arrows)))
                mods.append((lo, hi, r, lm))
        layered.append((g, mods))

    for _ in range(PUSH_CALLS):
        g, mods = rng.choice(layered)
        _lo, _hi, r, lm = rng.choice(mods)
        expected = {v: sum(d for name, d in r.dims.items() if name.split("@")[0] == v)
                    for v in g.vertices}
        calls.append(Call("push_down", "fovea.covering", "push_down", (lm,),
                          lambda m: dict(m.dims), lambda got, e=expected: _verdict(got == e)))

    def layered_check(g, x, y):
        lo, hi = min(x[0], y[0]), max(x[1], y[1])
        _v, arrows, _r = oracle.lift(g.vertices, g.arrows, g.relations, lo, hi)
        return lambda d: _verdict(d == oracle.hom_dim(arrows, x[2].dims, x[2].mats,
                                                      y[2].dims, y[2].mats))

    for _ in range(LAYERED_HOM_CALLS):
        g, mods = rng.choice(layered)
        x, y = rng.choice(mods), rng.choice(mods)
        calls.append(Call("layered_hom", "fovea.covering", "layered_hom", (x[3], y[3]),
                          len, layered_check(g, x, y)))

    rng.shuffle(calls)
    return calls


WORKLOADS = {
    "cover-suites": cover_suites,
    "algebra-suites": algebra_suites,
    "library-session": library_session,
}
