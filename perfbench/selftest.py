"""The benchmark's own tests.

    python3 perfbench/selftest.py

- every *.calls counter repeats exactly across two traced rounds with the
  same seed;
- the same seed gives the same generated inputs and a different seed
  changes them;
- the naive oracles agree with fovea on the packaged fixtures.

The file is not named test_*.py, so the repository's pytest run does not
collect it: the traced rounds take about a minute.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import fovea  # noqa: E402
import fovea.cli  # noqa: E402,F401
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FIXTURES = HERE.parent / "src" / "fovea" / "fixtures"


def plain(m) -> tuple[dict, dict]:
    """A fovea module as the oracle's plain data."""
    return dict(m.dims), {a: [list(r) for r in mat.entries] for a, mat in m.mats.items()}


def standard_modules(bq) -> list:
    out = []
    for v in bq.vertices:
        out += [fovea.simple(bq, v), fovea.projective(bq, v), fovea.injective(bq, v)]
    return out


class TraceCounts(unittest.TestCase):
    def test_call_counts_repeat_exactly(self):
        for workload in ("library-session", "algebra-suites"):
            first = run.run_worker(workload, 7, "traced")["counters"]
            second = run.run_worker(workload, 7, "traced")["counters"]
            self.assertEqual({q: c["calls"] for q, c in first.items()},
                             {q: c["calls"] for q, c in second.items()}, workload)
            self.assertGreater(sum(c["calls"] for c in first.values()), 10_000, workload)


class Inputs(unittest.TestCase):
    def library_inputs(self, seed: int) -> list[str]:
        return [c.label + "|" + "|".join(fovea.format_module(a) if isinstance(a, fovea.Module)
                                         else repr(a) for a in c.args)
                for c in workloads.library_session(seed, None)]

    def test_seed_determines_the_inputs(self):
        self.assertEqual(workloads.algebra_inputs(3), workloads.algebra_inputs(3))
        self.assertNotEqual(workloads.algebra_inputs(3), workloads.algebra_inputs(4))
        self.assertEqual(self.library_inputs(3), self.library_inputs(3))
        self.assertNotEqual(self.library_inputs(3), self.library_inputs(4))

    def test_every_catalogued_input_has_a_digest(self):
        digests = json.loads((HERE / "digests.json").read_text())
        for suite, name, _text in workloads.recorded_calls():
            self.assertIn(f"{suite} {name}", digests)


class Oracle(unittest.TestCase):
    def test_hom_dimensions_on_the_ungraded_fixtures(self):
        for path in sorted(FIXTURES.glob("*.bq")):
            bq = fovea.parse_quiver(path.read_text())
            arrows = [(a.name, a.source, a.target) for a in bq.arrows]
            mods = standard_modules(bq)
            for m in mods:
                for n in mods:
                    with self.subTest(fixture=path.name, m=m, n=n):
                        self.assertEqual(fovea.hom_space(m, n).dim,
                                         oracle.hom_dim(arrows, *plain(m), *plain(n)))

    def test_windows_of_the_graded_fixtures(self):
        for path in sorted(FIXTURES.glob("*.vq")):
            vq = fovea.parse_quiver(path.read_text())
            base = vq.base
            graded = [(a.name, a.source, a.target, vq.degree[a.name]) for a in base.arrows]
            rels = [r[0][1] for r in base.relations]
            for lo, hi in ((0, 0), (-1, 1), (-2, 3)):
                bq = fovea.lift_window(vq, fovea.Window(lo, hi))
                vertices, arrows, lifted = oracle.lift(base.vertices, graded, rels, lo, hi)
                with self.subTest(fixture=path.name, window=(lo, hi)):
                    self.assertEqual(list(bq.vertices), vertices)
                    self.assertEqual([tuple(a) for a in bq.arrows], arrows)
                    self.assertEqual(sorted(r[0][1] for r in bq.relations), sorted(lifted))
                mods = standard_modules(bq)
                for m in mods:
                    for n in mods:
                        with self.subTest(fixture=path.name, window=(lo, hi), m=m, n=n):
                            self.assertEqual(fovea.hom_space(m, n).dim,
                                             oracle.hom_dim(arrows, *plain(m), *plain(n)))


if __name__ == "__main__":
    unittest.main()
