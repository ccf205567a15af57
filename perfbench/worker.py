"""One round of one workload in a fresh process; the result goes to --out.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --out FILE

MODE is "round" (set up, run every call once, check), "traced" (the same
with the tracer installed after set-up) or "setup" (set up and stop).
The process is single-threaded with one closed-loop caller: each call is
made only after the previous one returned.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"


SAMPLE_EVERY_S = 0.1
SAMPLE_WINDOW_NS = 500_000_000


def reference_loop() -> int:
    """A fixed pure-Python load of a few milliseconds: row-reduce a fixed
    14 x 14 matrix mod p.  Its time tracks the speed the machine gives this
    process."""
    p = 32749
    acc = 0
    for rep in range(24):
        rows = [[(i * 7919 + j * 104729 + rep) % p for j in range(14)] for i in range(14)]
        for c in range(14):
            piv = next((i for i in range(c, 14) if rows[i][c]), None)
            if piv is None:
                continue
            rows[c], rows[piv] = rows[piv], rows[c]
            inv = pow(rows[c][c], p - 2, p)
            rows[c] = [x * inv % p for x in rows[c]]
            for i in range(14):
                if i != c and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[c])]
        acc += sum(map(sum, rows))
    return acc


class Sampler:
    """Times the reference loop every SAMPLE_EVERY_S seconds of wall time.

    Machine speed here flips between states tens of percent apart within
    fractions of a second, so the loop runs from a timer signal, inside
    long calls as well as between calls.  The handler's own time is taken
    out of the call it interrupted.
    """

    def __init__(self, clock):
        self.clock = clock
        self.starts: list[int] = []
        self.ends: list[int] = []

    def sample(self, *_signal_args) -> None:
        self.starts.append(self.clock())
        reference_loop()
        self.ends.append(self.clock())

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, spans: list[tuple[int, int]]) -> tuple[list[int], list[float]]:
        """Per call: its time without sampling, and that time in units of
        the mean reference loop time within SAMPLE_WINDOW_NS of the call."""
        durs = [e - s for s, e in zip(self.starts, self.ends)]
        mids = [(s + e) // 2 for s, e in zip(self.starts, self.ends)]
        acc = list(itertools.accumulate(durs, initial=0))
        net, scaled = [], []
        for t0, t1 in spans:
            inside = acc[bisect.bisect_left(self.starts, t1)] - acc[bisect.bisect_left(self.starts, t0)]
            lo = bisect.bisect_left(mids, t0 - SAMPLE_WINDOW_NS)
            hi = bisect.bisect_right(mids, t1 + SAMPLE_WINDOW_NS)
            net.append(t1 - t0 - inside)
            scaled.append(net[-1] / ((acc[hi] - acc[lo]) / (hi - lo)))
        return net, scaled


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("round", "traced", "setup"), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import fovea
    import fovea.cli  # noqa: F401  (loads the cli layer: suites, reports, naming)
    src = ROOT / "src"
    if not Path(fovea.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"fovea was imported from {fovea.__file__}, not from {src}")

    import workloads
    WORK.mkdir(exist_ok=True)
    os.chdir(WORK)
    digests = json.loads((HERE / "digests.json").read_text())
    suites = workloads.SuiteCalls(digests, src / "fovea" / "fixtures", WORK)
    calls = workloads.WORKLOADS[args.workload](args.seed, suites)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        Path(args.out).write_text(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "traced":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    fns = [getattr(sys.modules[c.module], c.function) for c in calls]
    answers, errors, spans = [], {}, []
    cpu_ns = 0
    clock, cpu = time.perf_counter_ns, time.process_time_ns
    with Sampler(clock) as sampler:
        for k, (call, fn) in enumerate(zip(calls, fns)):
            c0 = cpu()
            t0 = clock()
            try:
                res = fn(*call.args)
            except Exception as e:  # a raising call is a failed call, not a crash
                t1 = clock()
                errors[k] = f"{type(e).__name__}: {e}"
                res = None
            else:
                t1 = clock()
            cpu_ns += cpu() - c0
            spans.append((t0, t1))
            answers.append(None if k in errors else call.summarize(res))
    net, scaled = sampler.scale(spans)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    statuses = [workloads.FAIL if k in errors else call.check(a)
                for k, (call, a) in enumerate(zip(calls, answers))]
    unexpected = [{"call": c.label, "error": errors.get(k)}
                  for k, (c, s) in enumerate(zip(calls, statuses)) if s == workloads.FAIL]
    result.update({
        "wall_s": sum(net) / 1e9,
        "cpu_s": (cpu_ns - sum(t1 - t0 for t0, t1 in spans) + sum(net)) / 1e9,
        "ref_s": [(e - s) / 1e9 for s, e in zip(sampler.starts, sampler.ends)],
        "scaled": scaled,
        "lat_ms": [t / 1e6 for t in net],
        "peak_rss_mb": peak_kb / 1024,
        "attempted": len(statuses),
        "failed": sum(s != workloads.OK for s in statuses),
        "unexpected": unexpected,
        "suite_reports": {c.label: a[1] for c, a in zip(calls, answers)
                          if c.function == "cli_main" and a is not None},
    })
    if tracer is not None:
        result["counters"] = tracer.counters()
        tracer.dump(str(WORK / f"trace-{args.workload}-{args.seed}"))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
