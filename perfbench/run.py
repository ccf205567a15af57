"""The fovea benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round of a workload runs in a
fresh single-threaded worker process (worker.py) with one closed-loop
caller.  With --trace 0 the command runs rounds until the next one would
end after S seconds (at least one), tops the set-up samples up with
set-up-only processes, and prints every end-to-end metric.  With --trace 1
it runs one untraced and one traced round and prints the per-layer
metrics from the trace.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170       # every worker is stopped by then; the command must end within 180 s
SETUP_SAMPLES = 9

PER_LAYER = [
    "linalg.self_s", "linalg.rref.calls", "linalg.rref.self_s",
    "linalg.kernel_basis.calls", "linalg.solve.calls",
    "quiver.self_s", "quiver.path_basis.calls", "quiver.path_basis.self_s",
    "quiver.radical_filtration.self_s", "quiver.check_admissible.calls",
    "quiver.lift_window.calls", "quiver.lift_window.distinct_ratio",
    "modules.self_s", "modules.hom_space.calls", "modules.hom_space.self_s",
    "modules.radical_hom.calls", "modules.decompose.calls", "modules.decompose.split_ratio",
    "modules.is_isomorphic_indec.calls", "modules.is_isomorphic_indec.equal_ratio",
    "modules.enumerate_indecomposables.calls", "modules.enumerate_indecomposables.inc_s",
    "modules.right_almost_split.calls",
    "covering.self_s", "covering.push_down.calls", "covering.lift_morphism.calls",
    "covering.verify_pushdown.inc_s",
    "functors.self_s", "functors.simple_functor_cover.calls",
    "functors.simple_functor_cover.distinct_ratio", "functors.simple_functor_cover.inc_s",
    "functors.window_indecomposables.calls", "functors.evaluate.calls", "functors.fp_hom.calls",
    "repetitive.self_s", "repetitive.repetitive_truncation.calls",
    "repetitive.repetitive_voltage.calls",
    "cli.self_s", "cli.load_quiver.calls",
]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    return "ratio"


class BenchError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, deadline: float | None = None) -> dict:
    """Run worker.py once and return its result; the worker is killed at
    the monotonic deadline (RUN_LIMIT_S from now when none is given)."""
    timeout = RUN_LIMIT_S if deadline is None else max(1.0, deadline - time.monotonic())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"      # identical call sequences, so counts repeat exactly
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile(dir=work, prefix="round-", suffix=".json") as out:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--mode", mode, "--out", out.name],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=timeout)
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        return json.loads(Path(out.name).read_text())


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for aa in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the
    order statistics.  A suite round has only 13 or 26 calls; the plain
    order statistic jumps whenever two neighbouring calls swap places, the
    weighted mean does not."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    sd = math.sqrt(q * (1 - q) / (n + 2))       # weights outside +-10 sd are negligible
    lo, hi = max(0, int((q - 10 * sd) * n)), min(n, int((q + 10 * sd) * n) + 1)
    total, prev = 0.0, _beta_cdf(a, b, lo / n)
    for i in range(lo, hi):
        cur = _beta_cdf(a, b, (i + 1) / n)
        total += (cur - prev) * xs[i]
        prev = cur
    return total


def ref_time(r: dict) -> float:
    """Median time of the reference loop runs interleaved with the calls."""
    return statistics.median(r["ref_s"])


def round_correct(r: dict) -> bool:
    for u in r["unexpected"]:
        print(f"unexpected failure: {u['call']}" + (f" ({u['error']})" if u["error"] else ""))
    return not r["unexpected"]


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rounds = [run_worker(workload, seed, "round", deadline)]
    last = time.monotonic() - start
    while time.monotonic() - start + last <= seconds:
        t = time.monotonic()
        rounds.append(run_worker(workload, seed, "round", deadline))
        last = time.monotonic() - t
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, "setup", deadline)["setup_s"])
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = all([round_correct(r) for r in rounds])

    def per_round(key, q):
        """Median over rounds of one percentile of each round's call times."""
        return statistics.median(percentile(r[key], q) for r in rounds)

    print(f"{workload}: {len(rounds)} rounds of {len(rounds[0]['scaled'])} calls, "
          f"{len(setups)} set-ups, {failed} of {attempted} calls failed")
    print(f"  as measured: wall_s {statistics.median(r['wall_s'] for r in rounds):.4f}  "
          f"cpu_s {statistics.median(r['cpu_s'] for r in rounds):.4f}  "
          f"call_p50_ms {per_round('lat_ms', 0.50):.4f}  "
          f"call_p99_ms {per_round('lat_ms', 0.99):.4f}  "
          f"reference loop {statistics.median(ref_time(r) for r in rounds) * 1e3:.4f} ms")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_ref": (statistics.median(sum(r["scaled"]) for r in rounds), "ref"),
        "call_p50_ref": (per_round("scaled", 0.50), "ref"),
        "call_p99_ref": (per_round("scaled", 0.99), "ref"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer(workload: str, seed: int) -> dict:
    import tracer
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = run_worker(workload, seed, "round", deadline)
    traced = run_worker(workload, seed, "traced", deadline)
    correct = round_correct(plain) and round_correct(traced)
    if traced["suite_reports"] != plain["suite_reports"]:
        print("traced suite reports differ from untraced ones")
        correct = False
    values = tracer.layer_metrics(traced["counters"], PER_LAYER)
    metrics = {name: (values[name], unit_of(name)) for name in PER_LAYER}
    overhead = sum(traced["scaled"]) / sum(plain["scaled"])
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    calls = sum(c["calls"] for c in traced["counters"].values())
    print(f"{workload}: traced {calls} wrapped calls; spans in "
          f".bench_work/trace-{workload}-{seed}.*")
    return {"correct": correct, "attempted": traced["attempted"], "failed": traced["failed"],
            "metrics": metrics}


def main() -> int:
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "fovea" / "__init__.py").is_file():
        print(f"fovea: no source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            out = per_layer(args.workload, args.seed)
        else:
            out = end_to_end(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    for name, (value, unit) in out["metrics"].items():
        print(f"{name:48s} {value:.6g} {unit}")
    out["metrics"] = {name: {"value": value, "unit": unit}
                      for name, (value, unit) in out["metrics"].items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
