"""Outside-in tracer for fovea's layers.

The program carries no instrumentation, so the tracer wraps it from
outside: every public module-level function of a layer's modules gets a
wrapper that records a span (function, parent span, start, end), and
every binding of the original function in every fovea.* namespace is
replaced by the wrapper.  Calls inside a module go through its globals, so
calls within a layer are counted as well as calls across layers.

Spans stay in memory as flat arrays while the workload runs and are
written out by dump() at the end.  A span's self time is its duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = {
    "linalg": ("fovea.linalg",),
    "quiver": ("fovea.quiver",),
    "modules": ("fovea.modules",),
    "covering": ("fovea.covering",),
    "functors": ("fovea.functors",),
    "repetitive": ("fovea.repetitive",),
    "cli": ("fovea.cli", "fovea.suites", "fovea.reports", "fovea.naming"),
}


def _bound(sig: inspect.Signature, args, kwargs) -> dict:
    b = sig.bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


class Tracer:
    """Per-function counters plus the raw spans of one traced process."""

    def __init__(self):
        self.names: list[str] = []          # function id -> "layer.function"
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.inc_ns: list[int] = []         # outermost activations only
        self.depth: list[int] = []
        self.useful: list[int] = []         # numerator of the *_ratio metrics
        self.distinct: dict[int, set] = {}
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []   # [span index, child ns]

    def _register(self, qualified: str) -> int:
        self.names.append(qualified)
        for col in (self.calls, self.self_ns, self.inc_ns, self.depth, self.useful):
            col.append(0)
        return len(self.names) - 1

    def _wrap(self, fid: int, fn, observe):
        clock = time.perf_counter_ns
        stack = self._stack
        span_fn, span_parent = self.span_fn, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, self_ns, inc_ns, depth = self.calls, self.self_ns, self.inc_ns, self.depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_fn.append(fid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0)
            frame = [idx, 0]
            stack.append(frame)
            depth[fid] += 1
            t0 = clock()
            span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                span_end[idx] = t1
                calls[fid] += 1
                self_ns[fid] += dur - frame[1]
                depth[fid] -= 1
                if not depth[fid]:
                    inc_ns[fid] += dur
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observer(self, qualified: str, fid: int, fn):
        """Outcome bookkeeping for the ratio metrics, from arguments and
        return values seen at the wrapper."""
        sig = inspect.signature(fn)
        useful = self.useful
        if qualified in ("quiver.lift_window", "functors.simple_functor_cover"):
            seen = self.distinct.setdefault(fid, set())
            first, second = list(sig.parameters)[:2]

            def observe(args, kwargs, result):
                a = _bound(sig, args, kwargs)
                seen.add((a[first], a[second]))
            return observe
        if qualified == "modules.decompose":
            def observe(args, kwargs, result):
                useful[fid] += len(result.pieces) > 1
            return observe
        if qualified == "modules.is_isomorphic_indec":
            def observe(args, kwargs, result):
                a = _bound(sig, args, kwargs)
                useful[fid] += a["m"] == a["n"]
            return observe
        return None

    def install(self) -> int:
        """Wrap every public function of every layer; returns how many
        bindings were replaced."""
        wrappers = {}
        for layer, modnames in LAYERS.items():
            for modname in modnames:
                mod = sys.modules[modname]
                for name, obj in list(vars(mod).items()):
                    if (inspect.isfunction(obj) and obj.__module__ == modname
                            and not name.startswith("_")):
                        qualified = f"{layer}.{name}"
                        fid = self._register(qualified)
                        wrappers[obj] = self._wrap(fid, obj, self._observer(qualified, fid, obj))
        replaced = 0
        for modname, mod in list(sys.modules.items()):
            if modname != "fovea" and not modname.startswith("fovea."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    replaced += 1
        return replaced

    def counters(self) -> dict:
        """Counters per function, keyed "layer.function"."""
        out = {}
        for fid, q in enumerate(self.names):
            entry = {"calls": self.calls[fid], "self_ns": self.self_ns[fid],
                     "inc_ns": self.inc_ns[fid], "useful": self.useful[fid]}
            if fid in self.distinct:
                entry["distinct"] = len(self.distinct[fid])
            out[q] = entry
        return out

    def dump(self, stem: str) -> None:
        """Write the spans as four flat binary arrays plus a JSON index."""
        for col in ("span_fn", "span_parent", "span_start", "span_end"):
            with open(f"{stem}.{col}", "wb") as fh:
                getattr(self, col).tofile(fh)
        with open(f"{stem}.json", "w") as fh:
            json.dump({"functions": self.names, "spans": len(self.span_start),
                       "arrays": {"span_fn": "i", "span_parent": "i",
                                  "span_start": "q", "span_end": "q"}}, fh)


def layer_metrics(counters: dict, wanted: list[str]) -> dict[str, float]:
    """Evaluate per-layer metric names against the counters.

    Forms: <layer>.self_s, <layer>.<fn>.calls, .self_s, .inc_s, and the
    ratios .distinct_ratio, .split_ratio and .equal_ratio (0 when the
    function was never called).
    """
    out = {}
    for name in wanted:
        parts = name.split(".")
        if len(parts) == 2 and parts[1] == "self_s":
            out[name] = sum(c["self_ns"] for q, c in counters.items()
                            if q.split(".")[0] == parts[0]) / 1e9
            continue
        c = counters[f"{parts[0]}.{parts[1]}"]
        kind = parts[2]
        if kind == "calls":
            out[name] = c["calls"]
        elif kind == "self_s":
            out[name] = c["self_ns"] / 1e9
        elif kind == "inc_s":
            out[name] = c["inc_ns"] / 1e9
        elif kind == "distinct_ratio":
            out[name] = c["distinct"] / c["calls"] if c["calls"] else 0.0
        else:
            out[name] = c["useful"] / c["calls"] if c["calls"] else 0.0
    return out
