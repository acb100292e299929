"""Spans around the calls between tofu's layers, from outside the program.

The benchmark rebinds public names that tofu's modules call (for example
`tofu.vit.apply_reduce`, which `vit.block_forward` looks up at call time)
to timing wrappers, runs traced passes, and restores the originals. Spans
are kept in memory and written when the run ends. The same rebinding lets
the untimed checks record a call's arguments and result.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

# (module, attribute, span name). A function imported by name into several
# modules is rebound in each of them under one span name.
SPAN_POINTS = [
    ("tofu.tensor", "layernorm", "tensor.layernorm"),
    ("tofu.vit", "layernorm", "tensor.layernorm"),
    ("tofu.highway", "layernorm", "tensor.layernorm"),
    ("tofu.tensor", "softmax_rows", "tensor.softmax"),
    ("tofu.tensor", "gelu", "tensor.gelu"),
    ("tofu.cli", "read_ttf", "tensor.ttf_read"),
    ("tofu.cli", "write_ttf", "tensor.ttf_write"),
    ("tofu.vit", "attention", "vit.attention"),
    ("tofu.highway", "attention", "vit.attention"),
    ("tofu.vit", "mlp_map", "vit.mlp"),
    ("tofu.highway", "mlp_map", "vit.mlp"),
    ("tofu.vit", "load_weights", "vit.load_weights"),
    ("tofu.fusion", "bipartite_soft_match", "matching.match"),
    ("tofu.linearity", "bipartite_soft_match", "matching.match"),
    ("tofu.fusion", "apply_reduce", "fusion.reduce"),
    ("tofu.vit", "apply_reduce", "fusion.reduce"),
    ("tofu.highway", "apply_reduce", "fusion.reduce"),
    ("tofu.fusion", "merge_pruned", "fusion.merge"),
    ("tofu.fusion", "merge_average", "fusion.merge"),
    ("tofu.fusion", "merge_mlerp", "fusion.merge"),
    ("tofu.vit", "unmerge", "fusion.unmerge"),
    ("tofu.highway", "distribute", "highway.distribute"),
    ("tofu.highway", "mbm_mask", "highway.mbm_mask"),
    ("tofu.highway", "update_index", "highway.update_index"),
    ("tofu.linearity", "profile_model", "linearity.profile"),
    ("tofu.linearity", "path_length", "linearity.path_length"),
    ("tofu.linearity", "functional_linearity", "linearity.fl"),
    ("tofu.cli", "cmd_reduce", "cli.reduce"),
    ("tofu.cli", "cmd_fl", "cli.fl"),
    # private, but it is where cmd_reduce encodes the --trace JSON
    ("tofu.cli", "_write_json", "cli.trace_json"),
]

PASS = "pass"


@contextlib.contextmanager
def rebound(replacements):
    """Rebind (module name, attribute, factory) triples; factory(original)
    returns the replacement. Originals come back on exit."""
    saved = []
    try:
        for mod_name, attr, factory in replacements:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, factory(original))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def recording(mod_name: str, attr: str, sink: list):
    """Replacement triple that appends (args, kwargs, result) of every call."""
    def factory(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append((args, kwargs, result))
            return result
        return wrapper
    return (mod_name, attr, factory)


def _reduce_counts(result, counters):
    trace = result[1]
    counters["fusion.tokens_removed"] += len(trace.match.idx_src)
    counters["fusion.mlerp_degenerate"] += int(trace.mlerp_degenerate)


class Tracer:
    """Span recorder. A span is [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _wrap(self, name, fn, on_result=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_result is not None:
                on_result(result, counters)
            return result
        return wrapper

    def timed_pass(self, fn):
        """Run fn() as one root span with every span point rebound."""
        points = [(m, a, lambda f, n=n: self._wrap(
            n, f, _reduce_counts if n == "fusion.reduce" else None))
            for m, a, n in SPAN_POINTS]
        with rebound(points):
            return self._wrap(PASS, fn)()

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds (the span less
        its direct children); plus the vit.mlp calls made inside linearity.fl
        (the profiler's map evaluations) and the reduce counters."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        in_fl = [False] * len(self.spans)
        map_evals = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            seconds = end - start
            calls[name] += 1
            total[name] += seconds
            self_time[name] += seconds
            if parent >= 0:
                parent_name = self.spans[parent][0]
                self_time[parent_name] -= seconds
                in_fl[i] = in_fl[parent] or parent_name == "linearity.fl"
            if name == "vit.mlp" and in_fl[i]:
                map_evals += 1
        return {"calls": calls, "total": total, "self": self_time,
                "map_evals": map_evals, "counters": self.counters}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")
