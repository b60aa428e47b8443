"""Spans around pulsepair's public functions, recorded from outside the package.

`Tracer.install` replaces every public function of every pulsepair module
with a wrapper, at every place the function's name is bound: `analysis`,
`cli`, `presets` and `synth` import stage functions by name, so wrapping only
the defining module would miss those calls. Each call records a span
`[name, start, end, parent]` in memory; counts are taken from the call's
arguments and result at the same boundary. `uninstall` puts the original
functions back, so untraced passes run the program exactly as shipped.
"""

from __future__ import annotations

import functools
import gc
import os
import sys
import time
import tracemalloc
import types
from collections import Counter


def _count_load_stream(c, args, kwargs, result):
    c["capture.edges_read"] += len(result)
    c["capture.bytes_read"] += os.path.getsize(args[0])


def _count_load_log(c, args, kwargs, result):
    c["capture.rows_read"] += len(result.rows)
    c["capture.bytes_read"] += os.path.getsize(args[0])


def _count_load_meta(c, args, kwargs, result):
    c["capture.bytes_read"] += os.path.getsize(args[0])


def _count_dump(c, args, kwargs, result):
    c["capture.bytes_written"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _count_pairs(c, args, kwargs, result):
    c["pulses.pairs"] += len(result.pairs)
    c["pulses.pairs_expected"] += args[0].iterations_expected


COUNTERS = {
    "capture.load_transition_stream": _count_load_stream,
    "capture.load_software_log": _count_load_log,
    "capture.load_run_metadata": _count_load_meta,
    "capture.dump_transition_stream": _count_dump,
    "capture.dump_software_log": _count_dump,
    "capture.dump_run_metadata": _count_dump,
    "pulses.extract_pulses": lambda c, a, k, r: c.update({"pulses.pulses": len(r.pulses)}),
    "pulses.pair_intervals": _count_pairs,
    "validity.finalize_report": lambda c, a, k, r: c.update({"validity.runs_classified": 1}),
    "stats.run_summary": lambda c, a, k, r: c.update({"stats.samples_summarized": len(a[0])}),
    "synth.gen_run": lambda c, a, k, r: c.update({"synth.edges_generated": len(r.stream)}),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.memory: Counter = Counter()  # bytes the results retain, while tracemalloc runs
        self.last_memory_span = ""  # tracemalloc stops when this span ends
        self._stack: list[int] = []
        self._bindings: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, counts, memory = self.spans, self._stack, self.counts, self.memory
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            mem0 = tracemalloc.get_traced_memory()[0] if tracemalloc.is_tracing() else None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if mem0 is not None:
                memory[name] += tracemalloc.get_traced_memory()[0] - mem0
                if name == self.last_memory_span:
                    tracemalloc.stop()
            if count is not None:
                try:
                    count(counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError):
                    counts["trace.counter_errors"] += 1
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "pulsepair" or n.startswith("pulsepair.")]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not (isinstance(obj, types.FunctionType)
                        and obj.__module__.startswith("pulsepair.")
                        and not obj.__name__.startswith("_")):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._bindings.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in self._bindings:
            setattr(module, attr, obj)
        self._bindings.clear()


def span_totals(spans: list[list], lo: int, hi: int) -> tuple[Counter, Counter]:
    """Total time per function and self time per layer for spans[lo:hi].

    A span's self time is its duration minus the durations of its direct
    children; children never overlap each other on one thread.
    """
    child = Counter()
    for name, start, end, parent in spans[lo:hi]:
        if parent >= lo:
            child[parent] += end - start
    by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    for i in range(lo, hi):
        name, start, end, _ = spans[i]
        by_name[name] += end - start
        self_by_layer[name.split(".", 1)[0]] += end - start - child[i]
    return by_name, self_by_layer


class GcClock:
    """Time and count the collector's pauses through gc.callbacks."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)
