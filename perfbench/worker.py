"""Run a workload's passes in one fresh process, on one thread, in a closed loop.

Usage: python3 worker.py PLAN_JSON RESULT_JSON

Each pass calls `pulsepair.cli.main` once per operation, in order, starting
the next call only when the previous one has returned; the program's standard
output goes to /dev/null. Every pass writes into the same output tree. After
each pass the worker prints the pass's record as one JSON line and waits for a
line on standard input: the parent checks that pass's outputs meanwhile, so
checking is never timed. Before each pass, anything the program left in the
input tree is removed, so every pass starts from the files exactly as set-up
wrote them, and the garbage collector runs once, untimed, so every pass starts
from the same collector state: otherwise where the collections fall in a pass
depends on the garbage of the passes before it.

The first pass is a warm-up: its outputs are checked, but its times are not
used, because it alone creates the output tree and meets cold caches. In plain
mode the timed passes then run untraced until their summed time reaches the
plan's seconds. In trace mode the worker first repeats the set-up in-process
under the tracer, then alternates untraced passes (with only a gc callback)
and traced passes, and ends with one traced `analyze` under tracemalloc to
measure what the loaded stream and the pulses retain.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from tracer import GcClock, Tracer, span_totals

PASS_TIMES = {
    "capture.load_transition_stream_s": ("capture.load_transition_stream",),
    "capture.load_software_log_s": ("capture.load_software_log",),
    "capture.load_run_metadata_s": ("capture.load_run_metadata",),
    "pulses.extract_pulses_s": ("pulses.extract_pulses",),
    "pulses.classify_pulses_s": ("pulses.classify_pulses",),
    "pulses.pair_intervals_s": ("pulses.pair_intervals",),
    "pulses.validate_marker_separation_s": ("pulses.validate_marker_separation",),
    "validity.detect_decoupling_s": ("validity.detect_decoupling",),
    "validity.finalize_report_s": ("validity.finalize_report",),
    "stats.ecdf_s": ("stats.ecdf",),
    "stats.ecdf_to_csv_s": ("stats.ecdf_to_csv",),
    "stats.run_summary_s": ("stats.run_summary",),
    "stats.condition_summary_s": ("stats.condition_summary",),
    "stats.detectors_s": ("stats.detect_tail_inflation", "stats.detect_regime_shift"),
    "analysis.run_report_to_json_s": ("analysis.run_report_to_json",),
    "analysis.run_report_to_text_s": ("analysis.run_report_to_text",),
}
PASS_COUNTS = ("capture.edges_read", "capture.rows_read", "capture.bytes_read",
               "pulses.pulses", "pulses.pairs", "validity.runs_classified",
               "stats.samples_summarized")
PASS_LAYERS = ("capture", "pulses", "validity", "stats", "analysis", "cli")
SETUP_TIMES = {
    "capture.dump_transition_stream_s": ("capture.dump_transition_stream",),
    "capture.dump_software_log_s": ("capture.dump_software_log",),
    "synth.gen_run_s": ("synth.gen_run",),
    "synth.write_run_dir_s": ("synth.write_run_dir",),
    # The presets layer builds runs from a preset name or from a scenario file.
    "presets.build_preset_s": ("presets.build_preset", "presets.load_scenario"),
}
SETUP_COUNTS = ("capture.bytes_written", "synth.edges_generated")
SETUP_LAYERS = ("synth", "presets")
MB = 2 ** 20
PASS_PREFIX = "pass "


def calibration_loop_s() -> float:
    """A fixed 2M-step pure-Python loop: the machine's own speed at this moment."""
    t = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i
    return time.perf_counter() - t


def listing(root: Path) -> dict[Path, tuple[int, int]]:
    return {p: (st.st_size, st.st_mtime_ns) for p in root.rglob("*") for st in [p.stat()]}


class Passes:
    def __init__(self, plan: dict, cli) -> None:
        self.plan = plan
        self.cli = cli
        self.inputs = Path(plan["inputs"])
        self.listing = listing(self.inputs)
        self.devnull = open(os.devnull, "w")
        self.records: list[dict] = []

    def call(self, argv: list[str]):
        try:
            with contextlib.redirect_stdout(self.devnull):
                return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:  # a crash is this operation's failure; the loop goes on
            traceback.print_exc(file=sys.stderr)
            return "exception"

    def restore_inputs(self) -> None:
        now = listing(self.inputs)
        changed = [p for p, stat in self.listing.items() if now.get(p) != stat]
        if changed:
            raise RuntimeError(f"the program changed its inputs: {changed[:3]}")
        for extra in sorted(set(now) - set(self.listing), reverse=True):
            print(f"removing {extra}, left among the inputs", file=sys.stderr)
            shutil.rmtree(extra) if extra.is_dir() else extra.unlink()

    def run(self, traced: bool = False, warmup: bool = False, gc_clock=None) -> dict:
        self.restore_inputs()
        gc.collect()
        out = self.plan["out_root"]
        rcs, latencies = [], []
        with gc_clock or contextlib.nullcontext():
            t0 = time.perf_counter()
            for op in self.plan["ops"]:
                argv = [a.replace("{out}", out) for a in op["argv"]]
                t = time.perf_counter()
                rcs.append(self.call(argv))
                latencies.append(time.perf_counter() - t)
            seconds = time.perf_counter() - t0
        record = {"seconds": seconds, "traced": traced, "warmup": warmup,
                  "rcs": rcs, "latencies": latencies}
        self.records.append(record)
        print(PASS_PREFIX + json.dumps(record), flush=True)
        if sys.stdin.readline() != "go\n":
            raise RuntimeError("the parent did not acknowledge the pass")
        return record


def timed(passes: Passes) -> list[dict]:
    return [r for r in passes.records if not r["warmup"]]


def measured(passes: Passes) -> float:
    return sum(r["seconds"] for r in timed(passes))


def run_plain(plan: dict, passes: Passes) -> None:
    while measured(passes) < plan["seconds"]:
        passes.run()


def run_traced(plan: dict, passes: Passes) -> dict:
    tracer = Tracer()
    tracer.install()
    setup_lo, setup_counts = len(tracer.spans), tracer.counts.copy()
    for argv in plan["trace_setup"]:
        passes.call(argv)
    setup_names, setup_self = span_totals(tracer.spans, setup_lo, len(tracer.spans))
    setup_counts = tracer.counts - setup_counts
    tracer.uninstall()

    per_pass: list[tuple] = []
    gc_stats: list[tuple[float, int]] = []
    while len(timed(passes)) < 2 or measured(passes) < plan["seconds"]:
        if len(timed(passes)) % 2 == 0:
            gc_clock = GcClock()
            passes.run(gc_clock=gc_clock)
            gc_stats.append((gc_clock.pause_s, gc_clock.collections))
        else:
            tracer.install()
            lo, before = len(tracer.spans), tracer.counts.copy()
            passes.run(traced=True)
            names, self_by_layer = span_totals(tracer.spans, lo, len(tracer.spans))
            per_pass.append((names, self_by_layer, tracer.counts - before))
            tracer.uninstall()

    # Allocation tracing is slow: it runs only until the pulses are classified.
    tracer.last_memory_span = "pulses.classify_pulses"
    tracer.install()
    tracemalloc.start()
    passes.call(plan["memory_probe"])
    tracemalloc.stop()
    tracer.uninstall()

    med = statistics.median
    layers: dict[str, float] = {}
    for metric, names in PASS_TIMES.items():
        layers[metric] = med([sum(n[x] for x in names) for n, _, _ in per_pass])
    for metric in PASS_COUNTS:
        layers[metric] = med([c[metric] for _, _, c in per_pass])
    pairs_expected = med([c["pulses.pairs_expected"] for _, _, c in per_pass])
    layers["pulses.pair_yield"] = layers["pulses.pairs"] / pairs_expected
    for layer in PASS_LAYERS:
        layers[f"{layer}.self_s"] = med([s[layer] for _, s, _ in per_pass])
    for metric, names in SETUP_TIMES.items():
        layers[metric] = sum(setup_names[x] for x in names)
    for metric in SETUP_COUNTS:
        layers[metric] = setup_counts[metric]
    for layer in SETUP_LAYERS:
        layers[f"{layer}.self_s"] = setup_self[layer]
    layers["capture.stream_mb"] = tracer.memory["capture.load_transition_stream"] / MB
    layers["pulses.pulses_mb"] = (tracer.memory["pulses.extract_pulses"]
                                  + tracer.memory["pulses.classify_pulses"]) / MB
    layers["gc.pause_s"] = med([p for p, _ in gc_stats])
    layers["gc.collections"] = med([n for _, n in gc_stats])
    traced_s = med([r["seconds"] for r in timed(passes) if r["traced"]])
    untraced_s = med([r["seconds"] for r in timed(passes) if not r["traced"]])
    layers["trace.overhead_s"] = traced_s - untraced_s

    with open(plan["spans_file"], "w") as fh:
        for name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
    print(f"trace: {len(tracer.spans)} spans, traced pass {traced_s:.4f} s, untraced pass "
          f"{untraced_s:.4f} s, counter errors {tracer.counts['trace.counter_errors']}",
          file=sys.stderr)
    return layers


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    import pulsepair.cli as cli

    before = calibration_loop_s()
    passes = Passes(plan, cli)
    passes.run(warmup=True)
    layers = None
    if plan["mode"] == "trace":
        layers = run_traced(plan, passes)
    else:
        run_plain(plan, passes)
    after = calibration_loop_s()
    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calibration_s": [before, after],
        "layers": layers,
    }
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
