"""pulsepair benchmark: one workload, set up from a seed, measured for a fixed time.

Usage, from the root of a pulsepair checkout:

    python3 perfbench/run.py --workload long_capture --seed 1 --seconds 35 --trace 0

The package is taken from the checkout's `src/`. Set-up writes the inputs with
`pulsepair synth`; a fresh worker process then runs whole passes over them in
a closed loop for `--seconds`; afterwards every output of every pass is
checked against an independent computation (see oracle.py). The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` the worker is traced and the metrics are the per-layer ones. The
log goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import oracle
import worker
import workloads

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170
IMPORT_PROBES = 5


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_seconds(env: dict) -> float:
    """Median time to import pulsepair.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import pulsepair.cli; print(time.perf_counter() - t)"
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout)
        for _ in range(IMPORT_PROBES))


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name.endswith("_yield") else "count"


class Tally:
    """Checks every output of every pass as the pass ends."""

    def __init__(self, ops: list, out_root: Path) -> None:
        self.ops = ops
        self.out_root = out_root
        self.attempted = self.failed = 0
        self.unexpected: list[str] = []
        self.known: dict[str, list[str]] = {}

    def check_pass(self, index: int, record: dict) -> None:
        for op, rc in zip(self.ops, record["rcs"], strict=True):
            self.attempted += 1
            try:
                problems = op.check(self.out_root / op.out, rc)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"output unreadable: {exc!r}"]
            if not problems:
                continue
            self.failed += 1
            if op.known_fault:
                self.known[op.known_fault] = problems
            else:
                self.unexpected += [f"pass {index} {op.out}: {p}" for p in problems]
        # Whatever the next pass does not rewrite will read as left over.
        for path in self.out_root.rglob("*"):
            if path.is_file():
                os.utime(path, ns=(oracle.STALE_NS, oracle.STALE_NS))

    def report(self) -> None:
        for name, problems in self.known.items():
            log(f"known fault {name} shows in every pass: {'; '.join(problems)}")
        for problem in self.unexpected[:20]:
            log(f"WRONG: {problem}")


def run_worker(plan_path: Path, result_path: Path, env: dict, tally: Tally,
               timeout_s: float) -> list[dict]:
    """Run the worker, checking each pass while the worker waits for it."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path),
                             str(result_path)], env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    passes: list[dict] = []
    try:
        for line in proc.stdout:
            if not line.startswith(worker.PASS_PREFIX):
                continue
            passes.append(json.loads(line[len(worker.PASS_PREFIX):]))
            tally.check_pass(len(passes) - 1, passes[-1])
            proc.stdin.write("go\n")
            proc.stdin.flush()
    finally:
        watchdog.cancel()
        proc.stdin.close()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return passes


def main() -> int:
    args = parse_args()
    started = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "pulsepair" / "cli.py").is_file():
        log(f"no pulsepair sources under {src}: run from the root of a pulsepair checkout")
        return 2
    work = root / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    spans_dir = root / ".perfbench_out"
    spans_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def pulsepair(argv: list[str]) -> None:
        subprocess.run([sys.executable, "-m", "pulsepair.cli", *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)

    # Fill the bytecode cache first, so no timed process compiles the package.
    subprocess.run([sys.executable, "-c", "import pulsepair.cli"], env=env, check=True, timeout=60)
    inputs = work / "inputs"
    workload = workloads.WORKLOADS[args.workload](inputs, args.seed)
    # A traced run does not report setup_s, so it need not repeat the set-up.
    setup_s = workload.setup(pulsepair, log, timed=not args.trace)
    ops = workload.ops()

    plan = {
        "mode": "trace" if args.trace else "plain",
        "seconds": args.seconds,
        "ops": [{"argv": op.argv} for op in ops],
        "inputs": str(inputs),
        "out_root": str(work / "out"),
        "trace_setup": workload.trace_setup(work / "trace_setup"),
        "memory_probe": ["analyze", str(workload.memory_probe()), "--out", str(work / "probe")],
        "spans_file": str(spans_dir / f"spans_{args.workload}.jsonl"),
    }
    (work / "plan.json").write_text(json.dumps(plan))
    import_s = import_seconds(env) if args.trace else None
    tally = Tally(ops, work / "out")
    passes = run_worker(work / "plan.json", work / "result.json", env, tally,
                        RUN_LIMIT_S - (time.perf_counter() - started))
    tally.report()
    result = json.loads((work / "result.json").read_text())
    before, after = result["calibration_s"]
    log(f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(ops)} operations; "
        f"calibration loop {before:.4f} s before, {after:.4f} s after; pass times (s) "
        f"{[round(r['seconds'], 3) for r in passes]}, the first a warm-up")
    passes = [r for r in passes if not r["warmup"]]

    if args.trace:
        layers = dict(result["layers"], **{"cli.import_s": import_s})
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        # Each analyze operation's median latency over the passes: a stall of the
        # machine that hits one call in one pass does not reach the percentiles.
        analyze_ms = sorted(statistics.median(r["latencies"][i] for r in passes) * 1e3
                            for i, op in enumerate(ops) if op.argv[0] == "analyze")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "report_s": {"value": statistics.median(r["seconds"] for r in passes), "unit": "s"},
            "analyze_ms_p50": {"value": oracle.nearest_rank(analyze_ms, Fraction(1, 2)), "unit": "ms"},
            "analyze_ms_p99": {"value": oracle.nearest_rank(analyze_ms, Fraction(99, 100)), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    shutil.rmtree(work)
    log(f"done in {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": not tally.unexpected, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
