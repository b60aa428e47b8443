"""The two workloads: how set-up writes their inputs, the operations of one
pass, and the expected outcome of every operation.

Both workloads write every input with `pulsepair synth` (presets or the
scenario files next to this module), one fresh process per invocation, as a
user would. The analyzer sees only those files.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

HERE = Path(__file__).resolve().parent

#: Campaign seeds per benchmark seed. Each seed builds all six presets: 39 runs
#: of the paper's 100-iteration shape, so a pass analyzes 39 * CAMPAIGN_SEEDS runs.
CAMPAIGN_SEEDS = 12
#: Set-ups of long_capture per benchmark run; setup_s is their median.
LONG_SETUPS = 3

PRESET_RUNS = {
    "trt_baseline": 5,
    "trt_memstress": 20,
    "ort_baseline": 5,
    "ort_memstress_collapse": 5,
    "storage_stress_trio": 3,
    "marker_overlap_demo": 1,
}
PRESET_BASELINE = {"trt_memstress": "trt_baseline", "ort_memstress_collapse": "ort_baseline"}
#: The README's description of each preset: the class and failure mode of each run.
HEALTHY = ("A", "healthy")
PRESET_FINDINGS = {
    "trt_baseline": [HEALTHY] * 5,
    "trt_memstress": [HEALTHY] * 20,
    "ort_baseline": [HEALTHY] * 5,
    "ort_memstress_collapse": [HEALTHY] * 5,
    "storage_stress_trio": [("B", "post_marker_collapse"), ("B", "partial_transition_loss"),
                            ("B", "complete_acquisition_failure")],
    "marker_overlap_demo": [("D", "marker_overlap")],
}

Synth = Callable[[list[str]], None]


@dataclass
class Op:
    argv: list[str]  # pulsepair CLI arguments; "{out}" is the pass's output directory
    out: str  # this operation's output directory, relative to "{out}"
    check: Callable[[Path, object], list[str]]  # (output dir, exit code) -> problems
    known_fault: str | None = None


def _analyze(run_dir: Path, out: str, exp: oracle.RunExpect, findings: list[str]) -> Op:
    return Op(["analyze", str(run_dir), "--out", f"{{out}}/{out}"], out,
              lambda d, rc: findings + oracle.check_analyze(d, rc, exp))


def _condition(runs: list[Path], baseline: list[Path] | None, out: str,
               ce: oracle.ConditionExpect) -> Op:
    argv = ["condition", *map(str, runs)]
    if baseline:
        argv += ["--baseline", *map(str, baseline)]
    return Op(argv + ["--out", f"{{out}}/{out}"], out,
              lambda d, rc: oracle.check_condition(d, rc, ce))


def _finding(exp: oracle.RunExpect, cls: str, mode: str) -> list[str]:
    """Problems with a run's expected outcome against the README's finding.

    A healthy preset may still come out class D when its own widths break the
    4x marker margin: that is the separation check doing its job on an unlucky
    draw, and the independent computation says so.
    """
    if (exp.cls, exp.mode) == (cls, mode):
        return []
    if (cls, mode) == HEALTHY and exp.mode == "marker_overlap":
        return []
    return [f"{exp.run_id}: inputs give {exp.cls}/{exp.mode}, the preset promises {cls}/{mode}"]


def _known_fault(argv: list[str], out: str, name: str, forbidden: set[str]) -> Op:
    def check(d: Path, rc) -> list[str]:
        cls = json.loads(oracle.output_text(d / "report.json"))["validity"]["class"]
        problems = [f"{name}: class {cls}"] if cls in forbidden else []
        if rc != oracle.CLASS_EXIT[cls]:
            problems.append(f"{name}: exit code {rc} for class {cls}")
        return problems
    return Op(argv + ["--out", f"{{out}}/{out}"], out, check, known_fault=name)


class LongCapture:
    """Two long storage-stress captures, one intact and one missing ~40% of its
    pulses, pooled by one `condition` against a short GPU-engine baseline."""

    name = "long_capture"
    scenarios = (HERE / "scenarios" / "long_intact.json", HERE / "scenarios" / "long_lossy.json")

    def __init__(self, inputs: Path, seed: int) -> None:
        self.inputs = inputs
        self.seed = seed

    def synth_argvs(self, out_dir: Path) -> list[list[str]]:
        seeds = [str(3 * self.seed + i) for i in range(3)]
        return [["synth", str(s), "--out-dir", str(out_dir), "--seed", seed]
                for s, seed in zip(self.scenarios, seeds)] + \
            [["synth", "trt_baseline", "--out-dir", str(out_dir / "baseline"), "--seed", seeds[2]]]

    def setup(self, synth: Synth, log: Callable[[str], None], timed: bool = True) -> float:
        times = []
        for _ in range(LONG_SETUPS if timed else 1):
            shutil.rmtree(self.inputs, ignore_errors=True)
            t = time.perf_counter()
            for argv in self.synth_argvs(self.inputs):
                synth(argv)
            times.append(time.perf_counter() - t)
        log(f"set-up times (s): {[round(t, 4) for t in times]}")
        return statistics.median(times)

    def ops(self) -> list[Op]:
        intact, lossy = self.inputs / "long_intact_001", self.inputs / "long_lossy_001"
        baseline = sorted((self.inputs / "baseline").iterdir())
        e_intact = oracle.expect_run(oracle.read_run(intact))
        e_lossy = oracle.expect_run(oracle.read_run(lossy))
        lossy_finding = _finding(e_lossy, "B", "partial_transition_loss")
        if e_lossy.loss_fraction is None or abs(e_lossy.loss_fraction - 0.4) > 0.01:
            lossy_finding.append(f"loss fraction {e_lossy.loss_fraction}, the scenario drops 0.40")
        ce = oracle.ConditionExpect(
            runs=[e_intact, e_lossy],
            baseline=[oracle.expect_run(oracle.read_run(r)) for r in baseline])
        return [
            _analyze(intact, "long_intact_001", e_intact, _finding(e_intact, *HEALTHY)),
            _analyze(lossy, "long_lossy_001", e_lossy, lossy_finding),
            _condition([intact, lossy], baseline, "condition", ce),
        ]

    def trace_setup(self, out_dir: Path) -> list[list[str]]:
        return self.synth_argvs(out_dir)

    def memory_probe(self) -> Path:
        return self.inputs / "long_intact_001"


class Campaign:
    """The six presets at CAMPAIGN_SEEDS seeds, plus the two known-fault inputs."""

    name = "campaign"

    def __init__(self, inputs: Path, seed: int) -> None:
        self.inputs = inputs
        self.seeds = [1000 * seed + u for u in range(CAMPAIGN_SEEDS)]

    def unit_argvs(self, out_dir: Path, seed: int) -> list[list[str]]:
        return [["synth", p, "--out-dir", str(out_dir / p), "--seed", str(seed)] for p in PRESET_RUNS]

    def fault_argv(self, out_dir: Path) -> list[str]:
        # Fixed seed: the known-fault inputs are the same in every benchmark run.
        return ["synth", "trt_baseline", "--out-dir", str(out_dir / "faults"), "--seed", "0"]

    def setup(self, synth: Synth, log: Callable[[str], None], timed: bool = True) -> float:
        """Write every input; setup_s is CAMPAIGN_SEEDS times the median per-seed time.

        Each seed's set-up writes the same six presets, so the median over the
        seeds is a set-up time that one slow phase of the machine cannot move.
        The full set-up is needed either way, so `timed` changes nothing here.
        """
        shutil.rmtree(self.inputs, ignore_errors=True)
        times = []
        for u, seed in enumerate(self.seeds):
            t = time.perf_counter()
            for argv in self.unit_argvs(self.inputs / f"s{u:02d}", seed):
                synth(argv)
            times.append(time.perf_counter() - t)
        t = time.perf_counter()
        synth(self.fault_argv(self.inputs))
        self._write_gapped_log()
        fault_s = time.perf_counter() - t
        log(f"set-up per seed (s): {[round(x, 4) for x in times]}, fault inputs {fault_s:.4f} s, "
            f"total {sum(times) + fault_s:.4f} s")
        return CAMPAIGN_SEEDS * statistics.median(times) + fault_s

    def _write_gapped_log(self) -> None:
        """A copy of a healthy run whose software.csv skips index 50 and ends at 100."""
        src = self.inputs / "faults" / "trt_baseline_001"
        dst = self.inputs / "faults" / "gapped_log"
        shutil.copytree(src, dst)
        lines = (src / "software.csv").read_text().splitlines()
        rows = [f"{i if i < 50 else i + 1},{line.split(',')[1]}" for i, line in enumerate(lines[1:])]
        (dst / "software.csv").write_text("\n".join([lines[0], *rows]) + "\n")

    def ops(self) -> list[Op]:
        analyze_ops, condition_ops = [], []
        for u in range(len(self.seeds)):
            expects: dict[str, list[tuple[Path, oracle.RunExpect]]] = {}
            for preset, n in PRESET_RUNS.items():
                runs = sorted((self.inputs / f"s{u:02d}" / preset).iterdir())
                if len(runs) != n:
                    raise RuntimeError(f"{preset} wrote {len(runs)} runs, the README lists {n}")
                expects[preset] = [(r, oracle.expect_run(oracle.read_run(r))) for r in runs]
                for (run, exp), finding in zip(expects[preset], PRESET_FINDINGS[preset]):
                    analyze_ops.append(_analyze(run, f"s{u:02d}/{preset}/{run.name}", exp,
                                                _finding(exp, *finding)))
            for preset, group in expects.items():
                base = expects.get(PRESET_BASELINE.get(preset, ""))
                ce = oracle.ConditionExpect(
                    runs=[e for _, e in group],
                    baseline=[e for _, e in base] if base else None,
                    tail_flagged=True if preset == "trt_memstress" else None,
                    regime_flagged_runs={"ort_memstress_005"} if preset == "ort_memstress_collapse" else None,
                )
                condition_ops.append(_condition([r for r, _ in group], [r for r, _ in base] if base else None,
                                                f"s{u:02d}/{preset}/condition", ce))
        faults = self.inputs / "faults"
        known = [
            _known_fault(["analyze", str(faults / "trt_baseline_001"), "--marker-threshold-ms", "0.5"],
                         "faults/threshold_too_low", "threshold_too_low", {"A", "B"}),
            _known_fault(["analyze", str(faults / "gapped_log")],
                         "faults/gapped_software_log", "gapped_software_log", {"A"}),
        ]
        return analyze_ops + known + condition_ops

    def trace_setup(self, out_dir: Path) -> list[list[str]]:
        argvs = [a for u, seed in enumerate(self.seeds) for a in self.unit_argvs(out_dir / f"s{u:02d}", seed)]
        return argvs + [self.fault_argv(out_dir)]

    def memory_probe(self) -> Path:
        return max((p.parent for p in self.inputs.glob("s*/*/*/transitions.csv")),
                   key=lambda d: (d / "transitions.csv").stat().st_size)


WORKLOADS = {w.name: w for w in (LongCapture, Campaign)}
