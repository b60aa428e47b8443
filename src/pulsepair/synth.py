"""Synthetic paired-run generator and fault injector.

Generates a software timing log plus the transition stream an external
observer would have captured for the same run, then degrades the external
stream according to an injected fault. Ground truth (true latencies, the
injected fault, the expected failure mode and validity class) is emitted
alongside so tests never re-derive expectations from the code under test.

Run structure: warmup pulses, one long synchronization marker, then the
measured inference pulses. External pulse widths are the software latency
plus a small positive wrapper overhead, quantized to the capture sample
period.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .capture import (
    RunMetadata,
    SoftwareTimingLog,
    TransitionStream,
    _cells,
    dump_run_metadata,
    dump_software_log,
    dump_transition_stream,
)
from .validity import FailureMode, ValidityClass, to_json

MIN_LATENCY_MS = 0.01
DEFAULT_OVERHEAD_BOUND_MS = 0.05
DEFAULT_GAP_MS = 1.0


# ---------------------------------------------------------------------------
# Latency distribution specs


@dataclass(frozen=True)
class Gaussian:
    mean_ms: float
    sd_ms: float

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.maximum(rng.normal(self.mean_ms, self.sd_ms, size=n), MIN_LATENCY_MS)


@dataclass(frozen=True)
class Mixture:
    """Weighted mixture of gaussian components; weights must sum to 1."""

    components: tuple[tuple[float, Gaussian], ...]

    def __post_init__(self) -> None:
        total = sum(w for w, _ in self.components)
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"mixture weights must sum to 1, got {total}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        weights = np.array([w for w, _ in self.components])
        choices = rng.choice(len(self.components), size=n, p=weights)
        out = np.empty(n)
        for i, (_, comp) in enumerate(self.components):
            mask = choices == i
            out[mask] = comp.sample(rng, int(mask.sum()))
        return out


@dataclass(frozen=True)
class Spiked:
    """Gaussian base where a small fraction of draws is scaled up.

    Reproduces the isolated-spike character of tail inflation without
    claiming anything about the underlying mechanism.
    """

    base: Gaussian
    spike_prob: float
    spike_scale: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.spike_prob < 1.0:
            raise ValueError(f"spike_prob must be in [0, 1), got {self.spike_prob}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        draws = self.base.sample(rng, n)
        spikes = rng.random(n) < self.spike_prob
        draws[spikes] *= self.spike_scale
        return np.maximum(draws, MIN_LATENCY_MS)


LatencyDistSpec = Gaussian | Mixture | Spiked


# ---------------------------------------------------------------------------
# Fault specs


class FaultKind(enum.Enum):
    NONE = "none"
    POST_MARKER_COLLAPSE = "post_marker_collapse"
    PARTIAL_LOSS = "partial_loss"
    EMPTY_CAPTURE = "empty_capture"
    MARKER_OVERLAP = "marker_overlap"
    MARKER_LOSS = "marker_loss"


@dataclass(frozen=True)
class FaultSpec:
    """The injected external-channel fault and the wrapper overhead bound.

    `overhead_bound_ms` is the one place the bound is set: each external
    width is the software latency plus a uniform draw from [0, bound].
    """

    kind: FaultKind = FaultKind.NONE
    drop_fraction: float | None = None  # partial_loss only, in (0, 1)
    marker_width_ms: float | None = None  # marker_overlap only
    overhead_bound_ms: float = DEFAULT_OVERHEAD_BOUND_MS

    def __post_init__(self) -> None:
        if self.kind is FaultKind.PARTIAL_LOSS:
            if self.drop_fraction is None or not 0.0 < self.drop_fraction < 1.0:
                raise ValueError("partial_loss requires drop_fraction in (0, 1)")
        elif self.drop_fraction is not None:
            raise ValueError(f"drop_fraction applies to partial_loss only, not {self.kind.value}")
        if self.kind is FaultKind.MARKER_OVERLAP:
            if self.marker_width_ms is None:
                raise ValueError("marker_overlap requires marker_width_ms")
        elif self.marker_width_ms is not None:
            raise ValueError(f"marker_width_ms applies to marker_overlap only, not {self.kind.value}")


NO_FAULT = FaultSpec()


# ---------------------------------------------------------------------------
# Generation


@dataclass(frozen=True)
class GroundTruth:
    run_id: str
    seed: int
    fault: FaultSpec
    expected_failure_mode: FailureMode
    expected_validity: ValidityClass
    true_latencies_ms: tuple[float, ...]
    pulses_emitted: int  # post-marker inference pulses surviving the fault

    def to_dict(self) -> dict:
        """The ground_truth.json form: validity as its letter, latencies to 6 digits."""
        return {
            "run_id": self.run_id,
            "seed": self.seed,
            "fault": to_json(self.fault),
            "expected_failure_mode": self.expected_failure_mode.value,
            "expected_validity": self.expected_validity.name,
            "true_latencies_ms": [round(v, 6) for v in self.true_latencies_ms],
            "pulses_emitted": self.pulses_emitted,
        }

    def to_json_text(self) -> str:
        """The bytes of ground_truth.json: `json.dumps(self.to_dict(), indent=2,
        sort_keys=True) + "\n"`, with the latencies written by the CSV digit kernel.

        Python's round(v, 6) returns v itself wherever np.round(v, 6) == v.
        Below 2**33, v is then the double nearest k/10^6 for an exact integer
        k, less than half a micro from it, since doubles there are less than
        1e-6 apart. From 2**33 up they are more than 1e-6 apart, and round
        keeps every value. Only the other values go through round.

        Each finite value is then the double nearest some k/10^6. From 1e-4
        to 2**33 its repr is k/10^6's digits, its `%.6f` text without
        trailing zeros: any other decimal of as few digits is at least 1e-6
        away, farther than the doubles' spacing, and repr is positional
        there. Every other value takes json's own text.
        """
        a = np.array(self.true_latencies_ms, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            unrounded = np.flatnonzero(np.round(a, 6) != a)
        for i in unrounded.tolist():
            a[i] = round(float(a[i]), 6)
        mag = np.abs(a)
        fixed = (mag >= 1e-4) & (mag < 2.0**33)
        mat, mask = _cells(np.where(fixed, a, 0.0), 6, ",")
        zeros = np.ones(a.size, dtype=bool)
        for j in range(-2, -7, -1):  # the sixth decimal to the second
            zeros &= mat[:, j] == ord("0")
            mask[:, j] &= ~zeros
        cells = mat[mask].tobytes().decode().split(",")[:-1]
        for i in np.flatnonzero(~fixed).tolist():
            cells[i] = json.dumps(float(a[i]))
        latencies = "[\n    " + ",\n    ".join(cells) + "\n  ]" if cells else "[]"
        key = '\n  "true_latencies_ms": '
        head = json.dumps(replace(self, true_latencies_ms=()).to_dict(), indent=2, sort_keys=True)
        return head.replace(key + "[]", key + latencies) + "\n"


@dataclass(frozen=True, eq=False)
class GeneratedRun:
    log: SoftwareTimingLog
    stream: TransitionStream
    meta: RunMetadata
    truth: GroundTruth


def gen_run(
    dist: LatencyDistSpec,
    meta: RunMetadata,
    fault: FaultSpec = NO_FAULT,
    seed: int = 0,
    gap_ms: float = DEFAULT_GAP_MS,
) -> GeneratedRun:
    """Generate one paired run, deterministic for a fixed seed.

    The software log always carries iterations_expected rows regardless of
    the fault: faults degrade the external channel only, which is the
    decoupling under study.
    """
    rng = np.random.default_rng(seed)
    sp = meta.sample_period_s

    marker_width_ms = meta.marker_width_ms
    if fault.kind is FaultKind.MARKER_OVERLAP:
        marker_width_ms = fault.marker_width_ms

    warmup = dist.sample(rng, meta.warmup_iterations)
    latencies = np.round(dist.sample(rng, meta.iterations_expected), 6)
    overhead = rng.uniform(0.0, fault.overhead_bound_ms, size=meta.iterations_expected)

    # One pulse per warmup iteration, the marker, then one per iteration.
    # Pulse k starts a gap after pulse k-1 ends; accumulating left to right
    # keeps the rounding of a running sum. Edges land on the sample grid.
    widths_ms = np.concatenate((warmup, [marker_width_ms], latencies + overhead))
    steps_s = np.concatenate(([gap_ms * 1e-3], (widths_ms[:-1] + gap_ms) * 1e-3))
    starts_s = np.add.accumulate(steps_s)
    edges = np.rint(np.column_stack((starts_s, starts_s + widths_ms * 1e-3)) / sp) * sp

    # Apply the external-channel fault: a boolean mask over pulses.
    first_inference = meta.warmup_iterations + 1
    keep = np.ones(widths_ms.size, dtype=bool)
    if fault.kind is FaultKind.EMPTY_CAPTURE:
        keep[:] = False
    elif fault.kind is FaultKind.POST_MARKER_COLLAPSE:
        keep[first_inference:] = False
    elif fault.kind is FaultKind.PARTIAL_LOSS:
        keep[first_inference:] = rng.random(meta.iterations_expected) >= fault.drop_fraction
    elif fault.kind is FaultKind.MARKER_LOSS:
        keep[meta.warmup_iterations] = False
    kept_pulses = int(keep[first_inference:].sum())

    stream = TransitionStream(edges[keep].ravel(), initial_level=0)
    log = SoftwareTimingLog(
        run_id=meta.run_id,
        iterations_expected=meta.iterations_expected,
        iterations=np.arange(meta.iterations_expected),
        latencies_ms=latencies,
    )
    mode, validity = _expected_outcome(fault, kept_pulses, meta)
    truth = GroundTruth(
        run_id=meta.run_id,
        seed=seed,
        fault=fault,
        expected_failure_mode=mode,
        expected_validity=validity,
        true_latencies_ms=tuple(latencies.tolist()),
        pulses_emitted=kept_pulses,
    )
    return GeneratedRun(log=log, stream=stream, meta=meta, truth=truth)


def _expected_outcome(
    fault: FaultSpec, kept_pulses: int, meta: RunMetadata
) -> tuple[FailureMode, ValidityClass]:
    """Expected downstream classification, derived from what was emitted.

    Partial loss is resolved against the realized drop count: dropping
    everything presents as post-marker collapse, dropping nothing as
    healthy. An empty capture on a line verified absent is a methodology
    failure, not decoupling. A lost marker leaves every inference pulse
    captured but nothing to anchor them: a pairing failure, not overlap.
    """
    if fault.kind is FaultKind.EMPTY_CAPTURE:
        if meta.gpio_line_verified_absent:
            return FailureMode.GPIO_LINE_MISOBSERVATION, ValidityClass.D
        return FailureMode.COMPLETE_ACQUISITION_FAILURE, ValidityClass.B
    if fault.kind is FaultKind.POST_MARKER_COLLAPSE:
        return FailureMode.POST_MARKER_COLLAPSE, ValidityClass.B
    if fault.kind is FaultKind.MARKER_OVERLAP:
        return FailureMode.MARKER_OVERLAP, ValidityClass.D
    if fault.kind is FaultKind.MARKER_LOSS:
        return FailureMode.PAIRING_FAILURE, ValidityClass.B
    if fault.kind is FaultKind.PARTIAL_LOSS:
        if kept_pulses == 0:
            return FailureMode.POST_MARKER_COLLAPSE, ValidityClass.B
        if kept_pulses == meta.iterations_expected:
            return FailureMode.HEALTHY, ValidityClass.A
        return FailureMode.PARTIAL_TRANSITION_LOSS, ValidityClass.B
    return FailureMode.HEALTHY, ValidityClass.A


def gen_condition(
    dist: LatencyDistSpec,
    meta_template: RunMetadata,
    n_runs: int,
    master_seed: int = 0,
    fault: FaultSpec = NO_FAULT,
    gap_ms: float = DEFAULT_GAP_MS,
) -> list[GeneratedRun]:
    """Generate n_runs independent runs, deterministic for a master seed."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    seeds = np.random.SeedSequence(master_seed).generate_state(n_runs)
    return [
        gen_run(dist, replace(meta_template, run_id=f"{meta_template.run_id}_{i + 1:03d}"),
                fault=fault, seed=int(seed), gap_ms=gap_ms)
        for i, seed in enumerate(seeds)
    ]


def write_run_dir(run: GeneratedRun, out_dir: str | Path) -> Path:
    """Write the run in exactly the on-disk layout the analyzer consumes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_software_log(run.log, out / "software.csv")
    dump_transition_stream(run.stream, out / "transitions.csv")
    dump_run_metadata(run.meta, out / "metadata.json")
    (out / "ground_truth.json").write_text(run.truth.to_json_text())
    return out


def write_runs(runs: list[GeneratedRun], out_dir: str | Path) -> list[Path]:
    """Write each run to `out_dir/<run_id>`; return the run directories."""
    return [write_run_dir(run, Path(out_dir) / run.meta.run_id) for run in runs]
