"""Named synthetic scenarios covering the phenomena the toolkit detects.

Each preset builds a small corpus of generated runs: tight GPU-engine
baselines, spike-driven tail inflation, a multimodal CPU-runtime baseline,
a regime-shift corpus with one collapsed run, the three-way external
failure spectrum under storage stress, and a marker/inference overlap
demonstration. Preset parameters are listed in the emitted reports so a
corpus is self-describing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

import numpy as np

from .capture import (
    ARCH_CPU_RUNTIME,
    ARCH_GPU_ENGINE,
    COND_BASELINE,
    COND_MEMORY_STRESS_LIGHT,
    COND_STORAGE_STRESS,
    DEFAULT_SAMPLE_PERIOD_S,
    RunMetadata,
    integer,
)
from .synth import (
    DEFAULT_GAP_MS,
    DEFAULT_OVERHEAD_BOUND_MS,
    FaultKind,
    FaultSpec,
    Gaussian,
    GeneratedRun,
    LatencyDistSpec,
    Mixture,
    Spiked,
    gen_condition,
    gen_run,
    write_runs,
)

#: GPU-engine inference is ~1.5 ms; a 200 ms marker with a 100 ms
#: classifier threshold leaves two orders of magnitude of separation.
TRT_MARKER_MS = 200.0
TRT_THRESHOLD_MS = 100.0

#: CPU-runtime inference spans roughly 80-250 ms, so the marker must sit
#: well above that: 1000 ms marker, 800 ms threshold.
ORT_MARKER_MS = 1000.0
ORT_THRESHOLD_MS = 800.0

TRT_BASELINE_DIST = Gaussian(mean_ms=1.228, sd_ms=0.021)
TRT_MEMSTRESS_DIST = Spiked(base=Gaussian(mean_ms=1.455, sd_ms=0.045), spike_prob=0.02, spike_scale=1.15)
TRT_STORAGE_DIST = Gaussian(mean_ms=1.485, sd_ms=0.08)

ORT_BASELINE_DIST = Mixture(
    components=(
        (0.10, Gaussian(mean_ms=82.0, sd_ms=6.0)),
        (0.32, Gaussian(mean_ms=145.0, sd_ms=12.0)),
        (0.58, Gaussian(mean_ms=206.0, sd_ms=9.0)),
    )
)
ORT_MEMSTRESS_DIST = Mixture(
    components=(
        (0.08, Gaussian(mean_ms=85.0, sd_ms=7.0)),
        (0.30, Gaussian(mean_ms=150.0, sd_ms=13.0)),
        (0.62, Gaussian(mean_ms=208.0, sd_ms=10.0)),
    )
)
ORT_COLLAPSED_DIST = Gaussian(mean_ms=198.32, sd_ms=3.5)

#: GPU-engine runs draw each width's wrapper overhead from [0, 0.01] ms.
TRT_OVERHEAD = FaultSpec(overhead_bound_ms=0.01)


def _trt_meta(run_id: str, condition: str, warmup: int = 10) -> RunMetadata:
    return RunMetadata(
        run_id=run_id,
        architecture=ARCH_GPU_ENGINE,
        condition=condition,
        marker_width_ms=TRT_MARKER_MS,
        marker_threshold_ms=TRT_THRESHOLD_MS,
        iterations_expected=100,
        warmup_iterations=warmup,
    )


def _ort_meta(run_id: str, condition: str, marker: float = ORT_MARKER_MS,
              threshold: float = ORT_THRESHOLD_MS) -> RunMetadata:
    return RunMetadata(
        run_id=run_id,
        architecture=ARCH_CPU_RUNTIME,
        condition=condition,
        marker_width_ms=marker,
        marker_threshold_ms=threshold,
        iterations_expected=100,
        warmup_iterations=10,
    )


def trt_baseline(master_seed: int = 0) -> list[GeneratedRun]:
    return gen_condition(
        TRT_BASELINE_DIST,
        _trt_meta("trt_baseline", COND_BASELINE),
        n_runs=5,
        master_seed=master_seed,
        fault=TRT_OVERHEAD,
    )


def trt_memstress(master_seed: int = 0) -> list[GeneratedRun]:
    return gen_condition(
        TRT_MEMSTRESS_DIST,
        _trt_meta("trt_memstress", COND_MEMORY_STRESS_LIGHT),
        n_runs=20,
        master_seed=master_seed,
        fault=TRT_OVERHEAD,
    )


def ort_baseline(master_seed: int = 0) -> list[GeneratedRun]:
    return gen_condition(
        ORT_BASELINE_DIST,
        _ort_meta("ort_baseline", COND_BASELINE),
        n_runs=5,
        master_seed=master_seed,
    )


def ort_memstress_collapse(master_seed: int = 0) -> list[GeneratedRun]:
    """Four multimodal memory-stress runs plus one collapsed-regime run.

    The collapsed run keeps a complete software log and a clean capture;
    only its distribution changes, which is exactly what condition-level
    aggregates hide and the per-run regime detector must catch.
    """
    seeds = np.random.SeedSequence(master_seed).generate_state(5)
    runs = []
    for i in range(4):
        meta = _ort_meta(f"ort_memstress_{i + 1:03d}", COND_MEMORY_STRESS_LIGHT)
        runs.append(gen_run(ORT_MEMSTRESS_DIST, meta, seed=int(seeds[i])))
    meta = _ort_meta("ort_memstress_005", COND_MEMORY_STRESS_LIGHT)
    runs.append(gen_run(ORT_COLLAPSED_DIST, meta, seed=int(seeds[4])))
    return runs


def storage_stress_trio(master_seed: int = 0) -> list[GeneratedRun]:
    """Three storage-stress runs spanning the external failure spectrum.

    Every software log is complete; the external channel fails three
    different ways: full post-marker collapse, ~40% transition loss, and
    an empty capture. Warmup is zero here so the transition budget is
    exactly the inference edges.
    """
    faults = (
        FaultSpec(kind=FaultKind.POST_MARKER_COLLAPSE),
        FaultSpec(kind=FaultKind.PARTIAL_LOSS, drop_fraction=0.40),
        FaultSpec(kind=FaultKind.EMPTY_CAPTURE),
    )
    # Fixed spawn key keeps the default-seed realization of the binomial
    # drop close to its 40% expectation (60 of 100 pulses kept).
    seeds = np.random.SeedSequence(master_seed, spawn_key=(9,)).generate_state(3)
    runs = []
    for i, fault in enumerate(faults):
        meta = _trt_meta(f"storage_stress_{i + 1:03d}", COND_STORAGE_STRESS, warmup=0)
        runs.append(gen_run(TRT_STORAGE_DIST, meta, fault=fault, seed=int(seeds[i])))
    return runs


def marker_overlap_demo(master_seed: int = 0) -> list[GeneratedRun]:
    """A CPU-runtime run whose marker sits inside the inference distribution.

    With a 200 ms marker and a 150 ms classifier threshold, slow
    inference pulses classify as markers and the pairing silently
    corrupts; the separation check is what catches it.
    """
    meta = _ort_meta("marker_overlap_demo_001", COND_BASELINE, marker=200.0, threshold=150.0)
    fault = FaultSpec(kind=FaultKind.MARKER_OVERLAP, marker_width_ms=200.0)
    return [gen_run(ORT_BASELINE_DIST, meta, fault=fault, seed=int(master_seed))]


PRESETS: dict[str, Callable[[int], list[GeneratedRun]]] = {
    "trt_baseline": trt_baseline,
    "trt_memstress": trt_memstress,
    "ort_baseline": ort_baseline,
    "ort_memstress_collapse": ort_memstress_collapse,
    "storage_stress_trio": storage_stress_trio,
    "marker_overlap_demo": marker_overlap_demo,
}


def build_preset(name: str, master_seed: int = 0) -> list[GeneratedRun]:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return PRESETS[name](master_seed)


def write_preset(name: str, out_dir: str | Path, master_seed: int = 0) -> list[Path]:
    """Materialize a preset as run directories consumable by the analyzer."""
    return write_runs(build_preset(name, master_seed), out_dir)


# ---------------------------------------------------------------------------
# Custom scenario files


def _dist_from_dict(raw: dict) -> LatencyDistSpec:
    kind = raw.get("type")
    if kind == "gaussian":
        return Gaussian(mean_ms=float(raw["mean_ms"]), sd_ms=float(raw["sd_ms"]))
    if kind == "mixture":
        return Mixture(
            components=tuple(
                (float(c["weight"]), Gaussian(mean_ms=float(c["mean_ms"]), sd_ms=float(c["sd_ms"])))
                for c in raw["components"]
            )
        )
    if kind == "spiked":
        return Spiked(
            base=_dist_from_dict({"type": "gaussian", **raw["base"]}),
            spike_prob=float(raw["spike_prob"]),
            spike_scale=float(raw["spike_scale"]),
        )
    raise ValueError(f"unknown distribution type {kind!r}")


_FAULT_KEYS = ("kind", "drop_fraction", "marker_width_ms")


def _fault_from_dict(raw: dict, overhead_bound_ms: float) -> FaultSpec:
    unknown = sorted(set(raw) - set(_FAULT_KEYS))
    if unknown:
        raise ValueError(f"scenario fault: unknown key(s) {unknown}; known: {list(_FAULT_KEYS)} "
                         "(the overhead bound is the top-level overhead_bound_ms)")
    kind, known = raw.get("kind", "none"), [k.value for k in FaultKind]
    if kind not in known:
        raise ValueError(f"scenario fault: unknown kind {kind!r}; known: {known}")
    return FaultSpec(
        kind=FaultKind(kind),
        drop_fraction=raw.get("drop_fraction"),
        marker_width_ms=raw.get("marker_width_ms"),
        overhead_bound_ms=overhead_bound_ms,
    )


def load_scenario(path: str | Path, master_seed: int | None = None) -> list[GeneratedRun]:
    """Build runs from a JSON scenario file.

    Expected keys: dist, meta, n_runs; optional fault (kind,
    drop_fraction, marker_width_ms), master_seed, gap_ms and
    overhead_bound_ms, which sets the fault's bound. The file's
    master_seed is overridden by the argument when given. Counts and the
    seed must be integral. Every error is a ValueError that names the file.
    """
    try:
        raw = json.loads(Path(path).read_text())
        dist = _dist_from_dict(raw["dist"])
        fault = _fault_from_dict(raw.get("fault") or {},
                                 float(raw.get("overhead_bound_ms", DEFAULT_OVERHEAD_BOUND_MS)))
        m = raw["meta"]
        meta = RunMetadata(
            run_id=str(m.get("run_id_prefix", "scenario")),
            architecture=str(m["architecture"]),
            condition=str(m["condition"]),
            marker_width_ms=float(m["marker_width_ms"]),
            marker_threshold_ms=float(m["marker_threshold_ms"]),
            iterations_expected=integer(m["iterations_expected"]),
            warmup_iterations=integer(m["warmup_iterations"]),
            sample_period_s=float(m.get("sample_period_s", DEFAULT_SAMPLE_PERIOD_S)),
        )
        seed = master_seed if master_seed is not None else integer(raw.get("master_seed", 0))
        n_runs = integer(raw["n_runs"])
        gap_ms = float(raw.get("gap_ms", DEFAULT_GAP_MS))
    except KeyError as exc:
        raise ValueError(f"{path}: missing scenario key {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as exc:  # a value of the wrong type
        raise ValueError(f"{path}: {exc}") from None
    try:
        return gen_condition(dist, meta, n_runs=n_runs, master_seed=seed, fault=fault,
                             gap_ms=gap_ms)
    except ValueError as exc:  # a count the generator rejects, such as n_runs 0
        raise ValueError(f"{path}: {exc}") from None
