"""Run- and condition-level statistical battery, ECDFs, and the two detectors.

Percentiles are nearest-rank (sorted value at 1-based index ceil(p*n)),
so every reported percentile is an observed sample. This matters at
n=100: interpolating estimators give a different P99. Spread uses the
sample standard deviation (n-1 denominator).

Two detectors cover the two ways interference showed up:

  * tail inflation: the stressed condition's mean P99 grows relative to
    baseline while the distribution keeps its shape;
  * regime shift: a single run collapses to a tight spread anchored at a
    slow mode, which condition-level aggregates can hide entirely. The
    regime detector therefore runs per-run against baseline runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .capture import _write_csv

DEFAULT_P99_RATIO_THRESHOLD = 1.10
DEFAULT_SD_COLLAPSE_THRESHOLD = 0.25


@dataclass(frozen=True)
class RunSummary:
    run_id: str
    n: int
    mean_ms: float
    sd_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    min_ms: float
    max_ms: float
    condition: str | None = None


@dataclass(frozen=True)
class ConditionSummary:
    condition: str
    runs: int
    samples: int
    mean_of_run_means_ms: float
    run_mean_sd_ms: float
    mean_p99_ms: float
    max_observed_ms: float
    single_run_warning: bool = False


@dataclass(frozen=True, eq=False)
class EcdfCurve:
    values: np.ndarray  # sorted sample values, ms
    fractions: np.ndarray  # rank/n at each value, ends at 1.0


@dataclass(frozen=True)
class TailInflationFlag:
    p99_ratio: float
    mean_ratio: float
    max_ratio: float
    threshold: float
    flagged: bool


@dataclass(frozen=True)
class RegimeShiftFlag:
    run_id: str
    run_sd_ms: float
    baseline_median_run_sd_ms: float
    sd_collapse_ratio: float
    run_mean_ms: float
    flagged: bool


def nearest_rank(sorted_values: np.ndarray, p: float) -> float:
    """Percentile as the sorted sample at 1-based index ceil(p*n)."""
    n = len(sorted_values)
    idx = int(np.ceil(p * n))
    idx = max(1, min(idx, n))
    return float(sorted_values[idx - 1])


def run_summary(
    latencies_ms: Sequence[float], run_id: str = "", condition: str | None = None
) -> RunSummary:
    """Summarize one run's latency vector.

    Empty input is an error: a run with zero samples is class C upstream
    and never reaches summarization.
    """
    arr = np.asarray(latencies_ms, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty latency vector")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError("latencies must be positive finite")
    # All statistics run over the sorted array so reordering the input
    # cannot perturb floating-point accumulation.
    s = np.sort(arr)
    # A constant vector has exactly zero spread; np.std can leave rounding
    # residue on it, and the regime detector branches on sd > 0.
    sd = 0.0 if s[0] == s[-1] else float(np.std(s, ddof=1))
    return RunSummary(
        run_id=run_id,
        n=int(s.size),
        mean_ms=float(np.mean(s)),
        sd_ms=sd,
        p50_ms=nearest_rank(s, 0.50),
        p95_ms=nearest_rank(s, 0.95),
        p99_ms=nearest_rank(s, 0.99),
        min_ms=float(s[0]),
        max_ms=float(s[-1]),
        condition=condition,
    )


def condition_summary(runs: Sequence[RunSummary]) -> ConditionSummary:
    """Aggregate per-run summaries into one condition row.

    A single-run condition is legitimate (storage stress has few runs),
    so run_mean_sd_ms degrades to 0 with a warning flag instead of erroring.
    """
    if not runs:
        raise ValueError("condition_summary requires at least one run")
    labels = {r.condition for r in runs if r.condition is not None}
    if len(labels) > 1:
        raise ValueError(f"mixed condition labels: {sorted(labels)}")
    label = labels.pop() if labels else ""

    means = np.array([r.mean_ms for r in runs])
    single = len(runs) == 1
    run_mean_sd = 0.0 if single else float(np.std(means, ddof=1))
    return ConditionSummary(
        condition=label,
        runs=len(runs),
        samples=sum(r.n for r in runs),
        mean_of_run_means_ms=float(np.mean(means)),
        run_mean_sd_ms=run_mean_sd,
        mean_p99_ms=float(np.mean([r.p99_ms for r in runs])),
        max_observed_ms=max(r.max_ms for r in runs),
        single_run_warning=single,
    )


def ecdf(latencies_ms: Sequence[float]) -> EcdfCurve:
    """Standard empirical CDF: a step of 1/n at each sorted sample."""
    arr = np.sort(np.asarray(latencies_ms, dtype=float))
    if arr.size == 0:
        raise ValueError("cannot build an ECDF from an empty vector")
    return EcdfCurve(values=arr, fractions=np.arange(1, arr.size + 1) / arr.size)


def ecdf_to_csv(curve: EcdfCurve, path: str | Path) -> None:
    _write_csv(path, "value_ms,fraction", (curve.values, curve.fractions), (6, 6))


def detect_tail_inflation(
    baseline: ConditionSummary,
    stressed: ConditionSummary,
    p99_ratio_threshold: float = DEFAULT_P99_RATIO_THRESHOLD,
) -> TailInflationFlag:
    """Flag when the stressed mean P99 exceeds baseline by the threshold ratio.

    Mean and max ratios ride along for context; the flag itself is P99
    only. A ratio below 1 can coexist with a real problem (a regime
    shift lowers P99), which is the regime detector's job to catch.
    """
    ratio = stressed.mean_p99_ms / baseline.mean_p99_ms
    return TailInflationFlag(
        p99_ratio=ratio,
        mean_ratio=stressed.mean_of_run_means_ms / baseline.mean_of_run_means_ms,
        max_ratio=stressed.max_observed_ms / baseline.max_observed_ms,
        threshold=p99_ratio_threshold,
        flagged=ratio >= p99_ratio_threshold,
    )


def detect_regime_shift(
    baseline_runs: Sequence[RunSummary],
    candidate: RunSummary,
    collapse_threshold: float = DEFAULT_SD_COLLAPSE_THRESHOLD,
) -> RegimeShiftFlag:
    """Flag a run whose spread collapses while its mean stays at or above baseline.

    Both conditions are required: a tight fast run is just a good run;
    only a tight run anchored at the slow side signals a collapsed regime.
    """
    if len(baseline_runs) < 2:
        raise ValueError("regime-shift detection needs at least 2 baseline runs")
    median_sd = float(np.median([r.sd_ms for r in baseline_runs]))
    ratio = candidate.sd_ms / median_sd if median_sd > 0 else np.inf
    baseline_mean = float(np.mean([r.mean_ms for r in baseline_runs]))
    return RegimeShiftFlag(
        run_id=candidate.run_id,
        run_sd_ms=candidate.sd_ms,
        baseline_median_run_sd_ms=median_sd,
        sd_collapse_ratio=float(ratio),
        run_mean_ms=candidate.mean_ms,
        flagged=ratio <= collapse_threshold and candidate.mean_ms >= baseline_mean,
    )


# ---------------------------------------------------------------------------
# Serialization

_TABLE_COLUMNS = (
    ("Condition", 34, "s"),
    ("Runs", 6, "d"),
    ("Samples", 8, "d"),
    ("Mean of run means (ms)", 23, ".3f"),
    ("Run-mean SD (ms)", 17, ".3f"),
    ("Mean P99 (ms)", 14, ".3f"),
    ("Max observed (ms)", 18, ".3f"),
)


def format_condition_table(summaries: Sequence[ConditionSummary]) -> str:
    """Fixed-width text table with one row per condition."""
    header = "".join(f"{name:>{width}}" for name, width, _ in _TABLE_COLUMNS)
    lines = [header, "-" * len(header)]
    for s in summaries:
        cells = (
            s.condition,
            s.runs,
            s.samples,
            s.mean_of_run_means_ms,
            s.run_mean_sd_ms,
            s.mean_p99_ms,
            s.max_observed_ms,
        )
        row = "".join(
            f"{cell:>{width}{fmt}}" for cell, (_, width, fmt) in zip(cells, _TABLE_COLUMNS)
        )
        lines.append(row)
    return "\n".join(lines)
