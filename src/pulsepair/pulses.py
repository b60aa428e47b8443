"""Edge stream to classified pulses, marker location, and index pairing.

The pairing contract is deliberately simple: the run begins with warmup
pulses, then a long synchronization marker, then the measured inference
pulses. The k-th post-marker inference pulse pairs with the k-th software
row. There is no clock alignment; the marker is a one-time anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capture import SoftwareTimingLog, TransitionStream

DEFAULT_MIN_MARGIN = 4.0


@dataclass(frozen=True, eq=False)
class PulseExtraction:
    """Extraction output: pulse start and end times plus the orphan-edge count.

    Orphans (a leading falling edge or trailing rising edge) are half
    pulses cut off by the capture window. They are counted, never silently
    dropped, because edge conservation feeds the validity classifier:
    edges consumed == 2 * pulses + orphan_edges.
    """

    starts_s: np.ndarray
    ends_s: np.ndarray
    orphan_edges: int

    @property
    def widths_ms(self) -> np.ndarray:
        return (self.ends_s - self.starts_s) * 1e3

    @property
    def pulses(self) -> np.ndarray:
        """One (start_s, end_s) row per pulse."""
        return np.column_stack((self.starts_s, self.ends_s))


@dataclass(frozen=True)
class MarkerSeparationCheck:
    """Is the configured marker width safely above the observed inference widths?"""

    marker_width_ms: float
    inference_max_observed_ms: float | None
    margin_ratio: float
    min_margin: float
    passed: bool


@dataclass(frozen=True, eq=False)
class PairingResult:
    """Software rows paired by index with post-marker inference pulses.

    Pair k is (iterations[k], software_ms[k], external_ms[k]); the three
    columns have one length, checked on construction.
    `inference_pulses` counts every post-marker inference pulse the
    capture holds, paired or not; the unmatched fields are counts.
    `extra_markers` counts the marker-width pulses after the first one.
    """

    iterations: np.ndarray
    software_ms: np.ndarray
    external_ms: np.ndarray
    unmatched_software: int
    unmatched_pulses: int
    inference_pulses: int
    marker_found: bool
    pre_marker_pulses: int
    extra_markers: int
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.iterations.size == self.software_ms.size == self.external_ms.size:
            sizes = (self.iterations.size, self.software_ms.size, self.external_ms.size)
            raise ValueError(f"pair columns differ in length: {sizes}")

    @property
    def pairs(self) -> np.ndarray:
        """One (iteration, software_ms, external_ms) row per pair."""
        return np.column_stack((self.iterations, self.software_ms, self.external_ms))


def extract_pulses(stream: TransitionStream) -> PulseExtraction:
    """Pair each rising edge with the next falling edge.

    Degenerate streams (empty, single edge) yield no pulses; they are
    data, not errors.
    """
    times = stream.times_s
    # Line high at capture start: the leading falling edge closes a pulse
    # whose rise we never saw.
    lead = stream.initial_level if times.size else 0
    stop = lead + (times.size - lead) // 2 * 2  # a trailing rise never fell within the window
    return PulseExtraction(
        starts_s=times[lead:stop:2],
        ends_s=times[lead + 1 : stop : 2],
        orphan_edges=times.size - (stop - lead),
    )


def classify_pulses(widths_ms: np.ndarray, threshold_ms: float) -> np.ndarray:
    """Marker mask over pulse widths; every other pulse is an inference interval.

    Boundary rule: width >= threshold is a marker, so a marker degraded
    exactly to the threshold is still found.
    """
    if threshold_ms <= 0:
        raise ValueError(f"threshold_ms must be positive, got {threshold_ms}")
    return np.asarray(widths_ms) >= threshold_ms


def validate_marker_separation(
    marker_width_ms: float,
    observed_inference_widths_ms: np.ndarray,
    min_margin: float = DEFAULT_MIN_MARGIN,
) -> MarkerSeparationCheck:
    """Check the marker width against the observed inference distribution.

    With no observed inference pulses there is nothing the marker could
    collide with, so the check passes with an infinite margin.
    """
    if marker_width_ms <= 0:
        raise ValueError(f"marker_width_ms must be positive, got {marker_width_ms}")
    if not min_margin > 0:
        raise ValueError(f"min_margin must be positive, got {min_margin}")
    if len(observed_inference_widths_ms) == 0:
        return MarkerSeparationCheck(
            marker_width_ms=marker_width_ms,
            inference_max_observed_ms=None,
            margin_ratio=math.inf,
            min_margin=min_margin,
            passed=True,
        )
    max_observed = float(np.max(observed_inference_widths_ms))
    ratio = marker_width_ms / max_observed
    return MarkerSeparationCheck(
        marker_width_ms=marker_width_ms,
        inference_max_observed_ms=max_observed,
        margin_ratio=ratio,
        min_margin=min_margin,
        passed=ratio >= min_margin,
    )


def pair_intervals(
    log: SoftwareTimingLog, widths_ms: np.ndarray, markers: np.ndarray
) -> PairingResult:
    """Pair software rows with post-marker inference pulses by index.

    The first marker anchors the pairing; extra markers are counted and
    surfaced here, and classified as marker overlap downstream. All
    degradation lands in the result rather than raising: runs where
    pairing collapses are exactly the data of interest. Pre-marker
    (warmup) pulses are structurally excluded and never paired.
    """
    widths_ms = np.asarray(widths_ms, dtype=np.float64)
    markers = np.asarray(markers, dtype=bool)
    marker_at = np.flatnonzero(markers)
    rows = log.iterations.size
    if marker_at.size == 0:
        warnings = ("no synchronization marker found; cannot anchor pairing",) if widths_ms.size else ()
        return PairingResult(
            iterations=log.iterations[:0],
            software_ms=log.latencies_ms[:0],
            external_ms=widths_ms[:0],
            unmatched_software=rows,
            unmatched_pulses=widths_ms.size,
            inference_pulses=0,
            marker_found=False,
            pre_marker_pulses=0,
            extra_markers=0,
            warnings=warnings,
        )

    first, extra_markers = int(marker_at[0]), marker_at.size - 1
    warnings = ()
    if extra_markers:
        warnings = (
            f"{extra_markers} extra marker-width pulses after the first "
            "marker; possible marker/inference overlap",
        )
    inference = widths_ms[first + 1 :][~markers[first + 1 :]]
    n = min(rows, inference.size)
    return PairingResult(
        iterations=log.iterations[:n],
        software_ms=log.latencies_ms[:n],
        external_ms=inference[:n],
        unmatched_software=rows - n,
        unmatched_pulses=inference.size - n + extra_markers,
        inference_pulses=inference.size,
        marker_found=True,
        pre_marker_pulses=first,
        extra_markers=extra_markers,
        warnings=warnings,
    )
