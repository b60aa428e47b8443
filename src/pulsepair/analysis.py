"""Whole-run and multi-run analysis: the composed pipeline behind the CLI.

`analyze_run` loads one run directory (software CSV, transition CSV,
metadata JSON) and produces the full per-run report: pairing, separation
check, decoupling report, validity class, and the statistics each class
is allowed to carry under the claim rule on `ValidityClass`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .capture import (
    RunMetadata,
    SoftwareTimingLog,
    TransitionStream,
    load_run_metadata,
    load_software_log,
    load_transition_stream,
)
from .pulses import (
    DEFAULT_MIN_MARGIN,
    MarkerSeparationCheck,
    PairingResult,
    classify_pulses,
    extract_pulses,
    pair_intervals,
    validate_marker_separation,
)
from .stats import RunSummary, run_summary
from .validity import DecouplingReport, ValidityClass, detect_decoupling, to_json

SOFTWARE_CSV = "software.csv"
TRANSITIONS_CSV = "transitions.csv"
METADATA_JSON = "metadata.json"


@dataclass(frozen=True, eq=False)
class RunReport:
    meta: RunMetadata
    report: DecouplingReport
    separation: MarkerSeparationCheck
    pairing: PairingResult
    orphan_edges: int
    software_summary: RunSummary | None
    external_summary: RunSummary | None
    software_latencies: np.ndarray
    warnings: tuple[str, ...]

    @property
    def validity(self) -> ValidityClass:
        return self.report.validity


def analyze(
    log: SoftwareTimingLog,
    stream: TransitionStream,
    meta: RunMetadata,
    marker_threshold_ms: float | None = None,
    min_margin: float = DEFAULT_MIN_MARGIN,
) -> RunReport:
    """Run the full pipeline on in-memory inputs."""
    threshold = meta.marker_threshold_ms if marker_threshold_ms is None else marker_threshold_ms
    extraction = extract_pulses(stream)
    widths = extraction.widths_ms
    markers = classify_pulses(widths, threshold)
    separation = validate_marker_separation(meta.marker_width_ms, widths[~markers], min_margin)
    pairing = pair_intervals(log, widths, markers)
    report = detect_decoupling(log, pairing, meta, transitions_recovered=len(stream),
                               separation=separation)

    warnings = list(pairing.warnings)
    if not separation.passed:
        warnings.append(
            f"marker separation failed: margin ratio {separation.margin_ratio:.3f} "
            f"below minimum {separation.min_margin:.3f}"
        )
    if extraction.orphan_edges:
        warnings.append(f"{extraction.orphan_edges} orphan edge(s) at capture boundaries")
    if not log.complete:
        its, n = log.iterations, log.iterations_expected
        indexed = f", indices {its[0]}..{its[-1]} (expected 0..{n - 1})" if its.size else ""
        warnings.append(f"software log incomplete: {its.size} of {n} rows{indexed}")

    software_summary = None
    external_summary = None
    if report.validity.supports_software_claims and log.iterations.size:
        software_summary = run_summary(
            log.latencies_ms, run_id=meta.run_id, condition=meta.condition
        )
    if report.validity.supports_external_claims and pairing.external_ms.size:
        external_summary = run_summary(
            pairing.external_ms, run_id=meta.run_id, condition=meta.condition
        )

    return RunReport(
        meta=meta,
        report=report,
        separation=separation,
        pairing=pairing,
        orphan_edges=extraction.orphan_edges,
        software_summary=software_summary,
        external_summary=external_summary,
        software_latencies=log.latencies_ms,
        warnings=tuple(warnings),
    )


def analyze_run(
    run_dir: str | Path,
    marker_threshold_ms: float | None = None,
    min_margin: float = DEFAULT_MIN_MARGIN,
) -> RunReport:
    """Load one run directory and analyze it."""
    run_dir = Path(run_dir)
    meta = load_run_metadata(run_dir / METADATA_JSON)
    log = load_software_log(
        run_dir / SOFTWARE_CSV, expected=meta.iterations_expected, run_id=meta.run_id
    )
    stream = load_transition_stream(run_dir / TRANSITIONS_CSV)
    return analyze(log, stream, meta, marker_threshold_ms=marker_threshold_ms,
                   min_margin=min_margin)


def run_report_to_dict(rr: RunReport) -> dict:
    """Three metadata fields and the pairing counts; every other part goes through `to_json`."""
    return {
        "run_id": rr.meta.run_id,
        "architecture": rr.meta.architecture,
        "condition": rr.meta.condition,
        "validity": to_json(rr.validity),
        "decoupling": to_json(rr.report),
        "separation": to_json(rr.separation),
        "pairing": {
            "pairs": rr.pairing.iterations.size,
            "unmatched_software": rr.pairing.unmatched_software,
            "unmatched_pulses": rr.pairing.unmatched_pulses,
            "pre_marker_pulses": rr.pairing.pre_marker_pulses,
            "marker_found": rr.pairing.marker_found,
        },
        "orphan_edges": rr.orphan_edges,
        "software_summary": to_json(rr.software_summary),
        "external_summary": to_json(rr.external_summary),
        "warnings": list(rr.warnings),
    }


def run_report_to_json(rr: RunReport, path: str | Path | None = None) -> str:
    text = json.dumps(run_report_to_dict(rr), indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def run_report_to_text(rr: RunReport) -> str:
    lines = [
        f"run {rr.meta.run_id} ({rr.meta.architecture}, {rr.meta.condition})",
        f"  validity: {rr.validity.name} ({rr.validity.value})",
        f"  failure mode: {rr.report.failure_mode.value}"
        + (
            f" (loss fraction {rr.report.loss_fraction:.3f})"
            if rr.report.loss_fraction is not None
            else ""
        ),
        f"  software rows: {rr.pairing.iterations.size + rr.pairing.unmatched_software}"
        f" (complete: {rr.report.software_complete})",
        f"  transitions: {rr.report.transitions_recovered} recovered"
        f" / {rr.report.transitions_expected} expected (inference edges)",
        f"  pairs formed: {rr.report.pairs_formed}",
    ]
    if rr.software_summary is not None:
        s = rr.software_summary
        lines.append(
            f"  software latency: mean {s.mean_ms:.3f} ms, sd {s.sd_ms:.3f}, "
            f"p99 {s.p99_ms:.3f}, max {s.max_ms:.3f} (n={s.n})"
        )
    if rr.external_summary is not None:
        s = rr.external_summary
        lines.append(
            f"  external width:   mean {s.mean_ms:.3f} ms, sd {s.sd_ms:.3f}, "
            f"p99 {s.p99_ms:.3f}, max {s.max_ms:.3f} (n={s.n})"
        )
    for w in rr.warnings:
        lines.append(f"  warning: {w}")
    return "\n".join(lines)
