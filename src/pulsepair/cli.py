"""Command-line surface: analyze, condition, synth.

Exit codes for `analyze` are a function of the validity class only:
0 for classes A and B, 2 for class C, 3 for class D, and 1 for usage
errors, missing or malformed inputs and outputs that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import RunReport, analyze_run, run_report_to_dict, run_report_to_json, run_report_to_text
from .capture import FormatError, IntegrityError
from .presets import PRESETS, build_preset, load_scenario
from .pulses import DEFAULT_MIN_MARGIN
from .stats import (
    DEFAULT_P99_RATIO_THRESHOLD,
    DEFAULT_SD_COLLAPSE_THRESHOLD,
    condition_summary,
    detect_regime_shift,
    detect_tail_inflation,
    ecdf,
    ecdf_to_csv,
    format_condition_table,
)
from .synth import write_runs
from .validity import ValidityClass, split_claim_views, to_json

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID_RUNTIME = 2
EXIT_METHODOLOGY_FAILURE = 3

_CLASS_EXIT = {
    ValidityClass.A: EXIT_OK,
    ValidityClass.B: EXIT_OK,
    ValidityClass.C: EXIT_INVALID_RUNTIME,
    ValidityClass.D: EXIT_METHODOLOGY_FAILURE,
}


def positive(text: str) -> float:
    """argparse type for a number that must be above zero."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    Reuse is safe: the parser depends on no input, no action mutates a
    default, and each `parse_args` call fills a fresh Namespace.
    """
    parser = argparse.ArgumentParser(
        prog="pulsepair",
        description="Validate software-reported latency against externally observed pulses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one run directory")
    p_analyze.add_argument("run_dir", type=Path)
    p_analyze.add_argument("--out", type=Path, default=None,
                           help="directory for report.json and report.txt")
    p_analyze.add_argument("--marker-threshold-ms", type=positive, default=None,
                           help="override the metadata classifier threshold")
    p_analyze.add_argument("--min-margin", type=positive, default=DEFAULT_MIN_MARGIN)
    p_analyze.add_argument("--format", choices=("json", "text"), default="text")

    p_cond = sub.add_parser("condition", help="aggregate several runs of one condition")
    p_cond.add_argument("run_dirs", type=Path, nargs="+")
    p_cond.add_argument("--baseline", type=Path, nargs="+", default=None,
                        help="baseline run directories for the detectors")
    p_cond.add_argument("--out", type=Path, required=True, help="output directory")
    p_cond.add_argument("--marker-threshold-ms", type=positive, default=None)
    p_cond.add_argument("--min-margin", type=positive, default=DEFAULT_MIN_MARGIN)
    p_cond.add_argument("--p99-ratio-threshold", type=positive,
                        default=DEFAULT_P99_RATIO_THRESHOLD)
    p_cond.add_argument("--sd-collapse-threshold", type=positive,
                        default=DEFAULT_SD_COLLAPSE_THRESHOLD)
    p_cond.add_argument("--format", choices=("json", "text"), default="text")

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("scenario",
                         help=f"preset name ({', '.join(sorted(PRESETS))}) or JSON scenario file")
    p_synth.add_argument("--out-dir", type=Path, required=True)
    p_synth.add_argument("--seed", type=int, default=None,
                         help="master seed; default: the scenario file's master_seed, 0 for presets")

    return parser


def cmd_analyze(args: argparse.Namespace) -> int:
    rr = analyze_run(args.run_dir, marker_threshold_ms=args.marker_threshold_ms,
                     min_margin=args.min_margin)
    text = run_report_to_text(rr)
    if args.out is None:
        encoded = run_report_to_json(rr) if args.format == "json" else None
    else:
        args.out.mkdir(parents=True, exist_ok=True)
        encoded = run_report_to_json(rr, args.out / "report.json")
        (args.out / "report.txt").write_text(text + "\n")
    print(encoded if args.format == "json" else text)
    return _CLASS_EXIT[rr.validity]


def _analyze_many(run_dirs: Sequence[Path], args: argparse.Namespace) -> list[RunReport]:
    reports = []
    for d in run_dirs:
        reports.append(analyze_run(d, marker_threshold_ms=args.marker_threshold_ms,
                                   min_margin=args.min_margin))
    return reports


def cmd_condition(args: argparse.Namespace) -> int:
    reports = _analyze_many(args.run_dirs, args)
    baseline_reports = _analyze_many(args.baseline, args) if args.baseline else None
    for group in (reports, baseline_reports or ()):
        conditions = sorted({r.meta.condition for r in group})
        if len(conditions) > 1:
            print(f"error: runs of more than one condition {conditions}; "
                  "condition aggregates runs of one", file=sys.stderr)
            return EXIT_ERROR
    architectures = sorted({r.meta.architecture for r in (*reports, *(baseline_reports or ()))})
    if len(architectures) > 1:
        print(f"error: runs of more than one architecture {architectures}; "
              "condition and --baseline take runs of one", file=sys.stderr)
        return EXIT_ERROR

    views = split_claim_views(reports)
    external_runs, software_runs = views.external, views.software_only

    payload: dict = {
        "runs": [run_report_to_dict(r) for r in reports],
        "external_view": {
            "runs": [r.meta.run_id for r in external_runs],
            "summary": None,
        },
        "software_only_view": {
            "runs": [r.meta.run_id for r in software_runs],
            "summary": None,
        },
        "detectors": {},
        "warnings": [],
    }

    table_sections: list[str] = []
    args.out.mkdir(parents=True, exist_ok=True)

    ext_summaries = [r.external_summary for r in external_runs if r.external_summary]
    if ext_summaries:
        ext_cond = condition_summary(ext_summaries)
        payload["external_view"]["summary"] = to_json(ext_cond)
        table_sections.append("External timing (class A runs only)\n"
                              + format_condition_table([ext_cond]))
        pooled = np.concatenate([r.pairing.external_ms for r in external_runs])
        ecdf_to_csv(ecdf(pooled), args.out / "external_ecdf.csv")
    else:
        # A reused --out directory must not keep a curve this corpus cannot support.
        (args.out / "external_ecdf.csv").unlink(missing_ok=True)
        payload["no_defensible_external_claims"] = True
        payload["warnings"].append(
            "no class-A runs: aggregate external timing claims are not defensible "
            "from this corpus"
        )
        table_sections.append("External timing: no defensible external claims "
                              "(zero class-A runs)")

    sw_summaries = [r.software_summary for r in software_runs if r.software_summary]
    if sw_summaries:
        sw_cond = condition_summary(sw_summaries)
        payload["software_only_view"]["summary"] = to_json(sw_cond)
        table_sections.append("Software-reported timing (class A and B runs)\n"
                              + format_condition_table([sw_cond]))
        pooled_lat = np.concatenate([r.software_latencies for r in software_runs])
        ecdf_to_csv(ecdf(pooled_lat), args.out / "software_ecdf.csv")
    else:
        (args.out / "software_ecdf.csv").unlink(missing_ok=True)
        payload["warnings"].append("no class-A or class-B runs: no software-only claims")

    if baseline_reports is not None and sw_summaries:
        base_sw = [r.software_summary for r in baseline_reports if r.software_summary]
        for detector, needed in (("tail_inflation", 1), ("regime_shift", 2)):
            if len(base_sw) < needed:
                payload["warnings"].append(
                    f"{detector} detector skipped: it needs {needed} baseline run(s) of "
                    f"class A or B; --baseline has {len(base_sw)}")
        if base_sw:
            base_cond = condition_summary(base_sw)
            payload["detectors"]["tail_inflation"] = to_json(detect_tail_inflation(
                base_cond, sw_cond, p99_ratio_threshold=args.p99_ratio_threshold))
        if len(base_sw) >= 2:
            payload["detectors"]["regime_shift"] = to_json([
                detect_regime_shift(base_sw, s, collapse_threshold=args.sd_collapse_threshold)
                for s in sw_summaries
            ])

    text = "\n\n".join(table_sections) + "\n"
    encoded = json.dumps(payload, indent=2, sort_keys=True)
    (args.out / "condition_report.json").write_text(encoded + "\n")
    (args.out / "condition_table.txt").write_text(text)
    print(encoded if args.format == "json" else text)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    scenario = args.scenario
    try:
        if scenario in PRESETS:
            runs = build_preset(scenario, master_seed=args.seed or 0)
        elif Path(scenario).exists():
            runs = load_scenario(scenario, master_seed=args.seed)
        else:
            print(f"error: unknown preset or missing scenario file {scenario!r}; "
                  f"known presets: {', '.join(sorted(PRESETS))}", file=sys.stderr)
            return EXIT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    write_runs(runs, args.out_dir)
    print(f"wrote {len(runs)} run(s) under {args.out_dir}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed usage and the error; its exit 2 would read as class C
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "condition":
            return cmd_condition(args)
        return cmd_synth(args)
    except (OSError, FormatError, IntegrityError) as exc:  # each names its file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
