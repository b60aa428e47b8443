"""Validate software-reported latency against an external transition stream.

The package pairs a per-iteration software timing log with the pulse
train an independent observer captured on the wrapped GPIO line,
classifies each run's validity, detects observability failures the
software side cannot see, and computes run- and condition-level latency
statistics. A seeded synthetic generator with fault injection stands in
for the hardware so every analysis path is testable at desk scale.
"""

from .capture import (
    FormatError,
    IntegrityError,
    RunMetadata,
    SoftwareTimingLog,
    TransitionStream,
    dump_run_metadata,
    dump_software_log,
    dump_transition_stream,
    load_run_metadata,
    load_software_log,
    load_transition_stream,
)
from .pulses import (
    MarkerSeparationCheck,
    PairingResult,
    PulseExtraction,
    classify_pulses,
    extract_pulses,
    pair_intervals,
    validate_marker_separation,
)
from .validity import (
    ClaimViews,
    DecouplingReport,
    FailureMode,
    ValidityClass,
    classify_run_validity,
    detect_decoupling,
    split_claim_views,
)
from .stats import (
    ConditionSummary,
    EcdfCurve,
    RegimeShiftFlag,
    RunSummary,
    TailInflationFlag,
    condition_summary,
    detect_regime_shift,
    detect_tail_inflation,
    ecdf,
    format_condition_table,
    run_summary,
)
from .synth import (
    FaultKind,
    FaultSpec,
    Gaussian,
    GeneratedRun,
    GroundTruth,
    Mixture,
    Spiked,
    gen_condition,
    gen_run,
    write_run_dir,
)
from .analysis import RunReport, analyze, analyze_run
from .presets import PRESETS, build_preset, load_scenario, write_preset

__version__ = "0.1.0"
