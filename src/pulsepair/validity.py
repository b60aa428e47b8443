"""Run validity classification and observability-decoupling detection.

A run lands in exactly one of four classes:

  A  valid runtime and valid synchronization
  B  valid runtime, incomplete synchronization
  C  invalid runtime
  D  methodology failure

The claim rule lives on `ValidityClass`: external timing claims may use
only class A; software-only claims may additionally use class B. Nothing
is deleted: class B runs are the evidence that the external channel can
fail while the runtime looks healthy (observability decoupling).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Generic, Sequence, TypeVar

from .capture import RunMetadata, SoftwareTimingLog
from .pulses import MarkerSeparationCheck, PairingResult


class ValidityClass(enum.Enum):
    A = "valid runtime and valid synchronization"
    B = "valid runtime, incomplete synchronization"
    C = "invalid runtime"
    D = "methodology failure"

    @property
    def supports_external_claims(self) -> bool:
        """External timing claims may use class A only."""
        return self is ValidityClass.A

    @property
    def supports_software_claims(self) -> bool:
        """Software-only claims may use classes A and B."""
        return self in (ValidityClass.A, ValidityClass.B)


class FailureMode(enum.Enum):
    HEALTHY = "healthy"
    POST_MARKER_COLLAPSE = "post_marker_collapse"
    PARTIAL_TRANSITION_LOSS = "partial_transition_loss"
    COMPLETE_ACQUISITION_FAILURE = "complete_acquisition_failure"
    MARKER_OVERLAP = "marker_overlap"
    GPIO_LINE_MISOBSERVATION = "gpio_line_misobservation"
    PAIRING_FAILURE = "pairing_failure"


@dataclass(frozen=True)
class DecouplingReport:
    """Joint view of runtime completeness vs external observability.

    `transitions_expected` counts inference edges only (2 per expected
    iteration); marker and warmup edges are excluded from the budget.
    `loss_fraction` is defined only for partial transition loss.
    """

    run_id: str
    software_complete: bool
    marker_found: bool
    transitions_recovered: int
    transitions_expected: int
    pairs_formed: int
    failure_mode: FailureMode
    loss_fraction: float | None = None
    validity: ValidityClass | None = None

    @property
    def decoupled(self) -> bool:
        return self.software_complete and self.failure_mode is not FailureMode.HEALTHY


def detect_decoupling(
    log: SoftwareTimingLog,
    pairing: PairingResult,
    meta: RunMetadata,
    transitions_recovered: int,
    separation: MarkerSeparationCheck | None = None,
) -> DecouplingReport:
    """Assign the external failure mode and the validity class for one run.

    `transitions_recovered` is the raw edge count of the capture, before
    any pulse extraction. Rule order matters: an empty capture says
    nothing about markers, and a failed separation check poisons the
    pairing before pulse counts mean anything. So does a marker-width
    pulse after the first marker: it is a marker and an inference pulse
    the classifier cannot tell apart, whatever the separation check saw
    (with every pulse above the threshold it sees nothing and passes).

    Loss is judged from the post-marker inference pulses the capture
    holds, not from the pairs formed, so a short software log is never
    mistaken for lost transitions.
    """
    expected_iters = meta.iterations_expected
    transitions_expected = 2 * expected_iters
    recovered = min(pairing.inference_pulses, expected_iters)
    loss_fraction: float | None = None

    if transitions_recovered == 0:
        if meta.gpio_line_verified_absent:
            mode = FailureMode.GPIO_LINE_MISOBSERVATION
        else:
            # Deliberately no device-vs-host cause attribution: an empty
            # trace is ambiguous and stays that way.
            mode = FailureMode.COMPLETE_ACQUISITION_FAILURE
    elif pairing.extra_markers or (separation is not None and not separation.passed):
        mode = FailureMode.MARKER_OVERLAP
    elif not pairing.marker_found:
        mode = FailureMode.PAIRING_FAILURE
    elif recovered == 0:
        mode = FailureMode.POST_MARKER_COLLAPSE
    elif recovered < expected_iters:
        mode = FailureMode.PARTIAL_TRANSITION_LOSS
        loss_fraction = 1.0 - (2 * recovered) / transitions_expected
    else:
        mode = FailureMode.HEALTHY

    report = DecouplingReport(
        run_id=meta.run_id,
        software_complete=log.complete,
        marker_found=pairing.marker_found,
        transitions_recovered=transitions_recovered,
        transitions_expected=transitions_expected,
        pairs_formed=pairing.iterations.size,
        failure_mode=mode,
        loss_fraction=loss_fraction,
    )
    return replace(report, validity=classify_run_validity(report))


def classify_run_validity(report: DecouplingReport) -> ValidityClass:
    """Map a decoupling report to the four-way class. Precedence D > C > B > A.

    Methodology failures dominate: their statistics are untrustworthy
    even when every row and pulse is present. A failed separation check
    is one of them: it already set the failure mode to marker overlap.
    """
    if report.failure_mode in (FailureMode.MARKER_OVERLAP, FailureMode.GPIO_LINE_MISOBSERVATION):
        return ValidityClass.D
    if not report.software_complete:
        return ValidityClass.C
    if report.failure_mode is FailureMode.HEALTHY:
        return ValidityClass.A
    return ValidityClass.B


#: Anything with a `.validity`: a DecouplingReport or an analysis RunReport.
Classified = TypeVar("Classified")


@dataclass(frozen=True)
class ClaimViews(Generic[Classified]):
    """The two defensible aggregation views over a classified corpus."""

    external: tuple[Classified, ...]  # class A only
    software_only: tuple[Classified, ...]  # classes A and B


def split_claim_views(runs: Sequence[Classified]) -> ClaimViews[Classified]:
    """Split a classified corpus into external (A) and software-only (A+B) views.

    Classes C and D are excluded from both views but remain in the input;
    nothing is deleted.
    """
    _require_classified(runs)
    return ClaimViews(
        external=tuple(r for r in runs if r.validity.supports_external_claims),
        software_only=tuple(r for r in runs if r.validity.supports_software_claims),
    )


def _require_classified(runs: Sequence) -> None:
    for r in runs:
        if r.validity is None:
            raise ValueError(f"run {r.run_id} has no validity class; classify first")


def report_to_dict(report: DecouplingReport) -> dict:
    out = {
        "run_id": report.run_id,
        "software_complete": report.software_complete,
        "marker_found": report.marker_found,
        "transitions_recovered": report.transitions_recovered,
        "transitions_expected": report.transitions_expected,
        "pairs_formed": report.pairs_formed,
        "failure_mode": report.failure_mode.value,
        "loss_fraction": report.loss_fraction,
        "decoupled": report.decoupled,
    }
    if report.validity is not None:
        out["validity"] = {"class": report.validity.name, "label": report.validity.value}
    return out
