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
import math
from dataclasses import dataclass
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
    `loss_fraction` is defined only for partial transition loss. A run is
    `decoupled` when its software log is complete and its external
    channel is not healthy.
    """

    run_id: str
    software_complete: bool
    marker_found: bool
    transitions_recovered: int
    transitions_expected: int
    pairs_formed: int
    failure_mode: FailureMode
    loss_fraction: float | None
    decoupled: bool
    validity: ValidityClass


def detect_decoupling(
    log: SoftwareTimingLog,
    pairing: PairingResult,
    meta: RunMetadata,
    transitions_recovered: int,
    separation: MarkerSeparationCheck,
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
    complete = log.complete
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
    elif pairing.extra_markers or not separation.passed:
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

    return DecouplingReport(
        run_id=meta.run_id,
        software_complete=complete,
        marker_found=pairing.marker_found,
        transitions_recovered=transitions_recovered,
        transitions_expected=transitions_expected,
        pairs_formed=pairing.iterations.size,
        failure_mode=mode,
        loss_fraction=loss_fraction,
        decoupled=complete and mode is not FailureMode.HEALTHY,
        validity=classify_run_validity(mode, complete),
    )


def classify_run_validity(mode: FailureMode, software_complete: bool) -> ValidityClass:
    """Map a failure mode and log completeness to the four-way class.

    Precedence D > C > B > A. Methodology failures dominate: their
    statistics are untrustworthy even when every row and pulse is
    present. A failed separation check is one of them: it already set
    the failure mode to marker overlap.
    """
    if mode in (FailureMode.MARKER_OVERLAP, FailureMode.GPIO_LINE_MISOBSERVATION):
        return ValidityClass.D
    if not software_complete:
        return ValidityClass.C
    if mode is FailureMode.HEALTHY:
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
    return ClaimViews(
        external=tuple(r for r in runs if r.validity.supports_external_claims),
        software_only=tuple(r for r in runs if r.validity.supports_software_claims),
    )


def to_json(value):
    """The JSON form of a report value: the one encoder for report dataclasses.

    A dataclass maps each field by its name, so units belong in field
    names. `ValidityClass` is written as {"class", "label"}, every other
    enum by its value, and an infinite float as null (JSON has no
    infinity). Lists and tuples map item by item.
    """
    if isinstance(value, float):
        return None if math.isinf(value) else value
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, enum.Enum):
        if isinstance(value, ValidityClass):
            return {"class": value.name, "label": value.value}
        return value.value
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    return {name: to_json(getattr(value, name)) for name in value.__dataclass_fields__}
