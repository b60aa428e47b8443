import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulsepair.analysis import analyze
from pulsepair.capture import RunMetadata, SoftwareTimingLog
from pulsepair.pulses import PairingResult, validate_marker_separation
from pulsepair.synth import FaultKind, FaultSpec, Gaussian, gen_run
from pulsepair.validity import (
    DecouplingReport,
    FailureMode,
    ValidityClass,
    detect_decoupling,
    split_claim_views,
    to_json,
)


def meta(**over):
    base = dict(
        run_id="r1",
        architecture="gpu_engine",
        condition="storage_stress",
        marker_width_ms=200.0,
        marker_threshold_ms=100.0,
        iterations_expected=100,
        warmup_iterations=0,
    )
    base.update(over)
    return RunMetadata(**base)


def log_with(n_rows, expected=100):
    return SoftwareTimingLog(
        run_id="r1", iterations_expected=expected, iterations=np.arange(n_rows),
        latencies_ms=np.full(n_rows, 1.5),
    )


def pairing_with(pairs, unmatched, marker_found=True, extra_markers=0):
    return PairingResult(
        iterations=np.arange(pairs),
        software_ms=np.full(pairs, 1.5),
        external_ms=np.full(pairs, 1.52),
        unmatched_software=unmatched,
        unmatched_pulses=extra_markers,
        inference_pulses=pairs,
        marker_found=marker_found,
        pre_marker_pulses=0,
        extra_markers=extra_markers,
    )


#: A separation check that passes: a 200 ms marker over 1.6 ms pulses.
SEPARATED = validate_marker_separation(200.0, [1.6])


class TestDetectDecoupling:
    def test_post_marker_collapse(self):
        # marker captured cleanly, then the entire pulse train lost:
        # 2 raw transitions against 200 expected inference edges
        rep = detect_decoupling(
            log_with(100), pairing_with(0, 100), meta(), transitions_recovered=2,
            separation=SEPARATED,
        )
        assert rep.failure_mode is FailureMode.POST_MARKER_COLLAPSE
        assert rep.software_complete and rep.decoupled
        assert rep.transitions_expected == 200

    def test_partial_transition_loss_fraction(self):
        rep = detect_decoupling(
            log_with(100), pairing_with(60, 40), meta(), transitions_recovered=122,
            separation=SEPARATED,
        )
        assert rep.failure_mode is FailureMode.PARTIAL_TRANSITION_LOSS
        assert rep.loss_fraction == pytest.approx(0.40)

    def test_complete_acquisition_failure_on_empty_stream(self):
        rep = detect_decoupling(
            log_with(100), pairing_with(0, 100, marker_found=False), meta(),
            transitions_recovered=0, separation=SEPARATED,
        )
        assert rep.failure_mode is FailureMode.COMPLETE_ACQUISITION_FAILURE

    def test_healthy_run(self):
        rep = detect_decoupling(
            log_with(100), pairing_with(100, 0), meta(), transitions_recovered=202,
            separation=SEPARATED,
        )
        assert rep.failure_mode is FailureMode.HEALTHY
        assert not rep.decoupled
        assert rep.loss_fraction is None

    def test_gpio_misobservation_requires_metadata_flag(self):
        m = meta(gpio_line_verified_absent=True)
        rep = detect_decoupling(
            log_with(100), pairing_with(0, 100, marker_found=False), m,
            transitions_recovered=0, separation=SEPARATED,
        )
        assert rep.failure_mode is FailureMode.GPIO_LINE_MISOBSERVATION

    def test_pairing_failure_when_transitions_but_no_marker(self):
        rep = detect_decoupling(
            log_with(100), pairing_with(0, 100, marker_found=False), meta(),
            transitions_recovered=40, separation=SEPARATED,
        )
        assert rep.failure_mode is FailureMode.PAIRING_FAILURE

    def test_failed_separation_dominates_pair_counts(self):
        sep = validate_marker_separation(200.0, [249.56])
        rep = detect_decoupling(
            log_with(100), pairing_with(100, 0), meta(), transitions_recovered=202,
            separation=sep,
        )
        assert rep.failure_mode is FailureMode.MARKER_OVERLAP

    @pytest.mark.parametrize("pairs", [0, 100])
    def test_extra_markers_are_marker_overlap(self, pairs):
        # A separation check that saw no inference pulse passes vacuously;
        # marker-width pulses after the anchor still mean overlap.
        sep = validate_marker_separation(200.0, [])
        rep = detect_decoupling(
            log_with(100), pairing_with(pairs, 100 - pairs, extra_markers=110), meta(),
            transitions_recovered=222, separation=sep,
        )
        assert rep.failure_mode is FailureMode.MARKER_OVERLAP
        assert rep.validity is ValidityClass.D


class TestClassifyValidity:
    def test_healthy_and_separated_is_a(self):
        sep = validate_marker_separation(200.0, [1.6])
        rep = detect_decoupling(
            log_with(100), pairing_with(100, 0), meta(), transitions_recovered=202,
            separation=sep,
        )
        assert rep.validity is ValidityClass.A

    @pytest.mark.parametrize(
        "pairs,unmatched,transitions",
        [(0, 100, 2), (60, 40, 122), (0, 100, 0)],
    )
    def test_external_degradation_with_complete_log_is_b(self, pairs, unmatched, transitions):
        marker_found = transitions > 0
        rep = detect_decoupling(
            log_with(100), pairing_with(pairs, unmatched, marker_found=marker_found),
            meta(), transitions_recovered=transitions, separation=SEPARATED,
        )
        assert rep.validity is ValidityClass.B

    def test_incomplete_software_is_c(self):
        rep = detect_decoupling(
            log_with(87), pairing_with(87, 0), meta(), transitions_recovered=176,
            separation=SEPARATED,
        )
        assert rep.validity is ValidityClass.C

    def test_marker_overlap_is_d(self):
        sep = validate_marker_separation(200.0, [249.56])
        rep = detect_decoupling(
            log_with(100), pairing_with(100, 0), meta(), transitions_recovered=202,
            separation=sep,
        )
        assert rep.validity is ValidityClass.D

    def test_d_takes_precedence_over_c(self):
        sep = validate_marker_separation(200.0, [249.56])
        rep = detect_decoupling(
            log_with(87), pairing_with(87, 0), meta(), transitions_recovered=176,
            separation=sep,
        )
        assert rep.validity is ValidityClass.D

    def test_degrading_external_stream_never_improves_class(self):
        # same complete log, progressively fewer paired pulses
        classes = []
        for pairs, transitions in [(100, 202), (60, 122), (0, 2), (0, 0)]:
            marker = transitions >= 2
            rep = detect_decoupling(
                log_with(100),
                pairing_with(pairs, 100 - pairs, marker_found=marker),
                meta(),
                transitions_recovered=transitions,
                separation=SEPARATED,
            )
            classes.append(rep.validity)
        order = {ValidityClass.A: 0, ValidityClass.B: 1, ValidityClass.C: 2, ValidityClass.D: 3}
        ranks = [order[c] for c in classes]
        assert ranks == sorted(ranks)
        assert classes[0] is ValidityClass.A
        assert all(c is ValidityClass.B for c in classes[1:])


def classified(mode, validity, run_id="r"):
    return DecouplingReport(
        run_id=run_id,
        software_complete=True,
        marker_found=True,
        transitions_recovered=202,
        transitions_expected=200,
        pairs_formed=100,
        failure_mode=mode,
        loss_fraction=None,
        decoupled=mode is not FailureMode.HEALTHY,
        validity=validity,
    )


class TestClaimFiltering:
    def corpus(self):
        return [
            classified(FailureMode.HEALTHY, ValidityClass.A, "a1"),
            classified(FailureMode.PARTIAL_TRANSITION_LOSS, ValidityClass.B, "b1"),
            classified(FailureMode.HEALTHY, ValidityClass.A, "a2"),
            classified(FailureMode.MARKER_OVERLAP, ValidityClass.D, "d1"),
        ]

    def test_external_view_is_class_a_only(self):
        ext = split_claim_views(self.corpus()).external
        assert [r.run_id for r in ext] == ["a1", "a2"]

    def test_views_split(self):
        views = split_claim_views(self.corpus())
        assert [r.run_id for r in views.external] == ["a1", "a2"]
        assert [r.run_id for r in views.software_only] == ["a1", "b1", "a2"]

    def test_all_a_is_identity(self):
        runs = [classified(FailureMode.HEALTHY, ValidityClass.A, f"a{i}") for i in range(3)]
        assert split_claim_views(runs).external == tuple(runs)

    def test_all_d_yields_empty_views(self):
        runs = [classified(FailureMode.MARKER_OVERLAP, ValidityClass.D, f"d{i}") for i in range(3)]
        views = split_claim_views(runs)
        assert views.external == () and views.software_only == ()


def test_report_serialization_includes_class_letter():
    rep = detect_decoupling(log_with(100), pairing_with(60, 40), meta(), transitions_recovered=122,
                            separation=SEPARATED)
    d = to_json(rep)
    assert d["validity"]["class"] == "B"
    assert d["failure_mode"] == "partial_transition_loss"
    assert d["loss_fraction"] == pytest.approx(0.40)


def legacy_report_dict(report):
    """The dict the hand-written report serializer wrote before `to_json`."""
    return {
        "run_id": report.run_id,
        "software_complete": report.software_complete,
        "marker_found": report.marker_found,
        "transitions_recovered": report.transitions_recovered,
        "transitions_expected": report.transitions_expected,
        "pairs_formed": report.pairs_formed,
        "failure_mode": report.failure_mode.value,
        "loss_fraction": report.loss_fraction,
        "decoupled": report.software_complete and report.failure_mode is not FailureMode.HEALTHY,
        "validity": {"class": report.validity.name, "label": report.validity.value},
    }


@settings(deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(FaultKind),
    drop_fraction=st.floats(0.01, 0.99),
    complete=st.booleans(),
    line_absent=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_encoder_matches_the_legacy_report_dict(kind, drop_fraction, complete, line_absent, seed):
    """For every fault kind, and with complete and truncated software logs,
    the generic encoder writes the same JSON bytes the hand-written one did."""
    overlap = kind is FaultKind.MARKER_OVERLAP  # a 5 ms marker over ~1.2 ms pulses
    fault = FaultSpec(kind=kind,
                      drop_fraction=drop_fraction if kind is FaultKind.PARTIAL_LOSS else None,
                      marker_width_ms=5.0 if overlap else None)
    m = meta(iterations_expected=20, warmup_iterations=3, gpio_line_verified_absent=line_absent,
             **({"marker_width_ms": 5.0, "marker_threshold_ms": 4.0} if overlap else {}))
    run = gen_run(Gaussian(1.228, 0.06), m, fault=fault, seed=seed)
    rows = 20 if complete else 11
    log = dataclasses.replace(run.log, iterations=run.log.iterations[:rows],
                              latencies_ms=run.log.latencies_ms[:rows])
    report = analyze(log, run.stream, m).report
    got, want = to_json(report), legacy_report_dict(report)
    assert got == want
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("iterations,warning", [
    (np.arange(50), "software log incomplete: 50 of 100 rows, indices 0..49 (expected 0..99)"),
    (np.delete(np.arange(101), 50),
     "software log incomplete: 100 of 100 rows, indices 0..100 (expected 0..99)"),
    (np.arange(0), "software log incomplete: 0 of 100 rows"),
])
def test_incomplete_log_warning_text(iterations, warning):
    run = gen_run(Gaussian(1.228, 0.06), meta(), seed=0)
    log = dataclasses.replace(run.log, iterations=iterations,
                              latencies_ms=np.full(iterations.size, 1.2))
    assert warning in analyze(log, run.stream, run.meta).warnings
