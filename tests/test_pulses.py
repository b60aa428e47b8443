import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pulsepair.capture import DEFAULT_SAMPLE_PERIOD_S, SoftwareTimingLog, TransitionStream
from pulsepair.pulses import (
    PairingResult,
    classify_pulses,
    extract_pulses,
    pair_intervals,
    validate_marker_separation,
)

from oracles import brute_pair_edges


def stream_from_ticks(ticks, start_level=1):
    """Alternating-edge stream on the 100 ns grid, first edge at start_level."""
    times = sorted(t * 1e-7 for t in ticks)
    return TransitionStream(times_s=times, initial_level=1 - start_level if times else 0)


def make_log(n, latency=1.5):
    return SoftwareTimingLog(
        run_id="r", iterations_expected=n, iterations=np.arange(n), latencies_ms=np.full(n, latency)
    )


class TestExtractPulses:
    def test_empty_stream(self):
        res = extract_pulses(TransitionStream(times_s=[]))
        assert res.starts_s.size == 0
        assert res.orphan_edges == 0

    def test_single_pulse_width(self):
        stream = TransitionStream(times_s=[0.0, 0.001])
        res = extract_pulses(stream)
        assert res.starts_s.size == 1
        assert res.widths_ms[0] == pytest.approx(1.0)

    def test_leading_fall_is_an_orphan(self):
        # fall, rise, fall, rise, fall: orphan lead + two complete pulses
        stream = stream_from_ticks([10, 20, 30, 40, 50], start_level=0)
        res = extract_pulses(stream)
        assert res.orphan_edges == 1
        assert res.starts_s.size == 2

    def test_trailing_rise_is_an_orphan(self):
        # rise, fall, rise: one pulse + orphan trailing rise
        stream = stream_from_ticks([10, 20, 30], start_level=1)
        res = extract_pulses(stream)
        assert res.orphan_edges == 1
        assert res.starts_s.size == 1

    def test_matches_brute_force_pairer_on_random_streams(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            n = int(rng.integers(0, 41))
            ticks = np.unique(rng.integers(1, 10**7, size=n))
            start_level = int(rng.integers(0, 2))
            stream = stream_from_ticks(ticks.tolist(), start_level=start_level)
            res = extract_pulses(stream)
            edges = list(zip(stream.times_s.tolist(), stream.levels.tolist()))
            expected_pulses, expected_orphans = brute_pair_edges(edges)
            got = list(zip(res.starts_s.tolist(), res.ends_s.tolist()))
            assert got == expected_pulses
            assert res.orphan_edges == expected_orphans
            # conservation: every edge is either in a pulse or an orphan
            assert len(edges) == 2 * res.starts_s.size + res.orphan_edges

    def test_width_at_least_sample_period(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ticks = np.unique(rng.integers(1, 10**6, size=int(rng.integers(2, 30))))
            stream = stream_from_ticks(ticks.tolist(), start_level=1)
            res = extract_pulses(stream)
            for start_s, end_s in zip(res.starts_s, res.ends_s):
                assert end_s - start_s >= DEFAULT_SAMPLE_PERIOD_S - 1e-15


class TestClassifyPulses:
    def test_marker_above_threshold(self):
        (is_marker,) = classify_pulses([1000.0], threshold_ms=800.0)
        assert is_marker

    def test_inference_below_threshold(self):
        (is_marker,) = classify_pulses([250.0], threshold_ms=800.0)
        assert not is_marker

    def test_boundary_width_is_marker(self):
        (is_marker,) = classify_pulses([800.0], threshold_ms=800.0)
        assert is_marker

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            classify_pulses([1.0], threshold_ms=0.0)


class TestLocateMarker:
    """The marker is the first hit of the classifier's mask; pairing anchors on it."""

    def locate(self, is_marker):
        widths = np.where(is_marker, 1000.0, 1.0)
        markers = classify_pulses(widths, threshold_ms=800.0)
        return np.flatnonzero(markers), pair_intervals(make_log(0), widths, markers)

    def test_warmup_then_marker_then_inference(self):
        marker_at, res = self.locate([False] * 10 + [True] + [False] * 100)
        assert res.marker_found and marker_at[0] == 10 and res.pre_marker_pulses == 10
        assert marker_at.size == 1 and not res.warnings

    def test_no_marker(self):
        marker_at, res = self.locate([False] * 100)
        assert not res.marker_found and marker_at.size == 0

    def test_marker_alone(self):
        marker_at, res = self.locate([True])
        assert res.marker_found and marker_at[0] == 0 and res.pre_marker_pulses == 0

    def test_multiple_markers_flagged_not_fatal(self):
        marker_at, res = self.locate([True, False, True])
        assert res.marker_found and marker_at[0] == 0
        assert res.warnings and tuple(marker_at[1:]) == (2,)


class TestMarkerSeparation:
    def test_overlapping_marker_fails(self):
        chk = validate_marker_separation(200.0, [150.0, 249.56])
        assert not chk.passed
        assert chk.margin_ratio == pytest.approx(200.0 / 249.56)

    def test_margin_is_configuration_sensitive(self):
        widths = [265.392]
        at_default = validate_marker_separation(1000.0, widths)  # min_margin 4.0
        relaxed = validate_marker_separation(1000.0, widths, min_margin=3.0)
        assert not at_default.passed
        assert relaxed.passed
        assert at_default.margin_ratio == pytest.approx(3.768, abs=0.001)

    def test_no_observations_passes_with_infinite_margin(self):
        chk = validate_marker_separation(1000.0, [])
        assert chk.passed and math.isinf(chk.margin_ratio)
        assert chk.inference_max_observed_ms is None

    def test_nonpositive_marker_rejected(self):
        with pytest.raises(ValueError):
            validate_marker_separation(0.0, [1.0])

    @pytest.mark.parametrize("min_margin", [0.0, -1.0])
    def test_nonpositive_min_margin_rejected(self, min_margin):
        # a margin of 0 would pass every separation check
        with pytest.raises(ValueError, match="min_margin"):
            validate_marker_separation(200.0, [1.0], min_margin=min_margin)

    def test_ratio_of_exactly_min_margin_passes(self):
        chk = validate_marker_separation(400.0, [1.5, 100.0], min_margin=4.0)
        assert chk.margin_ratio == 4.0
        assert chk.passed
        assert not validate_marker_separation(400.0, [1.5, 100.0001], min_margin=4.0).passed

    def test_min_margin_below_one_is_accepted(self):
        # a marker narrower than the widest inference pulse, tolerated on purpose
        chk = validate_marker_separation(200.0, [1.0, 300.0], min_margin=0.5)
        assert chk.min_margin == 0.5
        assert chk.passed


def classified_run(n_inference, warmup=0, extra_markers=0):
    """Pulse widths (ms) and the marker mask of one classified run."""
    widths = [1.5] * warmup + [200.0] + [1.5] * n_inference + [300.0] * extra_markers
    markers = [False] * warmup + [True] + [False] * n_inference + [True] * extra_markers
    return np.array(widths), np.array(markers)


class TestPairIntervals:
    def test_full_pairing(self):
        res = pair_intervals(make_log(100), *classified_run(100, warmup=10))
        assert len(res.pairs) == 100
        assert res.unmatched_software == 0
        assert res.unmatched_pulses == 0
        assert res.pre_marker_pulses == 10

    def test_partial_pairing(self):
        res = pair_intervals(make_log(100), *classified_run(60))
        assert len(res.pairs) == 60
        assert res.unmatched_software == 40
        # order-preserving: the k-th pulse pairs with the k-th row
        assert res.iterations.tolist() == list(range(60))

    def test_extra_markers_are_counted(self):
        res = pair_intervals(make_log(100), *classified_run(100, extra_markers=2))
        assert res.extra_markers == 2
        assert pair_intervals(make_log(100), *classified_run(100)).extra_markers == 0

    def test_post_marker_collapse_pairing(self):
        res = pair_intervals(make_log(100), *classified_run(0))
        assert res.iterations.size == 0
        assert res.unmatched_software == 100
        assert res.marker_found

    def test_no_marker_means_no_pairs(self):
        res = pair_intervals(make_log(100), np.full(20, 1.5), np.zeros(20, dtype=bool))
        assert not res.marker_found
        assert res.iterations.size == res.software_ms.size == res.external_ms.size == 0
        assert res.unmatched_software == 100
        assert res.unmatched_pulses == 20

    def test_pairs_plus_unmatched_equals_rows(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            rows = int(rng.integers(0, 30))
            pulses = int(rng.integers(0, 30))
            res = pair_intervals(make_log(rows) if rows else make_log(0), *classified_run(pulses))
            assert len(res.pairs) + res.unmatched_software == rows

    def test_extra_pulses_never_change_pairs(self):
        log = make_log(50)
        base = pair_intervals(log, *classified_run(80))
        more = pair_intervals(log, *classified_run(95, extra_markers=2))
        assert np.array_equal(base.pairs, more.pairs)

    def test_extra_markers_become_unmatched_with_warning(self):
        res = pair_intervals(make_log(10), *classified_run(10, extra_markers=2))
        assert len(res.pairs) == 10
        assert res.unmatched_pulses == 2
        assert any("extra marker" in w for w in res.warnings)


@pytest.mark.parametrize("sizes", [(3, 2, 3), (3, 3, 2), (2, 3, 3), (0, 1, 0)])
def test_pair_columns_must_have_equal_lengths(sizes):
    i, sw, ext = sizes
    with pytest.raises(ValueError, match="pair columns"):
        PairingResult(
            iterations=np.arange(i), software_ms=np.ones(sw), external_ms=np.ones(ext),
            unmatched_software=0, unmatched_pulses=0, inference_pulses=3, marker_found=True,
            pre_marker_pulses=0, extra_markers=0,
        )
