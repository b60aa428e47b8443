import dataclasses
import filecmp
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pulsepair.analysis import analyze
from pulsepair.capture import RunMetadata, TransitionStream
from pulsepair.pulses import DEFAULT_MIN_MARGIN, extract_pulses
from pulsepair.synth import (
    FaultKind,
    FaultSpec,
    Gaussian,
    GroundTruth,
    Mixture,
    Spiked,
    gen_condition,
    gen_run,
    write_run_dir,
)
from pulsepair.validity import FailureMode, ValidityClass


def trt_meta(run_id="run", warmup=10, iterations=100):
    return RunMetadata(
        run_id=run_id,
        architecture="gpu_engine",
        condition="baseline",
        marker_width_ms=200.0,
        marker_threshold_ms=100.0,
        iterations_expected=iterations,
        warmup_iterations=warmup,
    )


DIST = Gaussian(mean_ms=1.228, sd_ms=0.06)


class TestDistSpecs:
    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Mixture(components=((0.5, Gaussian(1.0, 0.1)), (0.4, Gaussian(2.0, 0.1))))

    def test_spike_prob_range(self):
        with pytest.raises(ValueError):
            Spiked(base=Gaussian(1.0, 0.1), spike_prob=1.0, spike_scale=2.0)

    def test_truncation_floor(self):
        rng = np.random.default_rng(0)
        draws = Gaussian(mean_ms=0.02, sd_ms=1.0).sample(rng, 1000)
        assert draws.min() >= 0.01

    def test_mixture_sampling_hits_all_components(self):
        rng = np.random.default_rng(1)
        mix = Mixture(components=((0.3, Gaussian(10.0, 0.5)), (0.7, Gaussian(100.0, 0.5))))
        draws = mix.sample(rng, 500)
        assert (draws < 50).sum() > 80
        assert (draws > 50).sum() > 250


class TestFaultSpec:
    def test_partial_loss_requires_fraction(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.PARTIAL_LOSS)

    def test_overlap_requires_width(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.MARKER_OVERLAP)

    @pytest.mark.parametrize("kind", [k for k in FaultKind if k is not FaultKind.PARTIAL_LOSS])
    def test_fraction_on_another_kind_rejected(self, kind):
        # ground_truth.json would record a fraction that was never applied
        width = 200.0 if kind is FaultKind.MARKER_OVERLAP else None
        with pytest.raises(ValueError, match="drop_fraction applies to partial_loss only"):
            FaultSpec(kind=kind, drop_fraction=0.4, marker_width_ms=width)

    @pytest.mark.parametrize("kind", [k for k in FaultKind if k is not FaultKind.MARKER_OVERLAP])
    def test_width_on_another_kind_rejected(self, kind):
        fraction = 0.4 if kind is FaultKind.PARTIAL_LOSS else None
        with pytest.raises(ValueError, match="marker_width_ms applies to marker_overlap only"):
            FaultSpec(kind=kind, drop_fraction=fraction, marker_width_ms=200.0)


class TestGenRun:
    def test_fault_free_structure(self):
        # marker + 10 warmup pulses + 100 measured pulses = 222 edges
        run = gen_run(DIST, trt_meta(), seed=0)
        assert run.log.iterations.size == 100
        assert len(run.stream) == 2 + 20 + 200
        assert run.truth.expected_failure_mode is FailureMode.HEALTHY

    def test_post_marker_collapse_ends_after_marker_fall(self):
        run = gen_run(DIST, trt_meta(), fault=FaultSpec(kind=FaultKind.POST_MARKER_COLLAPSE), seed=0)
        assert len(run.stream) == 2 + 20
        assert run.stream.levels[-1] == 0
        # the last pulse is the marker itself
        last_width_ms = (run.stream.times_s[-1] - run.stream.times_s[-2]) * 1e3
        assert last_width_ms == pytest.approx(200.0, abs=0.001)

    def test_empty_capture_has_no_records(self):
        run = gen_run(DIST, trt_meta(), fault=FaultSpec(kind=FaultKind.EMPTY_CAPTURE), seed=0)
        assert len(run.stream) == 0
        assert run.log.complete

    def test_partial_loss_drops_whole_pulses(self):
        run = gen_run(
            DIST, trt_meta(), fault=FaultSpec(kind=FaultKind.PARTIAL_LOSS, drop_fraction=0.4),
            seed=0,
        )
        kept = run.truth.pulses_emitted
        assert 0 < kept < 100
        assert len(run.stream) == 2 + 20 + 2 * kept  # never an odd edge count

    def test_marker_loss_drops_only_the_marker(self):
        intact = gen_run(DIST, trt_meta(), seed=0).stream.times_s
        run = gen_run(DIST, trt_meta(), fault=FaultSpec(kind=FaultKind.MARKER_LOSS), seed=0)
        # the marker is pulse 10, after the 10 warmup pulses: edges 20 and 21
        assert np.array_equal(run.stream.times_s, np.delete(intact, [20, 21]))
        assert run.truth.pulses_emitted == 100
        # every inference pulse is captured but nothing anchors them: B, never D
        assert run.truth.expected_failure_mode is FailureMode.PAIRING_FAILURE
        assert run.truth.expected_validity is ValidityClass.B

    def test_software_log_always_complete(self):
        for kind in FaultKind:
            fault = FaultSpec(
                kind=kind,
                drop_fraction=0.4 if kind is FaultKind.PARTIAL_LOSS else None,
                marker_width_ms=200.0 if kind is FaultKind.MARKER_OVERLAP else None,
            )
            run = gen_run(DIST, trt_meta(), fault=fault, seed=3)
            assert run.log.complete

    def test_determinism_byte_identical_outputs(self, tmp_path):
        for d in ("a", "b"):
            run = gen_run(DIST, trt_meta(), seed=123)
            write_run_dir(run, tmp_path / d)
        for name in ("software.csv", "transitions.csv", "metadata.json", "ground_truth.json"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)

    def test_different_seeds_differ(self):
        a = gen_run(DIST, trt_meta(), seed=1)
        b = gen_run(DIST, trt_meta(), seed=2)
        assert not np.array_equal(a.log.latencies_ms, b.log.latencies_ms)

    def test_statistical_recovery_of_mean(self):
        run = gen_run(Gaussian(mean_ms=10.0, sd_ms=0.5), trt_meta(iterations=400), seed=7)
        lat = np.array(run.truth.true_latencies_ms)
        se = 0.5 / np.sqrt(400)
        assert abs(lat.mean() - 10.0) <= 3 * se


class TestOracleClosure:
    @pytest.mark.parametrize(
        "fault",
        [
            FaultSpec(),
            FaultSpec(overhead_bound_ms=0.1),
            FaultSpec(kind=FaultKind.POST_MARKER_COLLAPSE),
            FaultSpec(kind=FaultKind.PARTIAL_LOSS, drop_fraction=0.4),
            FaultSpec(kind=FaultKind.EMPTY_CAPTURE),
            FaultSpec(kind=FaultKind.MARKER_LOSS),
        ],
        ids=["none", "wide_overhead_bound", "post_marker_collapse", "partial_loss",
             "empty_capture", "marker_loss"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pipeline_recovers_injected_failure_mode(self, fault, seed):
        run = gen_run(DIST, trt_meta(), fault=fault, seed=seed)
        rr = analyze(run.log, run.stream, run.meta)
        assert rr.report.failure_mode is run.truth.expected_failure_mode
        assert rr.validity is run.truth.expected_validity

    def test_marker_overlap_yields_multiple_markers_downstream(self):
        mix = Mixture(
            components=(
                (0.10, Gaussian(82.0, 6.0)),
                (0.32, Gaussian(145.0, 12.0)),
                (0.58, Gaussian(206.0, 9.0)),
            )
        )
        meta = RunMetadata(
            run_id="overlap",
            architecture="cpu_runtime",
            condition="baseline",
            marker_width_ms=200.0,
            marker_threshold_ms=150.0,
            iterations_expected=100,
            warmup_iterations=10,
        )
        run = gen_run(mix, meta, fault=FaultSpec(kind=FaultKind.MARKER_OVERLAP, marker_width_ms=200.0), seed=0)
        rr = analyze(run.log, run.stream, run.meta)
        assert rr.report.failure_mode is FailureMode.MARKER_OVERLAP
        assert any("extra marker" in w for w in rr.pairing.warnings)

    def test_width_fidelity_without_fault(self):
        run = gen_run(DIST, trt_meta(), seed=5)
        rr = analyze(run.log, run.stream, run.meta)
        assert len(rr.pairing.pairs) == 100
        bound_ms = 0.05 + 2 * run.meta.sample_period_s * 1e3
        for _, sw, ext in rr.pairing.pairs:
            assert abs(ext - sw) <= bound_ms


@settings(deadline=None)
@given(
    mean_ms=st.floats(1.0, 300.0),
    sd_frac=st.floats(0.0, 0.3),
    marker_over_mean=st.floats(0.5, 4.0),
    threshold_frac=st.floats(0.01, 0.99),
    warmup=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_violated_marker_separation_is_never_a_or_b(
    mean_ms, sd_frac, marker_over_mean, threshold_frac, warmup, seed
):
    """A run whose configured marker is not min_margin times wider than every
    other pulse it emits is never class A or B, whatever the threshold."""
    marker_ms = marker_over_mean * mean_ms
    meta = RunMetadata(
        run_id="sep", architecture="gpu_engine", condition="baseline",
        marker_width_ms=marker_ms, marker_threshold_ms=threshold_frac * marker_ms,
        iterations_expected=50, warmup_iterations=warmup,
    )
    run = gen_run(Gaussian(mean_ms, sd_frac * mean_ms), meta, seed=seed)
    others = np.delete(extract_pulses(run.stream).widths_ms, warmup)  # all but the marker
    assume(marker_ms < DEFAULT_MIN_MARGIN * others.max())
    rr = analyze(run.log, run.stream, run.meta)
    assert rr.validity not in (ValidityClass.A, ValidityClass.B)


@settings(deadline=None)
@given(
    kind=st.sampled_from(FaultKind),
    drop_fraction=st.floats(0.01, 0.99),
    warmup=st.integers(0, 5),
    lead=st.booleans(),
    trail=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_extraction_conserves_edges(kind, drop_fraction, warmup, lead, trail, seed):
    """Every edge is half of one pulse or an orphan: edges == 2·pulses + orphan_edges.

    A leading falling edge or a trailing rising edge, cut off by the capture
    window, is the only kind of orphan, and the emitted pulses all survive.
    """
    fault = FaultSpec(kind=kind,
                      drop_fraction=drop_fraction if kind is FaultKind.PARTIAL_LOSS else None,
                      marker_width_ms=200.0 if kind is FaultKind.MARKER_OVERLAP else None)
    times = gen_run(DIST, trt_meta(warmup=warmup, iterations=20), fault=fault, seed=seed).stream.times_s
    end = times[-1] if times.size else 0.0
    edges = np.concatenate(([1e-9] if lead else [], times + 2e-9, [end + 1.0] if trail else []))
    res = extract_pulses(TransitionStream(edges, initial_level=int(lead)))
    assert edges.size == 2 * res.starts_s.size + res.orphan_edges
    assert res.orphan_edges == lead + trail
    assert res.starts_s.size == times.size // 2


class TestGenCondition:
    def test_run_count_and_sample_total(self):
        runs = gen_condition(DIST, trt_meta(), n_runs=5, master_seed=0)
        assert len(runs) == 5
        assert sum(r.log.iterations.size for r in runs) == 500
        assert len({r.meta.run_id for r in runs}) == 5

    def test_single_run(self):
        runs = gen_condition(DIST, trt_meta(), n_runs=1, master_seed=0)
        assert len(runs) == 1

    def test_gpio_line_verified_absent_reaches_every_run(self):
        # An empty capture on a line verified absent is a methodology
        # failure (D), never a decoupling finding (B).
        template = dataclasses.replace(trt_meta(), gpio_line_verified_absent=True)
        fault = FaultSpec(kind=FaultKind.EMPTY_CAPTURE)
        runs = gen_condition(DIST, template, n_runs=2, fault=fault)
        for run in [*runs, gen_run(DIST, template, fault=fault)]:
            rr = analyze(run.log, run.stream, run.meta)
            assert rr.report.failure_mode is FailureMode.GPIO_LINE_MISOBSERVATION
            assert rr.validity is ValidityClass.D
            assert run.truth.expected_failure_mode is rr.report.failure_mode
            assert run.truth.expected_validity is rr.validity

    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError):
            gen_condition(DIST, trt_meta(), n_runs=0)

    def test_master_seed_determinism(self):
        a = gen_condition(DIST, trt_meta(), n_runs=3, master_seed=9)
        b = gen_condition(DIST, trt_meta(), n_runs=3, master_seed=9)
        assert all(np.array_equal(x.log.latencies_ms, y.log.latencies_ms) for x, y in zip(a, b))

    def test_spiked_condition_has_spike_driven_high_sd_runs(self):
        # spike probability low enough that most runs stay spike-free:
        # the corpus splits into many low-SD runs and a few runs whose SD
        # is inflated by isolated spikes
        spec = Spiked(base=Gaussian(1.45, 0.05), spike_prob=0.004, spike_scale=4.0)
        runs = gen_condition(spec, trt_meta(), n_runs=20, master_seed=0)
        sds = [float(np.std(r.truth.true_latencies_ms, ddof=1)) for r in runs]
        high = [sd for sd in sds if sd > 0.3]
        low = [sd for sd in sds if sd < 0.1]
        assert len(high) >= 2
        assert len(low) >= 12
        assert len(high) + len(low) == len(sds)


#: Latencies whose JSON text takes every path: 6-digit values, unrounded
#: ones, exponent reprs below 1e-4, values past 2**33 and 2**53 / 1e6, -0.0,
#: and the non-finite values json writes as NaN and Infinity.
LATENCIES = st.one_of(
    st.integers(-10**16, 10**16).map(lambda k: k / 1e6),
    st.floats(),
    st.floats(0, 1e-4),
    st.floats(2.0**33, 2.0**60),
    st.just(-0.0),
)


@settings(deadline=None)
@given(
    kind=st.sampled_from(FaultKind),
    latencies=st.lists(LATENCIES, max_size=12),
    run_id=st.text(max_size=30),
    mode=st.sampled_from(FailureMode),
    validity=st.sampled_from(ValidityClass),
    seed=st.integers(0, 2**64 - 1),
    emitted=st.integers(0, 10**6),
)
@example(kind=FaultKind.NONE, latencies=[], run_id="r", mode=FailureMode.HEALTHY,
         validity=ValidityClass.A, seed=0, emitted=0)
@example(kind=FaultKind.NONE, latencies=[1.0000005, 0.0078125, 2.5e-05, 9007199254.740993, -0.0],
         run_id='\n  "true_latencies_ms": []', mode=FailureMode.HEALTHY, validity=ValidityClass.A,
         seed=0, emitted=0)
@example(kind=FaultKind.NONE, latencies=[1e-4, 9.9e-05, 0.1, 123.0, 1.234567, 6e8 + 0.000001,
                                         2.0**33 - 1e-6, 2.0**33, 8589934592.000019, math.inf,
                                         -1.5, math.nan],
         run_id="r", mode=FailureMode.HEALTHY, validity=ValidityClass.A, seed=0, emitted=0)
def test_ground_truth_text_is_the_indented_dump(kind, latencies, run_id, mode, validity, seed,
                                                emitted):
    fault = FaultSpec(kind=kind,
                      drop_fraction=0.4 if kind is FaultKind.PARTIAL_LOSS else None,
                      marker_width_ms=200.0 if kind is FaultKind.MARKER_OVERLAP else None)
    truth = GroundTruth(run_id=run_id, seed=seed, fault=fault, expected_failure_mode=mode,
                        expected_validity=validity, true_latencies_ms=tuple(latencies),
                        pulses_emitted=emitted)
    assert truth.to_json_text() == json.dumps(truth.to_dict(), indent=2, sort_keys=True) + "\n"


def test_ground_truth_sidecar_fields(tmp_path):
    run = gen_run(DIST, trt_meta(), fault=FaultSpec(kind=FaultKind.PARTIAL_LOSS, drop_fraction=0.4), seed=0)
    write_run_dir(run, tmp_path)
    truth = json.loads((tmp_path / "ground_truth.json").read_text())
    assert truth["expected_failure_mode"] == "partial_transition_loss"
    assert truth["expected_validity"] == "B"
    assert len(truth["true_latencies_ms"]) == 100
    assert truth["fault"]["drop_fraction"] == 0.4
    assert (tmp_path / "ground_truth.json").read_text() == run.truth.to_json_text()
