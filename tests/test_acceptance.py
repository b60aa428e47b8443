"""End-to-end acceptance suite.

Each test exercises one exit criterion at its stated tolerance and prints
a single pass line; a failed assertion marks the criterion failed.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from pulsepair.analysis import analyze, analyze_run
from pulsepair.capture import RunMetadata, TransitionStream
from pulsepair.cli import main
from pulsepair.presets import ORT_BASELINE_DIST, _ort_meta, build_preset, write_preset
from pulsepair.pulses import extract_pulses
from pulsepair.stats import condition_summary, detect_regime_shift, detect_tail_inflation, run_summary
from pulsepair.synth import FaultKind, FaultSpec, Gaussian, gen_run
from pulsepair.validity import FailureMode, ValidityClass, split_claim_views

from oracles import brute_mean, brute_nearest_rank, brute_pair_edges, brute_sample_sd


def passed(n, name):
    print(f"[ACCEPTANCE] criterion {n} ({name}): PASS")


def software_summaries(runs):
    return [run_summary(r.log.latencies_ms, r.meta.run_id, r.meta.condition) for r in runs]


def test_criterion_1_decoupling_taxonomy(tmp_path, capsys):
    t0 = time.perf_counter()
    assert main(["synth", "storage_stress_trio", "--out-dir", str(tmp_path), "--seed", "0"]) == 0
    expected_modes = {
        "storage_stress_001": "post_marker_collapse",
        "storage_stress_002": "partial_transition_loss",
        "storage_stress_003": "complete_acquisition_failure",
    }
    for run_id, mode in expected_modes.items():
        rr = analyze_run(tmp_path / run_id)
        assert rr.report.failure_mode.value == mode
        assert rr.validity is ValidityClass.B
        assert rr.report.software_complete
        assert len(rr.software_latencies) == 100
        if mode == "partial_transition_loss":
            assert rr.report.loss_fraction == pytest.approx(0.40, abs=0.02)
    assert time.perf_counter() - t0 < 5.0
    with capsys.disabled():
        passed(1, "decoupling taxonomy reproduction")


def test_criterion_2_marker_overlap_regression(capsys):
    t0 = time.perf_counter()
    # misconfigured: 200 ms marker inside the inference distribution
    bad = build_preset("marker_overlap_demo", 0)[0]
    rr_bad = analyze(bad.log, bad.stream, bad.meta)
    assert not rr_bad.separation.passed
    assert rr_bad.validity is ValidityClass.D

    # fixed: 1000 ms marker with an 800 ms threshold over the same distribution
    meta = _ort_meta("overlap_fixed", "baseline")
    good = gen_run(ORT_BASELINE_DIST, meta, seed=0)
    rr_good = analyze(good.log, good.stream, good.meta)
    assert rr_good.separation.passed
    assert rr_good.validity is ValidityClass.A
    assert len(rr_good.pairing.pairs) == 100
    assert time.perf_counter() - t0 < 5.0
    with capsys.disabled():
        passed(2, "marker-overlap regression")


def test_criterion_3_baseline_aggregate_recovery(tmp_path, capsys):
    t0 = time.perf_counter()
    assert main(["synth", "trt_baseline", "--out-dir", str(tmp_path), "--seed", "0"]) == 0
    dirs = sorted(str(p) for p in tmp_path.iterdir() if p.is_dir())
    out = tmp_path / "report"
    assert main(["condition", *dirs, "--out", str(out)]) == 0
    payload = json.loads((out / "condition_report.json").read_text())
    for view in ("software_only_view", "external_view"):
        summary = payload[view]["summary"]
        assert summary["runs"] == 5
        assert summary["samples"] == 500
    assert payload["software_only_view"]["summary"]["mean_of_run_means_ms"] == pytest.approx(
        1.228, abs=0.02
    )
    assert time.perf_counter() - t0 < 5.0
    with capsys.disabled():
        passed(3, "baseline aggregate recovery")


def test_criterion_4_tail_inflation_detection(capsys):
    baseline = condition_summary(software_summaries(build_preset("trt_baseline", 0)))
    stressed = condition_summary(software_summaries(build_preset("trt_memstress", 0)))
    flag = detect_tail_inflation(baseline, stressed)  # default threshold 1.10
    assert flag.flagged
    assert 1.2 <= flag.p99_ratio <= 1.35

    self_flag = detect_tail_inflation(baseline, baseline)
    assert not self_flag.flagged
    with capsys.disabled():
        passed(4, "tail-inflation detection")


def test_criterion_5_regime_shift_detection(capsys):
    baseline = software_summaries(build_preset("ort_baseline", 0))
    stressed = software_summaries(build_preset("ort_memstress_collapse", 0))
    flags = [detect_regime_shift(baseline, s) for s in stressed]
    flagged = [f for f in flags if f.flagged]
    assert len(flagged) == 1
    assert flagged[0].run_sd_ms == pytest.approx(3.5, abs=1.0)
    assert flagged[0].run_mean_ms == pytest.approx(198.32, abs=2.0)
    # no false flags on baseline runs themselves
    for s in baseline:
        others = [b for b in baseline if b.run_id != s.run_id]
        assert not detect_regime_shift(others, s).flagged
    with capsys.disabled():
        passed(5, "regime-shift detection")


def test_criterion_6_statistics_oracle(capsys):
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 501))
        vals = (rng.lognormal(0.0, 1.0, size=n) + 0.01).tolist()
        s = run_summary(vals)
        assert s.mean_ms == pytest.approx(brute_mean(vals), rel=1e-12)
        assert s.sd_ms == pytest.approx(brute_sample_sd(vals), rel=1e-12, abs=1e-15)
        assert s.p50_ms == brute_nearest_rank(vals, 0.50)
        assert s.p95_ms == brute_nearest_rank(vals, 0.95)
        assert s.p99_ms == brute_nearest_rank(vals, 0.99)
        assert s.max_ms == max(vals)
    with capsys.disabled():
        passed(6, "statistics oracle equivalence")


def test_criterion_7_pulse_extraction_properties(capsys):
    from pulsepair.capture import DEFAULT_SAMPLE_PERIOD_S, TransitionStream

    rng = np.random.default_rng(7)
    cases = 0
    for _ in range(10_000):
        n = int(rng.integers(0, 24))
        ticks = np.unique(rng.integers(1, 10**7, size=n))
        start_level = int(rng.integers(0, 2))
        stream = TransitionStream(
            times_s=ticks * 1e-7,
            initial_level=1 - start_level if len(ticks) else 0,
        )
        res = extract_pulses(stream)
        # edge conservation
        assert len(stream) == 2 * res.starts_s.size + res.orphan_edges
        # width floor
        for start_s, end_s in zip(res.starts_s, res.ends_s):
            assert end_s - start_s >= DEFAULT_SAMPLE_PERIOD_S - 1e-15
        # agreement with the brute-force pairer
        expected, orphans = brute_pair_edges(list(zip(stream.times_s.tolist(), stream.levels.tolist())))
        assert list(zip(res.starts_s.tolist(), res.ends_s.tolist())) == expected
        assert res.orphan_edges == orphans
        cases += 1
    assert cases >= 10_000

    # round-trip width recovery on fault-free synthetic runs
    meta = RunMetadata(
        run_id="fidelity", architecture="gpu_engine", condition="baseline",
        marker_width_ms=200.0, marker_threshold_ms=100.0,
        iterations_expected=100, warmup_iterations=10,
    )
    bound_ms = 0.05 + 2 * meta.sample_period_s * 1e3
    for seed in range(10):
        run = gen_run(Gaussian(1.228, 0.06), meta, seed=seed)
        rr = analyze(run.log, run.stream, run.meta)
        assert len(rr.pairing.pairs) == 100
        for _, sw, ext in rr.pairing.pairs:
            assert abs(ext - sw) <= bound_ms
    with capsys.disabled():
        passed(7, "pulse-extraction properties")


def with_warmup_transient(run, width_ms):
    """The run with its first warmup pulse stretched to width_ms; later edges move with it."""
    times = run.stream.times_s.copy()
    times[1:] += width_ms * 1e-3 - (times[1] - times[0])
    return dataclasses.replace(run, stream=TransitionStream(times, run.stream.initial_level))


def test_criterion_8_warmup_structural_exclusion(capsys):
    meta = RunMetadata(
        run_id="warmup", architecture="gpu_engine", condition="baseline",
        marker_width_ms=200.0, marker_threshold_ms=100.0,
        iterations_expected=100, warmup_iterations=10,
    )
    small = with_warmup_transient(gen_run(Gaussian(1.228, 0.06), meta, seed=0), 3.21)
    large = with_warmup_transient(gen_run(Gaussian(1.228, 0.06), meta, seed=0), 40.0)

    rr_small = analyze(small.log, small.stream, small.meta)
    rr_large = analyze(large.log, large.stream, large.meta)

    for rr in (rr_small, rr_large):
        assert rr.pairing.pre_marker_pulses == 10
        assert len(rr.pairing.pairs) == 100
        # no pre-marker pulse leaks into the pairs: paired widths track the
        # software latencies, never the transient
        for _, sw, ext in rr.pairing.pairs:
            assert abs(ext - sw) < 1.0

    # the measured distribution is unaffected by the transient magnitude
    # (external widths agree to well under the capture quantization step)
    quant_ms = meta.sample_period_s * 1e3
    for (i1, sw1, ext1), (i2, sw2, ext2) in zip(rr_small.pairing.pairs, rr_large.pairing.pairs):
        assert (i1, sw1) == (i2, sw2)
        assert ext1 == pytest.approx(ext2, abs=quant_ms)
    assert rr_small.software_summary == rr_large.software_summary
    assert rr_small.external_summary.mean_ms == pytest.approx(
        rr_large.external_summary.mean_ms, abs=quant_ms
    )
    with capsys.disabled():
        passed(8, "warmup structural exclusion")


def test_criterion_9_claim_filtering(capsys):
    meta = RunMetadata(
        run_id="m", architecture="gpu_engine", condition="baseline",
        marker_width_ms=200.0, marker_threshold_ms=100.0,
        iterations_expected=50, warmup_iterations=5,
    )
    dist = Gaussian(1.3, 0.05)

    def report_for(run, truncate_log_to=None):
        log = run.log
        if truncate_log_to is not None:
            log = type(log)(
                run_id=log.run_id,
                iterations_expected=log.iterations_expected,
                iterations=log.iterations[:truncate_log_to],
                latencies_ms=log.latencies_ms[:truncate_log_to],
            )
        return analyze(log, run.stream, run.meta)

    a1 = report_for(gen_run(dist, meta, seed=1))
    a2 = report_for(gen_run(dist, meta, seed=2))
    b1 = report_for(gen_run(dist, meta, fault=FaultSpec(kind=FaultKind.EMPTY_CAPTURE), seed=3))
    c1 = report_for(gen_run(dist, meta, seed=4), truncate_log_to=40)
    d_meta = RunMetadata(
        run_id="d", architecture="cpu_runtime", condition="baseline",
        marker_width_ms=200.0, marker_threshold_ms=150.0,
        iterations_expected=50, warmup_iterations=5,
    )
    d1 = report_for(
        gen_run(ORT_BASELINE_DIST, d_meta,
                fault=FaultSpec(kind=FaultKind.MARKER_OVERLAP, marker_width_ms=200.0), seed=5)
    )

    corpus = [a1, a2, b1, c1, d1]
    assert [rr.validity.name for rr in corpus] == ["A", "A", "B", "C", "D"]

    views = split_claim_views([rr.report for rr in corpus])
    assert len(views.external) == 2
    assert len(views.software_only) == 3
    assert len(corpus) == 5  # nothing deleted from the report set
    with capsys.disabled():
        passed(9, "claim-filtering rule")
