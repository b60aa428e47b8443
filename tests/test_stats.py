import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pulsepair.stats import (
    ConditionSummary,
    condition_summary,
    detect_regime_shift,
    detect_tail_inflation,
    ecdf,
    ecdf_to_csv,
    format_condition_table,
    nearest_rank,
    run_summary,
)

from oracles import brute_ecdf_fraction, brute_mean, brute_nearest_rank, brute_sample_sd

latency_vectors = st.lists(
    st.floats(min_value=0.01, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


class TestRunSummary:
    def test_constant_vector(self):
        s = run_summary([1.0] * 100)
        assert s.mean_ms == 1.0 and s.sd_ms == 0.0
        assert s.p50_ms == s.p95_ms == s.p99_ms == s.max_ms == 1.0

    def test_nearest_rank_on_1_to_100(self):
        s = run_summary([float(i) for i in range(1, 101)])
        assert s.p50_ms == 50.0
        assert s.p95_ms == 95.0
        assert s.p99_ms == 99.0
        assert s.max_ms == 100.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            run_summary([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            run_summary([1.0, -2.0])

    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 300))
            vals = (rng.lognormal(0.0, 1.0, size=n) + 0.01).tolist()
            s = run_summary(vals)
            assert s.mean_ms == pytest.approx(brute_mean(vals), rel=1e-12)
            assert s.sd_ms == pytest.approx(brute_sample_sd(vals), rel=1e-12, abs=1e-15)
            for p, got in ((0.5, s.p50_ms), (0.95, s.p95_ms), (0.99, s.p99_ms)):
                assert got == brute_nearest_rank(vals, p)
            assert s.min_ms == min(vals) and s.max_ms == max(vals)

    @given(latency_vectors)
    def test_percentile_monotonicity(self, vals):
        s = run_summary(vals)
        assert s.min_ms <= s.p50_ms <= s.p95_ms <= s.p99_ms <= s.max_ms

    @given(latency_vectors, st.randoms())
    def test_permutation_invariance(self, vals, rnd):
        shuffled = list(vals)
        rnd.shuffle(shuffled)
        assert run_summary(vals) == run_summary(shuffled)

    @given(latency_vectors, st.floats(min_value=0.01, max_value=100.0))
    @example(vals=[1253.0, 1253.0, 1253.0], c=70.59103949681047)
    def test_scale_equivariance(self, vals, c):
        a, b = run_summary(vals), run_summary([v * c for v in vals])
        assert b.mean_ms == pytest.approx(a.mean_ms * c, rel=1e-9)
        assert b.sd_ms == pytest.approx(a.sd_ms * c, rel=1e-9, abs=1e-12)
        assert b.p99_ms == pytest.approx(a.p99_ms * c, rel=1e-9)
        assert b.max_ms == pytest.approx(a.max_ms * c, rel=1e-9)


class TestConditionSummary:
    def test_two_runs_hand_computed(self):
        runs = [
            run_summary([1.0] * 10, "r1", "baseline"),
            run_summary([2.0] * 10, "r2", "baseline"),
        ]
        c = condition_summary(runs)
        assert c.mean_of_run_means_ms == pytest.approx(1.5)
        assert c.run_mean_sd_ms == pytest.approx(math.sqrt(0.5), abs=1e-9)  # 0.7071
        assert c.samples == 20 and c.runs == 2
        assert not c.single_run_warning

    def test_single_run_degrades_with_warning(self):
        c = condition_summary([run_summary([1.0, 2.0], "r1", "storage_stress")])
        assert c.run_mean_sd_ms == 0.0
        assert c.single_run_warning

    def test_mixed_condition_labels_rejected(self):
        runs = [
            run_summary([1.0], "r1", "baseline"),
            run_summary([1.0], "r2", "storage_stress"),
        ]
        with pytest.raises(ValueError, match="mixed condition"):
            condition_summary(runs)

    def test_max_observed_spans_runs(self):
        runs = [
            run_summary([1.0, 5.0], "r1", "c"),
            run_summary([2.0, 3.0], "r2", "c"),
        ]
        assert condition_summary(runs).max_observed_ms == 5.0

    def test_table_has_one_row_per_condition(self):
        c = condition_summary([run_summary([1.0, 2.0], "r", "baseline")])
        table = format_condition_table([c])
        assert "baseline" in table
        assert len(table.splitlines()) == 3


class TestEcdf:
    def test_single_value(self):
        curve = ecdf([2.0])
        assert curve.values.tolist() == [2.0] and curve.fractions.tolist() == [1.0]

    def test_four_values(self):
        curve = ecdf([4.0, 1.0, 3.0, 2.0])
        assert curve.values.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert curve.fractions.tolist() == [0.25, 0.5, 0.75, 1.0]

    def test_matches_rank_oracle(self):
        rng = np.random.default_rng(5)
        vals = (rng.lognormal(0.0, 0.5, size=200) + 0.01).tolist()
        curve = ecdf(vals)
        for v, f in zip(curve.values, curve.fractions):
            assert f == pytest.approx(brute_ecdf_fraction(vals, v))
        assert curve.fractions[-1] == 1.0
        assert list(curve.fractions) == sorted(curve.fractions)

    def test_csv_export(self, tmp_path):
        p = tmp_path / "e.csv"
        ecdf_to_csv(ecdf([1.0, 2.0]), p)
        lines = p.read_text().splitlines()
        assert lines[0] == "value_ms,fraction"
        assert lines[1] == "1.000000,0.500000"


def cond(mean, mean_p99, max_observed, condition="x", runs=5, samples=500):
    return ConditionSummary(
        condition=condition,
        runs=runs,
        samples=samples,
        mean_of_run_means_ms=mean,
        run_mean_sd_ms=0.0,
        mean_p99_ms=mean_p99,
        max_observed_ms=max_observed,
    )


class TestTailInflation:
    def test_gpu_engine_memory_pressure_case(self):
        # baseline p99 1.276 -> stressed 1.613: +26.4%, max +73%
        baseline = cond(1.228, 1.276, 3.924)
        stressed = cond(1.469, 1.613, 6.790)
        flag = detect_tail_inflation(baseline, stressed)
        assert flag.flagged
        assert flag.p99_ratio == pytest.approx(1.264, abs=0.001)
        assert flag.max_ratio == pytest.approx(1.730, abs=0.001)

    def test_identical_summaries_not_flagged(self):
        c = cond(1.0, 1.2, 2.0)
        flag = detect_tail_inflation(c, c)
        assert flag.p99_ratio == 1.0 and not flag.flagged

    def test_cpu_runtime_aggregate_is_misleadingly_quiet(self):
        # stressed p99 drops below baseline: correctly not flagged here;
        # the regime detector is responsible for this pattern
        baseline = cond(171.043, 219.504, 249.560)
        stressed = cond(177.544, 209.251, 265.392)
        flag = detect_tail_inflation(baseline, stressed)
        assert flag.p99_ratio < 1.0 and not flag.flagged

    def test_scale_free_decision(self):
        b, s = cond(1.0, 1.2, 2.0), cond(1.1, 1.5, 3.0)
        for c in (0.5, 10.0):
            bs = cond(b.mean_of_run_means_ms * c, b.mean_p99_ms * c, b.max_observed_ms * c)
            ss = cond(s.mean_of_run_means_ms * c, s.mean_p99_ms * c, s.max_observed_ms * c)
            assert detect_tail_inflation(bs, ss).flagged == detect_tail_inflation(b, s).flagged


def summary_like(run_id, mean, sd):
    return run_summary(
        list(np.random.default_rng(hash(run_id) % 2**32).normal(mean, sd, 100).clip(0.01)),
        run_id,
    )


class TestRegimeShift:
    def baseline(self):
        # run SDs spread across 26-38 ms
        return [summary_like(f"b{i}", 171.0, sd) for i, sd in enumerate([26, 29, 32, 35, 38])]

    def test_collapsed_run_flagged(self):
        candidate = summary_like("cand", 198.32, 3.5)
        flag = detect_regime_shift(self.baseline(), candidate)
        assert flag.flagged
        assert flag.sd_collapse_ratio < 0.25

    def test_preserved_structure_not_flagged(self):
        candidate = summary_like("cand", 180.0, 34.0)
        assert not detect_regime_shift(self.baseline(), candidate).flagged

    def test_baseline_member_not_flagged(self):
        runs = self.baseline()
        assert not detect_regime_shift(runs, runs[2]).flagged

    def test_fast_tight_run_not_flagged(self):
        # collapse requires anchoring at or above the baseline mean
        candidate = summary_like("cand", 100.0, 2.0)
        assert not detect_regime_shift(self.baseline(), candidate).flagged

    def test_requires_two_baseline_runs(self):
        with pytest.raises(ValueError):
            detect_regime_shift(self.baseline()[:1], summary_like("c", 198.0, 3.0))
