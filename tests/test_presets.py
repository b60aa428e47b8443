from pathlib import Path

import numpy as np
import pytest

from pulsepair.presets import PRESETS, build_preset, load_scenario
from pulsepair.pulses import extract_pulses

SCENARIOS = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios"


def check_overhead_bound(run) -> bool:
    """The bound the ground truth records is the one the widths were drawn under.

    Every external width exceeds its software latency by a draw from
    [0, bound], moved by at most one sample period when the edges are
    put on the sample grid. Runs whose capture lost inference pulses no
    longer line up with their iterations and are skipped (returns False).
    """
    bound = run.truth.to_dict()["fault"]["overhead_bound_ms"]
    widths = extract_pulses(run.stream).widths_ms[run.meta.warmup_iterations + 1:]
    if widths.size != run.meta.iterations_expected:
        return False
    excess = widths - np.array(run.truth.true_latencies_ms)
    sample_ms = run.meta.sample_period_s * 1e3
    assert excess.min() >= -sample_ms
    assert excess.max() <= bound + sample_ms
    # 100 or more uniform draws all fall below half the bound with
    # probability at most 2**-100: a smaller bound was used.
    assert excess.max() >= bound / 2
    return True


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_recorded_overhead_bound_is_the_one_used(name):
    checked = [check_overhead_bound(run) for run in build_preset(name, 0)]
    # storage_stress_trio's three captures all lose their inference pulses
    assert any(checked) or name == "storage_stress_trio"


#: What the benchmark's scenario files must produce: fault kind and drop fraction.
BENCHMARK_SCENARIOS = {
    "long_intact": ("none", None),
    "long_lossy": ("partial_loss", 0.4),
}


def test_benchmark_scenarios_are_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(BENCHMARK_SCENARIOS)
    for stem, (kind, drop_fraction) in BENCHMARK_SCENARIOS.items():
        (run,) = load_scenario(SCENARIOS / f"{stem}.json", master_seed=0)
        fault = run.truth.to_dict()["fault"]
        assert (fault["kind"], fault["drop_fraction"]) == (kind, drop_fraction)
        assert fault["overhead_bound_ms"] == 0.01
        assert check_overhead_bound(run) == (kind == "none")
