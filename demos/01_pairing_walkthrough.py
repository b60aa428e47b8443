"""Walk through the pairing pipeline on one healthy synthetic run.

Generates a GPU-engine style run (10 warmup pulses, a 200 ms marker, 100
measured pulses), then runs extraction, classification, marker location,
and index pairing step by step, printing what each stage sees.
"""

import numpy as np

from pulsepair import (
    RunMetadata,
    classify_pulses,
    extract_pulses,
    gen_run,
    pair_intervals,
    validate_marker_separation,
)
from pulsepair.synth import Gaussian

meta = RunMetadata(
    run_id="walkthrough",
    architecture="gpu_engine",
    condition="baseline",
    marker_width_ms=200.0,
    marker_threshold_ms=100.0,
    iterations_expected=100,
    warmup_iterations=10,
)
run = gen_run(Gaussian(mean_ms=1.228, sd_ms=0.021), meta, seed=42)

print(f"software log: {run.log.iterations.size} rows, complete={run.log.complete}")
print(f"external stream: {len(run.stream)} transitions")

extraction = extract_pulses(run.stream)
widths = extraction.widths_ms
print(f"\nextracted {widths.size} pulses, {extraction.orphan_edges} orphan edges")

markers = classify_pulses(widths, meta.marker_threshold_ms)
marker_at = np.flatnonzero(markers)
print(f"classified: {marker_at.size} marker(s) at threshold {meta.marker_threshold_ms} ms")
print(f"marker at pulse index {marker_at[0]}; {marker_at[0]} warmup pulses before it")

sep = validate_marker_separation(meta.marker_width_ms, widths[~markers])
print(f"separation: marker {sep.marker_width_ms:.0f} ms vs max inference "
      f"{sep.inference_max_observed_ms:.3f} ms -> ratio {sep.margin_ratio:.1f} "
      f"({'pass' if sep.passed else 'FAIL'})")

pairing = pair_intervals(run.log, widths, markers)
print(f"\npaired {pairing.iterations.size} of {run.log.iterations.size} software rows")
print("first three pairs (iteration, software ms, external ms):")
for it, sw, ext in zip(pairing.iterations[:3], pairing.software_ms[:3], pairing.external_ms[:3]):
    print(f"  {it:3d}  {sw:8.4f}  {ext:8.4f}   (delta {abs(ext - sw) * 1000:.1f} us)")
