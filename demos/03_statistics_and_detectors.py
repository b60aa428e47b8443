"""Condition-level statistics and the two interference detectors.

Builds four synthetic conditions and shows why both detectors exist: the
GPU engine inflates its tail under memory pressure (P99 detector fires),
while the CPU runtime's aggregate P99 actually improves under the same
pressure even though one run has collapsed into a slow deterministic
regime (per-run detector fires instead).
"""

from pulsepair import (
    build_preset,
    condition_summary,
    detect_regime_shift,
    detect_tail_inflation,
    ecdf,
    format_condition_table,
    run_summary,
)


def summaries(preset, seed=0):
    runs = build_preset(preset, master_seed=seed)
    return [run_summary(r.log.latencies_ms, r.meta.run_id, r.meta.condition) for r in runs]


trt_base = summaries("trt_baseline")
trt_mem = summaries("trt_memstress")
ort_base = summaries("ort_baseline")
ort_mem = summaries("ort_memstress_collapse")

table = format_condition_table([
    condition_summary(trt_base),
    condition_summary(trt_mem),
    condition_summary(ort_base),
    condition_summary(ort_mem),
])
print(table)

print("\n--- tail inflation (GPU engine, memory pressure) ---")
flag = detect_tail_inflation(condition_summary(trt_base), condition_summary(trt_mem))
print(f"mean ratio {flag.mean_ratio:.3f}, p99 ratio {flag.p99_ratio:.3f}, "
      f"max ratio {flag.max_ratio:.3f} -> flagged={flag.flagged}")

print("\n--- regime shift (CPU runtime, memory pressure) ---")
agg = detect_tail_inflation(condition_summary(ort_base), condition_summary(ort_mem))
print(f"aggregate p99 ratio {agg.p99_ratio:.3f} (looks reassuring; it is not)")
for s in ort_mem:
    f = detect_regime_shift(ort_base, s)
    marker = "  <-- collapsed regime" if f.flagged else ""
    print(f"  {s.run_id}: sd {s.sd_ms:6.2f} ms, mean {s.mean_ms:7.2f} ms, "
          f"collapse ratio {f.sd_collapse_ratio:5.3f}{marker}")

print("\n--- ECDF of the collapsed run ---")
collapsed = build_preset("ort_memstress_collapse", 0)[-1]
curve = ecdf(collapsed.log.latencies_ms)
for q in (0.05, 0.5, 0.95):
    idx = min(range(len(curve.fractions)), key=lambda i: abs(curve.fractions[i] - q))
    print(f"  fraction {curve.fractions[idx]:.2f} at {curve.values[idx]:7.2f} ms")
print("the whole distribution sits in a few ms around the slow mode")
