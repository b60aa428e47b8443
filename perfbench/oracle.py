"""Independent expectations for pulsepair's outputs, and the checks against them.

Nothing here imports pulsepair. The run directories are read with a small
reader of our own, and every expected class, failure mode and statistic is
recomputed from those files by the rules the README and ROADMAP state:

* pulses are rising edges paired with the next falling edge; a leading
  falling edge and a trailing rising edge are orphans;
* a pulse at least as wide as the metadata threshold is a marker; the
  first marker anchors pairing and the k-th inference pulse after it pairs
  with the k-th software row;
* the marker must be at least 4x wider than the widest inference pulse;
  more than one marker-width pulse, or post-marker pulses none of which is
  an inference pulse, is a methodology failure (class D);
* a software log is complete only if its indices are exactly
  range(iterations_expected);
* percentiles are nearest-rank with an exact rank, spread is the sample SD.

Preset-level findings (the paper's, as the README describes the presets) are
checked on top: the storage trio's three failure modes, class D for the
marker-overlap demo, tail inflation for trt_memstress and a regime shift on
ort_memstress_005 only.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

MIN_MARGIN = 4.0
P99_RATIO_THRESHOLD = 1.10
SD_COLLAPSE_THRESHOLD = 0.25
REL_TOL = 1e-9

CLASS_EXIT = {"A": 0, "B": 0, "C": 2, "D": 3}


# ---------------------------------------------------------------------------
# Reader


def parse_columns(text: str, header: str, where: Path) -> tuple[list[str], list[str]]:
    """Both columns of a two-column CSV as text, after checking the header."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{where}: expected header {header!r}")
    first: list[str] = []
    second: list[str] = []
    for line in lines[1:]:
        if line:
            a, b = line.split(",")
            first.append(a)
            second.append(b)
    return first, second


#: The parent sets every output's mtime to this after checking a pass, so a file
#: the next pass does not rewrite is recognised as left over.
STALE_NS = 0


def fresh(path: Path) -> bool:
    return path.exists() and path.stat().st_mtime_ns != STALE_NS


def output_text(path: Path) -> str:
    if not fresh(path):
        raise ValueError(f"{path.name} was not written by this pass")
    return path.read_text()


@dataclass
class RunData:
    meta: dict
    iterations: list[int]
    latencies: list[float]
    edges: int
    widths: list[float]  # pulse widths in ms, in time order
    orphans: int


def read_run(run_dir: Path) -> RunData:
    meta = json.loads((run_dir / "metadata.json").read_text())
    software, transitions = run_dir / "software.csv", run_dir / "transitions.csv"
    idx, lat = parse_columns(software.read_text(), "iteration,latency_ms", software)
    times, levels = parse_columns(transitions.read_text(), "time_s,level", transitions)
    t = [float(x) for x in times]
    start = 1 if levels and levels[0] == "0" else 0
    stop = start + 2 * ((len(t) - start) // 2)
    widths = [(t[i + 1] - t[i]) * 1e3 for i in range(start, stop, 2)]
    return RunData(
        meta=meta,
        iterations=[int(x) for x in idx],
        latencies=[float(x) for x in lat],
        edges=len(t),
        widths=widths,
        orphans=start + (len(t) - stop),
    )


# ---------------------------------------------------------------------------
# Statistics


def nearest_rank(sorted_values: list[float], p: Fraction) -> float:
    n = len(sorted_values)
    rank = min(max(math.ceil(p * n), 1), n)
    return sorted_values[rank - 1]


def summarize(values: list[float]) -> dict:
    s = sorted(values)
    n = len(s)
    mean = math.fsum(s) / n
    sd = math.sqrt(math.fsum((x - mean) ** 2 for x in s) / (n - 1)) if n > 1 else 0.0
    return {
        "n": n,
        "mean_ms": mean,
        "sd_ms": sd,
        "p50_ms": nearest_rank(s, Fraction(1, 2)),
        "p95_ms": nearest_rank(s, Fraction(95, 100)),
        "p99_ms": nearest_rank(s, Fraction(99, 100)),
        "min_ms": s[0],
        "max_ms": s[-1],
    }


def condition_of(summaries: list[dict]) -> dict:
    means = [s["mean_ms"] for s in summaries]
    return {
        "runs": len(summaries),
        "samples": sum(s["n"] for s in summaries),
        "mean_of_run_means_ms": math.fsum(means) / len(means),
        "run_mean_sd_ms": statistics.stdev(means) if len(means) > 1 else 0.0,
        "mean_p99_ms": math.fsum(s["p99_ms"] for s in summaries) / len(summaries),
        "max_observed_ms": max(s["max_ms"] for s in summaries),
        "single_run_warning": len(summaries) == 1,
    }


# ---------------------------------------------------------------------------
# Expected outcome of one run


@dataclass
class RunExpect:
    run_id: str
    cls: str
    mode: str
    pairs: int
    marker_found: bool
    pre_marker_pulses: int
    edges: int
    orphans: int
    loss_fraction: float | None
    margin_ratio: float | None
    software_complete: bool
    software: dict | None = None
    external: dict | None = None
    latencies: list[float] = field(default_factory=list)
    external_widths: list[float] = field(default_factory=list)


def expect_run(run: RunData, threshold_ms: float | None = None) -> RunExpect:
    meta = run.meta
    n_expected = int(meta["iterations_expected"])
    threshold = float(meta["marker_threshold_ms"]) if threshold_ms is None else threshold_ms
    is_marker = [w >= threshold for w in run.widths]
    inference = [w for w, m in zip(run.widths, is_marker) if not m]
    markers = sum(is_marker)
    margin = float(meta["marker_width_ms"]) / max(inference) if inference else None
    first = is_marker.index(True) if markers else None
    post = run.widths[first + 1:] if first is not None else []
    post_inference = [w for w in post if w < threshold]
    pairs = min(len(run.latencies), len(post_inference)) if first is not None else 0
    complete = run.iterations == list(range(n_expected))

    loss = None
    if run.edges == 0:
        mode = "gpio_line_misobservation" if meta.get("gpio_line_verified_absent") \
            else "complete_acquisition_failure"
    elif margin is not None and margin < MIN_MARGIN:
        mode = "marker_overlap"
    elif markers > 1 or (post and not post_inference):
        mode = "methodology_failure"
    elif first is None:
        mode = "pairing_failure"
    elif pairs == 0:
        mode = "post_marker_collapse"
    elif pairs < n_expected:
        mode = "partial_transition_loss"
        loss = 1.0 - pairs / n_expected
    else:
        mode = "healthy"

    if mode in ("marker_overlap", "methodology_failure", "gpio_line_misobservation"):
        cls = "D"
    elif not complete:
        cls = "C"
    elif mode == "healthy":
        cls = "A"
    else:
        cls = "B"

    exp = RunExpect(
        run_id=str(meta["run_id"]), cls=cls, mode=mode, pairs=pairs,
        marker_found=first is not None, pre_marker_pulses=first or 0,
        edges=run.edges, orphans=run.orphans, loss_fraction=loss,
        margin_ratio=margin, software_complete=complete,
    )
    if cls in ("A", "B") and run.latencies:
        exp.software = summarize(run.latencies)
        exp.latencies = run.latencies
    if cls == "A" and pairs:
        exp.external_widths = post_inference[:pairs]
        exp.external = summarize(exp.external_widths)
    return exp


# ---------------------------------------------------------------------------
# Checks. Each returns a list of problems; an empty list means the output holds.


def close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _check_summary(got: dict | None, want: dict | None, what: str) -> list[str]:
    if want is None or got is None:
        if want is None and got is None:
            return []
        return [f"{what}: present={got is not None}, expected {want is not None}"]
    exact = ("n", "runs", "samples", "single_run_warning")
    bad = [k for k, v in want.items()
           if not (got.get(k) == v if k in exact else close(got.get(k), v))]
    return [f"{what}: {k}={got.get(k)!r}, expected {want[k]!r}" for k in bad]


def check_run_dict(d: dict, exp: RunExpect) -> list[str]:
    """A per-run report (report.json, or one entry of condition_report.json)."""
    dec = d["decoupling"]
    want = {
        "run_id": (d["run_id"], exp.run_id),
        "class": (d["validity"]["class"], exp.cls),
        "failure_mode": (dec["failure_mode"], exp.mode),
        "pairs_formed": (dec["pairs_formed"], exp.pairs),
        "marker_found": (dec["marker_found"], exp.marker_found),
        "transitions_recovered": (dec["transitions_recovered"], exp.edges),
        "software_complete": (dec["software_complete"], exp.software_complete),
        "pre_marker_pulses": (d["pairing"]["pre_marker_pulses"], exp.pre_marker_pulses),
        "orphan_edges": (d["orphan_edges"], exp.orphans),
    }
    problems = [f"{k}={g!r}, expected {w!r}" for k, (g, w) in want.items() if g != w]
    if not close(dec["loss_fraction"], exp.loss_fraction):
        problems.append(f"loss_fraction={dec['loss_fraction']!r}, expected {exp.loss_fraction!r}")
    if not close(d["separation"]["margin_ratio"], exp.margin_ratio):
        problems.append(f"margin_ratio={d['separation']['margin_ratio']!r}, expected {exp.margin_ratio!r}")
    problems += _check_summary(d["software_summary"], exp.software, "software_summary")
    problems += _check_summary(d["external_summary"], exp.external, "external_summary")
    return problems


def check_analyze(out_dir: Path, rc: int, exp: RunExpect) -> list[str]:
    d = json.loads(output_text(out_dir / "report.json"))
    problems = check_run_dict(d, exp)
    if rc != CLASS_EXIT[exp.cls]:
        problems.append(f"exit code {rc}, expected {CLASS_EXIT[exp.cls]}")
    if f"validity: {exp.cls} " not in output_text(out_dir / "report.txt"):
        problems.append("report.txt does not state the class")
    return problems


@dataclass
class ConditionExpect:
    runs: list[RunExpect]
    baseline: list[RunExpect] | None
    tail_flagged: bool | None = None  # a finding the README states, when it states one
    regime_flagged_runs: set[str] | None = None
    ecdf_values: dict = field(default_factory=dict)  # file name -> sorted values as written

    def __post_init__(self) -> None:
        pooled = {
            "external_ecdf.csv": [w for r in self.runs if r.cls == "A" for w in r.external_widths],
            "software_ecdf.csv": [x for r in self.runs if r.cls in ("A", "B") for x in r.latencies],
        }
        self.ecdf_values = {name: [f"{x:.6f}" for x in sorted(v)] for name, v in pooled.items() if v}


def check_condition(out_dir: Path, rc: int, ce: ConditionExpect) -> list[str]:
    d = json.loads(output_text(out_dir / "condition_report.json"))
    problems = [] if rc == 0 else [f"exit code {rc}, expected 0"]
    if len(d["runs"]) != len(ce.runs):
        return problems + [f"{len(d['runs'])} runs reported, expected {len(ce.runs)}"]
    for got, exp in zip(d["runs"], ce.runs):
        problems += [f"{exp.run_id}: {p}" for p in check_run_dict(got, exp)]

    # Claim views: external claims use class A only, software-only claims A and B.
    ext = [r for r in ce.runs if r.cls == "A"]
    sw = [r for r in ce.runs if r.cls in ("A", "B")]
    if d["external_view"]["runs"] != [r.run_id for r in ext]:
        problems.append("external view is not exactly the class-A runs")
    if d["software_only_view"]["runs"] != [r.run_id for r in sw]:
        problems.append("software-only view is not exactly the class-A and class-B runs")
    ext_sum = condition_of([r.external for r in ext if r.external]) if ext else None
    sw_sums = [r.software for r in sw if r.software]
    sw_sum = condition_of(sw_sums) if sw_sums else None
    problems += _check_summary(d["external_view"]["summary"], ext_sum, "external view")
    problems += _check_summary(d["software_only_view"]["summary"], sw_sum, "software-only view")
    if bool(d.get("no_defensible_external_claims")) != (not ext):
        problems.append("no_defensible_external_claims marker is wrong")

    for name in ("external_ecdf.csv", "software_ecdf.csv"):
        if name in ce.ecdf_values:
            problems += check_ecdf(out_dir / name, ce.ecdf_values[name])
        elif fresh(out_dir / name):
            problems.append(f"{name} written although no run qualifies for it")

    problems += _check_detectors(d.get("detectors", {}), ce, sw_sums, sw_sum)
    return problems


def check_ecdf(path: Path, expected_values: list[str]) -> list[str]:
    """One row per pooled sample, values and fractions never decrease, last fraction 1."""
    values, fractions = parse_columns(output_text(path), "value_ms,fraction", path)
    problems = []
    if len(values) != len(expected_values):
        problems.append(f"{path.name}: {len(values)} rows, expected {len(expected_values)}")
    elif values != expected_values:
        problems.append(f"{path.name}: values differ from the sorted pooled samples")
    f = [float(x) for x in fractions]
    if any(b < a for a, b in zip(f, f[1:])):
        problems.append(f"{path.name}: fractions decrease")
    if not f or f[-1] != 1.0:
        problems.append(f"{path.name}: last fraction is not 1")
    return problems


def _check_detectors(det: dict, ce: ConditionExpect, sw_sums: list[dict], sw_sum: dict | None) -> list[str]:
    problems = []
    base = [r.software for r in (ce.baseline or []) if r.software]
    want_tail = ce.baseline is not None and bool(base) and sw_sum is not None
    if want_tail != ("tail_inflation" in det):
        return [f"tail_inflation present={'tail_inflation' in det}, expected {want_tail}"]
    if want_tail:
        b = condition_of(base)
        ratio = sw_sum["mean_p99_ms"] / b["mean_p99_ms"]
        t = det["tail_inflation"]
        if not close(t["p99_ratio"], ratio):
            problems.append(f"p99_ratio={t['p99_ratio']!r}, expected {ratio!r}")
        if not close(t["mean_ratio"], sw_sum["mean_of_run_means_ms"] / b["mean_of_run_means_ms"]):
            problems.append("tail_inflation mean_ratio is wrong")
        if not close(t["max_ratio"], sw_sum["max_observed_ms"] / b["max_observed_ms"]):
            problems.append("tail_inflation max_ratio is wrong")
        if t["flagged"] != (ratio >= P99_RATIO_THRESHOLD):
            problems.append("tail_inflation flag disagrees with its ratio")
        if ce.tail_flagged is not None and t["flagged"] != ce.tail_flagged:
            problems.append(f"tail inflation flagged={t['flagged']}, expected {ce.tail_flagged}")

    want_regime = ce.baseline is not None and len(base) >= 2 and sw_sum is not None
    if want_regime != ("regime_shift" in det):
        return problems + [f"regime_shift present={'regime_shift' in det}, expected {want_regime}"]
    if want_regime:
        median_sd = statistics.median(s["sd_ms"] for s in base)
        base_mean = math.fsum(s["mean_ms"] for s in base) / len(base)
        flags = det["regime_shift"]
        if [f["run_id"] for f in flags] != [r.run_id for r in ce.runs if r.software]:
            problems.append("regime_shift does not cover each software-view run")
        for f, s in zip(flags, sw_sums):
            ratio = s["sd_ms"] / median_sd
            if not close(f["sd_collapse_ratio"], ratio):
                problems.append(f"{f['run_id']}: sd_collapse_ratio={f['sd_collapse_ratio']!r}, expected {ratio!r}")
            if f["flagged"] != (ratio <= SD_COLLAPSE_THRESHOLD and s["mean_ms"] >= base_mean):
                problems.append(f"{f['run_id']}: regime flag disagrees with its inputs")
        if ce.regime_flagged_runs is not None:
            got = {f["run_id"] for f in flags if f["flagged"]}
            if got != ce.regime_flagged_runs:
                problems.append(f"regime shift flagged on {sorted(got)}, expected {sorted(ce.regime_flagged_runs)}")
    return problems
