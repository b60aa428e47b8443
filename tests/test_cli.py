import json
import shutil
from pathlib import Path

import pytest

from pulsepair.cli import _build_parser, main
from pulsepair.presets import write_preset


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    write_preset("trt_baseline", root / "base", master_seed=0)
    write_preset("storage_stress_trio", root / "trio", master_seed=0)
    write_preset("marker_overlap_demo", root / "overlap", master_seed=0)
    write_preset("ort_baseline", root / "ort", master_seed=0)
    return root


def run_dirs(root):
    return sorted(str(p) for p in root.iterdir() if p.is_dir())


class TestAnalyzeExitCodes:
    def test_healthy_run_exits_zero(self, corpora, capsys):
        rc = main(["analyze", run_dirs(corpora / "base")[0]])
        assert rc == 0
        assert "validity: A" in capsys.readouterr().out

    def test_empty_trace_is_class_b_exit_zero(self, corpora, capsys):
        rc = main(["analyze", str(corpora / "trio" / "storage_stress_003")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "validity: B" in out
        assert "complete_acquisition_failure" in out

    def test_incomplete_software_log_exits_two(self, corpora, tmp_path, capsys):
        src = corpora / "base" / "trt_baseline_001"
        dst = tmp_path / "truncated"
        dst.mkdir()
        lines = (src / "software.csv").read_text().splitlines()
        (dst / "software.csv").write_text("\n".join(lines[:88]) + "\n")  # header + 87 rows
        (dst / "transitions.csv").write_text((src / "transitions.csv").read_text())
        (dst / "metadata.json").write_text((src / "metadata.json").read_text())
        rc = main(["analyze", str(dst)])
        assert rc == 2
        assert "validity: C" in capsys.readouterr().out

    def test_truncated_log_is_not_reported_as_transition_loss(self, corpora, tmp_path, capsys):
        # Half the software rows are missing but every edge was captured:
        # the runtime is invalid (C), the external channel is healthy.
        src = corpora / "base" / "trt_baseline_001"
        dst = tmp_path / "truncated"
        dst.mkdir()
        lines = (src / "software.csv").read_text().splitlines()
        (dst / "software.csv").write_text("\n".join(lines[:51]) + "\n")  # header + 50 rows
        (dst / "transitions.csv").write_text((src / "transitions.csv").read_text())
        (dst / "metadata.json").write_text((src / "metadata.json").read_text())
        assert main(["analyze", str(dst), "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["validity"]["class"] == "C"
        assert payload["decoupling"]["failure_mode"] == "healthy"
        assert payload["decoupling"]["loss_fraction"] is None

    def test_gapped_software_log_is_class_c(self, corpora, tmp_path, capsys):
        # Indices 0-49 and 51-100: the right row count, but not range(100).
        src = corpora / "base" / "trt_baseline_001"
        dst = tmp_path / "gapped"
        dst.mkdir()
        lines = (src / "software.csv").read_text().splitlines()
        rows = [f"{i if i < 50 else i + 1},{line.split(',')[1]}"
                for i, line in enumerate(lines[1:])]
        (dst / "software.csv").write_text("\n".join([lines[0], *rows]) + "\n")
        (dst / "transitions.csv").write_text((src / "transitions.csv").read_text())
        (dst / "metadata.json").write_text((src / "metadata.json").read_text())
        assert main(["analyze", str(dst), "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["validity"]["class"] == "C"
        assert payload["decoupling"]["software_complete"] is False

    def test_threshold_below_inference_widths_is_class_d(self, corpora, capsys):
        # Every pulse classifies as a marker, so no inference width reaches
        # the separation check; the extra markers must still make it D, not
        # the paper's B / post_marker_collapse finding.
        rc = main(["analyze", str(corpora / "base" / "trt_baseline_001"),
                   "--marker-threshold-ms", "0.5", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 3
        assert payload["validity"]["class"] == "D"
        assert payload["decoupling"]["failure_mode"] == "marker_overlap"

    def test_marker_overlap_exits_three(self, corpora, capsys):
        rc = main(["analyze", str(corpora / "overlap" / "marker_overlap_demo_001")])
        assert rc == 3
        assert "validity: D" in capsys.readouterr().out

    def test_missing_directory_exits_one(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "nope")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_file_exits_one(self, corpora, tmp_path, capsys):
        src = corpora / "base" / "trt_baseline_001"
        dst = tmp_path / "bad"
        dst.mkdir()
        (dst / "software.csv").write_text("iteration,latency_ms\n0,banana\n")
        (dst / "transitions.csv").write_text((src / "transitions.csv").read_text())
        (dst / "metadata.json").write_text((src / "metadata.json").read_text())
        assert main(["analyze", str(dst)]) == 1


    def test_nonpositive_sample_period_exits_one(self, corpora, tmp_path, capsys):
        src = corpora / "base" / "trt_baseline_001"
        dst = tmp_path / "bad_meta"
        dst.mkdir()
        for name in ("software.csv", "transitions.csv"):
            (dst / name).write_text((src / name).read_text())
        meta = json.loads((src / "metadata.json").read_text())
        meta["sample_period_s"] = 0.0
        (dst / "metadata.json").write_text(json.dumps(meta))
        assert main(["analyze", str(dst)]) == 1
        assert "sample_period_s must be positive" in capsys.readouterr().err


def _bad_file(name, edit, run="base/trt_baseline_001"):
    """A case analyzing a copy of `run` whose file `name` holds edit(its bytes).

    An `edit` of None puts a directory in the file's place. A case returns
    the argv and the file that holds the fault, or None where no file does.
    """
    def case(corpora, tmp_path):
        dst = tmp_path / "bad_run"
        shutil.copytree(corpora / run, dst)
        faulty = dst / name
        raw = faulty.read_bytes()
        faulty.unlink()
        if edit is None:
            faulty.mkdir()
        else:
            faulty.write_bytes(edit(raw))
        return ["analyze", str(dst)], faulty
    return case


def _bad_metadata(run="base/trt_baseline_001", **fields):
    """A case analyzing a copy of `run` whose metadata has `fields` changed."""
    return _bad_file("metadata.json",
                     lambda raw: json.dumps({**json.loads(raw), **fields}).encode(), run)


def _out_is_a_file(corpora, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    return ["analyze", str(corpora / "base" / "trt_baseline_001"), "--out", str(taken)], taken


#: Inputs that are wrong before any run is classified. Exit 2 and 3 name a
#: validity class, so each of these must exit 1.
BAD_INPUTS = {
    "usage_error": lambda c, t: (["analyze", str(c / "base" / "trt_baseline_001"),
                                  "--min-margn", "3"], None),
    "non_numeric_metadata": _bad_metadata(marker_width_ms="wide"),
    "negative_metadata_threshold": _bad_metadata(marker_threshold_ms=-5.0),
    "negative_threshold": lambda c, t: (["analyze", str(c / "base" / "trt_baseline_001"),
                                         "--marker-threshold-ms", "-1"], None),
    "zero_min_margin": lambda c, t: (["analyze", str(c / "base" / "trt_baseline_001"),
                                      "--min-margin", "0"], None),
    "mixed_conditions": lambda c, t: (["condition", str(c / "base" / "trt_baseline_001"),
                                       str(c / "trio" / "storage_stress_002"),
                                       "--out", str(t / "rep")], None),
    "fractional_iterations": _bad_metadata(iterations_expected=100.9),
    "boolean_warmup": _bad_metadata(warmup_iterations=True),
    "mixed_architectures": lambda c, t: (["condition", str(c / "base" / "trt_baseline_001"),
                                          str(c / "ort" / "ort_baseline_001"),
                                          "--out", str(t / "rep")], None),
    "baseline_of_another_architecture": lambda c, t: ([
        "condition", str(c / "base" / "trt_baseline_001"),
        "--baseline", str(c / "ort" / "ort_baseline_001"), "--out", str(t / "rep")], None),
    "metadata_not_json": _bad_file("metadata.json", lambda raw: raw[:-10]),
    "metadata_a_number": _bad_file("metadata.json", lambda raw: b"5"),
    # bool("false") is True: this class-B run would read as D / gpio_line_misobservation
    "quoted_gpio_flag": _bad_metadata("trio/storage_stress_003", gpio_line_verified_absent="false"),
    "non_utf8_csv_bytes": _bad_file("transitions.csv", lambda raw: raw + b"\xff\xfe,1\n"),
    "directory_input": _bad_file("software.csv", None),
    "out_names_a_file": _out_is_a_file,
}


SCENARIO = {
    "n_runs": 1,
    "dist": {"type": "gaussian", "mean_ms": 2.0, "sd_ms": 0.1},
    "meta": {
        "architecture": "other",
        "condition": "baseline",
        "marker_width_ms": 100.0,
        "marker_threshold_ms": 50.0,
        "iterations_expected": 20,
        "warmup_iterations": 5,
    },
}


def _bad_scenario(**changes):
    """A case synthesizing SCENARIO with top-level `changes` applied; None drops a key."""
    def case(corpora, tmp_path):
        scenario = {**SCENARIO, **changes}
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps({k: v for k, v in scenario.items() if v is not None}))
        return ["synth", str(spec), "--out-dir", str(tmp_path / "out")], spec
    return case


BAD_INPUTS.update({
    "fractional_scenario_counts": _bad_scenario(
        n_runs=2.7, meta={**SCENARIO["meta"], "iterations_expected": 20.9,
                          "warmup_iterations": 5.5}),
    "fractional_scenario_seed": _bad_scenario(master_seed=1.5),
    "scenario_meta_not_an_object": _bad_scenario(meta=[]),
    "zero_scenario_runs": _bad_scenario(n_runs=0),
    "inapplicable_fault_key": _bad_scenario(fault={"kind": "marker_loss", "drop_fraction": 0.4}),
})


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_one_with_one_error_line(case, corpora, tmp_path, capsys):
    argv, faulty = BAD_INPUTS[case](corpora, tmp_path)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert sum("error:" in line for line in captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err
    assert "validity" not in captured.out
    if faulty is not None:  # a fault in a file names that file
        assert str(faulty) in captured.err


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_usage_error_does_not_affect_the_next_call(self, corpora, capsys):
        run = run_dirs(corpora / "base")[0]
        assert main(["analyze", run, "--format", "json"]) == 0
        expected = capsys.readouterr().out
        assert main(["analyze", run, "--min-margn", "3"]) == 1
        capsys.readouterr()
        assert main(["analyze", run, "--format", "json"]) == 0
        assert capsys.readouterr().out == expected

    def test_threshold_override_does_not_carry_over(self, corpora, capsys):
        run = str(corpora / "base" / "trt_baseline_001")
        assert main(["analyze", run, "--format", "json"]) == 0
        plain = capsys.readouterr().out
        main(["analyze", run, "--marker-threshold-ms", "0.5", "--format", "json"])
        overridden = json.loads(capsys.readouterr().out)
        assert overridden["validity"]["class"] != "A"  # every pulse is at least 0.5 ms wide
        assert main(["analyze", run, "--format", "json"]) == 0
        assert capsys.readouterr().out == plain


class TestAnalyzeReports:
    def test_reports_are_byte_stable(self, corpora, tmp_path, capsys):
        d = str(corpora / "trio" / "storage_stress_002")
        main(["analyze", d, "--out", str(tmp_path / "r1")])
        main(["analyze", d, "--out", str(tmp_path / "r2")])
        capsys.readouterr()
        assert (tmp_path / "r1" / "report.json").read_bytes() == (
            tmp_path / "r2" / "report.json"
        ).read_bytes()

    def test_json_format_output(self, corpora, capsys):
        rc = main(["analyze", run_dirs(corpora / "base")[0], "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["validity"]["class"] == "A"
        assert payload["external_summary"] is not None
        assert payload["software_summary"] is not None

    def test_class_b_has_no_external_summary(self, corpora, capsys):
        main(["analyze", str(corpora / "trio" / "storage_stress_002"), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["validity"]["class"] == "B"
        assert payload["external_summary"] is None
        assert payload["software_summary"] is not None


class TestCondition:
    def test_storage_trio_has_no_external_claims(self, corpora, tmp_path, capsys):
        rc = main(["condition", *run_dirs(corpora / "trio"), "--out", str(tmp_path / "rep")])
        assert rc == 0
        payload = json.loads((tmp_path / "rep" / "condition_report.json").read_text())
        assert payload.get("no_defensible_external_claims") is True
        assert payload["software_only_view"]["summary"]["samples"] == 300
        assert payload["external_view"]["summary"] is None
        assert (tmp_path / "rep" / "software_ecdf.csv").exists()
        assert not (tmp_path / "rep" / "external_ecdf.csv").exists()

    def test_baseline_condition_report(self, corpora, tmp_path, capsys):
        rc = main(["condition", *run_dirs(corpora / "base"), "--out", str(tmp_path / "rep")])
        assert rc == 0
        payload = json.loads((tmp_path / "rep" / "condition_report.json").read_text())
        assert payload["external_view"]["summary"]["runs"] == 5
        assert payload["external_view"]["summary"]["samples"] == 500
        assert (tmp_path / "rep" / "external_ecdf.csv").exists()

    def test_reused_out_dir_drops_stale_external_ecdf(self, corpora, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(["condition", *run_dirs(corpora / "base"), "--out", str(out)]) == 0
        assert (out / "external_ecdf.csv").exists()
        trio = corpora / "trio"
        assert main(["condition", str(trio / "storage_stress_001"),
                     str(trio / "storage_stress_003"), "--out", str(out)]) == 0
        payload = json.loads((out / "condition_report.json").read_text())
        assert payload["no_defensible_external_claims"] is True
        assert not (out / "external_ecdf.csv").exists()
        assert (out / "software_ecdf.csv").exists()

    def test_reused_out_dir_drops_stale_software_ecdf(self, corpora, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(["condition", *run_dirs(corpora / "base"), "--out", str(out)]) == 0
        assert (out / "software_ecdf.csv").exists()
        # a lone class-D run supports neither external nor software-only claims
        assert main(["condition", *run_dirs(corpora / "overlap"), "--out", str(out)]) == 0
        assert not (out / "software_ecdf.csv").exists()
        assert not (out / "external_ecdf.csv").exists()

    def test_detectors_require_baseline(self, corpora, tmp_path, capsys):
        main(["condition", *run_dirs(corpora / "base"), "--out", str(tmp_path / "nobase")])
        payload = json.loads((tmp_path / "nobase" / "condition_report.json").read_text())
        assert payload["detectors"] == {}

        main([
            "condition", *run_dirs(corpora / "base"),
            "--baseline", *run_dirs(corpora / "base"),
            "--out", str(tmp_path / "withbase"),
        ])
        payload = json.loads((tmp_path / "withbase" / "condition_report.json").read_text())
        assert payload["detectors"]["tail_inflation"]["flagged"] is False
        assert all(not f["flagged"] for f in payload["detectors"]["regime_shift"])

    def _skipped(self, corpora, tmp_path, baseline):
        assert main(["condition", *run_dirs(corpora / "base"), "--baseline", *baseline,
                     "--out", str(tmp_path / "rep")]) == 0
        return json.loads((tmp_path / "rep" / "condition_report.json").read_text())

    def test_unusable_baseline_says_both_detectors_are_skipped(self, corpora, tmp_path, capsys):
        # A baseline whose one run is class C supports no software claims.
        src = corpora / "base" / "trt_baseline_001"
        gapped = tmp_path / "gapped"
        gapped.mkdir()
        lines = (src / "software.csv").read_text().splitlines()
        (gapped / "software.csv").write_text("\n".join(lines[:51] + lines[52:]) + "\n")
        for name in ("transitions.csv", "metadata.json"):
            (gapped / name).write_text((src / name).read_text())
        payload = self._skipped(corpora, tmp_path, [str(gapped)])
        assert payload["detectors"] == {}
        skipped = [w for w in payload["warnings"] if "detector skipped" in w]
        assert len(skipped) == 2
        assert "tail_inflation" in skipped[0] and skipped[0].endswith("--baseline has 0")
        assert "regime_shift" in skipped[1] and skipped[1].endswith("--baseline has 0")

    def test_single_run_baseline_says_regime_shift_is_skipped(self, corpora, tmp_path, capsys):
        payload = self._skipped(corpora, tmp_path, [run_dirs(corpora / "base")[0]])
        assert set(payload["detectors"]) == {"tail_inflation"}
        skipped = [w for w in payload["warnings"] if "detector skipped" in w]
        assert len(skipped) == 1
        assert "regime_shift" in skipped[0] and skipped[0].endswith("--baseline has 1")

    def test_infinite_ratio_is_written_as_null(self, corpora, tmp_path, capsys):
        # Two baseline runs with constant latencies have a median run SD of
        # 0, so every candidate's SD collapse ratio is infinite.
        baseline = []
        for src in run_dirs(corpora / "base")[:2]:
            dst = tmp_path / Path(src).name
            shutil.copytree(src, dst)
            rows = (dst / "software.csv").read_text().splitlines()
            flat = [f"{line.split(',')[0]},1.230000" for line in rows[1:]]
            (dst / "software.csv").write_text("\n".join([rows[0], *flat]) + "\n")
            baseline.append(str(dst))
        assert main(["condition", *run_dirs(corpora / "base")[2:4], "--baseline", *baseline,
                     "--out", str(tmp_path / "rep")]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (tmp_path / "rep" / "condition_report.json").read_text()
        flags = json.loads(text, parse_constant=reject)["detectors"]["regime_shift"]
        assert len(flags) == 2
        assert all(f["sd_collapse_ratio"] is None for f in flags)
        assert all(f["baseline_median_run_sd_ms"] == 0.0 for f in flags)


class TestSynthCommand:
    def test_missing_scenario_key_names_the_file_and_key(self, tmp_path, capsys):
        argv, spec = _bad_scenario(meta=None)(None, tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {spec}: missing scenario key 'meta'\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_preset_fails(self, tmp_path, capsys):
        rc = main(["synth", "not_a_preset", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_preset_roundtrip_through_analyze(self, tmp_path, capsys):
        rc = main(["synth", "storage_stress_trio", "--out-dir", str(tmp_path), "--seed", "0"])
        assert rc == 0
        capsys.readouterr()
        for d in sorted(p for p in tmp_path.iterdir() if p.is_dir()):
            truth = json.loads((d / "ground_truth.json").read_text())
            main(["analyze", str(d), "--format", "json"])
            payload = json.loads(capsys.readouterr().out)
            assert payload["decoupling"]["failure_mode"] == truth["expected_failure_mode"]
            assert payload["validity"]["class"] == truth["expected_validity"]

    def test_seed_determinism(self, tmp_path, capsys):
        main(["synth", "trt_baseline", "--out-dir", str(tmp_path / "a"), "--seed", "4"])
        main(["synth", "trt_baseline", "--out-dir", str(tmp_path / "b"), "--seed", "4"])
        capsys.readouterr()
        a = (tmp_path / "a" / "trt_baseline_002" / "software.csv").read_bytes()
        b = (tmp_path / "b" / "trt_baseline_002" / "software.csv").read_bytes()
        assert a == b

    def test_scenario_file(self, tmp_path, capsys):
        scenario = {
            "n_runs": 2,
            "master_seed": 5,
            "dist": {"type": "gaussian", "mean_ms": 2.0, "sd_ms": 0.1},
            "meta": {
                "run_id_prefix": "custom",
                "architecture": "other",
                "condition": "baseline",
                "marker_width_ms": 100.0,
                "marker_threshold_ms": 50.0,
                "iterations_expected": 20,
                "warmup_iterations": 5,
            },
        }
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(scenario))
        rc = main(["synth", str(spec), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        dirs = sorted(p for p in (tmp_path / "out").iterdir())
        assert [d.name for d in dirs] == ["custom_001", "custom_002"]
        rc = main(["analyze", str(dirs[0])])
        assert rc == 0

    def test_scenario_marker_loss_reads_as_pairing_failure(self, tmp_path, capsys):
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps({**SCENARIO, "fault": {"kind": "marker_loss"}}))
        assert main(["synth", str(spec), "--out-dir", str(tmp_path / "out")]) == 0
        run = tmp_path / "out" / "scenario_001"
        truth = json.loads((run / "ground_truth.json").read_text())
        assert (truth["expected_validity"], truth["expected_failure_mode"]) == \
            ("B", "pairing_failure")
        capsys.readouterr()
        assert main(["analyze", str(run), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["validity"]["class"] == "B"
        assert report["decoupling"]["failure_mode"] == "pairing_failure"

    def test_scenario_master_seed_applies_without_seed_option(self, tmp_path, capsys):
        scenario = {
            "n_runs": 1,
            "dist": {"type": "gaussian", "mean_ms": 2.0, "sd_ms": 0.1},
            "meta": {
                "architecture": "other",
                "condition": "baseline",
                "marker_width_ms": 100.0,
                "marker_threshold_ms": 50.0,
                "iterations_expected": 20,
                "warmup_iterations": 5,
            },
        }
        logs = {}
        for seed in (0, 5):
            spec = tmp_path / f"seed{seed}.json"
            spec.write_text(json.dumps({**scenario, "master_seed": seed}))
            assert main(["synth", str(spec), "--out-dir", str(tmp_path / str(seed))]) == 0
            logs[seed] = (tmp_path / str(seed) / "scenario_001" / "software.csv").read_bytes()
        assert logs[0] != logs[5]
        # --seed, when given, still overrides the file's master_seed
        assert main(["synth", str(tmp_path / "seed0.json"), "--out-dir", str(tmp_path / "over"),
                     "--seed", "5"]) == 0
        assert (tmp_path / "over" / "scenario_001" / "software.csv").read_bytes() == logs[5]

    @pytest.mark.parametrize("fault,key", [
        ({"kind": "none", "overhead_bound_ms": 0.1}, "overhead_bound_ms"),
        ({"kind": "jitter"}, "kind"),
    ], ids=["bound_inside_fault", "jitter_kind"])
    def test_scenario_fault_keys_are_not_ignored(self, fault, key, tmp_path, capsys):
        scenario = {
            "n_runs": 1,
            "dist": {"type": "gaussian", "mean_ms": 2.0, "sd_ms": 0.1},
            "meta": {
                "architecture": "other",
                "condition": "baseline",
                "marker_width_ms": 100.0,
                "marker_threshold_ms": 50.0,
                "iterations_expected": 20,
                "warmup_iterations": 5,
            },
            "fault": fault,
        }
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(scenario))
        assert main(["synth", str(spec), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "out").exists()
