"""Byte-for-byte equivalence gate over every preset at seed 0.

For each preset the golden tree under `tests/golden/<preset>/` holds:

  synth.sha256          SHA-256 of every file `write_preset` writes
  exit_codes.json       the `analyze` exit code of each run
  <run_id>/report.json  and report.txt, as `analyze --out` writes them
  condition/            what `condition --out` writes for the whole preset,
                        with a baseline preset where one exists

The test rebuilds the same tree in a temporary directory and compares it
file by file. A change that is meant to alter any output regenerates the
tree with `PYTHONPATH=src python tests/test_golden.py` and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from pulsepair.cli import main
from pulsepair.presets import PRESETS, write_preset

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 0
#: Presets whose condition run gets a baseline, so both detectors are covered.
BASELINE = {"trt_memstress": "trt_baseline", "ort_memstress_collapse": "ort_baseline"}


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def build_preset_tree(name: str, runs_root: Path, out: Path) -> None:
    """Synthesize `name` under runs_root and write its golden tree to out."""
    run_dirs = write_preset(name, runs_root / name, master_seed=SEED)
    out.mkdir(parents=True)
    sums = []
    for d in run_dirs:
        for f in sorted(d.iterdir()):
            digest = hashlib.sha256(f.read_bytes()).hexdigest()
            sums.append(f"{digest}  {d.name}/{f.name}\n")
    (out / "synth.sha256").write_text("".join(sums))

    codes = {d.name: _cli(["analyze", str(d), "--out", str(out / d.name)]) for d in run_dirs}
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")

    argv = ["condition", *map(str, run_dirs)]
    if name in BASELINE:
        base = write_preset(BASELINE[name], runs_root / f"{name}_baseline", master_seed=SEED)
        argv += ["--baseline", *map(str, base)]
    assert _cli(argv + ["--out", str(out / "condition")]) == 0


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_outputs_match_golden(name, tmp_path):
    build_preset_tree(name, tmp_path / "runs", tmp_path / "out")
    got, want = _tree(tmp_path / "out"), _tree(GOLDEN / name)
    assert sorted(got) == sorted(want)
    for rel, data in want.items():
        assert got[rel] == data, f"{name}/{rel} differs from the golden copy"


if __name__ == "__main__":
    import shutil
    import tempfile

    shutil.rmtree(GOLDEN, ignore_errors=True)
    with tempfile.TemporaryDirectory() as tmp:
        for preset in sorted(PRESETS):
            build_preset_tree(preset, Path(tmp), GOLDEN / preset)
    print(f"wrote {GOLDEN}", file=sys.stderr)
