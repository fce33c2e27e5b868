"""Each demo script runs to completion (exit 0) in a fresh interpreter."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo):
    # a numpy overflow or invalid-value warning fails the demo, as it fails an in-process test
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_all_four_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_0(demo):
    assert _run(demo)


def test_demo_01_prints_its_golden_durations():
    # byte for byte: every figure is a closed form, the SWAP bookkeeping included
    assert _run(ROOT / "demos" / "01_durations_and_scaling.py") == (ROOT / "tests" / "golden" / "demo_01.txt").read_text()


def test_demo_03_prints_its_golden_offset_scans():
    # byte for byte: its scans are one engine call each, the members of which equal
    # one call per offset bit for bit
    assert _run(ROOT / "demos" / "03_broadband_offsets.py") == (ROOT / "tests" / "golden" / "demo_03.txt").read_text()
