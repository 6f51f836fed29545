"""Each narrative demo runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


def run_demo(demo, cwd, *args, **env):
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(demo), *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    result = run_demo(demo, tmp_path)
    assert result.returncode == 0, result.stderr


def test_sequence_table_prints_counts_past_the_digit_limit(tmp_path):
    # the total at order 160 has 667 digits; 640 is the lowest limit CPython accepts
    result = run_demo(
        ROOT / "demos" / "sequence_table.py", tmp_path, "160", PYTHONINTMAXSTRDIGITS="640"
    )
    assert result.returncode == 0, result.stderr
