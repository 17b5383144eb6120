"""Each script under scripts/ runs at a small range and ends on its summary line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, last_line",
    [
        (
            ["residue_upper_constants.py", "--n-max", "40"],
            "sample bounds: {13: -7.157, 22: -13.808, 47: -30.793, 100: -67.546}",
        ),
        (["aldous_scaling.py", "--n-min", "6", "--n-max", "8"], "scaling band max/min: 1.318"),
    ],
)
def test_script_runs_to_its_summary(argv, last_line):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script, *args = argv
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == last_line
