"""Each script under scripts/ runs at a small range.

The summary scripts run to their last line; bench.py's stages run in this process.
"""

import contextlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flipspectra import cli, spectra, walk
from flipspectra import flipgraph as fg

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


def test_bench_stages_run():
    # bench.py reaches into any checkout by these names, so a rename must fail here, not
    # at the next benchmark: each stage runs once, at the smallest n of its range
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert "from flipspectra import cli, spectra, walk" in bench.CHILD
    assert "from flipspectra import flipgraph as fg" in bench.CHILD
    for stage, (n_range, setup, statement) in bench.STAGES.items():
        names = {"cli": cli, "spectra": spectra, "walk": walk, "fg": fg,
                 "contextlib": contextlib, "os": os, "n": n_range[0], "result": None}
        exec(setup, names)
        exec(statement, names)
        if stage in ("lmin", "lam2"):  # the child reports the solve's method and iterations
            assert names["result"].method == "sectors" and names["result"].iterations == 0
