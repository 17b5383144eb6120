#!/usr/bin/env python3
"""The flipspectra benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every sample comes from a fresh Python process (``worker.py``), so the
program's ``lru_cache``s start cold as a CLI user's do:

* ``SETUP_PROBES`` processes only import the program and build the
  inputs; with the rounds' own set-ups they give the median ``setup_s``;
* then rounds of the workload's operations, one process per round, until
  ``T`` seconds have passed (at least one round).  ``wall_s`` and
  ``peak_rss_mb`` are medians over rounds.

With ``--trace 1`` the rounds run under the tracer and the run reports the
per-layer metrics (medians over rounds) instead of the end-to-end ones.
The last stdout line is the JSON result.  Raw round results and span files
go to ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
RUN_BUDGET_S = 170.0  # a run must end within 180 s



def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    # no more BLAS threads than the cores this process may use
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, nproc)
    return env


def spawn(argv: list[str], env: dict[str, str], deadline: float) -> dict:
    """Run one worker; its last stdout line is its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--spawned", repr(time.monotonic())]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    src = Path.cwd() / "src"
    if not (src / "flipspectra" / "cli.py").is_file():
        print(f"no flipspectra source under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    env = child_env(src)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = [spawn(base + ["--probe"], env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    rounds = []
    t_rounds = time.monotonic()
    while True:
        extra = ["--trace-file", str(out_dir / f"{tag}-round{len(rounds)}.jsonl")] if args.trace else []
        t0 = time.monotonic()
        rounds.append(spawn(base + extra, env, deadline))
        now = time.monotonic()
        if now - t_rounds >= args.seconds or now + (now - t0) > deadline:
            break
    (out_dir / f"{tag}.json").write_text(json.dumps({"setups": setups, "rounds": rounds}, indent=1))

    setups += [r["setup_s"] for r in rounds]
    if args.trace:
        units = metric_units("per_layer")
        values = {name: statistics.median(r["layers"][name] for r in rounds) for name in units}
    else:
        units = metric_units("end_to_end")
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": all(not r["errors"] for r in rounds),
                "attempted": sum(r["attempted"] for r in rounds),
                "failed": sum(r["failed"] for r in rounds),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
