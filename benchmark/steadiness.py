#!/usr/bin/env python3
"""Are two sets of runs of the same code steady enough for the benchmark's bounds?

    python3 benchmark/steadiness.py

Run from the root of a checkout.  It prints the machine record, then runs
``run.py`` on every workload in BENCHMARK.json twice over, as set A and
set B.  Each set makes ``RUNS`` untraced runs per workload (seeds
1..RUNS) and ``TRACE_RUNS`` traced runs (seeds 1..TRACE_RUNS).  For each
end-to-end metric and workload it reports both medians, the quartile
spread of each set as a share of its median, and whether the metric
agrees: the medians within the bound in BENCHMARK.json, and each spread
within it too (``setup_s`` excepted, see ``agrees``).  Traced counts must
repeat exactly between the sets, and so must the share of failed
operations.  Raw results go to ``benchmark/out/steadiness.json``; the exit
code is 1 when anything disagrees.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS = 10  # untraced runs per workload and set
TRACE_RUNS = 2  # traced runs per workload and set


def machine_record() -> dict:
    """nproc, numpy/scipy versions, and each bundled OpenBLAS with its thread count."""
    import numpy
    import scipy

    blas = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in glob.glob(str(libdir / "lib*openblas*.so")):
            lib = ctypes.CDLL(path)
            suffix = "64_" if "openblas64_" in Path(path).name else ""
            try:
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            blas[pkg.__name__] = {"library": Path(path).name, "config": config().decode(), "threads": threads()}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": blas,
    }


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - t0
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def agrees(metric: dict, change: float, spreads: tuple[float, float]) -> bool:
    """The medians agree within the metric's bound, and so does each set's spread.

    ``setup_s`` is held to its median only.  Its job is to show work moved
    out of the operations into set-up, and such a move shifts the median.
    Its spread is a spread of interpreter start-up and of the numpy/scipy
    import, about half a second that follows the file cache and the
    machine's load rather than the program, so it is reported, not gated.
    """
    if abs(change) > metric["bound"]:
        return False
    return metric["name"] == "setup_s" or max(spreads) <= metric["bound"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    print(json.dumps(machine_record(), indent=1), flush=True)

    raw = {}
    for set_name in ("A", "B"):
        for w in names:
            for trace, count in ((0, RUNS), (1, TRACE_RUNS)):
                for seed in range(1, count + 1):
                    r = one_run(w, seed, spec["run_seconds"], trace)
                    raw.setdefault(f"{set_name}/{w}/trace{trace}", []).append(r)
                    print(f"set {set_name} {w} seed {seed} trace {trace}: {r['elapsed_s']:.1f} s, "
                          f"correct={r['correct']} attempted={r['attempted']} failed={r['failed']}", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steadiness.json").write_text(json.dumps(raw, indent=1))

    ok = True
    print("\n| workload | metric | median A | median B | B vs A | spread A | spread B | bound | agree |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---|")
    for w in names:
        runs_a, runs_b = raw[f"A/{w}/trace0"], raw[f"B/{w}/trace0"]
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in runs_a]
            b = [r["metrics"][m["name"]]["value"] for r in runs_b]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            sa, sb = spread(a), spread(b)
            agree = agrees(m, change, (sa, sb))
            ok &= agree
            print(f"| {w} | {m['name']} | {ma:.4f} | {mb:.4f} | {change:+.3f} | {sa:.3f} | {sb:.3f} "
                  f"| {m['bound']} | {'yes' if agree else 'NO'} |")
    for w in names:
        share = {s: [r["failed"] / r["attempted"] for r in raw[f"{s}/{w}/trace0"] + raw[f"{s}/{w}/trace1"]]
                 for s in "AB"}
        correct = all(r["correct"] for k, rs in raw.items() if f"/{w}/" in k for r in rs)
        counts_equal = True
        for ra, rb in zip(raw[f"A/{w}/trace1"], raw[f"B/{w}/trace1"]):
            for name, metric in ra["metrics"].items():
                if metric["unit"] == "count" and metric["value"] != rb["metrics"][name]["value"]:
                    counts_equal = False
                    print(f"{w}: {name} {metric['value']} in set A, {rb['metrics'][name]['value']} in set B")
        same_share = share["A"] == share["B"]
        ok &= correct and counts_equal and same_share
        print(f"{w}: correct={correct} failed-share A={share['A'][0]:.3f} B={share['B'][0]:.3f} "
              f"(identical: {same_share}); traced counts repeat: {counts_equal}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
