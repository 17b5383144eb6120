#!/usr/bin/env python3
"""Time the pipeline layer by layer, each sample in a fresh process.

Usage: python scripts/bench.py --checkout LABEL=CHECKOUT/src [--checkout ...]

For every stage and every n of its range, three fresh Python processes per
checkout import flipspectra from that checkout's src, run the stage once
and report its seconds and their own peak RSS (``resource.getrusage``, the
whole process).  The samples of all checkouts are interleaved, and the
checkout that goes first rotates from one sample to the next, so drift of
the machine during a run falls on every checkout alike.  The stages:

* ``rows`` (n = 10..15): the id-row enumeration, ``flipgraph._id_rows(n)``;
* ``flip`` (n = 10..15): the flip pass, ``flipgraph._flip_pass(n)``, on rows
  already enumerated (untimed) in the same process.  Its ``peak_rss_mb`` is
  the larger of that setup's peak and the flip pass's own;
  ``setup_rss_mb``, the peak just before the timed step, tells them apart;
* ``build`` (n = 10..15): ``flipgraph.build_associahedron(n)`` from cold.
  On a checkout with lazy labels this is the CSR arrays alone, as the
  stage never reads ``Graph.labels``; earlier checkouts also build every
  label string here;
* ``census`` (n = 10..12): ``census --n N --oracle --edges`` through
  ``cli.main``, from cold, with its output discarded;
* ``aldous`` (n = 10..12): the Aldous test function,
  ``walk.aldous_test_function(n)``, from cold;
* ``lmin`` and ``lam2`` (n = 9..12): ``spectra.lambda_min(g)`` and
  ``spectra.lambda_2(g)`` under ``auto``, on the flip graph built (untimed)
  in the same process; each also records the result's ``method`` and
  ``iterations``;
* ``sectors`` (n = 9..12): the eigenvalues of every rotation sector,
  ``spectra._sector_eigenvalues(n)``, on the flip graph and its rotation
  orbits built (untimed) in the same process.  It runs whichever sector
  solver the checkout has, whether or not ``auto`` would take it at n;
* ``enumerate`` (n = 12..14): ``enumerate --n N`` through ``cli.main``,
  from cold, with its output discarded;
* ``certify`` (n = 8..10): the claim suite, ``bounds --certify --n-max N``
  through ``cli.main``, from cold, with its output discarded.

Only these names are used, so any checkout since the array build can be
measured, and since the rotation sectors for the ``sectors`` stage.
``BENCH_<label>.json`` in the repository root, one per
checkout, holds the medians, each run, nproc, the numpy and scipy versions
and the thread count of every loaded OpenBLAS.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

K = 3
ROOT = Path(__file__).resolve().parent.parent

# stage -> (its n range, untimed setup, timed statement)
STAGES = {
    "rows": (range(10, 16), "", "fg._id_rows(n)"),
    "flip": (range(10, 16), "fg._id_rows(n)", "fg._flip_pass(n)"),
    "build": (range(10, 16), "", "fg.build_associahedron(n, max_n=n)"),
    "census": (
        range(10, 13),
        "",
        "with open(os.devnull, 'w') as null, contextlib.redirect_stdout(null): "
        "cli.main(['census', '--n', str(n), '--oracle', '--edges'])",
    ),
    "aldous": (range(10, 13), "", "walk.aldous_test_function(n)"),
    "lmin": (range(9, 13), "g = fg.build_associahedron(n)", "result = spectra.lambda_min(g)"),
    "lam2": (range(9, 13), "g = fg.build_associahedron(n)", "result = spectra.lambda_2(g)"),
    "sectors": (
        range(9, 13),
        "g = fg.build_associahedron(n); fg.rotation_orbits(n)",
        "spectra._sector_eigenvalues(n)",
    ),
    "enumerate": (
        range(12, 15),
        "",
        "with open(os.devnull, 'w') as null, contextlib.redirect_stdout(null): "
        "cli.main(['enumerate', '--n', str(n)])",
    ),
    "certify": (
        range(8, 11),
        "",
        "with open(os.devnull, 'w') as null, contextlib.redirect_stdout(null): "
        "cli.main(['bounds', '--certify', '--n-max', str(n)])",
    ),
}

CHILD = """
import contextlib, ctypes, json, os, resource, sys, time
import numpy, scipy
from flipspectra import cli, spectra, walk
from flipspectra import flipgraph as fg

def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

def blas_threads():
    out = {}
    for path in sorted({l.split()[-1] for l in open("/proc/self/maps") if "openblas" in l}):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                out[path.rsplit("/", 1)[-1]] = getattr(lib, name)()
                break
    return out

n = int(sys.argv[1])
result = None  # a solve stage's SpectralResult
import_rss = rss_mb()
%s
setup_rss = rss_mb()
t0 = time.perf_counter()
%s
seconds = time.perf_counter() - t0
solve = {} if result is None else {"method": result.method, "iterations": result.iterations}
print(json.dumps({"seconds": seconds, "peak_rss_mb": rss_mb(), "import_rss_mb": import_rss,
                  "setup_rss_mb": setup_rss,
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas_threads": blas_threads(), **solve}))
"""


def run_child(src: Path, stage: str, n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    code = CHILD % STAGES[stage][1:]
    out = subprocess.run(
        [sys.executable, "-c", code, str(n)], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def checkout(text: str) -> tuple[str, Path]:
    label, sep, src = text.partition("=")
    if not (label and sep and src):
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC, got {text!r}")
    return label, Path(src).resolve()


def summary(runs: list[dict]) -> dict:
    entry = {
        "seconds": statistics.median(r["seconds"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "import_rss_mb": statistics.median(r["import_rss_mb"] for r in runs),
        "setup_rss_mb": statistics.median(r["setup_rss_mb"] for r in runs),
        "seconds_runs": [round(r["seconds"], 4) for r in runs],
        "peak_rss_mb_runs": [round(r["peak_rss_mb"], 1) for r in runs],
    }
    if "method" in runs[-1]:
        entry["method"] = runs[-1]["method"]
        entry["iterations"] = runs[-1]["iterations"]
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--checkout", type=checkout, action="append", required=True,
                        metavar="LABEL=SRC",
                        help="a label and its checkout's src directory; repeat to compare")
    pairs = parser.parse_args().checkout
    checkouts = dict(pairs)
    if len(checkouts) < len(pairs):
        parser.error("each --checkout needs its own label")

    labels = list(checkouts)
    width = max(map(len, labels))
    stages = {label: {stage: {} for stage in STAGES} for label in labels}
    last: dict[str, dict] = {}
    turn = 0
    for stage, (n_range, _, _) in STAGES.items():
        for n in n_range:
            runs: dict[str, list[dict]] = {label: [] for label in labels}
            for _ in range(K):
                first = turn % len(labels)
                turn += 1
                for label in labels[first:] + labels[:first]:
                    runs[label].append(run_child(checkouts[label], stage, n))
            for label in labels:
                last[label] = runs[label][-1]
                entry = stages[label][stage][str(n)] = summary(runs[label])
                print(f"n={n:>2} {stage:<9} {label:<{width}} {entry['seconds']:8.3f} s "
                      f"{entry['peak_rss_mb']:7.1f} MB", flush=True)
    for label in labels:
        report = {
            "label": label,
            "k": K,
            "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": last[label].get("numpy"),
            "scipy": last[label].get("scipy"),
            "blas_threads": last[label].get("blas_threads"),
            "stages": stages[label],
        }
        path = ROOT / f"BENCH_{label}.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
