"""One cold process of the flipspectra benchmark.

    python3 benchmark/worker.py --workload W --seed S --spawned T [--probe] [--trace-file F]

``run.py`` starts it with ``PYTHONPATH`` set to the checkout's ``src`` and
``T`` = its ``time.monotonic()`` just before the start (CLOCK_MONOTONIC is
shared by all processes on Linux).  The worker imports the program and
builds the workload's argv lists: that is the set-up.  With ``--probe`` it
stops there.  Otherwise it runs each operation once through
``flipspectra.cli.main`` with stdout captured, checks the outputs, and
prints one JSON object as its last stdout line.  With ``--trace-file`` the
operations run under the tracer and the spans are written to that file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

import tracing


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()

    from flipspectra import cli

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ops = workload.ops(args.seed)
    setup_s = time.monotonic() - args.spawned
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer().install() if args.trace_file else None
    cpu0 = _cpu_seconds()
    results = []
    for i, argv in enumerate(ops):
        buf = io.StringIO()
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception as exc:  # an operation that fails is counted, not fatal
            print(f"{' '.join(argv)}: {exc!r}", file=sys.stderr)
            code = None
        results.append(workloads.OpResult(argv, code, buf.getvalue(), time.perf_counter() - t0))
    wall_s = sum(r.seconds for r in results)
    cpu_s = _cpu_seconds() - cpu0
    peak_rss_mb = tracing.max_rss_mb()

    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.metrics()
        layers["process.cpu_s"] = cpu_s
        layers["process.wall_s"] = wall_s
        tracer.write(args.trace_file)

    try:
        errors = workload.check(results, args.seed)
    except Exception as exc:  # a check that cannot read the outputs is a failed check
        errors = [f"check raised {exc!r}"]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "peak_rss_mb": peak_rss_mb,
                "attempted": len(results),
                "failed": sum(r.code != 0 for r in results),
                "errors": errors,
                "op_seconds": [r.seconds for r in results],
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
