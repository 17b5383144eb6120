"""Command-line interface.

Commands: enumerate, graph, spectrum, census, bounds, walk, table.
Exit codes: 0 success, 1 claim failure, 2 input error, 3 capacity or
convergence error.  All output is deterministic for fixed flags and seed;
timing is only emitted when --timing is passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import sys
import time

import numpy as np

from . import bounds, census, certify, spectra, walk
from .errors import CapacityError, ConvergenceError, InvalidInputError
from .flipgraph import build_associahedron, write_edge_list
from .reference import LAMBDA_2_TABLE, LAMBDA_MIN_TABLE, check_reference
from .triangulations import _check_range, enumerate_triangulations

EXIT_OK = 0
EXIT_CLAIM = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3


def _emit(args, text: str) -> None:
    """Write a command's finished output to stdout, or to the --out file."""
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"--out {args.out}: {exc.strerror}") from None


def _read_lines(path: str, flag: str, parse) -> list:
    """``parse`` of each non-blank line of a user's file."""
    try:
        with open(path) as src:
            return [parse(line) for line in src if line.strip()]
    except OSError as exc:
        raise InvalidInputError(f"{flag} {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise InvalidInputError(f"{flag} {path}: {exc}") from None


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_enumerate(args) -> int:
    # code i is vertex i of the flip graph, without building it
    codes = enumerate_triangulations(args.n)
    _emit(args, "".join(code + "\n" for code in codes))
    return EXIT_OK


def cmd_graph(args) -> int:
    if args.slice:
        i, _, j = args.slice.partition("-")
        try:
            d = (int(i), int(j))
        except ValueError:
            raise InvalidInputError(f"--slice expects i-j, got {args.slice!r}")
        from .flipgraph import diagonal_slice

        g = diagonal_slice(args.n, d)
    else:
        g = build_associahedron(args.n)
    buf = io.StringIO()
    write_edge_list(g, buf)
    _emit(args, buf.getvalue())
    return EXIT_OK


def cmd_spectrum(args) -> int:
    if args.which == "full" and args.solver == "iterative":
        raise InvalidInputError("--which full is dense only; --solver iterative cannot give it")
    g = build_associahedron(args.n)
    t0 = time.perf_counter()
    result = {
        "n": args.n,
        "which": args.which,
        "lambda_min": None,
        "lambda_2": None,
        "eigenvalues": None,
        "residuals": {},
        "method": None,
        "iterations": 0,
        # the residual every answer passes; the full spectrum checks none
        "tolerance": None if args.which == "full" else spectra.TOLERANCE,
        "seed": args.seed,
        "seconds": None,
    }
    if args.which == "full":
        spec = spectra.dense_spectrum(g)
        result["eigenvalues"] = [float(v) for v in spec.eigenvalues]
        result["lambda_min"] = spec.lambda_min
        result["lambda_2"] = spec.lambda_2 if g.vertex_count >= 2 else None
        result["method"] = "dense"
    else:
        solver = spectra.lambda_min if args.which == "min" else spectra.lambda_2
        r = solver(g, method=args.solver, seed=args.seed)
        key = "lambda_min" if args.which == "min" else "lambda_2"
        result[key] = r.value
        result["residuals"][key] = r.residual
        result["method"] = r.method
        result["iterations"] = r.iterations
    if args.timing:
        result["seconds"] = time.perf_counter() - t0
    _emit(args, _json(result))
    return EXIT_OK


def cmd_census(args) -> int:
    if args.oracle:  # first: it refuses a host over the oracles' cap before any census
        pent_oracle = census.pentagon_census_oracle(args.n)
    t1 = census.ear_counts(args.n)
    pent = census.pentagon_census(args.n)
    hexa = census.hexagon_census(args.n) if args.n >= 6 else None
    if args.oracle and hexa:
        hexa_oracle = census.hexagon_census_oracle(args.n)
    if args.edges:
        target = census._flips(args.n)[-1]  # the flip graph's edges, from the censuses' pass
        u, i = census._edge_slots(target)
        columns = {"u": u.tolist(), "v": target[u, i].tolist(), "pentagon_count": pent.per_edge}
        hexa_name, per = "hexagon_count", "per_edge"
    else:
        columns = {"vertex_index": range(len(t1)), "t1": t1, "pentagon_formula": pent.per_vertex}
        hexa_name, per = "hexagon_total", "per_vertex"
    zeros = (0,) * len(getattr(pent, per))  # no hexagon below n = 6
    if args.oracle:
        columns["pentagon_oracle"] = getattr(pent_oracle, per)
    columns[hexa_name] = getattr(hexa, per) if hexa else zeros
    if args.oracle:
        columns["hexagon_oracle"] = getattr(hexa_oracle, per) if hexa else zeros
    lines = [",".join(columns)] + [",".join(map(str, row)) for row in zip(*columns.values())]
    _emit(args, "".join(line + "\n" for line in lines))
    return EXIT_OK


def _parse_pattern(text: str):
    from .flipgraph import complete_graph, cycle_graph, petersen_graph

    if text == "petersen":
        return petersen_graph()
    kind, _, size = text.partition(":")
    if not size.isdigit():
        raise InvalidInputError(f"pattern {text!r}: expected cycle:M, complete:M, or petersen")
    if kind == "cycle":
        return cycle_graph(int(size))
    if kind == "complete":
        return complete_graph(int(size))
    raise InvalidInputError(f"unknown pattern kind {kind!r}")


def cmd_bounds(args) -> int:
    if args.copies is not None:
        if args.n is None:
            raise InvalidInputError("--copies needs --n")
        pattern = _parse_pattern(args.pattern)
        g = build_associahedron(args.n)
        copies = _read_lines(
            args.copies, "--copies", lambda line: [int(x) for x in line.split(",")]
        )
        stats = bounds.collection_stats_from_copies(g, pattern, copies)
        if args.certify:
            report = bounds.certify_collection_bound(
                g, pattern, exact_lambda_min=spectra.lambda_min(g, seed=args.seed).value,
                name="user-collection-bound", stats=stats,
            )
        else:
            lam_k = spectra.dense_spectrum(pattern).lambda_min
            bound = bounds.collection_bound(g.degree, pattern.degree, lam_k, stats)
            report = bounds.bound_report(
                "user-collection-bound", bound, m=stats.m, t=stats.t, copies=stats.copy_count
            )
        _emit(args, _json([dataclasses.asdict(report)]))
        return EXIT_CLAIM if report.satisfied is False else EXIT_OK
    if args.certify and args.n is None:
        results = certify.run_certification(args.n_max, seed=args.seed)
        payload = [
            {"claim": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ]
        _emit(args, _json(payload))
        return EXIT_OK if all(r.passed for r in results) else EXIT_CLAIM
    if args.n is None:
        raise InvalidInputError("bounds needs --n, or --certify with --n-max")
    lam_min = lam2 = None
    if args.certify:
        g = build_associahedron(args.n)
        lam_min = spectra.lambda_min(g, seed=args.seed).value
        lam2 = spectra.lambda_2(g, seed=args.seed).value
    reports = bounds.flipgraph_bound_reports(args.n, lam_min=lam_min, lam2=lam2, eps=args.eps)
    _emit(args, _json([dataclasses.asdict(r) for r in reports]))
    failed = [r for r in reports if r.satisfied is False]
    return EXIT_CLAIM if failed else EXIT_OK


def cmd_walk(args) -> int:
    g = build_associahedron(args.n)
    if args.test_fn:
        if args.test_fn == "aldous":
            f = walk.aldous_test_function(args.n)
        elif args.test_fn == "eigen":
            f = spectra.lambda_2(g, seed=args.seed).vector
        else:
            if not args.fn_file:
                raise InvalidInputError("--test-fn file needs --fn-file")
            f = np.array(_read_lines(args.fn_file, "--fn-file", float))
        rep = walk.dirichlet_quotient(g, f)
        text = _json(
            {
                "n": args.n,
                "test_fn": args.test_fn,
                "dirichlet": rep.dirichlet,
                "variance": rep.variance,
                "quotient": rep.quotient,
                "gap_upper": rep.gap_upper,
            }
        )
    else:
        summary = walk.simulate_walk(g, args.steps, args.seed, args.start)
        text = (
            f"# n={args.n} steps={args.steps} seed={args.seed} "
            f"start={summary.start} returns={summary.return_count}\n"
            "vertex,visits\n"
        ) + "".join(f"{v},{c}\n" for v, c in enumerate(summary.counts))
    _emit(args, text)
    return EXIT_OK


def cmd_table(args) -> int:
    if args.n_max < 5:
        raise InvalidInputError("table needs --n-max >= 5")
    for n in range(5, args.n_max + 1):  # refuse an n over the cap before the first solve
        _check_range(n)
    table = LAMBDA_MIN_TABLE if args.kind == "lambda_min" else LAMBDA_2_TABLE
    solver = spectra.lambda_min if args.kind == "lambda_min" else spectra.lambda_2
    fh = io.StringIO()
    ok = True
    fh.write(f"# {args.kind} of the flip graph, n = 5..{args.n_max}\n")
    fh.write("n-3\tvalue\treference\tstatus\n")
    for n in range(5, args.n_max + 1):
        g = build_associahedron(n)
        value = solver(g, seed=args.seed).value
        ref = table.get(n)
        good = check_reference(args.kind, n, value)
        status = "uncharted" if good is None else "ok" if good else "MISMATCH"
        ok = ok and good is not False
        fh.write(f"{n - 3}\t{value:.3f}\t{'-' if ref is None else format(ref, '.3f')}\t{status}\n")
    _emit(args, fh.getvalue())
    return EXIT_OK if ok else EXIT_CLAIM


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="flipspectra",
        description="Flip graphs of polygon triangulations: spectra, censuses, bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--n", type=int, required=True, help="polygon size")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("enumerate", help="list triangulations, one code per line")
    add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("graph", help="export the flip graph as an edge list")
    add_common(p)
    p.add_argument("--slice", default=None,
                   help="export the slice on triangulations containing diagonal i-j")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("spectrum", help="extreme eigenvalues or the full spectrum")
    add_common(p)
    p.add_argument("--which", choices=["min", "second", "full"], default="min")
    p.add_argument("--solver", choices=["auto", "dense", "iterative"], default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timing", action="store_true", help="include wall time in the output")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("census", help="pentagon/hexagon counts as CSV")
    add_common(p)
    p.add_argument("--oracle", action="store_true", help="add brute-force oracle columns")
    p.add_argument("--edges", action="store_true", help="per-edge instead of per-vertex")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("bounds", help="bound reports, or the full claim suite")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-max", type=int, default=9, dest="n_max",
                   help="scope of the claim suite with --certify")
    p.add_argument("--certify", action="store_true",
                   help="certify against exact spectra (with --n) or run the claim suite")
    p.add_argument("--eps", type=float, default=0.1, help="mixing-time accuracy target")
    p.add_argument("--copies", default=None,
                   help="file of copies (comma-separated vertex indices, one per line) "
                        "for a user-supplied collection")
    p.add_argument("--pattern", default="cycle:5",
                   help="pattern graph for --copies: cycle:M, complete:M, or petersen")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("walk", help="simulate the flip walk or score a test function")
    add_common(p)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", type=int, default=None)
    p.add_argument("--test-fn", choices=["aldous", "eigen", "file"], default=None,
                   dest="test_fn")
    p.add_argument("--fn-file", default=None, dest="fn_file",
                   help="one value per line, canonical vertex order")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("table", help="reproduce the reference eigenvalue tables")
    p.add_argument("--kind", choices=["lambda_min", "lambda_2"], required=True)
    p.add_argument("--n-max", type=int, default=12, dest="n_max")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CapacityError, ConvergenceError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
