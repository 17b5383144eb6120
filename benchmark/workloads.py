"""The benchmark's workloads: CLI argv lists and the checks of their outputs.

Every operation is one documented ``flipspectra`` command.  The workload
seed becomes the CLI's ``--seed`` (taken mod 2**32, the range numpy's
generators accept); the polygon sizes are fixed because they choose the
regime each workload measures.  This module imports only the standard
library, so importing it costs the set-up time nothing measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class OpResult:
    argv: list[str]
    code: int | None  # None when the command raised
    stdout: str
    seconds: float


def cli_seed(seed: int) -> str:
    return str(seed % 2**32)


SPECTRUM_N = 11  # 4,862 vertices, solved with --solver iterative (Lanczos)
TABLES_N_MAX = 10  # graphs up to 1,430 vertices: every solve dense
CERTIFY_N_MAX = 10


def spectrum_ops(seed: int) -> list[list[str]]:
    s, n = cli_seed(seed), str(SPECTRUM_N)
    return [
        ["enumerate", "--n", n],
        ["spectrum", "--n", n, "--which", "min", "--solver", "iterative", "--seed", s],
        ["spectrum", "--n", n, "--which", "second", "--solver", "iterative", "--seed", s],
    ]


def tables_ops(seed: int) -> list[list[str]]:
    s, n_max = cli_seed(seed), str(TABLES_N_MAX)
    return [
        ["table", "--kind", "lambda_min", "--n-max", n_max, "--seed", s],
        ["table", "--kind", "lambda_2", "--n-max", n_max, "--seed", s],
    ]


def certify_ops(seed: int) -> list[list[str]]:
    return [["bounds", "--certify", "--n-max", str(CERTIFY_N_MAX), "--seed", cli_seed(seed)]]


def _graph(n: int):
    # the graph the commands just used: a hit in the program's graph cache
    from flipspectra.flipgraph import build_associahedron

    return build_associahedron(n)


def check_spectrum(results: list[OpResult], seed: int) -> list[str]:
    import checks

    n = SPECTRUM_N
    g = _graph(n)
    errors = [f"{' '.join(r.argv)}: exit {r.code}" for r in results if r.code != 0]
    errors += checks.verify_flip_graph(n, g.labels, g.offsets, g.neighbors)
    errors += checks.check_enumerate(n, results[0].stdout, g.labels)
    s = int(cli_seed(seed))
    min_errors, lam_min = checks.check_spectrum(n, "min", s, results[1].stdout, g.offsets, g.neighbors)
    second_errors, _ = checks.check_spectrum(n, "second", s, results[2].stdout, g.offsets, g.neighbors)
    errors += min_errors + second_errors
    errors += checks.check_method(results[1].stdout, "iterative") + checks.check_method(results[2].stdout, "iterative")
    if lam_min is not None:
        errors += checks.check_lower_bound(n, lam_min)
    return errors


def check_tables(results: list[OpResult], seed: int) -> list[str]:
    import checks

    n_max = TABLES_N_MAX
    errors = [f"{' '.join(r.argv)}: exit {r.code}" for r in results if r.code != 0]
    ref_min, ref_2 = {}, {}
    for n in range(5, n_max + 1):
        g = _graph(n)
        errors += checks.verify_flip_graph(n, g.labels, g.offsets, g.neighbors)
        ref_min[n] = checks.reference_eigenvalue(g.offsets, g.neighbors, "min", seed)[0]
        ref_2[n] = checks.reference_eigenvalue(g.offsets, g.neighbors, "second", seed)[0]
    errors += checks.check_table("lambda_min", n_max, results[0].stdout, ref_min)
    errors += checks.check_table("lambda_2", n_max, results[1].stdout, ref_2)
    return errors


def check_certify(results: list[OpResult], seed: int) -> list[str]:
    import checks

    return checks.check_certify(CERTIFY_N_MAX, results[0].code, results[0].stdout)


@dataclass(frozen=True)
class Workload:
    ops: Callable[[int], list[list[str]]]
    check: Callable[[list[OpResult], int], list[str]]


WORKLOADS = {
    f"spectrum-n{SPECTRUM_N}": Workload(spectrum_ops, check_spectrum),
    f"tables-n{TABLES_N_MAX}": Workload(tables_ops, check_tables),
    f"certify-n{CERTIFY_N_MAX}": Workload(certify_ops, check_certify),
}
