"""Random walks on flip graphs and Dirichlet-quotient gap bounds.

The walk picks a uniform random neighbor at each step; on a connected
regular graph its stationary distribution is uniform.  Gap bounds come
from exact edge summation of the Dirichlet form of a test function, never
from sampling, so scaling checks are noise free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .flipgraph import Graph, _flip_pass, build_associahedron, is_connected
from .spectra import lambda_2
from .triangulations import _check_range


@dataclass(frozen=True)
class WalkSummary:
    start: int
    counts: tuple[int, ...]  # visits per vertex, including the start state
    return_count: int        # visits to the start after step 0


def simulate_walk(g: Graph, steps: int, seed: int = 0, start: int | None = None) -> WalkSummary:
    """Run the uniform-neighbor walk; fully determined by the seed.

    A start of None is drawn uniformly at random.
    """
    if steps < 0:
        raise InvalidInputError("steps must be nonnegative")
    if not is_connected(g):
        raise InvalidInputError("walk requires a connected graph")
    d = g.degree
    if d is None:
        raise InvalidInputError("walk requires a regular graph")
    if d == 0 and steps > 0:
        raise InvalidInputError("cannot step on an edgeless graph")
    rng = np.random.default_rng(seed)
    if start is None:
        start = int(rng.integers(g.vertex_count))
    else:
        start = int(start)
        if not 0 <= start < g.vertex_count:
            raise InvalidInputError(f"start {start} outside 0..{g.vertex_count - 1}")
    counts = np.zeros(g.vertex_count, dtype=np.int64)
    counts[start] += 1
    returns = 0
    if steps > 0:
        picks = rng.integers(0, d, size=steps)
        offsets, nbrs = g.offsets, g.neighbors
        cur = start
        for p in picks:
            cur = int(nbrs[offsets[cur] + p])
            counts[cur] += 1
            if cur == start:
                returns += 1
    return WalkSummary(start, tuple(int(c) for c in counts), returns)


@dataclass(frozen=True)
class TestFunctionReport:
    """Exact Dirichlet data of a test function under the uniform walk.

    dirichlet = E[(f(X1) - f(X0))^2] with X0 uniform and X1 a uniform
    neighbor; quotient = dirichlet / Var(f); gap_upper = quotient / 2 is an
    upper bound on the spectral gap 1 - lambda_2/d of the walk, with
    equality when f is a second eigenvector.
    """

    dirichlet: float
    variance: float
    quotient: float
    gap_upper: float


def dirichlet_quotient(g: Graph, f: np.ndarray) -> TestFunctionReport:
    """Exact Dirichlet quotient of f, by summation over all directed edges."""
    f = np.asarray(f, dtype=float)
    if len(f) != g.vertex_count:
        raise InvalidInputError(
            f"function length {len(f)} != vertex count {g.vertex_count}"
        )
    d = g.degree
    if d is None or d == 0:
        raise InvalidInputError("requires a regular graph with positive degree")
    if not np.isfinite(f).all():
        raise InvalidInputError("test function values must be finite")
    if bool(np.all(f == f[0])):
        raise InvalidInputError("test function must be non-constant")
    src, dst = g.arcs()
    diffs = f[src] - f[dst]
    dirichlet = float((diffs**2).sum() / (g.vertex_count * d))
    variance = float(f.var())
    quotient = dirichlet / variance
    return TestFunctionReport(dirichlet, variance, quotient, quotient / 2.0)


def aldous_test_function(n: int, max_n: int | None = None) -> np.ndarray:
    """Distance from the central triangle to a fixed boundary point.

    For each triangulation, the minimum cyclic distance between a vertex
    of its central triangle and polygon vertex floor(n/4) (1-based).  The
    central triangle is a centroid of the dual tree: removing the triangle
    x < y < z leaves parts of y-x-1, z-y-1 and n-z+x-1 triangles, and it
    minimises (largest part, sorted triple).  Every triangle lies on a
    diagonal, so it is abp or abq for some slot of the flip pass.  Indexed
    in the canonical enumeration order of the flip graph.
    """
    if n < 6:
        raise InvalidInputError("test function needs n >= 6")
    _check_range(n, max_n)
    _, a, b, p, q, _ = _flip_pass(n)
    # every row's triangles abp and abq, each a sorted 0-based triple x < y < z
    tri = np.stack([np.hstack(s) for s in ((a, a), (b, b), (p, q))]).astype(np.int64)
    tri.sort(axis=0)
    x, y, z = tri
    largest = np.maximum(np.maximum(y - x, z - y), n - z + x) - 1
    best = (((largest * n + x) * n + y) * n + z).argmin(axis=1)
    dist = np.abs(tri[:, np.arange(len(best)), best] + 1 - n // 4)
    return np.minimum(dist, n - dist).min(axis=0).astype(float)


def gap_scan(n_values) -> list[tuple[int, float, float]]:
    """Rows (n, lambda_2, (n-3-lambda_2) * sqrt(n)) for each requested n.

    The last column is the empirical constant in the gap lower bound
    lambda_2 >= (n-3) - c/sqrt(n).
    """
    rows = []
    for n in n_values:
        g = build_associahedron(n)
        lam2 = lambda_2(g).value
        rows.append((n, lam2, (n - 3 - lam2) * math.sqrt(n)))
    return rows
