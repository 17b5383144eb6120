"""Closed-form eigenvalue bounds and their certification.

The central inequality: if a d-regular graph G carries a collection of
copies of a k-regular graph K covering every vertex at least m times and
every edge at most t times, then

    d + lambda_min(G) >= (k + lambda_min(K)) * m / t.

Specializing K to an odd cycle C_{2r+1} turns the constant into
4 sin^2(pi / (4r+2)).  The module evaluates these and the derived
closed-form bounds for flip graphs, plus the mixing-time sandwich and the
chromatic lower bound, and certifies each against exact spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Iterable, Iterator

import numpy as np

from .errors import CapacityError, InvalidInputError
from .flipgraph import Graph, _in_sorted
from .reference import (
    CHROMATIC_NUMBER_KNOWN,
    LAMBDA_MIN_TABLE,
    LIMIT_LOWER_CONSTANT,
    LIMIT_UPPER_CONSTANT,
)
from .spectra import TOLERANCE, dense_spectrum
from .triangulations import catalan

COLLECTION_HOST_LIMIT = 20000
COLLECTION_PATTERN_LIMIT = 12
# candidate pairs one step of the collection search gathers, and copy edges
# _count tallies, at a time: larger work is cut into pieces of about this many,
# so the working set does not grow with the host.  2^14 ran about a fifth faster
# but lifted the peak RSS of bounds --certify --n-max 10 by about 0.5 MB.
_SPLIT_PAIRS = 1 << 12

# float error allowed in a computed eigenvalue: every solve is accepted at a
# residual of at most TOLERANCE, and some eigenvalue lies within the residual
# of the reported value
SLACK = TOLERANCE


def holds(lower: float, upper: float) -> bool:
    """Whether lower <= upper, allowing SLACK of float error; every bound is judged here."""
    return bool(lower <= upper + SLACK)


@dataclass(frozen=True)
class CollectionStats:
    """Incidence statistics of a collection of copies of a pattern graph inside a host.

    The copies are all of them (``collection_stats``), a listed set
    (``collection_stats_from_copies``), or a census's pentagons or
    hexagon-flip subgraphs.  ``per_vertex`` counts the copies through each
    host vertex, in vertex order; ``per_edge`` counts the copies through
    each host edge, in the order of ``Graph.edges()``, with 0 where no copy
    passes.  m is the minimum of per_vertex and t the maximum of per_edge
    (0 when empty).  Every instance is built by ``_stats``.
    """

    m: int
    t: int
    per_vertex: tuple[int, ...]
    per_edge: tuple[int, ...]
    copy_count: int


@dataclass(frozen=True)
class BoundReport:
    bound_name: str
    bound_value: float
    exact_value: float | None
    satisfied: bool | None
    parameters: dict = field(default_factory=dict)


def bound_report(name, bound, exact=None, upper=False, satisfied=None, **parameters) -> BoundReport:
    """Build every BoundReport; with ``exact`` given, ``satisfied`` is judged by holds."""
    # a lower bound holds below the exact value, an upper one above it
    if exact is not None:
        satisfied = holds(exact, bound) if upper else holds(bound, exact)
    return BoundReport(name, bound, exact, satisfied, parameters)


def _pattern_order(adj: list[set[int]]) -> list[int]:
    """Connected expansion order of the pattern, highest degree first."""
    nk = len(adj)
    start = max(range(nk), key=lambda v: (len(adj[v]), -v))
    order = [start]
    placed = {start}
    while len(order) < nk:
        frontier = [
            v for v in range(nk) if v not in placed and adj[v] & placed
        ]
        if not frontier:
            raise InvalidInputError("pattern graph must be connected")
        nxt = max(frontier, key=lambda v: (len(adj[v] & placed), len(adj[v]), -v))
        order.append(nxt)
        placed.add(nxt)
    return order


def _extends_to_automorphism(
    adj: list[set[int]], order: list[int], fixed: dict[int, int]
) -> bool:
    """Whether some automorphism of the pattern agrees with the partial map ``fixed``.

    Backtracks along ``order``, a connected order, so each vertex after the
    first picks its image among the neighbours of a placed neighbour's image.
    """
    image: dict[int, int] = {}

    def place(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        # w is a fit when the placed vertices adjacent to w are exactly the
        # images of v's placed neighbours
        taken = set(image.values())
        want = {image[u] for u in adj[v] if u in image}
        if v in fixed:
            cands = [fixed[v]]
        else:
            cands = adj[next(iter(want))] if want else range(len(adj))
        for w in cands:
            if w in taken or len(adj[w]) != len(adj[v]) or adj[w] & taken != want:
                continue
            image[v] = w
            if place(i + 1):
                return True
            del image[v]
        return False

    return place(0)


def _symmetry_conditions(adj: list[set[int]], order: list[int]) -> list[tuple[int, int]]:
    """Symmetry-breaking conditions as position pairs (i, j), i < j: map[i] < map[j].

    Position i holds order[i].  Each vertex must map below every other vertex
    of its orbit under the automorphisms that fix the vertices before it in
    ``order``.  Membership of the orbit is decided by searching for one
    automorphism, so the group itself is never listed.
    """
    conditions = []
    fixed: dict[int, int] = {}
    for i, v in enumerate(order):
        for j in range(i + 1, len(order)):
            if _extends_to_automorphism(adj, order, {**fixed, v: order[j]}):
                conditions.append((i, j))
        fixed[v] = v
    return conditions


@lru_cache(maxsize=64)
def _search_plan(nk: int, edges: tuple[tuple[int, int], ...]) -> tuple[tuple, np.ndarray]:
    """How collection_stats places a pattern with nk vertices and these edges.

    Returns one step per position of the expansion order: the pattern
    degree, the placed neighbours, the other placed positions and the
    positions whose image must lie below (the symmetry conditions).  Also
    the positions of each pattern edge's ends, as two rows.
    """
    adj: list[set[int]] = [set() for _ in range(nk)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    order = _pattern_order(adj)
    pos = {v: i for i, v in enumerate(order)}
    conditions = _symmetry_conditions(adj, order)
    steps = []
    for i, v in enumerate(order):
        back = tuple(pos[u] for u in sorted(adj[v]) if pos[u] < i)
        others = tuple(j for j in range(i) if j not in back)
        steps.append((len(adj[v]), back, others, tuple(a for a, b in conditions if b == i)))
    ends = np.array([(pos[u], pos[v]) for u, v in edges]).T
    ends.flags.writeable = False
    return tuple(steps), ends


def collection_stats(g: Graph, pattern: Graph) -> CollectionStats:
    """Statistics of the maximal collection: all subgraphs isomorphic to the pattern.

    Copies are counted as subgraphs: a vertex set with the required edges
    present.  The search grows partial embeddings along a connected order
    of the pattern, level by level, as an array with one row per partial
    embedding, and gathers each level's candidates from the host's
    compressed adjacency.  The symmetry-breaking conditions of J. A. Grochow
    and M. Kellis ("Network motif discovery using subgraph enumeration and
    symmetry-breaking", RECOMB 2007, LNCS 4453) admit exactly one embedding
    of each copy, so every copy is found once.
    """
    if g.vertex_count > COLLECTION_HOST_LIMIT:
        raise CapacityError(
            f"collection search limited to hosts with {COLLECTION_HOST_LIMIT} vertices"
        )
    if pattern.vertex_count > COLLECTION_PATTERN_LIMIT:
        raise CapacityError(
            f"collection search limited to patterns with {COLLECTION_PATTERN_LIMIT} vertices"
        )
    _require_edge(pattern)

    steps, ends = _search_plan(pattern.vertex_count, tuple(pattern.edges()))
    return _count(g, ends, _embeddings(g, steps))


def _embeddings(g: Graph, steps: tuple) -> Iterator[np.ndarray]:
    """Each completed frontier of the collection search: rows of host vertices, one per copy."""
    deg, keys = g.degrees(), g.arc_keys()
    stack = [(np.flatnonzero(deg >= steps[0][0])[:, None], 1)]
    while stack:
        f, i = stack.pop()
        if not len(f):
            continue
        if i == len(steps):
            yield f
            continue
        need, back, others, below = steps[i]
        pieces = -(-int(deg[f[:, back[0]]].sum()) // _SPLIT_PAIRS)
        if pieces > 1 and len(f) > 1:
            stack += [(part, i) for part in np.array_split(f, min(pieces, len(f)))]
            continue
        row, cand = g.neighbor_pairs(f[:, back[0]])
        ok = deg[cand] >= need
        for j in others:
            ok &= f[row, j] != cand
        for j in below:
            ok &= f[row, j] < cand
        row, cand = row[ok], cand[ok]
        for j in back[1:]:
            hit = _in_sorted(keys, f[row, j] * g.vertex_count + cand)
            row, cand = row[hit], cand[hit]
        stack.append((np.column_stack((f[row], cand)), i + 1))


def _count(g: Graph, ends: np.ndarray, blocks: Iterable[np.ndarray]) -> CollectionStats:
    """CollectionStats of copies handed over in blocks, each block rows of host vertices.

    Each copy's edges join its columns ends[0] and ends[1].  A block is
    tallied in pieces of about _SPLIT_PAIRS edges.  Every caller hands over
    checked copies, so a copy edge the host lacks is a program fault and
    raises RuntimeError.
    """
    nv = g.vertex_count
    keys = g.arc_keys()[np.less(*g.arcs())]  # the host's edges, in Graph.edges() order
    per_vertex, per_edge = np.zeros(nv, dtype=np.int64), np.zeros(len(keys), dtype=np.int64)
    copies, rows = 0, max(1, _SPLIT_PAIRS // ends.shape[1])  # rows: the copies in a piece
    for block in blocks:
        copies += len(block)
        for piece in (block[i:i + rows] for i in range(0, len(block), rows)):
            np.add.at(per_vertex, piece, 1)
            a, b = piece[:, ends[0]], piece[:, ends[1]]
            edges = np.minimum(a, b) * nv + np.maximum(a, b)
            at = np.searchsorted(keys, edges)
            lacking = keys.take(at, mode="clip") != edges
            if lacking.any():
                x, y = divmod(int(edges[lacking][0]), nv)
                raise RuntimeError(f"copy edge ({x},{y}) is not an edge of the host")
            np.add.at(per_edge, at, 1)
    return _stats(per_vertex, per_edge, copies)


def _stats(per_vertex: np.ndarray, per_edge: np.ndarray, copies: int) -> CollectionStats:
    """CollectionStats from counts per vertex and per edge, in ``Graph.edges()`` order."""
    per_vertex, per_edge = tuple(per_vertex.tolist()), tuple(per_edge.tolist())
    return CollectionStats(min(per_vertex, default=0), max(per_edge, default=0),
                           per_vertex, per_edge, int(copies))


def _require_edge(pattern: Graph) -> None:
    # an edgeless pattern has no edge to bound t by, and theorem_bound needs k >= 1
    if pattern.edge_count == 0:
        raise InvalidInputError("pattern graph needs at least one edge")


def collection_stats_from_copies(
    g: Graph, pattern: Graph, copies: Iterable[Iterable[int]]
) -> CollectionStats:
    """Incidence statistics of a user-supplied (possibly non-maximal) collection.

    Each copy lists the host-vertex images of the pattern vertices, in
    pattern vertex order; every pattern edge must map to a host edge.
    Copies describing the same subgraph collapse to one.
    """
    _require_edge(pattern)
    nv, keys = g.vertex_count, g.arc_keys()
    ends = np.array(list(pattern.edges())).T
    kept: dict[tuple[int, ...], list[int]] = {}  # sorted edge keys -> the first copy
    for copy in copies:
        copy = [int(v) for v in copy]
        if len(copy) != pattern.vertex_count:
            raise InvalidInputError(
                f"copy {copy} has {len(copy)} vertices, pattern has {pattern.vertex_count}"
            )
        if len(set(copy)) != len(copy):
            raise InvalidInputError(f"copy {copy} repeats a vertex")
        if any(not 0 <= v < nv for v in copy):
            raise InvalidInputError(f"copy {copy} leaves the host vertex range")
        a, b = np.array(copy)[ends]
        missing = np.flatnonzero(~_in_sorted(keys, a * nv + b))
        if len(missing):
            e = missing[0]
            raise InvalidInputError(
                f"copy {copy} maps pattern edge ({ends[0, e]},{ends[1, e]}) "
                f"to the non-edge ({a[e]},{b[e]})"
            )
        kept.setdefault(tuple(np.sort(np.minimum(a, b) * nv + np.maximum(a, b)).tolist()), copy)
    found = np.array(list(kept.values()), dtype=np.int64).reshape(-1, pattern.vertex_count)
    return _count(g, ends, [found])


def theorem_bound(d: int, k: int, lam_min_pattern: float, m: int, t: int) -> float:
    """Lower bound for lambda_min of the host: -d + (k + lam_min_pattern) m / t."""
    if t < 1:
        raise InvalidInputError("need t >= 1 (each edge in at most t copies)")
    if not d >= k >= 1:
        raise InvalidInputError("need d >= k >= 1")
    if m < 0:
        raise InvalidInputError("need m >= 0")
    return -d + (k + lam_min_pattern) * m / t


def assoc_lower_bound(n: int) -> float:
    """Closed-form lower bound for lambda_min of the flip graph of the n-gon.

    -(5 + sqrt 5)/8 * (n-3) - (3 - sqrt 5)/8; identical to the odd-cycle
    bound with d = n-3, r = 2, m = n-4, t = 4.
    """
    if n < 5:
        raise InvalidInputError("lower bound needs n >= 5")
    s5 = math.sqrt(5.0)
    return -(5.0 + s5) / 8.0 * (n - 3) - (3.0 - s5) / 8.0


# the one slice table, ub(m) at index m: the computed values up to m = 12
# (nan below 4), extended by _slice_upper.  Its entries never change, so every
# caller in the process may share it.
_slice_table = np.array([LAMBDA_MIN_TABLE.get(m, np.nan) for m in range(13)])


def _slice_upper(n: int) -> np.ndarray:
    """The slice table through at least n, grown only when n is past its end.

    Past 12 it is filled bottom-up, so no n is too deep for the stack:
    ub(m) = min over 4 <= k <= m-2 of ub(k) + ub(m-k+2), never worse than a fixed split.
    """
    global _slice_table
    ub = _slice_table
    if n >= len(ub):
        start = len(ub)
        ub = np.concatenate((ub, np.empty(n + 1 - start)))
        for m in range(start, n + 1):
            ub[m] = (ub[4 : m - 1] + ub[m - 2 : 3 : -1]).min()
        ub.flags.writeable = False
        _slice_table = ub
    return ub


def assoc_upper_bound(n: int) -> float:
    """Best upper bound for lambda_min of the flip graph from diagonal slices.

    For n <= 12 this is the computed table value; beyond, the best split
    of the n-gon into two slices (``_slice_upper``).
    """
    if n < 4:
        raise InvalidInputError("upper bound needs n >= 4")
    return float(_slice_upper(n)[n])


def upper_bound_residue_constants(n_max: int = 200) -> dict[int, float]:
    """Per-residue constants c_r with ub(n) <= L n + c_r for n = r mod 10.

    L is LIMIT_UPPER_CONSTANT, lambda_min(12) / 10 = -0.6904.  ub(n) - L n
    is non-increasing along n -> n+10 (the 12/10 split loses exactly 6.904
    per step), so the maximum over n <= n_max is the true constant once
    n_max is past the first class representatives.
    """
    ub = _slice_upper(n_max)
    out: dict[int, float] = {}
    for n in range(4, n_max + 1):
        r = n % 10
        c = float(ub[n]) - LIMIT_UPPER_CONSTANT * n
        out[r] = max(out.get(r, -math.inf), c)
    return dict(sorted(out.items()))


def assoc_hexagon_lower_bound(n: int) -> float:
    """Hexagon-collection lower bound: -(n-3) + (2 - sqrt 2)(n-5)/14.

    Weaker than the pentagon-based closed form for every n; kept for
    comparison.
    """
    if n < 6:
        raise InvalidInputError("hexagon bound needs n >= 6")
    return -(n - 3) + (2.0 - math.sqrt(2.0)) * (n - 5) / 14.0


def chromatic_lower_bound(n: int, lam_min: float) -> float:
    """Chromatic number lower bound 1 + (n-3)/|lam_min| for the flip graph."""
    if lam_min >= 0:
        raise InvalidInputError("lam_min must be negative")
    return 1.0 + (n - 3) / abs(lam_min)


def _require_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:  # also rejects NaN
        raise InvalidInputError("eps must lie in (0, 1)")


def mixing_bounds(n: int, lam2: float, eps: float) -> tuple[float, float]:
    """Mixing-time sandwich for the flip-graph walk (natural logarithm).

    upper = (n-3)/(n-3-lam2) * log(catalan(n-2)/eps),
    lower = lam2 / (2 (n-3-lam2)).
    """
    _require_eps(eps)
    d = n - 3
    if lam2 >= d:
        raise InvalidInputError("lam2 must be below the degree n-3 (positive gap)")
    upper = d / (d - lam2) * math.log(catalan(n - 2) / eps)
    lower = lam2 / (2.0 * (d - lam2))
    return upper, lower


@dataclass(frozen=True)
class LimitBracket:
    """Bracket for lim lambda_min / (n-3), with the table's ratios.

    ``upper`` is lambda_min(12) / 10, the least lambda_min / (n-2) of the
    table: the subadditive sequence lambda_min(n) is indexed by n-2 under
    slicing (a k-gon and an (n-k+2)-gon share two vertices), so Fekete's
    lemma bounds the limit by every per-step rate lambda_min / (n-2).
    """

    upper: float
    lower: float
    ratios: dict[int, float]

    def contains(self, ratio: float) -> bool:
        """Whether ratio lies in [lower, upper], up to SLACK at each end."""
        return holds(self.lower, ratio) and holds(ratio, self.upper)


def limit_bracket() -> LimitBracket:
    ratios = {n: LAMBDA_MIN_TABLE[n] / (n - 3) for n in range(5, 13)}
    return LimitBracket(LIMIT_UPPER_CONSTANT, LIMIT_LOWER_CONSTANT, ratios)


def collection_bound(d: int, k: int, lam_min_pattern: float, stats: CollectionStats) -> float:
    """theorem_bound for the collection ``stats`` on a d-regular host.

    An empty collection gives -d, which every d-regular graph satisfies.
    """
    if stats.copy_count == 0:
        return float(-d)
    return theorem_bound(d, k, lam_min_pattern, stats.m, stats.t)


def certify_collection_bound(
    g: Graph,
    pattern: Graph,
    exact_lambda_min: float | None = None,
    name: str = "collection-bound",
    stats: CollectionStats | None = None,
) -> BoundReport:
    """Compute the collection bound on g and compare with the exact value.

    Uses the maximal collection unless ``stats`` supplies a custom one.
    """
    if stats is None:
        stats = collection_stats(g, pattern)
    d = g.degree
    if d is None:
        raise InvalidInputError("host graph must be regular")
    k = pattern.degree
    if k is None:
        raise InvalidInputError("pattern graph must be regular")
    lam_k = dense_spectrum(pattern).lambda_min
    bound = collection_bound(d, k, lam_k, stats)
    exact = (
        exact_lambda_min
        if exact_lambda_min is not None
        else dense_spectrum(g).lambda_min
    )
    return bound_report(
        name, bound, exact,
        d=d, k=k, lambda_min_pattern=lam_k, m=stats.m, t=stats.t, copies=stats.copy_count,
    )


def flipgraph_bound_reports(
    n: int,
    lam_min: float | None = None,
    lam2: float | None = None,
    eps: float = 0.1,
) -> list[BoundReport]:
    """All closed-form bounds for the flip graph of the n-gon.

    Exact eigenvalues may be passed in; whichever is present is certified
    against its bound.
    """
    if n < 5:
        raise InvalidInputError("bound reports need n >= 5")
    _require_eps(eps)
    report = partial(bound_report, n=n)

    reports = [
        report("pentagon-collection-lower", assoc_lower_bound(n), lam_min),
        report("slice-upper", assoc_upper_bound(n), lam_min, upper=True),
    ]
    if n >= 6:
        reports.append(report("hexagon-collection-lower", assoc_hexagon_lower_bound(n), lam_min))
    if lam_min is not None:
        known = CHROMATIC_NUMBER_KNOWN.get(n)
        reports.append(report(
            "chromatic-lower", chromatic_lower_bound(n, lam_min),
            None if known is None else float(known), lambda_min=lam_min,
        ))
    if lam2 is not None:
        up, low = mixing_bounds(n, lam2, eps)
        reports.append(report("mixing-time-upper", up, lambda_2=lam2, eps=eps))
        reports.append(report("mixing-time-lower", low, lambda_2=lam2, eps=eps))
    bracket = limit_bracket()
    if n in bracket.ratios:
        ratio = (lam_min / (n - 3)) if lam_min is not None else bracket.ratios[n]
        reports.append(report(
            "limit-ratio-bracket", ratio, satisfied=bracket.contains(ratio),
            bracket=[bracket.lower, bracket.upper],
        ))
    return reports
