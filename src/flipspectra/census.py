"""Pentagon and hexagon censuses of flip graphs.

Counts how many 5-cycles (pentagons) and how many hexagon-flip subgraphs
(the 14-vertex flip graph of a hexagon) pass through each vertex and each
edge.  Every formula route (dual-tree arithmetic, quadrilateral-side
counting) is paired with an independent oracle (graph search over actual
cycles, geometric region checks, whole-graph support enumeration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import CapacityError, InvalidInputError
from .flipgraph import Graph, build_associahedron
from .triangulations import (
    Triangulation,
    crosses,
    dual_tree,
    enumerate_triangulations,
    is_polygon_side,
    polygon_regions,
)

CENSUS_LIMIT_DEFAULT = 20000


@dataclass(frozen=True)
class CensusReport:
    """Per-vertex and per-edge counts with their oracle counterparts.

    ``per_vertex``/``per_edge`` hold the formula route; the oracle fields
    are None unless the report was built with oracle=True, in which case
    they must agree entry by entry.
    """

    n: int
    pattern: str
    per_vertex: tuple[int, ...]
    per_edge: dict[tuple[int, int], int]
    oracle_per_vertex: tuple[int, ...] | None = None
    oracle_per_edge: dict[tuple[int, int], int] | None = None

    @property
    def vertex_min(self) -> int:
        return min(self.per_vertex)

    @property
    def vertex_max(self) -> int:
        return max(self.per_vertex)

    @property
    def edge_min(self) -> int:
        return min(self.per_edge.values())

    @property
    def edge_max(self) -> int:
        return max(self.per_edge.values())


def _check_census_size(g: Graph, limit: int | None) -> None:
    cap = CENSUS_LIMIT_DEFAULT if limit is None else limit
    if g.vertex_count > cap:
        raise CapacityError(f"census oracle limited to {cap} vertices")


# ---------------------------------------------------------------------------
# pentagons through a vertex

def pentagon_count_vertex_formula(t: Triangulation) -> int:
    """Number of 5-cycles through t, from its dual tree: sum of C(d_v, 2).

    Equals n - 6 + t1 where t1 is the ear count, hence always >= n - 4.
    """
    return sum(d * (d - 1) // 2 for d in dual_tree(t).degrees)


def pentagon_count_vertex_oracle(
    g: Graph, v: int, limit: int | None = None, adj: list[set[int]] | None = None
) -> int:
    """Exact 5-cycle count through vertex v by simple-path search.

    ``adj`` may pass in ``g.adjacency_sets()`` when counting many vertices.
    """
    _check_census_size(g, limit)
    if adj is None:
        adj = g.adjacency_sets()
    count = 0
    for a in adj[v]:
        for b in adj[a]:
            if b == v:
                continue
            for c in adj[b]:
                if c == v or c == a:
                    continue
                for d in adj[c] & adj[v]:
                    if d != a and d != b:
                        count += 1
    return count // 2  # each cycle seen in both traversal directions


# ---------------------------------------------------------------------------
# pentagons through an edge

def _flip_quadrilateral(t1: Triangulation, t2: Triangulation):
    """The 4-gon where two adjacent triangulations differ.

    Returns (quad, removed, added): quad is the ascending vertex 4-tuple,
    removed the diagonal of t1 only, added the diagonal of t2 only.
    """
    if t1.n != t2.n:
        raise InvalidInputError("triangulations of different polygons")
    s1, s2 = set(t1.diagonals), set(t2.diagonals)
    only1, only2 = s1 - s2, s2 - s1
    if len(only1) != 1 or len(only2) != 1:
        raise InvalidInputError("triangulations are not adjacent (not one flip apart)")
    removed = next(iter(only1))
    added = next(iter(only2))
    quad = tuple(sorted(set(removed) | set(added)))
    if len(quad) != 4:
        raise InvalidInputError("triangulations are not adjacent")
    return quad, removed, added


def pentagon_count_edge(t1: Triangulation, t2: Triangulation) -> int:
    """5-cycles through the flip edge t1-t2: diagonal sides of the flip 4-gon.

    Always between 1 and 4 for n >= 5.
    """
    quad, _, _ = _flip_quadrilateral(t1, t2)
    n = t1.n
    a, b, c, d = quad
    sides = ((a, b), (b, c), (c, d), (a, d))
    return sum(1 for s in sides if not is_polygon_side(n, s))


def pentagon_count_edge_oracle(
    g: Graph, u: int, v: int, limit: int | None = None, adj: list[set[int]] | None = None
) -> int:
    """Exact 5-cycle count through edge uv by simple-path search.

    ``adj`` may pass in ``g.adjacency_sets()`` when counting many edges.
    """
    _check_census_size(g, limit)
    if not g.has_edge(u, v):
        raise InvalidInputError(f"({u},{v}) is not an edge")
    if adj is None:
        adj = g.adjacency_sets()
    count = 0
    for x in adj[v]:
        if x == u:
            continue
        for y in adj[x]:
            if y == u or y == v:
                continue
            for z in adj[y] & adj[u]:
                if z != v and z != x:
                    count += 1
    return count


def count_pentagons_total(g: Graph, limit: int | None = None) -> int:
    """Number of distinct 5-cycles in g, by rooted simple-path enumeration."""
    _check_census_size(g, limit)
    adj = g.adjacency_sets()
    total = 0
    for r in range(g.vertex_count):
        # only cycles whose minimum vertex is r
        local = 0
        for a in adj[r]:
            if a < r:
                continue
            for b in adj[a]:
                if b <= r or b == a:
                    continue
                for c in adj[b]:
                    if c <= r or c == a:
                        continue
                    for d in adj[c] & adj[r]:
                        if d > r and d != a and d != b:
                            local += 1
        total += local // 2
    return total


# ---------------------------------------------------------------------------
# hexagon-flip subgraphs through a vertex

def hexagon_count_vertex_formula(t: Triangulation) -> tuple[int, int]:
    """Counts of 4-node connected subtrees of the dual tree, split by shape.

    Returns (path_count, star_count): paths P4 contribute
    sum over tree edges xy of (d_x - 1)(d_y - 1), stars K_{1,3} contribute
    sum over nodes of C(d_v, 3).  Their total is the number of
    hexagon-flip subgraphs containing t, at least n - 5.
    """
    dt = dual_tree(t)
    p4 = sum((dt.degrees[i] - 1) * (dt.degrees[j] - 1) for i, j in dt.adjacency)
    star = sum(math.comb(d, 3) for d in dt.degrees)
    return p4, star


def hexagon_count_vertex_oracle(n: int, t: Triangulation) -> int:
    """Triples of diagonals of t whose removal leaves one hexagonal face.

    Fully geometric: remove the triple, recompute the faces, and accept
    when they are one hexagon plus triangles.
    """
    if n != t.n:
        raise InvalidInputError(f"n={n} does not match the triangulation (n={t.n})")
    count = 0
    for triple in combinations(t.diagonals, 3):
        remaining = [d for d in t.diagonals if d not in triple]
        sizes = sorted(len(r) for r in polygon_regions(n, remaining))
        if sizes[-1] == 6 and all(s == 3 for s in sizes[:-1]):
            count += 1
    return count


# ---------------------------------------------------------------------------
# hexagon-flip subgraphs through an edge

def hexagon_count_edge_bounds(t1: Triangulation, t2: Triangulation) -> int:
    """Hexagon-flip subgraphs containing the flip edge t1-t2 (exact count).

    The shared diagonals split the polygon into the flip 4-gon Q plus
    triangles.  A containing hexagon arises by merging Q with two of its
    neighboring triangles across distinct diagonal sides (C(q,2) ways for q
    diagonal sides) or with a 2-chain of triangles across one side.  The
    result is always between 1 and 14.
    """
    quad, removed, _ = _flip_quadrilateral(t1, t2)
    n = t1.n
    common = [d for d in t1.diagonals if d != removed]
    regions = polygon_regions(n, common)
    a, b, c, d = quad
    q_sides = [s for s in ((a, b), (b, c), (c, d), (a, d)) if not is_polygon_side(n, s)]
    count = len(q_sides) * (len(q_sides) - 1) // 2
    tri_regions = [set(r) for r in regions if len(r) == 3]
    for s in q_sides:
        across = next(r for r in tri_regions if set(s) <= r)
        for pair in combinations(sorted(across), 2):
            if pair != s and not is_polygon_side(n, pair):
                count += 1
    return count


def hexagon_supports(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All diagonal sets whose complement is one hexagonal face plus triangles.

    Each such set of n - 6 diagonals pins down one hexagon-flip subgraph:
    the induced subgraph on the triangulations containing the set.
    """
    if n < 6:
        raise InvalidInputError("hexagon supports need n >= 6")
    all_diags = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 2, n + 1)
        if (i, j) != (1, n)
    ]
    out = []
    for combo in combinations(all_diags, n - 6):
        if any(crosses(p, q) for p, q in combinations(combo, 2)):
            continue
        sizes = sorted(len(r) for r in polygon_regions(n, combo))
        if sizes[-1] == 6 and all(s == 3 for s in sizes[:-1]):
            out.append(combo)
    return out


def hexagon_census_oracle(n: int) -> tuple[list[int], dict[tuple[int, int], int]]:
    """Whole-graph hexagon census by support enumeration.

    For every support set, marks all vertices (triangulations containing
    it) and all internal flip edges.  Independent of the dual-tree and
    quadrilateral-merge routes.
    """
    ts = enumerate_triangulations(n)
    g = build_associahedron(n)
    per_vertex = [0] * len(ts)
    per_edge: dict[tuple[int, int], int] = {}
    diag_sets = [set(t.diagonals) for t in ts]
    for support in hexagon_supports(n):
        sset = set(support)
        keep = [i for i in range(len(ts)) if sset <= diag_sets[i]]
        kset = set(keep)
        for i in keep:
            per_vertex[i] += 1
            for j in g.neighbors_of(i):
                j = int(j)
                if j > i and j in kset:
                    per_edge[(i, j)] = per_edge.get((i, j), 0) + 1
    return per_vertex, per_edge


# ---------------------------------------------------------------------------
# report builders

def pentagon_census(n: int, oracle: bool = False, limit: int | None = None) -> CensusReport:
    if n < 5:
        raise InvalidInputError("pentagon census needs n >= 5")
    ts = enumerate_triangulations(n)
    g = build_associahedron(n)
    per_vertex = tuple(pentagon_count_vertex_formula(t) for t in ts)
    per_edge = {(u, v): pentagon_count_edge(ts[u], ts[v]) for u, v in g.edges()}
    o_vertex = o_edge = None
    if oracle:
        adj = g.adjacency_sets()
        o_vertex = tuple(
            pentagon_count_vertex_oracle(g, v, limit, adj) for v in range(len(ts))
        )
        o_edge = {
            (u, v): pentagon_count_edge_oracle(g, u, v, limit, adj) for u, v in g.edges()
        }
    return CensusReport(n, "pentagon", per_vertex, per_edge, o_vertex, o_edge)


def hexagon_census(n: int, oracle: bool = False) -> CensusReport:
    if n < 6:
        raise InvalidInputError("hexagon census needs n >= 6")
    ts = enumerate_triangulations(n)
    g = build_associahedron(n)
    per_vertex = tuple(sum(hexagon_count_vertex_formula(t)) for t in ts)
    per_edge = {(u, v): hexagon_count_edge_bounds(ts[u], ts[v]) for u, v in g.edges()}
    o_vertex = o_edge = None
    if oracle:
        ov, oe = hexagon_census_oracle(n)
        o_vertex, o_edge = tuple(ov), oe
    return CensusReport(n, "hexagon", per_vertex, per_edge, o_vertex, o_edge)
