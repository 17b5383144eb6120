"""Pentagon and hexagon censuses of flip graphs.

Counts how many 5-cycles (pentagons) and how many hexagon-flip subgraphs
(the 14-vertex flip graph of a hexagon) pass through each vertex and each
edge.  The formula route is array arithmetic on the flip pass that builds
the flip graph: each flip is one edge of the dual tree, between the
triangles on the flipped diagonal, and every count follows from those
triangles' degrees.  Each census and each whole-graph oracle returns a
``bounds.CollectionStats``: the copies form the collection of the
paper's bound, with m the least count through a vertex and t the largest
through an edge.  Every formula is paired with an independent oracle,
its own call.  The pentagon oracle is the array copy search
``bounds.collection_stats`` with the pattern C5, whose subgraph copies
are exactly the 5-cycles; the simple-path searches through one vertex or
one edge stay as a public API.  The hexagon census has geometric region
checks and a whole-graph support enumeration.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable

import numpy as np

from . import bounds
from .bounds import CollectionStats, _count, _stats, collection_stats
from .errors import CapacityError, InvalidInputError
from .flipgraph import Graph, _flip_pass, build_associahedron, cycle_graph
from .triangulations import (
    _check_range,
    _diagonal_ids,
    _id_rows,
    _pair_ids,
    _row_index,
    catalan,
    polygon_regions,
    validate_diagonal,
)

# the censuses' flip pass of the last n, so the census command runs one pass;
# the flip graph's build runs its own, which it sorts in place
_flips = lru_cache(maxsize=1)(_flip_pass)


def _check_census_size(vertex_count: int) -> None:
    # the oracles share the collection search's host cap
    if vertex_count > bounds.COLLECTION_HOST_LIMIT:
        raise CapacityError(f"census oracle limited to {bounds.COLLECTION_HOST_LIMIT} vertices")


# ---------------------------------------------------------------------------
# pentagons through a vertex

def pentagon_count_vertex_oracle(g: Graph, v: int) -> int:
    """Exact 5-cycle count through vertex v by simple-path search."""
    _check_census_size(g.vertex_count)
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

def pentagon_count_edge_oracle(g: Graph, u: int, v: int) -> int:
    """Exact 5-cycle count through edge uv by simple-path search."""
    _check_census_size(g.vertex_count)
    if not g.has_edge(u, v):
        raise InvalidInputError(f"({u},{v}) is not an edge")
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


def count_pentagons_total(g: Graph) -> int:
    """Number of distinct 5-cycles in g, by rooted simple-path enumeration."""
    _check_census_size(g.vertex_count)
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


def pentagon_census_oracle(n: int, max_n: int | None = None) -> CollectionStats:
    """The 5-cycles of the flip graph by the array copy search.

    Counts the subgraph copies of C5, which are exactly the 5-cycles, with
    ``bounds.collection_stats``; a host over its cap is refused as a census.
    """
    _check_range(n, max_n)
    _check_census_size(catalan(n - 2))  # before the build
    return collection_stats(build_associahedron(n, max_n), cycle_graph(5))


# ---------------------------------------------------------------------------
# hexagon-flip subgraphs through a vertex

def hexagon_count_vertex_oracle(n: int, diagonals: Iterable[Iterable[int]]) -> int:
    """Triples of a triangulation's diagonals whose removal leaves one hexagonal face.

    ``diagonals`` must be the n - 3 distinct, pairwise non-crossing
    diagonals of a triangulation of the n-gon.  Fully geometric: remove
    the triple, recompute the faces, and accept when they are one hexagon
    plus triangles.
    """
    diags = sorted(validate_diagonal(n, d) for d in diagonals)
    # sorted, ab and cd (ab before cd) cross exactly when a < c < b < d
    crossing = any(a < c < b < d for (a, b), (c, d) in combinations(diags, 2))
    if crossing or not len(set(diags)) == len(diags) == n - 3:
        raise InvalidInputError(f"{diags} is not a triangulation of the {n}-gon")
    count = 0
    for triple in combinations(diags, 3):
        remaining = [d for d in diags if d not in triple]
        sizes = sorted(len(r) for r in polygon_regions(n, remaining))
        if sizes[-1] == 6 and all(s == 3 for s in sizes[:-1]):
            count += 1
    return count


# ---------------------------------------------------------------------------
# hexagon-flip subgraphs through an edge

def _hexagon_faces(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(corners, held) of every hexagonal face of a triangulation, row by row.

    Each face has one support: the n - 6 diagonals whose complement is
    that hexagon plus triangles, and the triangulations containing a
    support induce one hexagon-flip subgraph.  corners[f] holds the face's
    six corners, ascending and 0-based, and held[f] the diagonal ids of
    its support: each pocket between consecutive corners with g >= 3
    polygon vertices adds its closing chord and one triangulation of the
    g-gon.
    """
    if n < 6:
        raise InvalidInputError("hexagon supports need n >= 6")
    # g -> 0-based ends of the closing chord 0-(g-1), then of the diagonals,
    # of each g-gon triangulation
    shapes: dict[int, np.ndarray] = {}
    corners, held = [], []
    for face in combinations(range(n), 6):
        picks = np.zeros((1, 0), dtype=np.uint8)
        for a, b in zip(face, face[1:] + (face[0] + n,)):
            g = b - a + 1
            if g < 3:  # the hexagon side is a polygon side
                continue
            if g not in shapes:
                inner = _diagonal_ids(g)[0][_id_rows(g)]
                closing = np.broadcast_to([0, g - 1], (len(inner), 1, 2))
                shapes[g] = np.concatenate([closing, inner], axis=1)
            x, y = (np.arange(a, b + 1) % n)[shapes[g]].transpose(2, 0, 1)
            options = _pair_ids(n, x, y)
            # every earlier pick with every option, the earlier pockets varying slowest
            picks = np.hstack([
                np.repeat(picks, len(options), axis=0), np.tile(options, (len(picks), 1))
            ])
        corners.append(np.tile(np.array(face, dtype=np.uint8), (len(picks), 1)))
        held.append(picks)
    return np.concatenate(corners), np.concatenate(held)


def hexagon_census_oracle(n: int, max_n: int | None = None) -> CollectionStats:
    """Whole-graph hexagon census by support enumeration.

    Each support set is one copy of A6: its vertices are the
    triangulations containing it, its n - 6 diagonals plus one of the 14
    triangulations of its hexagon, looked up by their id rows, and its
    edges are the flips inside the hexagon, which ``bounds._count`` checks
    as it tallies them.  Independent of the dual-tree arithmetic of the
    formula route.
    """
    _check_range(n, max_n)
    _check_census_size(catalan(n - 2))  # before the build
    corners, held = _hexagon_faces(n)
    count = len(corners)
    # the hexagon's triangulations on the face's corners
    hexagon = _diagonal_ids(6)[0][_id_rows(6)]
    inner = _pair_ids(n, corners[:, hexagon[..., 0]], corners[:, hexagon[..., 1]])
    shape = (count, len(hexagon), n - 6)
    rows = np.concatenate([np.broadcast_to(held[:, None], shape), inner], axis=2)
    verts = _row_index(n, rows.reshape(-1, n - 3)).reshape(count, -1)
    # column j of verts is A6's vertex j, so a support's edges are A6's edges
    ends = np.array(list(build_associahedron(6, 6).edges())).T
    return _count(build_associahedron(n, max_n), ends, [verts])


# ---------------------------------------------------------------------------
# formula route: array arithmetic on the flip pass

def _is_diagonal(n: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """1 where the chord xy (0-based, x != y) is a diagonal, 0 where it is a side."""
    gap = np.abs(x.astype(np.int64) - y)
    return ((gap != 1) & (gap != n - 1)).astype(np.int64)


def _degree(n: int, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Dual-tree degree of each triangle xyz on a diagonal xy: its diagonal sides."""
    return 1 + _is_diagonal(n, x, z) + _is_diagonal(n, y, z)


def _edge_slots(target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, i): each flip edge once, as the slot u < target[u, i], in ``Graph.edges()`` order."""
    u, i = np.nonzero(np.arange(len(target))[:, None] < target)
    order = np.lexsort((target[u, i], u))
    return u[order], i[order]


def ear_counts(n: int, max_n: int | None = None) -> tuple[int, ...]:
    """t1 of every triangulation of the n-gon, in vertex order.

    t1 is the number of polygon vertices that no diagonal touches; for
    n >= 4 each is the tip of one ear, a leaf of the dual tree.
    """
    _check_range(n, max_n)
    rows = _id_rows(n)
    ends, _ = _diagonal_ids(n)
    touched = np.zeros((len(rows), n), dtype=bool)
    touched[np.arange(len(rows))[:, None, None], ends[rows]] = True
    return tuple((n - touched.sum(axis=1)).tolist())


# ---------------------------------------------------------------------------
# the censuses

def pentagon_census(n: int, max_n: int | None = None) -> CollectionStats:
    """5-cycles through each vertex and each edge of the flip graph.

    Through the flip edge of ab: the diagonal sides of the quadrilateral
    apbq, d_p + d_q - 2.  Through a vertex: the sum of C(d, 2) over its
    dual tree, which is half the sum of its edges' counts.
    """
    if n < 5:
        raise InvalidInputError("pentagon census needs n >= 5")
    _check_range(n, max_n)
    _, a, b, p, q, target = _flips(n)
    edge = _degree(n, a, b, p) + _degree(n, a, b, q) - 2
    per_vertex = edge.sum(axis=1) // 2
    return _stats(per_vertex, edge[_edge_slots(target)], per_vertex.sum() // 5)


def hexagon_census(n: int, max_n: int | None = None) -> CollectionStats:
    """Hexagon-flip subgraphs through each vertex and each edge of the flip graph.

    Through a vertex: the 4-node subtrees of its dual tree, paths
    (d_x - 1)(d_y - 1) per tree edge plus one star per triangle of degree
    3.  Through the flip edge of ab, whose quadrilateral apbq has c
    diagonal sides: C(c, 2) merges with two triangles across distinct
    sides, plus, per diagonal side xy, one merge with each further
    diagonal side of the triangle xyz across it.
    """
    if n < 6:
        raise InvalidInputError("hexagon census needs n >= 6")
    _check_range(n, max_n)
    masks, a, b, p, q, target = _flips(n)
    dp, dq = _degree(n, a, b, p), _degree(n, a, b, q)
    stars = ((dp == 3).sum(axis=1) + (dq == 3).sum(axis=1)) // 3  # seen once per side
    c = dp + dq - 2
    edge = c * (c - 1) // 2
    bit = (1 << np.arange(n)).astype(masks.dtype)
    r = np.arange(len(masks))[:, None]
    for x, y, own in ((a, p, b), (p, b, a), (b, q, a), (q, a, b)):
        # the far apex z is the common neighbour of x and y other than own;
        # a polygon side has none, and frexp(0) gives z = -1
        z = np.frexp((masks[r, x] & masks[r, y]) ^ bit[own])[1] - 1
        edge += _is_diagonal(n, x, y) * (_degree(n, x, y, z) - 1)
    per_vertex = ((dp - 1) * (dq - 1)).sum(axis=1) + stars
    return _stats(per_vertex, edge[_edge_slots(target)], per_vertex.sum() // 14)
