"""Graphs over triangulations and friends.

Storage is flat compressed adjacency (offsets + sorted neighbor array),
which keeps matrix-vector products cache friendly.  The flip graph is built
from the array enumeration of the triangulations (``triangulations._id_rows``,
one row of diagonal ids each) in one vectorised flip pass, which the census
also reads.  Besides the flip graph itself the module builds box products,
induced subgraphs and diagonal slices, the orbits of the polygon's
rotation on the flip graph's vertices, and the polygon's reflection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

from . import triangulations as tri
from .errors import CapacityError, InvalidInputError
from .triangulations import _check_range, _codes, _diagonal_ids, _id_rows, _pair_ids, _row_index

BOX_PRODUCT_LIMIT_DEFAULT = 2_000_000
# pairings random_regular_graph draws before giving up; about 1 in 80 of 8-12 vertices
# at degree 4 is simple
RANDOM_REGULAR_PAIRINGS = 1 << 16


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph in compressed adjacency form.

    ``degree`` is set when every vertex has the same degree.  ``polygon``
    is n on the flip graph of the n-gon, whose vertices the polygon's
    rotation permutes (``rotation_orbits``), and None on every other graph.
    """

    offsets: np.ndarray
    neighbors: np.ndarray
    degree: int | None = None
    polygon: int | None = None

    @cached_property
    def labels(self) -> tuple[str, ...] | None:
        """Each vertex's triangulation code on a flip graph, built on first read; else None."""
        return None if self.polygon is None else _codes(self.polygon)

    @property
    def vertex_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def edge_count(self) -> int:
        return len(self.neighbors) // 2

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, (u, v) with u < v, in sorted order."""
        u, v = self.arcs()
        return zip(u[u < v].tolist(), v[u < v].tolist())

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors_of(u)
        k = int(np.searchsorted(row, v))
        return k < len(row) and row[k] == v

    def neighbor_pairs(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(i, w) for every neighbour w of every vertex vs[i], row after row."""
        counts = self.offsets[vs + 1] - self.offsets[vs]
        i = np.repeat(np.arange(len(vs)), counts)
        shift = np.repeat(self.offsets[vs] + counts - np.cumsum(counts), counts)
        return i, self.neighbors[np.arange(len(i)) + shift]

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, v) over every directed edge, in the order of the neighbour array."""
        return np.repeat(np.arange(self.vertex_count), self.degrees()), self.neighbors

    def arc_keys(self) -> np.ndarray:
        """Every directed edge (u, v) as the key u * vertex_count + v, ascending."""
        u, v = self.arcs()
        return u * self.vertex_count + v

    def adjacency_sets(self) -> list[set[int]]:
        return [set(map(int, self.neighbors_of(u))) for u in range(self.vertex_count)]

    def dense_adjacency(self) -> np.ndarray:
        nv = self.vertex_count
        a = np.zeros((nv, nv))
        a[self.arcs()] = 1.0
        return a


def from_edges(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge list; duplicates collapse, loops are rejected."""
    if vertex_count < 0:
        raise InvalidInputError("vertex_count must be nonnegative")
    pairs = []
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise InvalidInputError(f"loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise InvalidInputError(f"edge ({u},{v}) outside 0..{vertex_count - 1}")
        pairs.append((u, v))
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return _from_arcs(vertex_count, ends.ravel(), ends[:, ::-1].ravel())


def _from_arcs(vertex_count: int, src: np.ndarray, dst: np.ndarray) -> Graph:
    """Graph on the directed edges src[i] -> dst[i], which must list both directions."""
    keys = np.unique(src * vertex_count + dst)
    src, dst = np.divmod(keys, max(vertex_count, 1))
    return _csr_graph(np.bincount(src, minlength=vertex_count), dst)


def _csr_graph(deg: np.ndarray, neighbors: np.ndarray) -> Graph:
    """Graph from each vertex's degree and its sorted neighbours, row after row."""
    offsets = np.zeros(len(deg) + 1, dtype=np.int64)
    np.cumsum(deg, out=offsets[1:])
    uniform = int(deg[0]) if len(deg) and bool((deg == deg[0]).all()) else None
    return Graph(offsets, neighbors, uniform)


def _in_sorted(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Which entries of q occur in the ascending array keys."""
    at = np.searchsorted(keys, q)
    hit = at < len(keys)
    hit[hit] = keys[at[hit]] == q[hit]
    return hit


def _flip_pass(n: int) -> tuple[np.ndarray, ...]:
    """Every flip of every triangulation of the n-gon: (masks, a, b, p, q, target).

    Row r is _id_rows(n)[r], and masks[r, v] has bit u set when uv is a side
    or a diagonal of it.  Flipping slot i of row r replaces the diagonal
    a[r, i]-b[r, i] by p[r, i]-q[r, i], the apexes of the two triangles on
    it, and reaches row target[r, i].  Polygon vertices are 0-based.  The
    range of n is the caller's to check.
    """
    rows = _id_rows(n)
    ends, lookup = _diagonal_ids(n)
    count, k = rows.shape
    bit = (1 << np.arange(n)).astype(np.min_scalar_type(1 << (n - 1)))
    masks = np.tile(np.roll(bit, 1) | np.roll(bit, -1), (count, 1))
    r = np.arange(count)
    a, b = ends.astype(np.uint8)[rows].transpose(2, 0, 1)
    for i in range(k):
        masks[r, a[:, i]] |= bit[b[:, i]]
        masks[r, b[:, i]] |= bit[a[:, i]]
    p, q = np.empty((2, count, k), dtype=np.uint8)
    target = np.empty((count, k), dtype=np.int64)
    for i in range(k):
        # the common neighbours of a and b are the apexes of the two triangles
        # on ab; the flip replaces ab by the chord p-q joining them
        common = masks[r, a[:, i]] & masks[r, b[:, i]]
        q[:, i] = np.frexp(common)[1] - 1
        p[:, i] = np.frexp(common ^ bit[q[:, i]])[1] - 1
        flipped = rows.copy()
        flipped[:, i] = lookup[p[:, i], q[:, i]]
        target[:, i] = _row_index(n, flipped)
    return masks, a, b, p, q, target


@lru_cache(maxsize=32)
def _associahedron_cached(n: int) -> Graph:
    # range validation happens in build_associahedron
    nbrs = _flip_pass(n)[-1]
    nbrs.sort(axis=1)
    count, k = nbrs.shape
    return Graph(np.arange(count + 1, dtype=np.int64) * k, nbrs.reshape(-1), k, polygon=n)


def build_associahedron(n: int) -> Graph:
    """Flip graph on triangulations of the n-gon.

    Vertex i is row i of the array enumeration ``_id_rows(n)``, whose order
    is the canonical one, so its code is enumerate_triangulations(n)[i].
    The graph is (n-3)-regular on catalan(n-2) vertices; n = 3 gives the
    single-vertex graph.
    """
    _check_range(n)
    return _associahedron_cached(n)


def box_product(g: Graph, h: Graph) -> Graph:
    """Cartesian (box) product; vertex (a, b) gets index a*|V(H)| + b."""
    nv, cap = g.vertex_count * h.vertex_count, BOX_PRODUCT_LIMIT_DEFAULT
    if nv > cap:
        raise CapacityError(f"box product on {nv} vertices exceeds the cap of {cap}")
    m = h.vertex_count
    g_src, g_dst = g.arcs()
    h_src, h_dst = h.arcs()
    b = np.arange(m)
    a = np.arange(g.vertex_count)[:, None] * m
    # g's arcs in every layer b, then h's arcs in every layer a
    src = np.concatenate([(g_src[:, None] * m + b).ravel(), (a + h_src).ravel()])
    dst = np.concatenate([(g_dst[:, None] * m + b).ravel(), (a + h_dst).ravel()])
    return _from_arcs(nv, src, dst)


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on ``keep`` with its internal edges.

    Returns (subgraph, kept) where kept[new_index] = old_index; new indices
    follow ascending old-index order.
    """
    kept = np.unique(np.fromiter(keep, dtype=np.int64))
    if len(kept) and (kept[0] < 0 or kept[-1] >= g.vertex_count):
        raise InvalidInputError("keep contains an out-of-range vertex index")
    new = np.full(g.vertex_count, -1, dtype=np.int64)
    new[kept] = np.arange(len(kept))
    i, w = g.neighbor_pairs(kept)
    inside = new[w] >= 0
    # the relabelling keeps the order, so each row stays sorted
    deg = np.bincount(i[inside], minlength=len(kept))
    return _csr_graph(deg, new[w[inside]]), tuple(kept.tolist())


def diagonal_slice(n: int, d: Iterable[int]) -> Graph:
    """Induced subgraph of the flip graph on triangulations containing d.

    For d = (1, k) the slice is isomorphic to the box product of the flip
    graphs of a k-gon and an (n-k+2)-gon; slice_product_map(n, k) is the
    isomorphism.
    """
    d = tri.validate_diagonal(n, d)
    g = build_associahedron(n)
    sub, _ = induced_subgraph(g, np.flatnonzero(_slice_mask(n, d)))
    return sub


def _slice_mask(n: int, d: tuple[int, int]) -> np.ndarray:
    """Which rows of _id_rows(n) hold the diagonal d (1-based endpoints)."""
    return (_id_rows(n) == _pair_ids(n, d[0] - 1, d[1] - 1)).any(axis=1)


@lru_cache(maxsize=32)
def rotation_orbits(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rep, shift, size) of every vertex of the flip graph of the n-gon.

    R rotates a triangulation by one step, polygon vertex i to i + 1; it
    is an automorphism of the flip graph.  Vertex v lies in the orbit of
    rep[v], the least vertex in it, with v = R^shift[v](rep[v]) and
    0 <= shift[v] < size[v], the orbit's size, which divides n.  The
    range of n is the caller's to check.
    """
    rows = _id_rows(n)
    a, b = ((_diagonal_ids(n)[0] + 1) % n).T
    turn = _pair_ids(n, a, b)
    rot = _row_index(n, turn[rows])
    count = len(rows)
    v = np.arange(count)
    rep, back = v.copy(), np.zeros(count, dtype=np.int64)  # R^back(v) = rep
    size = np.full(count, n, dtype=np.int64)
    cur = v
    for t in range(1, n):
        cur = rot[cur]
        lower = cur < rep
        rep[lower], back[lower] = cur[lower], t
        size[(cur == v) & (size == n)] = t
    shift = -back % size
    for arr in (rep, shift, size):
        arr.flags.writeable = False
    return rep, shift, size


@lru_cache(maxsize=32)
def reflection(n: int) -> np.ndarray:
    """The image of every vertex of the flip graph of the n-gon under its reflection.

    The reflection, polygon vertex i to -i mod n (0-based), is an involutive
    automorphism that turns rotation_orbits' R into R^-1; n is not checked.
    """
    a, b = _diagonal_ids(n)[0].T
    mirror = _row_index(n, _pair_ids(n, -a % n, -b % n)[_id_rows(n)])
    mirror.flags.writeable = False
    return mirror


def slice_product_map(n: int, k: int) -> np.ndarray:
    """The isomorphism from diagonal_slice(n, (1, k)) onto A_k box A_{n-k+2}.

    A triangulation that contains 1-k splits into one of the polygon 1..k
    and one of the polygon k..n,1, relabelled 1..n-k+2.  Slice vertex v
    maps to a * catalan(n-k) + b, box_product's index of the pair: a is
    the left triangulation's index in A_k, b the right one's in A_{n-k+2}.
    """
    tri.validate_diagonal(n, (1, k))
    _check_range(n)
    rows = _id_rows(n)[_slice_mask(n, (1, k))]
    # drop 1-k itself; the other diagonals keep their ascending order
    rest = rows[rows != _pair_ids(n, 0, k - 1)].reshape(len(rows), n - 4)
    i, j = _diagonal_ids(n)[0][rest].transpose(2, 0, 1)
    # 0-based: a left diagonal ends at or before k-1, a right one after it
    left = j < k
    a = _row_index(k, _pair_ids(k, i[left], j[left]).reshape(len(rows), k - 3))
    # the right polygon's vertices k-1, ..., n-1, 0 become 0, ..., n-k+1
    p, q = (i[~left] - k + 1) % n, (j[~left] - k + 1) % n
    right = _pair_ids(n - k + 2, p, q).reshape(len(rows), n - k - 1)
    b = _row_index(n - k + 2, right)
    return a * tri.catalan(n - k) + b


def is_isomorphic(g: Graph, h: Graph, mapping) -> bool:
    """True iff ``mapping`` (vertex v of g to mapping[v] of h) is an isomorphism.

    The map must be a permutation of range(|V|), and relabelling g's
    compressed adjacency by it must give h's exactly.  Linear in the edges,
    up to one sort.
    """
    nv = g.vertex_count
    if nv != h.vertex_count or g.edge_count != h.edge_count:
        return False
    phi = np.asarray(mapping, dtype=np.int64)
    if not np.array_equal(np.sort(phi), np.arange(nv)):
        return False
    src, dst = (phi[x] for x in g.arcs())
    order = np.lexsort((dst, src))
    # h's compressed adjacency read as its sorted (vertex, neighbour) pairs
    h_src, h_dst = h.arcs()
    return np.array_equal(src[order], h_src) and np.array_equal(dst[order], h_dst)


def validate_regular(g: Graph, d: int) -> bool:
    if g.vertex_count == 0:
        return True
    return bool((g.degrees() == d).all())


def is_connected(g: Graph) -> bool:
    # level by level from vertex 0; each level keeps only the neighbours not yet
    # seen, so the work is O(N + E) and no frontier exceeds N vertices
    nv = g.vertex_count
    seen = np.zeros(nv, dtype=bool)
    frontier = np.zeros(min(nv, 1), dtype=np.int64)
    seen[frontier] = True
    while len(frontier):
        nb = g.neighbor_pairs(frontier)[1]
        frontier = np.unique(nb[~seen[nb]])
        seen[frontier] = True
    return bool(seen.all())


def contains_triangle(g: Graph) -> bool:
    """Whether an edge uv (u < v) and a neighbour w > v of v have uw as an edge too."""
    keys = g.arc_keys()
    u, v = g.arcs()
    u, v = u[u < v], v[u < v]
    deg = g.degrees()
    # slot s of every v's neighbours per pass: O(E) arrays, and the first hit ends the scan
    for s in range(int(deg[v].max(initial=0))):
        more = deg[v] > s
        u, v = u[more], v[more]
        w = g.neighbors[g.offsets[v] + s]
        above = w > v
        if _in_sorted(keys, u[above] * g.vertex_count + w[above]).any():
            return True
    return False


def cycle_graph(m: int) -> Graph:
    if m < 3:
        raise InvalidInputError("cycle needs at least 3 vertices")
    return from_edges(m, [(i, (i + 1) % m) for i in range(m)])


def complete_graph(m: int) -> Graph:
    if m < 1:
        raise InvalidInputError("complete graph needs at least 1 vertex")
    return from_edges(m, [(i, j) for i in range(m) for j in range(i + 1, m)])


def petersen_graph() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))        # outer cycle
        edges.append((i, i + 5))              # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return from_edges(10, edges)


def random_regular_graph(vertex_count: int, d: int, seed: int = 0) -> Graph:
    """Uniform d-regular simple graph: the pairing model with rejection.

    Pairings (d stubs per vertex, shuffled, joined two by two) are drawn in
    batches doubling from 8, up to 2^20 stubs a batch; the first simple
    one, with no loop and no repeated edge, is the graph, so the draw is
    deterministic per seed.  Above degree (vertex_count - 1) / 2, where
    simple pairings grow rare, the graph is the complement of the
    (vertex_count - 1 - d)-regular draw with the same seed; complementing
    is a bijection, so that draw is uniform too.
    """
    if vertex_count * d % 2 != 0:
        raise InvalidInputError("vertex_count * d must be even")
    if d >= vertex_count:
        raise InvalidInputError("degree must be below the vertex count")
    if 2 * d > vertex_count - 1:
        keep = ~np.eye(vertex_count, dtype=bool)
        keep[random_regular_graph(vertex_count, vertex_count - 1 - d, seed).arcs()] = False
        return _from_arcs(vertex_count, *np.nonzero(keep))
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(vertex_count), d)
    batch, drawn = 8, 0
    while drawn < RANDOM_REGULAR_PAIRINGS:
        u, v = rng.permuted(np.tile(stubs, (batch, 1)), axis=1).reshape(batch, len(stubs) // 2, 2).T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = np.sort(lo * vertex_count + hi, axis=0)
        simple = (lo != hi).all(axis=0) & (keys[1:] != keys[:-1]).all(axis=0)
        if simple.any():
            u, v = lo[:, simple.argmax()], hi[:, simple.argmax()]
            return _from_arcs(vertex_count, np.concatenate([u, v]), np.concatenate([v, u]))
        drawn += batch
        batch = min(2 * batch, max(1, (1 << 20) // len(stubs)))
    raise CapacityError(
        f"no simple pairing among {drawn} drawn for {vertex_count} vertices of degree {d}"
    )


def write_edge_list(g: Graph, fh) -> None:
    """Text export: header '# vertices=<N> degree=<d>' then one 'u v' per line."""
    d = g.degree if g.degree is not None else "mixed"
    fh.write(f"# vertices={g.vertex_count} degree={d}\n")
    for u, v in g.edges():
        fh.write(f"{u} {v}\n")
