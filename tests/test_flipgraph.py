import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flipspectra.errors import CapacityError, InvalidInputError, RangeError
from flipspectra.flipgraph import (
    box_product,
    build_associahedron,
    complete_graph,
    contains_triangle,
    cycle_graph,
    diagonal_slice,
    from_edges,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    petersen_graph,
    random_regular_graph,
    slice_product_map,
    validate_regular,
    write_edge_list,
)
from flipspectra import flipgraph as fg
from flipspectra import triangulations as tri
from flipspectra.triangulations import catalan
from oracles import Triangulation, crosses, enumerate_objects, neighbors, path_graph, single_vertex


def flip_oracle_graph(n):
    """The flip graph built one validated flip at a time, with each vertex's code."""
    ts = enumerate_objects(n)
    index = {t.diagonals: i for i, t in enumerate(ts)}
    edges = [
        (i, index[nb.diagonals]) for i, t in enumerate(ts) for nb in neighbors(t)
    ]
    return from_edges(len(ts), edges), tuple(t.code() for t in ts), ts


def csr_oracle(vertex_count, edges):
    """(offsets, neighbors) from Python neighbour sets, one sorted row per vertex."""
    rows = [set() for _ in range(vertex_count)]
    for u, v in edges:
        rows[u].add(v)
        rows[v].add(u)
    offsets = np.cumsum([0] + [len(r) for r in rows])
    return offsets, np.array([w for r in rows for w in sorted(r)], dtype=np.int64)


def box_product_oracle(g, h):
    m = h.vertex_count
    edges = [(a1 * m + b, a2 * m + b) for a1, a2 in g.edges() for b in range(m)]
    edges += [(a * m + b1, a * m + b2) for b1, b2 in h.edges() for a in range(g.vertex_count)]
    return csr_oracle(g.vertex_count * m, edges)


def induced_oracle(g, keep):
    kept = sorted(set(keep))
    pos = {old: new for new, old in enumerate(kept)}
    edges = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
    return csr_oracle(len(kept), edges)


def contains_triangle_oracle(g):
    adj = g.adjacency_sets()
    return any(adj[u] & adj[v] for u, v in g.edges())


def connected_oracle(g):
    """Depth-first search over Python sets."""
    adj = g.adjacency_sets()
    seen, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()] - seen:
            seen.add(v)
            stack.append(v)
    return len(seen) == g.vertex_count


def same_csr(g, want):
    offsets, neighbors = want
    return (
        np.array_equal(g.offsets, offsets) and g.offsets.dtype == np.int64
        and np.array_equal(g.neighbors, neighbors) and g.neighbors.dtype == np.int64
    )


@st.composite
def edge_lists(draw, max_vertices=30):
    nv = draw(st.integers(0, max_vertices))
    if nv < 2:
        return nv, []
    pair = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)).filter(lambda e: e[0] != e[1])
    return nv, draw(st.lists(pair, max_size=draw(st.sampled_from([nv // 2, nv, 3 * nv]))))


@settings(max_examples=150, deadline=None)
@given(edge_lists())
# a star K1,40 with one edge between two leaves
@example((41, [(0, i) for i in range(1, 41)] + [(39, 40)]))
# the only triangle 0-1-12 closes through the last slot of vertex 1, of the highest degree
@example((13, [(1, i) for i in [0, *range(2, 13)]] + [(0, 12)]))
# isolated vertices around a triangle, and graphs with no edges
@example((9, [(3, 4), (4, 5), (3, 5)]))
@example((7, []))
@example((0, []))
def test_from_edges_and_triangle_check_match_oracles(case):
    nv, edges = case
    g = from_edges(nv, edges)
    assert same_csr(g, csr_oracle(nv, edges))
    assert g.degree == (int(g.degrees()[0]) if nv and len(set(g.degrees())) == 1 else None)
    assert contains_triangle(g) == contains_triangle_oracle(g)
    assert is_connected(g) == (nv == 0 or connected_oracle(g))


@pytest.mark.parametrize("n", range(4, 11))
def test_array_products_and_slices_match_edge_oracles(n):
    g = build_associahedron(n)
    for k in range(3, n):
        left, right = build_associahedron(k), build_associahedron(n - k + 2)
        prod = box_product(left, right)
        assert same_csr(prod, box_product_oracle(left, right))
        assert prod.degree == n - 4
        keep = np.flatnonzero(fg._slice_mask(n, (1, k)))
        sub, kept = induced_subgraph(g, keep)
        assert same_csr(sub, induced_oracle(g, keep.tolist()))
        assert kept == tuple(keep.tolist())


def test_products_and_subgraphs_of_irregular_graphs():
    g = from_edges(5, [(0, 1), (1, 2), (3, 4)])
    h = path_graph(3)
    assert same_csr(box_product(g, h), box_product_oracle(g, h))
    assert box_product(g, h).degree is None
    assert same_csr(box_product(from_edges(0, []), h), csr_oracle(0, []))
    for keep in ([], [4], [0, 2, 4], [4, 3, 1, 1]):
        sub, kept = induced_subgraph(g, keep)
        assert same_csr(sub, induced_oracle(g, keep)) and kept == tuple(sorted(set(keep)))


# A5's vertices in the order of its 5-cycle: 0-1-4-3-2-0
A5_TO_C5 = np.array([0, 1, 4, 3, 2])


def test_small_flip_graphs():
    g4 = build_associahedron(4)
    assert g4.vertex_count == 2 and g4.edge_count == 1 and g4.degree == 1
    g5 = build_associahedron(5)
    assert is_isomorphic(g5, cycle_graph(5), A5_TO_C5)
    g6 = build_associahedron(6)
    assert g6.vertex_count == 14 and g6.degree == 3


def test_single_vertex_flip_graph():
    g3 = build_associahedron(3)
    assert g3.vertex_count == 1 and g3.edge_count == 0


@pytest.mark.parametrize("n", range(4, 10))
def test_flip_graph_structure(n):
    g = build_associahedron(n)
    assert g.vertex_count == catalan(n - 2)
    assert validate_regular(g, n - 3)
    assert is_connected(g)
    assert g.edge_count == catalan(n - 2) * (n - 3) // 2
    assert not contains_triangle(g)


def test_flip_graph_structure_at_scale(assoc):
    # regularity, connectivity and the edge count through n = 12;
    # triangle-freeness through n = 10
    for n in (10, 11, 12):
        g = assoc(n)
        assert validate_regular(g, n - 3)
        assert is_connected(g)
        assert g.edge_count == catalan(n - 2) * (n - 3) // 2
    assert not contains_triangle(assoc(10))


@pytest.mark.parametrize("n", range(3, 11))
def test_array_build_matches_flip_oracle(n):
    g = build_associahedron(n)
    want, codes, _ = flip_oracle_graph(n)
    assert g.offsets.dtype == want.offsets.dtype == np.int64
    assert g.neighbors.dtype == want.neighbors.dtype == np.int64
    assert np.array_equal(g.offsets, want.offsets)
    assert np.array_equal(g.neighbors, want.neighbors)
    assert g.labels == codes
    assert g.degree == want.degree == n - 3


def test_build_stops_where_uint8_ids_run_out(monkeypatch):
    # 24 * 21 / 2 = 252 diagonals still fit; the 25-gon's 275 do not
    ends, lookup = fg._diagonal_ids(24)
    assert len(ends) == 252 and lookup[21, 23] == 251
    calls = []

    def counted(*args):
        # never calls through: enumerating the 25-gon would not fit in memory
        calls.append(args)
        raise AssertionError("enumerated before the uint8 guard")

    monkeypatch.setattr(tri, "_endpoint_blocks", counted)
    monkeypatch.setenv("FLIPSPECTRA_MAX_N", "25")
    with pytest.raises(CapacityError):
        build_associahedron(25)
    # the guard comes before any enumeration
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_csr_neighbors_differ_by_one_crossing_flip(data):
    n = data.draw(st.integers(3, 11))
    g = build_associahedron(n)
    v = data.draw(st.integers(0, g.vertex_count - 1))
    here = set(Triangulation.from_code(n, g.labels[v]).diagonals)
    for w in g.neighbors_of(v):
        there = set(Triangulation.from_code(n, g.labels[int(w)]).diagonals)
        (gone,), (new,) = here - there, there - here
        assert crosses(gone, new)


@pytest.mark.parametrize("n", range(4, 9))
def test_slice_matches_enumeration_oracle(n):
    g, _, ts = flip_oracle_graph(n)
    for d in {d for t in ts for d in t.diagonals}:
        want, _ = induced_subgraph(g, [i for i, t in enumerate(ts) if d in t.diagonals])
        got = diagonal_slice(n, d)
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.neighbors, want.neighbors)
        assert got.degree == want.degree
        assert got.labels is None


@pytest.mark.parametrize("g", [path_graph(4), petersen_graph(), build_associahedron(7)])
def test_dense_adjacency_matches_row_loop(g):
    want = np.zeros((g.vertex_count, g.vertex_count))
    for u in range(g.vertex_count):
        want[u, g.neighbors_of(u)] = 1.0
    assert np.array_equal(g.dense_adjacency(), want)


def test_flip_graph_labels_follow_enumeration():
    g = build_associahedron(5)
    assert g.labels[0] == "1-3,1-4"
    assert len(set(g.labels)) == 5


@pytest.mark.parametrize("n", range(3, 13))
def test_labels_are_built_on_first_read(n):
    fg._associahedron_cached.cache_clear()
    g = build_associahedron(n)
    assert "labels" not in vars(g)
    assert g.labels == tuple(t.code() for t in enumerate_objects(n))
    assert g.labels == tri.enumerate_triangulations(n)
    assert "labels" in vars(g) and g.labels is g.labels


def test_range_errors():
    with pytest.raises(RangeError):
        build_associahedron(2)
    with pytest.raises(RangeError):
        build_associahedron(15)


def test_box_product_examples():
    k2 = complete_graph(2)
    # (a, b) -> 2a + b: the square 00-01-11-10
    assert is_isomorphic(box_product(k2, k2), cycle_graph(4), [0, 1, 3, 2])
    prism = box_product(cycle_graph(5), k2)
    assert prism.vertex_count == 10 and prism.degree == 3
    assert is_isomorphic(box_product(cycle_graph(5), single_vertex()), cycle_graph(5), range(5))


@settings(max_examples=30)
@given(st.integers(1, 6), st.integers(1, 6))
def test_box_product_vertex_count(a, b):
    g = path_graph(a)
    h = path_graph(b)
    assert box_product(g, h).vertex_count == a * b


def test_box_product_capacity(monkeypatch):
    monkeypatch.setattr(fg, "BOX_PRODUCT_LIMIT_DEFAULT", 5000)
    with pytest.raises(CapacityError):
        box_product(cycle_graph(100), cycle_graph(100))


def test_induced_subgraph():
    g = build_associahedron(6)
    full, kept = induced_subgraph(g, range(14))
    assert full.edge_count == g.edge_count and kept == tuple(range(14))
    solo, _ = induced_subgraph(g, [3])
    assert solo.vertex_count == 1 and solo.edge_count == 0
    with pytest.raises(InvalidInputError):
        induced_subgraph(g, [0, 99])


def test_a6_slice_on_diagonal_13():
    # triangulations of the hexagon containing (1,3): catalan(1)*catalan(3) = 5
    slc = diagonal_slice(6, (1, 3))
    assert slc.vertex_count == 5
    # A3 box A5 indexes its vertices like A5
    assert is_isomorphic(slc, cycle_graph(5), A5_TO_C5[slice_product_map(6, 3)])


def test_slice_is_box_product():
    slc = diagonal_slice(8, (1, 4))
    prod = box_product(build_associahedron(4), build_associahedron(6))
    assert is_isomorphic(slc, prod, slice_product_map(8, 4))


def test_slice_product_map_errors():
    with pytest.raises(InvalidInputError):
        slice_product_map(6, 2)  # 1-2 is a side
    with pytest.raises(RangeError):
        slice_product_map(15, 5)


@pytest.mark.parametrize(
    "n, k",
    # every k up to n = 9, then a few pairs above the slice claim's n <= 10 cap
    [(n, k) for n in range(4, 10) for k in range(3, n)] + [(11, 4), (11, 6), (12, 6), (12, 7)],
)
def test_slice_map_matches_dense_adjacency(n, k):
    slc = diagonal_slice(n, (1, k))
    prod = box_product(build_associahedron(k), build_associahedron(n - k + 2))
    phi = slice_product_map(n, k)
    assert np.array_equal(np.sort(phi), np.arange(prod.vertex_count))
    assert np.array_equal(prod.dense_adjacency()[np.ix_(phi, phi)], slc.dense_adjacency())


@pytest.mark.parametrize("n", range(4, 10))
def test_slice_vertex_counts(n):
    for k in range(3, n):
        slc = diagonal_slice(n, (1, k))
        assert slc.vertex_count == catalan(k - 2) * catalan(n - k)


def test_isomorphism_negatives():
    assert not is_isomorphic(cycle_graph(5), path_graph(5), range(5))
    # same degree sequence, different structure: C6 vs two triangles
    two_triangles = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_isomorphic(cycle_graph(6), two_triangles, range(6))
    assert not is_isomorphic(cycle_graph(5), cycle_graph(6), range(5))
    # an isolated vertex 2 leaves the edges intact under a repeated image
    k2_and_point = from_edges(3, [(0, 1)])
    assert is_isomorphic(k2_and_point, k2_and_point, [1, 0, 2])
    assert not is_isomorphic(k2_and_point, k2_and_point, [0, 1, 0])
    assert not is_isomorphic(cycle_graph(5), cycle_graph(5), range(4))
    assert not is_isomorphic(cycle_graph(5), from_edges(6, cycle_graph(5).edges()), range(5))
    # a bijection that breaks an edge: the slice map with two images swapped
    slc = diagonal_slice(8, (1, 4))
    prod = box_product(build_associahedron(4), build_associahedron(6))
    phi = slice_product_map(8, 4)
    phi[[0, 1]] = phi[[1, 0]]
    assert not is_isomorphic(slc, prod, phi)


def test_is_connected_examples():
    assert is_connected(from_edges(0, [])) and is_connected(single_vertex())
    assert not is_connected(from_edges(2, []))
    assert not is_connected(from_edges(4, [(0, 1), (2, 3)]))
    assert not is_connected(box_product(path_graph(3), from_edges(2, [])))
    assert is_connected(path_graph(40)) and is_connected(box_product(cycle_graph(5), path_graph(4)))
    # a long cycle: 50,000 levels, each touching only its own two vertices
    long_cycle = cycle_graph(100_000)
    assert is_connected(long_cycle)
    assert not is_connected(induced_subgraph(long_cycle, np.delete(np.arange(100_000), [7, 60_000]))[0])


def test_petersen():
    p = petersen_graph()
    assert p.vertex_count == 10 and p.degree == 3
    assert not contains_triangle(p)
    assert is_connected(p)


def test_validate_regular():
    assert validate_regular(cycle_graph(5), 2)
    assert not validate_regular(complete_graph(2), 3)
    assert not validate_regular(path_graph(3), 1)


def test_random_regular_graph():
    g1 = random_regular_graph(20, 3, seed=1)
    assert validate_regular(g1, 3)
    g2 = random_regular_graph(20, 3, seed=1)
    assert (g1.neighbors == g2.neighbors).all()
    assert random_regular_graph(4, 0).vertex_count == 4 and random_regular_graph(4, 0).edge_count == 0
    with pytest.raises(InvalidInputError):
        random_regular_graph(5, 3, seed=0)  # odd stub count


@pytest.mark.parametrize("nv, d", [(8, 4), (10, 4), (12, 4), (20, 3)])
def test_random_regular_graph_is_simple_for_every_seed(nv, d):
    for seed in range(1000):
        g = random_regular_graph(nv, d, seed=seed)
        # a repeated edge or a loop would cost its vertices degree in the CSR
        u, v = g.arcs()
        assert validate_regular(g, d) and g.edge_count == nv * d // 2 and (u != v).all()


def test_random_regular_graph_gives_up_on_a_budget(monkeypatch):
    # at 30 vertices of degree 14, about e^-49 of the pairings is simple
    monkeypatch.setattr(fg, "RANDOM_REGULAR_PAIRINGS", 64)
    with pytest.raises(CapacityError):
        random_regular_graph(30, 14, seed=0)


@pytest.mark.parametrize("nv, d", [(10, 8), (12, 9), (20, 17), (10, 9), (7, 6)])
def test_random_regular_graph_samples_dense_degrees(nv, d):
    for seed in range(20):
        g = random_regular_graph(nv, d, seed=seed)
        u, v = g.arcs()
        assert validate_regular(g, d) and g.edge_count == nv * d // 2 and (u != v).all()
        # the complement of the sparse draw with the same seed
        sparse = random_regular_graph(nv, nv - 1 - d, seed=seed)
        assert not set(g.edges()) & set(sparse.edges())


def test_loops_rejected():
    with pytest.raises(InvalidInputError):
        from_edges(3, [(0, 0)])


def test_edge_list_export():
    buf = io.StringIO()
    write_edge_list(build_associahedron(4), buf)
    assert buf.getvalue() == "# vertices=2 degree=1\n0 1\n"


def rotation_oracle(n):
    """R as a permutation: each triangulation's code turned by one step, i to i + 1."""
    labels = build_associahedron(n).labels
    index = {code: v for v, code in enumerate(labels)}
    turned = []
    for code in labels:
        diagonals = [tuple(map(int, d.split("-"))) for d in code.split(",") if d]
        moved = sorted(tuple(sorted((i % n + 1, j % n + 1))) for i, j in diagonals)
        turned.append(index[",".join(f"{i}-{j}" for i, j in moved)])
    return np.array(turned)


@pytest.mark.parametrize("n", range(3, 12))
def test_rotation_is_an_automorphism_of_order_n(n):
    g = build_associahedron(n)
    rot = rotation_oracle(n)
    assert np.array_equal(np.sort(rot), np.arange(g.vertex_count))
    u, v = g.arcs()
    assert np.array_equal(np.sort(rot[u] * g.vertex_count + rot[v]), g.arc_keys())
    power = np.arange(g.vertex_count)
    for _ in range(n):
        power = rot[power]
    assert np.array_equal(power, np.arange(g.vertex_count))


@pytest.mark.parametrize("n", range(3, 12))
def test_rotation_orbits_match_the_rotation(n):
    rot = rotation_oracle(n)
    rep, shift, size = fg.rotation_orbits(n)
    count = len(rot)
    orbit = [np.arange(count)]  # orbit[t] = R^t(v)
    for _ in range(n):
        orbit.append(rot[orbit[-1]])
    orbit = np.array(orbit)
    assert np.array_equal(rep, orbit.min(axis=0))
    assert (n % size == 0).all() and (shift >= 0).all() and (shift < size).all()
    # size is the least t > 0 with R^t(v) = v
    back = orbit[1:] == np.arange(count)
    assert np.array_equal(size, back.argmax(axis=0) + 1)
    assert np.array_equal(orbit[shift, rep], np.arange(count))
    assert (size == size[rep]).all()


@pytest.mark.parametrize("n", range(4, 12))
def test_reflection_is_an_involutive_automorphism_that_inverts_the_rotation(n):
    g = build_associahedron(n)
    mirror = fg.reflection(n)
    assert np.array_equal(mirror[mirror], np.arange(g.vertex_count))
    u, v = g.arcs()
    assert np.array_equal(np.sort(mirror[u] * g.vertex_count + mirror[v]), g.arc_keys())
    # R read off rotation_orbits, checked against the turned codes
    rep, shift, size = fg.rotation_orbits(n)
    at = {(r, t): w for w, (r, t) in enumerate(zip(rep.tolist(), shift.tolist()))}
    rot = np.array([at[r, (t + 1) % s] for r, t, s in zip(rep, shift, size)])
    assert np.array_equal(rot, rotation_oracle(n))
    assert np.array_equal(mirror[rot], np.argsort(rot)[mirror])  # sigma R = R^-1 sigma


@pytest.mark.parametrize("n", range(3, 13))
def test_rotation_block_sizes_sum_to_the_vertex_count(n):
    rep, _, size = fg.rotation_orbits(n)
    reps = rep == np.arange(len(rep))
    total = 0
    for j in range(n // 2 + 1):
        block = int((reps & (j * size % n == 0)).sum())
        total += block if 2 * j % n == 0 else 2 * block  # j and n - j
    assert total == catalan(n - 2)


def test_only_the_flip_graph_has_a_rotation():
    assert [build_associahedron(n).polygon for n in range(3, 9)] == list(range(3, 9))
    a5 = build_associahedron(5)
    others = [
        from_edges(3, [(0, 1), (1, 2)]),
        cycle_graph(5),
        random_regular_graph(10, 3, seed=1),
        induced_subgraph(a5, range(5))[0],
        box_product(a5, a5),
        diagonal_slice(8, (1, 4)),
    ]
    assert all(h.polygon is None and h.labels is None for h in others)
