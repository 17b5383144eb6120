from itertools import combinations
from math import comb

import numpy as np
import pytest

from flipspectra import bounds, census, cli
from flipspectra.bounds import CollectionStats, assoc_lower_bound, collection_bound
from flipspectra.census import (
    _hexagon_faces,
    count_pentagons_total,
    ear_counts,
    hexagon_census,
    hexagon_census_oracle,
    hexagon_count_vertex_oracle,
    pentagon_census,
    pentagon_census_oracle,
    pentagon_count_edge_oracle,
    pentagon_count_vertex_oracle,
)
from flipspectra.errors import CapacityError, InvalidInputError
from flipspectra.flipgraph import (
    Graph,
    _flip_pass,
    build_associahedron,
    cycle_graph,
    petersen_graph,
)
from flipspectra.triangulations import _diagonal_ids, polygon_regions
from oracles import (
    Triangulation,
    crosses,
    cycle_spectrum,
    dual_tree,
    ear_count,
    enumerate_objects,
    fan_triangulation,
)


def oracle_hexagon_supports(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Every (n - 6)-set of non-crossing diagonals leaving one hexagon plus triangles."""
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


def face_supports(n: int) -> list[tuple[tuple[int, int], ...]]:
    """The supports of ``census._hexagon_faces`` as ascending 1-based diagonal tuples, sorted."""
    ends, _ = _diagonal_ids(n)
    # ids follow the diagonals' lexicographic order, so sorted ids give sorted sets
    held = np.sort(_hexagon_faces(n)[1], axis=1)
    return sorted(tuple(map(tuple, support)) for support in (ends[held] + 1).tolist())


def oracle_hexagon_census(n: int) -> CollectionStats:
    """The support census through Python sets: each support's vertices and their edges."""
    g = build_associahedron(n)
    diagonals = [set(t.diagonals) for t in enumerate_objects(n)]
    supports = oracle_hexagon_supports(n)
    per_vertex = [0] * g.vertex_count
    per_edge = {}
    for support in supports:
        keep = [i for i, ds in enumerate(diagonals) if ds.issuperset(support)]
        kset = set(keep)
        for i in keep:
            per_vertex[i] += 1
            for j in g.neighbors_of(i):
                j = int(j)
                if j > i and j in kset:
                    per_edge[(i, j)] = per_edge.get((i, j), 0) + 1
    edges = tuple(per_edge.get(e, 0) for e in g.edges())
    return CollectionStats(min(per_vertex), max(edges), tuple(per_vertex), edges, len(supports))


def _index(t: Triangulation) -> int:
    """The flip-graph vertex (census row) of t."""
    return build_associahedron(t.n).labels.index(t.code())


def _edge_index(n: int, u: int, v: int) -> int:
    """The position of the flip edge uv (u < v) in the edge order of the census."""
    return list(build_associahedron(n).edges()).index((u, v))


def test_pentagon_vertex_formula_examples():
    assert pentagon_census(5).per_vertex == (1,) * 5
    star = Triangulation(6, ((1, 3), (3, 5), (1, 5)))
    per_vertex = pentagon_census(6).per_vertex
    assert per_vertex[_index(star)] == 3
    assert per_vertex[_index(fan_triangulation(6))] == 2


@pytest.mark.parametrize("n", range(5, 9))
def test_pentagon_vertex_formula_identity(n):
    rep = pentagon_census(n)
    for c, t in zip(rep.per_vertex, enumerate_objects(n), strict=True):
        assert c == n - 6 + ear_count(t)
        assert c == sum(comb(d, 2) for d in dual_tree(t).degrees)
        assert c >= n - 4


@pytest.mark.parametrize("n", range(4, 11))
def test_ear_counts_match_dual_tree_leaves(n):
    assert ear_counts(n) == tuple(ear_count(t) for t in enumerate_objects(n))


def test_pentagon_vertex_oracle_examples():
    g5 = build_associahedron(5)
    assert all(pentagon_count_vertex_oracle(g5, v) == 1 for v in range(5))
    c6 = cycle_graph(6)
    assert all(pentagon_count_vertex_oracle(c6, v) == 0 for v in range(6))
    p = petersen_graph()
    assert all(pentagon_count_vertex_oracle(p, v) == 6 for v in range(10))


def test_petersen_five_cycles_against_subset_enumeration():
    # independent count: 5-subsets of vertices carrying a spanning cycle
    p = petersen_graph()
    adj = p.adjacency_sets()

    def subset_has_c5(subset):
        # on 5 vertices a 2-regular spanning subgraph is exactly a 5-cycle
        inner = {v: adj[v] & set(subset) for v in subset}
        return all(len(nb) == 2 for nb in inner.values())

    total = sum(1 for subset in combinations(range(10), 5) if subset_has_c5(subset))
    assert total == 12
    assert count_pentagons_total(p) == 12


@pytest.mark.parametrize("n", range(5, 9))
def test_pentagon_vertex_formula_matches_oracle(n):
    g = build_associahedron(n)
    rep = pentagon_census(n)
    assert len(rep.per_vertex) == g.vertex_count
    for v, c in enumerate(rep.per_vertex):
        assert c == pentagon_count_vertex_oracle(g, v)


def test_pentagon_edge_examples():
    assert pentagon_census(5).per_edge == (1,) * 5
    # hexagon edge between the two triangulations sharing (1,3) and (1,5)
    t1 = Triangulation(6, ((1, 3), (1, 4), (1, 5)))
    t2 = Triangulation(6, ((1, 3), (3, 5), (1, 5)))
    u, v = sorted((_index(t1), _index(t2)))
    assert pentagon_census(6).per_edge[_edge_index(6, u, v)] == 2


@pytest.mark.parametrize("n", range(5, 9))
def test_pentagon_edge_formula_matches_oracle(n):
    g = build_associahedron(n)
    per_edge = pentagon_census(n).per_edge
    assert len(per_edge) == g.edge_count
    for (u, v), c in zip(g.edges(), per_edge, strict=True):
        assert 1 <= c <= 4
        assert c == pentagon_count_edge_oracle(g, u, v)


def test_pentagon_edge_oracle_rejects_a_non_edge(monkeypatch):
    g = cycle_graph(5)
    assert pentagon_count_edge_oracle(g, 4, 0) == 1
    for u, v in [(0, 2), (0, 0), (0, 5), (-1, 0), (5, 0)]:
        with pytest.raises(InvalidInputError, match=rf"^\({u},{v}\) is not an edge$"):
            pentagon_count_edge_oracle(g, u, v)
    # the host cap is checked before the edge
    monkeypatch.setattr(bounds, "COLLECTION_HOST_LIMIT", 4)
    with pytest.raises(CapacityError, match="^census oracle limited to 4 vertices$"):
        pentagon_count_edge_oracle(g, 0, 2)


@pytest.mark.parametrize("n", range(5, 9))
def test_pentagon_aggregation_identity(n):
    # every 5-cycle is counted once per each of its 5 vertices
    g = build_associahedron(n)
    total = count_pentagons_total(g)
    rep = pentagon_census(n)
    assert sum(rep.per_vertex) == 5 * total
    assert rep.copy_count == total


@pytest.mark.parametrize("n", range(5, 10))
def test_pentagon_census_equals_its_oracle(n):
    assert pentagon_census(n) == pentagon_census_oracle(n)


@pytest.mark.parametrize("n", range(8, 14))
def test_pentagon_census_is_the_papers_collection(n):
    # to n = 13, past the copy search's n <= 11: m = n - 4 and t = 4
    rep = pentagon_census(n)
    assert (rep.m, rep.t) == (n - 4, 4)
    bound = collection_bound(n - 3, 2, cycle_spectrum(5).lambda_min, rep)
    assert abs(bound - assoc_lower_bound(n)) <= 1e-12


def test_hexagon_vertex_formula_examples():
    assert hexagon_census(6).per_vertex == (1,) * 14
    assert hexagon_census(7).per_vertex[_index(fan_triangulation(7))] == 2
    # a path dual tree realizes the minimum n - 5
    snake8 = next(t for t in enumerate_objects(8) if ear_count(t) == 2)
    assert hexagon_census(8).per_vertex[_index(snake8)] == 3


def test_hexagon_vertex_oracle_examples():
    for t in enumerate_objects(6):
        assert hexagon_count_vertex_oracle(6, t.diagonals) == 1
    assert hexagon_count_vertex_oracle(7, fan_triangulation(7).diagonals) == 2


def test_hexagon_vertex_oracle_checks_n():
    with pytest.raises(InvalidInputError):
        hexagon_count_vertex_oracle(7, fan_triangulation(8).diagonals)


@pytest.mark.parametrize(
    "diagonals",
    [
        ((1, 3), (1, 4), (1, 5)),  # one short
        ((1, 3), (1, 3), (1, 4), (1, 5)),  # a repeat in place of 1-6
        ((1, 3), (1, 3), (1, 4), (1, 5), (1, 6)),  # the fan and a repeat
        ((1, 3), (2, 4), (1, 4), (1, 5)),  # 1-3 and 2-4 cross
        ((1, 2), (1, 4), (1, 5), (1, 6)),  # 1-2 is a side
    ],
)
def test_hexagon_vertex_oracle_rejects_what_is_not_a_triangulation(diagonals):
    with pytest.raises(InvalidInputError):
        hexagon_count_vertex_oracle(7, diagonals)


@pytest.mark.parametrize("n", range(6, 9))
def test_hexagon_vertex_formula_matches_oracle(n):
    rep = hexagon_census(n)
    for total, t in zip(rep.per_vertex, enumerate_objects(n), strict=True):
        assert total == hexagon_count_vertex_oracle(n, t.diagonals)
        assert total >= n - 5


def test_hexagon_edge_single_class_n6():
    assert hexagon_census(6).per_edge == (1,) * 21


@pytest.mark.parametrize("n", range(6, 13))
def test_hexagon_edge_matches_support_oracle(n):
    oracle = hexagon_census_oracle(n)
    assert len(oracle.per_edge) == build_associahedron(n).edge_count
    assert all(1 <= c <= 14 for c in oracle.per_edge)
    assert hexagon_census(n) == oracle


@pytest.mark.parametrize("n", range(6, 10))
def test_hexagon_support_oracle_matches_set_search(n):
    assert hexagon_census_oracle(n) == oracle_hexagon_census(n)


def test_hexagon_supports_counts():
    assert face_supports(6) == [()]
    # heptagon: one support per ear-cutting diagonal
    assert len(face_supports(7)) == 7


@pytest.mark.parametrize("n", range(6, 11))
def test_hexagon_supports_match_filter_oracle(n):
    assert face_supports(n) == oracle_hexagon_supports(n)


def test_census_reports():
    rep = pentagon_census(6)
    assert rep == pentagon_census_oracle(6)
    assert rep.m == 2 and max(rep.per_vertex) == 3
    assert rep.copy_count == 6  # the six pentagonal faces of the 3-dimensional associahedron
    hexa = hexagon_census(6)
    assert hexa == hexagon_census_oracle(6)
    assert hexa.per_vertex == (1,) * 14
    assert min(hexa.per_edge) == hexa.t == 1
    assert hexa.copy_count == 1


def test_oracle_capacity(monkeypatch):
    # the oracles share the collection search's one host cap
    assert not hasattr(census, "CENSUS_LIMIT_DEFAULT")
    g = build_associahedron(6)
    monkeypatch.setattr(bounds, "COLLECTION_HOST_LIMIT", 5)
    with pytest.raises(CapacityError, match="^census oracle limited to 5 vertices$"):
        pentagon_count_vertex_oracle(g, 0)


@pytest.mark.parametrize("n", range(5, 9))
def test_pentagon_census_oracle_matches_path_search(n):
    g = build_associahedron(n)
    oracle = pentagon_census_oracle(n)
    assert oracle.per_vertex == tuple(
        pentagon_count_vertex_oracle(g, v) for v in range(g.vertex_count)
    )
    assert oracle.per_edge == tuple(pentagon_count_edge_oracle(g, u, v) for u, v in g.edges())


def test_pentagon_census_oracle_uses_no_path_search(monkeypatch):
    calls = []

    def spy(name):
        return lambda *args, **kwargs: calls.append(name)

    monkeypatch.setattr(census, "pentagon_count_vertex_oracle", spy("vertex"))
    monkeypatch.setattr(census, "pentagon_count_edge_oracle", spy("edge"))
    monkeypatch.setattr(Graph, "adjacency_sets", spy("adjacency_sets"))
    oracle = pentagon_census_oracle(9)
    assert calls == []
    assert oracle == pentagon_census(9)


def test_pentagon_census_oracle_keeps_the_census_cap(monkeypatch):
    assert bounds.COLLECTION_HOST_LIMIT == 20000
    # A7 has 42 vertices; the oracle refuses a host over the cap as a census
    monkeypatch.setattr(bounds, "COLLECTION_HOST_LIMIT", 41)
    with pytest.raises(CapacityError, match="^census oracle limited to 41 vertices$"):
        pentagon_census_oracle(7)
    with pytest.raises(CapacityError, match="^collection search limited to hosts with 41 vertices$"):
        bounds.collection_stats(build_associahedron(7), cycle_graph(5))
    monkeypatch.setattr(bounds, "COLLECTION_HOST_LIMIT", 42)
    assert pentagon_census_oracle(7) == pentagon_census(7)


def test_hexagon_census_oracle_keeps_the_census_cap(monkeypatch):
    # A7 has 42 vertices; every oracle shares the collection search's one host cap
    monkeypatch.setattr(bounds, "COLLECTION_HOST_LIMIT", 41)
    with pytest.raises(CapacityError, match="^census oracle limited to 41 vertices$"):
        hexagon_census_oracle(7)
    monkeypatch.setattr(bounds, "COLLECTION_HOST_LIMIT", 42)
    assert hexagon_census_oracle(7) == hexagon_census(7)


@pytest.mark.parametrize("n", range(6, 10))
def test_hexagon_oracle_equals_the_collection_search(monkeypatch, n):
    # a third route: the hexagon-flip subgraphs are the subgraph copies of A6
    monkeypatch.setattr(bounds, "COLLECTION_PATTERN_LIMIT", 14)
    searched = bounds.collection_stats(build_associahedron(n), build_associahedron(6))
    assert searched == hexagon_census_oracle(n)


def test_hexagon_support_oracle_needs_a_hexagon():
    with pytest.raises(InvalidInputError):
        hexagon_census_oracle(5)


def test_census_reports_read_a_given_flip_pass(monkeypatch):
    want = pentagon_census(9), hexagon_census(9)
    flips = _flip_pass(9)
    monkeypatch.setattr(census, "_flips", lambda n: flips if n == 9 else pytest.fail(f"n={n}"))
    assert (pentagon_census(9), hexagon_census(9)) == want


def test_census_reports_share_one_flip_pass_per_n():
    census._flips.cache_clear()
    pentagon_census(9), hexagon_census(9), pentagon_census(9)
    assert census._flips.cache_info()[:2] == (2, 1)  # (hits, misses)
    hexagon_census(8), hexagon_census(9)
    assert census._flips.cache_info()[:2] == (2, 3)
    # the flip graph's build keeps its own pass, which it sorts in place
    assert census._flips(9)[-1] is not build_associahedron(9).neighbors.base


@pytest.mark.parametrize("n", range(5, 12))
def test_edge_slots_list_the_flip_graphs_edges(n):
    target = _flip_pass(n)[-1]
    u, i = census._edge_slots(target)
    assert list(zip(u.tolist(), target[u, i].tolist())) == list(build_associahedron(n).edges())


def test_census_edges_do_not_build_the_flip_graph(monkeypatch, capsys):
    want = (cli.main(["census", "--n", "9", "--edges"]), capsys.readouterr().out)
    monkeypatch.setattr(cli, "build_associahedron", lambda *a: pytest.fail("built the graph"))
    assert (cli.main(["census", "--n", "9", "--edges"]), capsys.readouterr().out) == want


@pytest.mark.parametrize("extra", [[], ["--edges"], ["--oracle"], ["--oracle", "--edges"]])
def test_census_command_runs_one_flip_pass(capsys, extra):
    census._flips.cache_clear()
    assert cli.main(["census", "--n", "8", *extra]) == 0
    assert census._flips.cache_info().misses == 1
    assert capsys.readouterr().out
