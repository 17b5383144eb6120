import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipspectra import bounds
from flipspectra.bounds import (
    SLACK,
    BoundReport,
    CollectionStats,
    _pattern_order,
    assoc_hexagon_lower_bound,
    assoc_lower_bound,
    assoc_upper_bound,
    bound_report,
    certify_collection_bound,
    chromatic_lower_bound,
    collection_stats,
    collection_stats_from_copies,
    flipgraph_bound_reports,
    holds,
    limit_bracket,
    mixing_bounds,
    theorem_bound,
    upper_bound_residue_constants,
)
from flipspectra.errors import InvalidInputError
from flipspectra.flipgraph import (
    build_associahedron,
    complete_graph,
    cycle_graph,
    from_edges,
    petersen_graph,
    random_regular_graph,
)
from flipspectra.reference import LAMBDA_MIN_TABLE, LIMIT_UPPER_CONSTANT
from flipspectra.spectra import dense_spectrum
from oracles import cycle_spectrum, odd_cycle_bound, path_graph


def oracle_collection_stats(g, pattern):
    """Every embedding by recursive search, deduplicated on its mapped edge set.

    Independent of the symmetry conditions: it finds each copy once per
    automorphism of the pattern and keeps one.
    """
    adj_g = g.adjacency_sets()
    adj_k = pattern.adjacency_sets()
    deg_g = [len(a) for a in adj_g]
    order = _pattern_order(adj_k)
    pos_in_order = {v: i for i, v in enumerate(order)}
    back_edges = [
        [pos_in_order[u] for u in adj_k[order[i]] if pos_in_order[u] < i]
        for i in range(len(order))
    ]
    k_edges = [(u, v) for u in range(pattern.vertex_count) for v in adj_k[u] if u < v]
    copies = set()
    mapping = [-1] * pattern.vertex_count
    used = [False] * g.vertex_count

    def extend(i):
        if i == len(order):
            copies.add(tuple(sorted(
                (min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for u, v in k_edges
            )))
            return
        kv = order[i]
        if back_edges[i]:
            cands = set(adj_g[mapping[order[back_edges[i][0]]]])
            for b in back_edges[i][1:]:
                cands &= adj_g[mapping[order[b]]]
        else:
            cands = range(g.vertex_count)
        for hv in cands:
            if used[hv] or deg_g[hv] < len(adj_k[kv]):
                continue
            mapping[kv] = hv
            used[hv] = True
            extend(i + 1)
            mapping[kv] = -1
            used[hv] = False

    extend(0)
    per_vertex = [0] * g.vertex_count
    per_edge = {}
    for copy_edges in copies:
        for w in {x for e in copy_edges for x in e}:
            per_vertex[w] += 1
        for e in copy_edges:
            per_edge[e] = per_edge.get(e, 0) + 1
    m = min(per_vertex) if per_vertex else 0
    t = max(per_edge.values()) if per_edge else 0
    # every host edge, in edge order, with 0 where no copy passes
    per_edge = tuple(per_edge.get(e, 0) for e in g.edges())
    return CollectionStats(m, t, tuple(per_vertex), per_edge, len(copies))


def star_graph(leaves):
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a, b):
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


PATTERNS = {
    **{f"C{k}": cycle_graph(k) for k in range(3, 8)},
    **{f"P{k}": path_graph(k) for k in range(2, 6)},
    "K4": complete_graph(4),
    "K1,3": star_graph(3),
    "K2,3": complete_bipartite(2, 3),
}


def claim_instances():
    """The collection claim's 37 host/pattern pairs at n_max >= 9."""
    suite = [("K4/K3", complete_graph(4), complete_graph(3)),
             ("Petersen/C5", petersen_graph(), cycle_graph(5))]
    suite += [(f"A{n}/C5", build_associahedron(n), cycle_graph(5)) for n in range(5, 10)]
    for seed in range(10):
        g = random_regular_graph(20, 3, seed=seed)
        suite += [(f"rand{seed}/C{k}", g, cycle_graph(k)) for k in (3, 5, 7)]
    return suite


def automorphism_count(p):
    edges = set(p.edges())
    return sum(
        all((min(s[u], s[v]), max(s[u], s[v])) in edges for u, v in edges)
        for s in itertools.permutations(range(p.vertex_count))
    )


@pytest.fixture
def unconditioned(monkeypatch):
    """collection_stats without the symmetry conditions: it counts embeddings."""
    monkeypatch.setattr(bounds, "_symmetry_conditions", lambda adj, order: [])
    bounds._search_plan.cache_clear()
    yield collection_stats
    bounds._search_plan.cache_clear()


def test_collection_stats_matches_oracle_on_claim_instances():
    suite = claim_instances()
    assert len(suite) == 37
    for label, g, pat in suite:
        assert collection_stats(g, pat) == oracle_collection_stats(g, pat), label


@pytest.mark.parametrize(
    "n, k", [(10, 5)] + [(n, 6) for n in range(6, 10)]
)
def test_collection_stats_matches_oracle_on_flip_graphs(n, k):
    g = build_associahedron(n)
    assert collection_stats(g, cycle_graph(k)) == oracle_collection_stats(g, cycle_graph(k))


@st.composite
def small_hosts(draw):
    if draw(st.booleans()):
        nv = draw(st.integers(4, 15)) * 2
        d = draw(st.integers(2, 4))
        return random_regular_graph(nv, d, seed=draw(st.integers(0, 2**16)))
    nv = draw(st.integers(1, 30))
    pairs = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)).filter(lambda e: e[0] != e[1])
    return from_edges(nv, draw(st.lists(pairs, max_size=2 * nv)))


@settings(max_examples=60, deadline=None)
@given(small_hosts(), st.sampled_from(sorted(PATTERNS)))
def test_collection_stats_matches_oracle_on_random_hosts(g, name):
    pat = PATTERNS[name]
    assert collection_stats(g, pat) == oracle_collection_stats(g, pat)


@pytest.mark.parametrize("pat", list(PATTERNS.values()) + [petersen_graph(), complete_graph(12)])
def test_pattern_is_one_copy_of_itself(pat):
    st_ = collection_stats(pat, pat)
    assert st_.copy_count == 1
    assert st_.per_vertex == (1,) * pat.vertex_count


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_conditions_keep_one_embedding_per_automorphism_class(name, unconditioned):
    pat = PATTERNS[name]
    aut = automorphism_count(pat)
    for g in (pat, random_regular_graph(16, 4, seed=3), build_associahedron(7)):
        once = oracle_collection_stats(g, pat)
        every = unconditioned(g, pat)
        assert every.copy_count == aut * once.copy_count
        assert every.per_vertex == tuple(aut * c for c in once.per_vertex)
        assert every.per_edge == tuple(aut * c for c in once.per_edge)


def test_collection_stats_does_not_depend_on_the_split(monkeypatch):
    cases = [(build_associahedron(8), cycle_graph(5)), (random_regular_graph(20, 3, seed=4), cycle_graph(7)),
             (from_edges(7, [(0, 1), (1, 2), (3, 4)]), path_graph(2))]
    want = [collection_stats(g, p) for g, p in cases]
    monkeypatch.setattr(bounds, "_SPLIT_PAIRS", 1)
    assert [collection_stats(g, p) for g, p in cases] == want


def test_count_tallies_every_block():
    # three copies of K2 on C5 in two blocks; C5's edges are 0-1, 0-4, 1-2, 2-3, 3-4
    blocks = [np.array([[0, 1]]), np.array([[2, 1], [3, 4]])]
    assert bounds._count(cycle_graph(5), np.array([[0], [1]]), blocks) == CollectionStats(
        1, 1, (1, 2, 1, 1, 1), (1, 0, 1, 0, 1), 3
    )
    assert bounds._count(cycle_graph(5), np.array([[0], [1]]), []).copy_count == 0


@pytest.mark.parametrize(
    "host, copy",
    [
        # an unchecked lookup counted this non-edge on edge 0-4
        (cycle_graph(5), [0, 2]),
        # past the host's largest edge key, where the lookup runs off the end
        (from_edges(4, [(0, 1), (1, 2)]), [2, 3]),
    ],
)
def test_count_refuses_a_copy_edge_the_host_lacks(host, copy):
    # a program fault, not an input error: every caller hands over checked copies
    u, v = sorted(copy)
    want = rf"^copy edge \({u},{v}\) is not an edge of the host$"
    with pytest.raises(RuntimeError, match=want) as err:
        bounds._count(host, np.array([[0], [1]]), [np.array([copy])])
    assert not isinstance(err.value, InvalidInputError)


def test_edgeless_pattern_is_rejected():
    with pytest.raises(InvalidInputError, match="at least one edge"):
        collection_stats(cycle_graph(5), complete_graph(1))
    with pytest.raises(InvalidInputError, match="at least one edge"):
        collection_stats_from_copies(cycle_graph(5), complete_graph(1), [[0]])


def test_collection_stats_k4_triangles():
    st_ = collection_stats(complete_graph(4), complete_graph(3))
    assert (st_.m, st_.t, st_.copy_count) == (3, 2, 4)


def test_collection_stats_petersen_pentagons():
    st_ = collection_stats(petersen_graph(), cycle_graph(5))
    assert st_.copy_count == 12
    assert st_.m == 6 and st_.t == 4
    assert all(c == 6 for c in st_.per_vertex)


def test_collection_stats_petersen_has_no_c7():
    st_ = collection_stats(petersen_graph(), cycle_graph(7))
    assert st_.copy_count == 0 and st_.m == 0 and st_.t == 0


def test_per_edge_is_zero_where_no_copy_passes():
    assert collection_stats(petersen_graph(), cycle_graph(7)).per_edge == (0,) * 15
    # a 5-cycle with the pendant edge 4-5: edges (0,1) (0,4) (1,2) (2,3) (3,4) (4,5)
    g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5)])
    assert list(g.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4), (4, 5)]
    searched = collection_stats(g, cycle_graph(5))
    listed = collection_stats_from_copies(g, cycle_graph(5), [[0, 1, 2, 3, 4]])
    for st_ in (searched, listed):
        assert st_.per_edge == (1, 1, 1, 1, 1, 0)
        assert st_.per_vertex == (1, 1, 1, 1, 1, 0)
        assert (st_.m, st_.t, st_.copy_count) == (0, 1, 1)


def test_collection_stats_a7_pentagons():
    # per-vertex counts are n-6+t1, minimized by fans (t1 = 2)
    st_ = collection_stats(build_associahedron(7), cycle_graph(5))
    assert st_.m == 3
    assert st_.t <= 4


def test_theorem_bound_examples():
    assert theorem_bound(3, 2, -1.0, 3, 2) == -1.5
    assert dense_spectrum(complete_graph(4)).lambda_min >= -1.5
    pet = theorem_bound(3, 2, cycle_spectrum(5).lambda_min, 6, 4)
    assert abs(pet - (-3 + 4 * math.sin(math.pi / 10) ** 2 * 1.5)) < 1e-12
    assert dense_spectrum(petersen_graph()).lambda_min >= pet
    assert theorem_bound(3, 2, -1.0, 0, 5) == -3.0  # m = 0 is vacuous


def test_theorem_bound_validation():
    with pytest.raises(InvalidInputError):
        theorem_bound(3, 2, -1.0, 3, 0)
    with pytest.raises(InvalidInputError):
        theorem_bound(1, 2, -1.0, 3, 1)


def test_odd_cycle_bound_triangle_constant():
    # r = 1: 4 sin^2(pi/6) = 1 = k + lambda_min(K3)
    assert abs(odd_cycle_bound(3, 1, 1, 1) - (-2.0)) < 1e-12


@settings(max_examples=80)
@given(st.integers(1, 6), st.integers(1, 50), st.integers(1, 50), st.integers(3, 30))
def test_odd_cycle_matches_theorem_bound(r, m, t, d):
    if d < 2:
        return
    lam = cycle_spectrum(2 * r + 1).lambda_min
    assert abs(odd_cycle_bound(d, r, m, t) - theorem_bound(d, 2, lam, m, t)) < 1e-12


def test_assoc_lower_bound_values():
    assert abs(assoc_lower_bound(12) - (-8.2361)) < 1e-4
    assert abs(assoc_lower_bound(5) - (-1.9045)) < 1e-4


def test_assoc_lower_bound_equals_odd_cycle_form():
    for n in range(5, 51):
        assert abs(assoc_lower_bound(n) - odd_cycle_bound(n - 3, 2, n - 4, 4)) < 1e-12


def test_assoc_upper_bound_table_and_recursion():
    assert assoc_upper_bound(12) == -6.904
    assert assoc_upper_bound(22) <= -13.808 + 1e-12
    for n in range(22, 103, 10):
        assert assoc_upper_bound(n) <= -0.6904 * (n - 2) + 1e-9
    # the DP never loses to the fixed 12/10 split
    for n in range(13, 60):
        if n - 10 >= 4:
            assert assoc_upper_bound(n) <= -6.904 + assoc_upper_bound(n - 10) + 1e-12


def test_assoc_upper_bound_matches_the_recursion():
    @functools.cache
    def ub(n):
        if n <= 12:
            return LAMBDA_MIN_TABLE[n]
        return min(ub(k) + ub(n - k + 2) for k in range(4, n - 1))

    assert [assoc_upper_bound(n) for n in range(4, 301)] == [ub(n) for n in range(4, 301)]
    # the residue constants read the same table: the largest ub(n) - L n per class of n mod 10
    consts = {r: max(ub(n) - LIMIT_UPPER_CONSTANT * n for n in range(4, 301) if n % 10 == r)
              for r in range(10)}
    assert upper_bound_residue_constants(300) == consts


def test_bound_sandwich_on_computed_values(lambda_min_values):
    # lower closed form <= exact <= table upper bound (the table rounds up)
    for n in range(5, 13):
        lam = lambda_min_values[n]
        assert assoc_lower_bound(n) <= lam + 1e-9
        assert lam <= assoc_upper_bound(n) + 1e-9


def test_upper_bound_residue_constants():
    consts = upper_bound_residue_constants(150)
    assert set(consts) == set(range(10))
    assert abs(consts[2] - 1.3808) < 1e-9
    for n in range(4, 150):
        assert assoc_upper_bound(n) <= -0.6904 * n + consts[n % 10] + 1e-9


def test_hexagon_lower_bound():
    assert abs(assoc_hexagon_lower_bound(12) - (-8.7071)) < 1e-4
    assert abs(assoc_hexagon_lower_bound(6) - (-2.9582)) < 1e-4
    assert dense_spectrum(build_associahedron(6)).lambda_min >= assoc_hexagon_lower_bound(6)
    for n in range(6, 101):
        assert assoc_hexagon_lower_bound(n) < assoc_lower_bound(n)


def test_chromatic_lower_bound():
    assert abs(chromatic_lower_bound(10, -4.667) - 2.4999) < 1e-4
    assert abs(chromatic_lower_bound(5, -1.618) - 2.2361) < 1e-4
    assert chromatic_lower_bound(8, -5.0) == 2.0
    with pytest.raises(InvalidInputError):
        chromatic_lower_bound(6, 0.5)


def test_mixing_bounds():
    up, low = mixing_bounds(6, 2.0, 0.1)
    assert abs(up - 3 * math.log(140)) < 1e-12
    assert abs(low - 1.0) < 1e-12
    assert up >= low
    _, low0 = mixing_bounds(6, 0.0, 0.1)
    assert low0 == 0.0
    with pytest.raises(InvalidInputError):
        mixing_bounds(6, 3.0, 0.1)
    with pytest.raises(InvalidInputError):
        mixing_bounds(6, 2.0, 1.5)


def test_mixing_bounds_monotone_in_gap():
    uppers = [mixing_bounds(8, lam, 0.1)[0] for lam in (1.0, 2.0, 3.0, 4.0)]
    assert uppers == sorted(uppers)


def test_mixing_upper_dominates_lower():
    for n in range(5, 13):
        for lam_frac in (0.0, 0.3, 0.9, 0.999):
            for eps in (0.01, 0.1, 0.5):
                up, low = mixing_bounds(n, lam_frac * (n - 3), eps)
                assert up >= low


def test_limit_bracket():
    br = limit_bracket()
    assert abs(br.lower - (-(5 + math.sqrt(5)) / 8)) < 1e-12
    assert br.upper == -0.6904
    assert abs(min(LAMBDA_MIN_TABLE[n] / (n - 2) for n in range(4, 13)) - br.upper) < 1e-12
    assert set(br.ratios) == set(range(5, 13))
    for ratio in br.ratios.values():
        assert br.contains(ratio)
    assert br.contains(br.lower) and br.contains(br.upper)
    assert not br.contains(br.lower - 3 * SLACK)
    assert not br.contains(br.upper + 3 * SLACK)


def test_holds_allows_slack_and_no_more():
    assert holds(0.0, 0.0) and holds(-1.0, 0.0)
    assert holds(SLACK, 0.0)
    assert not holds(2 * SLACK, 0.0)
    assert not holds(1.0, 0.0)


def test_bound_report_judges_each_side_by_holds():
    # a lower bound holds below the exact value, up to SLACK and no more
    assert bound_report("low", -2.0, -1.0, n=5) == BoundReport("low", -2.0, -1.0, True, {"n": 5})
    assert bound_report("low", SLACK, 0.0).satisfied
    assert not bound_report("low", 2 * SLACK, 0.0).satisfied
    # an upper bound holds above it, with the same slack
    assert bound_report("up", 1.0, 0.0, upper=True).satisfied
    assert bound_report("up", 0.0, SLACK, upper=True).satisfied
    assert not bound_report("up", 0.0, 2 * SLACK, upper=True).satisfied
    # without an exact value the report is unjudged, or keeps the verdict given
    assert bound_report("free", 3.0, upper=True) == BoundReport("free", 3.0, None, None, {})
    assert bound_report("bracket", 0.5, satisfied=False).satisfied is False


def test_certify_collection_bound_tight_case():
    # the pentagon flip graph is itself a 5-cycle: the bound is exact
    rep = certify_collection_bound(build_associahedron(5), cycle_graph(5))
    assert rep.satisfied
    assert abs(rep.bound_value - rep.exact_value) < 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_certify_random_cubic_graphs(seed):
    g = random_regular_graph(20, 3, seed=seed)
    exact = dense_spectrum(g).lambda_min
    for pattern in (complete_graph(3), cycle_graph(5), cycle_graph(7)):
        rep = certify_collection_bound(g, pattern, exact_lambda_min=exact)
        assert rep.satisfied


def test_collection_stats_from_copies():
    g = build_associahedron(5)  # a 5-cycle
    adj = g.adjacency_sets()
    cyc = [0, next(iter(adj[0]))]
    while len(cyc) < 5:
        cyc.append(next(v for v in adj[cyc[-1]] if v != cyc[-2]))
    st_ = collection_stats_from_copies(g, cycle_graph(5), [cyc])
    assert (st_.m, st_.t, st_.copy_count) == (1, 1, 1)
    # the same subgraph listed twice collapses
    st2 = collection_stats_from_copies(g, cycle_graph(5), [cyc, list(reversed(cyc))])
    assert st2.copy_count == 1
    with pytest.raises(InvalidInputError):
        # 1 and 2 are not adjacent in the canonical indexing of this graph
        collection_stats_from_copies(g, cycle_graph(5), [[0, 1, 2, 3, 4]])


def test_collection_from_copies_checks_edges_without_adjacency_sets(monkeypatch):
    from flipspectra.flipgraph import Graph

    calls = []
    monkeypatch.setattr(Graph, "adjacency_sets", lambda self: calls.append(self) or [])
    g = build_associahedron(5)  # the 5-cycle 0-1-4-3-2
    st_ = collection_stats_from_copies(g, cycle_graph(5), [[0, 1, 4, 3, 2], [1, 4, 3, 2, 0]])
    assert (st_.m, st_.t, st_.copy_count) == (1, 1, 1)
    # the first pattern edge that misses, in pattern edge order, is named
    with pytest.raises(InvalidInputError) as err:
        collection_stats_from_copies(g, cycle_graph(5), [[0, 1, 4, 3, 2], [0, 1, 2, 3, 4]])
    assert str(err.value) == "copy [0, 1, 2, 3, 4] maps pattern edge (0,4) to the non-edge (0,4)"
    assert calls == []


def test_collection_from_copies_rejects_non_copy():
    p = petersen_graph()
    with pytest.raises(InvalidInputError):
        # outer vertices 0..4 in label order are a 5-cycle, but 0,1,2,3 plus
        # an inner vertex is not
        collection_stats_from_copies(p, cycle_graph(5), [[0, 1, 2, 3, 7]])


def five_cycles(g):
    """Every 5-cycle of g once, r-a-b-c-d from its least vertex r with a < d, by path search."""
    adj = g.adjacency_sets()
    found = []
    for r in range(g.vertex_count):
        for a in adj[r]:
            for b in adj[a] - {r}:
                for c in adj[b] - {r, a}:
                    for d in adj[c] & adj[r] - {a, b}:
                        if min(a, b, c, d) > r and a < d:
                            found.append([r, a, b, c, d])
    return found


@pytest.mark.parametrize("n", [8, 9, 10])
def test_listed_collection_equals_the_search(n):
    # every 5-cycle, listed, is tallied to the search's own statistics
    g = build_associahedron(n)
    cycles = five_cycles(g)
    searched = collection_stats(g, cycle_graph(5))
    assert len(cycles) == searched.copy_count
    assert collection_stats_from_copies(g, cycle_graph(5), cycles) == searched
    # the same subgraphs again, reversed and rotated, collapse to one copy each
    again = [c[::-1] for c in cycles] + [c[2:] + c[:2] for c in cycles]
    assert collection_stats_from_copies(g, cycle_graph(5), again + cycles) == searched


@pytest.mark.parametrize("eps", [2.0, 1.0, 0.0, -0.5, math.nan])
@pytest.mark.parametrize("lam2", [None, 4.383407])
def test_flipgraph_bound_reports_check_eps_first(eps, lam2):
    with pytest.raises(InvalidInputError, match=r"eps must lie in \(0, 1\)"):
        flipgraph_bound_reports(8, lam2=lam2, eps=eps)


def test_flipgraph_bound_reports():
    reports = flipgraph_bound_reports(8, lam_min=-3.912919, lam2=4.383407)
    names = {r.bound_name for r in reports}
    assert {"pentagon-collection-lower", "slice-upper", "hexagon-collection-lower",
            "chromatic-lower", "mixing-time-upper", "mixing-time-lower",
            "limit-ratio-bracket"} <= names
    assert all(r.satisfied is not False for r in reports)
