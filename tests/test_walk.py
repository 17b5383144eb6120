import math

import numpy as np
import pytest

from flipspectra.errors import InvalidInputError, RangeError
from flipspectra.flipgraph import build_associahedron, cycle_graph, from_edges, path_graph
from flipspectra.spectra import lambda_2
from flipspectra.walk import (
    aldous_test_function,
    dirichlet_quotient,
    gap_scan,
    simulate_walk,
)
from oracles import Triangulation, dual_tree, enumerate_objects, fan_triangulation


def test_walk_zero_steps_stays_put():
    g = cycle_graph(5)
    s = simulate_walk(g, 0, seed=1, start=2)
    assert s.counts == (0, 0, 1, 0, 0)
    assert s.return_count == 0


def test_walk_counts_sum():
    g = cycle_graph(5)
    s = simulate_walk(g, 999, seed=4)
    assert sum(s.counts) == 1000


def test_walk_is_bit_reproducible():
    g = build_associahedron(6)
    a = simulate_walk(g, 10_000, seed=7)
    b = simulate_walk(g, 10_000, seed=7)
    assert a == b


def test_walk_converges_to_uniform_on_c5():
    s = simulate_walk(cycle_graph(5), 100_000, seed=0, start=0)
    emp = np.asarray(s.counts) / (100_000 + 1)
    tv = 0.5 * float(np.abs(emp - 0.2).sum())
    assert tv < 0.05


def test_walk_frequencies_on_a6():
    g = build_associahedron(6)
    s = simulate_walk(g, 1_000_000, seed=0, start=0)
    total = 1_000_000 + 1
    p = 1.0 / 14.0
    sigma = math.sqrt(total * p * (1 - p))
    deviations = np.abs(np.asarray(s.counts) - total * p)
    assert float(deviations.max()) <= 3 * sigma


def test_walk_input_validation():
    disconnected = from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(InvalidInputError):
        simulate_walk(disconnected, 10, seed=0)
    with pytest.raises(InvalidInputError):
        simulate_walk(path_graph(3), 10, seed=0)  # not regular
    with pytest.raises(InvalidInputError):
        simulate_walk(cycle_graph(5), 10, seed=0, start=9)


def test_dirichlet_indicator_on_c5():
    # hand evaluation: 4 directed edges differ by 1 -> dirichlet 4/10;
    # variance of (1,0,0,0,0) is 0.16
    f = np.zeros(5)
    f[0] = 1.0
    rep = dirichlet_quotient(cycle_graph(5), f)
    assert abs(rep.dirichlet - 0.4) < 1e-12
    assert abs(rep.variance - 0.16) < 1e-12
    assert abs(rep.quotient - 2.5) < 1e-12
    assert abs(rep.gap_upper - 1.25) < 1e-12


def test_dirichlet_rejects_constant():
    with pytest.raises(InvalidInputError):
        dirichlet_quotient(cycle_graph(5), np.ones(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dirichlet_rejects_non_finite_values(bad):
    with pytest.raises(InvalidInputError, match="finite"):
        dirichlet_quotient(cycle_graph(5), [0.0, 1.0, bad, 1.0, 0.0])


def test_dirichlet_eigenvector_achieves_gap(assoc):
    for n in (6, 7, 8):
        g = assoc(n)
        vals, vecs = np.linalg.eigh(g.dense_adjacency())
        rep = dirichlet_quotient(g, vecs[:, -2])
        gap = 1.0 - vals[-2] / (n - 3)
        assert abs(rep.gap_upper - gap) < 1e-8


def test_dirichlet_variational_upper_bound(assoc):
    # any non-constant function gives a quotient at least twice the gap
    g = assoc(7)
    lam2 = lambda_2(g).value
    gap = 1.0 - lam2 / 4.0
    rng = np.random.default_rng(2)
    for _ in range(25):
        f = rng.standard_normal(g.vertex_count)
        rep = dirichlet_quotient(g, f)
        assert rep.gap_upper >= gap - 1e-8


def central_triangle(t: Triangulation) -> tuple[int, int, int]:
    """Triangle at a centroid of the dual tree, by subtree sizes.

    A centroid node leaves components of at most (n-2)/2 nodes when
    removed; ties break toward the lexicographically smallest triple.
    """
    dt = dual_tree(t)
    nn = dt.node_count
    if nn == 1:
        return dt.triangles[0]
    adj = [[] for _ in range(nn)]
    for i, j in dt.adjacency:
        adj[i].append(j)
        adj[j].append(i)
    parent = [-1] * nn
    order = []
    stack = [0]
    seen = [False] * nn
    seen[0] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                stack.append(u)
    size = [1] * nn
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    best_val = None
    best_tri = None
    for v in range(nn):
        worst = nn - size[v]
        for u in adj[v]:
            if u != parent[v]:
                worst = max(worst, size[u])
        key = (worst, dt.triangles[v])
        if best_val is None or key < best_val:
            best_val = key
            best_tri = dt.triangles[v]
    return best_tri


def oracle_aldous_test_function(n: int) -> np.ndarray:
    """The Aldous test function through validated triangulations and dual trees."""
    p = n // 4
    return np.array([
        min(min(abs(a - p), n - abs(a - p)) for a in central_triangle(t))
        for t in enumerate_objects(n)
    ], dtype=float)


def test_central_triangle_examples():
    star = Triangulation(6, ((1, 3), (3, 5), (1, 5)))
    assert central_triangle(star) == (1, 3, 5)
    assert central_triangle(fan_triangulation(6)) == (1, 3, 4)
    assert central_triangle(Triangulation(4, ((1, 3),))) in ((1, 2, 3), (1, 3, 4))


def test_central_triangle_is_a_centroid():
    # removing the chosen node leaves components of size at most (n-2)/2
    for t in enumerate_objects(8):
        chosen = central_triangle(t)
        dt = dual_tree(t)
        idx = dt.triangles.index(chosen)
        adj = {i: set() for i in range(dt.node_count)}
        for i, j in dt.adjacency:
            adj[i].add(j)
            adj[j].add(i)
        seen = {idx}
        comps = []
        for root in adj[idx]:
            if root in seen:
                continue
            size = 0
            stack = [root]
            seen.add(root)
            while stack:
                v = stack.pop()
                size += 1
                for u in adj[v]:
                    if u not in seen and u != idx:
                        seen.add(u)
                        stack.append(u)
            comps.append(size)
        assert max(comps) <= (t.n - 2) / 2


def test_aldous_function_range_and_nonconstant():
    for n in (8, 9):
        f = aldous_test_function(n)
        assert f.min() >= 0 and f.max() <= n // 2
        assert f.max() > f.min()
        assert np.allclose(f, np.round(f))  # cyclic distances are integers


def test_aldous_needs_n_at_least_6(monkeypatch):
    with pytest.raises(InvalidInputError):
        aldous_test_function(5)
    monkeypatch.setenv("FLIPSPECTRA_MAX_N", "8")
    with pytest.raises(RangeError):
        aldous_test_function(9)


@pytest.mark.parametrize("n", range(6, 12))
def test_aldous_function_matches_dual_tree_oracle(n):
    assert np.array_equal(aldous_test_function(n), oracle_aldous_test_function(n))


def test_gap_scan_rows(lambda_2_values):
    rows = gap_scan([6, 8])
    assert [r[0] for r in rows] == [6, 8]
    for n, lam2, c in rows:
        assert abs(lam2 - lambda_2_values[n]) < 1e-8
        assert abs(c - (n - 3 - lam2) * math.sqrt(n)) < 1e-12
    c6 = rows[0][2]
    assert abs(c6 - math.sqrt(6)) < 1e-6  # lambda_2 = 2 exactly at n = 6
