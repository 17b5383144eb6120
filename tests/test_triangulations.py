import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipspectra.errors import InvalidInputError, RangeError
from flipspectra.triangulations import (
    catalan,
    enumerate_triangulations,
    polygon_regions,
    validate_diagonal,
)
from flipspectra.triangulations import _diagonal_ids, _id_rows
from oracles import (
    NotPresentError,
    Triangulation,
    crosses,
    dual_tree,
    ear_count,
    enumerate_objects,
    fan_triangulation,
    flip,
    neighbors,
    triangles_of,
)


def oracle_diagonal_sets(m, memo=None):
    """Diagonal sets of all triangulations of the polygon 0..m-1, as tuples.

    The same closing-side recursion as the array enumeration, on Python
    tuples: choose the apex k of the triangle on (0, m-1) and pair every
    triangulation of the polygon 0..k with every one of k..m-1.
    """
    if m < 3:
        return ((),)
    memo = {} if memo is None else memo
    if m not in memo:
        out = []
        for k in range(1, m - 1):
            closing = ()
            if k >= 2:
                closing += ((0, k),)
            if m - 1 - k >= 2:
                closing += ((k, m - 1),)
            right = [
                tuple((i + k, j + k) for i, j in ds) for ds in oracle_diagonal_sets(m - k, memo)
            ]
            for left in oracle_diagonal_sets(k + 1, memo):
                for shifted in right:
                    out.append(left + shifted + closing)
        memo[m] = tuple(out)
    return memo[m]


def test_catalan_values():
    assert [catalan(m) for m in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert catalan(10) == math.comb(20, 10) // 11 == 16796


def test_crosses_examples():
    assert crosses((1, 3), (2, 4), n=6)
    assert not crosses((1, 3), (3, 5), n=6)
    assert crosses((1, 4), (2, 6), n=6)  # 1 < 2 < 4 < 6 interleave
    assert not crosses((2, 4), (2, 6))


def test_crosses_validates_against_n():
    with pytest.raises(InvalidInputError):
        crosses((1, 2), (2, 4), n=6)  # (1,2) is a side
    with pytest.raises(InvalidInputError):
        crosses((1, 6), (2, 4), n=6)  # (1,6) is the closing side
    with pytest.raises(InvalidInputError):
        crosses((1, 7), (2, 4), n=6)  # label out of range


@given(
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
)
def test_crosses_is_symmetric(d1, d2):
    if d1[0] == d1[1] or d2[0] == d2[1]:
        return
    assert crosses(d1, d2) == crosses(d2, d1)


def test_validate_diagonal_normalizes():
    assert validate_diagonal(6, (4, 1)) == (1, 4)
    with pytest.raises(InvalidInputError):
        validate_diagonal(6, (3, 3))


def test_triangulation_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        Triangulation(6, ((1, 3),))  # wrong count
    with pytest.raises(InvalidInputError):
        Triangulation(6, ((1, 3), (2, 4), (1, 4)))  # (1,3) x (2,4)
    with pytest.raises(InvalidInputError):
        Triangulation(6, ((1, 3), (1, 3), (1, 4)))  # duplicate


def test_triangulation_is_canonical():
    t = Triangulation(6, ((5, 1), (4, 1), (3, 1)))
    assert t.diagonals == ((1, 3), (1, 4), (1, 5))
    assert t.code() == "1-3,1-4,1-5"
    assert Triangulation.from_code(6, t.code()) == t


@pytest.mark.parametrize("n,count", [(4, 2), (5, 5), (6, 14), (9, 429), (12, 16796)])
def test_enumeration_counts(n, count):
    ts = enumerate_triangulations(n)
    assert len(ts) == count == catalan(n - 2)


def test_enumeration_codes_distinct_and_sorted():
    for n in (5, 6, 7, 8):
        ts = enumerate_objects(n)
        codes = [t.diagonals for t in ts]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)


def test_enumeration_is_deterministic():
    assert enumerate_triangulations(7) == enumerate_triangulations(7)


@pytest.mark.parametrize("n", range(3, 13))
def test_id_rows_match_tuple_oracle(n):
    _, lookup = _diagonal_ids(n)
    want = sorted(tuple(sorted(int(lookup[i, j]) for i, j in ds)) for ds in oracle_diagonal_sets(n))
    rows = _id_rows(n)
    assert rows.dtype == np.uint8 and rows.shape == (catalan(n - 2), n - 3)
    assert not rows.flags.writeable
    assert rows.tolist() == [list(r) for r in want]


@pytest.mark.parametrize("n", range(3, 13))
def test_enumeration_matches_tuple_oracle(monkeypatch, n):
    want = sorted(
        (Triangulation(n, tuple((i + 1, j + 1) for i, j in ds)) for ds in oracle_diagonal_sets(n)),
        key=lambda t: t.diagonals,
    )
    monkeypatch.setenv("FLIPSPECTRA_MAX_N", str(n))
    assert enumerate_triangulations(n) == tuple(t.code() for t in want)


def test_enumeration_range_errors(monkeypatch):
    with pytest.raises(RangeError):
        enumerate_triangulations(2)
    with pytest.raises(RangeError):
        enumerate_triangulations(15)  # above the default cap
    monkeypatch.setenv("FLIPSPECTRA_MAX_N", "10")
    with pytest.raises(RangeError):
        enumerate_triangulations(12)


def test_enumeration_cap_env_override(monkeypatch):
    monkeypatch.setenv("FLIPSPECTRA_MAX_N", "5")
    assert len(enumerate_triangulations(5)) == 5
    with pytest.raises(RangeError):
        enumerate_triangulations(6)
    monkeypatch.delenv("FLIPSPECTRA_MAX_N")
    assert len(enumerate_triangulations(6)) == 14


@pytest.mark.parametrize("value", ["abc", "12.0", "1e3", "-"])
def test_malformed_cap_is_input_error(monkeypatch, value):
    monkeypatch.setenv("FLIPSPECTRA_MAX_N", value)
    with pytest.raises(InvalidInputError) as exc:
        enumerate_triangulations(5)
    assert str(exc.value) == f"FLIPSPECTRA_MAX_N must be an integer, got {value!r}"


def test_empty_cap_means_the_default(monkeypatch):
    monkeypatch.setenv("FLIPSPECTRA_MAX_N", "")
    assert len(enumerate_triangulations(6)) == 14
    with pytest.raises(RangeError, match=r"range 3\.\.14$"):
        enumerate_triangulations(15)


def test_flip_square():
    t = Triangulation(4, ((1, 3),))
    new, t2 = flip(t, (1, 3))
    assert new == (2, 4)
    assert t2.diagonals == ((2, 4),)


def test_flip_pentagon():
    t = Triangulation(5, ((1, 3), (1, 4)))
    new, t2 = flip(t, (1, 3))
    assert new == (2, 4)
    assert t2.diagonals == ((1, 4), (2, 4))


def test_flip_missing_diagonal():
    t = Triangulation(5, ((1, 3), (1, 4)))
    with pytest.raises(NotPresentError):
        flip(t, (2, 5))


def test_flip_involution_exhaustive_n6():
    for t in enumerate_objects(6):
        for d in t.diagonals:
            new, t2 = flip(t, d)
            back, t3 = flip(t2, new)
            assert back == d
            assert t3 == t


@settings(max_examples=60)
@given(st.integers(4, 8), st.data())
def test_flip_shares_all_but_one_diagonal(n, data):
    ts = enumerate_objects(n)
    t = ts[data.draw(st.integers(0, len(ts) - 1))]
    d = t.diagonals[data.draw(st.integers(0, len(t.diagonals) - 1))]
    _, t2 = flip(t, d)
    assert len(set(t.diagonals) & set(t2.diagonals)) == n - 4


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_neighbors_regularity(n, ):
    for t in enumerate_objects(n):
        nbrs = neighbors(t)
        assert len(nbrs) == n - 3
        assert len(set(nbrs)) == n - 3
        assert all(nb != t for nb in nbrs)


def test_neighbors_square():
    t = Triangulation(4, ((1, 3),))
    assert neighbors(t) == [Triangulation(4, ((2, 4),))]


def test_triangle_decomposition_sizes():
    for n in (4, 5, 6, 7, 8):
        for t in enumerate_objects(n):
            assert len(triangles_of(t)) == n - 2


def test_dual_tree_shapes():
    for t in enumerate_objects(5):
        assert sorted(dual_tree(t).degrees) == [1, 1, 2]
    fan = fan_triangulation(6)
    assert sorted(dual_tree(fan).degrees) == [1, 1, 2, 2]  # path on 4 nodes
    star = Triangulation(6, ((1, 3), (3, 5), (1, 5)))
    assert sorted(dual_tree(star).degrees) == [1, 1, 1, 3]


def test_dual_tree_degree_identities():
    # t3 = t1 - 2 and t2 = n - 2 t1 for every triangulation
    for n in (5, 6, 7, 8):
        for t in enumerate_objects(n):
            deg = dual_tree(t).degrees
            t1, t2, t3 = deg.count(1), deg.count(2), deg.count(3)
            assert t1 + t2 + t3 == n - 2
            assert t3 == t1 - 2
            assert t2 == n - 2 * t1


def test_dual_tree_is_connected_and_acyclic():
    for n in (5, 6, 7):
        for t in enumerate_objects(n):
            dt = dual_tree(t)
            assert len(dt.adjacency) == dt.node_count - 1
            reached = {0}
            frontier = [0]
            adj = {i: [] for i in range(dt.node_count)}
            for i, j in dt.adjacency:
                adj[i].append(j)
                adj[j].append(i)
            while frontier:
                v = frontier.pop()
                for u in adj[v]:
                    if u not in reached:
                        reached.add(u)
                        frontier.append(u)
            assert len(reached) == dt.node_count


def test_ear_count_examples():
    assert all(ear_count(t) == 2 for t in enumerate_objects(5))
    assert ear_count(Triangulation(6, ((1, 3), (3, 5), (1, 5)))) == 3
    assert ear_count(fan_triangulation(6)) == 2


def test_polygon_regions_whole_and_split():
    assert polygon_regions(6, []) == [(1, 2, 3, 4, 5, 6)]
    assert polygon_regions(6, [(2, 5)]) == [(1, 2, 5, 6), (2, 3, 4, 5)]


def test_polygon_regions_match_triangle_decomposition():
    for n in (5, 6, 7):
        for t in enumerate_objects(n):
            assert polygon_regions(n, t.diagonals) == sorted(triangles_of(t))
