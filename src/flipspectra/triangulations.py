"""Triangulations of a convex polygon: enumeration, flips, and dual trees.

Polygon vertices are labeled 1..n clockwise.  A diagonal is a normalized
pair (i, j) with i < j and j - i >= 2, excluding the closing side (1, n).
A triangulation of the n-gon consists of n - 3 pairwise non-crossing
diagonals; the sorted diagonal tuple doubles as the canonical code, so two
triangulations are equal exactly when their codes are equal.

Enumeration works on arrays: every triangulation is one row of ascending
uint8 diagonal ids (``_id_rows``), which the flip graph and the census read
directly; ``enumerate_triangulations`` turns the rows into objects.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import CapacityError, InvalidInputError, NotPresentError, RangeError

Diagonal = tuple[int, int]

MAX_N_DEFAULT = 14
MAX_N_ENV = "FLIPSPECTRA_MAX_N"


def max_polygon(override: int | None = None) -> int:
    """Largest polygon size enumeration will accept.

    Resolution order: explicit override, the FLIPSPECTRA_MAX_N environment
    variable, then the built-in default of 14 (208012 triangulations).
    """
    if override is not None:
        return int(override)
    env = os.environ.get(MAX_N_ENV)
    return int(env) if env else MAX_N_DEFAULT


def _check_range(n: int, max_n: int | None) -> None:
    limit = max_polygon(max_n)
    if n < 3 or n > limit:
        raise RangeError(f"n={n} outside the supported range 3..{limit}")


def catalan(m: int) -> int:
    """m-th Catalan number; counts triangulations of an (m+2)-gon."""
    if m < 0:
        raise InvalidInputError(f"catalan undefined for m={m}")
    return math.comb(2 * m, m) // (m + 1)


def normalize_diagonal(d: Iterable[int]) -> Diagonal:
    i, j = d
    return (i, j) if i < j else (j, i)


def validate_diagonal(n: int, d: Iterable[int]) -> Diagonal:
    """Normalize d to (i, j) with i < j and check it is a chord of the n-gon."""
    i, j = normalize_diagonal(d)
    if not (1 <= i < j <= n):
        raise InvalidInputError(f"endpoints {tuple(d)} not distinct labels in 1..{n}")
    if j - i < 2 or (i, j) == (1, n):
        raise InvalidInputError(f"{(i, j)} is a side of the {n}-gon, not a diagonal")
    return (i, j)


def crosses(d1: Iterable[int], d2: Iterable[int], n: int | None = None) -> bool:
    """True iff the two diagonals strictly interleave on the circle.

    Diagonals sharing an endpoint never cross.  When ``n`` is given, both
    arguments are validated as diagonals of the same n-gon first.
    """
    if n is not None:
        d1 = validate_diagonal(n, d1)
        d2 = validate_diagonal(n, d2)
    a, b = normalize_diagonal(d1)
    c, d = normalize_diagonal(d2)
    if len({a, b, c, d}) < 4:
        return False
    return a < c < b < d or c < a < d < b


@dataclass(frozen=True)
class Triangulation:
    """A maximal set of non-crossing diagonals of the labeled n-gon.

    The constructor normalizes and sorts the diagonals and rejects anything
    that is not a valid triangulation, so every instance is canonical.
    """

    n: int
    diagonals: tuple[Diagonal, ...]

    def __post_init__(self):
        n = self.n
        if n < 3:
            raise InvalidInputError("polygon needs at least 3 vertices")
        diags = tuple(sorted(validate_diagonal(n, d) for d in self.diagonals))
        if len(set(diags)) != len(diags):
            raise InvalidInputError("duplicate diagonals")
        if len(diags) != n - 3:
            raise InvalidInputError(
                f"a triangulation of the {n}-gon has {n - 3} diagonals, got {len(diags)}"
            )
        for x in range(len(diags)):
            a, b = diags[x]
            for y in range(x + 1, len(diags)):
                c, d = diags[y]
                if a < c < b < d or c < a < d < b:
                    raise InvalidInputError(f"diagonals {diags[x]} and {diags[y]} cross")
        object.__setattr__(self, "diagonals", diags)

    def code(self) -> str:
        """Canonical text form, e.g. '1-3,1-4,1-5'."""
        return ",".join(f"{i}-{j}" for i, j in self.diagonals)

    @staticmethod
    def from_code(n: int, text: str) -> "Triangulation":
        text = text.strip()
        if not text:
            return Triangulation(n, ())
        diags = []
        for part in text.split(","):
            i, _, j = part.partition("-")
            diags.append((int(i), int(j)))
        return Triangulation(n, tuple(diags))


def fan_triangulation(n: int, apex: int = 1) -> Triangulation:
    """All diagonals from one vertex; its dual tree is a path."""
    if not 1 <= apex <= n:
        raise InvalidInputError(f"apex {apex} not a vertex of the {n}-gon")
    diags = []
    for off in range(2, n - 1):
        v = (apex - 1 + off) % n + 1
        diags.append(normalize_diagonal((apex, v)))
    return Triangulation(n, tuple(diags))


@lru_cache(maxsize=32)
def _diagonal_ids(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(ends, lookup) for the diagonals of the n-gon, numbered in lexicographic order.

    ends[d] holds the 0-based endpoints of diagonal d, and lookup[i, j] the
    id of the diagonal with 0-based endpoints i < j.  Ids are uint8.
    """
    if n * (n - 3) // 2 > 256:
        raise CapacityError(f"the {n}-gon has more diagonals than uint8 ids can number")
    ends = np.array(
        [(i, j) for i in range(n - 2) for j in range(i + 2, n) if (i, j) != (0, n - 1)],
        dtype=np.intp,
    ).reshape(-1, 2)
    lookup = np.zeros((n, n), dtype=np.uint8)
    lookup[ends[:, 0], ends[:, 1]] = np.arange(len(ends))
    ends.flags.writeable = lookup.flags.writeable = False
    return ends, lookup


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of ascending uint8 ids as one byte string, ordered like the rows.

    The bytes dtype drops trailing zero bytes, which merges no two rows:
    id 0 can only come first in an ascending row.
    """
    return rows.view(f"S{rows.shape[1]}").ravel()


def _endpoint_blocks(m: int, memo: dict) -> np.ndarray:
    """Diagonal endpoints of all triangulations of the polygon 0..m-1, shape (C, m-3, 2).

    Recursion on the triangle containing the closing side (0, m-1): choose
    its apex k and pair every triangulation of the left polygon 0..k with
    every one of the right polygon k..m-1.  Each diagonal is written once,
    by the call whose closing side it cuts.  Sub-polygon blocks are shared
    through ``memo``, which the top-level caller starts empty.
    """
    if m < 3:
        return np.zeros((1, 0, 2), dtype=np.uint8)
    if m not in memo:
        parts = []
        for k in range(1, m - 1):
            left = _endpoint_blocks(k + 1, memo)
            right = _endpoint_blocks(m - k, memo) + np.uint8(k)
            block = np.empty((len(left) * len(right), m - 3, 2), dtype=np.uint8)
            wl, wr = left.shape[1], right.shape[1]
            block[:, :wl] = np.repeat(left, len(right), axis=0)
            block[:, wl : wl + wr] = np.tile(right, (len(left), 1, 1))
            # the closing diagonals 0-k and k-(m-1), where they are not sides
            if k >= 2:
                block[:, wl + wr] = (0, k)
            if m - 1 - k >= 2:
                block[:, -1] = (k, m - 1)
            parts.append(block)
        memo[m] = np.concatenate(parts)
    return memo[m]


@lru_cache(maxsize=32)
def _id_rows(n: int) -> np.ndarray:
    """All triangulations of the n-gon as rows of ascending uint8 diagonal ids.

    This defines the canonical vertex order: rows ascend as byte strings
    (``_row_keys``), and since ids follow the lexicographic order of the
    diagonals, that is the order of the sorted diagonal tuples too.  The
    range of n is the caller's to check; the id guard comes before any
    enumeration.
    """
    _, lookup = _diagonal_ids(n)
    ends = _endpoint_blocks(n, {})
    rows = lookup[ends[..., 0], ends[..., 1]]
    rows.sort(axis=1)
    if n > 3:  # the triangle's one empty row needs no order
        rows = rows[np.argsort(_row_keys(rows))]
    rows.flags.writeable = False
    return rows


def enumerate_triangulations(n: int, max_n: int | None = None) -> list[Triangulation]:
    """All triangulations of the n-gon, in canonical order.

    Triangulation i is row i of ``_id_rows(n)``, which is vertex i of the
    flip graph; the list has exactly catalan(n - 2) elements, sorted by
    their diagonal tuples.
    """
    _check_range(n, max_n)
    ends, _ = _diagonal_ids(n)
    return [
        Triangulation(n, tuple(map(tuple, ds))) for ds in (ends + 1)[_id_rows(n)].tolist()
    ]


def _edge_set(t: Triangulation) -> set[Diagonal]:
    es = {(i, i + 1) for i in range(1, t.n)}
    es.add((1, t.n))
    es.update(t.diagonals)
    return es


def flip(t: Triangulation, d: Iterable[int]) -> tuple[Diagonal, Triangulation]:
    """Replace diagonal d by the opposite chord of its surrounding quadrilateral.

    Returns (new_diagonal, new_triangulation).  Flipping the returned
    diagonal in the result recovers the original triangulation.
    """
    d = normalize_diagonal(d)
    if d not in t.diagonals:
        raise NotPresentError(f"{d} is not a diagonal of {t.code()!r}")
    edges = _edge_set(t)
    a, b = d
    apexes = [
        c
        for c in range(1, t.n + 1)
        if c != a
        and c != b
        and (min(a, c), max(a, c)) in edges
        and (min(b, c), max(b, c)) in edges
    ]
    assert len(apexes) == 2, "a diagonal bounds exactly two triangles"
    q = sorted((a, b, apexes[0], apexes[1]))
    # the quadrilateral's chords are (q0, q2) and (q1, q3); d is one of them
    new = (q[1], q[3]) if d == (q[0], q[2]) else (q[0], q[2])
    rest = tuple(dd for dd in t.diagonals if dd != d)
    return new, Triangulation(t.n, rest + (new,))


def neighbors(t: Triangulation) -> list[Triangulation]:
    """The n - 3 triangulations one flip away, in diagonal order."""
    return [flip(t, d)[1] for d in t.diagonals]


def triangles_of(t: Triangulation) -> list[tuple[int, int, int]]:
    """The n - 2 triangles of the decomposition, as sorted vertex triples.

    In a convex polygon every 3-clique of the side-plus-diagonal edge set is
    a face, so scanning cliques recovers exactly the triangle list.
    """
    edges = _edge_set(t)
    n = t.n
    tris = []
    for a in range(1, n - 1):
        for b in range(a + 1, n + 1):
            if (a, b) not in edges:
                continue
            for c in range(b + 1, n + 1):
                if (a, c) in edges and (b, c) in edges:
                    tris.append((a, b, c))
    return tris


@dataclass(frozen=True)
class DualTree:
    """Tree on the triangles of a triangulation; adjacency = shared diagonal.

    node_count is n - 2, every degree is 1, 2 or 3, and the degree counts
    satisfy t3 = t1 - 2 and t2 = n - 2*t1.
    """

    node_count: int
    triangles: tuple[tuple[int, int, int], ...]
    adjacency: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]


def dual_tree(t: Triangulation) -> DualTree:
    tris = triangles_of(t)
    sets = [set(tr) for tr in tris]
    edges = []
    deg = [0] * len(tris)
    for i in range(len(tris)):
        for j in range(i + 1, len(tris)):
            if len(sets[i] & sets[j]) == 2:
                edges.append((i, j))
                deg[i] += 1
                deg[j] += 1
    return DualTree(len(tris), tuple(tris), tuple(edges), tuple(deg))


def ear_count(t: Triangulation) -> int:
    """Number of triangles with two polygon sides (leaves of the dual tree)."""
    return dual_tree(t).degrees.count(1)


def polygon_regions(n: int, diagonals: Iterable[Iterable[int]]) -> list[tuple[int, ...]]:
    """Faces cut out of the n-gon by a set of pairwise non-crossing diagonals.

    Each face is returned as the ascending tuple of its vertex labels
    (ascending label order is a cyclic order on a convex polygon).  The
    input must be non-crossing; this is not re-checked here.
    """
    diags = sorted({validate_diagonal(n, d) for d in diagonals})

    def split(cycle: list[int], ds: list[Diagonal]) -> list[tuple[int, ...]]:
        if not ds:
            return [tuple(cycle)]
        a, b = ds[0]
        inner = [v for v in cycle if a <= v <= b]
        outer = [v for v in cycle if v <= a or v >= b]
        inner_ds, outer_ds = [], []
        for c, d in ds[1:]:
            if a <= c and d <= b:
                inner_ds.append((c, d))
            else:
                outer_ds.append((c, d))
        return split(inner, inner_ds) + split(outer, outer_ds)

    return sorted(split(list(range(1, n + 1)), diags))
