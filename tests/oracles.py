"""Reference implementations the tests check the library against.

The library encodes a triangulation as one row of diagonal ids
(``flipspectra.triangulations``).  Here a triangulation is a frozen object
that validates itself on construction, and flips, triangles and dual
trees are computed one triangulation at a time, by direct geometry.
These routes are slow and independent of the array code, which is what
makes them oracles.

The graphs, the cycle spectrum and the odd-cycle bound at the end serve
only the tests: closed forms that the library's general routes are
checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from flipspectra.errors import InvalidInputError
from flipspectra.flipgraph import Graph, complete_graph, from_edges
from flipspectra.spectra import Spectrum
from flipspectra.triangulations import (
    Diagonal,
    enumerate_triangulations,
    normalize_diagonal,
    validate_diagonal,
)


class NotPresentError(InvalidInputError):
    """A referenced element is absent from its container."""


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
        for x, y in combinations(diags, 2):
            if crosses(x, y):
                raise InvalidInputError(f"diagonals {x} and {y} cross")
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


def enumerate_objects(n: int) -> list[Triangulation]:
    """Every triangulation of the n-gon as an object, in the library's vertex order."""
    return [Triangulation.from_code(n, code) for code in enumerate_triangulations(n)]


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


def path_graph(m: int) -> Graph:
    if m < 1:
        raise InvalidInputError("path needs at least 1 vertex")
    return from_edges(m, [(i, i + 1) for i in range(m - 1)])


def single_vertex() -> Graph:
    return complete_graph(1)


def cycle_spectrum(m: int) -> Spectrum:
    """Spectrum of the m-cycle: {2 cos(2 pi j / m)}.

    For odd m = 2r+1 the smallest value satisfies
    2 + lambda_min = 4 sin^2(pi / (4r+2)).
    """
    if m < 3:
        raise InvalidInputError("cycle needs at least 3 vertices")
    vals = 2.0 * np.cos(2.0 * np.pi * np.arange(m) / m)
    return Spectrum(np.sort(vals)[::-1].copy())


def odd_cycle_bound(d: int, r: int, m: int, t: int) -> float:
    """Odd-cycle specialization of the collection bound: -d + 4 sin^2(pi/(4r+2)) * m / t."""
    if r < 1:
        raise InvalidInputError("need r >= 1")
    if t < 1:
        raise InvalidInputError("need t >= 1")
    if m < 0:
        raise InvalidInputError("need m >= 0")
    return -d + 4.0 * math.sin(math.pi / (4 * r + 2)) ** 2 * m / t
