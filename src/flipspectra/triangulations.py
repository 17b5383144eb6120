"""Triangulations of a convex polygon, as rows of diagonal ids.

Polygon vertices are labeled 1..n clockwise.  A diagonal is a normalized
pair (i, j) with i < j and j - i >= 2, excluding the closing side (1, n).
A triangulation of the n-gon consists of n - 3 pairwise non-crossing
diagonals; its canonical code lists them sorted, e.g. '1-3,1-4,1-5'.

The encoding is defined here: every triangulation is one row of
ascending uint8 diagonal ids (``_id_rows``), which the flip graph and the
census read directly.  ``_row_index`` finds
rows among them, ``_pair_ids`` numbers chords, and
``enumerate_triangulations`` turns the rows into codes.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import CapacityError, InvalidInputError, RangeError

Diagonal = tuple[int, int]

MAX_N_DEFAULT = 14
MAX_N_ENV = "FLIPSPECTRA_MAX_N"


def _check_range(n: int) -> None:
    """Reject n outside 3..$FLIPSPECTRA_MAX_N, the one polygon-size cap (14 if unset or empty)."""
    value = os.environ.get(MAX_N_ENV) or MAX_N_DEFAULT
    try:
        limit = int(value)
    except ValueError:
        raise InvalidInputError(f"{MAX_N_ENV} must be an integer, got {value!r}") from None
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


def _pair_ids(n: int, x, y):
    """Id of the diagonal xy of the n-gon, for 0-based endpoints in either order.

    Elementwise on arrays; a side of the polygon has no id and reads as 0.
    """
    return _diagonal_ids(n)[1][np.minimum(x, y), np.maximum(x, y)]


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


def _row_index(m: int, rows: np.ndarray) -> np.ndarray:
    """Index in _id_rows(m) of each row of diagonal ids of the m-gon.

    Sorts the rows in place first.
    """
    if rows.shape[1] == 0:  # the triangle's one triangulation
        return np.zeros(len(rows), dtype=np.int64)
    rows.sort(axis=1)
    return np.searchsorted(_row_keys(_id_rows(m)), _row_keys(rows))


def _codes(n: int) -> tuple[str, ...]:
    """The code of each row of _id_rows(n), in row order; no range check."""
    ends, _ = _diagonal_ids(n)
    names = np.array([f"{i + 1}-{j + 1}" for i, j in ends.tolist()], dtype=object)
    return tuple(map(",".join, names[_id_rows(n)].tolist()))


def enumerate_triangulations(n: int) -> tuple[str, ...]:
    """The code of every triangulation of the n-gon, in canonical order.

    Code i is row i of ``_id_rows(n)``, which is vertex i of the flip
    graph; there are exactly catalan(n - 2), sorted by their diagonal
    tuples.  The flip graph's ``labels`` are the same tuple.
    """
    _check_range(n)
    return _codes(n)


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
