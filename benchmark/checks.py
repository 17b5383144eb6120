"""Correctness checks computed apart from flipspectra.

Nothing here calls the program's solvers, bounds or validators.  The flip
graph is judged only from its labels and its CSR arrays; eigenvalues are
recomputed with scipy on that CSR; the paper's closed-form lower bound is
written out below.  Each check returns a list of error strings (empty when
the output is correct).
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

# below this many vertices the reference solver is a full dense eigh
DENSE_REFERENCE_LIMIT = 600


def paper_lower_bound(n: int) -> float:
    """lambda_min of the n-gon flip graph >= -(5+sqrt5)/8 (n-3) - (3-sqrt5)/8."""
    s5 = math.sqrt(5.0)
    return -(5.0 + s5) / 8.0 * (n - 3) - (3.0 - s5) / 8.0


# ---------------------------------------------------------------------------
# flip graph from labels and CSR


def _parse_labels(n: int, labels) -> np.ndarray:
    """(V, n-3, 2) array of diagonal endpoints; raises ValueError on a bad code."""
    rows = []
    for code in labels:
        rows.append([tuple(int(x) for x in part.split("-")) for part in code.split(",")] if code else [])
        if len(rows[-1]) != n - 3:
            raise ValueError(f"label {code!r} has {len(rows[-1])} diagonals, not {n - 3}")
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), n - 3, 2)


def verify_flip_graph(n: int, labels, offsets, neighbors) -> list[str]:
    """The CSR graph is the flip graph of the n-gon with the given vertex labels."""
    k = n - 3
    nv = len(labels)
    want = math.comb(2 * (n - 2), n - 2) // (n - 1)
    if nv != want:
        return [f"{nv} labels, Catalan({n - 2}) = {want}"]
    try:
        d = _parse_labels(n, labels)
    except ValueError as exc:
        return [str(exc)]
    i, j = d[..., 0], d[..., 1]
    if ((i < 1) | (j > n) | (j - i < 2) | ((i == 1) & (j == n))).any():
        return ["a label holds a pair that is not a diagonal of the n-gon"]
    a, b = i[:, :, None], j[:, :, None]
    c, e = i[:, None, :], j[:, None, :]
    if ((a < c) & (c < b) & (b < e)).any():
        return ["a label holds two crossing diagonals"]
    # diagonal (i, j) -> its index in lexicographic order -> a bit of a 2-word mask
    table = np.full((n + 1, n + 1), -1)
    diagonals = [(p, q) for p in range(1, n + 1) for q in range(p + 2, n + 1) if (p, q) != (1, n)]
    if len(diagonals) > 128:
        return [f"n={n}: {len(diagonals)} diagonals do not fit the two-word mask"]
    for idx, (p, q) in enumerate(diagonals):
        table[p, q] = idx
    ids = table[i, j]
    ids_sorted = np.sort(ids, axis=1)
    if (np.diff(ids_sorted, axis=1) == 0).any():
        return ["a label repeats a diagonal"]
    one = np.uint64(1)
    lo = np.bitwise_or.reduce(np.where(ids < 64, one << (ids % 64).astype(np.uint64), 0), axis=1)
    hi = np.bitwise_or.reduce(np.where(ids >= 64, one << (ids % 64).astype(np.uint64), 0), axis=1)
    masks = np.stack([lo, hi], axis=1).astype(np.uint64)
    if len(np.unique(masks, axis=0)) != nv:
        return ["two labels are the same triangulation"]

    offsets = np.asarray(offsets)
    neighbors = np.asarray(neighbors)
    if len(offsets) != nv + 1 or offsets[0] != 0 or offsets[-1] != len(neighbors):
        return ["offsets do not frame the neighbor array"]
    deg = np.diff(offsets)
    if (deg != k).any():
        return [f"not {k}-regular"]
    if len(neighbors) and (neighbors.min() < 0 or neighbors.max() >= nv):
        return ["neighbor index out of range"]
    src = np.repeat(np.arange(nv), deg)
    errors = []
    if (src == neighbors).any():
        errors.append("self loop")
    a_mat = scipy.sparse.csr_array((np.ones(len(neighbors)), neighbors, offsets), shape=(nv, nv))
    a_mat.sum_duplicates()
    if a_mat.nnz != len(neighbors):
        errors.append("repeated neighbor")
    if (a_mat != a_mat.T).nnz:
        errors.append("adjacency not symmetric")
    x = masks[src] ^ masks[neighbors]
    bits = np.bitwise_count(x[:, 0]).astype(np.int64) + np.bitwise_count(x[:, 1])
    if (bits != 2).any():
        u = int(src[np.argmax(bits != 2)])
        errors.append(f"an edge at vertex {u} joins labels that are not one flip apart")
    if nv > 1 and scipy.sparse.csgraph.connected_components(a_mat, directed=False)[0] != 1:
        errors.append("disconnected")
    return errors


# ---------------------------------------------------------------------------
# eigenvalues


def reference_eigenvalue(offsets, neighbors, which: str, seed: int = 0) -> tuple[float, float]:
    """(value, residual) of lambda_min (which="min") or lambda_2 ("second").

    Dense eigh for small graphs, ARPACK (eigsh) otherwise; the residual
    ||A x - value x|| is recomputed here for a unit vector x.
    """
    nv = len(offsets) - 1
    a = scipy.sparse.csr_array((np.ones(len(neighbors)), neighbors, offsets), shape=(nv, nv))
    if nv <= DENSE_REFERENCE_LIMIT:
        vals, vecs = scipy.linalg.eigh(a.toarray())
        idx = 0 if which == "min" else nv - 2
        value, x = float(vals[idx]), vecs[:, idx]
    else:
        v0 = np.random.default_rng(seed).standard_normal(nv)
        if which == "min":
            vals, vecs = scipy.sparse.linalg.eigsh(a, k=1, which="SA", v0=v0, tol=0)
            idx = 0
        else:
            vals, vecs = scipy.sparse.linalg.eigsh(a, k=2, which="LA", v0=v0, tol=0)
            idx = int(np.argmin(vals))
        value, x = float(vals[idx]), vecs[:, idx]
    x = x / np.linalg.norm(x)
    return value, float(np.linalg.norm(a @ x - value * x))


def eigenvalue_gap_errors(name: str, value: float, residual: float, ref: tuple[float, float]) -> list[str]:
    """Both solvers report residuals; the two values must be within their sum.

    A unit vector with residual r lies within r of an eigenvalue, so two
    correct answers for the same eigenvalue differ by at most r1 + r2.  The
    extra 1e-13 covers rounding in the residual computations themselves.
    """
    ref_value, ref_residual = ref
    gap = abs(value - ref_value)
    allowed = residual + ref_residual + 1e-13
    if not gap <= allowed:
        return [f"{name}: {value!r} vs reference {ref_value!r}, gap {gap:.3e} > {allowed:.3e}"]
    return []


# ---------------------------------------------------------------------------
# outputs of each CLI command


def check_enumerate(n: int, stdout: str, labels) -> list[str]:
    lines = stdout.splitlines()
    if lines != list(labels):
        return [f"enumerate --n {n}: {len(lines)} lines differ from the graph's {len(labels)} labels"]
    return []


def check_spectrum(n: int, which: str, seed: int, stdout: str, offsets, neighbors) -> tuple[list[str], float | None]:
    """Errors, and the eigenvalue read from ``spectrum --which which`` JSON."""
    key = "lambda_min" if which == "min" else "lambda_2"
    try:
        out = json.loads(stdout)
        value, residual, tol = out[key], out["residuals"][key], out["tolerance"]
        echo = (out["n"], out["which"], out["seed"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"spectrum --which {which}: unreadable output ({exc!r})"], None
    errors = []
    if echo != (n, which, seed):
        errors.append(f"spectrum --which {which}: echoes n, which, seed = {echo}")
    if not residual <= tol:
        errors.append(f"{key}: residual {residual:.3e} above --tol {tol:g}")
    ref = reference_eigenvalue(offsets, neighbors, which, seed)
    errors += eigenvalue_gap_errors(key, value, residual, ref)
    return errors, value


def check_method(stdout: str, method: str) -> list[str]:
    """``spectrum`` JSON reports that it took the solver path asked for."""
    try:
        got = json.loads(stdout)["method"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"spectrum: unreadable method ({exc!r})"]
    return [] if got == method else [f"spectrum: method {got!r}, not {method!r}"]


def check_lower_bound(n: int, lam_min: float) -> list[str]:
    bound = paper_lower_bound(n)
    if not lam_min >= bound:
        return [f"lambda_min {lam_min!r} below the paper's bound {bound!r} at n={n}"]
    return []


_TABLE_ROW = re.compile(r"^(\d+)\t(-?\d+\.\d{3})\t(-?\d+\.\d{3}|-)\t(\S+)$")


def check_table(kind: str, n_max: int, stdout: str, reference: dict[int, float]) -> list[str]:
    """``table --kind kind`` rows read ok and print the reference values.

    ``reference`` maps n to the benchmark's own eigenvalue.  A value within
    1e-9 of a 3-decimal rounding boundary may print either way.
    """
    lines = stdout.splitlines()
    want_header = [f"# {kind} of the flip graph, n = 5..{n_max}", "n-3\tvalue\treference\tstatus"]
    if lines[:2] != want_header:
        return [f"table {kind}: header {lines[:2]!r}"]
    rows = lines[2:]
    if len(rows) != n_max - 4:
        return [f"table {kind}: {len(rows)} rows for n = 5..{n_max}"]
    errors = []
    for n, line in zip(range(5, n_max + 1), rows):
        m = _TABLE_ROW.match(line)
        if not m:
            errors.append(f"table {kind} n={n}: malformed row {line!r}")
            continue
        if int(m[1]) != n - 3:
            errors.append(f"table {kind} n={n}: row labelled n-3={m[1]}")
        if m[4] != "ok":
            errors.append(f"table {kind} n={n}: status {m[4]}")
        ref = reference[n]
        printed = {format(ref, ".3f"), format(ref - 1e-9, ".3f"), format(ref + 1e-9, ".3f")}
        if m[2] not in printed:
            errors.append(f"table {kind} n={n}: printed {m[2]}, reference {ref:.6f}")
    return errors


CLAIMS = (
    "flip-graph-structure",
    "pentagon-census",
    "hexagon-census",
    "diagonal-slice-isomorphism",
    "collection-bound-certification",
    "eigenvalue-tables",
    "pentagon-lower-bound",
    "slice-subadditivity",
    "limit-ratio-bracket",
)


def certify_scope(n_max: int) -> dict[str, str]:
    """The scope each claim's detail must state for ``--n-max n_max`` (n_max >= 6).

    The claim suite's documented caps: triangles checked to n = 10,
    pentagon census to 9, hexagon census to 8, slices to 10.  The collection
    suite has K4/K3, Petersen/C5, A_n/C5 for n = 5..min(n_max, 9) and three
    patterns on ten random 3-regular graphs.
    """
    instances = 2 + (min(n_max, 9) - 4) + 3 * 10
    return {
        "flip-graph-structure": f"up to n={min(n_max, 10)}",
        "pentagon-census": f"n=5..{min(n_max, 9)}",
        "hexagon-census": f"n=6..{min(n_max, 8)}",
        "diagonal-slice-isomorphism": f"up to n={min(n_max, 10)}",
        "collection-bound-certification": f"on {instances} instances",
    }


def check_certify(n_max: int, code: int, stdout: str) -> list[str]:
    if code != 0:
        return [f"bounds --certify exited {code}"]
    try:
        claims = [(c["claim"], c["passed"], c["detail"]) for c in json.loads(stdout)]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"bounds --certify: unreadable output ({exc!r})"]
    names = tuple(name for name, _, _ in claims)
    if names != CLAIMS:
        return [f"bounds --certify: claims {list(names)}"]
    errors = [f"claim {name} failed: {detail}" for name, passed, detail in claims if passed is not True]
    by_name = {name: str(detail) for name, _, detail in claims}
    for name, scope in certify_scope(n_max).items():
        found = re.search(r"(up to n=\d+|n=\d+\.\.\d+|on \d+ instances)$", by_name[name])
        if not found or found[0] != scope:
            errors.append(f"claim {name}: detail {by_name[name]!r} does not state {scope!r}")
    return errors
