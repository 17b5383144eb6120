"""Extreme adjacency eigenvalues: dense, by rotation sectors, or by ARPACK.

The iterative path is ARPACK's implicitly restarted Lanczos method
(``scipy.sparse.linalg.eigsh``; Lehoucq, Sorensen and Yang, *ARPACK
Users' Guide*, SIAM 1998) on the compressed adjacency, and it requires a
regular graph.  The smallest eigenvalue is the smallest algebraic
eigenvalue of A.  The second-largest is the largest eigenvalue of
A - (2d+1) J/N (d the degree, J the all-ones matrix, N the vertex count):
on a d-regular graph this is A on the complement of the constant Perron
vector, while the Perron value d moves to -(d+1), below all of A's
spectrum.

The sector path serves flip graphs (``Graph.polygon`` set).  Rotating
the n-gon by one step commutes with A, so A splits into one block per
rotation frequency j (momentum sectors; A. W. Sandvik, *AIP Conf. Proc.*
1297, 135, 2010), and blocks j and n - j share one spectrum.  The
polygon's reflection makes each block j = 0..n//2 real symmetric and
splits blocks 0 and n/2 in two (``_parts``).  Each part is solved
densely with ``scipy.linalg``, and the winning part's eigenvector is
lifted to the whole graph.

No answer is trusted: every path yields a real vector x, and the
reported value is its Rayleigh quotient on the full A, for unit x, with
the residual ||A x - value x|| computed from A.  One fixed rule accepts
it: a residual of at most TOLERANCE, which for a symmetric A puts some
eigenvalue within TOLERANCE of the value (the residual bound; B. N.
Parlett, *The Symmetric Eigenvalue Problem*, SIAM 1998).  A larger
residual raises ConvergenceError on every path, also when ARPACK stops
after MAX_APPLICATIONS operator applications.  Each answer carries its
unit x, so callers that need the eigenvector take it from here.

``method`` is ``auto``, ``dense`` or ``iterative``, and only ``auto``
picks the sectors.  It tries, in this order: the dense solver up to
AUTO_DENSE_LIMIT vertices, where a full ``eigh`` beats ARPACK, and for
irregular graphs, which the iterative path rejects, up to the dense
capacity DENSE_LIMIT_DEFAULT; the sectors on a flip graph whose largest
block, block 0 with one row per rotation orbit, fits AUTO_DENSE_LIMIT;
ARPACK otherwise.

Every dense solve and reduction here calls scipy's LAPACK and BLAS
(``scipy.linalg``, ``scipy.linalg.blas.ddot``), never ``numpy.linalg``:
numpy and scipy each bundle their own OpenBLAS, and the first call into
either one faults in its code and buffers, so one library per process
keeps the peak RSS down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ddot

from .errors import CapacityError, ConvergenceError, InvalidInputError
from .flipgraph import Graph, _associahedron_cached, is_connected, reflection, rotation_orbits

DENSE_LIMIT_DEFAULT = 5000  # capacity of the dense solver
# auto leaves the dense solver above this many vertices, and gives the
# sector path flip graphs whose blocks fit it.  Measured dense / ARPACK
# lambda_min on a 2-core machine: 1.0 / 4.2 ms on A8 (132 vertices) and
# 12 / 8.4 ms on A9 (429); on random cubic graphs they meet at 300-350.
AUTO_DENSE_LIMIT = 300
# the acceptance residual of every answer, and so the float error allowed
# wherever a computed eigenvalue is compared (bounds.SLACK)
TOLERANCE = 1e-9
# the iterative path's cap on operator applications; ARPACK counts in
# restarts of ncv applications, so the cap holds to within one restart
MAX_APPLICATIONS = 5000


@dataclass(frozen=True)
class SpectralResult:
    value: float
    residual: float  # ||A x - value * x||_2 with ||x||_2 = 1
    method: str      # "dense", "sectors" or "iterative"
    iterations: int  # operator applications; 0 on the dense and sector paths
    vector: np.ndarray = field(default=None, compare=False, repr=False)  # the unit x


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues, sorted descending; multiplicities by repetition."""

    eigenvalues: np.ndarray

    @property
    def lambda_2(self) -> float:
        if len(self.eigenvalues) < 2:
            raise InvalidInputError("second eigenvalue undefined on a single vertex")
        return float(self.eigenvalues[1])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[-1])


def _csr(g: Graph):
    import scipy.sparse

    n = g.vertex_count
    return scipy.sparse.csr_array(
        (np.ones(len(g.neighbors)), g.neighbors, g.offsets), shape=(n, n)
    )


def matvec(g: Graph, x: np.ndarray, a=None) -> np.ndarray:
    """y = A x as a CSR product; ``a`` is g's CSR matrix if already built."""
    return (_csr(g) if a is None else a) @ np.asarray(x, dtype=float)


def dense_spectrum(g: Graph) -> Spectrum:
    """Every adjacency eigenvalue, from one dense decomposition, with no residual checked.

    It serves ``spectrum --which full`` alone: every eigenvalue the program
    judges comes from ``lambda_min`` or ``lambda_2``, checked against TOLERANCE.
    """
    if g.vertex_count > DENSE_LIMIT_DEFAULT:
        raise CapacityError(f"dense spectrum limited to {DENSE_LIMIT_DEFAULT} vertices")
    vals = scipy.linalg.eigvalsh(g.dense_adjacency(), driver="evd")
    return Spectrum(vals[::-1].copy())


def _iterative(g: Graph, second: bool, seed: int) -> tuple[np.ndarray, int]:
    """(x, operator applications): ARPACK's vector for lambda_min, or lambda_2 if ``second``."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    d = g.degree
    if d is None:
        raise InvalidInputError("iterative path requires a regular graph")
    n = g.vertex_count
    a = _csr(g)
    shift = 2 * d + 1 if second else 0
    last = np.empty(n)  # the latest operator input: a real vector if ARPACK fails
    applied = 0

    def op(x):
        nonlocal applied
        applied += 1
        np.copyto(last, x)
        y = matvec(g, x, a)
        return y - shift * x.mean() if second else y

    def deflated(x):
        return x - x.mean() if second else x

    ncv = min(n, 20)  # eigsh's own default for one eigenvalue
    try:
        # ARPACK's tol is relative to |theta| <= d
        _, vecs = eigsh(
            LinearOperator((n, n), matvec=op, dtype=float),
            k=1,
            which="LA" if second else "SA",
            v0=np.random.default_rng(seed).standard_normal(n),
            ncv=ncv,
            maxiter=max(1, MAX_APPLICATIONS // ncv),
            tol=TOLERANCE / max(d, 1),
        )
    except ArpackNoConvergence:  # _solve judges its last input like any answer
        return deflated(last), applied
    return deflated(vecs[:, 0]), applied


def _parts(g: Graph, j: int) -> tuple[list[tuple[np.ndarray, np.ndarray, np.ndarray]], np.ndarray]:
    """(parts, at): the real symmetric parts of the flip graph g's rotation-frequency-j block.

    The block acts on e_a = omega^(j t) / sqrt(s_a) at R^t(a), omega = e^(2 pi i / n),
    for the representatives a with j s_a = 0 (mod n); at[v] is the row of v's
    representative, or -1 outside the sector.  With sigma = reflection(n) and
    sigma(a) = R^c(a*), sigma after conjugation maps e_a to kappa e_a*, kappa =
    omega^(-j c), and its fixed vectors make the block real: alpha e_a with
    alpha^2 = kappa for a = a*, and (e_a + kappa e_a*) / sqrt(2) and
    i (e_a - kappa e_a*) / sqrt(2) for a pair.  At j = 0 and n/2, kappa = +-1,
    the i is dropped, and the block splits into the even and odd part of
    e_a -> kappa e_a*.  In part (matrix, col, coef), row r is coef[r, s] in
    basis vector col[r, s], where coef is not 0; s = 0 even, 1 odd.
    """
    n = g.polygon
    rep, shift, size = rotation_orbits(n)
    reps = np.flatnonzero((rep == np.arange(len(rep))) & (j * size % n == 0))
    m = len(reps)
    row = np.full(len(rep), -1)
    row[reps] = np.arange(m)
    at = row[rep]
    phase = np.exp(-2j * np.pi * j / n * np.arange(n))  # omega^(-j t)
    split = 2 * j % n == 0
    mirror = reflection(n)[reps]
    r, mate, kappa = np.arange(m), at[mirror], phase[shift[mirror]]
    odd = 1 if split else 1j
    coef = np.zeros((m, 2), dtype=complex)
    coef[r < mate] = np.sqrt(0.5) * np.array([1, odd])
    later = r > mate
    coef[later] = np.sqrt(0.5) * kappa[mate[later], None] * np.array([1, -odd])
    alone = r == mate
    coef[alone, 0] = np.sqrt(kappa[alone])
    if split:  # there e_a is even (alpha = 1) or odd, and drops the i
        coef[alone & (kappa.real < 0)] = (0, 1)
    # number the vectors by their first rows, the even ones before the odd ones
    used = coef != 0
    first = used & (r <= mate)[:, None]
    col = (np.cumsum(first.T).reshape(2, m).T - 1)[np.minimum(r, mate)]
    even = first[:, 0].sum()
    if split:  # each part numbers its own
        col[:, 1] -= even
    # B[b, a], the block in the basis e, from the arcs a -> w with b = at[w]
    a, w = g.neighbor_pairs(reps)
    keep = at[w] >= 0
    a, w, b = a[keep], w[keep], at[w[keep]]
    weight = phase[shift[w]] * np.sqrt(size[reps[a]] / size[w])
    parts = []
    for slots, k in [((0,), even), ((1,), m - even)] if split else [((0, 1), m)]:
        # slot s of the row b against slot t of the column a: at most 4 entries an arc
        s, t = np.repeat(slots, len(slots)), np.tile(slots, len(slots))
        hit = used[b[:, None], s] & used[a[:, None], t]
        rows, cols = col[b[:, None], s][hit], col[a[:, None], t][hit]
        vals = (coef[b[:, None], s].conj() * weight[:, None] * coef[a[:, None], t]).real[hit]
        # float64 also when no arc reaches the part, where bincount gives int64
        matrix = np.bincount(rows * k + cols, vals, minlength=k * k).astype(float, copy=False)
        parts.append((matrix.reshape(k, k), col[:, slots], coef[:, slots]))
    return parts, at


@lru_cache(maxsize=32)
def _sector_eigenvalues(n: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    """(j, part, ascending eigenvalues) of every real part of the n-gon's blocks j = 0..n//2."""
    g = _associahedron_cached(n)
    out = []
    for j in range(n // 2 + 1):
        for part, (matrix, _, _) in enumerate(_parts(g, j)[0]):
            vals = scipy.linalg.eigvalsh(matrix)
            vals.flags.writeable = False
            out.append((j, part, vals))
    return tuple(out)


def _sectors(g: Graph, second: bool) -> np.ndarray:
    """lambda_min's vector, or lambda_2's if ``second``, from a flip graph's rotation blocks."""
    n = g.polygon
    picks = []  # (eigenvalue, j, part, its index in the part)
    for j, part, vals in _sector_eigenvalues(n):
        # block 0's even part holds the constant vector, whose Perron value d is its largest
        index = len(vals) - 1 - (j == part == 0) if second else 0
        if 0 <= index < len(vals):
            picks.append((vals[index], j, part, index))
    _, j, part, index = max(picks) if second else min(picks)
    parts, at = _parts(g, j)
    matrix, col, coef = parts[part]
    y = scipy.linalg.eigh(matrix, subset_by_index=[index, index])[1][:, 0]
    vec = (coef * y[col]).sum(axis=1)  # the coefficients of the e_a
    # lift: vec_rep omega^(j t) / sqrt(s) at v = R^t(rep), zero outside the sector.  Its
    # real part is an eigenvector too, as A is real, and never vanishes: at j = 0 and
    # n/2 the lift is real, else omega^(2j) != 1 and half the norm of each orbit stays
    _, shift, size = rotation_orbits(n)
    inside = at >= 0
    x = np.zeros(g.vertex_count)
    phase = np.exp(2j * np.pi * j / n * shift[inside])
    x[inside] = (vec[at[inside]] * phase).real / np.sqrt(size[inside])
    return x


def _choose_method(g: Graph, method: str) -> str:
    if method == "auto":
        if g.vertex_count <= AUTO_DENSE_LIMIT or g.degree is None:
            method = "dense" if g.vertex_count <= DENSE_LIMIT_DEFAULT else "iterative"
        # block 0, one row per rotation orbit, has at least N/n rows: skip
        # the orbits when it cannot fit
        elif g.polygon is None or g.vertex_count > g.polygon * AUTO_DENSE_LIMIT:
            method = "iterative"
        else:
            rep = rotation_orbits(g.polygon)[0]
            fits = (rep == np.arange(len(rep))).sum() <= AUTO_DENSE_LIMIT
            method = "sectors" if fits else "iterative"
    elif method == "dense" and g.vertex_count > DENSE_LIMIT_DEFAULT:
        raise CapacityError(f"dense solver limited to {DENSE_LIMIT_DEFAULT} vertices")
    elif method not in ("dense", "iterative"):
        raise InvalidInputError(f"unknown method {method!r}")
    # ARPACK needs more vertices than wanted eigenvalues
    return "dense" if g.vertex_count == 1 else method


def _rayleigh(g: Graph, x: np.ndarray, method: str, iterations: int) -> SpectralResult:
    """The answer a real vector gives: its Rayleigh quotient and residual on the full A."""
    x = x / np.sqrt(ddot(x, x))
    u, v = g.arcs()
    ax = np.bincount(u, x[v], minlength=g.vertex_count)
    value = ddot(x, ax)
    r = ax - value * x
    residual = float(np.sqrt(ddot(r, r)))
    return SpectralResult(value, residual, method, iterations, x)


def _solve(g: Graph, second: bool, method: str, seed: int) -> SpectralResult:
    """lambda_min, or lambda_2 if ``second``: the chosen path's vector, judged by TOLERANCE."""
    chosen = _choose_method(g, method)
    applied = 0
    if chosen == "dense":
        index = g.vertex_count - 2 if second else 0
        x = scipy.linalg.eigh(g.dense_adjacency(), subset_by_index=[index, index])[1][:, 0]
    elif chosen == "sectors":
        x = _sectors(g, second)
    else:
        x, applied = _iterative(g, second, seed)
    result = _rayleigh(g, x, chosen, applied)
    if result.residual > TOLERANCE:
        raise ConvergenceError(
            f"{chosen} solve left residual {result.residual:.3e} above {TOLERANCE:g}", best=result
        )
    return result


def lambda_min(g: Graph, method: str = "auto", seed: int = 0) -> SpectralResult:
    """Smallest adjacency eigenvalue, with a residual of at most TOLERANCE.

    The iterative path requires a regular graph, and stops after about
    MAX_APPLICATIONS operator applications; ``seed`` draws its start vector.
    """
    if g.vertex_count == 0:
        raise InvalidInputError("empty graph")
    return _solve(g, False, method, seed)


def lambda_2(g: Graph, method: str = "auto", seed: int = 0) -> SpectralResult:
    """Second-largest adjacency eigenvalue of a connected graph.

    The iterative path requires a regular graph: it deflates the constant
    Perron eigenvector and maximizes over its orthogonal complement.
    """
    if g.vertex_count < 2:
        raise InvalidInputError("second eigenvalue undefined on fewer than 2 vertices")
    if not is_connected(g):
        raise InvalidInputError("graph must be connected")
    return _solve(g, True, method, seed)
