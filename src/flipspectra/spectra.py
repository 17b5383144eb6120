"""Extreme adjacency eigenvalues: dense at small scale, ARPACK beyond.

The iterative path is ARPACK's implicitly restarted Lanczos method
(``scipy.sparse.linalg.eigsh``; Lehoucq, Sorensen and Yang, *ARPACK
Users' Guide*, SIAM 1998) on the compressed adjacency, and it requires a
regular graph.  The smallest eigenvalue is the smallest algebraic
eigenvalue of A.  The second-largest is the largest eigenvalue of
A - (2d+1) J/N (d the degree, J the all-ones matrix, N the vertex count):
on a d-regular graph this is A on the complement of the constant Perron
vector, while the Perron value d moves to -(d+1), below all of A's
spectrum.

ARPACK's answer is checked, not trusted: the reported value is the
Rayleigh quotient of the returned unit vector and the residual
||A x - value x|| is computed from A.  A residual above ``tol`` raises
ConvergenceError.

``auto`` picks the dense solver up to AUTO_DENSE_LIMIT vertices, where a
full ``eigh`` beats ARPACK, and for irregular graphs, which the iterative
path rejects, up to the dense capacity DENSE_LIMIT_DEFAULT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CapacityError, ConvergenceError, InvalidInputError
from .flipgraph import Graph, is_connected

DENSE_LIMIT_DEFAULT = 5000  # capacity of the dense solver
# auto switches to ARPACK above this many vertices.  Measured dense / ARPACK
# lambda_min on a 2-core machine: 1.0 / 4.2 ms on A8 (132 vertices) and
# 12 / 8.4 ms on A9 (429); on random cubic graphs they meet at 300-350.
AUTO_DENSE_LIMIT = 300


@dataclass(frozen=True)
class SpectralResult:
    value: float
    residual: float  # ||A x - value * x||_2 with ||x||_2 = 1
    method: str      # "dense" or "iterative"
    iterations: int  # operator applications; 0 on the dense path
    tolerance: float


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues, sorted descending; multiplicities by repetition."""

    eigenvalues: np.ndarray

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[0])

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


def dense_spectrum(g: Graph, limit: int | None = None) -> Spectrum:
    """Full symmetric eigendecomposition of the adjacency matrix."""
    cap = DENSE_LIMIT_DEFAULT if limit is None else limit
    if g.vertex_count > cap:
        raise CapacityError(f"dense spectrum limited to {cap} vertices")
    vals = np.linalg.eigvalsh(g.dense_adjacency())
    return Spectrum(vals[::-1].copy())


def _iterative(g: Graph, second: bool, tol: float, seed: int, max_iterations: int) -> SpectralResult:
    """lambda_min, or lambda_2 if ``second``, of a regular graph by ARPACK."""
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

    def checked(x) -> SpectralResult:
        if second:
            x = x - x.mean()
        x = x / np.linalg.norm(x)
        ax = matvec(g, x, a)
        value = float(x @ ax)
        residual = float(np.linalg.norm(ax - value * x))
        return SpectralResult(value, residual, "iterative", applied, tol)

    ncv = min(n, 20)  # eigsh's own default for one eigenvalue
    try:
        # ARPACK's tol is relative to |theta| <= d
        _, vecs = eigsh(
            LinearOperator((n, n), matvec=op, dtype=float),
            k=1,
            which="LA" if second else "SA",
            v0=np.random.default_rng(seed).standard_normal(n),
            ncv=ncv,
            maxiter=max(1, max_iterations // ncv),
            tol=tol / max(d, 1),
        )
    except ArpackNoConvergence:
        best = checked(last)
        raise ConvergenceError(
            f"no convergence to {tol:g} within {max_iterations} iterations "
            f"(best residual {best.residual:.3e})",
            best=best,
        ) from None
    result = checked(vecs[:, 0])
    if result.residual > tol:
        raise ConvergenceError(
            f"ARPACK stopped with residual {result.residual:.3e} above {tol:g}", best=result
        )
    return result


def _dense_extreme(g: Graph, index: int, tol: float) -> SpectralResult:
    a = g.dense_adjacency()
    vals, vecs = scipy.linalg.eigh(a, subset_by_index=[index, index])
    value = float(vals[0])
    x = vecs[:, 0]
    residual = float(np.linalg.norm(a @ x - value * x))
    return SpectralResult(value, residual, "dense", 0, tol)


def _choose_method(g: Graph, method: str, dense_limit: int | None) -> str:
    cap = DENSE_LIMIT_DEFAULT if dense_limit is None else dense_limit
    if method == "auto":
        small = g.vertex_count <= AUTO_DENSE_LIMIT or g.degree is None
        return "dense" if small and g.vertex_count <= cap else "iterative"
    if method == "dense" and g.vertex_count > cap:
        raise CapacityError(f"dense solver limited to {cap} vertices")
    if method not in ("dense", "iterative"):
        raise InvalidInputError(f"unknown method {method!r}")
    # ARPACK needs more vertices than wanted eigenvalues
    return "dense" if g.vertex_count == 1 else method


def lambda_min(
    g: Graph,
    tol: float = 1e-9,
    method: str = "auto",
    seed: int = 0,
    max_iterations: int = 5000,
    dense_limit: int | None = None,
) -> SpectralResult:
    """Smallest adjacency eigenvalue.

    The iterative path requires a regular graph.  ``max_iterations`` caps
    its operator applications, to within one ARPACK restart.
    """
    if g.vertex_count == 0:
        raise InvalidInputError("empty graph")
    if _choose_method(g, method, dense_limit) == "dense":
        return _dense_extreme(g, 0, tol)
    return _iterative(g, False, tol, seed, max_iterations)


def lambda_2(
    g: Graph,
    tol: float = 1e-9,
    method: str = "auto",
    seed: int = 0,
    max_iterations: int = 5000,
    dense_limit: int | None = None,
) -> SpectralResult:
    """Second-largest adjacency eigenvalue of a connected graph.

    The iterative path requires a regular graph: it deflates the constant
    Perron eigenvector and maximizes over its orthogonal complement.
    """
    if g.vertex_count < 2:
        raise InvalidInputError("second eigenvalue undefined on fewer than 2 vertices")
    if not is_connected(g):
        raise InvalidInputError("graph must be connected")
    if _choose_method(g, method, dense_limit) == "dense":
        return _dense_extreme(g, g.vertex_count - 2, tol)
    return _iterative(g, True, tol, seed, max_iterations)


def cycle_spectrum(m: int) -> Spectrum:
    """Spectrum of the m-cycle: {2 cos(2 pi j / m)}.

    For odd m = 2r+1 the smallest value satisfies
    2 + lambda_min = 4 sin^2(pi / (4r+2)).
    """
    if m < 3:
        raise InvalidInputError("cycle needs at least 3 vertices")
    vals = 2.0 * np.cos(2.0 * np.pi * np.arange(m) / m)
    return Spectrum(np.sort(vals)[::-1].copy())
