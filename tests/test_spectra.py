import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipspectra.errors import CapacityError, ConvergenceError, InvalidInputError
from flipspectra.flipgraph import (
    build_associahedron,
    box_product,
    complete_graph,
    cycle_graph,
    diagonal_slice,
    induced_subgraph,
    petersen_graph,
    random_regular_graph,
)
from flipspectra import certify, spectra
from flipspectra.reference import A6_SPECTRUM_CORRECTED
from flipspectra.spectra import (
    AUTO_DENSE_LIMIT,
    _sector_eigenvalues,
    dense_spectrum,
    lambda_2,
    lambda_min,
    matvec,
)
from oracles import cycle_spectrum, path_graph, single_vertex


def test_dense_spectrum_small_graphs():
    assert np.allclose(dense_spectrum(complete_graph(2)).eigenvalues, [1.0, -1.0])
    c5 = dense_spectrum(cycle_graph(5)).eigenvalues
    assert np.allclose(c5, cycle_spectrum(5).eigenvalues, atol=1e-12)


def test_a6_spectrum_closed_forms():
    # the 14-vertex flip graph: 3, 2^2, sqrt3, (sqrt2-1)^3, 0^2, -1, -sqrt3, (-1-sqrt2)^3
    vals = dense_spectrum(build_associahedron(6)).eigenvalues
    assert np.allclose(vals, A6_SPECTRUM_CORRECTED, atol=1e-9)


@pytest.mark.parametrize("n", range(4, 9))
def test_trace_and_frobenius_identities(n):
    g = build_associahedron(n)
    vals = dense_spectrum(g).eigenvalues
    assert abs(vals.sum()) < 1e-8
    assert abs((vals**2).sum() - 2 * g.edge_count) < 1e-8


def test_matvec_matches_dense():
    g = petersen_graph()
    rng = np.random.default_rng(3)
    x = rng.standard_normal(10)
    assert np.allclose(matvec(g, x), g.dense_adjacency() @ x)


@pytest.mark.parametrize("n", range(5, 11))
def test_dense_and_iterative_agree(n, assoc):
    g = assoc(n)
    dm = lambda_min(g, method="dense")
    im = lambda_min(g, method="iterative")
    assert abs(dm.value - im.value) < 1e-6
    assert im.residual <= 1e-9
    d2 = lambda_2(g, method="dense")
    i2 = lambda_2(g, method="iterative")
    assert abs(d2.value - i2.value) < 1e-6
    assert i2.residual <= 1e-9


@pytest.mark.parametrize("g", [build_associahedron(4), cycle_graph(5)], ids=["K2", "C5"])
def test_iterative_matches_dense_on_tiny_graphs(g):
    # lambda_2(K2) = -1 lies below the constant vector's 0 under a plain
    # projection of A, so the iterative path must deflate, not just project
    for solver in (lambda_min, lambda_2):
        dense = solver(g, method="dense")
        it = solver(g, method="iterative")
        assert it.method == "iterative"
        assert abs(it.value - dense.value) < 1e-12
        assert it.residual <= 1e-9


@pytest.mark.parametrize("n", range(6, 12))
def test_iterative_residuals_within_tol(n, assoc):
    g = assoc(n)
    for seed in range(20):
        for solver in (lambda_min, lambda_2):
            r = solver(g, method="iterative", seed=seed)
            assert r.residual <= spectra.TOLERANCE == 1e-9


@pytest.mark.parametrize("solver", [lambda_min, lambda_2])
def test_convergence_error_best_is_a_rayleigh_pair(monkeypatch, solver):
    g = build_associahedron(8)
    monkeypatch.setattr(spectra, "MAX_APPLICATIONS", 3)
    with pytest.raises(ConvergenceError) as err:
        solver(g, method="iterative")
    best = err.value.best
    assert best.iterations > 0
    vals = dense_spectrum(g).eigenvalues
    # a Rayleigh quotient lies in [lambda_min, lambda_max]; some eigenvalue
    # lies within its residual; and value^2 + residual^2 = ||A x||^2 <= d^2
    assert vals[-1] - 1e-12 <= best.value <= vals[0] + 1e-12
    assert np.min(np.abs(vals - best.value)) <= best.residual + 1e-12
    assert best.value**2 + best.residual**2 <= g.degree**2 + 1e-9


def test_auto_switches_to_iterative_above_the_crossover():
    below = random_regular_graph(AUTO_DENSE_LIMIT, 4, seed=1)
    above = random_regular_graph(AUTO_DENSE_LIMIT + 1, 4, seed=1)
    for solver in (lambda_min, lambda_2):
        assert solver(below).method == "dense"
        assert solver(above).method == "iterative"
    irregular = path_graph(AUTO_DENSE_LIMIT + 1)
    assert lambda_min(irregular).method == "dense"
    assert lambda_2(irregular).method == "dense"


def test_lambda_min_is_strictly_decreasing(lambda_min_values):
    vals = [lambda_min_values[n] for n in range(4, 13)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_cycle_spectrum_triangle():
    assert np.allclose(cycle_spectrum(3).eigenvalues, [2.0, -1.0, -1.0])


@given(st.integers(1, 20))
def test_cycle_spectrum_odd_minimum_identity(r):
    m = 2 * r + 1
    spec = cycle_spectrum(m)
    assert abs(2.0 + spec.lambda_min - 4.0 * math.sin(math.pi / (4 * r + 2)) ** 2) < 1e-12


def test_cycle_spectrum_pentagon_value():
    spec = cycle_spectrum(5)
    assert abs(spec.lambda_min + 2 * math.cos(math.pi / 5)) < 1e-12
    assert abs(2.0 + spec.lambda_min - 0.3819660112501051) < 1e-12


def quadratic_form(g, x):
    """Both sides of sum_{ij in E} (x_i + x_j)^2 >= (d + lambda_min) ||x||^2."""
    src = np.repeat(np.arange(g.vertex_count), np.diff(g.offsets))
    lhs = float(((x[src] + x[g.neighbors]) ** 2).sum() / 2.0)
    rhs = float((g.degree + dense_spectrum(g).lambda_min) * (x @ x))
    return lhs, rhs


def test_quadratic_form_examples():
    c5 = cycle_graph(5)
    lhs, rhs = quadratic_form(c5, np.ones(5))
    assert abs(lhs - 20.0) < 1e-12
    assert abs(rhs - (2.0 + dense_spectrum(c5).lambda_min) * 5.0) < 1e-12
    lhs, rhs = quadratic_form(c5, np.zeros(5))
    assert lhs == rhs == 0.0
    # equality at the minimizer
    a = c5.dense_adjacency()
    _, vecs = np.linalg.eigh(a)
    lhs, rhs = quadratic_form(c5, vecs[:, 0])
    assert abs(lhs - rhs) < 1e-8


@pytest.mark.parametrize(
    "make", [lambda: cycle_graph(5), lambda: cycle_graph(7), petersen_graph, lambda: build_associahedron(6)]
)
def test_quadratic_form_inequality_random_vectors(make):
    g = make()
    rng = np.random.default_rng(11)
    xs = rng.standard_normal((1000, g.vertex_count))
    k = g.degree
    lam = dense_spectrum(g).lambda_min
    src = np.repeat(np.arange(g.vertex_count), np.diff(g.offsets))
    lhs = ((xs[:, src] + xs[:, g.neighbors]) ** 2).sum(axis=1) / 2.0
    rhs = (k + lam) * (xs**2).sum(axis=1)
    assert (lhs >= rhs - 1e-9).all()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=5, max_size=5))
def test_quadratic_form_inequality_hypothesis(x):
    lhs, rhs = quadratic_form(cycle_graph(5), np.asarray(x))
    assert lhs >= rhs - 1e-9


def test_box_spectrum_min():
    g = box_product(build_associahedron(4), build_associahedron(6))
    direct = dense_spectrum(g).lambda_min
    parts = (
        dense_spectrum(build_associahedron(4)).lambda_min
        + dense_spectrum(build_associahedron(6)).lambda_min
    )
    assert abs(direct - parts) < 1e-9


def test_box_spectrum_min_a5_squared():
    g = box_product(build_associahedron(5), build_associahedron(5))
    assert abs(dense_spectrum(g).lambda_min - (-3.236)) < 1e-3


def test_interlacing_on_induced_subgraphs(assoc):
    g = assoc(8)
    base = dense_spectrum(g).lambda_min
    rng = np.random.default_rng(5)
    for _ in range(20):
        size = int(rng.integers(2, g.vertex_count))
        keep = rng.choice(g.vertex_count, size=size, replace=False)
        sub, _ = induced_subgraph(g, keep)
        assert dense_spectrum(sub).lambda_min >= base - 1e-9


def test_single_vertex_cases():
    assert lambda_min(single_vertex()).value == 0.0
    with pytest.raises(InvalidInputError):
        lambda_2(single_vertex())


def test_iterative_requires_regular():
    with pytest.raises(InvalidInputError):
        lambda_min(path_graph(4), method="iterative")


def test_lambda_2_requires_connected():
    from flipspectra.flipgraph import from_edges

    g = from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(InvalidInputError):
        lambda_2(g)


def test_dense_capacity(monkeypatch):
    monkeypatch.setattr(spectra, "DENSE_LIMIT_DEFAULT", 100)
    with pytest.raises(CapacityError):
        dense_spectrum(build_associahedron(8))
    with pytest.raises(CapacityError):
        lambda_min(build_associahedron(8), method="dense")


def test_convergence_error_carries_best(monkeypatch):
    g = build_associahedron(8)
    monkeypatch.setattr(spectra, "MAX_APPLICATIONS", 3)
    with pytest.raises(ConvergenceError) as err:
        lambda_min(g, method="iterative")
    best = err.value.best
    assert best is not None
    assert best.method == "iterative"
    assert best.residual > 1e-9


def test_iterative_seed_determinism():
    g = build_associahedron(8)
    a = lambda_min(g, method="iterative", seed=42)
    b = lambda_min(g, method="iterative", seed=42)
    assert a == b


@pytest.mark.parametrize("n", range(4, 11))
def test_sector_spectra_make_up_the_dense_spectrum(n, assoc):
    vals = []
    for j, _, part in _sector_eigenvalues(n):
        vals.extend(part if 2 * j % n == 0 else np.repeat(part, 2))  # j and n - j
    want = dense_spectrum(assoc(n)).eigenvalues
    assert len(vals) == len(want)
    assert np.abs(np.sort(vals)[::-1] - want).max() <= 1e-9


@pytest.mark.parametrize("n", range(4, 12))
def test_every_sector_part_is_real_symmetric(n, assoc):
    for j in range(n // 2 + 1):
        parts, _ = spectra._parts(assoc(n), j)
        assert len(parts) == (2 if 2 * j % n == 0 else 1)  # blocks 0 and n/2 split
        for matrix, _, _ in parts:
            assert matrix.dtype == np.float64
            assert np.allclose(matrix, matrix.T, rtol=0, atol=1e-12)


def test_a9_and_a10_part_sizes(assoc):
    def sizes(n, j):
        return [len(matrix) for matrix, _, _ in spectra._parts(assoc(n), j)[0]]

    assert sizes(9, 0) == [27, 22]  # 49 rows, split by the reflection
    assert sizes(10, 0) == [82, 68]  # 150 rows
    assert sizes(10, 5) == [75, 61]  # 136 rows
    assert [sizes(10, j) for j in range(1, 5)] == [[136], [150], [136], [150]]


def test_sector_path_calls_lapack_on_real_arrays_only(assoc, monkeypatch):
    seen = []

    def recording(solve):
        def wrapped(a, *args, **kwargs):
            seen.append((solve.__name__, np.asarray(a).dtype))
            return solve(a, *args, **kwargs)

        return wrapped

    linalg = spectra.scipy.linalg  # the module as spectra sees it
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(linalg, name, recording(getattr(linalg, name)))
    _sector_eigenvalues.cache_clear()
    for n in (9, 10):
        for solver in (lambda_min, lambda_2):
            assert solver(assoc(n)).method == "sectors"
    assert {name for name, _ in seen} == {"eigh", "eigvalsh"}
    assert {dtype for _, dtype in seen} == {np.dtype(np.float64)}


def test_solvers_and_certification_call_no_numpy_linalg(assoc, monkeypatch):
    # numpy and scipy each bundle an OpenBLAS; the solver layer loads scipy's only
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("eigvalsh", "eigh", "norm"):
        monkeypatch.setattr(np.linalg, name, refuse)
    _sector_eigenvalues.cache_clear()
    for g in (assoc(6), cycle_graph(5), petersen_graph()):
        dense_spectrum(g)
    paths = {6: ("auto", "dense"), 9: ("auto", "sectors"), 11: ("iterative", "iterative")}
    for n, (method, path) in paths.items():
        for solver in (lambda_min, lambda_2):
            assert solver(assoc(n), method=method).method == path
    assert all(r.passed for r in certify.run_certification(7))


def _sector_answer(g, second):
    """The sector path's answer on any flip graph; ``auto`` only takes it for A9 and A10."""
    return spectra._rayleigh(g, spectra._sectors(g, second), "sectors", 0)


@pytest.mark.parametrize("n", range(4, 11))
def test_sectors_match_dense(n, assoc):
    g = assoc(n)
    for second, solver in ((False, lambda_min), (True, lambda_2)):
        sec = _sector_answer(g, second)
        assert abs(sec.value - solver(g, method="dense").value) <= 1e-9
        assert sec.residual <= 1e-9


def test_sectors_match_iterative_at_n11(assoc):
    g = assoc(11)
    for second, solver in ((False, lambda_min), (True, lambda_2)):
        sec = _sector_answer(g, second)
        it = solver(g, method="iterative")
        assert sec.residual <= 1e-9 and it.residual <= 1e-9
        assert abs(sec.value - it.value) <= sec.residual + it.residual


def test_auto_gives_sectors_to_mid_sized_flip_graphs_only(assoc):
    for solver in (lambda_min, lambda_2):
        assert [solver(assoc(n)).method for n in (8, 9, 10, 11)] == [
            "dense", "sectors", "sectors", "iterative"
        ]
    # regular graphs above the crossover without a rotation go to ARPACK
    others = [
        diagonal_slice(11, (1, 6)),
        box_product(assoc(6), assoc(7)),
        random_regular_graph(2 * AUTO_DENSE_LIMIT, 3, seed=2),
    ]
    for h in others:
        assert h.vertex_count > AUTO_DENSE_LIMIT
        assert lambda_min(h).method == lambda_2(h).method == "iterative"
        with pytest.raises(InvalidInputError, match="unknown method"):
            lambda_min(h, method="sectors")


def test_sectors_keep_the_dense_cap(assoc, monkeypatch):
    def limit(rows):
        monkeypatch.setattr(spectra, "AUTO_DENSE_LIMIT", rows)

    # auto takes the sectors only when block 0, which holds every rotation
    # orbit, fits AUTO_DENSE_LIMIT.  A9 has 49 orbits
    limit(48)
    assert lambda_min(assoc(9)).method == "iterative"
    limit(49)
    assert lambda_min(assoc(9)).method == "sectors"
    # A10 has 150 orbits, more than 1430 / 10 = 143
    for rows in (143, 149):
        limit(rows)
        assert lambda_min(assoc(10)).method == "iterative"
    limit(150)
    assert lambda_min(assoc(10)).method == "sectors"


def test_sectors_is_not_a_method(assoc):
    with pytest.raises(InvalidInputError, match="unknown method 'sectors'"):
        lambda_min(assoc(9), method="sectors")


@pytest.mark.parametrize("method", ["dense", "auto"])
def test_residual_above_tol_raises(assoc, monkeypatch, method):
    path = "sectors" if method == "auto" else method  # auto solves A9 by sectors
    dense = lambda_min(assoc(9), method="dense").value
    monkeypatch.setattr(spectra, "TOLERANCE", 1e-30)
    with pytest.raises(ConvergenceError, match=f"^{path} solve left residual") as err:
        lambda_min(assoc(9), method=method)
    best = err.value.best
    assert best.method == path and best.residual > spectra.TOLERANCE == 1e-30
    assert abs(best.value - dense) <= 1e-9


@pytest.mark.parametrize("solver", [lambda_min, lambda_2])
def test_arpack_out_of_iterations_is_judged_like_every_path(assoc, monkeypatch, solver):
    # ARPACK's last input is one more answer, accepted or refused by its residual alone
    want = r"^iterative solve left residual \S+ above 1e-09$"
    monkeypatch.setattr(spectra, "MAX_APPLICATIONS", 20)
    with pytest.raises(ConvergenceError, match=want) as err:
        solver(assoc(11), method="iterative")
    best = err.value.best
    assert best.method == "iterative" and best.residual > spectra.TOLERANCE == 1e-9
    assert 0 < best.iterations <= 40  # within one restart of the cap


@pytest.mark.parametrize(
    "n, method, path",
    [(7, "dense", "dense"), (9, "auto", "sectors"), (9, "iterative", "iterative"),
     (11, "auto", "iterative")],
)
def test_every_answer_carries_its_unit_vector(assoc, n, method, path):
    g = assoc(n)
    for solver in (lambda_min, lambda_2):
        r = solver(g, method=method)
        x = r.vector
        assert r.method == path
        assert abs(np.linalg.norm(x) - 1) <= 1e-12
        assert abs(np.linalg.norm(matvec(g, x) - r.value * x) - r.residual) <= 1e-12
    assert abs(x.sum()) <= 1e-9  # lambda_2's vector is orthogonal to the constants


_SECTOR_VALUES = (
    "from flipspectra import build_associahedron, lambda_2, lambda_min\n"
    "for n in (9, 10):\n"
    "    g = build_associahedron(n)\n"
    "    print(repr(lambda_min(g)), repr(lambda_2(g)))\n"
)


def _python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_sector_results_repeat_across_calls_and_processes(assoc):
    for n in (9, 10):
        g = assoc(n)
        for solver in (lambda_min, lambda_2):
            assert solver(g) == solver(g)
    assert _python(_SECTOR_VALUES) == _python(_SECTOR_VALUES)


def test_tables_and_claims_to_n10_do_not_import_scipy_sparse():
    code = (
        "import contextlib, io, sys\n"
        "from flipspectra import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['table', '--kind', 'lambda_min', '--n-max', '10']),\n"
        "             cli.main(['table', '--kind', 'lambda_2', '--n-max', '10']),\n"
        "             cli.main(['bounds', '--certify', '--n-max', '10'])]\n"
        "print(codes, 'scipy.sparse' in sys.modules)\n"
    )
    assert _python(code) == "[0, 0, 0] False\n"
