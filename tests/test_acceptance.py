"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Criterion 3 checks the full 14-vertex flip-graph spectrum against
the corrected reference multiset and proves that multiset with an exact
integer characteristic polynomial (see README, "Reference erratum").
"""

import os
import subprocess
import sys
import time
from functools import reduce
from pathlib import Path

import numpy as np

from flipspectra.bounds import (
    assoc_lower_bound,
    certify_collection_bound,
    holds,
    limit_bracket,
)
from flipspectra.census import (
    hexagon_census,
    hexagon_census_oracle,
    pentagon_census,
    pentagon_census_oracle,
)
from flipspectra.flipgraph import (
    box_product,
    build_associahedron,
    complete_graph,
    cycle_graph,
    diagonal_slice,
    is_isomorphic,
    petersen_graph,
    random_regular_graph,
    slice_product_map,
)
from flipspectra.reference import (
    A6_SPECTRUM_CORRECTED,
    A6_SPECTRUM_LISTED,
    LAMBDA_2_TABLE,
    LAMBDA_MIN_TABLE,
    LIMIT_LOWER_CONSTANT,
    LIMIT_UPPER_CONSTANT,
    check_reference,
)
from flipspectra.spectra import dense_spectrum
from flipspectra.triangulations import catalan
from flipspectra.walk import aldous_test_function, dirichlet_quotient
from oracles import ear_count, enumerate_objects, odd_cycle_bound


def _report(num, label, ok, detail=""):
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def _table_misses(kind, values):
    """Each n in 5..12 whose value ``check_reference`` rejects, with that value."""
    return {n: values[n] for n in range(5, 13) if not check_reference(kind, n, values[n])}


def test_criterion_1_lambda_min_table(lambda_min_values):
    t0 = time.perf_counter()
    misses = _table_misses("lambda_min", lambda_min_values)
    diff = max(abs(lambda_min_values[n] - LAMBDA_MIN_TABLE[n]) for n in range(5, 13))
    ok = not misses
    _report(1, "lambda_min table n=5..12",
            ok, f"max diff {diff:.2e}, {time.perf_counter() - t0:.1f}s")
    assert ok, misses


def test_criterion_1_rejects_a_value_above_its_rounded_up_entry():
    # lambda_min is rounded up to its entry, so 5e-4 above it cannot round to it
    values = {**LAMBDA_MIN_TABLE, 8: LAMBDA_MIN_TABLE[8] + 5e-4}
    assert set(_table_misses("lambda_min", values)) == {8}


def test_criterion_2_rejects_a_value_below_its_rounded_down_entry():
    values = {**LAMBDA_2_TABLE, 8: LAMBDA_2_TABLE[8] - 5e-4}
    assert set(_table_misses("lambda_2", values)) == {8}


def test_criterion_2_lambda_2_table(lambda_2_values):
    misses = _table_misses("lambda_2", lambda_2_values)
    diff = max(abs(lambda_2_values[n] - LAMBDA_2_TABLE[n]) for n in range(5, 13))
    ok = not misses
    _report(2, "lambda_2 table n=5..12", ok, f"max diff {diff:.2e}")
    assert ok, misses


def _charpoly(a):
    """Coefficients of det(xI - A), highest degree first, in exact integers.

    Faddeev-LeVerrier: M_k = A M_{k-1} + c_{k-1} I and c_k = -tr(A M_k) / k,
    where every division is exact for an integer matrix.
    """
    n = len(a)
    coeffs = [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [
            [sum(a[i][l] * m[l][j] for l in range(n)) + (coeffs[-1] if i == j else 0)
             for j in range(n)]
            for i in range(n)
        ]
        c, rem = divmod(-sum(a[i][l] * m[l][i] for i in range(n) for l in range(n)), k)
        assert rem == 0
        coeffs.append(c)
    return coeffs


def _polymul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


_SQRT2 = np.sqrt(2.0)
_SQRT3 = np.sqrt(3.0)

# det(xI - A) of the hexagon flip graph over the integers,
# (x-3)(x-2)^2 x^2 (x+1)(x^2-3)(x^2+2x-1)^3, as
# (integer factor, multiplicity, closed-form roots of the factor)
A6_CHARPOLY_FACTORS = [
    ([1, -3], 1, [3.0]),
    ([1, -2], 2, [2.0]),
    ([1, 0], 2, [0.0]),
    ([1, 1], 1, [-1.0]),
    ([1, 0, -3], 1, [_SQRT3, -_SQRT3]),
    ([1, 2, -1], 3, [_SQRT2 - 1.0, -1.0 - _SQRT2]),
]


def test_criterion_3_a6_reference_spectrum(assoc):
    """Full spectrum of the 14-vertex flip graph, 1e-9 per value.

    The computed spectrum is compared with the corrected reference
    multiset, and the reference is proved by an exact oracle: the integer
    characteristic polynomial of the adjacency matrix equals the factored
    product whose closed-form roots are that multiset.  The listed source
    multiset is an erratum (1 - sqrt(2) where sqrt(2) - 1 belongs); its
    nonzero sum, impossible for a traceless matrix, is asserted too.
    """
    g = assoc(6)
    vals = dense_spectrum(g).eigenvalues
    diffs = np.abs(vals - np.asarray(A6_SPECTRUM_CORRECTED))
    spectrum_ok = bool(diffs.max() <= 1e-9)

    roots = sorted((r for _, mult, rs in A6_CHARPOLY_FACTORS for r in rs * mult), reverse=True)
    roots_ok = all(
        abs(np.polyval(f, r)) <= 1e-12 for f, _, rs in A6_CHARPOLY_FACTORS for r in rs
    ) and np.allclose(roots, A6_SPECTRUM_CORRECTED, rtol=0, atol=1e-12)

    charpoly = _charpoly(g.dense_adjacency().astype(int).tolist())
    expected = reduce(
        _polymul, (f for f, mult, _ in A6_CHARPOLY_FACTORS for _ in range(mult)), [1]
    )
    charpoly_ok = charpoly == expected
    ok = spectrum_ok and charpoly_ok and roots_ok
    _report(3, "A6 spectrum vs corrected multiset + exact charpoly", ok,
            f"max diff {diffs.max():.3e}; charpoly {'matches' if charpoly_ok else 'DIFFERS from'} "
            "(x-3)(x-2)^2 x^2 (x+1)(x^2-3)(x^2+2x-1)^3")
    assert spectrum_ok, diffs
    assert charpoly_ok, charpoly
    assert roots_ok, roots
    assert abs(sum(A6_SPECTRUM_LISTED)) > 1, "listed erratum should violate tr A = 0"


def test_criterion_4_pentagon_census():
    t0 = time.perf_counter()
    ok = True
    for n in range(5, 10):
        rep, oracle = pentagon_census(n), pentagon_census_oracle(n)
        ts = enumerate_objects(n)
        ok &= rep.per_vertex == oracle.per_vertex
        ok &= all(c == n - 6 + ear_count(t) for c, t in zip(rep.per_vertex, ts))
        ok &= all(c >= n - 4 for c in rep.per_vertex)
        ok &= rep.per_edge == oracle.per_edge
        ok &= min(rep.per_edge) >= 1 and rep.t <= 4
    _report(4, "pentagon census n=5..9", ok, f"{time.perf_counter() - t0:.1f}s")
    assert ok


def test_criterion_5_hexagon_census():
    ok = True
    for n in range(6, 9):
        rep, oracle = hexagon_census(n), hexagon_census_oracle(n)
        ok &= rep.per_vertex == oracle.per_vertex
        ok &= all(c >= n - 5 for c in rep.per_vertex)
        ok &= rep.per_edge == oracle.per_edge
        ok &= min(rep.per_edge) >= 1 and rep.t <= 14
    _report(5, "hexagon census n=6..8", ok)
    assert ok


def test_criterion_6_collection_bound_certification(lambda_min_values):
    suite = [
        ("K4/K3", complete_graph(4), complete_graph(3), None),
        ("Petersen/C5", petersen_graph(), cycle_graph(5), None),
    ]
    for n in range(5, 10):
        suite.append((f"A{n}/C5", build_associahedron(n), cycle_graph(5), lambda_min_values[n]))
    for seed in range(10):
        g = random_regular_graph(20, 3, seed=seed)
        for label, pattern in (("K3", complete_graph(3)), ("C5", cycle_graph(5)), ("C7", cycle_graph(7))):
            suite.append((f"rand-{seed}/{label}", g, pattern, None))
    failures = []
    for label, g, pattern, exact in suite:
        rep = certify_collection_bound(g, pattern, exact_lambda_min=exact, name=label)
        if not rep.satisfied:
            failures.append(label)
    ok = not failures
    _report(6, "collection bound certification", ok,
            f"{len(suite)} instances" + (f"; failed: {failures}" if failures else ""))
    assert ok, failures


def test_criterion_7_bound_sandwich_and_identity(lambda_min_values):
    sandwich = all(holds(assoc_lower_bound(n), lambda_min_values[n]) for n in range(5, 13))
    identity = all(
        abs(assoc_lower_bound(n) - odd_cycle_bound(n - 3, 2, n - 4, 4)) <= 1e-12
        for n in range(5, 51)
    )
    ok = sandwich and identity
    _report(7, "lower-bound sandwich + closed-form identity", ok)
    assert sandwich
    assert identity


def test_criterion_8_subadditivity_and_slices(lambda_min_values):
    sub = True
    lam = lambda_min_values
    # slice(k + l - 2, (1, k)) is A_k box A_l; interlacing bounds lambda_min(k + l - 2)
    for k in range(4, 8):
        for l in range(k, 15 - k):
            sub &= holds(lam[k + l - 2], lam[k] + lam[l])
    slices = True
    for n in range(4, 11):
        for k in range(3, n):
            slc = diagonal_slice(n, (1, k))
            prod = box_product(build_associahedron(k), build_associahedron(n - k + 2))
            phi = slice_product_map(n, k)
            if slc.vertex_count != catalan(k - 2) * catalan(n - k) or not is_isomorphic(slc, prod, phi):
                slices = False
    ok = sub and slices
    _report(8, "subadditivity + slice isomorphism", ok)
    assert sub
    assert slices


def test_criterion_9_limit_bracket(lambda_min_values):
    br = limit_bracket()
    endpoints = (
        round(br.lower, 4) == round(LIMIT_LOWER_CONSTANT, 4) == -0.9045
        and round(min(LAMBDA_MIN_TABLE[n] / (n - 2) for n in range(4, 13)), 4)
        == round(br.upper, 4) == round(LIMIT_UPPER_CONSTANT, 4) == -0.6904
    )
    ratios = {n: lambda_min_values[n] / (n - 3) for n in range(5, 13)}
    inside = all(br.contains(r) for r in ratios.values())
    ok = endpoints and inside
    _report(9, "limit bracket", ok,
            f"ratios in [{min(ratios.values()):.4f}, {max(ratios.values()):.4f}]")
    assert ok, ratios


def test_criterion_10_gap_scan_scaling(assoc, lambda_2_values):
    scaled = {}
    quotients = {}
    for n in range(8, 13):
        rep = dirichlet_quotient(assoc(n), aldous_test_function(n))
        quotients[n] = rep
        scaled[n] = rep.quotient * n**1.5
    band = max(scaled.values()) / min(scaled.values())
    band_ok = band <= 4.0
    variational_ok = True
    for n in range(8, 11):
        gap = 1.0 - lambda_2_values[n] / (n - 3)
        variational_ok &= quotients[n].quotient + 1e-8 >= gap
        variational_ok &= quotients[n].gap_upper + 1e-8 >= gap
    ok = band_ok and variational_ok
    _report(10, "test-function gap scaling", ok, f"band ratio {band:.3f} (cap 4)")
    assert ok, (scaled, band)


CLI_COMMANDS = [
    ["enumerate", "--n", "5"],
    ["graph", "--n", "5"],
    ["spectrum", "--n", "6", "--which", "min", "--solver", "iterative", "--seed", "1"],
    ["spectrum", "--n", "6", "--which", "full"],
    ["census", "--n", "6", "--oracle"],
    ["census", "--n", "6", "--edges"],
    ["bounds", "--n", "6", "--certify"],
    ["bounds", "--certify", "--n-max", "5"],
    ["walk", "--n", "6", "--steps", "2000", "--seed", "2"],
    ["walk", "--n", "8", "--test-fn", "aldous"],
    ["table", "--kind", "lambda_2", "--n-max", "7"],
]


def test_criterion_11_cli_determinism():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    ok = True
    bad = []
    for argv in CLI_COMMANDS:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "flipspectra", *argv],
                capture_output=True,
                env=env,
                cwd=root,
            )
            for _ in range(2)
        ]
        if not (runs[0].stdout == runs[1].stdout and runs[0].returncode == runs[1].returncode == 0):
            ok = False
            bad.append(" ".join(argv))
    _report(11, "CLI byte-identical determinism", ok,
            f"{len(CLI_COMMANDS)} commands" + (f"; differing: {bad}" if bad else ""))
    assert ok, bad
