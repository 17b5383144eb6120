"""Cross-module claim suite behind the CLI's --certify flag.

Each claim callable lists its failures and returns them through ``_claim``,
where every ClaimResult is built; run_certification collects them into a
machine-readable report.  Scope scales with n_max so small runs stay fast:
census claims cap at n = 9 (pentagons) and n = 8 (hexagons), slice
isomorphism at n = 10 regardless of n_max.  The 5-cycles of each flip
graph are found once, by the array copy search, and serve both the
pentagon census and the collection bound.  The slice claim checks the
explicit bijection slice_product_map against the box product's edges; it
does not search for an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bounds, census, spectra
from .errors import InvalidInputError
from .flipgraph import (
    box_product,
    build_associahedron,
    complete_graph,
    contains_triangle,
    cycle_graph,
    diagonal_slice,
    is_connected,
    is_isomorphic,
    petersen_graph,
    random_regular_graph,
    slice_product_map,
    validate_regular,
)
from .reference import LAMBDA_2_TABLE, LAMBDA_MIN_TABLE, check_reference
from .triangulations import catalan


@dataclass(frozen=True)
class ClaimResult:
    name: str
    passed: bool
    detail: str


def _claim(name: str, bad: list[str], success: str) -> ClaimResult:
    """The claim passes when nothing is bad; its detail lists the failures, else ``success``."""
    return ClaimResult(name, not bad, "; ".join(bad) if bad else success)


def _claim_structure(n_max: int) -> ClaimResult:
    bad = []
    for n in range(4, min(n_max, 12) + 1):
        g = build_associahedron(n)
        if g.vertex_count != catalan(n - 2):
            bad.append(f"n={n}: vertex count")
        if not validate_regular(g, n - 3):
            bad.append(f"n={n}: not {n - 3}-regular")
        if not is_connected(g):
            bad.append(f"n={n}: disconnected")
        if g.edge_count != catalan(n - 2) * (n - 3) // 2:
            bad.append(f"n={n}: edge count")
        if n <= 10 and contains_triangle(g):
            bad.append(f"n={n}: triangle found")
    top = min(n_max, 12)
    if top <= 10:
        scope = f"regular, connected, triangle-free up to n={top}"
    else:
        scope = f"regular, connected up to n={top}; triangle-free up to n=10"
    return _claim("flip-graph-structure", bad, scope)


def _claim_pentagon_census(pentagons: dict[int, bounds.CollectionStats]) -> ClaimResult:
    if not pentagons:
        return _claim("pentagon-census", [], "vacuous: no 5-cycles below n=5")
    bad = []
    for n, oracle in pentagons.items():
        rep = census.pentagon_census(n)
        if rep.per_vertex != oracle.per_vertex:
            bad.append(f"n={n}: vertex formula != oracle")
        if rep.m < n - 4:
            bad.append(f"n={n}: vertex count below n-4")
        if rep.per_edge != oracle.per_edge:
            bad.append(f"n={n}: edge formula != oracle")
        if min(rep.per_edge) < 1 or rep.t > 4:
            bad.append(f"n={n}: edge count outside [1,4]")
        if any(c != n - 6 + t1 for c, t1 in zip(rep.per_vertex, census.ear_counts(n))):
            bad.append(f"n={n}: vertex count != n-6+t1")
    return _claim("pentagon-census", bad, f"exact for n=5..{max(pentagons)}")


def _claim_hexagon_census(n_max: int) -> ClaimResult:
    top = min(n_max, 8)
    if top < 6:
        return _claim("hexagon-census", [], "vacuous: needs n >= 6")
    bad = []
    for n in range(6, top + 1):
        rep, oracle = census.hexagon_census(n), census.hexagon_census_oracle(n)
        if rep.per_vertex != oracle.per_vertex:
            bad.append(f"n={n}: vertex formula != oracle")
        if rep.m < n - 5:
            bad.append(f"n={n}: vertex count below n-5")
        if rep.per_edge != oracle.per_edge:
            bad.append(f"n={n}: edge count != support oracle")
        if min(rep.per_edge) < 1 or rep.t > 14:
            bad.append(f"n={n}: edge count outside [1,14]")
    return _claim("hexagon-census", bad, f"exact for n=6..{top}")


def _claim_lower_bound(lam_min: dict[int, float]) -> ClaimResult:
    bad = []
    for n, lam in lam_min.items():
        if n < 5:
            continue
        if not bounds.holds(bounds.assoc_lower_bound(n), lam):
            bad.append(f"n={n}")
    return _claim("pentagon-lower-bound", bad, "closed form below exact lambda_min everywhere")


def _claim_table_match(lam_min: dict[int, float], lam2: dict[int, float]) -> ClaimResult:
    bad = []
    for kind, values, table in (
        ("lambda_min", lam_min, LAMBDA_MIN_TABLE), ("lambda_2", lam2, LAMBDA_2_TABLE)
    ):
        for n, lam in values.items():
            if check_reference(kind, n, lam) is False:
                bad.append(f"{kind} n={n}: {lam:.6f} vs {table[n]}")
    return _claim("eigenvalue-tables", bad, "every value rounds to its reference entry")


def _claim_subadditivity(lam_min: dict[int, float]) -> ClaimResult:
    # slice(k + l - 2, (1, k)) is A_k box A_l, so by interlacing
    # lambda_min(k + l - 2) <= lambda_min(k) + lambda_min(l)
    bad = []
    n_max = max(lam_min)
    for k in range(4, n_max + 1):
        for l in range(k, n_max - k + 3):
            if not bounds.holds(lam_min[k + l - 2], lam_min[k] + lam_min[l]):
                bad.append(f"k={k},l={l}")
    return _claim("slice-subadditivity", bad, "holds for all splits")


def _claim_slice_isomorphism(n_max: int) -> ClaimResult:
    top = min(n_max, 10)
    bad = []
    for n in range(4, top + 1):
        for k in range(3, n):
            slc = diagonal_slice(n, (1, k))
            prod = box_product(build_associahedron(k), build_associahedron(n - k + 2))
            if slc.vertex_count != catalan(k - 2) * catalan(n - k):
                bad.append(f"n={n},k={k}: vertex count")
            if not is_isomorphic(slc, prod, slice_product_map(n, k)):
                bad.append(f"n={n},k={k}: not isomorphic")
    return _claim(
        "diagonal-slice-isomorphism", bad, f"slice(n,(1,k)) matches the box product up to n={top}"
    )


def _claim_collection_bounds(
    pentagons: dict[int, bounds.CollectionStats], lam_min: dict[int, float]
) -> ClaimResult:
    suite = [
        ("K4/K3", complete_graph(4), complete_graph(3), None, None),
        ("Petersen/C5", petersen_graph(), cycle_graph(5), None, None),
    ]
    for n, stats in pentagons.items():
        suite.append((f"A{n}/C5", build_associahedron(n), cycle_graph(5), lam_min[n], stats))
    for seed in range(10):
        g = random_regular_graph(20, 3, seed=seed)
        exact = spectra.lambda_min(g).value
        for label, pat in (("K3", complete_graph(3)), ("C5", cycle_graph(5)), ("C7", cycle_graph(7))):
            suite.append((f"rand20-seed{seed}/{label}", g, pat, exact, None))
    bad = []
    for label, g, pat, exact, stats in suite:
        rep = bounds.certify_collection_bound(
            g, pat, exact_lambda_min=exact, name=label, stats=stats
        )
        if not rep.satisfied:
            bad.append(label)
    return _claim(
        "collection-bound-certification", bad,
        f"bound <= exact lambda_min on {len(suite)} instances",
    )


def _claim_limit_bracket(lam_min: dict[int, float]) -> ClaimResult:
    br = bounds.limit_bracket()
    bad = []
    for n, lam in lam_min.items():
        if n < 5:
            continue
        ratio = lam / (n - 3)
        if not br.contains(ratio):
            bad.append(f"n={n}: ratio {ratio:.4f}")
    return _claim("limit-ratio-bracket", bad, "all ratios inside bracket")


def run_certification(n_max: int, seed: int = 0) -> list[ClaimResult]:
    """Run every claim up to n_max; heavier census/slice claims self-cap."""
    if n_max < 4:
        raise InvalidInputError("certification needs n_max >= 4")
    # the 5-cycles of A5..A9, one copy search per graph, serve the census and collection claims
    pentagons = {n: census.pentagon_census_oracle(n) for n in range(5, min(n_max, 9) + 1)}
    results = [
        _claim_structure(n_max),
        _claim_pentagon_census(pentagons),
        _claim_hexagon_census(n_max),
        _claim_slice_isomorphism(n_max),
    ]
    lam_min = {
        n: spectra.lambda_min(build_associahedron(n), seed=seed).value
        for n in range(4, min(n_max, 12) + 1)
    }
    lam2 = {
        n: spectra.lambda_2(build_associahedron(n), seed=seed).value
        for n in range(5, min(n_max, 12) + 1)
    }
    results.append(_claim_collection_bounds(pentagons, lam_min))
    results.append(_claim_table_match(lam_min, lam2))
    results.append(_claim_lower_bound(lam_min))
    results.append(_claim_subadditivity(lam_min))
    results.append(_claim_limit_bracket(lam_min))
    return results
