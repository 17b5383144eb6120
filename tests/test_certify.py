import sys
from collections import Counter

import pytest

from flipspectra import bounds, census, certify
from flipspectra.reference import LAMBDA_2_TABLE, LAMBDA_MIN_TABLE, check_reference
from flipspectra.triangulations import catalan


def test_structure_claim_states_each_scope():
    assert certify._claim_structure(10).detail == "regular, connected, triangle-free up to n=10"
    eleven = certify._claim_structure(11)
    assert eleven.passed
    assert eleven.detail == "regular, connected up to n=11; triangle-free up to n=10"


def test_certification_searches_each_flip_graph_for_pentagons_once(monkeypatch):
    searched = []
    search = bounds.collection_stats

    def spy(g, pattern):
        searched.append((g.vertex_count, pattern.vertex_count, pattern.edge_count))
        return search(g, pattern)

    # every flipspectra namespace that holds the search, as the benchmark tracer patches it
    holders = [
        module for name, module in list(sys.modules.items())
        if name.split(".")[0] == "flipspectra" and vars(module).get("collection_stats") is search
    ]
    assert {census, bounds} <= set(holders)
    for module in holders:
        monkeypatch.setattr(module, "collection_stats", spy)
    results = certify.run_certification(10)
    assert all(r.passed for r in results)
    # no other host of the suite has a Catalan number of vertices
    flip_graphs = {catalan(n - 2): n for n in range(5, 11)}
    pentagon_hosts = Counter(
        flip_graphs[v] for v, k, e in searched if v in flip_graphs and (k, e) == (5, 5)
    )
    assert pentagon_hosts == {n: 1 for n in range(5, 10)}


def test_subadditivity_claim_reads_the_slice_index(lambda_min_values):
    # slice(k + l - 2, (1, k)) is A_k box A_l, so lambda_min(k + l - 2) is the left side
    assert certify._claim_subadditivity(lambda_min_values).passed
    slack = min(
        lambda_min_values[k] + lambda_min_values[l] - lambda_min_values[k + l - 2]
        for k in range(4, 8)
        for l in range(k, 15 - k)
    )
    assert slack >= 0.414
    for excess in (0.1, 2 * bounds.SLACK):
        lam = dict(lambda_min_values)
        lam[7] = lam[4] + lam[5] + excess
        claim = certify._claim_subadditivity(lam)
        assert not claim.passed
        assert claim.detail == "k=4,l=5"


@pytest.mark.parametrize(
    "kind, n, value, good",
    [
        # lambda_min is rounded up: the value lies in [ref - 1e-3, ref], 1e-6 wider
        ("lambda_min", 8, LAMBDA_MIN_TABLE[8], True),
        ("lambda_min", 8, LAMBDA_MIN_TABLE[8] + 1e-6, True),
        ("lambda_min", 8, LAMBDA_MIN_TABLE[8] + 2e-6, False),
        ("lambda_min", 8, LAMBDA_MIN_TABLE[8] - 1e-3 - 1e-6, True),
        ("lambda_min", 8, LAMBDA_MIN_TABLE[8] - 1e-3 - 2e-6, False),
        # lambda_2 is rounded down: the value lies in [ref, ref + 1e-3], 1e-6 wider
        ("lambda_2", 6, 2.0 - 2.2e-16, True),
        ("lambda_2", 6, 2.0 - 2e-6, False),
        ("lambda_2", 8, LAMBDA_2_TABLE[8] + 1e-3 + 1e-6, True),
        ("lambda_2", 8, LAMBDA_2_TABLE[8] + 1e-3 + 2e-6, False),
        ("lambda_min", 13, -7.65, None),
        ("lambda_2", 4, 1.0, None),
    ],
)
def test_check_reference_follows_the_rounding_direction(kind, n, value, good):
    assert check_reference(kind, n, value) is good


def test_table_claim_rejects_a_value_on_the_wrong_side_of_its_rounding(
    lambda_min_values, lambda_2_values
):
    assert certify._claim_table_match(lambda_min_values, lambda_2_values).passed
    lam = dict(lambda_min_values)
    lam[8] = LAMBDA_MIN_TABLE[8] + 5e-4
    claim = certify._claim_table_match(lam, lambda_2_values)
    assert not claim.passed
    assert claim.detail == "lambda_min n=8: -3.911500 vs -3.912"
