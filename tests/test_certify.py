from collections import Counter

from flipspectra import bounds, certify
from flipspectra.triangulations import catalan


def test_structure_claim_states_each_scope():
    assert certify._claim_structure(10).detail == "regular, connected, triangle-free up to n=10"
    eleven = certify._claim_structure(11)
    assert eleven.passed
    assert eleven.detail == "regular, connected up to n=11; triangle-free up to n=10"


def test_certification_searches_each_flip_graph_for_pentagons_once(monkeypatch):
    searched = []
    search = bounds.collection_stats

    def spy(g, pattern, *args, **kwargs):
        searched.append((g.vertex_count, pattern.vertex_count, pattern.edge_count))
        return search(g, pattern, *args, **kwargs)

    monkeypatch.setattr(bounds, "collection_stats", spy)
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
    lam = dict(lambda_min_values)
    lam[7] = lam[4] + lam[5] + 0.1
    claim = certify._claim_subadditivity(lam)
    assert not claim.passed
    assert claim.detail == "k=4,l=5"
