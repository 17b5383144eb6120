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
