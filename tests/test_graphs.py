import itertools
import random

import pytest

from dlagraph import graphs
from dlagraph.graphs import (
    ENUMERATE_MAX_N,
    Bipartition,
    add_edges,
    bipartition,
    build_graph,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    degrees,
    enumerate_connected_graphs,
    graph_from_spec,
    is_connected,
    line_graph,
    max_degree,
    omega_graph,
    parse_graph,
    parse_graph_json,
    parse_graph_text,
    sigma_graph,
    subgraph,
)
from oracles import enumerate_connected_graphs_brute


def test_build_graph_normalizes():
    g = build_graph(5, [(1, 0), (1, 2), (1, 4), (2, 3), (0, 1)])
    assert g.edges == ((0, 1), (1, 2), (1, 4), (2, 3))
    assert g == sigma_graph()


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        build_graph(0, [])


def test_components_and_connectivity():
    g = build_graph(6, [(0, 1), (2, 3), (3, 4)])
    assert connected_components(g) == [(0, 1), (2, 3, 4), (5,)]
    assert not is_connected(g)
    assert is_connected(sigma_graph())


def components_by_union_find(g):
    parent = list(range(g.n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for (u, v) in g.edges:
        parent[max(root(u), root(v))] = min(root(u), root(v))
    groups = {}
    for v in range(g.n):
        groups.setdefault(root(v), []).append(v)
    return [tuple(groups[r]) for r in sorted(groups)]


def test_components_match_union_find_on_random_graphs():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 12)
        p = rng.random() * 0.4
        g = build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        assert connected_components(g) == components_by_union_find(g)


def test_subgraph_relabels():
    g = build_graph(6, [(2, 3), (3, 5)])
    sub = subgraph(g, [2, 3, 5])
    assert sub.n == 3 and sub.edges == ((0, 1), (1, 2))


def test_bipartition_sigma():
    bip = bipartition(sigma_graph())
    assert bip.left == (0, 2, 4) and bip.right == (1, 3)
    assert bip.sizes == (3, 2)


def test_bipartition_odd_cycle_none():
    assert bipartition(omega_graph()) is None
    assert bipartition(cycle_graph(5)) is None
    assert bipartition(cycle_graph(6)) is not None


def test_degrees():
    assert degrees(sigma_graph()) == (1, 3, 2, 1, 1)
    assert max_degree(omega_graph()) == 3
    assert max_degree(cycle_graph(4)) == 2


def test_named_graphs():
    assert omega_graph().edges == ((0, 1), (1, 2), (1, 3), (2, 3))
    assert complete_bipartite(2, 3).edge_count == 6
    assert complete_graph(4).edge_count == 6
    # Sigma plus two edges is K_{2,3} on the same labeling
    k23 = add_edges(sigma_graph(), [(0, 3), (3, 4)])
    l, m = bipartition(k23).sizes
    assert {l, m} == {2, 3} and k23.edge_count == l * m


def test_parse_graph_text():
    text = """
    # demo graph
    n 5
    0 1
    1 2   # hub
    1 4
    2 3
    """
    assert parse_graph_text(text) == sigma_graph()
    with pytest.raises(ValueError):
        parse_graph_text("0 1\n1 2\n")
    with pytest.raises(ValueError):
        parse_graph_text("n 3\n0 1 2\n")


def test_parse_graph_json():
    g = parse_graph_json('{"n": 4, "edges": [[0,1],[1,2],[1,3],[2,3]]}')
    assert g == omega_graph()
    with pytest.raises(ValueError):
        parse_graph_json('{"edges": []}')
    with pytest.raises(ValueError):
        parse_graph_json("not json")


def test_parse_graph_dispatch():
    assert parse_graph('{"n": 2, "edges": [[0,1]]}') == line_graph(2)
    assert parse_graph("n 2\n0 1\n") == line_graph(2)


def test_graph_from_spec():
    assert graph_from_spec("K:5") == complete_graph(5)
    assert graph_from_spec("Kb:2,3") == complete_bipartite(2, 3)
    assert graph_from_spec("L:4") == line_graph(4)
    assert graph_from_spec("C:6") == cycle_graph(6)
    assert graph_from_spec("Sigma") == sigma_graph()
    assert graph_from_spec("omega") == omega_graph()
    for bad in ["K:", "Q:3", "Kb:2", "", "K:x"]:
        with pytest.raises(ValueError):
            graph_from_spec(bad)


def test_spec_bound_counts_vertices_plus_edges(monkeypatch):
    # a size below 1 keeps its constructor's message
    with pytest.raises(ValueError, match="at least one vertex"):
        graph_from_spec("Kb:-99999,-99999")
    # each spec at the bound reaches its constructor; one past it is refused
    # before any edge is built
    built = []
    for head, (_, arity, edges) in list(graphs._SPEC_FORMS.items()):
        monkeypatch.setitem(graphs._SPEC_FORMS, head, (lambda *a: built.append(a), arity, edges))
    assert graphs.SPEC_MAX_SIZE == 10**6
    for spec in ("K:1413", "Kb:999,999", "L:500000", "C:500000"):
        graph_from_spec(spec)
    assert built == [(1413,), (999, 999), (500000,), (500000,)]
    for spec in ("K:1414", "Kb:999,1000", "L:500001", "C:500001", "K:" + "9" * 3000):
        with pytest.raises(ValueError, match="more than 1000000 vertices plus edges"):
            graph_from_spec(spec)
    assert built == [(1413,), (999, 999), (500000,), (500000,)]


def test_enumerate_connected_graph_counts():
    # classical counts of connected graphs up to isomorphism
    assert len(enumerate_connected_graphs(1)) == 1
    assert len(enumerate_connected_graphs(2)) == 1
    assert len(enumerate_connected_graphs(3)) == 2
    assert len(enumerate_connected_graphs(4)) == 6
    assert len(enumerate_connected_graphs(5)) == 21
    assert len(enumerate_connected_graphs(6)) == 112


def test_enumerate_with_degree_filter():
    # dropping the path and the cycle leaves the branched graphs
    assert len(enumerate_connected_graphs(4, min_max_degree=3)) == 4
    assert len(enumerate_connected_graphs(5, min_max_degree=3)) == 19
    assert len(enumerate_connected_graphs(6, min_max_degree=3)) == 110


def test_enumerated_graphs_are_pairwise_nonisomorphic():
    # on n=4 the degree sequence plus edge count separates all six classes
    sigs = {
        (g.edge_count, tuple(sorted(degrees(g))))
        for g in enumerate_connected_graphs(4)
    }
    assert len(sigs) == 6


@pytest.mark.parametrize("min_max_degree", [0, 3])
def test_augmentation_equals_brute_force(min_max_degree):
    # whole lists: the same representatives in the same order
    for n in range(1, 7):
        assert enumerate_connected_graphs(n, min_max_degree) == \
            enumerate_connected_graphs_brute(n, min_max_degree), n


def test_enumerate_seven_vertices():
    graphs = enumerate_connected_graphs(7)
    assert ENUMERATE_MAX_N == 7
    assert len(graphs) == 853
    assert len(set(graphs)) == 853 and all(is_connected(g) for g in graphs)
    assert sum(max_degree(g) >= 3 for g in graphs) == 851
    assert enumerate_connected_graphs(7, min_max_degree=3) == [
        g for g in graphs if max_degree(g) >= 3
    ]
    with pytest.raises(ValueError):
        enumerate_connected_graphs(8)
