import itertools
import math

import pytest

from continualdp import Graph, GraphFunction, RandomSource, evaluate, static_sensitivity
from continualdp.errors import (
    MissingTerminal,
    OutOfRange,
    SizeLimitExceeded,
    UnknownFunction,
)
from continualdp.graphs import DynamicGraph
from continualdp.functions import (
    FUNCTION_NAMES,
    MONOTONE_FUNCTIONS,
    degree_histogram,
    densest_subgraph,
    edge_count,
    high_degree,
    kstar_count,
    max_cardinality_matching,
    max_weight_matching,
    min_cut,
    mst_weight,
    st_min_cut,
    triangle_count,
)

import oracles


def k4():
    return Graph.from_edges((u, v) for u in range(4) for v in range(u + 1, 4))


def weighted_path():
    return Graph.from_edges([(0, 1, 2), (1, 2, 5)])


def random_graph(rng, n, density=0.5, W=3):
    edges = [
        (u, v, 1 + rng.integers(0, W))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.uniform() < density
    ]
    return Graph.from_edges(edges, extra_nodes=range(n))


def test_k4_values():
    g = k4()
    assert edge_count(g) == 6
    assert triangle_count(g) == 4
    assert kstar_count(g, 2) == 12
    assert mst_weight(g) == 3
    assert min_cut(g) == 3.0
    assert densest_subgraph(g) == 1.5
    assert max_cardinality_matching(g) == 2
    assert high_degree(g, 3) == 4
    assert degree_histogram(g) == (0, 0, 0, 4)


def test_weighted_path_values():
    g = weighted_path()
    assert mst_weight(g) == 7
    assert min_cut(g) == 2.0
    assert max_weight_matching(g) == 5
    assert degree_histogram(g) == (0, 2, 1)
    assert st_min_cut(g, 0, 2) == 2.0


def test_histogram_sums_to_node_count():
    rng = RandomSource(4)
    for i in range(30):
        g = random_graph(rng.child(i), n=2 + rng.integers(0, 6))
        hist = degree_histogram(g)
        assert sum(hist) == g.n
        # bins run to the max degree, whose bin is never empty
        assert len(hist) == 1 + max(g.degrees().values()) and hist[-1] > 0
    assert degree_histogram(Graph()) == ()


def test_one_star_count_is_twice_the_edges():
    rng = RandomSource(8)
    for i in range(30):
        g = random_graph(rng.child(i), n=2 + rng.integers(0, 4))
        assert kstar_count(g, 1) == 2 * g.m


def test_triangle_count_exhaustive_small():
    # compare the per-edge count against direct triple enumeration
    for n in (3, 4, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for picks in itertools.product((0, 1), repeat=len(pairs)):
            g = Graph.from_edges(
                (e for e, on in zip(pairs, picks) if on), extra_nodes=range(n)
            )
            direct = sum(
                1
                for a, b, c in itertools.combinations(range(n), 3)
                if (a, b) in g.edges and (b, c) in g.edges and (a, c) in g.edges
            )
            assert triangle_count(g) == direct


def test_mst_is_forest_weight_with_isolated_nodes():
    g = Graph.from_edges([(0, 1, 2), (2, 3, 5)], extra_nodes=[9])
    assert mst_weight(g) == 7
    assert mst_weight(Graph({1, 2, 3})) == 0


def test_min_cut_of_disconnected_graph_is_zero():
    g = Graph.from_edges([(0, 1, 4)], extra_nodes=[2])
    assert min_cut(g) == 0.0
    assert min_cut(Graph({0})) == 0.0


def test_min_cut_dual_routes_agree():
    rng = RandomSource(13)
    for i in range(40):
        g = random_graph(rng.child(i), n=3 + rng.integers(0, 5), density=0.7)
        assert min_cut(g) == pytest.approx(oracles.min_cut_networkx(g))


def test_matching_dual_routes_agree():
    rng = RandomSource(14)
    for i in range(40):
        g = random_graph(rng.child(i), n=2 + rng.integers(0, 6))
        assert max_weight_matching(g) == oracles.matching_dp(g, unit=False)
        assert max_cardinality_matching(g) == oracles.matching_dp(g, unit=True)


def test_cardinality_matching_equals_networkx_blossom():
    import networkx as nx

    rng = RandomSource(16)
    for i in range(500):
        r = rng.child(i)
        g = random_graph(r, n=1 + r.integers(0, 14), density=r.uniform())
        G = nx.Graph()
        G.add_nodes_from(g.nodes)
        G.add_edges_from(g.edges)
        assert max_cardinality_matching(g) == len(nx.max_weight_matching(G, maxcardinality=True))


def test_min_cut_returns_a_python_float():
    assert type(min_cut(k4())) is float
    assert type(min_cut(Graph({0, 1}))) is float
    state = DynamicGraph(k4())
    f = GraphFunction("min_cut")
    # the first call computes the value, the second reads the kept one
    assert [type(evaluate(f, state)) for _ in range(2)] == [float, float]


def test_densest_dual_routes_agree():
    rng = RandomSource(15)
    for i in range(200):
        g = random_graph(rng.child(i), n=2 + rng.integers(0, 9), density=0.4)
        assert oracles.densest_flow(g) == pytest.approx(densest_subgraph(g))


def test_st_min_cut_requires_terminals():
    g = weighted_path()
    with pytest.raises(MissingTerminal):
        st_min_cut(g, 0, 9)


def test_size_limits_enforced():
    with pytest.raises(SizeLimitExceeded):
        oracles.matching_dp(Graph(range(23)), unit=False)
    with pytest.raises(SizeLimitExceeded):
        densest_subgraph(Graph(range(21)))


def test_graph_function_validation():
    with pytest.raises(UnknownFunction):
        GraphFunction("page_rank")
    with pytest.raises(OutOfRange):
        GraphFunction("high_degree")
    with pytest.raises(OutOfRange):
        GraphFunction("kstar_count", k=0)
    with pytest.raises(OutOfRange):
        GraphFunction("st_min_cut", s=1, t=1)
    assert GraphFunction("kstar_count", k=2).label() == "kstar_count(k=2)"


def test_evaluate_dispatch_matches_direct_calls():
    g = k4()
    assert evaluate(GraphFunction("triangle_count"), g) == triangle_count(g)
    assert evaluate(GraphFunction("high_degree", tau=3), g) == high_degree(g, 3)
    assert evaluate(GraphFunction("st_min_cut", s=0, t=3), g) == st_min_cut(g, 0, 3)
    assert evaluate(GraphFunction("degree_histogram"), g) == degree_histogram(g)


def test_static_sensitivity_values():
    assert static_sensitivity(GraphFunction("min_cut"), W=5) == 5
    assert static_sensitivity(GraphFunction("st_min_cut", s=0, t=1), W=5) == 5
    assert static_sensitivity(GraphFunction("max_weight_matching"), W=5) == 5
    assert static_sensitivity(GraphFunction("max_cardinality_matching"), W=5) == 1
    assert static_sensitivity(GraphFunction("densest_subgraph")) == 1
    with pytest.raises(UnknownFunction):
        static_sensitivity(GraphFunction("edge_count"))
    # rho = W is never calibrated from an undeclared W
    for f in (GraphFunction("min_cut"), GraphFunction("st_min_cut", s=0, t=1),
              GraphFunction("max_weight_matching")):
        with pytest.raises(OutOfRange, match="weight bound W"):
            static_sensitivity(f)


def test_the_table_declares_every_statistic_once():
    assert FUNCTION_NAMES == {
        "edge_count", "high_degree", "degree_histogram", "triangle_count", "kstar_count",
        "mst_weight", "min_cut", "st_min_cut", "max_weight_matching",
        "max_cardinality_matching", "densest_subgraph",
    }
    assert MONOTONE_FUNCTIONS == {
        "min_cut", "st_min_cut", "max_weight_matching", "max_cardinality_matching",
        "densest_subgraph",
    }


def test_static_sensitivity_brute_force():
    # |f(G) - f(G \ e)| <= rho over every edge of random graphs
    rng = RandomSource(21)
    W = 3
    funcs = [
        GraphFunction("min_cut"),
        GraphFunction("max_weight_matching"),
        GraphFunction("max_cardinality_matching"),
        GraphFunction("densest_subgraph"),
    ]
    for i in range(25):
        g = random_graph(rng.child(i), n=3 + rng.integers(0, 3), density=0.6, W=W)
        for e in list(g.edges):
            smaller = Graph(g.nodes, {k: w for k, w in g.edges.items() if k != e})
            for f in funcs:
                rho = static_sensitivity(f, W=W)
                diff = abs(float(evaluate(f, g)) - float(evaluate(f, smaller)))
                assert diff <= rho + 1e-9, (f.name, e)
